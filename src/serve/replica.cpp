#include "serve/replica.hpp"

#include <algorithm>
#include <iterator>
#include <string>

namespace cxlgraph::serve {

ReplicaSim::ReplicaSim(FleetSim& fleet_in, std::uint32_t index_in)
    : fleet(fleet_in),
      index(index_in),
      listener_(fleet_in.sim.add_listener(this, &ReplicaSim::on_event)) {}

void ReplicaSim::on_event(void* self, std::uint16_t /*opcode*/,
                          std::uint32_t /*a*/, std::uint32_t /*b*/) {
  static_cast<ReplicaSim*>(self)->quantum_done();
}

void ReplicaSim::attach_telemetry() {
  obs::Telemetry* sink = fleet.telemetry;
  if (sink == nullptr) return;
  const std::string name = "replica" + std::to_string(index);
  if (sink->tracing()) {
    replica_tracing_ = true;
    track_ = sink->tracer().track("serve", name);
    n_quantum_ = sink->tracer().intern("quantum");
  }
  if (sink->sampling()) {
    replica_sampling_ = true;
    ch_bytes_ = sink->sampler().channel(
        "serve/" + name + "/quantum_bytes",
        obs::TimeSeriesSampler::Reduce::kSum);
    ch_depth_ = sink->sampler().channel(
        "serve/" + name + "/depth", obs::TimeSeriesSampler::Reduce::kMax);
  }
  heat_trace_.bind(sink, "serve", name + "-heat");
}

void ReplicaSim::note_quantum(std::size_t i, util::SimTime duration,
                              std::uint64_t bytes) {
  if (replica_tracing_) {
    fleet.telemetry->tracer().complete(track_, n_quantum_, fleet.sim.now(),
                                       duration, fleet.k_query,
                                       fleet.records[i].id);
    // Chain this quantum into the query's flow on the replica's track —
    // the step lands at quantum start, so it always precedes the 'f'
    // the completion will add.
    fleet.telemetry->tracer().flow_step(track_, fleet.n_flow, fleet.sim.now(),
                                        fleet.records[i].id);
  }
  if (replica_sampling_) {
    fleet.telemetry->sampler().record(ch_bytes_, fleet.sim.now(),
                                      static_cast<double>(bytes));
    fleet.sample_depth();
  }
}

void ReplicaSim::sample_replica_depth() {
  if (replica_sampling_) {
    fleet.telemetry->sampler().record(ch_depth_, fleet.sim.now(), depth());
  }
}

void ReplicaSim::place(std::size_t i) {
  fleet.records[i].replica = index;
  backlog_ps += fleet.remaining_ps(i);
  ready.push_back(i);
}

void ReplicaSim::admit(std::size_t i) {
  ++fleet.admitted;
  place(i);
  if (fleet.telemetry != nullptr) {
    fleet.note_admission(i, /*was_shed=*/false);
    sample_replica_depth();
  }
  dispatch();
}

void ReplicaSim::resume(std::size_t i) {
  place(i);
  if (fleet.telemetry != nullptr) {
    // Migration resume: the query's flow continues on this replica.
    if (replica_tracing_) {
      fleet.telemetry->tracer().flow_step(track_, fleet.n_flow,
                                          fleet.sim.now(), fleet.records[i].id);
    }
    sample_replica_depth();
  }
  dispatch();
}

std::vector<std::size_t> ReplicaSim::extract_waiting(
    std::uint32_t class_index) {
  std::vector<std::size_t> moved;
  for (auto it = ready.begin(); it != ready.end();) {
    if (fleet.records[*it].class_index == class_index) {
      backlog_ps -= fleet.remaining_ps(*it);
      moved.push_back(*it);
      it = ready.erase(it);
    } else {
      ++it;
    }
  }
  if (fleet.telemetry != nullptr && !moved.empty()) {
    // Migration drain: each moved query's flow steps through the source
    // replica one last time before resuming on the target.
    if (replica_tracing_) {
      for (const std::size_t i : moved) {
        fleet.telemetry->tracer().flow_step(track_, fleet.n_flow,
                                            fleet.sim.now(),
                                            fleet.records[i].id);
      }
    }
    sample_replica_depth();
  }
  return moved;
}

std::size_t ReplicaSim::mark_redirect(std::uint32_t class_index,
                                      std::size_t migration) {
  if (active == kNoQuery ||
      fleet.records[active].class_index != class_index) {
    return kNoQuery;
  }
  redirect_query_ = active;
  redirect_migration_ = migration;
  return active;
}

void ReplicaSim::on_crash() {
  dead = true;
  redirect_query_ = kNoQuery;
}

std::vector<std::size_t> ReplicaSim::take_all_waiting() {
  std::vector<std::size_t> drained(ready.begin(), ready.end());
  for (const std::size_t i : drained) backlog_ps -= fleet.remaining_ps(i);
  ready.clear();
  if (fleet.telemetry != nullptr) sample_replica_depth();
  return drained;
}

std::size_t ReplicaSim::abort_active() {
  if (active == kNoQuery) return kNoQuery;
  const std::size_t i = active;
  active = kNoQuery;
  // The quantum's completion event is already in the simulator's queue;
  // flag it for the swallow in quantum_done. next_step advanced at
  // dispatch, so remaining_ps(i) is exactly the backlog still booked.
  discard_pending_ = true;
  backlog_ps -= fleet.remaining_ps(i);
  busy_ps -= quantum_end_ - fleet.sim.now();
  return i;
}

void ReplicaSim::dispatch() {
  // A dead replica never dispatches; neither does one whose aborted
  // quantum's completion event is still in flight (it would double-book
  // the stack — quantum_done clears the flag and re-dispatches).
  if (dead || discard_pending_ || active != kNoQuery || ready.empty()) return;
  const ServeConfig& config = fleet.config.serve;
  std::size_t i;
  if (config.policy == SchedulingPolicy::kSloPriority) {
    auto best = ready.begin();
    for (auto it = std::next(ready.begin()); it != ready.end(); ++it) {
      if (fleet.deadline(*it) < fleet.deadline(*best)) best = it;
    }
    i = *best;
    ready.erase(best);
  } else {
    i = ready.front();
    ready.pop_front();
  }

  active = i;
  QueryRecord& r = fleet.records[i];
  const QueryProfile& p = fleet.profiles[r.profile_index];
  // first_service survives crash recovery (next_step resets to 0 but the
  // query did reach a stack), so the guard checks both.
  if (fleet.next_step[i] == 0 && r.first_service == 0) {
    r.first_service = fleet.sim.now();
    if (fleet.telemetry != nullptr) fleet.note_queued(i);
  }
  const std::size_t remaining = p.step_ps.size() - fleet.next_step[i];
  const std::size_t quantum =
      config.policy == SchedulingPolicy::kFifo
          ? remaining
          : std::min<std::size_t>(
                std::max<std::uint32_t>(config.quantum_supersteps, 1),
                remaining);
  util::SimTime duration = 0;
  std::uint64_t bytes = 0;
  for (std::size_t k = fleet.next_step[i];
       k < fleet.next_step[i] + quantum; ++k) {
    duration += p.step_ps[k];
    bytes += p.step_bytes[k];
  }
  backlog_ps -= duration;  // profiled demand now in service
  if (config.thermal.enabled) {
    // Quantum bytes heat the stack; once the accumulator crosses the
    // budget the whole quantum serves at the derated bandwidth. The
    // bytes themselves are unchanged — conservation still holds.
    const double mult = heat.charge(config.thermal, fleet.sim.now(), bytes);
    if (mult > 1.0) {
      duration = util::checked_stretch_ps(duration, mult, "throttled quantum");
      ++throttled_quanta;
    }
    if (heat_trace_.bound()) {
      heat_trace_.on_thermal(fleet.sim.now(), heat.throttled());
    }
    const bool throttled_now = heat.throttled();
    if (throttled_now != throttle_state_) {
      throttle_state_ = throttled_now;
      fleet.monitor.observe_throttle(fleet.sim.now(), index, throttled_now);
    }
  }
  if (fleet.plan.active()) {
    // Transient I/O-error retries and link-degrade windows add wall time
    // to the quantum. Bytes are unchanged and the backlog estimate stays
    // profiled, matching the thermal convention above.
    duration = util::checked_add_ps(duration,
                                    fleet.fault_extra(index, duration),
                                    "quantum plus fault delays");
  }
  fleet.next_step[i] += quantum;
  r.service_ps += duration;
  r.service_bytes += bytes;
  busy_ps += duration;
  quantum_end_ = fleet.sim.now() + duration;
  link_bytes += bytes;
  ++quanta;
  if (fleet.telemetry != nullptr) note_quantum(i, duration, bytes);
  fleet.sim.schedule_after(duration, listener_, 0);
}

void ReplicaSim::quantum_done() {
  if (discard_pending_) {
    // This completion belonged to a quantum aborted by a crash; its
    // effects already moved to the lost-work ledger. Swallow it and, if
    // the replica has since revived, resume dispatching.
    discard_pending_ = false;
    if (!dead) dispatch();
    return;
  }
  const std::size_t i = active;
  active = kNoQuery;
  QueryRecord& r = fleet.records[i];
  if (fleet.next_step[i] == fleet.profiles[r.profile_index].step_ps.size()) {
    if (redirect_query_ == i) {
      // The marked tenant query finished at the source before yielding;
      // nothing in-flight moves (its state copy was already charged).
      redirect_query_ = kNoQuery;
    }
    ++served;
    fleet.complete_query(i);
  } else if (redirect_query_ == i) {
    // Live migration: the in-flight tenant query yields here and resumes
    // on the target (next_step preserved) instead of requeueing locally.
    backlog_ps -= fleet.remaining_ps(i);
    redirect_query_ = kNoQuery;
    fleet.redirected(redirect_migration_, i);
  } else {
    ready.push_back(i);
  }
  if (fleet.telemetry != nullptr) sample_replica_depth();
  dispatch();
}

}  // namespace cxlgraph::serve
