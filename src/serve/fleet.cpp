#include "serve/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "device/pcie.hpp"
#include "obs/metrics.hpp"
#include "serve/replica.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

namespace cxlgraph::serve {

namespace {

/// The random router's stream seed. Routing only: records depend on the
/// draws through nothing but which replica served.
constexpr std::uint64_t kRouterSeed = 0x5eedf1ee7ULL;

/// Report aggregation over the finished simulation: exact + P²
/// percentiles, queue/service time split, query-byte conservation
/// side, goodput and SLO accounting. `busy_ps` is the summed stack busy
/// time and `capacity_sec` the utilization denominator (summed replica
/// lifetime: the makespan for one replica that served to the end).
/// Expects report.makespan_sec and the counters already set.
void summarize_serve(ServeReport& report, const FleetSim& sim,
                     util::SimTime busy_ps, double capacity_sec) {
  std::vector<util::SimTime> latency_ps, queue_ps, service_ps;
  latency_ps.reserve(report.completed);
  queue_ps.reserve(report.completed);
  service_ps.reserve(report.completed);
  std::uint32_t met_slo = 0;
  util::SimTime queue_total = 0, service_total = 0;
  util::SimTime lost_total = 0;
  for (const QueryRecord& r : sim.records) {
    // The crash-recovery ledger sums over every record: failed (and any
    // unresolved) queries' discarded bytes must still balance the link.
    report.query_retries += r.retries;
    report.lost_bytes += r.lost_bytes;
    lost_total += r.lost_ps;
    if (r.shed || r.failed) continue;
    latency_ps.push_back(r.completion - r.arrival);
    queue_ps.push_back(r.queue_ps);
    service_ps.push_back(r.service_ps);
    queue_total += r.queue_ps;
    service_total += r.service_ps;
    if (!r.slo_violated) ++met_slo;
    report.query_bytes += sim.profiles[r.profile_index].report.fetched_bytes;
  }
  report.lost_work_sec = util::sec_from_ps(lost_total);
  report.latency_us = util::summarize_percentiles(std::move(latency_ps));
  report.queue_us = util::summarize_percentiles(std::move(queue_ps));
  report.service_us = util::summarize_percentiles(std::move(service_ps));
  report.streaming_p50_us = sim.stream_p50.estimate();
  report.streaming_p95_us = sim.stream_p95.estimate();
  report.streaming_p99_us = sim.stream_p99.estimate();
  const auto rel_error = [](double exact, double estimate) {
    return exact > 0.0 ? std::fabs(estimate - exact) / exact : 0.0;
  };
  report.p2_max_rel_error = std::max(
      {rel_error(report.latency_us.p50, report.streaming_p50_us),
       rel_error(report.latency_us.p95, report.streaming_p95_us),
       rel_error(report.latency_us.p99, report.streaming_p99_us)});
  report.time_in_queue_sec = util::sec_from_ps(queue_total);
  report.time_in_service_sec = util::sec_from_ps(service_total);
  if (report.makespan_sec > 0.0) {
    report.completed_qps =
        static_cast<double>(report.completed) / report.makespan_sec;
    report.goodput_qps = static_cast<double>(met_slo) / report.makespan_sec;
  }
  if (capacity_sec > 0.0) {
    report.utilization = util::sec_from_ps(busy_ps) / capacity_sec;
  }
  if (report.completed > 0) {
    report.slo_violation_rate =
        static_cast<double>(report.completed - met_slo) /
        static_cast<double>(report.completed);
  }
}

/// `value` split at every `sep`, empty parts kept.
std::vector<std::string> split_on(const std::string& value, char sep) {
  std::vector<std::string> parts;
  std::string::size_type start = 0;
  while (true) {
    const std::string::size_type end = value.find(sep, start);
    if (end == std::string::npos) {
      parts.push_back(value.substr(start));
      return parts;
    }
    parts.push_back(value.substr(start, end - start));
    start = end + 1;
  }
}

/// One 32-bit field of a list option's entry, e.g. a --quota cap.
std::uint32_t parse_field(const std::string& text, const std::string& what) {
  return static_cast<std::uint32_t>(util::parse_uint(
      text, what, 0, std::numeric_limits<std::uint32_t>::max()));
}

}  // namespace

std::vector<MigrationPlan> parse_migrations(const std::string& spec) {
  std::vector<MigrationPlan> plans;
  if (spec.empty()) return plans;
  for (const std::string& item : util::split_csv(spec)) {
    const std::vector<std::string> parts = split_on(item, ':');
    if (parts.size() != 4) {
      throw std::invalid_argument(
          "bad --migrate entry '" + item +
          "' (expected at_ms:class:from:to, e.g. 2.5:0:0:1)");
    }
    MigrationPlan plan;
    plan.at_sec = util::parse_double(parts[0], "--migrate time") * 1e-3;
    plan.class_index = parse_field(parts[1], "--migrate class");
    plan.from = parse_field(parts[2], "--migrate source replica");
    plan.to = parse_field(parts[3], "--migrate target replica");
    plans.push_back(plan);
  }
  return plans;
}

std::vector<TenantQuota> parse_quotas(const std::string& spec) {
  std::vector<TenantQuota> quotas;
  if (spec.empty()) return quotas;
  for (const std::string& item : util::split_csv(spec)) {
    const std::vector<std::string> parts = split_on(item, ':');
    if (parts.size() != 2) {
      throw std::invalid_argument("bad --quota entry '" + item +
                                  "' (expected class:max, e.g. 0:2)");
    }
    TenantQuota quota;
    quota.class_index = parse_field(parts[0], "--quota class");
    quota.max_in_flight = parse_field(parts[1], "--quota cap");
    quotas.push_back(quota);
  }
  return quotas;
}

// ---------------------------------------------------------------------------
// FleetSim: setup, run, and the query lifecycle
// ---------------------------------------------------------------------------

FleetSim::FleetSim(const FleetConfig& config_in, const WorkloadSpec& spec_in,
                   const std::vector<Query>& queries_in,
                   const std::vector<QueryProfile>& profiles_in,
                   std::vector<QueryRecord>& records_in,
                   std::size_t num_classes)
    : config(config_in),
      spec(spec_in),
      queries(queries_in),
      profiles(profiles_in),
      records(records_in),
      listener(sim.add_listener(this, &FleetSim::on_event)),
      next_step(queries_in.size(), 0),
      router_rng(kRouterSeed),
      quota_limit(num_classes, 0),
      in_flight(num_classes, 0),
      plan(config_in.faults, config_in.replicas),
      interval_ps(config_in.elastic.enabled
                      ? util::ps_from_sec(config_in.elastic.check_interval_sec)
                      : 0) {
  remaining_after.resize(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const std::vector<util::SimTime>& steps = profiles[p].step_ps;
    std::vector<util::SimTime>& suffix = remaining_after[p];
    suffix.assign(steps.size() + 1, 0);
    for (std::size_t k = steps.size(); k-- > 0;) {
      suffix[k] = suffix[k + 1] + steps[k];
    }
  }
  for (const TenantQuota& q : config.quotas) {
    quota_limit[q.class_index] = q.max_in_flight;
  }
  for (std::uint32_t k = 0; k < config.replicas; ++k) add_replica();
  peak_replicas = config.replicas;
}

void FleetSim::attach_telemetry(obs::Telemetry* sink) {
  if (sink == nullptr) return;
  telemetry = sink;
  obs::SpanTracer& tr = sink->tracer();
  track_lifecycle = tr.track("serve", "lifecycle");
  n_admit = tr.intern("admit");
  n_shed = tr.intern("shed");
  n_complete = tr.intern("complete");
  n_failed = tr.intern("failed");
  n_queued = tr.intern("queued");
  k_query = tr.intern("query");
  n_flow = tr.intern("query");
  obs::MetricsRegistry& m = sink->metrics();
  c_admitted = &m.counter("serve", "admitted");
  c_shed = &m.counter("serve", "shed");
  c_completed = &m.counter("serve", "completed");
  c_failed = &m.counter("serve", "failed");
  h_latency_ns = &m.histogram("serve", "latency_ns");
  ch_depth = sink->sampler().channel("serve/queue_depth",
                                     obs::TimeSeriesSampler::Reduce::kMax);
  for (ReplicaSim& r : replicas) r.attach_telemetry();
  track_control = tr.track("fleet", "control");
  n_migrate = tr.intern("migrate");
  n_copy_landed = tr.intern("copy-landed");
  n_scale_up = tr.intern("scale-up");
  n_scale_down = tr.intern("scale-down");
  n_crash = tr.intern("crash");
  n_restart = tr.intern("restart");
  n_replace = tr.intern("replace");
  k_class = tr.intern("class");
  k_replica = tr.intern("replica");
}

void FleetSim::on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                        std::uint32_t b) {
  FleetSim& f = *static_cast<FleetSim*>(self);
  switch (static_cast<Op>(opcode)) {
    case kArrive:
      f.arrive(a);
      break;
    case kReroute:
      f.reroute(a);
      break;
    case kMigrate:
      f.migrate(a);
      break;
    case kCopyLanded:
      f.copy_landed(a);
      break;
    case kFault:
      f.deliver_fault(f.plan.events()[a]);
      break;
    case kRevive:
      f.revive(a);
      break;
    case kIoBurstEnd:
      f.io_burst_end(a);
      break;
    case kReplace:
      f.join_replacement(
          static_cast<std::int64_t>(std::uint64_t{b} << 32 | a));
      break;
    case kElasticTick:
      f.elastic_tick();
      break;
    case kLinkFlapEnd:
      f.link_flap_end();
      break;
  }
}

void FleetSim::run() {
  migrations.resize(config.migrations.size());
  for (std::size_t m = 0; m < config.migrations.size(); ++m) {
    schedule_at(util::ps_from_sec(config.migrations[m].at_sec), kMigrate,
                static_cast<std::uint32_t>(m));
  }
  if (config.elastic.enabled) schedule_after(interval_ps, kElasticTick);
  for (std::size_t f = 0; f < plan.events().size(); ++f) {
    schedule_at(plan.events()[f].at, kFault, static_cast<std::uint32_t>(f));
  }
  if (spec.process == ArrivalProcess::kOpenLoopPoisson) {
    // Time-sorted, so the arrivals fill their own lane by appends.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      schedule_at(queries[i].arrival, kArrive, static_cast<std::uint32_t>(i));
    }
  } else {
    client_queries.resize(spec.num_clients);
    client_cursor.assign(spec.num_clients, 0);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      client_queries[i % spec.num_clients].push_back(i);
    }
    for (std::uint32_t c = 0; c < spec.num_clients; ++c) issue_next(c);
  }

  std::unique_ptr<obs::SimRunObserver> observer;
  if (telemetry != nullptr) {
    observer = std::make_unique<obs::SimRunObserver>(*telemetry, "fleet_sim");
    observer->add_probe(
        "heat",
        [this]() {
          double h = 0.0;
          for (const ReplicaSim& r : replicas) h = std::max(h, r.heat.heat());
          return h;
        },
        obs::TimeSeriesSampler::Reduce::kMax);
    sim.set_observer(observer.get());
  }
  sim.run();
  if (observer != nullptr) {
    observer->finish();
    sim.set_observer(nullptr);
  }
}

void FleetSim::arrive(std::size_t i) {
  QueryRecord& r = records[i];
  r.arrival = sim.now();
  const std::uint32_t cls = r.class_index;
  if (quota_limit[cls] > 0 && in_flight[cls] >= quota_limit[cls]) {
    shed_query(i, shed_quota);
    return;
  }
  if (dead_count > 0 && !has_live()) {
    // Total outage: nowhere to place the query. It still counts as
    // admitted (symmetric bookkeeping — failure releases the quota
    // slot); if a restart or replacement is coming it parks until then,
    // otherwise it can only fail.
    ++admitted;
    if (telemetry != nullptr) note_admission(i, /*was_shed=*/false);
    ++in_flight[cls];
    if (pending_recoveries > 0) {
      orphans.push_back(i);
    } else {
      fail_query(i);
    }
    record_depth();
    return;
  }
  if (config.slo_shedding) {
    // Feasibility on the emptiest routable replica: if even its backlog
    // plus this query's full demand busts the deadline, serving it only
    // wastes stack time on a guaranteed violation.
    util::SimTime least = std::numeric_limits<util::SimTime>::max();
    for (const std::uint32_t k : routable_set) {
      least = std::min(least, replicas[k].backlog_ps);
    }
    if (least + remaining_ps(i) > r.slo) {
      shed_query(i, shed_deadline);
      return;
    }
  }
  ReplicaSim& rep = replicas[route(i)];
  if (config.serve.max_waiting > 0 &&
      rep.waiting() >= config.serve.max_waiting) {
    shed_query(i, shed_queue);
    return;
  }
  ++in_flight[cls];
  rep.admit(i);
  record_depth();
}

void FleetSim::issue_next(std::uint32_t client) {
  if (client_cursor[client] == client_queries[client].size()) return;
  const std::size_t i = client_queries[client][client_cursor[client]++];
  schedule_after(queries[i].think_gap, kArrive, static_cast<std::uint32_t>(i));
}

void FleetSim::shed_query(std::size_t i, std::uint32_t& reason) {
  ++reason;
  records[i].shed = true;
  ++shed;
  if (telemetry != nullptr) note_admission(i, /*was_shed=*/true);
  // A shed query does not stall its closed-loop client.
  if (spec.process == ArrivalProcess::kClosedLoop) {
    issue_next(static_cast<std::uint32_t>(i % spec.num_clients));
  }
  record_depth();
}

void FleetSim::fail_query(std::size_t i) {
  QueryRecord& r = records[i];
  r.failed = true;
  ++failed;
  if (telemetry != nullptr) note_failed(i);
  // A failed query does not stall its closed-loop client either.
  if (spec.process == ArrivalProcess::kClosedLoop) {
    issue_next(static_cast<std::uint32_t>(i % spec.num_clients));
  }
  // Quota release and depth sampling only — failure is deliberately not
  // a completion for the SLO-rate window.
  if (in_flight[r.class_index] > 0) --in_flight[r.class_index];
  record_depth();
}

void FleetSim::complete_query(std::size_t i) {
  QueryRecord& r = records[i];
  r.completion = sim.now();
  // Sojourn splits exactly into queue + service + lost: stack time a
  // crash discarded is its own component (lost_ps); retry backoff waits
  // land in queue with the rest of the non-service time.
  r.queue_ps = r.completion - r.arrival - r.service_ps - r.lost_ps;
  r.slo_violated = r.completion - r.arrival > r.slo;
  last_completion = std::max(last_completion, r.completion);
  const double latency_us = util::us_from_ps(r.completion - r.arrival);
  stream_p50.add(latency_us);
  stream_p95.add(latency_us);
  stream_p99.add(latency_us);
  ++completed;
  if (telemetry != nullptr) note_completion(i);
  if (spec.process == ArrivalProcess::kClosedLoop) {
    issue_next(static_cast<std::uint32_t>(i % spec.num_clients));
  }
  monitor.observe_completion(sim.now(), r.slo_violated);
  if (in_flight[r.class_index] > 0) --in_flight[r.class_index];
  // A draining replica retires the moment it runs dry.
  const std::uint32_t k = r.replica;
  if (k < replicas.size() && replicas[k].draining && !replicas[k].retired &&
      replicas[k].idle()) {
    replicas[k].retired = true;
    replicas[k].retired_at = sim.now();
    refresh_routable();
  }
  record_depth();
}

void FleetSim::note_admission(std::size_t i, bool was_shed) {
  const QueryRecord& r = records[i];
  telemetry->tracer().instant(track_lifecycle, was_shed ? n_shed : n_admit,
                              sim.now(), k_query, r.id);
  (was_shed ? c_shed : c_admitted)->add(1);
  if (was_shed) return;
  // Every admitted query opens a causal flow; its quanta and migration
  // hops add steps and completion finishes it. Shed queries never start
  // one, so every 's' in an export has a matching 'f'.
  telemetry->tracer().flow_start(track_lifecycle, n_flow, sim.now(), r.id);
  sample_depth();
}

void FleetSim::note_completion(std::size_t i) {
  const QueryRecord& r = records[i];
  telemetry->tracer().instant(track_lifecycle, n_complete, sim.now(), k_query,
                              r.id);
  telemetry->tracer().flow_end(track_lifecycle, n_flow, sim.now(), r.id);
  c_completed->add(1);
  h_latency_ns->add((r.completion - r.arrival) / util::kPsPerNs);
}

void FleetSim::note_failed(std::size_t i) {
  const QueryRecord& r = records[i];
  telemetry->tracer().instant(track_lifecycle, n_failed, sim.now(), k_query,
                              r.id);
  // The admission opened a flow; failure terminates it so every 's'
  // still has a matching 'f' in the export.
  telemetry->tracer().flow_end(track_lifecycle, n_flow, sim.now(), r.id);
  c_failed->add(1);
}

void FleetSim::note_queued(std::size_t i) {
  const QueryRecord& r = records[i];
  telemetry->tracer().complete(track_lifecycle, n_queued, r.arrival,
                               r.first_service - r.arrival, k_query, r.id);
}

void FleetSim::sample_depth() {
  telemetry->sampler().record(ch_depth, sim.now(), total_depth());
}

// ---------------------------------------------------------------------------
// FleetSim: replicas and routing
// ---------------------------------------------------------------------------

ReplicaSim& FleetSim::add_replica() {
  const std::uint32_t k = static_cast<std::uint32_t>(replicas.size());
  ReplicaSim& r = replicas.emplace_back(*this, k);
  r.joined = sim.now();
  r.attach_telemetry();
  refresh_routable();
  return r;
}

void FleetSim::refresh_routable() {
  routable_set.clear();
  for (const ReplicaSim& r : replicas) {
    if (r.routable()) routable_set.push_back(r.index);
  }
  if (routable_set.empty()) {
    // Every replica draining or retired (transiently possible if a
    // migration target was later drained): fall back to the live set.
    for (const ReplicaSim& r : replicas) {
      if (r.live()) routable_set.push_back(r.index);
    }
  }
  if (routable_set.empty()) routable_set.push_back(0);
}

bool FleetSim::has_live() const {
  return std::any_of(replicas.begin(), replicas.end(),
                     [](const ReplicaSim& r) { return r.live(); });
}

std::uint32_t FleetSim::active_count() const {
  return static_cast<std::uint32_t>(
      std::count_if(replicas.begin(), replicas.end(),
                    [](const ReplicaSim& r) { return r.routable(); }));
}

double FleetSim::total_depth() const {
  double d = 0.0;
  for (const ReplicaSim& r : replicas) d += r.depth();
  return d;
}

std::uint64_t FleetSim::total_waiting() const {
  std::uint64_t w = 0;
  for (const ReplicaSim& r : replicas) w += r.waiting();
  return w;
}

void FleetSim::record_depth() {
  if (!config.elastic.enabled) return;
  depth_sum += total_waiting();
  ++depth_samples;
}

std::uint32_t FleetSim::route(std::size_t i) {
  const QueryRecord& r = records[i];
  const auto pinned = route_override.find(r.class_index);
  if (pinned != route_override.end() && replicas[pinned->second].live()) {
    return pinned->second;
  }
  const std::vector<std::uint32_t>& set = routable_set;
  switch (config.router) {
    case RouterKind::kRandom:
      return set[router_rng.next_below(set.size())];
    case RouterKind::kJoinShortestQueue: {
      std::uint32_t best = set.front();
      for (const std::uint32_t k : set) {
        if (replicas[k].depth() < replicas[best].depth()) best = k;
      }
      return best;
    }
    case RouterKind::kClassAffinity:
      return set[r.class_index % set.size()];
  }
  return set.front();
}

// ---------------------------------------------------------------------------
// FleetSim: live migration
// ---------------------------------------------------------------------------

void FleetSim::migrate(std::size_t m) {
  const MigrationPlan& mp = config.migrations[m];
  MigrationState& state = migrations[m];
  MigrationRecord& rec = state.record;
  rec.class_index = mp.class_index;
  rec.from = mp.from;
  rec.to = mp.to;
  rec.start_sec = util::sec_from_ps(sim.now());
  route_override[mp.class_index] = mp.to;
  control_instant(n_migrate, k_class, mp.class_index);

  ReplicaSim& src = replicas[mp.from];
  state.in_transit = src.extract_waiting(mp.class_index);
  rec.moved_waiting = static_cast<std::uint32_t>(state.in_transit.size());

  // The tenant's resident state: used bytes of every distinct profile
  // that moves (waiting queries now, plus the in-flight one if it will
  // hand off). Charged to the interconnect as one copy.
  std::set<std::size_t> moved_profiles;
  for (const std::size_t i : state.in_transit) {
    moved_profiles.insert(records[i].profile_index);
  }
  const std::size_t marked = src.mark_redirect(mp.class_index, m);
  if (marked != kNoQuery) {
    moved_profiles.insert(records[marked].profile_index);
  }
  std::uint64_t bytes = 0;
  for (const std::size_t p : moved_profiles) {
    bytes += profiles[p].report.used_bytes;
  }
  const util::SimTime copy_ps = static_cast<util::SimTime>(
      std::ceil(static_cast<double>(bytes) * util::ps_per_byte(copy_mbps)));
  rec.state_bytes = bytes;
  rec.copy_sec = util::sec_from_ps(copy_ps);
  migration_bytes += bytes;
  migration_ps += copy_ps;
  schedule_after(copy_ps, kCopyLanded, static_cast<std::uint32_t>(m));
}

void FleetSim::copy_landed(std::size_t m) {
  MigrationState& state = migrations[m];
  state.delivered = true;
  const std::uint32_t to = state.record.to;
  control_instant(n_copy_landed, k_class, state.record.class_index);
  for (const std::size_t i : state.in_transit) {
    if (replicas[to].dead) {
      // The migration target crashed while the copy was in flight:
      // the moved queries fall back to the router.
      reroute(i);
    } else {
      replicas[to].resume(i);
    }
  }
  state.in_transit.clear();
}

void FleetSim::redirected(std::size_t m, std::size_t i) {
  MigrationState& state = migrations[m];
  state.record.moved_active = true;
  if (state.delivered) {
    if (replicas[state.record.to].dead) {
      reroute(i);
    } else {
      replicas[state.record.to].resume(i);
    }
  } else {
    state.in_transit.push_back(i);
  }
}

// ---------------------------------------------------------------------------
// FleetSim: fault injection and recovery
// ---------------------------------------------------------------------------

void FleetSim::deliver_fault(const fault::FaultEvent& e) {
  if (all_resolved()) return;  // workload drained: quiet tail
  switch (e.kind) {
    case fault::FaultKind::kReplicaCrash:
      crash(e);
      break;
    case fault::FaultKind::kIoErrorBurst:
      io_burst(e);
      break;
    case fault::FaultKind::kLinkDegrade:
      link_flap(e);
      break;
  }
}

util::SimTime FleetSim::fault_extra(std::uint32_t k, util::SimTime duration) {
  util::SimTime extra = 0;
  const util::SimTime now = sim.now();
  const fault::FaultSpec& faults = plan.spec();
  const ReplicaSim& rep = replicas[k];
  if (now < rep.io_until && rep.io_rate > 0.0) {
    // Transient I/O errors: each failed attempt backs off linearly
    // and retries, up to the cap. The final attempt always delivers —
    // bytes are delayed, never dropped.
    std::uint32_t attempt = 0;
    while (attempt < faults.io_max_retries &&
           fault::FaultPlan::error_draw(faults.seed, k, io_draws++,
                                        rep.io_rate)) {
      ++attempt;
      extra = util::checked_add_ps(
          extra,
          util::ps_from_us(faults.io_retry_us * static_cast<double>(attempt)),
          "io retry backoff");
    }
    if (attempt > 0) {
      io_retries_total += attempt;
      monitor.observe_io_errors(now, k, attempt);
    }
  }
  if (now < link_until && link_factor < 1.0) {
    // An outage stalls the quantum until the link comes back; a derate
    // stretches it by the lost bandwidth.
    const util::SimTime stall =
        link_factor <= 0.0
            ? link_until - now
            : util::checked_stretch_ps(duration, 1.0 / link_factor - 1.0,
                                       "link-derated quantum");
    extra = util::checked_add_ps(extra, stall, "io retry and link delays");
  }
  return extra;
}

std::uint32_t FleetSim::crash_victim(std::uint32_t want) const {
  const auto n = static_cast<std::uint32_t>(replicas.size());
  for (std::uint32_t d = 0; d < n; ++d) {
    const std::uint32_t k = (want + d) % n;
    if (replicas[k].live()) return k;
  }
  return n;
}

void FleetSim::crash(const fault::FaultEvent& e) {
  const std::uint32_t k = crash_victim(
      e.target % static_cast<std::uint32_t>(replicas.size()));
  if (k >= replicas.size()) return;  // whole fleet already down
  const util::SimTime now = sim.now();
  ReplicaSim& rep = replicas[k];
  ++crashes_total;
  ++rep.crashes;
  rep.down_since = now;
  ++dead_count;
  rep.on_crash();
  refresh_routable();
  const std::int64_t incident = monitor.observe_crash(now, k, true);
  control_instant(n_crash, k_replica, k);

  // Recovery is scheduled before the rerouting below so queries that
  // find no live replica know whether anyone is coming back.
  if (e.duration > 0) {
    ++pending_recoveries;
    schedule_after(e.duration, kRevive, k);
  } else if (config.elastic.enabled &&
             active_count() < config.elastic.max_replicas) {
    // A permanent crash is a scale-up trigger: a replacement joins
    // after the provisioning delay.
    ++pending_recoveries;
    const double delay = plan.spec().provision_sec > 0.0
                             ? plan.spec().provision_sec
                             : config.elastic.check_interval_sec;
    const auto id = static_cast<std::uint64_t>(incident);
    schedule_after(util::ps_from_sec(delay), kReplace,
                   static_cast<std::uint32_t>(id),
                   static_cast<std::uint32_t>(id >> 32));
  }

  // Waiting queries lose any partial progress and re-route through
  // the router immediately; they were not in flight, so no retry is
  // charged against their budget.
  for (const std::size_t i : rep.take_all_waiting()) {
    lose_progress(i);
    reroute(i);
  }
  // The in-flight query's completed supersteps are lost; it re-enters
  // the queue after a deterministic backoff until the retry budget
  // runs out.
  const std::size_t aborted = rep.abort_active();
  if (aborted != kNoQuery) {
    lose_progress(aborted);
    QueryRecord& r = records[aborted];
    if (r.retries >= plan.spec().max_query_retries) {
      fail_query(aborted);
    } else {
      ++r.retries;
      const util::SimTime backoff = util::ps_from_us(
          plan.spec().retry_backoff_us * static_cast<double>(r.retries));
      schedule_after(backoff, kReroute, static_cast<std::uint32_t>(aborted));
    }
  }
  record_depth();
}

void FleetSim::lose_progress(std::size_t i) {
  QueryRecord& r = records[i];
  r.lost_ps += r.service_ps;
  r.lost_bytes += r.service_bytes;
  r.service_ps = 0;
  r.service_bytes = 0;
  next_step[i] = 0;
}

void FleetSim::reroute(std::size_t i) {
  const QueryRecord& r = records[i];
  if (r.shed || r.failed) return;
  if (dead_count > 0 && !has_live()) {
    if (pending_recoveries > 0) {
      orphans.push_back(i);
    } else {
      fail_query(i);
    }
    return;
  }
  replicas[route(i)].resume(i);
  record_depth();
}

void FleetSim::drain_orphans() {
  if (orphans.empty()) return;
  std::vector<std::size_t> parked;
  parked.swap(orphans);
  for (const std::size_t i : parked) reroute(i);
}

void FleetSim::revive(std::uint32_t k) {
  --pending_recoveries;
  const util::SimTime now = sim.now();
  ReplicaSim& rep = replicas[k];
  rep.downtime += now - rep.down_since;
  rep.down_since = 0;
  rep.dead = false;
  refresh_routable();
  if (dead_count > 0) --dead_count;
  ++restarts_total;
  peak_replicas = std::max(peak_replicas, active_count());
  monitor.observe_crash(now, k, false);
  control_instant(n_restart, k_replica, k);
  drain_orphans();
  record_depth();
  // Anything parked in the local queue while the swallow was pending
  // (or just rerouted here) starts as soon as the stack is clear.
  rep.dispatch();
}

void FleetSim::join_replacement(std::int64_t incident) {
  --pending_recoveries;
  if (all_resolved()) return;
  if (active_count() >= config.elastic.max_replicas) {
    drain_orphans();
    return;
  }
  ReplicaSim& r = add_replica();
  ++replacements_total;
  // Peak tracks concurrently-routable replicas: dead slots stay in the
  // vector (indices are stable), so size() would overstate the fleet
  // once a crash has retired one.
  peak_replicas = std::max(peak_replicas, active_count());
  record_scaling(true, r.index,
                 static_cast<double>(total_waiting()) /
                     static_cast<double>(std::max(1u, active_count())),
                 incident);
  control_instant(n_replace, k_replica, r.index);
  drain_orphans();
  record_depth();
}

void FleetSim::io_burst(const fault::FaultEvent& e) {
  const auto k = static_cast<std::uint32_t>(
      e.target % static_cast<std::uint32_t>(replicas.size()));
  const util::SimTime now = sim.now();
  const util::SimTime until = now + e.duration;
  ReplicaSim& rep = replicas[k];
  rep.io_until = std::max(rep.io_until, until);
  rep.io_rate = e.magnitude;
  monitor.observe_io_burst(now, k, true, e.magnitude);
  schedule_after(e.duration, kIoBurstEnd, k);  // throws if `until` wrapped
}

void FleetSim::io_burst_end(std::uint32_t k) {
  // Overlapping bursts extend the window; only the last edge closes.
  if (sim.now() >= replicas[k].io_until) {
    monitor.observe_io_burst(sim.now(), k, false, 0.0);
  }
}

void FleetSim::link_flap(const fault::FaultEvent& e) {
  const util::SimTime now = sim.now();
  const util::SimTime until = now + e.duration;
  link_until = std::max(link_until, until);
  link_factor = e.magnitude;
  ++link_windows_total;
  monitor.observe_link(now, true, e.magnitude);
  schedule_after(e.duration, kLinkFlapEnd);  // throws if `until` wrapped
}

void FleetSim::link_flap_end() {
  if (sim.now() >= link_until) {
    link_factor = 1.0;
    monitor.observe_link(sim.now(), false, 1.0);
  }
}

// ---------------------------------------------------------------------------
// FleetSim: elastic controller
// ---------------------------------------------------------------------------

void FleetSim::elastic_tick() {
  record_depth();
  if (all_resolved()) return;  // workload drained: stop the chain
  const ElasticConfig& e = config.elastic;

  // Mean waiting depth over every sample since the last decision; the
  // record_depth above makes the count at least 1.
  const double observed = static_cast<double>(depth_sum) /
                          static_cast<double>(depth_samples);
  depth_sum = 0;
  depth_samples = 0;

  const std::uint32_t active = active_count();
  const double per = observed / static_cast<double>(std::max(1u, active));
  // The health monitor owns the threshold comparison: its verdict is
  // the same strict >/< check against the same bounds this tick used
  // to make inline, so decisions are bit-identical — and each one now
  // links the incident that argued for it. The monitor sees every
  // sample (incidents track load even while cooldown gags the
  // controller); only the action is gated here.
  const obs::HealthMonitor::DepthVerdict verdict =
      monitor.observe_depth(sim.now(), per, e.scale_up_depth,
                            e.scale_down_depth);
  if (cooldown > 0) {
    --cooldown;
  } else if (verdict == obs::HealthMonitor::DepthVerdict::kOverloaded &&
             active < e.max_replicas) {
    grow(per);
  } else if (verdict == obs::HealthMonitor::DepthVerdict::kUnderloaded &&
             active > e.min_replicas) {
    shrink(per);
  }
  schedule_after(interval_ps, kElasticTick);
}

void FleetSim::grow(double per) {
  ReplicaSim& r = add_replica();
  peak_replicas = std::max(peak_replicas, active_count());
  cooldown = config.elastic.cooldown_intervals;
  record_scaling(true, r.index, per,
                 monitor.open_incident(obs::IncidentKind::kSaturation));
  control_instant(n_scale_up, k_replica, r.index);
}

void FleetSim::shrink(double per) {
  // Drain the least-loaded routable replica; ties retire the youngest.
  std::uint32_t victim = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t k = 0; k < replicas.size(); ++k) {
    if (!replicas[k].routable()) continue;
    if (victim == std::numeric_limits<std::uint32_t>::max() ||
        replicas[k].depth() < replicas[victim].depth() ||
        (replicas[k].depth() == replicas[victim].depth() &&
         k > victim)) {
      victim = k;
    }
  }
  ReplicaSim& rep = replicas[victim];
  rep.draining = true;
  if (rep.idle()) {
    rep.retired = true;
    rep.retired_at = sim.now();
  }
  refresh_routable();
  cooldown = config.elastic.cooldown_intervals;
  record_scaling(false, victim, per,
                 monitor.open_incident(obs::IncidentKind::kUnderload));
  control_instant(n_scale_down, k_replica, victim);
}

void FleetSim::record_scaling(bool added, std::uint32_t replica, double per,
                              std::int64_t incident) {
  ScalingEvent ev;
  ev.at_sec = util::sec_from_ps(sim.now());
  ev.added = added;
  ev.replica = replica;
  ev.routable_after = active_count();
  ev.depth_per_replica = per;
  ev.incident = static_cast<std::int32_t>(incident);
  scaling_events.push_back(ev);
}

void FleetSim::control_instant(std::uint32_t name, std::uint32_t key,
                               std::uint64_t value) {
  if (telemetry != nullptr) {
    telemetry->tracer().instant(track_control, name, sim.now(), key, value);
  }
}

// ---------------------------------------------------------------------------
// FleetSim: aggregation
// ---------------------------------------------------------------------------

void FleetSim::fill(FleetReport& report) {
  ServeReport& serve = report.serve;
  serve.admitted = admitted;
  serve.completed = completed;
  serve.shed = shed;
  serve.failed = failed;
  serve.makespan_sec = util::sec_from_ps(last_completion);

  util::SimTime busy_ps = 0;
  util::SimTime capacity_ps = 0;
  double peak_heat = 0.0;
  report.replica_stats.reserve(replicas.size());
  for (std::uint32_t k = 0; k < replicas.size(); ++k) {
    const ReplicaSim& r = replicas[k];
    busy_ps += r.busy_ps;
    serve.link_bytes += r.link_bytes;
    serve.throttled_quanta += r.throttled_quanta;
    peak_heat = std::max(peak_heat, r.heat.peak_heat());
    // Lifetime: join to retirement, or to the fleet makespan for
    // replicas that served to the end. The summed lifetimes are the
    // fleet's capacity — the utilization denominator.
    const util::SimTime end = r.retired ? r.retired_at : last_completion;
    const util::SimTime life = end > r.joined ? end - r.joined : 0;
    // Downtime (a still-dead replica counts to the makespan) is not
    // capacity; 0 without faults, so the denominator is unchanged.
    util::SimTime down = r.downtime;
    if (r.dead && r.down_since > 0 && end > r.down_since) {
      down += end - r.down_since;
    }
    const util::SimTime alive = life > down ? life - down : 0;
    capacity_ps += alive;

    ReplicaStats stats;
    stats.replica = k;
    stats.served = r.served;
    stats.quanta = r.quanta;
    stats.busy_sec = util::sec_from_ps(r.busy_ps);
    stats.link_bytes = r.link_bytes;
    stats.throttled_quanta = r.throttled_quanta;
    stats.peak_heat = r.heat.peak_heat();
    stats.joined_sec = util::sec_from_ps(r.joined);
    stats.retired = r.retired;
    stats.retired_sec = util::sec_from_ps(r.retired_at);
    stats.crashes = r.crashes;
    stats.down_sec = util::sec_from_ps(down);
    if (alive > 0) {
      stats.utilization =
          util::sec_from_ps(r.busy_ps) / util::sec_from_ps(alive);
    }
    report.replica_stats.push_back(stats);
  }
  serve.stack_peak_heat = peak_heat;
  summarize_serve(serve, *this, busy_ps, util::sec_from_ps(capacity_ps));

  report.peak_replicas = peak_replicas;
  report.shed_queue = shed_queue;
  report.shed_quota = shed_quota;
  report.shed_deadline = shed_deadline;
  report.migration_bytes = migration_bytes;
  report.migration_sec = util::sec_from_ps(migration_ps);
  report.migrations.reserve(migrations.size());
  for (const MigrationState& state : migrations) {
    report.migrations.push_back(state.record);
  }
  report.incidents = monitor.incidents();
  report.crashes = crashes_total;
  report.restarts = restarts_total;
  report.replacements = replacements_total;
  report.io_error_retries = io_retries_total;
  report.link_degrade_windows = link_windows_total;
  report.availability =
      serve.completed + serve.failed > 0
          ? static_cast<double>(serve.completed) /
                static_cast<double>(serve.completed + serve.failed)
          : 1.0;

  // Mirror the incident log onto a ("fleet","health") trace track —
  // closed incidents as spans, still-open ones as instants — so the
  // viewer shows outages against the replica timelines and the sink
  // provably captured them.
  if (telemetry != nullptr) {
    obs::SpanTracer& tr = telemetry->tracer();
    const std::uint16_t track_health = tr.track("fleet", "health");
    const std::uint32_t k_incident = tr.intern("incident");
    for (const obs::Incident& inc : report.incidents) {
      const std::uint32_t name = tr.intern(obs::to_string(inc.kind));
      if (inc.open) {
        tr.instant(track_health, name, inc.opened_ps, k_incident, inc.id);
      } else {
        tr.complete(track_health, name, inc.opened_ps,
                    inc.closed_ps - inc.opened_ps, k_incident, inc.id);
      }
    }
  }

  // Scoped metrics: per-replica and per-tenant counters under labeled
  // keys (unlabeled exports stay byte-identical without them).
  if (telemetry != nullptr) {
    obs::MetricsRegistry& m = telemetry->metrics();
    std::vector<std::uint32_t> handoffs(replicas.size(), 0);
    for (const MigrationState& state : migrations) {
      const std::uint32_t moved = state.record.moved_waiting +
                                  (state.record.moved_active ? 1 : 0);
      handoffs[state.record.from] += moved;
      handoffs[state.record.to] += moved;
    }
    for (std::uint32_t k = 0; k < replicas.size(); ++k) {
      const std::string label = "replica=" + std::to_string(k);
      m.counter("fleet", "served", label).add(replicas[k].served);
      m.counter("fleet", "handoffs", label).add(handoffs[k]);
      m.gauge("fleet", "utilization", label)
          .set(report.replica_stats[k].utilization);
    }
    const std::size_t num_classes = quota_limit.size();
    std::vector<std::uint64_t> t_completed(num_classes, 0);
    std::vector<std::uint64_t> t_goodput(num_classes, 0);
    std::vector<std::uint64_t> t_shed(num_classes, 0);
    std::vector<std::uint64_t> t_violations(num_classes, 0);
    for (const QueryRecord& r : records) {
      if (r.class_index >= num_classes) continue;
      if (r.shed) {
        ++t_shed[r.class_index];
      } else if (r.failed) {
        // Failed queries are neither completed nor goodput; they show
        // up in the serve counters and the availability figure.
        continue;
      } else {
        ++t_completed[r.class_index];
        if (r.slo_violated) {
          ++t_violations[r.class_index];
        } else {
          ++t_goodput[r.class_index];
        }
      }
    }
    for (std::size_t c = 0; c < num_classes; ++c) {
      const std::string label = "tenant=" + std::to_string(c);
      m.counter("fleet", "completed", label).add(t_completed[c]);
      m.counter("fleet", "goodput", label).add(t_goodput[c]);
      m.counter("fleet", "shed", label).add(t_shed[c]);
      m.counter("fleet", "slo_violations", label).add(t_violations[c]);
    }
    for (const obs::Incident& inc : report.incidents) {
      m.counter("fleet", "incidents",
                std::string("kind=") + obs::to_string(inc.kind))
          .add(1);
    }
  }

  // p99 transients around each scaling event, from the completion
  // record (post-hoc: the event windows are known only at the end).
  const double window = 2.0 * config.elastic.check_interval_sec;
  report.scaling_events = scaling_events;
  for (ScalingEvent& ev : report.scaling_events) {
    std::vector<double> before, after;
    for (const QueryRecord& r : records) {
      if (r.shed || r.failed) continue;
      const double done = util::sec_from_ps(r.completion);
      if (done >= ev.at_sec - window && done < ev.at_sec) {
        before.push_back(util::us_from_ps(r.completion - r.arrival));
      } else if (done >= ev.at_sec && done <= ev.at_sec + window) {
        after.push_back(util::us_from_ps(r.completion - r.arrival));
      }
    }
    ev.completions_before = static_cast<std::uint32_t>(before.size());
    ev.completions_after = static_cast<std::uint32_t>(after.size());
    ev.p99_before_us = before.empty()
                           ? 0.0
                           : util::percentile(std::move(before), 99.0);
    ev.p99_after_us =
        after.empty() ? 0.0 : util::percentile(std::move(after), 99.0);
  }
}

// ---------------------------------------------------------------------------
// FleetConfig, routers, and the serve driver
// ---------------------------------------------------------------------------

void FleetConfig::validate(std::size_t num_classes) const {
  if (replicas == 0) {
    throw std::invalid_argument("fleet needs at least one replica");
  }
  const auto check_cap = [](std::uint32_t n, const char* what) {
    if (n > kMaxReplicas) {
      throw std::invalid_argument(
          std::string(what) + " " + std::to_string(n) + " exceeds the " +
          std::to_string(kMaxReplicas) + "-replica limit");
    }
  };
  check_cap(replicas, "replicas");
  for (const TenantQuota& q : quotas) {
    if (q.class_index >= num_classes) {
      throw std::invalid_argument("quota tenant class " +
                                  std::to_string(q.class_index) +
                                  " out of range (workload has " +
                                  std::to_string(num_classes) + " classes)");
    }
    if (q.max_in_flight == 0) {
      throw std::invalid_argument("quota for tenant class " +
                                  std::to_string(q.class_index) +
                                  " admits no query (max_in_flight 0)");
    }
  }
  for (const MigrationPlan& m : migrations) {
    if (m.class_index >= num_classes) {
      throw std::invalid_argument("migration tenant class " +
                                  std::to_string(m.class_index) +
                                  " out of range (workload has " +
                                  std::to_string(num_classes) + " classes)");
    }
    if (m.from >= replicas || m.to >= replicas) {
      throw std::invalid_argument(
          "migration endpoints " + std::to_string(m.from) + "->" +
          std::to_string(m.to) + " out of range for " +
          std::to_string(replicas) + " replicas");
    }
    if (m.from == m.to) {
      throw std::invalid_argument("migration source == target (replica " +
                                  std::to_string(m.from) + ")");
    }
    util::checked_ps_from_sec(m.at_sec, "migration time");
  }
  device::validate(serve.thermal);
  if (elastic.enabled) {
    const ElasticConfig& e = elastic;
    check_cap(e.max_replicas, "elastic max_replicas");
    if (e.min_replicas == 0) {
      throw std::invalid_argument("elastic min_replicas must be >= 1");
    }
    if (e.min_replicas > replicas || replicas > e.max_replicas) {
      throw std::invalid_argument(
          "elastic bounds must satisfy min <= replicas <= max (" +
          std::to_string(e.min_replicas) + " <= " + std::to_string(replicas) +
          " <= " + std::to_string(e.max_replicas) + ")");
    }
    if (util::checked_ps_from_sec(e.check_interval_sec,
                                  "elastic check interval") == 0) {
      throw std::invalid_argument("elastic check interval must be > 0");
    }
    if (e.scale_up_depth <= e.scale_down_depth) {
      throw std::invalid_argument(
          "elastic scale_up_depth must exceed scale_down_depth");
    }
  }
  fault::validate(faults);
}

std::string to_string(RouterKind router) {
  switch (router) {
    case RouterKind::kRandom:
      return "random";
    case RouterKind::kJoinShortestQueue:
      return "join-shortest-queue";
    case RouterKind::kClassAffinity:
      return "class-affinity";
  }
  return "unknown";
}

RouterKind router_from_name(const std::string& name) {
  for (const RouterKind r : all_routers()) {
    if (to_string(r) == name) return r;
  }
  std::string valid;
  for (const RouterKind r : all_routers()) {
    if (!valid.empty()) valid += ", ";
    valid += to_string(r);
  }
  throw std::invalid_argument("unknown router '" + name +
                              "' (valid: " + valid + ")");
}

const std::vector<RouterKind>& all_routers() {
  static const std::vector<RouterKind> routers = {
      RouterKind::kRandom, RouterKind::kJoinShortestQueue,
      RouterKind::kClassAffinity};
  return routers;
}

FleetReport QueryServer::serve(const graph::CsrGraph& graph,
                               const FleetRequest& request) {
  const WorkloadSpec& spec = request.workload;
  const std::size_t num_classes = resolve_mix(spec).size();
  request.fleet.validate(num_classes);

  FleetReport report;
  report.router = to_string(request.fleet.router);
  report.replicas = request.fleet.replicas;
  report.peak_replicas = request.fleet.replicas;
  ServeReport& serve = report.serve;
  serve.policy = to_string(request.fleet.serve.policy);
  serve.process = to_string(spec.process);

  ProfiledWorkload workload = profile_workload(graph, request.base, spec);
  serve.offered = static_cast<std::uint32_t>(workload.queries.size());
  if (workload.queries.empty()) return report;
  serve.backend = workload.profiles.front().report.backend;
  serve.access_method = workload.profiles.front().report.access_method;

  serve.queries.resize(workload.queries.size());
  for (std::size_t i = 0; i < workload.queries.size(); ++i) {
    QueryRecord& r = serve.queries[i];
    r.id = workload.queries[i].id;
    r.class_index = workload.queries[i].class_index;
    r.profile_index = workload.query_profile[i];
    r.slo = workload.queries[i].slo;
  }

  FleetSim sim(request.fleet, spec, workload.queries, workload.profiles,
               serve.queries, num_classes);
  sim.copy_mbps = device::pcie_x16(config_.gpu_link_gen).bandwidth_mbps;
  sim.attach_telemetry(telemetry_);
  sim.run();
  sim.fill(report);
  serve.profiles = std::move(workload.profiles);
  return report;
}

void write_incident_log(std::ostream& os, const FleetReport& report) {
  os << "{\"incidents\":[";
  for (std::size_t i = 0; i < report.incidents.size(); ++i) {
    if (i != 0) os << ",\n";
    obs::write_incident_json(os, report.incidents[i]);
  }
  os << "],\n\"scaling\":[";
  for (std::size_t i = 0; i < report.scaling_events.size(); ++i) {
    const ScalingEvent& ev = report.scaling_events[i];
    if (i != 0) os << ",\n";
    os << "{\"at_sec\":" << obs::json_number(ev.at_sec) << ",\"action\":\""
       << (ev.added ? "scale-up" : "scale-down")
       << "\",\"replica\":" << ev.replica
       << ",\"routable_after\":" << ev.routable_after
       << ",\"depth_per_replica\":" << obs::json_number(ev.depth_per_replica)
       << ",\"incident\":" << ev.incident
       << ",\"completions_before\":" << ev.completions_before
       << ",\"completions_after\":" << ev.completions_after
       << ",\"p99_before_us\":" << obs::json_number(ev.p99_before_us)
       << ",\"p99_after_us\":" << obs::json_number(ev.p99_after_us) << "}";
  }
  os << "],\n\"migrations\":[";
  for (std::size_t i = 0; i < report.migrations.size(); ++i) {
    const MigrationRecord& m = report.migrations[i];
    if (i != 0) os << ",\n";
    os << "{\"start_sec\":" << obs::json_number(m.start_sec)
       << ",\"class\":" << m.class_index << ",\"from\":" << m.from
       << ",\"to\":" << m.to << ",\"state_bytes\":" << m.state_bytes
       << ",\"copy_sec\":" << obs::json_number(m.copy_sec)
       << ",\"moved_waiting\":" << m.moved_waiting
       << ",\"moved_active\":" << (m.moved_active ? "true" : "false") << "}";
  }
  os << "]}\n";
}

bool save_incident_log(const std::string& path, const FleetReport& report) {
  std::ofstream out(path);
  if (!out) return false;
  write_incident_log(out, report);
  return static_cast<bool>(out);
}

}  // namespace cxlgraph::serve
