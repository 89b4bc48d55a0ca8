#pragma once
/// \file replica.hpp
/// The queueing simulation behind every serve.
///
/// One serve() call runs one discrete-event simulation, split in two:
///
///   `ReplicaSim` — per *stack* state: the ready queue, the in-service
///   query, busy/link/thermal accounting, and per-replica telemetry named
///   after its index ("replica<k>": quantum spans, byte and depth
///   channels, heat trace). It also carries the two live-migration
///   primitives: `extract_waiting` (drain a tenant's queued queries) and
///   `mark_redirect` (hand the in-flight query to a migration at its next
///   preemption point instead of requeueing locally).
///
///   `FleetSim` — per *serve* state: the simulator, the query stream and
///   its profiles, per-query replay progress (`next_step` lives here so a
///   live-migrated query resumes on the target mid-serve), completion
///   accounting, closed-loop client chains,
///   query-lifecycle telemetry, and the fleet policies over the replicas —
///   routing, admission, live migration, fault recovery and the elastic
///   controller. Replicas call into it directly.
///
/// A single-stack serve is a FleetSim with one replica behind the random
/// router: QueryServer::serve(ServeRequest) and a one-replica FleetRequest
/// run the same code, so they agree by construction.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <unordered_map>
#include <vector>

#include "device/state_model.hpp"
#include "fault/fault.hpp"
#include "obs/health.hpp"
#include "obs/telemetry.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cxlgraph::serve {

inline constexpr std::size_t kNoQuery = std::numeric_limits<std::size_t>::max();

struct FleetSim;

/// One stack's slice of the queueing simulation. All scheduling-policy
/// decisions (quantum size, SLO priority) happen here, against this
/// replica's ready queue only.
struct ReplicaSim {
  FleetSim& fleet;
  std::uint32_t index = 0;

  std::deque<std::size_t> ready;
  std::size_t active = kNoQuery;
  util::SimTime busy_ps = 0;
  std::uint64_t link_bytes = 0;
  std::uint32_t quanta = 0;
  std::uint32_t served = 0;  ///< completions on this replica
  std::uint32_t throttled_quanta = 0;
  /// Crashed (fault layer): a dead replica accepts no placements and
  /// dispatches nothing until the fleet revives it.
  bool dead = false;
  /// Per-replica thermal accumulator: each stack heats independently.
  device::ThermalState heat;
  /// Unserved profiled demand queued here (waiting + preempted active
  /// remainder); the router's ETA signal. Thermal stretch not included.
  util::SimTime backlog_ps = 0;

  // Fleet membership, kept by FleetSim: the elastic controller drains and
  // retires, the fault layer counts crashes and downtime.
  util::SimTime joined = 0;
  bool draining = false;
  bool retired = false;
  util::SimTime retired_at = 0;
  std::uint32_t crashes = 0;
  util::SimTime down_since = 0;
  util::SimTime downtime = 0;
  /// I/O error-burst window: requests before io_until fail at io_rate.
  util::SimTime io_until = 0;
  double io_rate = 0.0;

  /// Registers this replica's listener with the fleet's simulator.
  ReplicaSim(FleetSim& fleet_in, std::uint32_t index_in);
  // The registered listener holds this replica's address.
  ReplicaSim(const ReplicaSim&) = delete;
  ReplicaSim& operator=(const ReplicaSim&) = delete;

  /// Can hold queries: neither retired nor crashed.
  bool live() const noexcept { return !retired && !dead; }
  /// Takes new arrivals: live and not draining.
  bool routable() const noexcept { return live() && !draining; }
  std::size_t waiting() const noexcept { return ready.size(); }
  bool busy() const noexcept { return active != kNoQuery; }
  bool idle() const noexcept { return !busy() && ready.empty(); }
  double depth() const noexcept {
    return static_cast<double>(ready.size() + (busy() ? 1 : 0));
  }

  /// Admission: counts the query, queues it, and dispatches.
  void admit(std::size_t i);
  /// Re-queues an already-admitted query (migration resume on the
  /// target, crash re-route): no admitted++ and no admit telemetry, just
  /// placement.
  void resume(std::size_t i);

  /// Live migration, waiting half: removes every waiting query of
  /// `class_index` (queue order preserved) and returns them. Their
  /// replay progress stays in FleetSim.
  std::vector<std::size_t> extract_waiting(std::uint32_t class_index);
  /// Live migration, in-flight half: if the active query belongs to
  /// `class_index`, hand it to migration `migration` at its next
  /// preemption point (or never, if it completes first — FIFO runs to
  /// completion). Returns the marked query index, or kNoQuery when
  /// nothing was in flight.
  std::size_t mark_redirect(std::uint32_t class_index, std::size_t migration);

  /// Crash, step 1: marks the replica dead and disarms any pending
  /// migration redirect (the in-flight query goes through crash
  /// recovery, not the migration).
  void on_crash();
  /// Crash, step 2: drains the whole ready queue (backlog adjusted) and
  /// returns it — the fleet re-routes these through the router. Their
  /// replay progress is discarded by the caller.
  std::vector<std::size_t> take_all_waiting();
  /// Crash, step 3: aborts the in-flight query, if any. Its already-
  /// scheduled quantum-completion event is swallowed when it fires, and
  /// the part of the quantum after the crash leaves busy_ps: it never
  /// ran. Returns the aborted query, or kNoQuery.
  std::size_t abort_active();

  /// Binds per-replica telemetry: the ("serve", "replica<k>") quantum
  /// span track, the serve/replica<k>/{quantum_bytes,depth} channels, and
  /// the replica<k>-heat trace. No-op when the FleetSim is untapped.
  void attach_telemetry();

  void dispatch();
  void quantum_done();

 private:
  /// The listener's one event: the in-flight quantum completed. A
  /// replica has at most one pending, so its lane never holds two.
  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b);

  void place(std::size_t i);
  void note_quantum(std::size_t i, util::SimTime duration,
                    std::uint64_t bytes);
  void sample_replica_depth();

  /// In-flight redirect (armed by mark_redirect, fires at most once).
  std::size_t redirect_query_ = kNoQuery;
  std::size_t redirect_migration_ = 0;
  /// Set by abort_active: the next quantum_done belongs to a crashed
  /// attempt and must be swallowed, not completed.
  bool discard_pending_ = false;
  /// When the in-flight quantum ends (set at dispatch).
  util::SimTime quantum_end_ = 0;
  std::uint16_t listener_ = 0;    ///< quantum completions

  std::uint16_t track_ = 0;       ///< ("serve", "replica<k>"): quanta
  std::uint32_t n_quantum_ = 0;
  std::uint32_t ch_bytes_ = 0;    ///< link bytes charged per quantum
  std::uint32_t ch_depth_ = 0;    ///< this replica's ready + active depth
  bool throttle_state_ = false;   ///< last state fed to the health monitor
  obs::StateModelTrace heat_trace_;
};

/// One serve() call's queueing simulation: the workload-wide state every
/// replica shares, the replicas, and the fleet policies that place
/// queries on them. Lives on the stack for one serve().
struct FleetSim {
  const FleetConfig& config;
  const WorkloadSpec& spec;
  const std::vector<Query>& queries;
  const std::vector<QueryProfile>& profiles;
  std::vector<QueryRecord>& records;

  sim::Simulator sim;
  /// The fleet's own listener: one opcode per event kind (see Op).
  std::uint16_t listener = 0;
  /// deque: each replica's registered listener holds its address, so
  /// growth must not relocate existing elements.
  std::deque<ReplicaSim> replicas;

  // -- Per-query state ----------------------------------------------------

  /// Per-query replay progress. Migration moves the query, not the
  /// counter — a partially-served query resumes exactly where it left.
  std::vector<std::size_t> next_step;
  /// Per-profile suffix sums: remaining_after[p][k] = sum of step_ps[k..].
  /// O(1) remaining-demand estimates for routing / SLO shedding.
  std::vector<std::vector<util::SimTime>> remaining_after;
  /// Streaming latency estimators, fed in completion order.
  util::StreamingQuantile stream_p50{0.50};
  util::StreamingQuantile stream_p95{0.95};
  util::StreamingQuantile stream_p99{0.99};
  util::SimTime last_completion = 0;
  std::uint32_t admitted = 0;
  std::uint32_t completed = 0;
  std::uint32_t shed = 0;
  /// Queries whose crash-retry budget ran out (active fault plan only).
  std::uint32_t failed = 0;
  /// Closed loop: per-client query chains and issue cursors.
  std::vector<std::vector<std::size_t>> client_queries;
  std::vector<std::size_t> client_cursor;

  // -- Replicas, routing, admission ---------------------------------------

  util::Xoshiro256 router_rng;
  /// The replicas an arrival may route to, in index order. Never empty:
  /// with every replica draining or retired it falls back to the live
  /// set, then to {0}. refresh_routable() rebuilds it whenever a replica
  /// joins, crashes, revives, drains or retires, so routing an arrival
  /// reads it without rebuilding or allocating.
  std::vector<std::uint32_t> routable_set;
  /// Per-tenant admission state (indexed by class; 0 limit = unbounded).
  std::vector<std::uint32_t> quota_limit;
  std::vector<std::uint32_t> in_flight;
  /// Migration pins: tenant class -> replica all later arrivals route to.
  std::unordered_map<std::uint32_t, std::uint32_t> route_override;

  std::uint32_t shed_queue = 0;
  std::uint32_t shed_quota = 0;
  std::uint32_t shed_deadline = 0;

  // -- Live migration -----------------------------------------------------

  struct MigrationState {
    MigrationRecord record;
    /// Queries drained at the source, parked until the state copy lands.
    std::vector<std::size_t> in_transit;
    bool delivered = false;
  };
  std::vector<MigrationState> migrations;
  std::uint64_t migration_bytes = 0;
  util::SimTime migration_ps = 0;
  /// Interconnect rate the migration state copy is charged at.
  double copy_mbps = 24'000.0;

  // -- Fault injection ----------------------------------------------------

  /// Seeded fault schedule (empty when the spec is disabled) and the
  /// fault-window state it drives. All of this is dead weight on the
  /// default path: dead_count stays 0 and fault_extra is never called.
  fault::FaultPlan plan;
  std::uint32_t dead_count = 0;
  std::uint32_t crashes_total = 0;
  std::uint32_t restarts_total = 0;
  std::uint32_t replacements_total = 0;
  std::uint64_t io_retries_total = 0;
  std::uint32_t link_windows_total = 0;
  /// The I/O error draw counter, shared by every replica's burst window
  /// (single-threaded queueing sim: the consumption order is the event
  /// order, deterministic by construction).
  std::uint64_t io_draws = 0;
  /// Fleet-wide link degradation window.
  util::SimTime link_until = 0;
  double link_factor = 1.0;
  /// Revivals / replacements still scheduled: while > 0, queries that
  /// find no live replica park in `orphans` instead of failing outright.
  std::uint32_t pending_recoveries = 0;
  std::vector<std::size_t> orphans;

  // -- Elastic controller and health --------------------------------------

  /// Controller period; 0 with the controller off.
  util::SimTime interval_ps = 0;
  /// Fleet-wide waiting depth summed over the samples taken since the
  /// last tick (every arrival, completion, and the tick itself), and
  /// their count; each tick decides on their exact mean and resets both.
  std::uint64_t depth_sum = 0;
  std::uint64_t depth_samples = 0;
  std::uint32_t cooldown = 0;
  std::vector<ScalingEvent> scaling_events;
  std::uint32_t peak_replicas = 0;
  /// Streaming health detectors over the depth / throttle / completion
  /// feeds; pure bookkeeping, active whether or not a sink is attached
  /// (the incident log is part of the report).
  obs::HealthMonitor monitor;

  // -- Telemetry (null when detached — the default path) ------------------
  // Every hook only appends to obs-owned buffers, so the schedule and
  // every record stay bit-identical to the untapped run.

  obs::Telemetry* telemetry = nullptr;
  std::uint16_t track_lifecycle = 0;  ///< ("serve","lifecycle"): instants
  std::uint32_t n_admit = 0, n_shed = 0, n_complete = 0, k_query = 0;
  std::uint32_t n_failed = 0;
  std::uint32_t n_queued = 0;  ///< queue-wait span on the lifecycle track
  /// Causal flow per admitted query ('s' at admit, 't' per quantum /
  /// migration hop, 'f' at completion), named "query", id = query id.
  std::uint32_t n_flow = 0;
  std::uint16_t track_control = 0;  ///< ("fleet","control"): timeline
  std::uint32_t n_migrate = 0, n_copy_landed = 0;
  std::uint32_t n_scale_up = 0, n_scale_down = 0;
  std::uint32_t n_crash = 0, n_restart = 0, n_replace = 0;
  std::uint32_t k_class = 0, k_replica = 0;
  obs::Counter* c_admitted = nullptr;
  obs::Counter* c_shed = nullptr;
  obs::Counter* c_completed = nullptr;
  obs::Counter* c_failed = nullptr;
  util::Log2Histogram* h_latency_ns = nullptr;
  std::uint32_t ch_depth = 0;  ///< waiting + in service, fleet-wide

  /// The fleet listener's event kinds. The payload `a` carries the
  /// subject: a query (arrive, reroute), a migration (migrate, copy
  /// landed), an index into plan.events() (fault) or a replica (revive,
  /// I/O-burst end). Replace carries its incident id split across `a`
  /// (low half) and `b`; elastic tick and link-flap end carry nothing.
  enum Op : std::uint16_t {
    kArrive,
    kReroute,
    kMigrate,
    kCopyLanded,
    kFault,
    kRevive,
    kIoBurstEnd,
    kReplace,
    kElasticTick,
    kLinkFlapEnd,
  };

  FleetSim(const FleetConfig& config_in, const WorkloadSpec& spec_in,
           const std::vector<Query>& queries_in,
           const std::vector<QueryProfile>& profiles_in,
           std::vector<QueryRecord>& records_in, std::size_t num_classes);
  // Replicas and the registered listener hold this object's address.
  FleetSim(const FleetSim&) = delete;
  FleetSim& operator=(const FleetSim&) = delete;

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t b);
  /// Schedules `op` about subject `a` at `time` / after `delay`.
  void schedule_at(util::SimTime time, Op op, std::uint32_t a = 0,
                   std::uint32_t b = 0) {
    sim.schedule_at(time, listener, op, a, b);
  }
  void schedule_after(util::SimTime delay, Op op, std::uint32_t a = 0,
                      std::uint32_t b = 0) {
    sim.schedule_after(delay, listener, op, a, b);
  }

  /// Binds the sink (nullptr: stays untapped): the lifecycle
  /// track, counters and depth channel, every replica's telemetry, and
  /// the ("fleet","control") timeline.
  void attach_telemetry(obs::Telemetry* sink);
  /// Schedules migrations, the elastic controller, the fault plan and
  /// the workload's arrivals (open loop: one event per query; closed
  /// loop: per-client chains), then drains the simulator.
  void run();
  /// Aggregates the finished simulation into `report`.
  void fill(FleetReport& report);

  util::SimTime deadline(std::size_t i) const {
    return records[i].arrival + records[i].slo;
  }
  /// Unserved profiled demand of query i (its remaining supersteps).
  util::SimTime remaining_ps(std::size_t i) const {
    return remaining_after[records[i].profile_index][next_step[i]];
  }
  bool all_resolved() const noexcept {
    return completed + shed + failed >= queries.size();
  }

  // -- Query lifecycle ----------------------------------------------------

  /// The arrival path: admission gates in fixed order (quota, outage,
  /// deadline feasibility, routed queue capacity), then admit.
  void arrive(std::size_t i);
  void issue_next(std::uint32_t client);
  /// Marks query i shed: record flag, its reason counter (`reason`:
  /// shed_quota, shed_deadline or shed_queue), telemetry, the closed-loop
  /// reissue (a shed query does not stall its client) and a depth sample.
  void shed_query(std::size_t i, std::uint32_t& reason);
  /// Marks query i failed (crash-retry budget exhausted): record flag,
  /// telemetry flow end, closed-loop reissue, quota release.
  void fail_query(std::size_t i);
  /// Finalizes query i's record (completion, queue time, SLO),
  /// feeds the streaming estimators and the health monitor, reissues the
  /// closed-loop client, releases the quota slot, and retires a drained
  /// replica that just ran dry.
  void complete_query(std::size_t i);

  void note_admission(std::size_t i, bool was_shed);
  void note_completion(std::size_t i);
  void note_failed(std::size_t i);
  /// Queue-wait span [arrival, first_service] on the lifecycle track;
  /// fired when query i first reaches a stack.
  void note_queued(std::size_t i);
  /// Samples the fleet-wide depth channel (sink attached).
  void sample_depth();

  // -- Replicas and routing -----------------------------------------------

  ReplicaSim& add_replica();
  void refresh_routable();
  /// Any replica a query could legally land on right now? (The {0}
  /// fallback of routable_set exists for the no-fault invariant that
  /// someone is always alive; with crashes in play, callers must check
  /// first.)
  bool has_live() const;
  std::uint32_t active_count() const;
  double total_depth() const;
  std::uint64_t total_waiting() const;
  void record_depth();
  std::uint32_t route(std::size_t i);

  // -- Live migration -----------------------------------------------------

  void migrate(std::size_t m);
  void copy_landed(std::size_t m);
  /// The in-flight query yielded at its preemption point. If the state
  /// copy already landed it resumes on the target now (mid-serve, replay
  /// progress intact); otherwise it rides the copy with the waiting set.
  void redirected(std::size_t m, std::size_t i);

  // -- Fault injection and recovery ---------------------------------------

  void deliver_fault(const fault::FaultEvent& e);
  /// Extra wall time for a quantum on replica k whose profiled duration
  /// is `duration`: transient I/O retries and link-degrade windows. Bytes
  /// are unaffected; the backlog estimate stays profiled, matching the
  /// thermal-stretch convention. Called only with an active plan.
  util::SimTime fault_extra(std::uint32_t k, util::SimTime duration);
  /// The event's target replica if it is alive, else the next live one
  /// in index order — a plan drawn against the initial fleet keeps
  /// meaning something after crashes and scale-downs. replicas.size()
  /// when nothing is left to kill.
  std::uint32_t crash_victim(std::uint32_t want) const;
  void crash(const fault::FaultEvent& e);
  /// Discards query i's completed supersteps (crash recovery): its
  /// accumulated stack time and bytes move to the lost-work ledger, and
  /// the replay restarts from superstep 0.
  void lose_progress(std::size_t i);
  /// Places an already-admitted query back onto the fleet (crash
  /// recovery): routes like an arrival but bypasses the admission gates
  /// — the query already holds its quota slot.
  void reroute(std::size_t i);
  void drain_orphans();
  void revive(std::uint32_t k);
  void join_replacement(std::int64_t incident);
  void io_burst(const fault::FaultEvent& e);
  /// Closes replica k's I/O-burst window unless a later burst extended it.
  void io_burst_end(std::uint32_t k);
  void link_flap(const fault::FaultEvent& e);
  /// Closes the link-degrade window unless a later flap extended it.
  void link_flap_end();

  // -- Elastic controller -------------------------------------------------

  void elastic_tick();
  void grow(double per);
  void shrink(double per);
  /// Records a scaling action (grow, shrink, crash replacement) at now.
  void record_scaling(bool added, std::uint32_t replica, double per,
                      std::int64_t incident);
  /// A ("fleet","control") timeline instant at now, with a sink attached.
  void control_instant(std::uint32_t name, std::uint32_t key,
                       std::uint64_t value);
};

}  // namespace cxlgraph::serve
