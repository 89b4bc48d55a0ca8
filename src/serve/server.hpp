#pragma once
/// \file server.hpp
/// Multi-tenant query serving over shared GPU + CXL stacks.
///
/// QueryServer admits a WorkloadSpec's query stream and executes it
/// against modeled GPU + interconnect + device stacks instead of replaying
/// each query in isolation. The contention model is superstep-granular
/// time-sharing, which is how one physical GPU actually multiplexes
/// analytics queries — kernels (supersteps) are the natural preemption
/// points:
///
///  1. Every distinct (query class, source) gets a profile from an
///     idle-stack run (ExternalGraphRuntime::make_trace + run_trace, or
///     core::ClusterRuntime for shard-spanning queries), yielding its
///     per-superstep durations and fetched bytes. Latency tolerance
///     *within* a query — the paper's outstanding-request argument — is
///     captured there. Each distinct
///     computation runs once: a source-free class (core::uses_source is
///     false: CC, PageRank scan) replays once for all of its sources, and
///     the shard-spanning classes of one shard layout share one partition.
///  2. A discrete-event queueing simulation (replica.hpp) then
///     interleaves the admitted queries' supersteps onto the stacks under
///     a scheduling policy: FIFO run-to-completion, round-robin batching
///     (a quantum of supersteps per turn), or SLO-aware priority (earliest
///     deadline first, preemptible between quanta). An admission
///     controller sheds arrivals past the waiting-queue capacity.
///
/// There is one queueing engine. serve(graph, ServeRequest) runs the
/// request on one shared stack by serving a one-replica FleetRequest
/// behind the random router; serve(graph, FleetRequest) (fleet.hpp) adds
/// replicas, routers, quotas, migration, elastic scaling and faults on
/// the same code path.
///
/// Everything is deterministic in (graph, request): per-query seeds
/// derive from the workload seed, profiling fan-out is insertion-ordered,
/// and the queueing simulation is single-threaded. A single admitted
/// query on an idle server reproduces the ExternalGraphRuntime report
/// bit-for-bit; byte conservation (sum of per-query service bytes ==
/// bytes accounted at the shared link) is checked by conservation_ok().
///
///   serve::QueryServer server(core::table3_system());
///   serve::ServeRequest req;
///   req.base.backend = core::BackendKind::kCxl;
///   req.workload.offered_qps = 500.0;
///   req.workload.num_queries = 256;
///   serve::ServeReport report = server.serve(graph, req);

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/cluster_runtime.hpp"
#include "core/experiment_runner.hpp"
#include "core/runtime.hpp"
#include "device/state_model.hpp"
#include "serve/workload.hpp"
#include "util/stats.hpp"

namespace cxlgraph::serve {

enum class SchedulingPolicy {
  kFifo,         ///< run-to-completion in arrival order
  kRoundRobin,   ///< quantum_supersteps per turn, rotate
  kSloPriority,  ///< earliest (arrival + SLO) deadline first, per quantum
};

std::string to_string(SchedulingPolicy policy);
SchedulingPolicy policy_from_name(const std::string& name);
const std::vector<SchedulingPolicy>& all_policies();

struct ServeConfig {
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  /// Admission capacity: arrivals finding this many queries *waiting*
  /// (the one in service not counted) are shed. 0 = unbounded queue.
  std::uint32_t max_waiting = 0;
  /// Supersteps served per scheduling turn under the preemptive policies
  /// (round-robin, SLO priority). FIFO ignores it.
  std::uint32_t quantum_supersteps = 4;
  /// The serving stack's thermal model (state_model.hpp), the one place
  /// throttling is applied: each quantum's bytes heat its replica's
  /// accumulator, and a throttled quantum's duration is divided by
  /// throttle_factor. It applies to whatever backend serves; idle-stack
  /// profiles never depend on it, so hot and cold serves of one server
  /// share its profile cache. Default OFF.
  device::ThermalParams thermal;
};

struct ServeRequest {
  /// Backend + sweep knobs of the one shared stack. algorithm and source
  /// are overridden per query from the workload mix.
  core::RunRequest base;
  WorkloadSpec workload;
  ServeConfig config;
};

/// One profiled (query class, source) pair: the idle-server run every
/// admitted query of that shape replays slices of.
struct QueryProfile {
  std::uint32_t class_index = 0;
  graph::VertexId source = 0;
  std::uint32_t shards = 1;
  /// Isolated run report. For shard-spanning queries this is synthesized
  /// from the ClusterReport (fetched/used bytes summed over shards).
  core::RunReport report;
  /// Shard-spanning queries only: composed cluster makespan and exchange.
  double cluster_runtime_sec = 0.0;
  std::uint64_t exchange_bytes = 0;
  /// Per-superstep service demand on the shared stack. For cluster-routed
  /// queries each exchange phase's cost is folded into its superstep.
  std::vector<util::SimTime> step_ps;
  std::vector<std::uint64_t> step_bytes;
  util::SimTime service_ps = 0;      // sum of step_ps
  std::uint64_t service_bytes = 0;   // sum of step_bytes

  friend bool operator==(const QueryProfile&, const QueryProfile&) = default;
};

struct QueryRecord {
  std::uint64_t id = 0;
  std::uint32_t class_index = 0;
  std::size_t profile_index = 0;
  util::SimTime arrival = 0;
  util::SimTime first_service = 0;
  util::SimTime completion = 0;
  util::SimTime service_ps = 0;  // time actually holding the shared stack
  util::SimTime queue_ps = 0;  // completion - arrival - service_ps - lost_ps
  std::uint64_t service_bytes = 0;
  util::SimTime slo = 0;
  /// Replica that served (or is serving) this query. 0 for a single-stack
  /// serve; a live-migrated query reports the replica it completed on.
  std::uint32_t replica = 0;
  bool shed = false;
  bool slo_violated = false;
  /// Crash recovery (active fault plan only). `retries` counts how many
  /// times this query re-entered the queue after its replica crashed
  /// mid-flight; lost_ps / lost_bytes hold the discarded progress of
  /// those aborted attempts (the replay starts over from superstep 0).
  /// `failed` marks the terminal disposition after the retry budget ran
  /// out — failed queries were admitted but never complete.
  std::uint32_t retries = 0;
  util::SimTime lost_ps = 0;
  std::uint64_t lost_bytes = 0;
  bool failed = false;

  friend bool operator==(const QueryRecord&, const QueryRecord&) = default;
};

struct ServeReport {
  std::string backend;
  std::string access_method;
  std::string policy;
  std::string process;

  std::uint32_t offered = 0;
  std::uint32_t admitted = 0;
  std::uint32_t completed = 0;
  std::uint32_t shed = 0;
  /// Terminal disposition alongside shed (active fault plan only):
  /// admitted queries whose crash-retry budget ran out. The terminal
  /// dispositions partition: completed + shed + failed == offered.
  std::uint32_t failed = 0;

  /// Simulated time from t=0 to the last completion.
  double makespan_sec = 0.0;
  double completed_qps = 0.0;
  /// Completions that met their SLO, per second of makespan.
  double goodput_qps = 0.0;
  /// SLO violations / completed.
  double slo_violation_rate = 0.0;

  /// Exact per-query percentiles (completed queries, microseconds).
  util::PercentileSummary latency_us;
  util::PercentileSummary queue_us;
  util::PercentileSummary service_us;
  /// O(1)-memory streaming estimates of the same latency quantiles (P²),
  /// fed in completion order — the production-side cross-check.
  double streaming_p50_us = 0.0;
  double streaming_p95_us = 0.0;
  double streaming_p99_us = 0.0;
  /// Worst relative gap between the exact percentiles and their P²
  /// estimates, over {p50, p95, p99} (0 when nothing completed). The
  /// number a dashboard trusting the streaming estimators should watch.
  double p2_max_rel_error = 0.0;

  /// Time-in-queue vs time-in-service totals over completed queries. Per
  /// completed query, queue + service + lost stack time (lost_ps) equals
  /// its sojourn exactly.
  double time_in_queue_sec = 0.0;
  double time_in_service_sec = 0.0;
  /// Shared-stack busy time / makespan.
  double utilization = 0.0;

  /// Bytes accounted quantum-by-quantum at the shared link vs the sum of
  /// completed queries' isolated-run fetched bytes. Equal unless the
  /// per-superstep seam miscounts — the SLO-accounting conservation check.
  /// With fault injection the ledger extends: bytes a crash discarded
  /// (aborted attempts of retried, failed, or still-unresolved queries)
  /// sit in lost_bytes, and the link total must balance exactly against
  /// delivered + lost — a crash may destroy progress but never bytes.
  std::uint64_t link_bytes = 0;
  std::uint64_t query_bytes = 0;
  /// Crash-recovery ledger (all 0 without an active fault plan).
  std::uint32_t query_retries = 0;
  std::uint64_t lost_bytes = 0;
  double lost_work_sec = 0.0;
  bool conservation_ok() const noexcept {
    return link_bytes == query_bytes + lost_bytes;
  }

  /// Stack thermal model (ServeConfig::thermal): quanta served while the
  /// shared stack was throttled, and the heat accumulator's high-water
  /// mark. Both stay 0 with the model off.
  std::uint32_t throttled_quanta = 0;
  double stack_peak_heat = 0.0;

  std::vector<QueryRecord> queries;
  std::vector<QueryProfile> profiles;

  friend bool operator==(const ServeReport&, const ServeReport&) = default;
};

/// One slice of a soak run: the completed queries whose completion fell in
/// [start_sec, end_sec) of the makespan, with their latency percentiles.
/// Under sustained load with thermal throttling enabled the later windows'
/// p99 drifts above the cold-start windows'.
struct SoakWindow {
  double start_sec = 0.0;
  double end_sec = 0.0;
  std::uint32_t completed = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Buckets a report's completed queries into `windows` equal slices of the
/// makespan (completion-time order). Empty report or windows == 0 yields
/// an empty vector; empty slices have completed == 0 and zero percentiles.
std::vector<SoakWindow> soak_windows(const ServeReport& report,
                                     std::size_t windows);

/// A workload expanded and profiled against one graph: the concrete query
/// stream, the distinct (class shape, source) profiles, and the map from
/// query to profile. The input of the queueing simulation.
struct ProfiledWorkload {
  std::vector<Query> queries;
  std::vector<QueryProfile> profiles;
  std::vector<std::size_t> query_profile;
};

struct FleetRequest;
struct FleetReport;

/// Owns profiling, the cross-serve profile cache, and both serve()
/// overloads. FleetServer (fleet.hpp) is another name for it.
class QueryServer {
 public:
  /// `jobs` bounds the profiling fan-out (ExperimentRunner semantics:
  /// 0 = hardware concurrency, 1 = serial; results identical either way).
  explicit QueryServer(core::SystemConfig config, unsigned jobs = 0);

  /// Runs the workload to completion on one shared stack: the serve() of
  /// a FleetRequest with one replica, the random router, and
  /// `fleet.serve = request.config`, returning its ServeReport.
  /// Deterministic in (graph, request).
  ServeReport serve(const graph::CsrGraph& graph,
                    const ServeRequest& request);

  /// Runs the workload over a fleet of replicas (fleet.hpp).
  /// Deterministic in (graph, request); throws std::invalid_argument for
  /// malformed fleet configs (FleetConfig::validate).
  FleetReport serve(const graph::CsrGraph& graph,
                    const FleetRequest& request);

  /// The profiling front half of serve(), public so callers can calibrate
  /// a workload (offered load, SLOs) on its profiles: expands the workload
  /// and returns one idle-stack profile per distinct (class shape,
  /// source), computing each distinct cache key once and leaving it in
  /// the cache serve() reads. Deterministic in (graph, base, workload);
  /// empty stream yields empty vectors.
  ProfiledWorkload profile_workload(const graph::CsrGraph& graph,
                                    const core::RunRequest& base,
                                    const WorkloadSpec& workload);

  const core::SystemConfig& config() const noexcept { return config_; }

  /// Attaches a telemetry sink (nullptr detaches). When enabled, the
  /// queueing simulation records the query lifecycle (admit / shed /
  /// complete, causal flows) on ("serve","lifecycle"), each replica's
  /// quanta on ("serve","replica<k>") with its byte, depth and heat
  /// channels, the fleet timeline on ("fleet","control"), and labeled
  /// per-replica / per-tenant metrics — passively, so every report field
  /// stays bit-identical to the detached path. Idle-stack profiling runs
  /// are deliberately untapped: they fan out across threads and describe
  /// cached profiles, not serving-time behavior.
  void set_telemetry(obs::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

  std::size_t profile_cache_size() const noexcept {
    return profile_cache_.size();
  }
  /// Idle-stack profile runs performed over this server's lifetime: one
  /// per distinct cache key and graph, so a source-free class costs one
  /// run however many sources its queries draw.
  std::uint64_t profiles_computed() const noexcept {
    return profiles_computed_;
  }

 private:
  /// Everything that determines a profile besides the graph: the stack
  /// knobs of the base request plus the class shape and the source. The
  /// cache keys a source-free class (core::uses_source false) with source
  /// 0, so all of its sources share one entry; the per-serve slot map
  /// keys the real source, so every (class, source) still gets its slot.
  using ProfileKey =
      std::tuple<int /*backend*/, std::uint64_t /*cxl_added_latency*/,
                 std::uint32_t /*alignment*/, std::uint64_t /*cache_bytes*/,
                 int /*algorithm*/, std::uint32_t /*shards*/,
                 int /*strategy*/, graph::VertexId /*source*/>;

  core::SystemConfig config_;
  unsigned jobs_;
  /// Distinct (class, source) profiles fan out here.
  core::ExperimentRunner runner_;
  /// Idle-stack profiles are pure functions of (config, graph, key), so
  /// repeated serves — an offered-load sweep, a policy comparison — reuse
  /// them. Invalidated whenever the served graph's id() changes (not its
  /// address: a different graph built at the same address has a new id;
  /// a copy keeps the id and the profiles). A content-equal graph built
  /// separately re-profiles, with identical results.
  std::map<ProfileKey, QueryProfile> profile_cache_;
  std::uint64_t profiles_computed_ = 0;
  std::uint64_t cached_graph_id_ = 0;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace cxlgraph::serve
