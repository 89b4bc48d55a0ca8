#pragma once
/// \file cluster_runtime.hpp
/// Sharded multi-GPU scale-out simulation.
///
/// ClusterRuntime partitions a graph across N shards (src/partition), runs
/// one full ExternalGraphRuntime stack — GPU engine, link, devices — per
/// shard, and models the inter-shard exchange that a BSP
/// (superstep-synchronized) cluster performs between BFS levels, PageRank
/// iterations, direction-optimizing supersteps, or delta-stepping
/// relaxation phases. Per-shard replays are independent and fan out
/// across ExperimentRunner workers; the cluster timeline is then composed
/// superstep by superstep:
///
///   runtime = sum_k [ max_over_shards(step_time[s][k]) + exchange_time(k) ]
///
/// The exchange model is asymmetric: every deduplicated message is
/// attributed to its (source shard, destination owner) pair, and a phase
/// costs the fixed all-to-all barrier latency plus the *slowest ingress* —
/// max over destination shards of the bytes converging on that shard —
/// over the inter-shard link bandwidth. A partitioner that concentrates
/// cut edges on one owner therefore pays more than one that spreads the
/// same total traffic evenly, which is exactly the effect the per-pair cut
/// matrix (partition::CutStats) measures statically. With one shard no
/// exchange is charged and the result is bit-identical to
/// ExternalGraphRuntime::run.
///
/// Superstep decompositions per algorithm:
///  * kBfs / kSssp / kCc — one superstep per frontier; shards read the
///    local sublists of frontier vertices and notify owners of remotely
///    discovered next-frontier vertices (one vertex-ID word each).
///  * kPagerankScan — one superstep sweeping each shard's local edge list;
///    ghost-rank updates flow to owners afterwards.
///  * kBfsDirOpt — one superstep per level; every shard votes push vs pull
///    from its local frontier stats (algo::DirectionVote) and the cluster
///    takes the aggregate decision through the same algo::DirectionDecider
///    the single runtime uses. Since shard votes sum exactly to the
///    whole-graph stats, the decision sequence is shard-count invariant.
///    Pull supersteps scan each shard's unvisited local sublists with the
///    first-found-parent early exit applied per shard.
///  * kSsspDelta — one superstep per relaxation phase, barrier-delimited
///    along bucket epochs (algo::DeltaSteppingResult::phase_bucket);
///    shards exchange relaxation requests (target ID + candidate
///    distance) for every scanned cut edge with a non-local target,
///    deduplicated per (phase, shard, target).
///
///   core::ClusterRuntime cluster(core::table3_system());
///   core::ClusterRequest req;
///   req.run.algorithm = core::Algorithm::kBfs;
///   req.run.backend = core::BackendKind::kCxl;
///   req.num_shards = 8;
///   req.strategy = partition::Strategy::kDegreeBalanced;
///   core::ClusterReport report = cluster.run(graph, req);
///
///   // Many runs over one shard layout can share a prebuilt partition:
///   const partition::Partition part = partition::make_partition(
///       graph, req.strategy, req.num_shards);
///   core::ClusterReport same = cluster.run(graph, part, req);

#include <string>
#include <vector>

#include "core/experiment_runner.hpp"
#include "core/runtime.hpp"
#include "partition/partition.hpp"

namespace cxlgraph::core {

/// True when `algorithm` has a superstep decomposition ClusterRuntime can
/// shard: kBfs, kSssp, kCc, kPagerankScan, kBfsDirOpt, and kSsspDelta.
/// (kBfsWriteback's write phase has no decomposition yet.) Sweep drivers
/// check this up front to fail fast instead of aborting mid-sweep.
bool cluster_supports(Algorithm algorithm) noexcept;

struct ClusterRequest {
  /// The per-shard workload: algorithm, backend, and sweep knobs.
  RunRequest run;
  std::uint32_t num_shards = 1;
  partition::Strategy strategy = partition::Strategy::kVertexRange;
  /// Partitioner-aware local relabeling applied per shard after the cut is
  /// fixed (degree-sort within each shard's subgraph). Changes layout and
  /// therefore per-shard replay cost, never the cut or the exchange.
  partition::ShardReorder reorder = partition::ShardReorder::kNone;
  /// Fixed all-to-all synchronization cost per exchange phase. The bulk
  /// exchange itself is charged against the system's GPU link bandwidth.
  util::SimTime exchange_latency = util::ps_from_us(5.0);
};

struct ClusterReport {
  std::string algorithm;
  std::string backend;
  std::string access_method;
  std::string partitioner;
  std::uint32_t num_shards = 1;
  graph::VertexId source = 0;

  /// Cluster makespan: per-superstep slowest shard plus exchange phases.
  double runtime_sec = 0.0;
  double compute_sec = 0.0;
  double exchange_sec = 0.0;
  std::uint64_t exchange_bytes = 0;
  /// Deduplicated (shard, remote vertex) notifications.
  std::uint64_t exchange_messages = 0;
  std::uint64_t supersteps = 0;

  /// Exchange traffic per ordered shard pair, row-major
  /// [from * num_shards + to], summed over all exchange phases. The grand
  /// total equals exchange_bytes; diagonal entries are zero.
  std::vector<std::uint64_t> pair_exchange_bytes;
  /// How lopsided the exchange phases were: the per-phase max-ingress
  /// bytes (what the asymmetric model charges) summed over phases,
  /// relative to the perfectly balanced all-to-all (total bytes / shards
  /// per phase). 1.0 = every destination absorbs an equal share; higher
  /// means the cut concentrates traffic on few owners.
  double exchange_ingress_skew = 1.0;

  /// Per-superstep profile, the serving layer's contention seam: the
  /// slowest shard's wall time per kept superstep, the inter-shard
  /// exchange cost per phase (phase j follows kept superstep j), and the
  /// cluster-wide fetched bytes per kept superstep (summed over shards —
  /// superstep_fetched_bytes sums exactly to fetched_bytes). At one shard
  /// these are the single stack's own step durations/bytes and
  /// exchange_phase_ps is empty.
  std::vector<util::SimTime> superstep_compute_ps;
  std::vector<util::SimTime> exchange_phase_ps;
  std::vector<std::uint64_t> superstep_fetched_bytes;

  /// kBfsDirOpt only: the cluster's aggregate direction per kept
  /// superstep (1 = bottom-up/pull, 0 = top-down/push).
  std::vector<std::uint8_t> superstep_bottom_up;
  /// kSsspDelta only: the bucket key whose epoch each kept superstep
  /// (relaxation phase) ran under, and the total bucket epochs processed.
  std::vector<std::uint64_t> superstep_bucket;
  std::uint64_t bucket_epochs = 0;

  /// Sums over shards (the cluster-wide D / E / transaction counts).
  std::uint64_t fetched_bytes = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t transactions = 0;

  /// Slowest shard's own total compute and the max/avg compute ratio —
  /// the partitioner-quality numbers a strong-scaling study reads.
  double max_shard_compute_sec = 0.0;
  double shard_compute_imbalance = 1.0;

  partition::CutStats cut;
  std::vector<RunReport> shard_reports;

  friend bool operator==(const ClusterReport&, const ClusterReport&) = default;
};

class ClusterRuntime {
 public:
  /// `jobs` bounds the per-shard fan-out (ExperimentRunner semantics:
  /// 0 = hardware concurrency, 1 = serial; results identical either way).
  explicit ClusterRuntime(SystemConfig config, unsigned jobs = 0);

  /// Partitions, replays every shard, and composes the cluster timeline.
  /// Supports every algorithm cluster_supports() accepts; throws
  /// std::invalid_argument otherwise. Deterministic in (graph, request).
  ClusterReport run(const graph::CsrGraph& graph,
                    const ClusterRequest& request);

  /// The same run over a partition the caller built once and reuses
  /// (the two-argument run() builds one and delegates here). `part` must
  /// come from partition::make_partition(graph, request.strategy,
  /// request.num_shards, /*seed=*/0, request.reorder); the
  /// result is then field-for-field identical. A partition whose shard
  /// count, strategy or vertex count disagrees with the request and graph
  /// throws std::invalid_argument (the seed and reorder are not recorded
  /// in a Partition, so matching them is the caller's contract).
  ClusterReport run(const graph::CsrGraph& graph,
                    const partition::Partition& part,
                    const ClusterRequest& request);

  const SystemConfig& config() const noexcept { return runner_.config(); }

  /// Attaches a telemetry sink (nullptr detaches). The cluster timeline —
  /// barrier-synchronized supersteps and exchange phases — is emitted
  /// post-hoc from the composed report, after the parallel shard replays
  /// have joined, so the fan-out itself stays untapped and thread-safe.
  void set_telemetry(obs::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

 private:
  /// Shard replays fan out here; the pool is lazy and reused across runs.
  ExperimentRunner runner_;
  obs::Telemetry* telemetry_ = nullptr;
};

}  // namespace cxlgraph::core
