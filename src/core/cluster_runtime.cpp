#include "core/cluster_runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/dobfs.hpp"
#include "algo/sssp.hpp"
#include "algo/sssp_delta.hpp"
#include "core/experiment_runner.hpp"
#include "device/pcie.hpp"
#include "obs/telemetry.hpp"

namespace cxlgraph::core {

namespace {

using graph::VertexId;
using util::SimTime;

/// A frontier vertex ID travels between shards as one vertex-ID word.
constexpr std::uint64_t kExchangeBytesPerVertex = graph::kBytesPerEdge;
/// A delta-stepping relaxation request carries (target ID, candidate
/// distance): two words.
constexpr std::uint64_t kRelaxRequestBytes = 2 * graph::kBytesPerEdge;

/// One exchange phase (the traffic between two consecutive supersteps),
/// resolved per ordered (source, destination-owner) shard pair so the
/// asymmetric composition can find the slowest ingress.
struct ExchangePhase {
  std::uint64_t bytes = 0;
  std::uint64_t messages = 0;
  /// Row-major [from * num_shards + to]; diagonal stays zero.
  std::vector<std::uint64_t> pair_bytes;

  explicit ExchangePhase(std::uint32_t num_shards)
      : pair_bytes(static_cast<std::size_t>(num_shards) * num_shards, 0) {}

  void add(std::uint32_t num_shards, std::uint32_t from, std::uint32_t to,
           std::uint64_t message_bytes) {
    ++messages;
    bytes += message_bytes;
    pair_bytes[static_cast<std::size_t>(from) * num_shards + to] +=
        message_bytes;
  }
};

/// Adds to each shard's trace the local sublists of the sorted `actives`
/// present on that shard with nonzero local degree, then commits the
/// superstep. Returns each shard's active local IDs, or nothing when no
/// shard read anything and the step was dropped. This is the one scan
/// every frontier-shaped superstep shares.
std::vector<std::vector<VertexId>> scan_actives(
    const partition::Partition& part, const std::vector<VertexId>& actives,
    std::vector<algo::AccessTrace>& traces) {
  std::vector<std::vector<VertexId>> active_locals(part.num_shards);
  for (std::uint32_t s = 0; s < part.num_shards; ++s) {
    const partition::ShardGraph& shard = part.shards[s];
    for (const VertexId u : actives) {
      const VertexId l = shard.to_local(u);
      if (l == partition::kNoLocalId || shard.graph.degree(l) == 0) {
        continue;
      }
      traces[s].add_sublist(l, shard.graph.sublist_byte_offset(l),
                            shard.graph.sublist_bytes(l));
      active_locals[s].push_back(l);
    }
  }
  if (!algo::commit_superstep(traces)) return {};
  return active_locals;
}

/// One owner-notification sweep for shard `s`: every local neighbor of
/// `active_locals` whose global ID passes `is_target` and is owned
/// elsewhere gets one message of `message_bytes`, deduplicated via the
/// caller's `stamp` in `sent` (one stamp value per (superstep, shard)).
template <typename TargetPredicate>
void notify_remote_targets(const partition::Partition& part, std::uint32_t s,
                           const std::vector<VertexId>& active_locals,
                           std::vector<std::uint64_t>& sent,
                           std::uint64_t stamp, ExchangePhase& phase,
                           std::uint64_t message_bytes,
                           TargetPredicate is_target) {
  const partition::ShardGraph& shard = part.shards[s];
  for (const VertexId l : active_locals) {
    for (const VertexId lv : shard.graph.neighbors(l)) {
      const VertexId v = shard.to_global(lv);
      if (!is_target(v)) continue;
      const std::uint32_t to = part.owner[v];
      if (to == s) continue;
      if (sent[v] == stamp) continue;
      sent[v] = stamp;
      phase.add(part.num_shards, s, to, message_bytes);
    }
  }
}

std::vector<std::vector<VertexId>> frontiers_for(
    const graph::CsrGraph& g, Algorithm algorithm, VertexId source) {
  switch (algorithm) {
    case Algorithm::kBfs:
      return algo::bfs(g, source).frontiers;
    case Algorithm::kSssp:
      return algo::sssp_frontier(g, source).frontiers;
    case Algorithm::kCc:
      return algo::connected_components(g).frontiers;
    default:
      break;
  }
  throw std::invalid_argument(
      "ClusterRuntime: algorithm has no superstep decomposition: " +
      to_string(algorithm));
}

/// PageRank-style sweep: one superstep scanning each shard's local edge
/// list; ghost-rank updates flow to their owners afterwards.
void decompose_pagerank(const partition::Partition& part,
                        std::vector<algo::AccessTrace>& traces,
                        std::vector<ExchangePhase>& phases) {
  const std::uint32_t P = part.num_shards;
  for (std::uint32_t s = 0; s < P; ++s) {
    const partition::ShardGraph& shard = part.shards[s];
    for (VertexId l = 0; l < shard.graph.num_vertices(); ++l) {
      traces[s].add_sublist(l, shard.graph.sublist_byte_offset(l),
                            shard.graph.sublist_bytes(l));
    }
  }
  if (!algo::commit_superstep(traces) || P == 1) return;
  ExchangePhase phase(P);
  for (std::uint32_t s = 0; s < P; ++s) {
    const partition::ShardGraph& shard = part.shards[s];
    for (VertexId l = 0; l < shard.graph.num_vertices(); ++l) {
      const std::uint32_t to = part.owner[shard.to_global(l)];
      if (to == s) continue;  // owned, not a ghost
      phase.add(P, s, to, kExchangeBytesPerVertex);
    }
  }
  phases.push_back(std::move(phase));
}

/// Frontier algorithms (BFS, Bellman-Ford SSSP, CC): one superstep per
/// frontier; a shard that discovers a next-frontier vertex owned elsewhere
/// sends its ID to the owner once per (superstep, shard, vertex).
void decompose_frontiers(
    const graph::CsrGraph& g, const partition::Partition& part,
    const std::vector<std::vector<VertexId>>& frontiers,
    std::vector<algo::AccessTrace>& traces,
    std::vector<ExchangePhase>& phases) {
  const std::uint32_t P = part.num_shards;
  const std::uint64_t n = g.num_vertices();
  // next_stamp[v] == k+1 marks v as a member of frontier k+1; sent[v]
  // deduplicates (superstep, shard, vertex) notifications.
  std::vector<std::uint64_t> next_stamp(n, 0);
  std::vector<std::uint64_t> sent(n, 0);
  std::uint64_t stamp = 0;
  algo::FrontierScratch scratch;
  for (std::size_t k = 0; k < frontiers.size(); ++k) {
    const std::vector<VertexId>& frontier =
        algo::sorted_frontier(frontiers[k], scratch);

    const std::vector<std::vector<VertexId>> active_locals =
        scan_actives(part, frontier, traces);
    if (active_locals.empty()) continue;

    if (P > 1 && k + 1 < frontiers.size()) {
      for (const VertexId v : frontiers[k + 1]) next_stamp[v] = k + 1;
      ExchangePhase phase(P);
      for (std::uint32_t s = 0; s < P; ++s) {
        ++stamp;
        notify_remote_targets(part, s, active_locals[s], sent, stamp,
                              phase, kExchangeBytesPerVertex,
                              [&next_stamp, k](VertexId v) {
                                return next_stamp[v] == k + 1;
                              });
      }
      phases.push_back(std::move(phase));
    }
  }
}

/// Direction-optimizing BFS: per superstep every shard votes push vs pull
/// from its local frontier stats; the aggregate — which equals the
/// whole-graph stats, since each edge is stored on exactly one shard and
/// each frontier vertex owned by exactly one — feeds the same
/// algo::DirectionDecider the single runtime uses, so the cluster runs one
/// direction per superstep and the decision sequence is shard-count
/// invariant (at shards=1 it is bit-identical to build_dobfs_trace). Pull
/// supersteps scan unvisited local sublists with the first-found-parent
/// early exit applied against the shard's local neighbor list.
void decompose_dobfs(const graph::CsrGraph& g,
                     const partition::Partition& part, VertexId source,
                     std::vector<algo::AccessTrace>& traces,
                     std::vector<ExchangePhase>& phases,
                     ClusterReport& report) {
  const std::uint32_t P = part.num_shards;
  const std::uint64_t n = g.num_vertices();
  // Depths drive both the pull-phase early exit and the next-frontier
  // membership test; direction-optimized depths equal plain BFS depths.
  const algo::BfsResult bfs = algo::bfs(g, source);

  algo::DirectionDecider decider(g.num_edges(), n);
  std::vector<std::uint64_t> sent(n, 0);
  std::uint64_t stamp = 0;
  algo::FrontierScratch scratch;

  for (std::size_t k = 0; k < bfs.frontiers.size(); ++k) {
    const std::vector<VertexId>& frontier =
        algo::sorted_frontier(bfs.frontiers[k], scratch);

    // The vote: every level consumes one decision, kept or not, so the
    // decider's hysteresis matches the single runtime's level for level.
    algo::DirectionVote aggregate;
    for (std::uint32_t s = 0; s < P; ++s) {
      const partition::ShardGraph& shard = part.shards[s];
      algo::DirectionVote vote;
      for (const VertexId u : frontier) {
        if (part.owner[u] == s) ++vote.frontier_vertices;
        const VertexId l = shard.to_local(u);
        if (l != partition::kNoLocalId) {
          vote.frontier_edges += shard.graph.degree(l);
        }
      }
      aggregate += vote;
    }
    const bool bottom_up = decider.decide_bottom_up(aggregate);

    std::vector<std::vector<VertexId>> active_locals;
    // Pull-phase discoveries: global vertices a shard found a parent for.
    std::vector<std::vector<VertexId>> discovered(P);
    if (!bottom_up) {
      active_locals = scan_actives(part, frontier, traces);
      if (active_locals.empty()) continue;
    } else {
      for (std::uint32_t s = 0; s < P; ++s) {
        const partition::ShardGraph& shard = part.shards[s];
        for (VertexId l = 0; l < shard.graph.num_vertices(); ++l) {
          const VertexId v = shard.to_global(l);
          const std::uint32_t d = bfs.depth[v];
          const bool unvisited_at_level =
              d == algo::kUnreachedDepth || d > k;
          if (!unvisited_at_level || shard.graph.degree(l) == 0) continue;
          std::uint64_t scanned = 0;
          bool found = false;
          for (const VertexId lu : shard.graph.neighbors(l)) {
            ++scanned;
            if (bfs.depth[shard.to_global(lu)] == k) {
              found = true;
              break;
            }
          }
          traces[s].add_sublist(l, shard.graph.sublist_byte_offset(l),
                                scanned * graph::kBytesPerEdge);
          if (found) discovered[s].push_back(v);
        }
      }
      if (!algo::commit_superstep(traces)) continue;
    }
    report.superstep_bottom_up.push_back(bottom_up ? 1 : 0);

    if (P > 1 && k + 1 < bfs.frontiers.size()) {
      ExchangePhase phase(P);
      for (std::uint32_t s = 0; s < P; ++s) {
        if (!bottom_up) {
          // Push: owners of remotely discovered next-frontier vertices
          // get one notification per (superstep, shard, vertex). Pull
          // needs no stamp: discovered[s] already holds each vertex at
          // most once per shard.
          ++stamp;
          notify_remote_targets(part, s, active_locals[s], sent, stamp,
                                phase, kExchangeBytesPerVertex,
                                [&bfs, k](VertexId v) {
                                  return bfs.depth[v] == k + 1;
                                });
        } else {
          // Pull: a shard that found a parent for a vertex it does not
          // own notifies the owner (each vertex scanned once per shard).
          for (const VertexId v : discovered[s]) {
            const std::uint32_t to = part.owner[v];
            if (to == s) continue;
            phase.add(P, s, to, kExchangeBytesPerVertex);
          }
        }
      }
      phases.push_back(std::move(phase));
    }
  }
}

/// Delta-stepping SSSP: one superstep per relaxation phase, barrier-
/// delimited along bucket epochs. Every scanned cut edge emits a
/// relaxation request (target ID + candidate distance) to the target's
/// owner, deduplicated per (phase, shard, target) — requests travel
/// whether or not the relaxation wins, as in a real distributed
/// delta-stepping where only the owner knows the current distance.
void decompose_delta(const graph::CsrGraph& g,
                     const partition::Partition& part, VertexId source,
                     std::vector<algo::AccessTrace>& traces,
                     std::vector<ExchangePhase>& phases,
                     ClusterReport& report) {
  const std::uint32_t P = part.num_shards;
  const std::uint64_t n = g.num_vertices();
  const algo::DeltaSteppingResult delta =
      algo::sssp_delta_stepping(g, source);
  report.bucket_epochs = delta.buckets_processed;

  std::vector<std::uint64_t> sent(n, 0);
  std::uint64_t stamp = 0;
  algo::FrontierScratch scratch;
  for (std::size_t p = 0; p < delta.phases.size(); ++p) {
    const std::vector<VertexId>& scan =
        algo::sorted_frontier(delta.phases[p], scratch);

    const std::vector<std::vector<VertexId>> active_locals =
        scan_actives(part, scan, traces);
    if (active_locals.empty()) continue;
    report.superstep_bucket.push_back(delta.phase_bucket[p]);

    if (P > 1 && p + 1 < delta.phases.size()) {
      ExchangePhase phase(P);
      for (std::uint32_t s = 0; s < P; ++s) {
        ++stamp;
        // Every scanned cut edge is a relaxation request.
        notify_remote_targets(part, s, active_locals[s], sent, stamp,
                              phase, kRelaxRequestBytes,
                              [](VertexId) { return true; });
      }
      phases.push_back(std::move(phase));
    }
  }
}

}  // namespace

bool cluster_supports(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kBfs:
    case Algorithm::kSssp:
    case Algorithm::kCc:
    case Algorithm::kPagerankScan:
    case Algorithm::kBfsDirOpt:
    case Algorithm::kSsspDelta:
      return true;
    default:
      return false;
  }
}

namespace {

/// Post-hoc cluster timeline: compute spans on a "supersteps" track and
/// exchange spans on an "exchange" track, laid out exactly as the
/// composed makespan charges them (superstep k, then exchange phase k).
void record_cluster_telemetry(obs::Telemetry& telemetry,
                              const ClusterReport& report) {
  obs::SpanTracer& tracer = telemetry.tracer();
  const std::uint16_t compute_track = tracer.track("cluster", "supersteps");
  const std::uint16_t exchange_track = tracer.track("cluster", "exchange");
  const std::uint32_t n_step = tracer.intern("superstep");
  const std::uint32_t n_exchange = tracer.intern("exchange");
  const std::uint32_t k_bytes = tracer.intern("bytes");
  SimTime at = 0;
  for (std::size_t k = 0; k < report.superstep_compute_ps.size(); ++k) {
    tracer.complete(compute_track, n_step, at, report.superstep_compute_ps[k],
                    k_bytes,
                    k < report.superstep_fetched_bytes.size()
                        ? report.superstep_fetched_bytes[k]
                        : 0);
    at += report.superstep_compute_ps[k];
    if (k < report.exchange_phase_ps.size()) {
      tracer.complete(exchange_track, n_exchange, at,
                      report.exchange_phase_ps[k]);
      at += report.exchange_phase_ps[k];
    }
  }
  obs::MetricsRegistry& metrics = telemetry.metrics();
  metrics.counter("cluster", "supersteps").add(report.supersteps);
  metrics.counter("cluster", "exchange_bytes").add(report.exchange_bytes);
  metrics.counter("cluster", "exchange_messages").add(report.exchange_messages);
  metrics.gauge("cluster", "ingress_skew").set(report.exchange_ingress_skew);
  metrics.gauge("cluster", "compute_imbalance")
      .set(report.shard_compute_imbalance);
}

}  // namespace

ClusterRuntime::ClusterRuntime(SystemConfig config, unsigned jobs)
    : runner_(std::move(config), jobs) {}

ClusterReport ClusterRuntime::run(const graph::CsrGraph& graph,
                                  const ClusterRequest& request) {
  return run(graph,
             partition::make_partition(graph, request.strategy,
                                       request.num_shards, /*seed=*/0,
                                       request.reorder),
             request);
}

ClusterReport ClusterRuntime::run(const graph::CsrGraph& graph,
                                  const partition::Partition& part,
                                  const ClusterRequest& request) {
  if (part.num_shards != request.num_shards ||
      part.strategy != request.strategy ||
      part.owner.size() != graph.num_vertices()) {
    throw std::invalid_argument(
        "ClusterRuntime: partition does not match the request's shard "
        "count and strategy or the graph's vertex count");
  }
  const Algorithm algorithm = request.run.algorithm;
  if (!cluster_supports(algorithm)) {
    throw std::invalid_argument(
        "ClusterRuntime: algorithm has no superstep decomposition: " +
        to_string(algorithm));
  }

  const VertexId source =
      resolve_source(graph, request.run.source, request.run.source_seed);
  const std::uint32_t P = request.num_shards;

  // -------------------------------------------------------------------
  // Build one trace per shard, superstep-aligned: every shard has a step
  // for every kept global step (possibly with no reads — the shard still
  // pays the kernel-launch barrier). Steps with no reads on any shard are
  // dropped (algo::commit_superstep), matching the single-runtime trace
  // builders. Exchange phases are computed in the same sweep from the
  // shard subgraphs.
  // -------------------------------------------------------------------
  ClusterReport report;
  std::vector<algo::AccessTrace> traces(P);
  std::vector<ExchangePhase> phases;

  switch (algorithm) {
    case Algorithm::kPagerankScan:
      decompose_pagerank(part, traces, phases);
      break;
    case Algorithm::kBfsDirOpt:
      decompose_dobfs(graph, part, source, traces, phases, report);
      break;
    case Algorithm::kSsspDelta:
      decompose_delta(graph, part, source, traces, phases, report);
      break;
    default:
      decompose_frontiers(graph, part,
                          frontiers_for(graph, algorithm, source), traces,
                          phases);
      break;
  }

  // -------------------------------------------------------------------
  // Replay every shard on its own backend stack, fanned across workers.
  // -------------------------------------------------------------------
  std::vector<TraceJob> jobs(P);
  for (std::uint32_t s = 0; s < P; ++s) {
    jobs[s].trace = &traces[s];
    jobs[s].request = request.run;
    jobs[s].edge_list_bytes = part.shards[s].graph.edge_list_bytes();
  }
  const std::vector<TraceRunResult> results = runner_.run_traces(jobs);

  // -------------------------------------------------------------------
  // Compose the cluster timeline.
  // -------------------------------------------------------------------
  report.partitioner = partition::to_string(request.strategy);
  report.num_shards = P;
  report.source = source;
  report.cut = part.stats;
  report.supersteps = results.empty() ? 0 : traces[0].num_steps();
  report.pair_exchange_bytes.assign(static_cast<std::size_t>(P) * P, 0);

  double compute_total_sec = 0.0;
  for (std::uint32_t s = 0; s < P; ++s) {
    RunReport shard_report = results[s].report;
    shard_report.source = source;
    shard_report.graph_edges = part.shards[s].graph.num_edges();
    report.fetched_bytes += shard_report.fetched_bytes;
    report.used_bytes += shard_report.used_bytes;
    report.transactions += shard_report.transactions;
    report.max_shard_compute_sec =
        std::max(report.max_shard_compute_sec, shard_report.runtime_sec);
    compute_total_sec += shard_report.runtime_sec;
    report.shard_reports.push_back(std::move(shard_report));
  }
  report.algorithm = report.shard_reports.front().algorithm;
  report.backend = report.shard_reports.front().backend;
  report.access_method = report.shard_reports.front().access_method;
  if (compute_total_sec > 0.0) {
    report.shard_compute_imbalance =
        report.max_shard_compute_sec /
        (compute_total_sec / static_cast<double>(P));
  }

  // Per-superstep cluster-wide fetched bytes (the serving layer charges
  // these against the shared link superstep by superstep).
  report.superstep_fetched_bytes.assign(report.supersteps, 0);
  for (std::uint32_t s = 0; s < P; ++s) {
    for (std::size_t k = 0; k < report.supersteps; ++k) {
      report.superstep_fetched_bytes[k] +=
          results[s].step_fetched_bytes[k];
    }
  }

  SimTime compute_ps = 0;
  report.superstep_compute_ps.reserve(report.supersteps);
  for (std::size_t k = 0; k < report.supersteps; ++k) {
    SimTime slowest = 0;
    for (std::uint32_t s = 0; s < P; ++s) {
      slowest = std::max(slowest, results[s].step_durations[k]);
    }
    report.superstep_compute_ps.push_back(slowest);
    compute_ps += slowest;
  }
  report.compute_sec = util::sec_from_ps(compute_ps);

  const double bandwidth_mbps =
      device::pcie_x16(config().gpu_link_gen).bandwidth_mbps;
  // Asymmetric composition: a phase ends when the slowest-ingress shard
  // has drained, so the phase costs max over destinations of the bytes
  // converging there — not the bulk total over one shared pipe. Each
  // phase is costed once, in integer picoseconds; exchange_sec is the
  // sum of those phases, so the per-phase seam decomposes the totals
  // exactly (the same pattern compute_sec uses).
  std::uint64_t sum_max_ingress = 0;
  SimTime exchange_ps = 0;
  for (const ExchangePhase& phase : phases) {
    report.exchange_bytes += phase.bytes;
    report.exchange_messages += phase.messages;
    std::uint64_t max_ingress = 0;
    for (std::uint32_t t = 0; t < P; ++t) {
      std::uint64_t ingress = 0;
      for (std::uint32_t s = 0; s < P; ++s) {
        ingress += phase.pair_bytes[static_cast<std::size_t>(s) * P + t];
      }
      max_ingress = std::max(max_ingress, ingress);
    }
    sum_max_ingress += max_ingress;
    const SimTime phase_ps =
        request.exchange_latency +
        static_cast<SimTime>(static_cast<double>(max_ingress) *
                             util::ps_per_byte(bandwidth_mbps));
    report.exchange_phase_ps.push_back(phase_ps);
    exchange_ps += phase_ps;
    for (std::size_t i = 0; i < phase.pair_bytes.size(); ++i) {
      report.pair_exchange_bytes[i] += phase.pair_bytes[i];
    }
  }
  report.exchange_sec = util::sec_from_ps(exchange_ps);
  if (report.exchange_bytes > 0) {
    // Balanced all-to-all would cost total/P per phase; the skew is how
    // much the slowest ingress exceeded that.
    report.exchange_ingress_skew =
        static_cast<double>(sum_max_ingress) * static_cast<double>(P) /
        static_cast<double>(report.exchange_bytes);
  }
  report.runtime_sec = report.compute_sec + report.exchange_sec;
  if (telemetry_ != nullptr) {
    record_cluster_telemetry(*telemetry_, report);
  }
  return report;
}

}  // namespace cxlgraph::core
