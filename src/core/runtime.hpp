#pragma once
/// \file runtime.hpp
/// ExternalGraphRuntime — the library's main entry point.
///
/// Give it a system configuration, a graph, an algorithm, and an external
/// memory backend; it runs the real traversal on the CPU, replays the
/// resulting access trace through the modeled GPU + interconnect + device
/// stack, and reports runtime, throughput, RAF, and latency statistics.
///
///   core::ExternalGraphRuntime rt(core::table4_system());
///   core::RunRequest req;
///   req.algorithm = core::Algorithm::kBfs;
///   req.backend = core::BackendKind::kCxl;
///   req.cxl_added_latency = util::ps_from_us(1.0);
///   core::RunReport report = rt.run(graph, req);

#include <optional>
#include <string>
#include <variant>

#include "algo/trace.hpp"
#include "core/system_config.hpp"
#include "gpusim/pointer_chase.hpp"
#include "graph/csr.hpp"

namespace cxlgraph::obs {
class Telemetry;
}

namespace cxlgraph::core {

struct RunRequest {
  Algorithm algorithm = Algorithm::kBfs;
  BackendKind backend = BackendKind::kHostDram;
  /// Traversal source; defaults to a seeded pick of a non-isolated vertex.
  std::optional<graph::VertexId> source;
  std::uint64_t source_seed = 1;

  /// Sweep knobs (each overrides the SystemConfig default when set).
  std::optional<util::SimTime> cxl_added_latency;
  std::optional<std::uint32_t> alignment;   // EMOGI / XLFDD / BaM line size
  std::optional<std::uint64_t> cache_bytes; // BaM / UVM capacity
};

struct RunReport {
  // Identification.
  std::string algorithm;
  std::string backend;
  std::string access_method;
  graph::VertexId source = 0;

  // Headline numbers.
  double runtime_sec = 0.0;        // simulated graph-processing time (t)
  double throughput_mbps = 0.0;    // achieved T = D / t
  double raf = 0.0;                // D / E
  double avg_transfer_bytes = 0.0; // achieved d

  // Volumes.
  std::uint64_t used_bytes = 0;     // E
  std::uint64_t fetched_bytes = 0;  // D
  std::uint64_t transactions = 0;
  std::uint64_t steps = 0;

  // Link-level observations (memory path only where applicable).
  double observed_read_latency_us = 0.0;
  double avg_outstanding_reads = 0.0;
  /// Active-transfer time per full-duplex link half, in simulated seconds.
  /// Utilization = busy / runtime per direction; the halves are reported
  /// separately because they saturate independently.
  double link_return_busy_sec = 0.0;
  double link_upstream_busy_sec = 0.0;

  // Write-side numbers (Sec.-5 extension; zero for read-only workloads).
  std::uint64_t written_bytes = 0;
  std::uint64_t write_transactions = 0;
  std::uint64_t rmw_reads = 0;

  // Workload facts.
  std::uint64_t frontier_vertices = 0;  // total sublist reads
  std::uint64_t graph_edges = 0;

  friend bool operator==(const RunReport&, const RunReport&) = default;
};

/// run_trace's result: the usual report plus per-step (superstep) wall
/// times and byte counts. ClusterRuntime composes barrier-synchronized
/// shard timelines from the durations; the serving layer (serve::
/// QueryServer) additionally needs the per-step fetched bytes so it can
/// charge interleaved queries against the shared link at superstep
/// granularity — and prove the per-query bytes it accounts sum exactly to
/// what the stack fetched. step_durations sums to the engine's total time
/// and step_fetched_bytes to the report's fetched_bytes, both exactly.
struct TraceRunResult {
  RunReport report;
  std::vector<util::SimTime> step_durations;
  std::vector<std::uint64_t> step_fetched_bytes;
  /// Discrete events the replay's simulator processed: the work count
  /// behind wall-clock throughput numbers.
  std::uint64_t events = 0;
};

/// The access method a run reads through, as its kind and construction
/// parameters. Equal specs expand every trace identically: host DRAM,
/// remote DRAM, CXL and tiered stacks all read through EMOGI, so their
/// specs match whenever alignment and cache size do.
using MethodSpec = std::variant<access::EmogiParams, access::XlfddDirectParams,
                                access::BamParams, access::UvmParams>;

/// False for the algorithms whose traversal never reads the source:
/// kCc and kPagerankScan sweep the whole graph, so make_trace — and a
/// ClusterRuntime decomposition — yields the same trace for every source.
/// Runs of such an algorithm differ only in the reported source field,
/// which is what lets the serving layer replay one per source-free class.
bool uses_source(Algorithm algorithm) noexcept;

/// The vertex a run traverses from on `graph`: `source` when set, else
/// algo::pick_source(graph, source_seed), which is evaluated only then (so
/// an explicit source needs no edges). Every runtime and the serving layer
/// resolve through this. With the graph's id and the algorithm it keys a
/// trace, for run_profiled's held trace and for ExperimentRunner::run_all's
/// shared ones.
graph::VertexId resolve_source(const graph::CsrGraph& graph,
                               std::optional<graph::VertexId> source,
                               std::uint64_t source_seed);

/// Threading: run and run_profiled update the runtime's held trace, so a
/// runtime runs them on one thread at a time; sweeps give each task its
/// own runtime. make_trace is stateless, and run_trace and the latency
/// probes only read the runtime, so with no telemetry attached one
/// runtime may serve them to several threads at once.
class ExternalGraphRuntime {
 public:
  explicit ExternalGraphRuntime(SystemConfig config);

  /// Runs one workload end to end. Deterministic in (graph, request).
  RunReport run(const graph::CsrGraph& graph, const RunRequest& request);

  /// run() plus the per-superstep durations and fetched bytes (the
  /// returned report is bit-for-bit run()'s); run() is implemented on top
  /// of this. Serving profiles replay each trace once, so they call
  /// make_trace and run_trace instead and hold nothing.
  ///
  /// A trace is a pure function of (graph contents, algorithm, source),
  /// so the runtime keeps the last one it built, keyed by (graph.id(),
  /// algorithm, resolved source), and replays it when the next call's key
  /// matches: a sweep over backends, latencies or sweep knobs builds it
  /// once. On a miss the held trace is dropped before the new one is
  /// built, so at most one trace and one stack are alive; a make_trace
  /// that throws leaves nothing held. A graph with id 0 never matches.
  ///
  /// Beside the trace it holds the trace's expansion through the last
  /// access method it replayed (gpusim::expand_trace), keyed by that
  /// method's MethodSpec, so the replays of a latency sweep expand the
  /// trace once. A different spec replaces it.
  TraceRunResult run_profiled(const graph::CsrGraph& graph,
                              const RunRequest& request);

  /// Replays a prepared access trace through a freshly built backend stack,
  /// expanding each step's reads as it goes.
  /// `edge_list_bytes` is the size of the edge list resident on this
  /// runtime's external memory (cache capacities scale with it); for a
  /// cluster shard that is the shard's slice, not the whole graph. The
  /// report's source and graph_edges fields are left for the caller.
  TraceRunResult run_trace(const algo::AccessTrace& trace,
                           const RunRequest& request,
                           std::uint64_t edge_list_bytes) const;

  /// Replays make_trace(graph, request.algorithm, source) as run_profiled
  /// does, filling in the report's source and graph_edges: the one replay
  /// of a whole-graph trace, for run_profiled, for
  /// ExperimentRunner::run_all's shared traces and for serving profiles.
  TraceRunResult run_trace(const algo::AccessTrace& trace,
                           const RunRequest& request,
                           const graph::CsrGraph& graph,
                           graph::VertexId source) const;

  /// Runs the traversal only and returns its access trace (no simulation).
  algo::AccessTrace make_trace(const graph::CsrGraph& graph,
                               Algorithm algorithm,
                               graph::VertexId source) const;

  /// Pointer-chase latency (us) as seen from the GPU for a memory-path
  /// backend (host DRAM or CXL), reproducing Fig. 9 bars.
  double measure_latency_us(BackendKind backend,
                            std::optional<util::SimTime> cxl_added_latency =
                                std::nullopt) const;

  /// Same chase, full per-hop distribution (tail percentiles for latency
  /// reports). measure_latency_us is this result's mean.
  gpusim::PointerChaseResult measure_latency(
      BackendKind backend,
      std::optional<util::SimTime> cxl_added_latency = std::nullopt) const;

  const SystemConfig& config() const noexcept { return config_; }

  /// Attaches a telemetry sink (nullptr detaches). When enabled, each
  /// run_trace records per-superstep spans and a live simulator tap with
  /// link and outstanding-read probes — all passively: results stay
  /// bit-identical to the detached path.
  /// Only for runtimes driven from one thread (the CLI / bench path);
  /// sweep fan-out should leave its per-task runtimes untapped.
  void set_telemetry(obs::Telemetry* telemetry) noexcept {
    telemetry_ = telemetry;
  }

 private:
  /// A held trace's expansion and the access method it was made with.
  struct HeldExpansion {
    MethodSpec method;
    gpusim::ReadExpansion reads;
  };

  /// run_profiled's last trace and the key it was built for.
  struct HeldTrace {
    std::uint64_t graph_id = 0;
    Algorithm algorithm = Algorithm::kBfs;
    graph::VertexId source = 0;
    algo::AccessTrace trace;
    std::optional<HeldExpansion> expansion;
  };

  /// run_trace's replay. With `held` set, the replay reads from *held
  /// when its method matches this stack's, after rebuilding it otherwise.
  TraceRunResult replay(const algo::AccessTrace& trace,
                        const RunRequest& request,
                        std::uint64_t edge_list_bytes,
                        std::optional<HeldExpansion>* held) const;

  SystemConfig config_;
  obs::Telemetry* telemetry_ = nullptr;
  std::optional<HeldTrace> held_;
};

}  // namespace cxlgraph::core
