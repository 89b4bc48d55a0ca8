#include "core/runtime.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "access/method.hpp"
#include "algo/bfs.hpp"
#include "algo/cc.hpp"
#include "algo/dobfs.hpp"
#include "algo/sssp.hpp"
#include "algo/sssp_delta.hpp"
#include "device/storage.hpp"
#include "device/tiered.hpp"
#include "gpusim/pointer_chase.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"

namespace cxlgraph::core {

namespace {

/// Everything a single simulated run needs, with correct teardown order.
struct RunStack {
  sim::Simulator sim;
  std::unique_ptr<device::PcieLink> link;
  std::unique_ptr<device::MemoryDevice> memory_device;
  /// Second device for composites (tiered fast tier); must outlive
  /// memory_device, which may reference it.
  std::unique_ptr<device::MemoryDevice> fast_tier;
  std::unique_ptr<device::MemoryDevice> slow_tier;
  std::unique_ptr<device::StorageArray> storage_array;
  MethodSpec method_spec;
  std::unique_ptr<access::AccessMethod> method;
  std::unique_ptr<access::MemoryBackend> backend;
};

std::uint64_t scaled_capacity(double fraction, std::uint64_t base,
                              std::uint64_t floor_bytes) {
  const auto scaled = static_cast<std::uint64_t>(
      fraction * static_cast<double>(base));
  return std::max(scaled, floor_bytes);
}

/// The access method `req`'s backend reads through on this edge list.
MethodSpec method_spec(const SystemConfig& cfg, const RunRequest& req,
                       std::uint64_t edge_list_bytes) {
  switch (req.backend) {
    case BackendKind::kHostDram:
    case BackendKind::kHostDramRemote:
    case BackendKind::kCxl:
    case BackendKind::kTieredDramCxl: {
      access::EmogiParams ep = cfg.emogi;
      if (req.alignment) ep.alignment = *req.alignment;
      ep.gpu_cache_bytes = scaled_capacity(
          cfg.emogi_cache_fraction, edge_list_bytes, cfg.emogi_cache_min_bytes);
      return ep;
    }
    case BackendKind::kXlfdd: {
      access::XlfddDirectParams xp = cfg.xlfdd;
      if (req.alignment) xp.alignment = *req.alignment;
      return xp;
    }
    case BackendKind::kBamNvme: {
      access::BamParams bp = cfg.bam;
      if (req.alignment) bp.line_bytes = *req.alignment;
      bp.cache_bytes =
          req.cache_bytes.value_or(scaled_capacity(
              cfg.bam_cache_fraction, edge_list_bytes, 1ull << 20));
      return bp;
    }
    case BackendKind::kUvm: {
      access::UvmParams up = cfg.uvm;
      up.resident_bytes = req.cache_bytes.value_or(scaled_capacity(
          cfg.uvm_resident_fraction, edge_list_bytes, 1ull << 20));
      return up;
    }
  }
  throw std::invalid_argument("unknown backend");
}

std::unique_ptr<access::AccessMethod> make_method(const MethodSpec& spec) {
  if (const auto* ep = std::get_if<access::EmogiParams>(&spec)) {
    return std::make_unique<access::EmogiAccess>(*ep);
  }
  if (const auto* xp = std::get_if<access::XlfddDirectParams>(&spec)) {
    return std::make_unique<access::XlfddDirectAccess>(*xp);
  }
  if (const auto* bp = std::get_if<access::BamParams>(&spec)) {
    return std::make_unique<access::BamAccess>(*bp);
  }
  return std::make_unique<access::UvmAccess>(std::get<access::UvmParams>(spec));
}

/// Builds link + device + access method for the requested backend.
RunStack build_stack(const SystemConfig& cfg, const RunRequest& req,
                     std::uint64_t edge_list_bytes) {
  RunStack s;
  s.method_spec = method_spec(cfg, req, edge_list_bytes);
  device::PcieLinkParams link_params = device::pcie_x16(cfg.gpu_link_gen);
  if (req.backend == BackendKind::kCxl && cfg.gpu_direct_cxl) {
    // Direct GPU<->CXL path: no CPU translation in either direction.
    link_params.request_overhead -=
        std::min(link_params.request_overhead, cfg.direct_cxl_saving);
    link_params.response_overhead -=
        std::min(link_params.response_overhead, cfg.direct_cxl_saving);
  }
  s.link = std::make_unique<device::PcieLink>(s.sim, link_params);

  switch (req.backend) {
    case BackendKind::kHostDram:
    case BackendKind::kHostDramRemote: {
      const auto& dram_params = req.backend == BackendKind::kHostDram
                                    ? cfg.dram_local
                                    : cfg.dram_remote;
      s.memory_device = std::make_unique<device::HostDram>(
          s.sim, dram_params, to_string(req.backend));
      s.backend = std::make_unique<access::MemoryPathBackend>(
          *s.link, *s.memory_device);
      break;
    }
    case BackendKind::kCxl: {
      device::CxlDeviceParams cp = cfg.cxl;
      if (req.cxl_added_latency) cp.added_latency = *req.cxl_added_latency;
      s.memory_device = std::make_unique<device::CxlMemoryPool>(
          s.sim, cp, cfg.cxl_devices, cfg.cxl_interleave_bytes);
      s.backend = std::make_unique<access::MemoryPathBackend>(
          *s.link, *s.memory_device);
      break;
    }
    case BackendKind::kXlfdd: {
      s.storage_array = std::make_unique<device::StorageArray>(
          s.sim, *s.link, device::xlfdd_drive_params(), cfg.xlfdd_drives,
          device::kXlfddStripeBytes);
      s.backend = std::make_unique<access::StoragePathBackend>(
          *s.storage_array, "storage:xlfdd-x" +
                                std::to_string(cfg.xlfdd_drives));
      break;
    }
    case BackendKind::kBamNvme: {
      s.storage_array = std::make_unique<device::StorageArray>(
          s.sim, *s.link, device::nvme_drive_params(), cfg.nvme_drives,
          device::kNvmeStripeBytes);
      const std::uint32_t line =
          std::get<access::BamParams>(s.method_spec).line_bytes;
      if (line < s.storage_array->drive_params().min_alignment ||
          line > s.storage_array->drive_params().max_transfer) {
        throw std::invalid_argument(
            "BaM line size outside NVMe transfer limits");
      }
      s.backend = std::make_unique<access::StoragePathBackend>(
          *s.storage_array,
          "storage:nvme-x" + std::to_string(cfg.nvme_drives));
      break;
    }
    case BackendKind::kTieredDramCxl: {
      device::CxlDeviceParams cp = cfg.cxl;
      if (req.cxl_added_latency) cp.added_latency = *req.cxl_added_latency;
      s.fast_tier = std::make_unique<device::HostDram>(
          s.sim, cfg.dram_local, "dram-hot-tier");
      s.slow_tier = std::make_unique<device::CxlMemoryPool>(
          s.sim, cp, cfg.cxl_devices, cfg.cxl_interleave_bytes);
      device::TieredMemoryParams tp;
      tp.fast_bytes = req.cache_bytes.value_or(static_cast<std::uint64_t>(
          cfg.tier_fast_fraction * static_cast<double>(edge_list_bytes)));
      tp.fast_bytes = tp.fast_bytes / 4096 * 4096;  // page-rounded split
      s.memory_device = std::make_unique<device::TieredMemory>(
          *s.fast_tier, *s.slow_tier, tp);
      s.backend = std::make_unique<access::MemoryPathBackend>(
          *s.link, *s.memory_device);
      break;
    }
    case BackendKind::kUvm: {
      s.storage_array = std::make_unique<device::StorageArray>(
          s.sim, *s.link, access::uvm_fault_engine_params(), 1, 4096);
      s.backend = std::make_unique<access::StoragePathBackend>(
          *s.storage_array, "storage:uvm-fault-path");
      break;
    }
  }
  s.method = make_method(s.method_spec);
  return s;
}

/// Attaches the passive observation set for one run_trace: a simulator
/// tap with link-busy (per direction) and outstanding-reads probes.
/// Everything reads; nothing schedules.
std::unique_ptr<obs::SimRunObserver> attach_run_observer(
    obs::Telemetry& telemetry, RunStack& stack) {
  auto observer = std::make_unique<obs::SimRunObserver>(telemetry, "sim");
  device::PcieLink* const link = stack.link.get();
  observer->add_probe(
      "link_return_busy_us",
      [link, prev = util::SimTime{0}]() mutable {
        const util::SimTime busy = link->stats().return_busy_time;
        const double delta = util::us_from_ps(busy - prev);
        prev = busy;
        return delta;
      });
  observer->add_probe(
      "link_upstream_busy_us",
      [link, prev = util::SimTime{0}]() mutable {
        const util::SimTime busy = link->stats().upstream_busy_time;
        const double delta = util::us_from_ps(busy - prev);
        prev = busy;
        return delta;
      });
  observer->add_probe(
      "outstanding_reads",
      [link] { return static_cast<double>(link->tags_in_use()); },
      obs::TimeSeriesSampler::Reduce::kMax);

  stack.sim.set_observer(observer.get());
  return observer;
}

/// Post-run emission: per-superstep spans along the replay timeline
/// (step_durations sums exactly to the engine's total, so cumulative
/// starts are exact) plus the run-level metric aggregates.
void record_run_telemetry(obs::Telemetry& telemetry,
                          const TraceRunResult& result) {
  obs::SpanTracer& tracer = telemetry.tracer();
  const std::uint16_t track =
      tracer.track("runtime", result.report.access_method);
  const std::uint32_t name = tracer.intern("superstep");
  const std::uint32_t key = tracer.intern("bytes");
  util::SimTime at = 0;
  for (std::size_t i = 0; i < result.step_durations.size(); ++i) {
    tracer.complete(track, name, at, result.step_durations[i], key,
                    result.step_fetched_bytes[i]);
    at += result.step_durations[i];
  }
  obs::MetricsRegistry& metrics = telemetry.metrics();
  metrics.counter("runtime", "supersteps").add(result.step_durations.size());
  metrics.counter("runtime", "fetched_bytes").add(result.report.fetched_bytes);
  metrics.counter("runtime", "transactions").add(result.report.transactions);
  util::Log2Histogram& steps = metrics.histogram("runtime", "step_ns");
  for (const util::SimTime d : result.step_durations) {
    steps.add(d / util::kPsPerNs);
  }
}

}  // namespace

bool uses_source(Algorithm algorithm) noexcept {
  switch (algorithm) {
    case Algorithm::kCc:
    case Algorithm::kPagerankScan:
      return false;
    case Algorithm::kBfs:
    case Algorithm::kSssp:
    case Algorithm::kBfsDirOpt:
    case Algorithm::kSsspDelta:
    case Algorithm::kBfsWriteback:
      return true;
  }
  return true;
}

graph::VertexId resolve_source(const graph::CsrGraph& graph,
                               std::optional<graph::VertexId> source,
                               std::uint64_t source_seed) {
  return source ? *source : algo::pick_source(graph, source_seed);
}

ExternalGraphRuntime::ExternalGraphRuntime(SystemConfig config)
    : config_(std::move(config)) {}

algo::AccessTrace ExternalGraphRuntime::make_trace(
    const graph::CsrGraph& graph, Algorithm algorithm,
    graph::VertexId source) const {
  switch (algorithm) {
    case Algorithm::kBfs:
      return algo::build_trace(graph, algo::bfs(graph, source).frontiers);
    case Algorithm::kSssp:
      return algo::build_trace(graph,
                               algo::sssp_frontier(graph, source).frontiers);
    case Algorithm::kCc:
      return algo::build_trace(graph,
                               algo::connected_components(graph).frontiers);
    case Algorithm::kPagerankScan:
      return algo::build_sequential_trace(graph, 1);
    case Algorithm::kBfsDirOpt:
      return algo::build_dobfs_trace(
          graph, algo::bfs_direction_optimizing(graph, source));
    case Algorithm::kSsspDelta:
      return algo::build_trace(
          graph, algo::sssp_delta_stepping(graph, source).phases);
    case Algorithm::kBfsWriteback:
      return algo::build_writeback_trace(
          graph, algo::bfs(graph, source).frontiers);
  }
  throw std::invalid_argument("unknown algorithm");
}

RunReport ExternalGraphRuntime::run(const graph::CsrGraph& graph,
                                    const RunRequest& request) {
  return run_profiled(graph, request).report;
}

TraceRunResult ExternalGraphRuntime::run_profiled(
    const graph::CsrGraph& graph, const RunRequest& request) {
  const graph::VertexId source =
      resolve_source(graph, request.source, request.source_seed);
  if (graph.id() == 0 || !held_ || held_->graph_id != graph.id() ||
      held_->algorithm != request.algorithm || held_->source != source) {
    held_.reset();
    algo::AccessTrace trace = make_trace(graph, request.algorithm, source);
    held_ = HeldTrace{graph.id(), request.algorithm, source, std::move(trace),
                      std::nullopt};
  }
  TraceRunResult result = replay(held_->trace, request,
                                 graph.edge_list_bytes(), &held_->expansion);
  result.report.source = source;
  result.report.graph_edges = graph.num_edges();
  return result;
}

TraceRunResult ExternalGraphRuntime::run_trace(
    const algo::AccessTrace& trace, const RunRequest& request,
    const graph::CsrGraph& graph, graph::VertexId source) const {
  TraceRunResult result = run_trace(trace, request, graph.edge_list_bytes());
  result.report.source = source;
  result.report.graph_edges = graph.num_edges();
  return result;
}

TraceRunResult ExternalGraphRuntime::run_trace(
    const algo::AccessTrace& trace, const RunRequest& request,
    std::uint64_t edge_list_bytes) const {
  return replay(trace, request, edge_list_bytes, nullptr);
}

TraceRunResult ExternalGraphRuntime::replay(
    const algo::AccessTrace& trace, const RunRequest& request,
    std::uint64_t edge_list_bytes,
    std::optional<HeldExpansion>* held) const {
  RunStack stack = build_stack(config_, request, edge_list_bytes);
  gpusim::TraversalEngine engine(stack.sim, *stack.method, *stack.backend,
                                 config_.gpu);
  std::unique_ptr<obs::SimRunObserver> observer;
  if (telemetry_ != nullptr) {
    observer = attach_run_observer(*telemetry_, stack);
  }
  if (held != nullptr &&
      (!*held || (*held)->method != stack.method_spec)) {
    // The stack's method is cold, as a replay needs it: expanding the
    // whole trace through it equals the engine's step-by-step expansion.
    held->reset();
    *held = HeldExpansion{stack.method_spec,
                          gpusim::expand_trace(*stack.method, trace)};
  }
  const gpusim::EngineResult engine_result =
      held != nullptr ? engine.run(trace, (*held)->reads) : engine.run(trace);
  if (observer != nullptr) {
    observer->finish();
    stack.sim.set_observer(nullptr);
  }

  TraceRunResult result;
  RunReport& report = result.report;
  report.algorithm = to_string(request.algorithm);
  report.backend = to_string(request.backend);
  report.access_method = stack.method->name();
  report.runtime_sec = engine_result.runtime_sec();
  report.throughput_mbps = engine_result.throughput_mbps();
  report.raf = engine_result.raf();
  report.avg_transfer_bytes = engine_result.avg_transaction_bytes();
  report.used_bytes = engine_result.used_bytes;
  report.fetched_bytes = engine_result.fetched_bytes;
  report.transactions = engine_result.transactions;
  report.steps = engine_result.steps.size();
  report.observed_read_latency_us =
      stack.link->stats().memory_read_latency_us.mean();
  report.avg_outstanding_reads = stack.link->stats().tags_in_use.mean();
  report.link_return_busy_sec =
      util::sec_from_ps(stack.link->stats().return_busy_time);
  report.link_upstream_busy_sec =
      util::sec_from_ps(stack.link->stats().upstream_busy_time);
  report.written_bytes = engine_result.written_bytes;
  report.write_transactions = engine_result.write_transactions;
  report.rmw_reads = engine_result.rmw_reads;
  report.frontier_vertices = engine_result.sublist_reads;
  result.step_durations.reserve(engine_result.steps.size());
  result.step_fetched_bytes.reserve(engine_result.steps.size());
  for (const gpusim::StepResult& step : engine_result.steps) {
    result.step_durations.push_back(step.duration);
    result.step_fetched_bytes.push_back(step.fetched_bytes);
  }
  result.events = stack.sim.events_processed();
  if (telemetry_ != nullptr) {
    record_run_telemetry(*telemetry_, result);
  }
  return result;
}

double ExternalGraphRuntime::measure_latency_us(
    BackendKind backend,
    std::optional<util::SimTime> cxl_added_latency) const {
  return measure_latency(backend, cxl_added_latency).mean_us;
}

gpusim::PointerChaseResult ExternalGraphRuntime::measure_latency(
    BackendKind backend,
    std::optional<util::SimTime> cxl_added_latency) const {
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(config_.gpu_link_gen));
  std::unique_ptr<device::MemoryDevice> dev;
  switch (backend) {
    case BackendKind::kHostDram:
      dev = std::make_unique<device::HostDram>(sim, config_.dram_local,
                                               "host-dram");
      break;
    case BackendKind::kHostDramRemote:
      dev = std::make_unique<device::HostDram>(sim, config_.dram_remote,
                                               "host-dram-remote");
      break;
    case BackendKind::kCxl: {
      device::CxlDeviceParams cp = config_.cxl;
      if (cxl_added_latency) cp.added_latency = *cxl_added_latency;
      dev = std::make_unique<device::CxlMemoryPool>(
          sim, cp, config_.cxl_devices, config_.cxl_interleave_bytes);
      break;
    }
    default:
      throw std::invalid_argument(
          "pointer chase requires a memory-path backend");
  }
  return gpusim::pointer_chase(sim, link, *dev);
}

}  // namespace cxlgraph::core
