#pragma once
/// \file experiment_runner.hpp
/// Fans independent experiment runs across a thread pool.
///
/// Every ExternalGraphRuntime::run is deterministic in (SystemConfig,
/// graph, RunRequest). Each task gets its own runtime, and the traces
/// jobs share are built once and only read afterwards, so an ablation
/// sweep's configurations can execute on worker threads while the results
/// come back in insertion order — bit-identical to the serial sweep, just
/// faster.
///
///   core::ExperimentRunner runner(core::table4_system(), /*jobs=*/0);
///   std::vector<core::RunRequest> requests = ...;  // one per config
///   std::vector<core::RunReport> reports = runner.run_all(graph, requests);

#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "core/runtime.hpp"
#include "util/thread_pool.hpp"

namespace cxlgraph::core {

/// One independent unit of a sweep: a request against a graph, optionally
/// under a job-specific SystemConfig (for sweeps over the system itself,
/// e.g. CXL device counts or PCIe generations). The graph must outlive the
/// run_all call.
struct SweepJob {
  const graph::CsrGraph* graph = nullptr;
  RunRequest request;
  std::optional<SystemConfig> config;
};

/// A prepared-trace run: ClusterRuntime builds one trace per shard and fans
/// them here, each against its own backend stack under the runner's
/// config. The trace must outlive the run_traces call.
struct TraceJob {
  const algo::AccessTrace* trace = nullptr;
  RunRequest request;
  /// Edge-list bytes resident on this runtime's external memory (cache
  /// capacity scaling); a shard passes its slice, not the whole graph.
  std::uint64_t edge_list_bytes = 0;
};

class ExperimentRunner {
 public:
  /// `jobs` worker threads: 0 means hardware concurrency, 1 runs serially
  /// on the calling thread (no pool is created).
  explicit ExperimentRunner(SystemConfig config, unsigned jobs = 0);

  /// Runs every job and returns reports in insertion order, regardless of
  /// completion order. Jobs with the same (graph.id(), algorithm, resolved
  /// source) replay one trace, built once whatever their backends, knobs
  /// or configs: one runtime per task, shared traces read-only. The first
  /// exception thrown by any run propagates after all jobs finish or are
  /// drained.
  std::vector<RunReport> run_all(const std::vector<SweepJob>& jobs);

  /// Convenience: every request runs against the same graph under the
  /// runner's default config.
  std::vector<RunReport> run_all(const graph::CsrGraph& graph,
                                 const std::vector<RunRequest>& requests);

  /// Runs every prepared-trace job (ExternalGraphRuntime::run_trace) with
  /// the same ordering and determinism guarantees as run_all.
  std::vector<TraceRunResult> run_traces(const std::vector<TraceJob>& jobs);

  /// Fans arbitrary independent tasks across the runner's workers; results
  /// come back in insertion order. For sweep drivers whose work units are
  /// not RunRequests (e.g. fig3's per-(algorithm, dataset) trace + RAF
  /// evaluation). The first exception propagates after all tasks drain.
  template <typename R>
  std::vector<R> map_tasks(const std::vector<std::function<R()>>& tasks) {
    static_assert(!std::is_same_v<R, bool>,
                  "std::vector<bool> packs bits: concurrent per-slot "
                  "writes race; wrap the result in a struct instead");
    std::vector<R> results(tasks.size());
    if (jobs_ == 1 || tasks.size() <= 1) {
      for (std::size_t i = 0; i < tasks.size(); ++i) results[i] = tasks[i]();
      return results;
    }
    util::ThreadPool& pool = ensure_pool();
    std::vector<std::future<void>> futures;
    futures.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      futures.push_back(
          pool.submit([&tasks, &results, i] { results[i] = tasks[i](); }));
    }
    std::exception_ptr first_error;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

  const SystemConfig& config() const noexcept { return config_; }

 private:
  util::ThreadPool& ensure_pool();

  SystemConfig config_;
  unsigned jobs_;
  /// Created lazily by the first multi-job run_all, so runners that only
  /// ever see empty or single-job sweeps never spawn threads.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace cxlgraph::core
