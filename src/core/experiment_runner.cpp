#include "core/experiment_runner.hpp"

#include <map>
#include <stdexcept>
#include <tuple>

namespace cxlgraph::core {

ExperimentRunner::ExperimentRunner(SystemConfig config, unsigned jobs)
    : config_(std::move(config)), jobs_(jobs) {}

util::ThreadPool& ExperimentRunner::ensure_pool() {
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(jobs_);
  return *pool_;
}

std::vector<RunReport> ExperimentRunner::run_all(
    const std::vector<SweepJob>& jobs) {
  for (const SweepJob& job : jobs) {
    if (job.graph == nullptr) {
      throw std::invalid_argument("SweepJob with null graph");
    }
  }

  // A trace is a pure function of (graph contents, algorithm, source), and
  // make_trace never reads the SystemConfig, so jobs that differ only in
  // backend, sweep knobs or config can replay one trace. slot[i] is job
  // i's shared trace, kNone when no other job has its key. A job whose
  // source does not resolve shares nothing: its own task throws the
  // error, in insertion order.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<graph::VertexId> sources(jobs.size());
  std::vector<std::size_t> slot(jobs.size(), kNone);
  std::vector<std::size_t> builders;  // per shared trace, its first job
  std::map<std::tuple<std::uint64_t, Algorithm, graph::VertexId>,
           std::size_t>
      first_with;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const graph::CsrGraph& graph = *jobs[i].graph;
    try {
      sources[i] = resolve_source(graph, jobs[i].request.source,
                                  jobs[i].request.source_seed);
    } catch (...) {
      continue;
    }
    if (graph.id() == 0) continue;
    const auto [first, fresh] = first_with.try_emplace(
        std::make_tuple(graph.id(), jobs[i].request.algorithm, sources[i]),
        i);
    if (fresh) continue;
    if (slot[first->second] == kNone) {
      slot[first->second] = builders.size();
      builders.push_back(first->second);
    }
    slot[i] = slot[first->second];
  }

  // Each shared trace is built once, up front; a trace with one job is
  // built inside that job's task, so only shared traces are held for the
  // whole sweep. A failed build stays empty and each of its jobs
  // rebuilds, throwing the same error from its own task.
  const ExternalGraphRuntime tracer(config_);
  std::vector<std::function<std::optional<algo::AccessTrace>()>> builds;
  for (const std::size_t b : builders) {
    builds.push_back([&tracer, &job = jobs[b], source = sources[b]]()
                         -> std::optional<algo::AccessTrace> {
      try {
        return tracer.make_trace(*job.graph, job.request.algorithm, source);
      } catch (...) {
        return std::nullopt;
      }
    });
  }
  const std::vector<std::optional<algo::AccessTrace>> shared =
      map_tasks(builds);

  // Each task runs on its own runtime (a config copy) and map_tasks
  // returns the reports in job order, so the sweep is bit-identical to
  // serial whatever the worker count.
  std::vector<std::function<RunReport()>> runs;
  runs.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const algo::AccessTrace* trace =
        slot[i] != kNone && shared[slot[i]] ? &*shared[slot[i]] : nullptr;
    runs.push_back([this, &job = jobs[i], source = sources[i], trace] {
      ExternalGraphRuntime rt(job.config ? *job.config : config_);
      if (trace == nullptr) return rt.run(*job.graph, job.request);
      return rt.run_trace(*trace, job.request, *job.graph, source).report;
    });
  }
  return map_tasks(runs);
}

std::vector<TraceRunResult> ExperimentRunner::run_traces(
    const std::vector<TraceJob>& jobs) {
  for (const TraceJob& job : jobs) {
    if (job.trace == nullptr) {
      throw std::invalid_argument("TraceJob with null trace");
    }
  }
  std::vector<std::function<TraceRunResult()>> tasks;
  tasks.reserve(jobs.size());
  for (const TraceJob& job : jobs) {
    tasks.push_back([this, &job] {
      const ExternalGraphRuntime rt(config_);
      return rt.run_trace(*job.trace, job.request, job.edge_list_bytes);
    });
  }
  return map_tasks(tasks);
}

std::vector<RunReport> ExperimentRunner::run_all(
    const graph::CsrGraph& graph, const std::vector<RunRequest>& requests) {
  std::vector<SweepJob> jobs(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    jobs[i].graph = &graph;
    jobs[i].request = requests[i];
  }
  return run_all(jobs);
}

}  // namespace cxlgraph::core
