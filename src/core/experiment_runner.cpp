#include "core/experiment_runner.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>
#include <thread>

namespace cxlgraph::core {

ExperimentRunner::ExperimentRunner(SystemConfig config, unsigned jobs)
    : config_(std::move(config)), jobs_(jobs) {}

unsigned ExperimentRunner::workers() const noexcept {
  if (jobs_ == 1) return 1;
  if (pool_) return pool_->size();
  return jobs_ == 0 ? std::max(1u, std::thread::hardware_concurrency())
                    : jobs_;
}

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

  std::vector<RunReport> reports(jobs.size());
  if (jobs_ == 1 || jobs.size() <= 1) {
    ExternalGraphRuntime rt(config_);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].config) {
        ExternalGraphRuntime custom(*jobs[i].config);
        reports[i] = custom.run(*jobs[i].graph, jobs[i].request);
      } else {
        reports[i] = rt.run(*jobs[i].graph, jobs[i].request);
      }
    }
    return reports;
  }

  ensure_pool();

  // Each task builds its own runtime (a config copy) and writes its report
  // into a pre-sized slot, so results land in insertion order no matter
  // which worker finishes first.
  std::vector<std::future<void>> futures;
  futures.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    futures.push_back(pool_->submit([this, &jobs, &reports, i] {
      const SweepJob& job = jobs[i];
      ExternalGraphRuntime rt(job.config ? *job.config : config_);
      reports[i] = rt.run(*job.graph, job.request);
    }));
  }

  // Drain every future before rethrowing so no task still references the
  // local vectors when an exception unwinds them.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return reports;
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
      const ExternalGraphRuntime rt(job.config ? *job.config : config_);
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
