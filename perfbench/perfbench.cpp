/// perfbench — the repository benchmark driver.
///
/// Runs one named workload as a single caller in a closed loop (the next
/// call starts when the previous one returns) for a fixed number of host
/// seconds, checks every simulated result, and prints the end-to-end
/// metrics (--trace 0) or the per-layer metrics (--trace 1) as one JSON
/// object on the last line of stdout. README.md in this directory lists
/// the workloads, the metrics and why each was chosen; run.py builds this
/// binary and forwards its arguments.
///
/// Tracing never touches the library: spans are recorded here, around
/// calls into each layer's public functions, kept in memory and written
/// as Chrome trace JSON at exit. A traced run alternates untraced and
/// traced iterations, so the tracing overhead is measured in the same
/// process.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iterator>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algo/bfs.hpp"
#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "graph/datasets.hpp"
#include "partition/partition.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace cxlgraph;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 42;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---------------------------------------------------------------------------
// Host-speed reference. On a shared host the speed of this kind of code
// drifts by up to 70% over tens of seconds (other tenants share the cores'
// caches), far more than the bounds the benchmark fixes. So before the
// first set-up and after every set-up and body perfbench times a fixed
// event-queue kernel of its own -- a binary-heap event loop that
// read-modify-writes a 1 MB table, the shape of the simulator's hot loop --
// and reports host times calibrated to it: the raw seconds scaled by
// kReferenceNominalS over the reference's seconds around that piece of
// work. The kernel is part of this file, not of the program, so a change to
// the program moves calibrated times exactly as it moves raw ones.
// ---------------------------------------------------------------------------
constexpr double kReferenceNominalS = 0.05;
volatile std::uint64_t reference_sink;  // keeps the kernel's result live

double reference_seconds() {
  constexpr int kEvents = 1'000'000;
  constexpr std::size_t kPending = 4096;
  static std::vector<std::uint64_t> table(std::size_t{1} << 17);
  static std::vector<std::uint64_t> heap;
  std::fill(table.begin(), table.end(), 0);
  heap.clear();
  std::uint64_t x = 88172645463325252ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // An event is (time << 20 | id); the heap pops the earliest.
  for (std::uint64_t id = 0; id < kPending; ++id) {
    heap.push_back((next() & 0xffffff) << 20 | id);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const auto t0 = Clock::now();
  std::uint64_t acc = 0;
  for (int i = 0; i < kEvents; ++i) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const std::uint64_t ev = heap.back();
    heap.pop_back();
    const std::uint64_t id = ev & 0xfffff;
    std::uint64_t& slot = table[(id * 0x9e3779b97f4a7c15ULL + acc) >> 47];
    slot += ev;
    acc += slot & 0xff;
    const std::uint64_t latency =
        (slot & 1) != 0 ? 100 + (next() & 1023) : 5 + (next() & 31);
    heap.push_back(((ev >> 20) + latency) << 20 | id);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  const double s = seconds_between(t0, Clock::now());
  reference_sink = acc;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// FNV-1a folding of simulated reports, field for field as bench_simcore
// folds them, so a checksum match means identical simulated behaviour.
// ---------------------------------------------------------------------------
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t x) { h = (h ^ x) * 0x100000001b3ULL; }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  }
};

std::uint64_t checksum_report(const core::RunReport& r) {
  Fnv f;
  f.mix_double(r.runtime_sec);
  f.mix(r.used_bytes);
  f.mix(r.fetched_bytes);
  f.mix(r.transactions);
  f.mix(r.steps);
  f.mix(r.frontier_vertices);
  f.mix(r.written_bytes);
  f.mix(r.write_transactions);
  f.mix(r.rmw_reads);
  f.mix(r.source);
  f.mix_double(r.observed_read_latency_us);
  f.mix_double(r.avg_outstanding_reads);
  return f.h;
}

std::uint64_t checksum_serve(const serve::ServeReport& r) {
  Fnv f;
  f.mix(r.offered);
  f.mix(r.admitted);
  f.mix(r.completed);
  f.mix(r.shed);
  f.mix(r.link_bytes);
  f.mix(r.query_bytes);
  f.mix_double(r.makespan_sec);
  f.mix_double(r.latency_us.p50);
  f.mix_double(r.latency_us.p95);
  f.mix_double(r.latency_us.p99);
  return f.h;
}

std::uint64_t checksum_fleet(const serve::FleetReport& r) {
  Fnv f;
  f.mix(checksum_serve(r.serve));
  f.mix(r.peak_replicas);
  f.mix(r.shed_queue);
  f.mix(r.shed_quota);
  f.mix(r.shed_deadline);
  f.mix(r.migration_bytes);
  f.mix_double(r.migration_sec);
  for (const serve::ReplicaStats& s : r.replica_stats) {
    f.mix(s.served);
    f.mix(s.quanta);
    f.mix(s.link_bytes);
  }
  for (const serve::MigrationRecord& m : r.migrations) {
    f.mix(m.state_bytes);
    f.mix(m.moved_waiting);
    f.mix(m.moved_active ? 1 : 0);
    f.mix_double(m.copy_sec);
  }
  return f.h;
}

std::uint64_t checksum_fleet_faulted(const serve::FleetReport& r) {
  Fnv f;
  f.mix(checksum_fleet(r));
  f.mix(r.serve.failed);
  f.mix(r.serve.query_retries);
  f.mix(r.serve.lost_bytes);
  f.mix(r.crashes);
  f.mix(r.restarts);
  f.mix(r.replacements);
  f.mix(r.io_error_retries);
  f.mix(r.link_degrade_windows);
  f.mix_double(r.availability);
  f.mix(r.incidents.size());
  for (const serve::QueryRecord& q : r.serve.queries) {
    f.mix(q.retries);
    f.mix(q.lost_ps);
    f.mix(q.lost_bytes);
    f.mix(q.failed ? 1 : 0);
  }
  return f.h;
}

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent, iteration — recorded only when tracing
// is on, kept in memory, written as Chrome trace JSON at exit.
// ---------------------------------------------------------------------------
class Tracer {
 public:
  Tracer(bool enabled, std::string workload)
      : enabled_(enabled), workload_(std::move(workload)),
        origin_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }
  void set_iteration(int iteration) noexcept { iteration_ = iteration; }

  /// Runs f inside a span named `name` when tracing is on, else just f.
  template <class F>
  decltype(auto) span(const char* name, F&& f) {
    if (!enabled_) return f();
    const Closer closer{*this, open(name)};
    return f();
  }

  /// Summed duration of spans named `name` in one iteration.
  double total(const std::string& name, int iteration) const {
    double sum = 0.0;
    for (const Span& s : spans_) {
      if (s.iteration == iteration && s.name == name) sum += s.end - s.start;
    }
    return sum;
  }

  void write_chrome_json(std::ostream& os) const {
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                    "\"parent\":%d,\"iteration\":%d,\"workload\":\"%s\"}}%s\n",
                    s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6,
                    i, s.parent, s.iteration, workload_.c_str(),
                    i + 1 == spans_.size() ? "" : ",");
      os << buf;
    }
    os << "]}\n";
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int iteration = -1;
  };
  struct Closer {
    Tracer& tracer;
    int id;
    ~Closer() { tracer.close(id); }
  };

  int open(const char* name) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.iteration = iteration_;
    s.start = seconds_between(origin_, Clock::now());
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end =
        seconds_between(origin_, Clock::now());
    open_.pop_back();
  }

  bool enabled_;
  std::string workload_;
  Clock::time_point origin_;
  int iteration_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------------
// Workload sizes. At full size one body takes about 0.5-2.5 s on a 4-core
// host, so a 20 s run holds eight or more; the smoke sizes run every
// workload and check in seconds.
// ---------------------------------------------------------------------------
struct Sizes {
  unsigned fig11_scale = 13;
  unsigned storage_scale = 15;
  unsigned serve_scale = 11;
  std::uint32_t serve_queries = 200;
  unsigned fleet_scale = 12;
  std::uint32_t fleet_queries = 600'000;
  unsigned setup_reps = 5;
};

Sizes smoke_sizes() {
  Sizes s;
  s.fig11_scale = 10;
  s.storage_scale = 10;
  s.serve_scale = 10;
  s.serve_queries = 12;
  s.fleet_scale = 10;
  s.fleet_queries = 4'000;
  s.setup_reps = 1;
  return s;
}

/// Threads used by the library calls of every workload. The whole run is
/// pinned to one core (see run()), so the reference kernel times the core
/// the work runs on; more workers would only take turns on it.
constexpr unsigned kThreads = 1;

// ---------------------------------------------------------------------------
// Workload interface. setup() builds the inputs from the seed (timed as
// setup_s); body() is one closed-loop call sequence.
// ---------------------------------------------------------------------------
using Values = std::map<std::string, double>;

struct BodyResult {
  std::uint64_t checksum = 0;
  std::uint64_t calls = 0;
  std::uint64_t failed_calls = 0;
  /// Simulated device read + write transactions replayed by this body.
  double sim_tx = 0.0;
  /// Completed simulated queries (a sweep run counts as one query).
  double queries = 0.0;
  double sim_p99_us = 0.0;
  double sim_goodput_qps = 0.0;
  double sim_availability = 1.0;
  /// Host seconds a traced body spent on calls the untraced body does not
  /// make; excluded from its wall time.
  double extra_s = 0.0;
  /// Per-layer values: simulated outcomes always, host times when traced.
  Values layer;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual unsigned scale() const = 0;
  virtual void setup(Tracer& tracer) = 0;
  virtual BodyResult body(Tracer& tracer, std::vector<std::string>& errors) = 0;
  /// Per-layer samples taken once per traced run, outside the timed loop.
  virtual void layer_samples(Tracer&, Values&) {}
};

graph::CsrGraph traced_dataset(Tracer& tracer, graph::DatasetId id,
                               unsigned scale, bool weighted,
                               std::uint64_t seed) {
  return tracer.span("graph::make_dataset", [&] {
    return graph::make_dataset(id, scale, weighted, seed, kThreads);
  });
}

// ---------------------------------------------------------------------------
// Sweeps: fig11-cxl-sweep and storage-writeback. Each call is one
// ExternalGraphRuntime::run; the traced path makes the same two calls run()
// makes (make_trace, then run_trace) so trace building and replay are
// timed apart. Both paths must give identical reports.
// ---------------------------------------------------------------------------
struct SweepCall {
  std::size_t dataset = 0;
  core::RunRequest request;
};

class SweepWorkload : public Workload {
 public:
  SweepWorkload(core::SystemConfig config, unsigned scale, std::uint64_t seed)
      : runtime_(std::move(config)), scale_(scale), seed_(seed) {}

  unsigned scale() const override { return scale_; }

  void setup(Tracer& tracer) override {
    datasets_.clear();
    datasets_.push_back(traced_dataset(tracer, graph::DatasetId::kUrand,
                                       scale_, /*weighted=*/true, seed_));
    datasets_.push_back(traced_dataset(tracer, graph::DatasetId::kKron,
                                       scale_, /*weighted=*/true, seed_));
    calls_ = make_calls();
  }

  BodyResult body(Tracer& tracer, std::vector<std::string>& errors) override {
    BodyResult out;
    std::vector<core::RunReport> reports(calls_.size());
    std::vector<bool> ok(calls_.size(), false);
    Values& layer = out.layer;
    for (std::size_t i = 0; i < calls_.size(); ++i) {
      const SweepCall& call = calls_[i];
      const graph::CsrGraph& g = datasets_[call.dataset];
      ++out.calls;
      try {
        if (tracer.enabled()) {
          reports[i] = traced_run(tracer, g, call.request, layer);
        } else {
          reports[i] = runtime_.run(g, call.request);
        }
        ok[i] = true;
      } catch (const std::exception& e) {
        ++out.failed_calls;
        errors.push_back(std::string("run threw: ") + e.what());
      }
    }

    Fnv fold;
    std::vector<double> runtimes_us;
    double sim_sec = 0.0;
    for (std::size_t i = 0; i < calls_.size(); ++i) {
      const core::RunReport& r = reports[i];
      fold.mix(checksum_report(r));
      if (!ok[i]) continue;
      out.sim_tx += static_cast<double>(r.transactions + r.write_transactions);
      out.queries += 1.0;
      runtimes_us.push_back(r.runtime_sec * 1e6);
      sim_sec += r.runtime_sec;
      tally(calls_[i], r, layer);
    }
    out.checksum = fold.h;
    out.sim_p99_us = util::percentile(runtimes_us, 99.0);
    out.sim_goodput_qps = sim_sec > 0.0 ? out.queries / sim_sec : 0.0;
    check(reports, ok, out, errors);
    return out;
  }

 protected:
  virtual std::vector<SweepCall> make_calls() const = 0;
  virtual void check(const std::vector<core::RunReport>& reports,
                     const std::vector<bool>& ok, BodyResult& out,
                     std::vector<std::string>& errors) const = 0;

  std::vector<SweepCall> calls_;
  std::vector<graph::CsrGraph> datasets_;

  /// One run; `added_us` (CXL only) is the added device latency.
  SweepCall call(std::size_t dataset, core::Algorithm algorithm,
                 core::BackendKind backend, double added_us = -1.0) const {
    SweepCall c;
    c.dataset = dataset;
    c.request.algorithm = algorithm;
    c.request.backend = backend;
    c.request.source = source_of(datasets_[dataset]);
    if (added_us >= 0.0) {
      c.request.cxl_added_latency = util::ps_from_us(added_us);
    }
    return c;
  }

 private:
  /// The highest-degree vertex of eight seed-drawn ones: a source in the
  /// giant component, so the sweep's slowest run does not hinge on one draw.
  graph::VertexId source_of(const graph::CsrGraph& g) const {
    graph::VertexId best = algo::pick_source(g, seed_);
    for (std::uint64_t k = 1; k < 8; ++k) {
      const graph::VertexId v = algo::pick_source(g, seed_ + k);
      if (g.degree(v) > g.degree(best)) best = v;
    }
    return best;
  }

  core::RunReport traced_run(Tracer& tracer, const graph::CsrGraph& g,
                             const core::RunRequest& req, Values& layer) {
    const graph::VertexId source = req.source.value_or(
        algo::pick_source(g, req.source_seed));
    const auto t0 = Clock::now();
    const algo::AccessTrace trace =
        tracer.span("ExternalGraphRuntime::make_trace", [&] {
          return runtime_.make_trace(g, req.algorithm, source);
        });
    const auto t1 = Clock::now();
    core::TraceRunResult result =
        tracer.span("ExternalGraphRuntime::run_trace", [&] {
          return runtime_.run_trace(trace, req, g.edge_list_bytes());
        });
    const double replay_s = seconds_between(t1, Clock::now());
    layer["algo.make_trace_s"] += seconds_between(t0, t1);
    layer["algo.trace_reads"] += static_cast<double>(trace.total_reads);
    layer["replay.s"] += replay_s;
    layer[req.algorithm == core::Algorithm::kBfsWriteback
              ? std::string("replay.writeback.s")
              : "replay." + core::to_string(req.backend) + ".s"] += replay_s;
    result.report.source = source;
    result.report.graph_edges = g.num_edges();
    return result.report;
  }

  /// Simulated per-layer tallies of one successful call.
  static void tally(const SweepCall& c, const core::RunReport& r,
                    Values& layer) {
    const bool writeback =
        c.request.algorithm == core::Algorithm::kBfsWriteback;
    const std::string backend = core::to_string(c.request.backend);
    layer["replay.tx"] += static_cast<double>(r.transactions);
    layer["replay.write_tx"] += static_cast<double>(r.write_transactions);
    if (!writeback) {
      layer["tx." + backend] += static_cast<double>(r.transactions);
      layer["used." + backend] += static_cast<double>(r.used_bytes);
      layer["fetched." + backend] += static_cast<double>(r.fetched_bytes);
    }
    layer["link.return_busy"] += r.link_return_busy_sec;
    layer["link.upstream_busy"] += r.link_upstream_busy_sec;
    layer["link.runtime"] += r.runtime_sec;
  }

  core::ExternalGraphRuntime runtime_;
  unsigned scale_;
  std::uint64_t seed_;
};

const core::BackendKind kSweepBackends[] = {
    core::BackendKind::kHostDram, core::BackendKind::kCxl,
    core::BackendKind::kXlfdd, core::BackendKind::kBamNvme};

/// fig11-cxl-sweep: the paper's Fig. 11 on the Table-4 system. For BFS and
/// SSSP on urand and kron, one host-DRAM baseline plus CXL at seven added
/// latencies, run serially.
class Fig11Workload : public SweepWorkload {
 public:
  Fig11Workload(unsigned scale, std::uint64_t seed)
      : SweepWorkload(core::table4_system(), scale, seed) {}

 protected:
  static constexpr double kAdded[] = {0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  static constexpr std::size_t kPoints = sizeof(kAdded) / sizeof(kAdded[0]);

  std::vector<SweepCall> make_calls() const override {
    std::vector<SweepCall> calls;
    for (const core::Algorithm a :
         {core::Algorithm::kBfs, core::Algorithm::kSssp}) {
      for (std::size_t d = 0; d < datasets_.size(); ++d) {
        calls.push_back(call(d, a, core::BackendKind::kHostDram));
        for (const double added : kAdded) {
          calls.push_back(call(d, a, core::BackendKind::kCxl, added));
        }
      }
    }
    return calls;
  }

  /// Normalized CXL runtime must not improve as latency is added. Also
  /// derives the sweep's outcome figures from the (algorithm, dataset)
  /// pairs.
  void check(const std::vector<core::RunReport>& reports,
             const std::vector<bool>& ok, BodyResult& out,
             std::vector<std::string>& errors) const override {
    std::vector<double> mean_norm(kPoints, 0.0);
    double latency_2us = 0.0, outstanding_2us = 0.0;
    std::size_t pairs = 0;
    for (std::size_t base = 0; base < reports.size(); base += kPoints + 1) {
      if (!std::all_of(ok.begin() + static_cast<long>(base),
                       ok.begin() + static_cast<long>(base + kPoints + 1),
                       [](bool b) { return b; })) {
        continue;
      }
      const double dram = reports[base].runtime_sec;
      ++pairs;
      for (std::size_t p = 0; p < kPoints; ++p) {
        const core::RunReport& r = reports[base + 1 + p];
        mean_norm[p] += r.runtime_sec / dram;
        if (kAdded[p] == 2.0) {
          latency_2us += r.observed_read_latency_us;
          outstanding_2us += r.avg_outstanding_reads;
        }
        if (p > 0 && r.runtime_sec < reports[base + p].runtime_sec) {
          ++out.failed_calls;
          errors.push_back("fig11: CXL runtime decreased with added latency");
        }
      }
    }
    if (pairs == 0) return;
    const double n = static_cast<double>(pairs);
    for (double& m : mean_norm) m /= n;
    out.layer["sim_cxl_slowdown_2us"] = mean_norm[4];
    out.layer["sim_tolerable_added_us"] = tolerable(mean_norm, 1.10);
    out.layer["device.cxl.observed_latency_us_2us"] = latency_2us / n;
    out.layer["device.cxl.outstanding_reads_2us"] = outstanding_2us / n;
  }

 private:
  /// Added latency at which the mean normalized runtime first crosses
  /// `threshold`, linearly interpolated; the last point when it never does.
  static double tolerable(const std::vector<double>& norm, double threshold) {
    if (norm[0] >= threshold) return kAdded[0];
    for (std::size_t p = 1; p < norm.size(); ++p) {
      if (norm[p] >= threshold) {
        const double f = (threshold - norm[p - 1]) / (norm[p] - norm[p - 1]);
        return kAdded[p - 1] + f * (kAdded[p] - kAdded[p - 1]);
      }
    }
    return kAdded[kPoints - 1];
  }
};

/// storage-writeback: the Table-3 system. BFS and SSSP on XLFDD and
/// BaM-NVMe, plus BFS write-back on XLFDD and CXL, for urand and kron.
class StorageWorkload : public SweepWorkload {
 public:
  StorageWorkload(unsigned scale, std::uint64_t seed)
      : SweepWorkload(core::table3_system(), scale, seed) {}

 protected:
  std::vector<SweepCall> make_calls() const override {
    std::vector<SweepCall> calls;
    for (std::size_t d = 0; d < datasets_.size(); ++d) {
      for (const core::Algorithm a :
           {core::Algorithm::kBfs, core::Algorithm::kSssp}) {
        for (const core::BackendKind b :
             {core::BackendKind::kXlfdd, core::BackendKind::kBamNvme}) {
          calls.push_back(call(d, a, b));
        }
      }
      calls.push_back(call(d, core::Algorithm::kBfsWriteback,
                           core::BackendKind::kXlfdd));
      calls.push_back(call(d, core::Algorithm::kBfsWriteback,
                           core::BackendKind::kCxl));
    }
    return calls;
  }

  /// Every run must move data, and every write-back run must write.
  void check(const std::vector<core::RunReport>& reports,
             const std::vector<bool>& ok, BodyResult& out,
             std::vector<std::string>& errors) const override {
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if (!ok[i]) continue;
      const core::RunReport& r = reports[i];
      const bool writeback =
          calls_[i].request.algorithm == core::Algorithm::kBfsWriteback;
      if (r.fetched_bytes == 0 || r.transactions == 0 ||
          (writeback && (r.written_bytes == 0 || r.write_transactions == 0))) {
        ++out.failed_calls;
        errors.push_back("storage: run " + r.algorithm + "/" + r.backend +
                         " moved no data");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Serving workloads.
// ---------------------------------------------------------------------------
/// The serving mix: BFS spanning two degree-balanced shards, connected
/// components and a PageRank scan, equally weighted, one SLO for all.
std::vector<serve::QueryClass> serving_mix(util::SimTime slo) {
  std::vector<serve::QueryClass> mix(3);
  mix[0].algorithm = core::Algorithm::kBfs;
  mix[0].shards = 2;
  mix[0].strategy = partition::Strategy::kDegreeBalanced;
  mix[1].algorithm = core::Algorithm::kCc;
  mix[2].algorithm = core::Algorithm::kPagerankScan;
  for (serve::QueryClass& c : mix) c.slo = slo;
  return mix;
}

/// Invariants every serve report must hold, modelled failures included.
void check_serve_report(const serve::ServeReport& r, const char* who,
                        BodyResult& out, std::vector<std::string>& errors) {
  if (!r.conservation_ok()) {
    ++out.failed_calls;
    errors.push_back(std::string(who) + ": byte conservation violated");
  }
  if (static_cast<std::uint64_t>(r.completed) + r.shed + r.failed !=
      r.offered) {
    ++out.failed_calls;
    errors.push_back(std::string(who) +
                     ": completed + shed + failed != offered");
  }
  if (r.completed == 0) {
    ++out.failed_calls;
    errors.push_back(std::string(who) + ": no query completed");
  }
}

double profile_tx(const std::vector<serve::QueryProfile>& profiles) {
  double tx = 0.0;
  for (const serve::QueryProfile& p : profiles) {
    tx += static_cast<double>(p.report.transactions +
                              p.report.write_transactions);
  }
  return tx;
}

void serve_layers(const serve::ServeReport& r, Values& layer) {
  layer["serve.sim_queue_us_p50"] = r.queue_us.p50;
  layer["serve.sim_service_us_p50"] = r.service_us.p50;
  layer["serve.sim_utilization"] = r.utilization;
  layer["serve.sim_shed_frac"] =
      r.offered == 0
          ? 0.0
          : static_cast<double>(r.shed) / static_cast<double>(r.offered);
  double cluster = 0.0;
  for (const serve::QueryProfile& p : r.profiles) cluster += p.shards > 1;
  layer["serve.cluster_profiles"] = cluster;
  layer["serve.profiles"] = static_cast<double>(r.profiles.size());
}

/// serve-wide-sources: every query has its own source, so every query is a
/// new profile: profiling (replay, partition, cluster) dominates and the
/// queueing simulation is negligible. Each call is a cold serve.
class ServeWideWorkload : public Workload {
 public:
  ServeWideWorkload(const Sizes& sizes, std::uint64_t seed)
      : sizes_(sizes), seed_(seed) {}

  unsigned scale() const override { return sizes_.serve_scale; }

  void setup(Tracer& tracer) override {
    graph_ = traced_dataset(tracer, graph::DatasetId::kUrand,
                            sizes_.serve_scale, /*weighted=*/false, seed_);
    request_ = serve::ServeRequest{};
    request_.base.backend = core::BackendKind::kCxl;
    // Two closed-loop clients with no think time keep the stack busy, so
    // latency and goodput follow from the profiles, not from a random
    // arrival gap.
    request_.workload.process = serve::ArrivalProcess::kClosedLoop;
    request_.workload.num_clients = 2;
    request_.workload.mean_think_time = 0;
    request_.workload.seed = seed_;
    request_.workload.num_queries = sizes_.serve_queries;
    request_.workload.source_pool = 0;
    request_.workload.mix = serving_mix(util::ps_from_us(1'000.0));
    request_.config.policy = serve::SchedulingPolicy::kSloPriority;
    // Expanding the stream validates it before the first timed call.
    if (serve::make_queries(request_.workload).size() !=
        sizes_.serve_queries) {
      throw std::runtime_error("serve-wide-sources: bad query expansion");
    }
  }

  BodyResult body(Tracer& tracer, std::vector<std::string>& errors) override {
    BodyResult out;
    serve::QueryServer server(core::table3_system(), kThreads);
    serve::ServeReport report;
    out.calls = 1;
    try {
      if (tracer.enabled()) {
        const double cpu0 = process_cpu_seconds();
        const serve::ProfiledWorkload pw =
            tracer.span("QueryServer::profile_workload", [&] {
              return server.profile_workload(graph_, request_.base,
                                             request_.workload);
            });
        const double cpu = process_cpu_seconds() - cpu0;
        const std::uint64_t before = server.profiles_computed();
        report = tracer.span("QueryServer::serve", [&] {
          return server.serve(graph_, request_);
        });
        out.layer["serve.recomputed_profiles"] =
            static_cast<double>(server.profiles_computed() - before);
        out.layer["serve.profile_cpu_ms_each"] =
            pw.profiles.empty()
                ? 0.0
                : 1e3 * cpu / static_cast<double>(pw.profiles.size());
        if (server.profiles_computed() != before) {
          ++out.failed_calls;
          errors.push_back("serve-wide-sources: warm serve re-profiled");
        }
      } else {
        report = server.serve(graph_, request_);
      }
    } catch (const std::exception& e) {
      out.failed_calls = 1;
      errors.push_back(std::string("serve threw: ") + e.what());
      return out;
    }
    check_serve_report(report, "serve-wide-sources", out, errors);
    out.checksum = checksum_serve(report);
    out.sim_tx = profile_tx(report.profiles);
    out.queries = report.completed;
    out.sim_p99_us = report.latency_us.p99;
    out.sim_goodput_qps = report.goodput_qps;
    out.sim_availability =
        static_cast<double>(report.completed) /
        static_cast<double>(report.completed + report.failed);
    serve_layers(report, out.layer);
    return out;
  }

  /// Direct calls on a fixed sample of sources: the per-call cost of the
  /// three layers every shard-spanning profile goes through.
  void layer_samples(Tracer& tracer, Values& layer) override {
    const core::SystemConfig cfg = core::table3_system();
    std::vector<double> part_s, cluster_ms, core_ms;
    for (std::uint64_t k = 0; k < 3; ++k) {
      const graph::VertexId source = algo::pick_source(graph_, 1000 + k);
      auto t0 = Clock::now();
      tracer.span("partition::make_partition", [&] {
        return partition::make_partition(
            graph_, partition::Strategy::kDegreeBalanced, 2);
      });
      part_s.push_back(seconds_between(t0, Clock::now()));

      core::ClusterRequest creq;
      creq.run.algorithm = core::Algorithm::kBfs;
      creq.run.backend = core::BackendKind::kCxl;
      creq.run.source = source;
      creq.num_shards = 2;
      creq.strategy = partition::Strategy::kDegreeBalanced;
      core::ClusterRuntime cluster(cfg, kThreads);
      t0 = Clock::now();
      tracer.span("ClusterRuntime::run",
                  [&] { return cluster.run(graph_, creq); });
      cluster_ms.push_back(1e3 * seconds_between(t0, Clock::now()));

      core::ExternalGraphRuntime runtime(cfg);
      t0 = Clock::now();
      tracer.span("ExternalGraphRuntime::run",
                  [&] { return runtime.run(graph_, creq.run); });
      core_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
    }
    layer["partition.make_s_each"] = median(part_s);
    layer["cluster.run_ms_each"] = median(cluster_ms);
    layer["core.run_ms_each"] = median(core_ms);
  }

 private:
  Sizes sizes_;
  std::uint64_t seed_;
  graph::CsrGraph graph_;
  serve::ServeRequest request_;
};

/// fleet-hot-faults: few, cached profiles and a long open-loop stream, so
/// the fleet's routing, scheduling, shedding and fault recovery dominate.
/// Each call is a serve on a cold FleetServer.
class FleetWorkload : public Workload {
 public:
  FleetWorkload(const Sizes& sizes, std::uint64_t seed)
      : sizes_(sizes), seed_(seed) {}

  unsigned scale() const override { return sizes_.fleet_scale; }

  void setup(Tracer& tracer) override {
    graph_ = traced_dataset(tracer, graph::DatasetId::kUrand,
                            sizes_.fleet_scale, /*weighted=*/false, seed_);
    request_ = serve::FleetRequest{};
    request_.base.backend = core::BackendKind::kCxl;
    serve::WorkloadSpec& w = request_.workload;
    w.seed = seed_;
    w.num_queries = sizes_.fleet_queries;
    w.source_pool = 8;
    w.mix = serving_mix(0);
    // Calibrate on the stream's mean isolated service time: the offered
    // rate is 0.8 of the four replicas' capacity, and the SLOs and fault
    // timings are multiples of it, for any graph the seed draws.
    serve::QueryServer probe(core::table3_system(), kThreads);
    const serve::ProfiledWorkload pw = tracer.span(
        "QueryServer::profile_workload",
        [&] { return probe.profile_workload(graph_, request_.base, w); });
    double service_sec = 0.0;
    for (const std::size_t p : pw.query_profile) {
      service_sec += 1e-12 * static_cast<double>(pw.profiles[p].service_ps);
    }
    service_sec /= static_cast<double>(pw.query_profile.size());
    for (serve::QueryClass& c : w.mix) {
      c.slo = util::ps_from_us(5e6 * service_sec);
    }
    w.offered_qps = 0.8 * 4 / service_sec;

    serve::FleetConfig& f = request_.fleet;
    f.replicas = 4;
    f.router = serve::RouterKind::kJoinShortestQueue;
    f.serve.policy = serve::SchedulingPolicy::kRoundRobin;
    f.serve.quantum_supersteps = 2;
    f.slo_shedding = true;
    // The PageRank-scan tenant (a fifth of the work) moves mid-storm, while
    // queues are deep, and stays pinned to a target it does not saturate.
    f.migrations = {serve::MigrationPlan{20.0 * service_sec, 2, 0, 1}};
    // A harsh plan: a crash storm early in the stream, dense enough that a
    // retried query often meets a second crash and fails, plus I/O error
    // bursts and link flaps over the same window.
    fault::FaultSpec& faults = f.faults;
    faults.seed = seed_ ^ 0xfa017u;
    faults.horizon_sec = 40.0 * service_sec;
    faults.crashes = 64;
    faults.restart_sec = service_sec;
    faults.io_bursts = 4;
    faults.io_burst_sec = 10.0 * service_sec;
    faults.io_error_rate = 0.3;
    faults.link_flaps = 2;
    faults.flap_sec = 5.0 * service_sec;
    faults.flap_derate = 0.5;
    faults.max_query_retries = 1;
    faults.retry_backoff_us = 0.25e6 * service_sec;
    f.validate(w.mix.size());
    if (pw.queries.size() != sizes_.fleet_queries) {
      throw std::runtime_error("fleet-hot-faults: bad query expansion");
    }
  }

  BodyResult body(Tracer& tracer, std::vector<std::string>& errors) override {
    BodyResult out;
    serve::FleetServer fleet(core::table3_system(), kThreads);
    serve::FleetReport report;
    out.calls = 1;
    try {
      if (tracer.enabled()) {
        auto t0 = Clock::now();
        report = tracer.span("FleetServer::serve(cold)", [&] {
          return fleet.serve(graph_, request_);
        });
        const double cold = seconds_between(t0, Clock::now());
        const std::size_t cached = fleet.profile_cache_size();
        t0 = Clock::now();
        const serve::FleetReport warm = tracer.span(
            "FleetServer::serve(warm)",
            [&] { return fleet.serve(graph_, request_); });
        const double warm_s = seconds_between(t0, Clock::now());
        ++out.calls;
        out.extra_s = warm_s;
        out.layer["fleet.profile_s"] = cold - warm_s;
        out.layer["fleet.queue_s"] = warm_s;
        if (checksum_fleet_faulted(warm) != checksum_fleet_faulted(report) ||
            fleet.profile_cache_size() != cached) {
          ++out.failed_calls;
          errors.push_back("fleet-hot-faults: warm serve differs from cold");
        }
      } else {
        report = fleet.serve(graph_, request_);
      }
    } catch (const std::exception& e) {
      out.failed_calls = out.calls;
      errors.push_back(std::string("fleet serve threw: ") + e.what());
      return out;
    }
    const serve::ServeReport& s = report.serve;
    check_serve_report(s, "fleet-hot-faults", out, errors);
    if (s.shed == 0 || s.failed == 0 || s.query_retries == 0 ||
        report.crashes == 0 || report.migrations.empty()) {
      ++out.failed_calls;
      errors.push_back(
          "fleet-hot-faults: plan drew no shedding, retry, failure, crash "
          "or migration");
    }
    out.checksum = checksum_fleet_faulted(report);
    out.sim_tx = profile_tx(s.profiles);
    out.queries = s.completed;
    out.sim_p99_us = s.latency_us.p99;
    out.sim_goodput_qps = s.goodput_qps;
    out.sim_availability = report.availability;

    Values& layer = out.layer;
    serve_layers(s, layer);
    layer["fleet.shed_queue"] = report.shed_queue;
    layer["fleet.shed_deadline"] = report.shed_deadline;
    double umin = 1.0, umax = 0.0;
    for (const serve::ReplicaStats& r : report.replica_stats) {
      umin = std::min(umin, r.utilization);
      umax = std::max(umax, r.utilization);
    }
    layer["fleet.replica_util_min"] = umin;
    layer["fleet.replica_util_max"] = umax;
    layer["fleet.migration_bytes"] =
        static_cast<double>(report.migration_bytes);
    layer["fault.crashes"] = report.crashes;
    layer["fault.query_retries"] = s.query_retries;
    layer["fault.io_error_retries"] =
        static_cast<double>(report.io_error_retries);
    layer["fault.lost_work_s"] = s.lost_work_sec;
    layer["fault.failed"] = s.failed;
    return out;
  }

 private:
  Sizes sizes_;
  std::uint64_t seed_;
  graph::CsrGraph graph_;
  serve::FleetRequest request_;
};

// ---------------------------------------------------------------------------
// Goldens: the folded checksum of one body at the default seed, per
// workload and size. They pin "same simulated behaviour"; regenerate with
// --print-golden only for an intentional behaviour change.
// ---------------------------------------------------------------------------
struct Golden {
  const char* workload;
  std::uint64_t full;
  std::uint64_t smoke;
};

// clang-format off
constexpr Golden kGoldens[] = {
    {"fig11-cxl-sweep",    0x04e55a5ce8b32f47ULL, 0xa3aa9574f3445987ULL},
    {"storage-writeback",  0xcfd85c088c2dcb39ULL, 0x81633ef101a2b05cULL},
    {"serve-wide-sources", 0x713d6e624a7c1aa6ULL, 0x2e2c0aec6f02ef14ULL},
    {"fleet-hot-faults",   0xd33732024b6e0e6cULL, 0x5884311f5b9a7db0ULL},
};
// clang-format on

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Sizes& sizes,
                                        std::uint64_t seed) {
  if (name == "fig11-cxl-sweep") {
    return std::make_unique<Fig11Workload>(sizes.fig11_scale, seed);
  }
  if (name == "storage-writeback") {
    return std::make_unique<StorageWorkload>(sizes.storage_scale, seed);
  }
  if (name == "serve-wide-sources") {
    return std::make_unique<ServeWideWorkload>(sizes, seed);
  }
  if (name == "fleet-hot-faults") {
    return std::make_unique<FleetWorkload>(sizes, seed);
  }
  throw std::invalid_argument("unknown workload: " + name);
}

// ---------------------------------------------------------------------------
// Metric tables. Every run reports every metric of its mode; a per-layer
// metric a workload does not exercise reads 0.
// ---------------------------------------------------------------------------
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_tx_per_host_s", "tx/s"},
    {"queries_per_host_s", "queries/s"},
    {"peak_rss_mb", "MB"},
    {"success_rate", "ratio"},
    {"sim_p99_us", "us"},
    {"sim_goodput_qps", "queries/s"},
    {"sim_availability", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"algo.make_trace_s", "s"},
    {"algo.trace_reads", "count"},
    {"algo.trace_reads_per_s", "1/s"},
    {"replay.s", "s"},
    {"replay.tx", "count"},
    {"replay.write_tx", "count"},
    {"replay.host-dram.s", "s"},
    {"replay.host-dram.tx_per_s", "tx/s"},
    {"replay.cxl.s", "s"},
    {"replay.cxl.tx_per_s", "tx/s"},
    {"replay.xlfdd.s", "s"},
    {"replay.xlfdd.tx_per_s", "tx/s"},
    {"replay.bam-nvme.s", "s"},
    {"replay.bam-nvme.tx_per_s", "tx/s"},
    {"replay.writeback.s", "s"},
    {"core.glue_s", "s"},
    {"access.host-dram.useful_frac", "ratio"},
    {"access.cxl.useful_frac", "ratio"},
    {"access.xlfdd.useful_frac", "ratio"},
    {"access.bam-nvme.useful_frac", "ratio"},
    {"device.cxl.observed_latency_us_2us", "us"},
    {"device.cxl.outstanding_reads_2us", "count"},
    {"device.link.return_util", "ratio"},
    {"device.link.upstream_util", "ratio"},
    {"sim_cxl_slowdown_2us", "ratio"},
    {"sim_tolerable_added_us", "us"},
    {"partition.make_s_each", "s"},
    {"cluster.run_ms_each", "ms"},
    {"core.run_ms_each", "ms"},
    {"serve.cluster_profiles", "count"},
    {"serve.profile_s", "s"},
    {"serve.profiles", "count"},
    {"serve.profile_cpu_ms_each", "ms"},
    {"serve.queue_s", "s"},
    {"serve.recomputed_profiles", "count"},
    {"serve.sim_queue_us_p50", "us"},
    {"serve.sim_service_us_p50", "us"},
    {"serve.sim_utilization", "ratio"},
    {"serve.sim_shed_frac", "ratio"},
    {"fleet.profile_s", "s"},
    {"fleet.queue_s", "s"},
    {"fleet.shed_queue", "count"},
    {"fleet.shed_deadline", "count"},
    {"fleet.replica_util_min", "ratio"},
    {"fleet.replica_util_max", "ratio"},
    {"fleet.migration_bytes", "bytes"},
    {"fault.crashes", "count"},
    {"fault.query_retries", "count"},
    {"fault.io_error_retries", "count"},
    {"fault.lost_work_s", "s"},
    {"fault.failed", "count"},
    {"bench.wall_s_untraced", "s"},
    {"bench.wall_s_traced", "s"},
    {"bench.trace_overhead", "ratio"},
};

/// Host-time values of one traced iteration that depend on its whole wall
/// time or on its spans.
void traced_layers(const Tracer& tracer, int iteration, double wall,
                   Values& layer) {
  const double make_trace = layer["algo.make_trace_s"];
  if (make_trace > 0.0) {
    layer["algo.trace_reads_per_s"] = layer["algo.trace_reads"] / make_trace;
    layer["core.glue_s"] = wall - make_trace - layer["replay.s"];
  }
  for (const core::BackendKind b : kSweepBackends) {
    const std::string name = core::to_string(b);
    const double s = layer["replay." + name + ".s"];
    layer["replay." + name + ".tx_per_s"] =
        s > 0.0 ? layer["tx." + name] / s : 0.0;
    const double fetched = layer["fetched." + name];
    layer["access." + name + ".useful_frac"] =
        fetched > 0.0 ? layer["used." + name] / fetched : 0.0;
  }
  const double runtime = layer["link.runtime"];
  if (runtime > 0.0) {
    layer["device.link.return_util"] = layer["link.return_busy"] / runtime;
    layer["device.link.upstream_util"] = layer["link.upstream_busy"] / runtime;
  }
  const double profile =
      tracer.total("QueryServer::profile_workload", iteration);
  if (profile > 0.0) {
    layer["serve.profile_s"] = profile;
    layer["serve.queue_s"] = tracer.total("QueryServer::serve", iteration);
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------
struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool print_golden = false;
  std::string trace_out;
  std::string git = "unknown";
};

void print_json_number(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

int run(const Options& opt) {
  // One core for the whole run: the host's speed differs between cores and
  // drifts on each, and the reference kernel must time the core the work
  // runs on. Threads started later inherit the mask.
  const int core = sched_getcpu();
  if (core >= 0) {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    CPU_SET(core, &mask);
    sched_setaffinity(0, sizeof(mask), &mask);
  }
  const Sizes sizes = opt.smoke ? smoke_sizes() : Sizes{};
  Tracer tracer(opt.trace, opt.workload);
  std::vector<std::string> errors;

  // Every set-up and body is bracketed by reference runs; its calibrated
  // time uses the mean of the two around it.
  double reference_before = reference_seconds();
  std::vector<double> references;
  auto calibrated = [&](double raw_s) {
    const double reference_after = reference_seconds();
    const double ref = 0.5 * (reference_before + reference_after);
    reference_before = reference_after;
    references.push_back(ref);
    return raw_s * kReferenceNominalS / ref;
  };

  // Set-up, repeated; the last set-up's inputs are the ones measured.
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s, generate_s;
  for (unsigned rep = 0; rep < sizes.setup_reps; ++rep) {
    tracer.set_iteration(-1 - static_cast<int>(rep));
    const auto t0 = Clock::now();
    workload = make_workload(opt.workload, sizes, opt.seed);
    workload->setup(tracer);
    setup_s.push_back(calibrated(seconds_between(t0, Clock::now())));
    generate_s.push_back(
        tracer.total("graph::make_dataset", -1 - static_cast<int>(rep)));
  }

  // Closed loop. Traced runs alternate untraced and traced iterations.
  std::vector<BodyResult> results;
  std::vector<double> walls_untraced, walls_traced, calibrated_walls;
  std::vector<Values> traced_values;
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t reference = 0;
  const auto loop_start = Clock::now();
  for (int it = 0;; ++it) {
    const bool traced = opt.trace && it % 2 == 1;
    Tracer off(false, opt.workload);
    Tracer& t = traced ? tracer : off;
    t.set_iteration(it);
    const std::size_t errors_before = errors.size();
    const auto t0 = Clock::now();
    BodyResult r = t.span("body", [&] { return workload->body(t, errors); });
    const double wall = seconds_between(t0, Clock::now()) - r.extra_s;
    const double calibrated_wall = calibrated(wall);
    if (it == 0) {
      reference = r.checksum;
    } else if (r.checksum != reference) {
      errors.push_back("checksum differs between iterations");
      r.failed_calls = r.calls;
    }
    if (errors.size() != errors_before) {
      r.failed_calls = std::max<std::uint64_t>(r.failed_calls, 1);
    }
    attempted += r.calls;
    failed += std::min(r.failed_calls, r.calls);
    if (traced) {
      walls_traced.push_back(wall);
      traced_layers(tracer, it, wall, r.layer);
      traced_values.push_back(r.layer);
    } else {
      walls_untraced.push_back(wall);
      calibrated_walls.push_back(calibrated_wall);
      results.push_back(r);
    }
    const double elapsed = seconds_between(loop_start, Clock::now());
    const bool have_both = !opt.trace || !walls_traced.empty();
    if (elapsed >= opt.seconds && have_both) break;
  }

  // Golden at the default seed.
  for (const Golden& g : kGoldens) {
    if (opt.workload != g.workload) continue;
    const std::uint64_t want = opt.smoke ? g.smoke : g.full;
    if (opt.print_golden) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "golden %s %s 0x%016" PRIx64 "\n",
                    g.workload, opt.smoke ? "smoke" : "full", reference);
      std::cerr << buf;
    } else if (opt.seed == kDefaultSeed && reference != want) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "golden mismatch: got %016" PRIx64 " want %016" PRIx64,
                    reference, want);
      errors.push_back(buf);
      failed = attempted;
    }
  }

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!opt.trace) {
    // Every body does the same simulated work (checked above).
    const double wall = median(calibrated_walls);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const BodyResult& r0 = results.front();
    const double values[] = {
        median(setup_s),
        wall,
        r0.sim_tx / wall,
        r0.queries / wall,
        static_cast<double>(ru.ru_maxrss) / 1024.0,
        attempted == 0 ? 0.0
                       : 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(attempted),
        r0.sim_p99_us,
        r0.sim_goodput_qps,
        r0.sim_availability,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    Values layer;
    tracer.set_iteration(-100);
    workload->layer_samples(tracer, layer);
    for (const MetricDef& m : kPerLayer) {
      std::vector<double> v;
      for (Values& tv : traced_values) v.push_back(tv[m.name]);
      if (layer.count(m.name) == 0) layer[m.name] = median(v);
    }
    layer["graph.generate_s"] = median(generate_s);
    layer["bench.wall_s_untraced"] = median(walls_untraced);
    layer["bench.wall_s_traced"] = median(walls_traced);
    layer["bench.trace_overhead"] =
        median(walls_traced) / median(walls_untraced);
    for (const MetricDef& m : kPerLayer) {
      metrics.emplace_back(m, layer[m.name]);
    }
  }

  bool correct = errors.empty();
  for (const auto& [def, value] : metrics) {
    if (!std::isfinite(value)) {
      correct = false;
      errors.push_back(std::string("non-finite metric ") + def.name);
    }
  }
  for (const std::string& e : errors) std::cerr << "perfbench: " << e << "\n";

  const unsigned nproc = std::thread::hardware_concurrency();
  const bool release = std::string(PERFBENCH_BUILD_TYPE) == "Release";
  std::cout << "provenance: {\"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed
            << ", \"scale\": " << workload->scale()
            << ", \"threads\": " << kThreads
            << ", \"nproc\": " << nproc << ", \"build_type\": \""
            << PERFBENCH_BUILD_TYPE << "\", \"non_release_build\": "
            << (release ? "false" : "true") << ", \"compiler\": \""
            << __VERSION__ << "\", \"git\": \"" << opt.git
            << "\", \"smoke\": " << (opt.smoke ? "true" : "false")
            << ", \"iterations\": "
            << walls_untraced.size() + walls_traced.size()
            << ", \"raw_wall_s\": " << median(walls_untraced)
            << ", \"reference_s\": " << median(references) << "}\n";
  for (const auto& [def, value] : metrics) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-38s %16.6g %s\n", def.name, value,
                  def.unit);
    std::cout << buf;
  }

  if (opt.trace && !opt.trace_out.empty()) {
    std::ofstream os(opt.trace_out);
    if (!os) throw std::runtime_error("cannot write " + opt.trace_out);
    tracer.write_chrome_json(os);
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [def, value] = metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << def.name
              << "\": {\"value\": ";
    print_json_number(std::cout, std::isfinite(value) ? value : 0.0);
    std::cout << ", \"unit\": \"" << def.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::CliParser cli;
    cli.add_option("workload", "fig11-cxl-sweep | storage-writeback | "
                               "serve-wide-sources | fleet-hot-faults");
    cli.add_option("seed", "input seed", std::to_string(kDefaultSeed));
    cli.add_option("seconds", "host seconds the closed loop measures", "10");
    cli.add_option("trace", "1 = per-layer metrics from a traced run", "0");
    cli.add_option("trace-out", "Chrome trace JSON path (traced runs)", "");
    cli.add_option("git", "source revision recorded in the provenance",
                   "unknown");
    cli.add_flag("smoke", "tiny sizes: every workload and check in seconds");
    cli.add_flag("print-golden", "print the body checksum for the goldens");
    if (!cli.parse(argc, argv)) return 0;
    Options opt;
    opt.workload = cli.get("workload");
    opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    opt.seconds = cli.get_double("seconds");
    opt.trace = cli.get_int("trace") != 0;
    opt.trace_out = cli.get("trace-out");
    opt.git = cli.get("git");
    opt.smoke = cli.get_bool("smoke");
    opt.print_golden = cli.get_bool("print-golden");
    if (!(opt.seconds >= 0.0)) {
      throw std::invalid_argument("--seconds must be >= 0");
    }
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
