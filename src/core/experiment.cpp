#include "core/experiment.hpp"

#include <cmath>
#include <future>
#include <sstream>

#include "algo/bfs.hpp"
#include "algo/sssp.hpp"
#include "analysis/model.hpp"
#include "analysis/requirements.hpp"
#include "cache/raf.hpp"
#include "core/experiment_runner.hpp"
#include "gpusim/cpu_probe.hpp"
#include "gpusim/pointer_chase.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace cxlgraph::core {

namespace {

using util::TablePrinter;
using util::fmt;

std::string fmt_bytes_cell(std::uint64_t bytes) {
  return util::format_bytes(bytes);
}

void log_report(const RunReport& report) {
  CXLG_INFO(report.algorithm << " on " << report.backend << " ("
                             << report.access_method << "): t="
                             << fmt(report.runtime_sec * 1e3, 3) << " ms"
                             << ", T=" << fmt(report.throughput_mbps, 0)
                             << " MB/s, RAF=" << fmt(report.raf, 2)
                             << ", d=" << fmt(report.avg_transfer_bytes, 1)
                             << " B");
}

SweepJob make_job(const graph::CsrGraph& g, Algorithm algorithm,
                  BackendKind backend, const ExperimentOptions& options,
                  const RunRequest& base = {}) {
  SweepJob job;
  job.graph = &g;
  job.request = base;
  job.request.algorithm = algorithm;
  job.request.backend = backend;
  job.request.source_seed = options.seed;
  return job;
}

}  // namespace

std::vector<RunReport> run_sweep(const SystemConfig& config,
                                 const ExperimentOptions& options,
                                 const std::vector<SweepJob>& jobs) {
  ExperimentRunner runner(config, options.jobs);
  std::vector<RunReport> reports = runner.run_all(jobs);
  if (options.verbose) {
    // Logged after collection so the order matches the serial sweep.
    for (const RunReport& report : reports) log_report(report);
  }
  return reports;
}

DatasetBundle make_datasets(const ExperimentOptions& options) {
  const auto& specs = graph::paper_datasets();
  DatasetBundle bundle;
  bundle.entries.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    bundle.entries[i].spec = specs[i];
  }
  if (options.jobs != 0) {
    // An explicit worker count bounds the whole run to that many threads:
    // the datasets generate one after another, each fanning its edge
    // chunks across `jobs` workers (serially for jobs == 1).
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (options.verbose) {
        CXLG_INFO("generating " << specs[i].name << " at scale "
                                << options.scale);
      }
      bundle.entries[i].graph = graph::make_dataset(
          specs[i].id, options.scale, /*weighted=*/true, options.seed,
          options.jobs);
    }
    return bundle;
  }
  // The three generations are independent; fan them out on a scoped pool.
  // Each generation's own chunk fan-out goes through the shared default
  // pool, so a dedicated (small) pool here cannot deadlock against it, and
  // chunk-seeded sampling keeps every graph bit-identical to the serial
  // path.
  util::ThreadPool pool(static_cast<unsigned>(specs.size()));
  util::parallel_for(pool, specs.size(),
                     [&bundle, &specs, &options](std::uint64_t begin,
                                                 std::uint64_t end) {
                       for (std::uint64_t i = begin; i < end; ++i) {
                         bundle.entries[i].graph = graph::make_dataset(
                             specs[i].id, options.scale, /*weighted=*/true,
                             options.seed);
                       }
                     });
  if (options.verbose) {
    for (const auto& spec : specs) {
      CXLG_INFO("generated " << spec.name << " at scale " << options.scale);
    }
  }
  return bundle;
}

TablePrinter table1_datasets(const ExperimentOptions& options) {
  TablePrinter table({"Dataset", "Vertices", "Edges", "Edge list",
                      "Avg degree*", "Avg sublist [B]"});
  const DatasetBundle bundle = make_datasets(options);
  for (const auto& entry : bundle.entries) {
    const graph::DegreeStats s = graph::degree_stats(entry.graph);
    table.add_row({entry.spec.paper_name + " (scale " +
                       std::to_string(options.scale) + ")",
                   util::fmt_count(s.num_vertices),
                   util::fmt_count(s.num_edges),
                   fmt_bytes_cell(s.edge_list_bytes),
                   fmt(s.avg_degree_nonzero, 1),
                   fmt(s.avg_sublist_bytes, 1)});
  }
  return table;
}

TablePrinter table2_frontier(const ExperimentOptions& options) {
  const graph::CsrGraph g = graph::make_dataset(
      graph::DatasetId::kUrand, options.scale, /*weighted=*/false,
      options.seed);
  const graph::VertexId source = algo::pick_source(g, options.seed);
  const algo::BfsResult result = algo::bfs(g, source);

  TablePrinter table({"Depth", "Number of vertices"});
  for (std::size_t depth = 0; depth < result.frontiers.size(); ++depth) {
    table.add_row({std::to_string(depth),
                   util::fmt_count(result.frontiers[depth].size())});
  }
  return table;
}

TablePrinter fig3_raf(const ExperimentOptions& options,
                      double cache_fraction) {
  const std::vector<std::uint32_t> alignments = {8,   16,  32,   64,  128,
                                                 256, 512, 1024, 2048, 4096};
  std::vector<std::string> headers = {"Workload"};
  for (auto a : alignments) headers.push_back(std::to_string(a) + "B");
  TablePrinter table(headers);

  const DatasetBundle bundle = make_datasets(options);

  // Each (algorithm, dataset) cell's trace + RAF sweep is independent of
  // the rest, so the six of them fan out across the runner's workers and
  // come back in row order — bit-identical to the serial loop.
  struct Cell {
    Algorithm algorithm;
    const DatasetBundle::Entry* entry;
  };
  std::vector<Cell> cells;
  for (const Algorithm algorithm : {Algorithm::kBfs, Algorithm::kSssp}) {
    for (const auto& entry : bundle.entries) {
      cells.push_back(Cell{algorithm, &entry});
    }
  }

  ExternalGraphRuntime rt(table3_system());
  std::vector<std::function<std::vector<double>()>> tasks;
  tasks.reserve(cells.size());
  for (const Cell& cell : cells) {
    tasks.push_back([&rt, &alignments, &options, cache_fraction, cell] {
      const graph::CsrGraph& g = cell.entry->graph;
      const graph::VertexId source = algo::pick_source(g, options.seed);
      const algo::AccessTrace trace =
          rt.make_trace(g, cell.algorithm, source);
      const auto capacity = static_cast<std::uint64_t>(
          cache_fraction * static_cast<double>(g.edge_list_bytes()));
      std::vector<double> rafs;
      rafs.reserve(alignments.size());
      for (const auto& r : cache::raf_sweep(trace, alignments, capacity)) {
        rafs.push_back(r.raf());
      }
      return rafs;
    });
  }
  ExperimentRunner runner(table3_system(), options.jobs);
  const std::vector<std::vector<double>> results = runner.map_tasks(tasks);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::vector<std::string> row = {to_string(cells[i].algorithm) + " " +
                                    cells[i].entry->spec.paper_name};
    for (const double raf : results[i]) row.push_back(fmt(raf, 2));
    table.add_row(std::move(row));
    if (options.verbose) {
      // Logged after collection so the order matches the serial sweep.
      CXLG_INFO("fig3: " << to_string(cells[i].algorithm) << " "
                         << cells[i].entry->spec.name << " done");
    }
  }
  return table;
}

TablePrinter fig4_model(const ExperimentOptions& options,
                        double cache_fraction) {
  // The paper's example external memory: S = 100 MIOPS, L = 16 us, on a
  // Gen4 x16 link (Sec. 3.2, Eq. 4): T = min(100 d, 48 d, 24000).
  analysis::ThroughputParams model;
  model.iops = 100.0e6;
  model.latency_sec = 16.0e-6;
  model.n_max = 768;
  model.bandwidth_mbps = 24'000.0;

  const graph::CsrGraph g = graph::make_dataset(
      graph::DatasetId::kUrand, options.scale, /*weighted=*/false,
      options.seed);
  ExternalGraphRuntime rt(table3_system());
  const graph::VertexId source = algo::pick_source(g, options.seed);
  const algo::AccessTrace trace =
      rt.make_trace(g, Algorithm::kBfs, source);
  const auto capacity = static_cast<std::uint64_t>(
      cache_fraction * static_cast<double>(g.edge_list_bytes()));

  TablePrinter table({"d [B]", "Total data D [MB]", "Throughput T [MB/s]",
                      "Runtime t [ms]"});
  for (const std::uint32_t d :
       {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u, 8192u}) {
    cache::RafOptions raf_options;
    raf_options.alignment = d;  // BaM-style: transfer size = alignment
    raf_options.cache_capacity_bytes = capacity;
    const cache::RafResult raf = cache::evaluate_raf(trace, raf_options);
    const double total_mb =
        static_cast<double>(raf.fetched_bytes) / 1.0e6;
    const double t_mbps = analysis::throughput_mbps(model, d);
    const double runtime_ms =
        analysis::runtime_sec(model, static_cast<double>(raf.fetched_bytes),
                              d) *
        1.0e3;
    table.add_row({std::to_string(d), fmt(total_mb, 1), fmt(t_mbps, 0),
                   fmt(runtime_ms, 3)});
  }
  return table;
}

TablePrinter fig5_alignment_sweep(const ExperimentOptions& options) {
  const graph::CsrGraph g = graph::make_dataset(
      graph::DatasetId::kUrand, options.scale, /*weighted=*/false,
      options.seed);
  const std::vector<std::uint32_t> alignments = {16, 32, 64, 128, 256, 512};

  // Baseline + XLFDD alignment points + BaM, all independent: one batch.
  std::vector<SweepJob> jobs;
  jobs.push_back(make_job(g, Algorithm::kBfs, BackendKind::kHostDram,
                          options));
  for (const std::uint32_t a : alignments) {
    RunRequest req;
    req.alignment = a;
    jobs.push_back(make_job(g, Algorithm::kBfs, BackendKind::kXlfdd,
                            options, req));
  }
  jobs.push_back(make_job(g, Algorithm::kBfs, BackendKind::kBamNvme,
                          options));
  const std::vector<RunReport> reports =
      run_sweep(table3_system(), options, jobs);
  const RunReport& emogi = reports.front();

  TablePrinter table(
      {"Config", "Alignment [B]", "Runtime [ms]", "Normalized", "RAF",
       "d [B]", "T [MB/s]"});
  auto add = [&](const std::string& config, const RunReport& r,
                 std::uint32_t alignment) {
    table.add_row({config, std::to_string(alignment),
                   fmt(r.runtime_sec * 1e3, 3),
                   fmt(r.runtime_sec / emogi.runtime_sec, 2), fmt(r.raf, 2),
                   fmt(r.avg_transfer_bytes, 1),
                   fmt(r.throughput_mbps, 0)});
  };
  add("EMOGI host-DRAM (baseline)", emogi, 32);
  for (std::size_t i = 0; i < alignments.size(); ++i) {
    add("XLFDD", reports[1 + i], alignments[i]);
  }
  add("BaM NVMe", reports.back(), 4096);
  return table;
}

TablePrinter fig6_runtimes(const ExperimentOptions& options) {
  const DatasetBundle bundle = make_datasets(options);

  // 2 algorithms x 3 datasets x 3 backends, all independent: one batch of
  // 18 runs through the pool, consumed three at a time per row.
  std::vector<SweepJob> jobs;
  for (const Algorithm algorithm : {Algorithm::kBfs, Algorithm::kSssp}) {
    for (const auto& entry : bundle.entries) {
      for (const BackendKind backend :
           {BackendKind::kHostDram, BackendKind::kXlfdd,
            BackendKind::kBamNvme}) {
        jobs.push_back(make_job(entry.graph, algorithm, backend, options));
      }
    }
  }
  const std::vector<RunReport> reports =
      run_sweep(table3_system(), options, jobs);

  TablePrinter table({"Algorithm", "Dataset", "EMOGI [ms]", "XLFDD [ms]",
                      "XLFDD norm.", "BaM [ms]", "BaM norm."});
  std::size_t i = 0;
  for (const Algorithm algorithm : {Algorithm::kBfs, Algorithm::kSssp}) {
    for (const auto& entry : bundle.entries) {
      const RunReport& emogi = reports[i++];
      const RunReport& xlfdd = reports[i++];
      const RunReport& bam = reports[i++];
      table.add_row({to_string(algorithm), entry.spec.paper_name,
                     fmt(emogi.runtime_sec * 1e3, 3),
                     fmt(xlfdd.runtime_sec * 1e3, 3),
                     fmt(xlfdd.runtime_sec / emogi.runtime_sec, 2),
                     fmt(bam.runtime_sec * 1e3, 3),
                     fmt(bam.runtime_sec / emogi.runtime_sec, 2)});
    }
  }
  return table;
}

TablePrinter fig9_latency() {
  const SystemConfig cfg = table4_system();
  ExternalGraphRuntime rt(cfg);

  // Mean plus per-hop tails: the chase records every hop, so the report
  // quotes p50/p95/p99 (util::percentile) alongside the average the
  // paper's bars show.
  TablePrinter table({"External memory", "Added latency [us]",
                      "Observed latency [us]", "p50 [us]", "p95 [us]",
                      "p99 [us]"});
  const auto add_row = [&table](const std::string& name,
                                const std::string& added,
                                const gpusim::PointerChaseResult& r) {
    table.add_row({name, added, fmt(r.mean_us, 2),
                   fmt(util::percentile(r.hop_us, 50.0), 2),
                   fmt(util::percentile(r.hop_us, 95.0), 2),
                   fmt(util::percentile(r.hop_us, 99.0), 2)});
  };

  // DRAM 0 sits on the far socket; DRAM 1 on the GPU's socket. Both go
  // through the runtime's own measurement seam.
  add_row("DRAM 0 (remote)", "-",
          rt.measure_latency(BackendKind::kHostDramRemote));
  add_row("DRAM 1 (local)", "-",
          rt.measure_latency(BackendKind::kHostDram));

  for (const bool remote : {true, false}) {
    for (int added_us = 0; added_us <= 3; ++added_us) {
      // CXL 0 is attached to the far socket, CXL 3 to the GPU's socket
      // (the socket-hop variant the runtime seam does not model).
      sim::Simulator sim;
      device::PcieLink link(sim, device::pcie_x16(cfg.gpu_link_gen));
      device::CxlDeviceParams cp = cfg.cxl;
      cp.added_latency = util::ps_from_us(static_cast<double>(added_us));
      cp.socket_hop = remote ? util::ps_from_ns(100) : 0;
      device::CxlMemoryPool pool(sim, cp, 1, cfg.cxl_interleave_bytes);
      add_row(remote ? "CXL 0 (remote)" : "CXL 3 (local)",
              std::to_string(added_us),
              gpusim::pointer_chase(sim, link, pool));
    }
  }
  return table;
}

TablePrinter fig10_cxl_throughput() {
  const SystemConfig cfg = table4_system();
  TablePrinter table({"Added latency [us]", "Throughput [MB/s]",
                      "Observed latency [us]", "# outstanding (Little)"});
  for (double added = 0.0; added <= 10.0; added += 1.0) {
    device::CxlDeviceParams cp = cfg.cxl;
    cp.added_latency = util::ps_from_us(added);
    const gpusim::CpuProbeResult r = gpusim::cpu_random_read_probe(cp);
    table.add_row({fmt(added, 0), fmt(r.throughput_mbps, 0),
                   fmt(r.observed_latency_us, 2),
                   fmt(r.littles_law_outstanding, 1)});
  }
  return table;
}

TablePrinter fig11_cxl_runtime(const ExperimentOptions& options) {
  const DatasetBundle bundle = make_datasets(options);
  const std::vector<double> added_latencies = {0.0, 0.5, 1.0, 1.5,
                                               2.0, 2.5, 3.0};

  // Per (algorithm, dataset): one DRAM baseline plus seven CXL latency
  // points, all independent: one batch of 48 runs through the pool.
  std::vector<SweepJob> jobs;
  for (const Algorithm algorithm : {Algorithm::kBfs, Algorithm::kSssp}) {
    for (const auto& entry : bundle.entries) {
      jobs.push_back(make_job(entry.graph, algorithm,
                              BackendKind::kHostDram, options));
      for (const double added : added_latencies) {
        RunRequest req;
        req.cxl_added_latency = util::ps_from_us(added);
        jobs.push_back(make_job(entry.graph, algorithm, BackendKind::kCxl,
                                options, req));
      }
    }
  }
  const std::vector<RunReport> reports =
      run_sweep(table4_system(), options, jobs);

  TablePrinter table({"Algorithm", "Dataset", "Added latency [us]",
                      "Observed latency [us]", "Runtime [ms]",
                      "Normalized vs DRAM"});
  std::size_t i = 0;
  for (const Algorithm algorithm : {Algorithm::kBfs, Algorithm::kSssp}) {
    for (const auto& entry : bundle.entries) {
      const RunReport& dram = reports[i++];
      table.add_row({to_string(algorithm), entry.spec.paper_name, "DRAM",
                     fmt(dram.observed_read_latency_us, 2),
                     fmt(dram.runtime_sec * 1e3, 3), "1.00"});
      for (const double added : added_latencies) {
        const RunReport& r = reports[i++];
        table.add_row({to_string(algorithm), entry.spec.paper_name,
                       fmt(added, 1), fmt(r.observed_read_latency_us, 2),
                       fmt(r.runtime_sec * 1e3, 3),
                       fmt(r.runtime_sec / dram.runtime_sec, 2)});
      }
    }
  }
  return table;
}

TablePrinter sec34_requirements() {
  TablePrinter table({"Case", "W [MB/s]", "N_max", "d [B]",
                      "S required [MIOPS]", "L allowed [us]"});
  for (const auto& c : analysis::paper_requirement_cases()) {
    table.add_row({c.label, fmt(c.bandwidth_mbps, 0),
                   std::to_string(c.n_max), fmt(c.transfer_bytes, 1),
                   fmt(c.required_miops, 2), fmt(c.allowable_latency_us, 2)});
  }
  return table;
}

}  // namespace cxlgraph::core
