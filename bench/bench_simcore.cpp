/// bench_simcore — self-timing perf-regression harness for the
/// discrete-event simulation core.
///
/// Unlike the figure benches (which report *simulated* time), this binary
/// measures the simulator's own wall-clock throughput: it replays canonical
/// BFS / PageRank-scan / delta-stepping / write-back traces and a serving
/// mix through freshly built GPU+interconnect+device stacks, and reports
/// processed events per second of wall time for each. Results land in
/// BENCH_simcore.json so every future PR has a perf trajectory to compare
/// against.
///
/// The event core's bit-identity contract is checked at the same time:
/// every simulated result is folded into an FNV checksum, replays are run
/// twice (run-to-run identity), once more with a fully-enabled telemetry
/// sink attached to every layer (observing must not perturb), and under
/// --smoke the checksums are also compared against goldens pinned from the
/// pre-rewrite std::function core — any drift in simulated behaviour
/// exits 1.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/bfs.hpp"
#include "algo/sssp_delta.hpp"
#include "algo/trace.hpp"
#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_check.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace cxlgraph;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// FNV-1a checksumming of simulated results. Doubles are folded bit-exactly,
// so a checksum match means the simulation behaved identically.
// ---------------------------------------------------------------------------
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t x) {
    h = (h ^ x) * 0x100000001b3ULL;
  }
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

std::uint64_t checksum_cluster(const core::ClusterReport& r) {
  Fnv f;
  f.mix_double(r.runtime_sec);
  f.mix(r.fetched_bytes);
  f.mix(r.used_bytes);
  f.mix(r.transactions);
  f.mix(r.supersteps);
  f.mix(r.exchange_bytes);
  for (const util::SimTime t : r.superstep_compute_ps) f.mix(t);
  for (const util::SimTime t : r.exchange_phase_ps) f.mix(t);
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

/// Fleet rows fold the serve aggregate plus the fleet-only surfaces —
/// shed decomposition, per-replica placement, and migration accounting —
/// so a router or migration change cannot hide behind a matching
/// fleet-wide latency distribution.
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

/// Faulted-fleet rows fold the recovery ledger on top of the fleet
/// checksum — retry/failure/lost-work accounting per query and the
/// crash/restart/replacement/io-retry counters — so a recovery-path
/// change cannot hide behind an unchanged completion profile.
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

/// Soak rows fold the p99-over-time trajectory, not just the end state:
/// a thermal-model change that shifts *when* the stack throttles moves a
/// window percentile even if the aggregate tail happens to match.
std::uint64_t checksum_soak(const serve::ServeReport& r) {
  Fnv f;
  f.mix(r.completed);
  f.mix(r.throttled_quanta);
  f.mix(r.link_bytes);
  f.mix_double(r.stack_peak_heat);
  f.mix_double(r.makespan_sec);
  for (const serve::SoakWindow& w : serve::soak_windows(r, 4)) {
    f.mix(w.completed);
    f.mix_double(w.p50_us);
    f.mix_double(w.p99_us);
  }
  return f.h;
}

// ---------------------------------------------------------------------------
// Replays run through ExternalGraphRuntime::run_trace, the stack every
// figure bench replays on; TraceRunResult carries the event count.
// ---------------------------------------------------------------------------
struct ReplayMetrics {
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
};

/// The engine-level result of one replay: total time (the sum of the step
/// durations), the volumes, sublist reads (frontier_vertices) and every
/// step's duration and fetched bytes.
std::uint64_t checksum_trace_run(const core::TraceRunResult& r) {
  Fnv f;
  util::SimTime total_time = 0;
  for (const util::SimTime t : r.step_durations) total_time += t;
  f.mix(total_time);
  f.mix(r.report.used_bytes);
  f.mix(r.report.fetched_bytes);
  f.mix(r.report.transactions);
  f.mix(r.report.frontier_vertices);
  f.mix(r.report.written_bytes);
  f.mix(r.report.write_transactions);
  f.mix(r.report.rmw_reads);
  for (std::size_t k = 0; k < r.step_durations.size(); ++k) {
    f.mix(r.step_durations[k]);
    f.mix(r.step_fetched_bytes[k]);
  }
  return f.h;
}

ReplayMetrics replay(const core::ExternalGraphRuntime& runtime,
                     core::BackendKind backend,
                     const algo::AccessTrace& trace,
                     std::uint64_t edge_list_bytes) {
  core::RunRequest req;
  req.backend = backend;
  const core::TraceRunResult r =
      runtime.run_trace(trace, req, edge_list_bytes);
  return ReplayMetrics{r.events, checksum_trace_run(r)};
}

/// Raw event-queue churn: a dependent chain interleaved with same-timestamp
/// bursts, the two access patterns the traversal replay is made of.
ReplayMetrics queue_churn(std::uint64_t chain_events,
                          std::uint64_t burst_width) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::function<void()> burst = [&fired]() { ++fired; };
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < chain_events) {
      for (std::uint64_t i = 0; i < burst_width; ++i) {
        sim.schedule_after(1, burst);
        ++fired;  // accounted at schedule so the chain terminates
      }
      fired -= burst_width;
      sim.schedule_after(2, chain);
    }
  };
  sim.schedule_at(0, chain);
  sim.run();
  Fnv f;
  f.mix(fired);
  f.mix(sim.now());
  return ReplayMetrics{sim.events_processed(), f.h};
}

// ---------------------------------------------------------------------------
// Result collection + JSON emission.
// ---------------------------------------------------------------------------
struct BenchRow {
  std::string name;
  std::uint64_t events = 0;   // simulator events (0 where not applicable)
  double wall_sec = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t work_items = 0;  // trace reads / queries / ops, for context
};

void emit_json(const std::vector<BenchRow>& rows, unsigned scale,
               std::uint64_t seed, const std::string& path) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  os << "{\n  \"bench\": \"simcore\",\n  \"scale\": " << scale
     << ",\n  \"seed\": " << seed << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    const double eps =
        r.wall_sec > 0.0 ? static_cast<double>(r.events) / r.wall_sec : 0.0;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events\": %" PRIu64
                  ", \"wall_sec\": %.6f, \"events_per_sec\": %.0f, "
                  "\"work_items\": %" PRIu64 ", \"checksum\": \"%016" PRIx64
                  "\"}%s\n",
                  r.name.c_str(), r.events, r.wall_sec, eps, r.work_items,
                  r.checksum, i + 1 == rows.size() ? "" : ",");
    os << buf;
  }
  os << "  ]\n}\n";
}

// ---------------------------------------------------------------------------
// Golden checksums of the smoke configuration (urand scale 10, seed 42,
// avg degree 16), pinned from the pre-rewrite std::function event core.
// They define the bit-identity contract: the event core may get faster,
// but every simulated report must stay exactly this. Regenerate with
// --print-golden ONLY for an intentional behaviour change.
// ---------------------------------------------------------------------------
struct Golden {
  const char* name;
  std::uint64_t checksum;
};

constexpr unsigned kSmokeScale = 10;
constexpr std::uint64_t kSmokeSeed = 42;

// clang-format off
constexpr Golden kGoldens[] = {
    {"bfs/host-dram",        0xa2792c8c8f14dfa4ULL},
    {"bfs/host-dram-remote", 0xa98095382bb6ef72ULL},
    {"bfs/cxl",              0xc4a94a71a38f9ea3ULL},
    {"bfs/xlfdd",            0x8e5bd2573e59865fULL},
    {"bfs/bam-nvme",         0x48d666b706712423ULL},
    {"bfs/uvm",              0xa6fdc565e60baa2fULL},
    {"bfs/tiered-dram-cxl",  0xcd7c85cafa4e750bULL},
    {"bfs-writeback/xlfdd",  0x0727c11793c29d3aULL},
    {"bfs-writeback/cxl",    0x5daa40f86dd2bdaeULL},
    {"sssp-delta/cxl",       0x2286d2cffbdec8a1ULL},
    {"cluster-bfs-x2/cxl",   0xd814731d761153acULL},
    {"serve-mix/cxl",        0x3a7130d4619d4a3bULL},
    {"serve-soak-throttled/cxl", 0x9f350cf45ef2e614ULL},
    {"fleet-serve/cxl",      0x48d4a0e8f363a983ULL},
    {"fleet-faults/cxl",     0xba91cc53ef29089fULL},
};
// clang-format on

const std::vector<core::BackendKind>& all_backends() {
  static const std::vector<core::BackendKind> kinds = {
      core::BackendKind::kHostDram,      core::BackendKind::kHostDramRemote,
      core::BackendKind::kCxl,           core::BackendKind::kXlfdd,
      core::BackendKind::kBamNvme,       core::BackendKind::kUvm,
      core::BackendKind::kTieredDramCxl,
  };
  return kinds;
}

serve::ServeRequest smoke_serve_request() {
  serve::ServeRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSmokeSeed;
  req.workload.num_queries = 48;
  req.workload.offered_qps = 2000.0;
  req.workload.source_pool = 6;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 3.0;
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.weight = 1.0;
  req.workload.mix = {bfs, scan};
  req.config.policy = serve::SchedulingPolicy::kSloPriority;
  return req;
}

/// The fleet identity configuration: the smoke workload over 4 replicas
/// behind join-shortest-queue with preemptive round-robin scheduling and
/// one live migration mid-run — every fleet-only code path (routing,
/// placement, drain, redirect, state-copy accounting) is on the checksum.
serve::FleetRequest smoke_fleet_request() {
  const serve::ServeRequest base = smoke_serve_request();
  serve::FleetRequest req;
  req.base = base.base;
  req.workload = base.workload;
  req.fleet.replicas = 4;
  req.fleet.router = serve::RouterKind::kJoinShortestQueue;
  req.fleet.serve.policy = serve::SchedulingPolicy::kRoundRobin;
  req.fleet.serve.quantum_supersteps = 2;
  // 48 queries at 2000 qps arrive over ~24 ms; migrate tenant 0 from
  // replica 0 to 1 while the stream is still in flight.
  req.fleet.migrations = {
      serve::MigrationPlan{/*at_sec=*/0.008, /*class_index=*/0,
                           /*from=*/0, /*to=*/1}};
  return req;
}

/// The fleet *observability* configuration: the smoke fleet with every
/// remaining feature lit — SLO deadlines tight enough to shed and
/// violate, the elastic controller making decisions, and the migration
/// compressed into the hot window — so the health monitor has real
/// saturation/underload/SLO signals to fold into incidents. Not on the
/// golden table (the fleet-serve/cxl golden stays pinned to
/// smoke_fleet_request); this request feeds the fourth identity pass.
serve::FleetRequest smoke_fleet_full_request() {
  serve::FleetRequest req = smoke_fleet_request();
  req.workload.offered_qps = 24'000.0;
  req.workload.mix[0].slo = util::ps_from_us(300.0);
  req.workload.mix[1].slo = util::ps_from_us(2'000.0);
  req.fleet.slo_shedding = true;
  req.fleet.migrations = {
      serve::MigrationPlan{/*at_sec=*/0.0005, /*class_index=*/0,
                           /*from=*/0, /*to=*/1}};
  req.fleet.elastic.enabled = true;
  req.fleet.elastic.min_replicas = 2;
  req.fleet.elastic.max_replicas = 6;
  req.fleet.elastic.check_interval_sec = 250e-6;
  return req;
}

/// The fleet *fault* configuration: the smoke fleet under a fixed fault
/// plan with every fault kind drawn — two crash-restarts, two transient
/// I/O error bursts, and one link-degradation window — plus the query
/// retry policy exercised. The plan is a pure function of its seed, so
/// the recovery path (abort, re-route, backoff, lost-work accounting)
/// checksums stably on the golden table.
serve::FleetRequest smoke_fleet_faults_request() {
  serve::FleetRequest req = smoke_fleet_request();
  // Offer enough load that the replicas are continuously busy — a crash
  // then lands on in-flight work, so the retry/lost-work ledger is
  // exercised rather than every crash hitting an idle replica.
  req.workload.offered_qps = 12'000.0;
  fault::FaultSpec& faults = req.fleet.faults;
  faults.seed = 77;
  faults.horizon_sec = 0.005;
  faults.crashes = 3;
  faults.restart_sec = 0.0015;
  faults.io_bursts = 2;
  faults.io_burst_sec = 0.002;
  faults.io_error_rate = 0.5;
  faults.io_retry_us = 40.0;
  faults.link_flaps = 1;
  faults.flap_sec = 0.001;
  faults.flap_derate = 0.5;
  faults.max_query_retries = 2;
  faults.retry_backoff_us = 80.0;
  return req;
}

/// The sustained-load soak with the stack thermal model on: a cold
/// (model-off) FIFO serve calibrates the thermal budget — the heat rate is
/// the cold run's link-byte rate, cooling absorbs half of it, the budget
/// is 5% of the total heat deposited — then the same workload runs hot.
/// Both serves are deterministic, so the hot report checksums stably at
/// any graph scale.
serve::ServeReport run_throttled_soak(const graph::CsrGraph& g,
                                      obs::Telemetry* telemetry = nullptr) {
  serve::ServeRequest req = smoke_serve_request();
  req.config.policy = serve::SchedulingPolicy::kFifo;
  serve::QueryServer cold(core::table3_system(), /*jobs=*/1);
  // Probe serve: mean isolated service time sets the stack's capacity;
  // the soak itself offers 0.8x of it so queueing amplifies the
  // throttled quanta into a rising tail (both serves share the cold
  // server's profile cache).
  const serve::ServeReport probe = cold.serve(g, req);
  if (probe.completed == 0 || probe.service_us.mean <= 0.0) {
    throw std::runtime_error("soak: probe serve completed no queries");
  }
  req.workload.offered_qps = 0.8 * (1.0e6 / probe.service_us.mean);
  const serve::ServeReport c = cold.serve(g, req);
  if (c.completed == 0 || c.makespan_sec <= 0.0) {
    throw std::runtime_error("soak: cold serve completed no queries");
  }
  const double total_heat_mb = static_cast<double>(c.link_bytes) / 1.0e6;
  device::ThermalParams thermal;
  thermal.enabled = true;
  thermal.heat_per_mb = 1.0;
  thermal.cool_per_sec = 0.5 * total_heat_mb / c.makespan_sec;
  thermal.throttle_threshold = std::max(total_heat_mb * 0.05, 1e-6);
  thermal.hysteresis = 0.9;
  thermal.throttle_factor = 0.5;
  core::SystemConfig cfg = core::table3_system();
  cfg.cxl.thermal = thermal;
  cfg.storage_thermal = thermal;
  serve::QueryServer hot(std::move(cfg), /*jobs=*/1);
  hot.set_telemetry(telemetry);
  return hot.serve(g, req);
}

/// Computes the smoke identity suite: one checksum per golden row. When a
/// telemetry sink is supplied every layer is tapped, which is how the
/// observability contract (telemetry ON must be bit-identical to OFF) is
/// enforced in CI: the suite is recomputed with a fully-enabled sink and
/// the checksums must not move.
std::vector<std::uint64_t> compute_identity_checksums(
    const graph::CsrGraph& g, obs::Telemetry* telemetry = nullptr) {
  const core::SystemConfig cfg = core::table3_system();
  core::ExternalGraphRuntime runtime(cfg);
  runtime.set_telemetry(telemetry);
  std::vector<std::uint64_t> sums;

  core::RunRequest req;
  req.algorithm = core::Algorithm::kBfs;
  for (const core::BackendKind backend : all_backends()) {
    req.backend = backend;
    sums.push_back(checksum_report(runtime.run(g, req)));
  }
  req.algorithm = core::Algorithm::kBfsWriteback;
  req.backend = core::BackendKind::kXlfdd;
  sums.push_back(checksum_report(runtime.run(g, req)));
  req.backend = core::BackendKind::kCxl;
  sums.push_back(checksum_report(runtime.run(g, req)));
  req.algorithm = core::Algorithm::kSsspDelta;
  sums.push_back(checksum_report(runtime.run(g, req)));

  core::ClusterRuntime cluster(cfg, /*jobs=*/1);
  cluster.set_telemetry(telemetry);
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfs;
  creq.run.backend = core::BackendKind::kCxl;
  creq.num_shards = 2;
  sums.push_back(checksum_cluster(cluster.run(g, creq)));

  serve::QueryServer server(cfg, /*jobs=*/1);
  server.set_telemetry(telemetry);
  sums.push_back(checksum_serve(server.serve(g, smoke_serve_request())));
  sums.push_back(checksum_soak(run_throttled_soak(g, telemetry)));

  serve::FleetServer fleet(cfg, /*jobs=*/1);
  fleet.set_telemetry(telemetry);
  sums.push_back(checksum_fleet(fleet.serve(g, smoke_fleet_request())));
  sums.push_back(
      checksum_fleet_faulted(fleet.serve(g, smoke_fleet_faults_request())));
  return sums;
}

graph::CsrGraph make_graph(unsigned scale, std::uint64_t seed) {
  graph::GeneratorOptions opts;
  opts.seed = seed;
  opts.max_weight = 64;  // weighted, so delta-stepping has real buckets
  return graph::generate_uniform(1ull << scale, 16.0, opts);
}

int run_simcore(int argc, char** argv) {
  util::CliParser cli;
  cli.add_option("scale", "log2 of dataset vertex count", "14");
  cli.add_option("seed", "random seed", "42");
  cli.add_option("reps", "replay repetitions per microbench", "3");
  cli.add_option("json", "output path", "BENCH_simcore.json");
  cli.add_flag("smoke",
               "small scale + bit-identity self-check vs pinned goldens; "
               "exit 1 on mismatch");
  cli.add_flag("print-golden",
               "print the golden table for the smoke configuration");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  if (!cli.parse(argc, argv)) return 0;

  const bool smoke = cli.get_bool("smoke");
  const bool print_golden = cli.get_bool("print-golden");
  const unsigned scale = smoke || print_golden
                             ? kSmokeScale
                             : cli.get_uint("scale", 0, graph::kMaxScale);
  const std::uint64_t seed =
      smoke || print_golden ? kSmokeSeed
                            : static_cast<std::uint64_t>(cli.get_int("seed"));
  const unsigned reps = cli.get_uint("reps", 1);

  // -------------------------------------------------------------------
  // Identity suite (always at the smoke configuration so goldens apply).
  // -------------------------------------------------------------------
  const graph::CsrGraph smoke_graph = make_graph(kSmokeScale, kSmokeSeed);
  const std::vector<std::uint64_t> sums =
      compute_identity_checksums(smoke_graph);
  const std::size_t n_golden = sizeof(kGoldens) / sizeof(kGoldens[0]);
  if (sums.size() != n_golden) {
    std::cerr << "identity suite size mismatch\n";
    return 1;
  }
  if (print_golden) {
    for (std::size_t i = 0; i < n_golden; ++i) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "    {\"%s\", 0x%016" PRIx64 "ULL},",
                    kGoldens[i].name, sums[i]);
      std::cout << buf << "\n";
    }
    return 0;
  }
  bool identity_ok = true;
  for (std::size_t i = 0; i < n_golden; ++i) {
    if (kGoldens[i].checksum != 0 && sums[i] != kGoldens[i].checksum) {
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "IDENTITY MISMATCH %s: got %016" PRIx64
                    " want %016" PRIx64,
                    kGoldens[i].name, sums[i], kGoldens[i].checksum);
      std::cerr << buf << "\n";
      identity_ok = false;
    }
  }
  // Run-to-run determinism, independent of the pinned goldens.
  if (compute_identity_checksums(smoke_graph) != sums) {
    std::cerr << "IDENTITY MISMATCH: repeated run differs\n";
    identity_ok = false;
  }
  // Observability contract: the suite recomputed with a fully-enabled
  // telemetry sink tapping every layer must checksum identically — the
  // hooks only read state, never schedule. Also require the sink to have
  // captured spans, so a silently-detached hook can't pass vacuously.
  {
    obs::Telemetry telemetry(obs::Telemetry::enabled_config());
    if (compute_identity_checksums(smoke_graph, &telemetry) != sums) {
      std::cerr << "IDENTITY MISMATCH: telemetry-enabled run differs\n";
      identity_ok = false;
    }
    if (telemetry.tracer().empty() || telemetry.metrics().size() == 0) {
      std::cerr << "IDENTITY SUITE: telemetry-enabled run captured nothing\n";
      identity_ok = false;
    }
  }
  // Fleet observability contract: the full fleet feature set (four
  // replicas + migration + elastic scaling + SLO shedding) tapped by a
  // fully-enabled sink must reproduce the untapped run record-for-record,
  // the health monitor's incident log must be byte-identical and
  // non-empty, and the sink must have captured closed query flows — a
  // passive monitor that silently stopped observing fails here.
  {
    const serve::FleetRequest full = smoke_fleet_full_request();
    serve::FleetServer off(core::table3_system(), /*jobs=*/1);
    const serve::FleetReport a = off.serve(smoke_graph, full);
    obs::Telemetry telemetry(obs::Telemetry::enabled_config());
    serve::FleetServer on(core::table3_system(), /*jobs=*/1);
    on.set_telemetry(&telemetry);
    const serve::FleetReport b = on.serve(smoke_graph, full);
    if (checksum_fleet(a) != checksum_fleet(b)) {
      std::cerr << "IDENTITY MISMATCH: tapped full-fleet run differs\n";
      identity_ok = false;
    }
    std::ostringstream log_a, log_b;
    serve::write_incident_log(log_a, a);
    serve::write_incident_log(log_b, b);
    if (log_a.str() != log_b.str()) {
      std::cerr << "IDENTITY MISMATCH: incident logs differ with sink on\n";
      identity_ok = false;
    }
    if (a.incidents.empty()) {
      std::cerr << "IDENTITY SUITE: full-fleet run raised no incidents\n";
      identity_ok = false;
    }
    std::ostringstream trace_os;
    telemetry.write_trace_json(trace_os);
    const obs::TraceCheckResult check =
        obs::check_trace(obs::parse_json(trace_os.str()));
    if (!check.ok || check.flows == 0 || check.flow_events <= check.flows) {
      std::cerr << "IDENTITY SUITE: fleet trace missing query flows"
                << (check.ok ? "" : (": " + check.error)) << "\n";
      identity_ok = false;
    }
  }

  // -------------------------------------------------------------------
  // Throughput microbenches.
  // -------------------------------------------------------------------
  const core::SystemConfig cfg = core::table3_system();
  const graph::CsrGraph g =
      scale == kSmokeScale && seed == kSmokeSeed ? smoke_graph
                                                 : make_graph(scale, seed);
  const graph::VertexId source = algo::pick_source(g, 1);

  auto build_start = Clock::now();
  const algo::AccessTrace bfs_trace =
      algo::build_trace(g, algo::bfs(g, source).frontiers);
  const double bfs_build_sec = seconds_since(build_start);
  const algo::AccessTrace scan_trace = algo::build_sequential_trace(g, 1);
  const algo::AccessTrace delta_trace =
      algo::build_trace(g, algo::sssp_delta_stepping(g, source).phases);
  const algo::AccessTrace writeback_trace =
      algo::build_writeback_trace(g, algo::bfs(g, source).frontiers);

  std::vector<BenchRow> rows;
  const auto run_replay =
      [&rows, reps](const std::string& name, std::uint64_t work_items,
                    const std::function<ReplayMetrics()>& once) {
        BenchRow row;
        row.name = name;
        row.work_items = work_items;
        const auto start = Clock::now();
        for (unsigned r = 0; r < reps; ++r) {
          const ReplayMetrics m = once();
          if (r == 0) {
            row.events = m.events;
            row.checksum = m.checksum;
          } else if (m.checksum != row.checksum) {
            std::cerr << "IDENTITY MISMATCH: " << name
                      << " differs across repetitions\n";
            std::exit(1);
          }
        }
        row.wall_sec = seconds_since(start) / reps;
        row.events *= 1;  // events per single replay
        rows.push_back(row);
      };

  const core::ExternalGraphRuntime runtime(cfg);
  const std::uint64_t elb = g.edge_list_bytes();
  using core::BackendKind;
  run_replay("bfs_replay_dram", bfs_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kHostDram, bfs_trace, elb);
  });
  run_replay("bfs_replay_cxl", bfs_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kCxl, bfs_trace, elb);
  });
  run_replay("pagerank_replay_dram", scan_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kHostDram, scan_trace, elb);
  });
  run_replay("delta_replay_cxl", delta_trace.total_reads, [&] {
    return replay(runtime, BackendKind::kCxl, delta_trace, elb);
  });
  run_replay("writeback_replay_xlfdd",
             writeback_trace.total_reads + writeback_trace.total_writes, [&] {
               return replay(runtime, BackendKind::kXlfdd, writeback_trace,
                             elb);
             });
  run_replay("queue_churn", 400'000,
             [&] { return queue_churn(200'000, 1); });

  {
    BenchRow row;
    row.name = "trace_build_bfs";
    row.work_items = bfs_trace.total_reads;
    row.events = bfs_trace.total_reads;
    Fnv f;
    f.mix(bfs_trace.total_reads);
    f.mix(bfs_trace.total_sublist_bytes);
    row.checksum = f.h;
    const auto start = Clock::now();
    for (unsigned r = 0; r < reps; ++r) {
      const algo::AccessTrace t =
          algo::build_trace(g, algo::bfs(g, source).frontiers);
      if (t.total_reads != bfs_trace.total_reads) std::exit(1);
    }
    row.wall_sec = seconds_since(start) / reps;
    (void)bfs_build_sec;
    rows.push_back(row);
  }

  {
    core::ClusterRuntime cluster(cfg, /*jobs=*/1);
    core::ClusterRequest creq;
    creq.run.algorithm = core::Algorithm::kBfs;
    creq.run.backend = core::BackendKind::kCxl;
    creq.num_shards = 4;
    creq.strategy = partition::Strategy::kDegreeBalanced;
    BenchRow row;
    row.name = "cluster_bfs_x4_cxl";
    const auto start = Clock::now();
    const core::ClusterReport cr = cluster.run(g, creq);
    row.wall_sec = seconds_since(start);
    row.checksum = checksum_cluster(cr);
    row.work_items = cr.supersteps;
    rows.push_back(row);
  }

  {
    serve::QueryServer server(cfg, /*jobs=*/1);
    serve::ServeRequest req = smoke_serve_request();
    BenchRow row;
    row.name = "serve_mix_cxl";
    const auto start = Clock::now();
    const serve::ServeReport sr = server.serve(g, req);
    row.wall_sec = seconds_since(start);
    row.checksum = checksum_serve(sr);
    row.work_items = sr.completed;
    rows.push_back(row);
  }

  {
    serve::FleetServer fleet(cfg, /*jobs=*/1);
    BenchRow row;
    row.name = "fleet_serve_cxl";
    const auto start = Clock::now();
    const serve::FleetReport fr = fleet.serve(g, smoke_fleet_request());
    row.wall_sec = seconds_since(start);
    row.checksum = checksum_fleet(fr);
    row.work_items = fr.serve.completed;
    if (!fr.serve.conservation_ok()) {
      std::cerr << "IDENTITY MISMATCH fleet_serve_cxl: byte conservation "
                   "violated\n";
      identity_ok = false;
    }
    rows.push_back(row);
  }

  {
    serve::FleetServer fleet(cfg, /*jobs=*/1);
    BenchRow row;
    row.name = "fleet_faults_cxl";
    const auto start = Clock::now();
    const serve::FleetReport fr = fleet.serve(g, smoke_fleet_faults_request());
    row.wall_sec = seconds_since(start);
    row.checksum = checksum_fleet_faulted(fr);
    row.work_items = fr.serve.completed;
    if (!fr.serve.conservation_ok()) {
      std::cerr << "IDENTITY MISMATCH fleet_faults_cxl: extended byte "
                   "conservation violated\n";
      identity_ok = false;
    }
    if (fr.crashes == 0 || fr.serve.query_retries == 0) {
      std::cerr << "IDENTITY MISMATCH fleet_faults_cxl: fault plan drew no "
                   "crashes / recovery retried nothing\n";
      identity_ok = false;
    }
    rows.push_back(row);
  }

  {
    // p99-over-time under thermal throttling (cold calibration + hot run).
    BenchRow row;
    row.name = "serve_soak_throttled_cxl";
    const auto start = Clock::now();
    const serve::ServeReport sr = run_throttled_soak(g);
    row.wall_sec = seconds_since(start);
    row.checksum = checksum_soak(sr);
    row.work_items = sr.throttled_quanta;
    const std::vector<serve::SoakWindow> windows = serve::soak_windows(sr, 4);
    if (sr.throttled_quanta == 0 ||
        !(windows.back().p99_us > windows.front().p99_us)) {
      std::cerr << "IDENTITY MISMATCH serve_soak_throttled_cxl: sustained "
                   "p99 not above cold-start p99\n";
      identity_ok = false;
    }
    rows.push_back(row);
  }

  // -------------------------------------------------------------------
  // Emit.
  // -------------------------------------------------------------------
  util::TablePrinter table(
      {"bench", "events", "wall_ms", "events/sec", "checksum"});
  for (const BenchRow& r : rows) {
    char sum[32];
    std::snprintf(sum, sizeof(sum), "%016" PRIx64, r.checksum);
    const double eps =
        r.wall_sec > 0.0 ? static_cast<double>(r.events) / r.wall_sec : 0.0;
    table.add_row({r.name, std::to_string(r.events),
                   std::to_string(r.wall_sec * 1e3), std::to_string(eps),
                   sum});
  }
  if (cli.get_bool("csv")) {
    table.print_csv(std::cout);
  } else {
    std::cout << "=== simulation-core throughput (wall clock) ===\n";
    table.print(std::cout);
    std::cout << (identity_ok ? "identity: OK\n" : "identity: FAILED\n");
  }
  emit_json(rows, scale, seed, cli.get("json"));
  return identity_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_simcore(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_simcore: " << e.what() << "\n";
    return 1;
  }
}
