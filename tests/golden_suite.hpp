#pragma once
/// \file golden_suite.hpp
/// The one definition of "same behaviour" for simulated results: an FNV-1a
/// fold of every report type over every member, the smoke configuration,
/// and the golden table of its 18 cases. simcore_identity_test checks the
/// table in tier 1 (so also in the sanitizer lanes); bench_simcore --smoke
/// checks the same table and folds its rows with the same functions. No
/// gtest here, so a bench can include it.
///
/// Each fold unpacks its struct with one structured binding and mixes
/// exactly the names it bound, so a member added to a report without being
/// folded fails to compile here. Doubles fold bit-exactly: a matching
/// checksum means the simulation behaved identically, not merely closely.
///
/// Re-pin the table (bench_simcore --print-golden) only for an intentional
/// behaviour change or a widened fold, and say which in the change.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "core/system_config.hpp"
#include "gpusim/cpu_probe.hpp"
#include "gpusim/pointer_chase.hpp"
#include "graph/generate.hpp"
#include "obs/telemetry.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"

namespace cxlgraph::golden {

/// FNV-1a over 64-bit words. Integers, enums and bools fold as one word,
/// doubles as their bit pattern, strings and vectors as their length then
/// their elements, and any other type through its fold() below.
class Fnv {
 public:
  template <typename... Ts>
  Fnv& mix(const Ts&... values) {
    (mix_one(values), ...);
    return *this;
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void word(std::uint64_t x) noexcept { h_ = (h_ ^ x) * 0x100000001b3ULL; }
  void mix_one(double d) { word(std::bit_cast<std::uint64_t>(d)); }
  void mix_one(const std::string& s) {
    word(s.size());
    for (const char c : s) word(static_cast<unsigned char>(c));
  }
  template <typename T>
  void mix_one(const std::vector<T>& items) {
    word(items.size());
    for (const T& item : items) mix_one(item);
  }
  template <typename T>
  void mix_one(const T& x) {
    if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
      word(static_cast<std::uint64_t>(x));
    } else {
      fold(*this, x);
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename T>
std::uint64_t checksum(const T& report) {
  return Fnv().mix(report).value();
}

// One fold per report type. The macro binds the listed names to the
// struct's members and mixes exactly those names, so the list must name
// every member, in declaration order, for the binding to compile.
#define CXLGRAPH_GOLDEN_FOLD(Type, ...)        \
  inline void fold(Fnv& f, const Type& r) {    \
    const auto& [__VA_ARGS__] = r;             \
    f.mix(__VA_ARGS__);                        \
  }

CXLGRAPH_GOLDEN_FOLD(core::RunReport, algorithm, backend, access_method,
                     source, runtime_sec, throughput_mbps, raf,
                     avg_transfer_bytes, used_bytes, fetched_bytes,
                     transactions, steps, observed_read_latency_us,
                     avg_outstanding_reads, link_return_busy_sec,
                     link_upstream_busy_sec, written_bytes,
                     write_transactions, rmw_reads, frontier_vertices,
                     graph_edges)
CXLGRAPH_GOLDEN_FOLD(core::TraceRunResult, report, step_durations,
                     step_fetched_bytes, events)
CXLGRAPH_GOLDEN_FOLD(partition::CutStats, total_edges, cut_edges,
                     cut_fraction, num_shards, pair_cut_edges,
                     min_shard_edges, max_shard_edges, edge_imbalance,
                     vertex_replication)
CXLGRAPH_GOLDEN_FOLD(core::ClusterReport, algorithm, backend, access_method,
                     partitioner, num_shards, source, runtime_sec,
                     compute_sec, exchange_sec, exchange_bytes,
                     exchange_messages, supersteps, pair_exchange_bytes,
                     exchange_ingress_skew, superstep_compute_ps,
                     exchange_phase_ps, superstep_fetched_bytes,
                     superstep_bottom_up, superstep_bucket, bucket_epochs,
                     fetched_bytes, used_bytes, transactions,
                     max_shard_compute_sec, shard_compute_imbalance, cut,
                     shard_reports)
CXLGRAPH_GOLDEN_FOLD(util::PercentileSummary, count, mean, min, max, p50,
                     p95, p99)
CXLGRAPH_GOLDEN_FOLD(obs::Incident, id, kind, severity, subject, opened_ps,
                     closed_ps, open, threshold, peak, last, observations)
CXLGRAPH_GOLDEN_FOLD(serve::QueryProfile, class_index, source, shards,
                     report, cluster_runtime_sec, exchange_bytes, step_ps,
                     step_bytes, service_ps, service_bytes)
CXLGRAPH_GOLDEN_FOLD(serve::QueryRecord, id, class_index, profile_index,
                     arrival, first_service, completion, service_ps,
                     queue_ps, service_bytes, slo, replica, shed,
                     slo_violated, retries, lost_ps, lost_bytes, failed)
CXLGRAPH_GOLDEN_FOLD(serve::ServeReport, backend, access_method, policy,
                     process, offered, admitted, completed, shed, failed,
                     makespan_sec, completed_qps, goodput_qps,
                     slo_violation_rate, latency_us, queue_us, service_us,
                     streaming_p50_us, streaming_p95_us, streaming_p99_us,
                     p2_max_rel_error, time_in_queue_sec,
                     time_in_service_sec, utilization, link_bytes,
                     query_bytes, query_retries, lost_bytes, lost_work_sec,
                     throttled_quanta, stack_peak_heat, queries, profiles)
CXLGRAPH_GOLDEN_FOLD(serve::ReplicaStats, replica, served, quanta, busy_sec,
                     link_bytes, throttled_quanta, peak_heat, joined_sec,
                     retired, retired_sec, utilization, crashes, down_sec)
CXLGRAPH_GOLDEN_FOLD(serve::MigrationRecord, class_index, from, to,
                     start_sec, copy_sec, state_bytes, moved_waiting,
                     moved_active)
CXLGRAPH_GOLDEN_FOLD(serve::ScalingEvent, at_sec, added, replica,
                     routable_after, depth_per_replica, completions_before,
                     completions_after, p99_before_us, p99_after_us,
                     incident)
CXLGRAPH_GOLDEN_FOLD(serve::FleetReport, serve, router, replicas,
                     peak_replicas, replica_stats, shed_queue, shed_quota,
                     shed_deadline, migrations, migration_bytes,
                     migration_sec, scaling_events, incidents, crashes,
                     restarts, replacements, io_error_retries,
                     link_degrade_windows, availability)
CXLGRAPH_GOLDEN_FOLD(gpusim::PointerChaseResult, mean_us, hop_us)
CXLGRAPH_GOLDEN_FOLD(gpusim::CpuProbeResult, throughput_mbps,
                     observed_latency_us, littles_law_outstanding,
                     completed_reads)

#undef CXLGRAPH_GOLDEN_FOLD

// ---------------------------------------------------------------------------
// The smoke configuration: urand scale 10, seed 42, average degree 16.
// ---------------------------------------------------------------------------
inline constexpr unsigned kSmokeScale = 10;
inline constexpr std::uint64_t kSmokeSeed = 42;

inline graph::CsrGraph make_graph(unsigned scale, std::uint64_t seed) {
  graph::GeneratorOptions opts;
  opts.seed = seed;
  opts.max_weight = 64;  // weighted, so delta-stepping has real buckets
  return graph::generate_uniform(1ull << scale, 16.0, opts);
}

inline graph::CsrGraph smoke_graph() {
  return make_graph(kSmokeScale, kSmokeSeed);
}

inline serve::ServeRequest smoke_serve_request() {
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
inline serve::FleetRequest smoke_fleet_request() {
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

/// The fleet *fault* configuration: the smoke fleet under a fixed fault
/// plan with every fault kind drawn — crash-restarts, two transient I/O
/// error bursts, and one link-degradation window — plus the query retry
/// policy exercised. The plan is a pure function of its seed, so the
/// recovery path (abort, re-route, backoff, lost-work accounting)
/// checksums stably on the golden table.
inline serve::FleetRequest smoke_fleet_faults_request() {
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

/// The fleet *elastic* configuration: the smoke fleet driven by six
/// closed-loop clients (20 µs think time) on two replicas, with the
/// elastic controller checking every 200 µs between one and four
/// replicas, and two permanent crashes, each replaced after 300 µs of
/// provisioning; an aborted query gets one retry. It draws a grow, both
/// replacements, a scale-down and two retries, so closed-loop arrivals,
/// elastic ticks and crash replacement are on the checksum.
inline serve::FleetRequest smoke_fleet_elastic_request() {
  serve::FleetRequest req = smoke_fleet_request();
  req.workload.process = serve::ArrivalProcess::kClosedLoop;
  req.workload.num_clients = 6;
  req.workload.mean_think_time = util::ps_from_us(20.0);
  req.fleet.replicas = 2;
  req.fleet.migrations.clear();
  serve::ElasticConfig& elastic = req.fleet.elastic;
  elastic.enabled = true;
  elastic.min_replicas = 1;
  elastic.max_replicas = 4;
  elastic.check_interval_sec = 200e-6;
  // Six clients queue at most four waiting queries on two replicas, so
  // the default depth of 8 would never scale up.
  elastic.scale_up_depth = 2.0;
  fault::FaultSpec& faults = req.fleet.faults;
  faults.horizon_sec = 0.001;
  faults.crashes = 2;
  faults.restart_sec = 0.0;
  faults.provision_sec = 300e-6;
  faults.max_query_retries = 1;
  return req;
}

/// The sustained-load soak with the stack thermal model on: a cold
/// (model-off) FIFO serve calibrates the thermal budget — the heat rate is
/// the cold run's link-byte rate, cooling absorbs half of it, the budget
/// is 5% of the total heat deposited — then the same request runs hot
/// (ServeConfig::thermal) on the same server, reusing its profiles. Both
/// serves are deterministic, so the hot report checksums stably at any
/// graph scale. Only the hot serve is traced.
inline serve::ServeReport run_throttled_soak(
    const graph::CsrGraph& g, obs::Telemetry* telemetry = nullptr) {
  serve::ServeRequest req = smoke_serve_request();
  req.config.policy = serve::SchedulingPolicy::kFifo;
  serve::QueryServer server(core::table3_system(), /*jobs=*/1);
  // Probe serve: mean isolated service time sets the stack's capacity;
  // the soak itself offers 0.8x of it so queueing amplifies the
  // throttled quanta into a rising tail.
  const serve::ServeReport probe = server.serve(g, req);
  if (probe.completed == 0 || probe.service_us.mean <= 0.0) {
    throw std::runtime_error("soak: probe serve completed no queries");
  }
  req.workload.offered_qps = 0.8 * (1.0e6 / probe.service_us.mean);
  const serve::ServeReport c = server.serve(g, req);
  if (c.completed == 0 || c.makespan_sec <= 0.0) {
    throw std::runtime_error("soak: cold serve completed no queries");
  }
  const double total_heat_mb = static_cast<double>(c.link_bytes) / 1.0e6;
  device::ThermalParams& thermal = req.config.thermal;
  thermal.enabled = true;
  thermal.heat_per_mb = 1.0;
  thermal.cool_per_sec = 0.5 * total_heat_mb / c.makespan_sec;
  thermal.throttle_threshold = std::max(total_heat_mb * 0.05, 1e-6);
  thermal.hysteresis = 0.9;
  thermal.throttle_factor = 0.5;
  server.set_telemetry(telemetry);
  return server.serve(g, req);
}

/// Fig. 9's pointer chase through the local CXL device at +2 us.
inline gpusim::PointerChaseResult run_probe_chase() {
  const core::SystemConfig cfg = core::table4_system();
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(cfg.gpu_link_gen));
  device::CxlDeviceParams cp = cfg.cxl;
  cp.added_latency = util::ps_from_us(2.0);
  cp.socket_hop = 0;
  device::CxlMemoryPool pool(sim, cp, 1, cfg.cxl_interleave_bytes);
  return gpusim::pointer_chase(sim, link, pool);
}

/// Fig. 10's CPU random-read probe of the CXL device at +2 us.
inline gpusim::CpuProbeResult run_probe_cpu() {
  device::CxlDeviceParams cp = core::table4_system().cxl;
  cp.added_latency = util::ps_from_us(2.0);
  return gpusim::cpu_random_read_probe(cp);
}

// ---------------------------------------------------------------------------
// The golden table: one checksum per case, in compute_checksums() order.
// ---------------------------------------------------------------------------
struct GoldenCase {
  const char* name;
  std::uint64_t checksum;
};

// clang-format off
inline constexpr GoldenCase kGoldens[] = {
    {"bfs/host-dram",            0x4491987e2316d1c5ULL},
    {"bfs/host-dram-remote",     0xb4fd889697eff1a9ULL},
    {"bfs/cxl",                  0xb182ba75d0dda544ULL},
    {"bfs/xlfdd",                0x57fd9abadb413a1dULL},
    {"bfs/bam-nvme",             0x1ddb1817524a6e59ULL},
    {"bfs/uvm",                  0x1d22f10e6877bf94ULL},
    {"bfs/tiered-dram-cxl",      0x27730e3d67a3f078ULL},
    {"bfs-writeback/xlfdd",      0x27b2932afeecd769ULL},
    {"bfs-writeback/cxl",        0x9d187b371abdf1daULL},
    {"sssp-delta/cxl",           0x4a6cc96f658d3131ULL},
    {"cluster-bfs-x2/cxl",       0x27d210fc67124d92ULL},
    {"serve-mix/cxl",            0xb2f0e904e3d33885ULL},
    {"serve-soak-throttled/cxl", 0xe1a4e5a223bbfd4aULL},
    {"fleet-serve/cxl",          0x5fcbe05e20a74005ULL},
    {"fleet-faults/cxl",         0xaead1cf8c903257aULL},
    {"fleet-elastic/cxl",        0x96f45f6082531a90ULL},
    {"probe-chase/cxl",          0x9c956c65fc373004ULL},
    {"probe-cpu/cxl",            0x5d108de029133492ULL},
};
// clang-format on

/// Computes every case of the table, in table order: the smoke cases on
/// `g`, then the two latency probes, which build their own stacks. With
/// a telemetry sink every layer of the smoke cases is tapped; observing
/// must not move a checksum.
inline std::vector<std::uint64_t> compute_checksums(
    const graph::CsrGraph& g, obs::Telemetry* telemetry = nullptr) {
  const core::SystemConfig cfg = core::table3_system();
  core::ExternalGraphRuntime runtime(cfg);
  runtime.set_telemetry(telemetry);
  std::vector<std::uint64_t> sums;

  core::RunRequest req;
  req.algorithm = core::Algorithm::kBfs;
  for (const core::BackendKind backend :
       {core::BackendKind::kHostDram, core::BackendKind::kHostDramRemote,
        core::BackendKind::kCxl, core::BackendKind::kXlfdd,
        core::BackendKind::kBamNvme, core::BackendKind::kUvm,
        core::BackendKind::kTieredDramCxl}) {
    req.backend = backend;
    sums.push_back(checksum(runtime.run(g, req)));
  }
  req.algorithm = core::Algorithm::kBfsWriteback;
  req.backend = core::BackendKind::kXlfdd;
  sums.push_back(checksum(runtime.run(g, req)));
  req.backend = core::BackendKind::kCxl;
  sums.push_back(checksum(runtime.run(g, req)));
  req.algorithm = core::Algorithm::kSsspDelta;
  sums.push_back(checksum(runtime.run(g, req)));

  core::ClusterRuntime cluster(cfg, /*jobs=*/1);
  cluster.set_telemetry(telemetry);
  core::ClusterRequest creq;
  creq.run.algorithm = core::Algorithm::kBfs;
  creq.run.backend = core::BackendKind::kCxl;
  creq.num_shards = 2;
  sums.push_back(checksum(cluster.run(g, creq)));

  serve::QueryServer server(cfg, /*jobs=*/1);
  server.set_telemetry(telemetry);
  sums.push_back(checksum(server.serve(g, smoke_serve_request())));
  sums.push_back(checksum(run_throttled_soak(g, telemetry)));

  serve::QueryServer fleet(cfg, /*jobs=*/1);
  fleet.set_telemetry(telemetry);
  sums.push_back(checksum(fleet.serve(g, smoke_fleet_request())));
  sums.push_back(checksum(fleet.serve(g, smoke_fleet_faults_request())));
  sums.push_back(checksum(fleet.serve(g, smoke_fleet_elastic_request())));

  sums.push_back(checksum(run_probe_chase()));
  sums.push_back(checksum(run_probe_cpu()));
  if (sums.size() != std::size(kGoldens)) {
    throw std::logic_error("golden suite and table differ in length");
  }
  return sums;
}

}  // namespace cxlgraph::golden
