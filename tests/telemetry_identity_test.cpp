/// The observability contract's load-bearing half: enabling telemetry
/// must not change a single simulated result. Every hook only reads
/// state and appends to obs-owned buffers — no extra simulator events,
/// no perturbed (time, seq) order — so a run with a fully-enabled
/// Telemetry sink attached is record-identical to the untapped run.
/// Each case also asserts the sink actually captured something, so a
/// regression that silently detaches the hooks fails here instead of
/// passing vacuously.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/cluster_runtime.hpp"
#include "core/runtime.hpp"
#include "graph/generate.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_check.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"

namespace cxlgraph {
namespace {

constexpr std::uint64_t kSeed = 17;

graph::CsrGraph test_graph() {
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 10, 8.0, opts);
}

void expect_reports_identical(const core::RunReport& a,
                              const core::RunReport& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.backend, b.backend);
  EXPECT_EQ(a.access_method, b.access_method);
  EXPECT_EQ(a.source, b.source);
  EXPECT_EQ(a.runtime_sec, b.runtime_sec);
  EXPECT_EQ(a.throughput_mbps, b.throughput_mbps);
  EXPECT_EQ(a.raf, b.raf);
  EXPECT_EQ(a.avg_transfer_bytes, b.avg_transfer_bytes);
  EXPECT_EQ(a.used_bytes, b.used_bytes);
  EXPECT_EQ(a.fetched_bytes, b.fetched_bytes);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.observed_read_latency_us, b.observed_read_latency_us);
  EXPECT_EQ(a.avg_outstanding_reads, b.avg_outstanding_reads);
  EXPECT_EQ(a.link_return_busy_sec, b.link_return_busy_sec);
  EXPECT_EQ(a.link_upstream_busy_sec, b.link_upstream_busy_sec);
  EXPECT_EQ(a.written_bytes, b.written_bytes);
  EXPECT_EQ(a.frontier_vertices, b.frontier_vertices);
  EXPECT_EQ(a.graph_edges, b.graph_edges);
}

TEST(TelemetryIdentity, RuntimeRunIsBitIdenticalWithTelemetryOn) {
  const graph::CsrGraph g = test_graph();

  for (const core::BackendKind backend :
       {core::BackendKind::kCxl, core::BackendKind::kBamNvme}) {
    core::RunRequest req;
    req.algorithm = core::Algorithm::kBfs;
    req.backend = backend;
    req.source_seed = kSeed;

    core::ExternalGraphRuntime off(core::table3_system());
    const core::RunReport baseline = off.run(g, req);

    obs::Telemetry telemetry(obs::Telemetry::enabled_config());
    core::ExternalGraphRuntime on(core::table3_system());
    on.set_telemetry(&telemetry);
    const core::RunReport tapped = on.run(g, req);

    expect_reports_identical(baseline, tapped);
    // The tap really fired: superstep spans, event counters, channels.
    EXPECT_FALSE(telemetry.tracer().empty());
    EXPECT_GT(telemetry.metrics().size(), 0u);
    EXPECT_FALSE(telemetry.sampler().empty());
  }
}

TEST(TelemetryIdentity, ClusterRunIsBitIdenticalWithTelemetryOn) {
  const graph::CsrGraph g = test_graph();
  core::ClusterRequest req;
  req.run.algorithm = core::Algorithm::kBfs;
  req.run.backend = core::BackendKind::kCxl;
  req.run.source_seed = kSeed;
  req.num_shards = 4;
  req.strategy = partition::Strategy::kDegreeBalanced;

  core::ClusterRuntime off(core::table3_system());
  const core::ClusterReport baseline = off.run(g, req);

  obs::Telemetry telemetry(obs::Telemetry::enabled_config());
  core::ClusterRuntime on(core::table3_system());
  on.set_telemetry(&telemetry);
  const core::ClusterReport tapped = on.run(g, req);

  EXPECT_EQ(baseline.runtime_sec, tapped.runtime_sec);
  EXPECT_EQ(baseline.compute_sec, tapped.compute_sec);
  EXPECT_EQ(baseline.exchange_sec, tapped.exchange_sec);
  EXPECT_EQ(baseline.exchange_bytes, tapped.exchange_bytes);
  EXPECT_EQ(baseline.exchange_messages, tapped.exchange_messages);
  EXPECT_EQ(baseline.supersteps, tapped.supersteps);
  EXPECT_EQ(baseline.fetched_bytes, tapped.fetched_bytes);
  EXPECT_EQ(baseline.superstep_compute_ps, tapped.superstep_compute_ps);
  EXPECT_EQ(baseline.exchange_phase_ps, tapped.exchange_phase_ps);
  EXPECT_EQ(baseline.superstep_fetched_bytes,
            tapped.superstep_fetched_bytes);
  EXPECT_FALSE(telemetry.tracer().empty());
}

TEST(TelemetryIdentity, ServeRunIsRecordIdenticalWithTelemetryOn) {
  const graph::CsrGraph g = test_graph();
  serve::ServeRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSeed;
  req.workload.offered_qps = 2000.0;
  req.workload.num_queries = 32;
  req.workload.source_pool = 4;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.slo = util::ps_from_us(5'000.0);
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.slo = util::ps_from_us(20'000.0);
  req.workload.mix = {bfs, scan};
  req.config.policy = serve::SchedulingPolicy::kRoundRobin;
  req.config.max_waiting = 8;  // exercise the shed path too

  serve::QueryServer off(core::table3_system());
  const serve::ServeReport baseline = off.serve(g, req);

  obs::Telemetry telemetry(obs::Telemetry::enabled_config());
  serve::QueryServer on(core::table3_system());
  on.set_telemetry(&telemetry);
  const serve::ServeReport tapped = on.serve(g, req);

  ASSERT_EQ(baseline.queries.size(), tapped.queries.size());
  for (std::size_t i = 0; i < baseline.queries.size(); ++i) {
    const serve::QueryRecord& x = baseline.queries[i];
    const serve::QueryRecord& y = tapped.queries[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.first_service, y.first_service);
    EXPECT_EQ(x.completion, y.completion);
    EXPECT_EQ(x.service_ps, y.service_ps);
    EXPECT_EQ(x.queue_ps, y.queue_ps);
    EXPECT_EQ(x.service_bytes, y.service_bytes);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.slo_violated, y.slo_violated);
  }
  EXPECT_EQ(baseline.link_bytes, tapped.link_bytes);
  EXPECT_EQ(baseline.query_bytes, tapped.query_bytes);
  EXPECT_EQ(baseline.makespan_sec, tapped.makespan_sec);
  EXPECT_EQ(baseline.latency_us.p99, tapped.latency_us.p99);
  EXPECT_EQ(baseline.streaming_p99_us, tapped.streaming_p99_us);
  EXPECT_EQ(baseline.p2_max_rel_error, tapped.p2_max_rel_error);

  // Lifecycle instants (admit/shed/complete) and quanta spans landed.
  EXPECT_FALSE(telemetry.tracer().empty());
  EXPECT_GT(telemetry.metrics().size(), 0u);

  // One frontend: the same request as a one-replica FleetRequest, on its
  // own sink, exports the same trace and metrics bytes as the
  // ServeRequest path above. The solo stack is replica 0 like any other.
  serve::FleetRequest fleet_req;
  fleet_req.base = req.base;
  fleet_req.workload = req.workload;
  fleet_req.fleet.serve = req.config;
  obs::Telemetry fleet_telemetry(obs::Telemetry::enabled_config());
  serve::FleetServer fleet(core::table3_system());
  fleet.set_telemetry(&fleet_telemetry);
  fleet.serve(g, fleet_req);

  std::ostringstream solo_trace, fleet_trace, solo_metrics, fleet_metrics;
  telemetry.write_trace_json(solo_trace);
  fleet_telemetry.write_trace_json(fleet_trace);
  telemetry.write_metrics_json(solo_metrics);
  fleet_telemetry.write_metrics_json(fleet_metrics);
  EXPECT_EQ(solo_trace.str(), fleet_trace.str());
  EXPECT_EQ(solo_metrics.str(), fleet_metrics.str());
  EXPECT_NE(solo_trace.str().find("\"replica0\""), std::string::npos);

  // Every admitted query's flow closes ('s' at admit, 'f' at completion).
  const obs::TraceCheckResult check =
      obs::check_trace(obs::parse_json(solo_trace.str()));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.flows, 0u);
  EXPECT_GT(check.flow_events, check.flows);
}

TEST(TelemetryIdentity, FleetRunIsRecordIdenticalWithTelemetryOn) {
  // The full fleet feature set at once — four replicas behind the JSQ
  // router, a planned live migration, the elastic controller, and
  // SLO-aware shedding — with a fully-enabled sink. Records, scaling
  // decisions, and the health monitor's incident log must all be
  // identical to the untapped run.
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSeed;
  req.workload.offered_qps = 24'000.0;
  req.workload.num_queries = 64;
  req.workload.source_pool = 4;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 2.0;
  bfs.slo = util::ps_from_us(300.0);
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.weight = 1.0;
  scan.slo = util::ps_from_us(2'000.0);
  req.workload.mix = {bfs, scan};
  req.fleet.replicas = 4;
  req.fleet.router = serve::RouterKind::kJoinShortestQueue;
  req.fleet.slo_shedding = true;
  req.fleet.migrations = {serve::MigrationPlan{/*at_sec=*/0.0005,
                                               /*class_index=*/0,
                                               /*from=*/0, /*to=*/1}};
  req.fleet.elastic.enabled = true;
  req.fleet.elastic.min_replicas = 2;
  req.fleet.elastic.max_replicas = 6;
  req.fleet.elastic.check_interval_sec = 250e-6;

  serve::FleetServer off(core::table3_system());
  const serve::FleetReport baseline = off.serve(g, req);

  obs::Telemetry telemetry(obs::Telemetry::enabled_config());
  serve::FleetServer on(core::table3_system());
  on.set_telemetry(&telemetry);
  const serve::FleetReport tapped = on.serve(g, req);

  ASSERT_EQ(baseline.serve.queries.size(), tapped.serve.queries.size());
  for (std::size_t i = 0; i < baseline.serve.queries.size(); ++i) {
    const serve::QueryRecord& x = baseline.serve.queries[i];
    const serve::QueryRecord& y = tapped.serve.queries[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.arrival, y.arrival);
    EXPECT_EQ(x.first_service, y.first_service);
    EXPECT_EQ(x.completion, y.completion);
    EXPECT_EQ(x.service_ps, y.service_ps);
    EXPECT_EQ(x.queue_ps, y.queue_ps);
    EXPECT_EQ(x.service_bytes, y.service_bytes);
    EXPECT_EQ(x.replica, y.replica);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.slo_violated, y.slo_violated);
  }
  EXPECT_EQ(baseline.serve.link_bytes, tapped.serve.link_bytes);
  EXPECT_EQ(baseline.serve.makespan_sec, tapped.serve.makespan_sec);
  EXPECT_EQ(baseline.serve.latency_us.p99, tapped.serve.latency_us.p99);
  EXPECT_EQ(baseline.peak_replicas, tapped.peak_replicas);
  EXPECT_EQ(baseline.migration_bytes, tapped.migration_bytes);
  ASSERT_EQ(baseline.scaling_events.size(), tapped.scaling_events.size());
  for (std::size_t i = 0; i < baseline.scaling_events.size(); ++i) {
    EXPECT_EQ(baseline.scaling_events[i].at_sec,
              tapped.scaling_events[i].at_sec);
    EXPECT_EQ(baseline.scaling_events[i].added,
              tapped.scaling_events[i].added);
    EXPECT_EQ(baseline.scaling_events[i].incident,
              tapped.scaling_events[i].incident);
  }

  // The incident log is a pure function of the run: identical with and
  // without the sink, and the workload is hot enough to produce one.
  ASSERT_EQ(baseline.incidents.size(), tapped.incidents.size());
  EXPECT_FALSE(baseline.incidents.empty());
  for (std::size_t i = 0; i < baseline.incidents.size(); ++i) {
    const obs::Incident& x = baseline.incidents[i];
    const obs::Incident& y = tapped.incidents[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.severity, y.severity);
    EXPECT_EQ(x.subject, y.subject);
    EXPECT_EQ(x.opened_ps, y.opened_ps);
    EXPECT_EQ(x.closed_ps, y.closed_ps);
    EXPECT_EQ(x.open, y.open);
    EXPECT_EQ(x.peak, y.peak);
    EXPECT_EQ(x.observations, y.observations);
  }
  std::ostringstream log_a, log_b;
  serve::write_incident_log(log_a, baseline);
  serve::write_incident_log(log_b, tapped);
  EXPECT_EQ(log_a.str(), log_b.str());

  // Every scaling decision links a live incident from the log.
  for (const serve::ScalingEvent& ev : tapped.scaling_events) {
    ASSERT_GE(ev.incident, 0);
    ASSERT_LT(static_cast<std::size_t>(ev.incident),
              tapped.incidents.size());
    const obs::Incident& inc =
        tapped.incidents[static_cast<std::size_t>(ev.incident)];
    EXPECT_EQ(inc.kind, ev.added ? obs::IncidentKind::kSaturation
                                 : obs::IncidentKind::kUnderload);
  }

  // The sink provably captured the query flows: the exported trace
  // validates and contains closed flow chains, and per-replica depth
  // channels landed in the sampler.
  std::ostringstream trace_os;
  telemetry.write_trace_json(trace_os);
  const obs::TraceCheckResult check =
      obs::check_trace(obs::parse_json(trace_os.str()));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.flows, 0u);
  EXPECT_GT(check.flow_events, check.flows);  // steps beyond the starts
  EXPECT_GT(telemetry.metrics().size(), 0u);
  EXPECT_FALSE(telemetry.sampler().empty());
}

TEST(TelemetryIdentity, DeviceStateTracingLeavesThrottledRunIdentical) {
  // Thermal throttling ON is where the device hooks actually fire; the
  // state-model trace must observe the episodes without changing them.
  const graph::CsrGraph g = test_graph();
  core::SystemConfig cfg = core::table3_system();
  cfg.cxl.thermal.enabled = true;
  cfg.cxl.thermal.heat_per_mb = 1.0;
  cfg.cxl.thermal.cool_per_sec = 0.1;
  cfg.cxl.thermal.throttle_threshold = 0.05;
  cfg.cxl.thermal.hysteresis = 0.9;
  cfg.cxl.thermal.throttle_factor = 0.5;

  core::RunRequest req;
  req.algorithm = core::Algorithm::kBfs;
  req.backend = core::BackendKind::kCxl;
  req.source_seed = kSeed;

  core::ExternalGraphRuntime off(cfg);
  const core::RunReport baseline = off.run(g, req);

  obs::Telemetry telemetry(obs::Telemetry::enabled_config());
  core::ExternalGraphRuntime on(cfg);
  on.set_telemetry(&telemetry);
  const core::RunReport tapped = on.run(g, req);

  expect_reports_identical(baseline, tapped);
}

}  // namespace
}  // namespace cxlgraph
