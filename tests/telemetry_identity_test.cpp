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

    EXPECT_EQ(baseline, tapped);
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

  EXPECT_EQ(baseline, tapped);
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

  EXPECT_EQ(baseline, tapped);

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

  EXPECT_EQ(baseline, tapped);

  // The incident log is a pure function of the run: identical with and
  // without the sink, byte for byte once serialized, and the workload is
  // hot enough to produce one.
  EXPECT_FALSE(baseline.incidents.empty());
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

}  // namespace
}  // namespace cxlgraph
