/// serve::FleetServer — replicated stacks behind a router.
///
/// The load-bearing guarantees:
///  * replicas=1 + random router + no quotas/shedding/migration is
///    bit-identical to QueryServer::serve on the same request — the
///    fleet is a pure extension of the single-stack path;
///  * results are deterministic in (graph, request) across repeated
///    runs and profiling thread counts;
///  * byte conservation holds for every router, and live migration
///    charges its state copy to the interconnect without touching the
///    serve-side ledger;
///  * a live-migrated in-flight query resumes on the target mid-serve
///    (replay progress intact) and completes there;
///  * the elastic controller scales up under backlog and reports the
///    p99 transient around every scaling event.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generate.hpp"
#include "mutate.hpp"
#include "serve/fleet.hpp"
#include "serve/replica.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace cxlgraph {
namespace {

constexpr std::uint64_t kSeed = 23;

graph::CsrGraph test_graph() {
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 10, 8.0, opts);
}

serve::FleetRequest mixed_fleet_request(double offered_qps,
                                        std::uint32_t num_queries) {
  serve::FleetRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = kSeed;
  req.workload.offered_qps = offered_qps;
  req.workload.num_queries = num_queries;
  req.workload.source_pool = 4;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 2.0;
  bfs.slo = util::ps_from_us(5'000.0);
  serve::QueryClass scan;
  scan.algorithm = core::Algorithm::kPagerankScan;
  scan.weight = 1.0;
  scan.slo = util::ps_from_us(20'000.0);
  req.workload.mix = {bfs, scan};
  return req;
}

// The acceptance gate: one replica behind the random router, no quotas,
// no shedding, no migration — the fleet must reproduce QueryServer's
// report bit-for-bit, every record field included.
TEST(FleetServer, SingleReplicaBitIdenticalToQueryServer) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest freq = mixed_fleet_request(2000.0, 48);
  freq.fleet.replicas = 1;
  freq.fleet.router = serve::RouterKind::kRandom;
  freq.fleet.serve.policy = serve::SchedulingPolicy::kSloPriority;
  freq.fleet.serve.max_waiting = 12;

  serve::ServeRequest sreq;
  sreq.base = freq.base;
  sreq.workload = freq.workload;
  sreq.config = freq.fleet.serve;

  serve::QueryServer solo(core::table3_system());
  serve::FleetServer fleet(core::table3_system());
  const serve::ServeReport a = solo.serve(g, sreq);
  const serve::FleetReport b = fleet.serve(g, freq);
  EXPECT_EQ(a, b.serve);
  EXPECT_EQ(b.replicas, 1u);
  EXPECT_EQ(b.peak_replicas, 1u);
  EXPECT_EQ(b.shed_queue, a.shed);
  EXPECT_EQ(b.shed_quota, 0u);
  EXPECT_EQ(b.shed_deadline, 0u);
  EXPECT_EQ(b.migration_bytes, 0u);
  EXPECT_TRUE(b.serve.conservation_ok());
}

TEST(FleetServer, DeterministicAcrossJobsAndRepeatedRuns) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = mixed_fleet_request(3000.0, 40);
  req.fleet.replicas = 3;
  req.fleet.router = serve::RouterKind::kJoinShortestQueue;
  req.fleet.serve.policy = serve::SchedulingPolicy::kRoundRobin;

  serve::FleetServer serial(core::table3_system(), /*jobs=*/1);
  serve::FleetServer wide(core::table3_system(), /*jobs=*/4);
  const serve::FleetReport a = serial.serve(g, req);
  const serve::FleetReport b = wide.serve(g, req);
  const serve::FleetReport c = serial.serve(g, req);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(FleetServer, RoutersSpreadLoadAndConserveBytes) {
  const graph::CsrGraph g = test_graph();
  for (const serve::RouterKind router : serve::all_routers()) {
    serve::FleetRequest req = mixed_fleet_request(4000.0, 48);
    req.fleet.replicas = 3;
    req.fleet.router = router;
    serve::FleetServer fleet(core::table3_system());
    const serve::FleetReport r = fleet.serve(g, req);
    EXPECT_EQ(r.serve.completed, 48u) << to_string(router);
    EXPECT_TRUE(r.serve.conservation_ok()) << to_string(router);
    ASSERT_EQ(r.replica_stats.size(), 3u);
    std::uint32_t used = 0;
    std::uint64_t sum_link = 0;
    for (const serve::ReplicaStats& s : r.replica_stats) {
      if (s.served > 0) ++used;
      sum_link += s.link_bytes;
      EXPECT_LE(s.utilization, 1.0 + 1e-9) << to_string(router);
    }
    EXPECT_GE(used, 2u) << to_string(router) << " left replicas idle";
    EXPECT_EQ(sum_link, r.serve.link_bytes) << to_string(router);
  }
}

TEST(FleetServer, ClassAffinityPinsTenantsToReplicas) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = mixed_fleet_request(4000.0, 40);
  req.fleet.replicas = 2;
  req.fleet.router = serve::RouterKind::kClassAffinity;
  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  for (const serve::QueryRecord& q : r.serve.queries) {
    if (q.shed) continue;
    EXPECT_EQ(q.replica, q.class_index % 2u);
  }
}

TEST(FleetServer, TenantQuotaCapsInFlightQueries) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = mixed_fleet_request(8000.0, 48);
  req.fleet.replicas = 2;
  req.fleet.quotas = {serve::TenantQuota{/*class_index=*/0,
                                         /*max_in_flight=*/1}};
  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  EXPECT_GT(r.shed_quota, 0u);
  EXPECT_EQ(r.shed_quota + r.shed_queue + r.shed_deadline, r.serve.shed);
  // Only the quota'd tenant gets shed at this load.
  for (const serve::QueryRecord& q : r.serve.queries) {
    if (q.shed) {
      EXPECT_EQ(q.class_index, 0u);
    }
  }
  EXPECT_TRUE(r.serve.conservation_ok());
}

TEST(FleetServer, SloSheddingDropsInfeasibleArrivals) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = mixed_fleet_request(20'000.0, 48);
  req.fleet.replicas = 2;
  req.fleet.router = serve::RouterKind::kJoinShortestQueue;
  req.fleet.slo_shedding = true;
  // A query's isolated demand is ~80 us here: SLOs just above it admit
  // arrivals onto an empty replica but make any real backlog infeasible.
  req.workload.mix[0].slo = util::ps_from_us(120.0);
  req.workload.mix[1].slo = util::ps_from_us(180.0);
  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  EXPECT_GT(r.shed_deadline, 0u);
  EXPECT_GT(r.serve.completed, 0u);
  EXPECT_EQ(r.serve.completed + r.serve.shed, r.serve.offered);
  EXPECT_TRUE(r.serve.conservation_ok());
}

TEST(FleetServer, LiveMigrationMovesTenantMidServe) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = mixed_fleet_request(6000.0, 40);
  req.fleet.replicas = 2;
  // Affinity pins class 0 to replica 0, so the migration has a backlog
  // to drain; round-robin with a 1-superstep quantum guarantees an
  // early preemption point for the in-flight handoff.
  req.fleet.router = serve::RouterKind::kClassAffinity;
  req.fleet.serve.policy = serve::SchedulingPolicy::kRoundRobin;
  req.fleet.serve.quantum_supersteps = 1;

  serve::FleetServer probe(core::table3_system());
  const serve::FleetReport baseline = probe.serve(g, req);
  ASSERT_GT(baseline.serve.makespan_sec, 0.0);

  req.fleet.migrations = {serve::MigrationPlan{
      baseline.serve.makespan_sec / 3.0, /*class_index=*/0,
      /*from=*/0, /*to=*/1}};
  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);

  ASSERT_EQ(r.migrations.size(), 1u);
  const serve::MigrationRecord& m = r.migrations.front();
  EXPECT_GT(m.state_bytes, 0u);
  EXPECT_GT(m.moved_waiting + (m.moved_active ? 1u : 0u), 0u);
  EXPECT_GT(r.migration_bytes, 0u);
  EXPECT_GT(r.migration_sec, 0.0);
  // The copy is charged to the interconnect, not the serve ledger:
  // query-byte conservation must still hold exactly.
  EXPECT_TRUE(r.serve.conservation_ok());
  EXPECT_EQ(r.serve.completed + r.serve.shed, r.serve.offered);

  // Mid-serve resume: a tenant query whose service began at the source
  // before the migration completed on the target.
  const util::SimTime mig_ps =
      static_cast<util::SimTime>(m.start_sec * 1e12);
  bool resumed_mid_serve = false;
  for (const serve::QueryRecord& q : r.serve.queries) {
    if (q.shed || q.class_index != 0) continue;
    if (q.first_service > 0 && q.first_service < mig_ps && q.replica == 1) {
      resumed_mid_serve = true;
    }
  }
  EXPECT_TRUE(m.moved_active ? resumed_mid_serve : true);
  // Post-migration arrivals of the tenant route to the target.
  for (const serve::QueryRecord& q : r.serve.queries) {
    if (q.shed || q.class_index != 0) continue;
    if (q.arrival > mig_ps + util::kPsPerUs) {
      EXPECT_EQ(q.replica, 1u);
    }
  }
}

TEST(FleetServer, ElasticControllerScalesUpUnderBacklog) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = mixed_fleet_request(50'000.0, 48);
  req.fleet.replicas = 1;
  req.fleet.router = serve::RouterKind::kJoinShortestQueue;

  serve::FleetServer probe(core::table3_system());
  const serve::FleetReport fixed = probe.serve(g, req);
  ASSERT_GT(fixed.serve.makespan_sec, 0.0);

  req.fleet.elastic.enabled = true;
  req.fleet.elastic.min_replicas = 1;
  req.fleet.elastic.max_replicas = 4;
  req.fleet.elastic.check_interval_sec = fixed.serve.makespan_sec / 40.0;
  req.fleet.elastic.scale_up_depth = 4.0;
  req.fleet.elastic.scale_down_depth = 0.5;
  req.fleet.elastic.cooldown_intervals = 1;
  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);

  EXPECT_GT(r.peak_replicas, 1u);
  bool grew = false;
  for (const serve::ScalingEvent& ev : r.scaling_events) {
    if (!ev.added) continue;
    grew = true;
    EXPECT_GT(ev.at_sec, 0.0);
    EXPECT_GT(ev.routable_after, 1u);
    EXPECT_GT(ev.depth_per_replica, req.fleet.elastic.scale_up_depth);
    EXPECT_GE(ev.p99_before_us, 0.0);
    EXPECT_GE(ev.p99_after_us, 0.0);
  }
  EXPECT_TRUE(grew);
  EXPECT_EQ(r.serve.completed, r.serve.offered);
  EXPECT_TRUE(r.serve.conservation_ok());
  // Extra capacity must not slow the fleet down.
  EXPECT_LE(r.serve.makespan_sec, fixed.serve.makespan_sec * 1.01);
  // Replicas added mid-run report their join time and a sane lifetime.
  for (const serve::ReplicaStats& s : r.replica_stats) {
    if (s.replica >= req.fleet.replicas) {
      EXPECT_GT(s.joined_sec, 0.0);
    }
    EXPECT_LE(s.utilization, 1.0 + 1e-9);
  }
}

/// Scripted depth for a hand-driven FleetSim: opcode 0 sets replica 0's
/// waiting depth to `a` and samples it as an arrival would; opcode 1
/// resolves the one query, which ends the elastic tick chain.
struct DepthScript {
  serve::FleetSim& fleet;

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t /*b*/) {
    serve::FleetSim& f = static_cast<DepthScript*>(self)->fleet;
    if (opcode == 1) {
      f.completed = 1;
      return;
    }
    f.replicas[0].ready.assign(a, 0);
    f.record_depth();
  }
};

// Each elastic decision reads the exact mean of every depth sample since
// the previous tick, including samples taken just after that tick.
TEST(FleetSim, ElasticTickAveragesEverySampleSinceThePreviousTick) {
  serve::FleetConfig config;
  config.elastic.enabled = true;
  config.elastic.min_replicas = 1;
  config.elastic.max_replicas = 2;
  config.elastic.check_interval_sec = 1e-6;
  config.elastic.scale_up_depth = 8.0;
  const serve::WorkloadSpec spec;
  const std::vector<serve::Query> queries(1);
  serve::QueryProfile profile;
  profile.step_ps = {1};
  profile.step_bytes = {1};
  const std::vector<serve::QueryProfile> profiles = {profile};
  std::vector<serve::QueryRecord> records(1);
  serve::FleetSim fleet(config, spec, queries, profiles, records,
                        /*num_classes=*/1);
  DepthScript script{fleet};
  const std::uint16_t lane =
      fleet.sim.add_listener(&script, &DepthScript::on_event);

  // Tick 1 sees depth 0. Within the first eighth of the next interval the
  // depth spikes to 40, and it is 0 again well before tick 2, whose own
  // sample is 0 too: tick 2 decides on (40 + 0 + 0) / 3.
  const util::SimTime tick = fleet.interval_ps;
  fleet.schedule_at(tick, serve::FleetSim::kElasticTick);
  fleet.sim.schedule_at(tick + tick / 16, lane, 0, 40);
  fleet.sim.schedule_at(tick + tick / 2, lane, 0, 0);
  fleet.sim.schedule_at(2 * tick + tick / 2, lane, 1);
  fleet.sim.run();

  ASSERT_EQ(fleet.scaling_events.size(), 1u);
  const serve::ScalingEvent& grow = fleet.scaling_events[0];
  EXPECT_TRUE(grow.added);
  EXPECT_EQ(grow.at_sec, util::sec_from_ps(2 * tick));
  EXPECT_EQ(grow.depth_per_replica, 40.0 / 3.0);
  EXPECT_EQ(fleet.replicas.size(), 2u);
}

// A drained replica leaves the routing set at the drain decision: under
// the random router no query arriving after a scale-down lands on it.
TEST(FleetServer, ScaleDownStopsRoutingToTheDrainedReplica) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = mixed_fleet_request(2000.0, 96);  // light load
  req.fleet.replicas = 3;
  req.fleet.router = serve::RouterKind::kRandom;
  req.fleet.elastic.enabled = true;
  req.fleet.elastic.min_replicas = 1;
  req.fleet.elastic.max_replicas = 3;
  req.fleet.elastic.check_interval_sec = 2e-3;

  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  std::uint32_t drains = 0;
  for (const serve::ScalingEvent& ev : r.scaling_events) {
    if (ev.added) continue;
    ++drains;
    for (const serve::QueryRecord& q : r.serve.queries) {
      if (!q.shed && util::sec_from_ps(q.arrival) > ev.at_sec) {
        EXPECT_NE(q.replica, ev.replica) << "query " << q.id;
      }
    }
  }
  EXPECT_GT(drains, 0u);
  EXPECT_EQ(r.serve.completed, r.serve.offered);
}

TEST(FleetServer, ValidatesFleetConfiguration) {
  const graph::CsrGraph g = test_graph();
  serve::FleetServer fleet(core::table3_system());
  serve::FleetRequest req = mixed_fleet_request(1000.0, 4);

  req.fleet.replicas = 0;
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  req.fleet.replicas = 2;

  req.fleet.quotas = {serve::TenantQuota{/*class_index=*/7, 1}};
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  // A quota that admits nothing is an error, not "no quota".
  req.fleet.quotas = {serve::TenantQuota{/*class_index=*/0, 0}};
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  req.fleet.quotas.clear();

  req.fleet.migrations = {serve::MigrationPlan{0.0, 0, /*from=*/0,
                                               /*to=*/5}};
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  req.fleet.migrations = {serve::MigrationPlan{0.0, 0, /*from=*/1,
                                               /*to=*/1}};
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  req.fleet.migrations.clear();

  req.fleet.elastic.enabled = true;
  req.fleet.elastic.min_replicas = 3;  // min > replicas
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  req.fleet.elastic.min_replicas = 1;
  req.fleet.elastic.check_interval_sec = 0.0;
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  req.fleet.elastic.check_interval_sec = std::nan("");
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);

  // With the controller off its interval is never converted to
  // picoseconds, so it is not validated either.
  req.fleet.elastic.enabled = false;
  EXPECT_NO_THROW(fleet.serve(g, req));
}

// Every replica registers a listener with the serve's simulator, so a
// fleet that could outgrow the listener table is rejected up front.
TEST(FleetConfig, ValidateRejectsMoreReplicasThanListenerSlots) {
  serve::FleetConfig fleet;
  fleet.replicas = serve::kMaxReplicas;
  EXPECT_NO_THROW(fleet.validate(1));
  fleet.replicas = serve::kMaxReplicas + 1;
  EXPECT_THROW(fleet.validate(1), std::invalid_argument);

  fleet.replicas = 2;
  fleet.elastic.enabled = true;
  fleet.elastic.max_replicas = serve::kMaxReplicas;
  EXPECT_NO_THROW(fleet.validate(1));
  fleet.elastic.max_replicas = serve::kMaxReplicas + 1;
  try {
    fleet.validate(1);
    FAIL() << "elastic max_replicas past the limit was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("max_replicas"), std::string::npos)
        << e.what();
  }
}

// FleetConfig::validate is callable on its own (serve() routes through
// it): malformed migration plans are rejected with messages that name
// the offending field, and a valid config passes silently.
TEST(FleetConfig, ValidateRejectsMalformedMigrationsDescriptively) {
  serve::FleetConfig fleet;
  fleet.replicas = 2;
  EXPECT_NO_THROW(fleet.validate(/*num_classes=*/2));

  const auto message_of = [&fleet]() -> std::string {
    try {
      fleet.validate(2);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };

  fleet.migrations = {serve::MigrationPlan{0.0, 0, /*from=*/0, /*to=*/5}};
  EXPECT_NE(message_of().find("replica"), std::string::npos);
  fleet.migrations = {serve::MigrationPlan{0.0, 0, /*from=*/1, /*to=*/1}};
  EXPECT_NE(message_of().find("source"), std::string::npos);
  fleet.migrations = {serve::MigrationPlan{0.0, /*class=*/9, 0, 1}};
  EXPECT_NE(message_of().find("class"), std::string::npos);
  fleet.migrations = {serve::MigrationPlan{-1.0, 0, 0, 1}};
  EXPECT_FALSE(message_of().empty());
  // NaN and infinity pass a `< 0` test; they must not reach the cast to
  // picoseconds.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {std::nan(""), kInf}) {
    fleet.migrations = {serve::MigrationPlan{bad, 0, 0, 1}};
    EXPECT_NE(message_of().find("migration time"), std::string::npos) << bad;
  }
  fleet.migrations.clear();

  fleet.elastic.enabled = true;
  for (const double bad : {std::nan(""), kInf, -1.0}) {
    fleet.elastic.check_interval_sec = bad;
    EXPECT_NE(message_of().find("elastic check interval"), std::string::npos)
        << bad;
  }
  fleet.elastic = serve::ElasticConfig{};

  // So is the serving stack's thermal model, when it is on.
  fleet.serve.thermal.hysteresis = 0.0;
  EXPECT_NO_THROW(fleet.validate(2));
  fleet.serve.thermal.enabled = true;
  EXPECT_NE(message_of().find("Thermal"), std::string::npos);
  fleet.serve.thermal.hysteresis = 0.9;
  EXPECT_NO_THROW(fleet.validate(2));

  // The fault spec is validated through the same member.
  fleet.faults.crashes = 1;  // enabled with horizon == 0
  EXPECT_NE(message_of().find("fault"), std::string::npos);
  fleet.faults.horizon_sec = 0.01;
  EXPECT_NO_THROW(fleet.validate(2));
}

// The --migrate and --quota grammars under seeded mutation: every input
// either throws std::invalid_argument from the parser, or parses into
// entries FleetConfig::validate accepts or rejects with
// std::invalid_argument — never another exception type.
template <typename Entry, typename Parse, typename Install>
void expect_mutations_throw_or_validate(const std::vector<std::string>& seeds,
                                        Parse parse, Install install) {
  util::Xoshiro256 rng(2026);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string spec =
        mutation::mutate_some(seeds[trial % seeds.size()], rng);
    try {
      const std::vector<Entry> entries = parse(spec);
      ++parsed;
      serve::FleetConfig fleet;
      fleet.replicas = 4;
      install(fleet, entries);
      try {
        fleet.validate(/*num_classes=*/3);
      } catch (const std::invalid_argument&) {
      }
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "\"" << spec << "\" threw " << e.what();
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(FleetConfig, SeededMigrationMutationsThrowOrValidate) {
  expect_mutations_throw_or_validate<serve::MigrationPlan>(
      {"0.5:0:0:1", "2.5:1:2:3,0.25:2:3:0", "1e300:0:1:2,4:1:0:3"},
      serve::parse_migrations,
      [](serve::FleetConfig& fleet,
         const std::vector<serve::MigrationPlan>& plans) {
        fleet.migrations = plans;
      });
}

TEST(FleetConfig, SeededQuotaMutationsThrowOrValidate) {
  expect_mutations_throw_or_validate<serve::TenantQuota>(
      {"0:2", "1:4,2:1", "0:1,1:3,2:4294967295"}, serve::parse_quotas,
      [](serve::FleetConfig& fleet,
         const std::vector<serve::TenantQuota>& quotas) {
        fleet.quotas = quotas;
      });
}

TEST(FleetConfig, ListGrammarsReadEveryFieldWhole) {
  const std::vector<serve::MigrationPlan> plans =
      serve::parse_migrations("2.5:0:1:2,0.25:2:3:0");
  ASSERT_EQ(plans.size(), 2u);
  EXPECT_DOUBLE_EQ(plans[0].at_sec, 2.5e-3);
  EXPECT_EQ(plans[0].class_index, 0u);
  EXPECT_EQ(plans[0].from, 1u);
  EXPECT_EQ(plans[0].to, 2u);
  EXPECT_DOUBLE_EQ(plans[1].at_sec, 0.25e-3);
  EXPECT_TRUE(serve::parse_migrations("").empty());
  for (const char* bad :
       {"2.5abc:0:0:1", "1e999:0:0:1", ":0:0:1", "1:0:0", "1:0:0:1:2",
        "1:-1:0:1", "1:0:0:4294967296"}) {
    EXPECT_THROW(serve::parse_migrations(bad), std::invalid_argument) << bad;
  }

  const std::vector<serve::TenantQuota> quotas =
      serve::parse_quotas("0:2,2:7");
  ASSERT_EQ(quotas.size(), 2u);
  EXPECT_EQ(quotas[1].class_index, 2u);
  EXPECT_EQ(quotas[1].max_in_flight, 7u);
  EXPECT_TRUE(serve::parse_quotas("").empty());
  for (const char* bad : {"0:2x", "0", "0:1:2", "0:1,", "a:1"}) {
    EXPECT_THROW(serve::parse_quotas(bad), std::invalid_argument) << bad;
  }
}

TEST(FleetServer, RouterNamesRoundTripAndRejectUnknown) {
  for (const serve::RouterKind r : serve::all_routers()) {
    EXPECT_EQ(serve::router_from_name(serve::to_string(r)), r);
  }
  try {
    serve::router_from_name("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("random"), std::string::npos);
    EXPECT_NE(what.find("join-shortest-queue"), std::string::npos);
    EXPECT_NE(what.find("class-affinity"), std::string::npos);
  }
}

}  // namespace
}  // namespace cxlgraph
