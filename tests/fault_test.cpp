/// src/fault — deterministic fault injection and failure recovery.
///
/// The load-bearing guarantees:
///  * a FaultPlan is a pure function of (spec, replica count): same
///    inputs, same event list, sorted in time; a disabled spec yields
///    no events and never installs a seam;
///  * a plan whose events never bite (io bursts at error rate 0) leaves
///    every serve record bit-identical to the no-plan path;
///  * a seeded crash kills the replica: its waiting queries re-route and
///    complete elsewhere, the in-flight query retries with its lost work
///    accounted, and the extended ledger link == query + lost balances
///    exactly;
///  * a retry budget of zero under a permanent total outage turns the
///    affected queries into the `failed` disposition — terminal
///    dispositions always partition the offered stream;
///  * identical seeds give identical FleetReports across profiling
///    thread counts;
///  * the `--faults` grammar, under seeded mutations of valid specs,
///    either rejects its input with std::invalid_argument or yields a
///    spec that passes validate().
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "golden_suite.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"
#include "mutate.hpp"
#include "obs/health.hpp"
#include "serve/fleet.hpp"
#include "serve/server.hpp"

namespace cxlgraph {
namespace {

constexpr std::uint64_t kSeed = 23;

graph::CsrGraph test_graph() {
  graph::GeneratorOptions opts;
  opts.seed = kSeed;
  opts.max_weight = 63;
  return graph::generate_uniform(1 << 10, 8.0, opts);
}

serve::FleetRequest fleet_request(double offered_qps,
                                  std::uint32_t num_queries,
                                  std::uint32_t replicas) {
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
  req.fleet.replicas = replicas;
  req.fleet.router = serve::RouterKind::kJoinShortestQueue;
  return req;
}

/// A crash-heavy plan spanning the first `horizon_sec` of the run.
fault::FaultSpec crashy_spec(double horizon_sec) {
  fault::FaultSpec spec;
  spec.seed = 77;
  spec.horizon_sec = horizon_sec;
  spec.crashes = 2;
  spec.restart_sec = horizon_sec / 8.0;
  spec.max_query_retries = 3;
  spec.retry_backoff_us = 80.0;
  return spec;
}

void expect_fault_ledger_balances(const serve::ServeReport& s) {
  EXPECT_TRUE(s.conservation_ok())
      << "link " << s.link_bytes << " != query " << s.query_bytes
      << " + lost " << s.lost_bytes;
  EXPECT_EQ(s.completed + s.shed + s.failed, s.offered);
}

// ------------------------------------------------------------- plan ----

TEST(FaultPlan, PureFunctionOfSpecSortedInTime) {
  fault::FaultSpec spec;
  spec.seed = 9;
  spec.horizon_sec = 0.01;
  spec.crashes = 3;
  spec.restart_sec = 0.001;
  spec.io_bursts = 2;
  spec.io_burst_sec = 0.002;
  spec.io_error_rate = 0.25;
  spec.link_flaps = 2;
  spec.flap_sec = 0.001;
  spec.flap_derate = 0.5;

  const fault::FaultPlan a(spec, 4);
  const fault::FaultPlan b(spec, 4);
  ASSERT_EQ(a.events().size(), 7u);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
    EXPECT_EQ(a.events()[i].magnitude, b.events()[i].magnitude);
  }
  for (std::size_t i = 1; i < a.events().size(); ++i) {
    EXPECT_LE(a.events()[i - 1].at, a.events()[i].at);
  }
  for (const fault::FaultEvent& e : a.events()) {
    EXPECT_LE(e.at, util::ps_from_us(spec.horizon_sec * 1e6));
    if (e.kind == fault::FaultKind::kReplicaCrash) {
      EXPECT_LT(e.target, 4u);
    }
  }

  // A different seed moves the schedule.
  fault::FaultSpec other = spec;
  other.seed = 10;
  const fault::FaultPlan c(other, 4);
  bool any_differs = false;
  for (std::size_t i = 0; i < c.events().size(); ++i) {
    any_differs = any_differs || c.events()[i].at != a.events()[i].at;
  }
  EXPECT_TRUE(any_differs);
}

TEST(FaultPlan, DisabledSpecYieldsNoEvents) {
  const fault::FaultSpec spec;  // all counts zero
  EXPECT_FALSE(spec.enabled());
  const fault::FaultPlan plan(spec, 4);
  EXPECT_FALSE(plan.active());
  EXPECT_TRUE(plan.events().empty());
  EXPECT_NO_THROW(fault::validate(spec));  // the default retry policy fits
}

TEST(FaultPlan, ErrorDrawIsDeterministicAndRespectsRate) {
  EXPECT_FALSE(fault::FaultPlan::error_draw(1, 2, 3, 0.0));
  EXPECT_TRUE(fault::FaultPlan::error_draw(1, 2, 3, 1.0));
  int hits = 0;
  for (std::uint64_t draw = 0; draw < 1000; ++draw) {
    const bool h = fault::FaultPlan::error_draw(42, 0, draw, 0.3);
    EXPECT_EQ(h, fault::FaultPlan::error_draw(42, 0, draw, 0.3));
    if (h) ++hits;
  }
  EXPECT_GT(hits, 200);
  EXPECT_LT(hits, 400);
}

TEST(FaultSpec, ParseRoundTripsAndRejectsGarbage) {
  const fault::FaultSpec spec = fault::parse_fault_spec(
      "seed=7,horizon-ms=10,crashes=2,restart-ms=1.5,io-bursts=1,"
      "io-burst-ms=2,io-rate=0.25,io-retry-us=30,io-max-retries=4,"
      "link-flaps=1,flap-ms=0.5,flap-derate=0.5,query-retries=5,"
      "backoff-us=120");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.horizon_sec, 0.01);
  EXPECT_EQ(spec.crashes, 2u);
  EXPECT_DOUBLE_EQ(spec.restart_sec, 0.0015);
  EXPECT_EQ(spec.io_bursts, 1u);
  EXPECT_DOUBLE_EQ(spec.io_error_rate, 0.25);
  EXPECT_EQ(spec.io_max_retries, 4u);
  EXPECT_EQ(spec.link_flaps, 1u);
  EXPECT_DOUBLE_EQ(spec.flap_derate, 0.5);
  EXPECT_EQ(spec.max_query_retries, 5u);
  EXPECT_DOUBLE_EQ(spec.retry_backoff_us, 120.0);
  EXPECT_TRUE(spec.enabled());

  EXPECT_THROW(fault::parse_fault_spec("bogus-key=1"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("crashes=two"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("crashes=1"),  // no horizon
               std::invalid_argument);
  EXPECT_THROW(
      fault::parse_fault_spec(
          "horizon-ms=10,io-bursts=1,io-burst-ms=1,io-rate=1.5"),
      std::invalid_argument);
  EXPECT_THROW(
      fault::parse_fault_spec(
          "horizon-ms=10,link-flaps=1,flap-ms=1,flap-derate=-0.1"),
      std::invalid_argument);
}

// Every duration in a spec becomes picoseconds, and NaN, infinite or
// negative values would make that cast undefined: the parser and
// validate() reject them, and NaN rates cannot slip past [0, 1] either.
TEST(FaultSpec, RejectsNonFiniteAndNegativeDurations) {
  for (const std::string bad : {"nan", "inf", "-1"}) {
    for (const std::string& spec :
         {"crashes=1,horizon-ms=" + bad,
          "horizon-ms=10,crashes=1,restart-ms=" + bad,
          "horizon-ms=10,crashes=1,provision-ms=" + bad,
          "horizon-ms=10,crashes=1,backoff-us=" + bad,
          "horizon-ms=10,io-bursts=1,io-burst-ms=" + bad,
          "horizon-ms=10,io-bursts=1,io-burst-ms=1,io-retry-us=" + bad,
          "horizon-ms=10,link-flaps=1,flap-ms=" + bad}) {
      EXPECT_THROW(fault::parse_fault_spec(spec), std::invalid_argument)
          << spec;
    }
  }
  EXPECT_THROW(fault::parse_fault_spec(
                   "horizon-ms=10,io-bursts=1,io-burst-ms=1,io-rate=nan"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec(
                   "horizon-ms=10,link-flaps=1,flap-ms=1,flap-derate=nan"),
               std::invalid_argument);

  fault::FaultSpec spec;
  spec.crashes = 1;
  spec.horizon_sec = std::nan("");
  EXPECT_THROW(fault::validate(spec), std::invalid_argument);
  spec.horizon_sec = 0.01;
  EXPECT_NO_THROW(fault::validate(spec));
  spec.restart_sec = std::numeric_limits<double>::infinity();
  EXPECT_THROW(fault::validate(spec), std::invalid_argument);
}

// Counts are whole base-10 integers that fit their 32-bit field: a NaN,
// an exponent, a sign, trailing characters or a value past 2^32 - 1 is an
// error, never an undefined cast or a truncated count. Seeds keep all 64
// bits, where a round trip through a double would not.
// A query's n-th retry waits n backoffs, converted to picoseconds as one
// product: a backoff that fits alone but not times the retry budget is
// rejected, whether or not the spec draws any fault.
TEST(FaultSpec, RejectsABackoffWhoseRetryProductOverflows) {
  // 1e13 us is 1e19 ps, below 2^64 ps; twice that is not.
  EXPECT_NO_THROW(fault::parse_fault_spec("backoff-us=1e13,query-retries=1"));
  EXPECT_THROW(fault::parse_fault_spec("backoff-us=1e13,query-retries=2"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec(
                   "horizon-ms=10,crashes=1,backoff-us=1e13,query-retries=2"),
               std::invalid_argument);
  EXPECT_NO_THROW(
      fault::parse_fault_spec("backoff-us=0,query-retries=4294967295"));
}

// A quantum whose k-th I/O attempt fails waits k backoffs, so one that
// fails all R retries waits io_retry_us * R(R + 1) / 2: that total must
// fit, not only one backoff.
TEST(FaultSpec, RejectsAnIoBackoffWhoseRetryTotalOverflows) {
  // 1e13 us is 1e19 ps, below 2^64 ps; three times that is not.
  const std::string burst =
      "horizon-ms=10,io-bursts=1,io-burst-ms=1,io-retry-us=1e13,";
  EXPECT_NO_THROW(fault::parse_fault_spec(burst + "io-max-retries=1"));
  EXPECT_THROW(fault::parse_fault_spec(burst + "io-max-retries=2"),
               std::invalid_argument);
}

TEST(FaultSpec, CountsAreCheckedIntegersSeedsKeepAllBits) {
  for (const std::string key :
       {"crashes", "io-bursts", "io-max-retries", "link-flaps",
        "query-retries"}) {
    for (const std::string bad : {"nan", "1e30", "-1", "4294967297", "2x"}) {
      EXPECT_THROW(fault::parse_fault_spec("horizon-ms=2," + key + "=" + bad),
                   std::invalid_argument)
          << key << "=" << bad;
    }
  }
  EXPECT_EQ(fault::parse_fault_spec("horizon-ms=2,crashes=4294967295").crashes,
            4294967295u);
  EXPECT_EQ(fault::parse_fault_spec("seed=9007199254740993").seed,
            9007199254740993ULL);
  EXPECT_EQ(fault::parse_fault_spec("seed=18446744073709551615").seed,
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(fault::parse_fault_spec("seed=18446744073709551616"),
               std::invalid_argument);
}

TEST(FaultSpec, SeededMutationsThrowOrParseValidSpecs) {
  const std::vector<std::string> seeds = {
      "horizon-ms=8,crashes=2,restart-ms=2,io-bursts=1,io-burst-ms=2,"
      "io-rate=0.3,link-flaps=1,flap-ms=1,flap-derate=0.5",
      "seed=77,horizon-ms=5,crashes=3,provision-ms=0.3,query-retries=2,"
      "backoff-us=80",
      "horizon-ms=4,io-bursts=2,io-burst-ms=1,io-rate=1,io-retry-us=40,"
      "io-max-retries=3"};
  util::Xoshiro256 rng(2025);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string spec =
        mutation::mutate_some(seeds[trial % seeds.size()], rng);
    try {
      const fault::FaultSpec parsed = fault::parse_fault_spec(spec);
      EXPECT_NO_THROW(fault::validate(parsed)) << "\"" << spec << "\"";
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "\"" << spec << "\" threw " << e.what();
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------------------------ fleet ----

TEST(FleetFaults, ZeroRatePlanIsRecordIdenticalToNoPlan) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest plain = fleet_request(4000.0, 48, 3);
  serve::FleetRequest zero = plain;
  zero.fleet.faults.seed = 77;
  zero.fleet.faults.horizon_sec = 0.01;
  zero.fleet.faults.io_bursts = 2;
  zero.fleet.faults.io_burst_sec = 0.002;
  zero.fleet.faults.io_error_rate = 0.0;  // armed but toothless
  ASSERT_TRUE(zero.fleet.faults.enabled());

  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport a = fleet.serve(g, plain);
  const serve::FleetReport b = fleet.serve(g, zero);
  // Every serve record and aggregate is identical. The whole FleetReports
  // are not: an armed burst still opens its io-error-burst incidents,
  // rate 0 or not.
  EXPECT_EQ(a.serve, b.serve);
  EXPECT_EQ(b.serve.failed, 0u);
  EXPECT_EQ(b.serve.query_retries, 0u);
  EXPECT_EQ(b.serve.lost_bytes, 0u);
  EXPECT_EQ(b.crashes, 0u);
  EXPECT_DOUBLE_EQ(b.availability, 1.0);
}

// Routing follows a crash-restart: under the random router, arrivals
// during the outage never land on the dead replica, and arrivals after it
// revives reach it again.
TEST(FleetFaults, RevivedReplicaTakesArrivalsAgain) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = fleet_request(4000.0, 96, 2);
  req.fleet.router = serve::RouterKind::kRandom;
  const double window_sec =
      static_cast<double>(req.workload.num_queries) /
      req.workload.offered_qps;
  req.fleet.faults.seed = 77;
  req.fleet.faults.horizon_sec = window_sec / 4.0;
  req.fleet.faults.crashes = 1;
  req.fleet.faults.restart_sec = window_sec / 8.0;

  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  ASSERT_EQ(r.crashes, 1u);
  ASSERT_EQ(r.restarts, 1u);
  std::uint32_t down = 0;
  while (r.replica_stats[down].crashes == 0) ++down;
  const obs::Incident* outage = nullptr;
  for (const obs::Incident& inc : r.incidents) {
    if (inc.kind == obs::IncidentKind::kReplicaDown) outage = &inc;
  }
  ASSERT_NE(outage, nullptr);
  ASSERT_FALSE(outage->open);

  std::uint32_t after_revival = 0;
  for (const serve::QueryRecord& q : r.serve.queries) {
    if (q.arrival >= outage->opened_ps && q.arrival < outage->closed_ps) {
      EXPECT_NE(q.replica, down) << "query " << q.id;
    } else if (q.arrival >= outage->closed_ps && q.replica == down) {
      ++after_revival;
    }
  }
  EXPECT_GT(after_revival, 0u);
}

TEST(FleetFaults, CrashRecoversWaitingAndInFlightWork) {
  const graph::CsrGraph g = test_graph();
  // Saturating load so replicas have deep queues when the crash lands.
  serve::FleetRequest req = fleet_request(20'000.0, 64, 3);
  const double horizon_sec =
      static_cast<double>(req.workload.num_queries) /
      req.workload.offered_qps;
  // Both crashes land in the first half of the arrival window, while the
  // stream is still live.
  req.fleet.faults = crashy_spec(horizon_sec / 2.0);

  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  EXPECT_EQ(r.crashes, 2u);
  EXPECT_EQ(r.restarts, 2u);  // restart_sec > 0: both revive
  expect_fault_ledger_balances(r.serve);
  // Everything completes: waiting queries re-routed, in-flight retried.
  EXPECT_EQ(r.serve.completed, r.serve.offered);
  EXPECT_EQ(r.serve.failed, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  std::uint32_t crashed_replicas = 0;
  for (const serve::ReplicaStats& rs : r.replica_stats) {
    if (rs.crashes > 0) {
      ++crashed_replicas;
      EXPECT_GT(rs.down_sec, 0.0);
    }
  }
  EXPECT_GT(crashed_replicas, 0u);
  // The health monitor recorded (and closed) the replica-down incidents.
  std::uint32_t down_incidents = 0;
  for (const obs::Incident& inc : r.incidents) {
    if (inc.kind == obs::IncidentKind::kReplicaDown) {
      ++down_incidents;
      EXPECT_FALSE(inc.open);
    }
  }
  EXPECT_EQ(down_incidents, r.crashes);
  // Lost work shows up iff a query was in flight at a crash.
  if (r.serve.query_retries > 0) {
    EXPECT_GT(r.serve.lost_bytes, 0u);
    EXPECT_GT(r.serve.lost_work_sec, 0.0);
    bool some_retry = false;
    for (const serve::QueryRecord& rec : r.serve.queries) {
      if (rec.retries > 0) {
        some_retry = true;
        EXPECT_FALSE(rec.failed);
        EXPECT_GT(rec.completion, 0u);
      }
    }
    EXPECT_TRUE(some_retry);
  }
}

TEST(FleetFaults, CrashedReplicaIsNeverBusierThanItWasAlive) {
  // bench_serve --smoke's crash-recovery run: replica 0 crashes twice
  // mid-quantum. The part of an aborted quantum after the crash never
  // ran; counting it as busy time put that replica's utilization at 1.055.
  const graph::CsrGraph g =
      graph::make_dataset(graph::DatasetId::kUrand, 10, /*weighted=*/true, 7);
  serve::FleetRequest req;
  req.base.backend = core::BackendKind::kCxl;
  req.workload.seed = 7;
  req.workload.num_queries = 48;
  req.workload.source_pool = 8;
  serve::QueryClass bfs;
  bfs.algorithm = core::Algorithm::kBfs;
  bfs.weight = 3.0;
  bfs.slo = util::ps_from_us(2'000.0);
  serve::QueryClass cc;
  cc.algorithm = core::Algorithm::kCc;
  cc.weight = 1.0;
  cc.slo = util::ps_from_us(8'000.0);
  serve::QueryClass scan = cc;
  scan.algorithm = core::Algorithm::kPagerankScan;
  req.workload.mix = {bfs, cc, scan};
  serve::FleetServer fleet(core::table3_system(), 1);

  // Offered load: 2x the one-stack capacity per replica, the capacity
  // probed as the bench does (FIFO, one replica, negligible load).
  serve::FleetRequest probe = req;
  probe.workload.offered_qps = 0.001;
  probe.workload.num_queries = 24;
  const double capacity_qps =
      1.0e6 / fleet.serve(g, probe).serve.service_us.mean;
  req.fleet.replicas = 3;
  req.fleet.router = serve::RouterKind::kJoinShortestQueue;
  req.fleet.serve.policy = serve::SchedulingPolicy::kSloPriority;
  req.workload.offered_qps = capacity_qps * 2.0 * 3;
  const double horizon_sec = 48 / req.workload.offered_qps;
  fault::FaultSpec& faults = req.fleet.faults;
  faults.seed = 0xfa017u;
  faults.horizon_sec = horizon_sec;
  faults.crashes = 2;
  faults.restart_sec = horizon_sec / 8.0;
  faults.io_bursts = 2;
  faults.io_burst_sec = horizon_sec / 6.0;
  faults.io_error_rate = 0.3;
  faults.io_retry_us = 40.0;
  faults.link_flaps = 1;
  faults.flap_sec = horizon_sec / 8.0;
  faults.flap_derate = 0.5;
  faults.max_query_retries = 3;
  faults.retry_backoff_us = 80.0;

  const serve::FleetReport r = fleet.serve(g, req);
  EXPECT_EQ(r.crashes, 2u);
  EXPECT_GT(r.serve.query_retries, 0u);  // the crashes hit in-flight work
  expect_fault_ledger_balances(r.serve);
  for (const serve::ReplicaStats& rs : r.replica_stats) {
    EXPECT_LE(rs.utilization, 1.0) << "replica " << rs.replica;
  }
}

TEST(FleetFaults, PermanentTotalOutageFailsQueriesAtRetryCap) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = fleet_request(20'000.0, 64, 2);
  const double horizon_sec =
      static_cast<double>(req.workload.num_queries) /
      req.workload.offered_qps;
  // Both replicas die permanently (no restart, no elastic replacement)
  // with a zero retry budget: every unfinished query must fail.
  req.fleet.faults.seed = 77;
  req.fleet.faults.horizon_sec = horizon_sec / 4.0;  // early in the run
  req.fleet.faults.crashes = 2;
  req.fleet.faults.restart_sec = 0.0;
  req.fleet.faults.max_query_retries = 0;

  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  EXPECT_EQ(r.crashes, 2u);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_EQ(r.replacements, 0u);
  EXPECT_GT(r.serve.failed, 0u);
  EXPECT_LT(r.availability, 1.0);
  expect_fault_ledger_balances(r.serve);
  for (const serve::QueryRecord& rec : r.serve.queries) {
    if (rec.failed) {
      EXPECT_EQ(rec.completion, 0u);  // never finished
    }
  }
}

TEST(FleetFaults, PermanentCrashTriggersElasticReplacement) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = fleet_request(20'000.0, 64, 2);
  const double horizon_sec =
      static_cast<double>(req.workload.num_queries) /
      req.workload.offered_qps;
  req.fleet.faults.seed = 77;
  req.fleet.faults.horizon_sec = horizon_sec / 2.0;
  req.fleet.faults.crashes = 1;
  req.fleet.faults.restart_sec = 0.0;       // permanent
  req.fleet.faults.provision_sec = horizon_sec / 8.0;
  req.fleet.faults.max_query_retries = 3;
  req.fleet.elastic.enabled = true;
  req.fleet.elastic.min_replicas = 1;
  req.fleet.elastic.max_replicas = 4;
  req.fleet.elastic.check_interval_sec = horizon_sec / 16.0;

  serve::FleetServer fleet(core::table3_system());
  const serve::FleetReport r = fleet.serve(g, req);
  EXPECT_EQ(r.crashes, 1u);
  EXPECT_EQ(r.restarts, 0u);
  EXPECT_GE(r.replacements, 1u);
  expect_fault_ledger_balances(r.serve);
  // The replacement is a real scaling event tied to the crash.
  bool replacement_event = false;
  for (const serve::ScalingEvent& ev : r.scaling_events) {
    replacement_event = replacement_event || ev.added;
  }
  EXPECT_TRUE(replacement_event);
  // Peak counts concurrently-routable replicas: a replacement restores
  // the fleet after the crash retired a slot, it never grows past the
  // pre-crash size on its own.
  EXPECT_EQ(r.peak_replicas, 2u);
}

TEST(FleetFaults, ExtendedConservationAcrossRoutersPoliciesAndKinds) {
  const graph::CsrGraph g = test_graph();
  serve::FleetServer fleet(core::table3_system());
  for (const serve::RouterKind router : serve::all_routers()) {
    for (const serve::SchedulingPolicy policy :
         {serve::SchedulingPolicy::kFifo,
          serve::SchedulingPolicy::kSloPriority}) {
      serve::FleetRequest req = fleet_request(12'000.0, 48, 3);
      req.fleet.router = router;
      req.fleet.serve.policy = policy;
      const double horizon_sec =
          static_cast<double>(req.workload.num_queries) /
          req.workload.offered_qps;
      req.fleet.faults = crashy_spec(horizon_sec);
      req.fleet.faults.io_bursts = 2;
      req.fleet.faults.io_burst_sec = horizon_sec / 6.0;
      req.fleet.faults.io_error_rate = 0.4;
      req.fleet.faults.link_flaps = 1;
      req.fleet.faults.flap_sec = horizon_sec / 8.0;
      req.fleet.faults.flap_derate = 0.5;
      const serve::FleetReport r = fleet.serve(g, req);
      expect_fault_ledger_balances(r.serve);
      EXPECT_EQ(r.crashes, 2u);
      EXPECT_EQ(r.link_degrade_windows, 1u);
    }
  }
}

TEST(FleetFaults, IdenticalSeedsIdenticalReportsAcrossJobs) {
  const graph::CsrGraph g = test_graph();
  serve::FleetRequest req = fleet_request(16'000.0, 48, 3);
  const double horizon_sec =
      static_cast<double>(req.workload.num_queries) /
      req.workload.offered_qps;
  req.fleet.faults = crashy_spec(horizon_sec);
  req.fleet.faults.io_bursts = 1;
  req.fleet.faults.io_burst_sec = horizon_sec / 6.0;
  req.fleet.faults.io_error_rate = 0.3;

  serve::FleetServer fleet1(core::table3_system(), 1);
  serve::FleetServer fleet4(core::table3_system(), 4);
  const serve::FleetReport a = fleet1.serve(g, req);
  const serve::FleetReport b = fleet4.serve(g, req);
  const serve::FleetReport c = fleet4.serve(g, req);  // repeat, same server
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

// A restart delay that fits in picoseconds on its own can still carry the
// revival past the last picosecond once added to the crash time. The
// simulator rejects that push instead of wrapping the clock, which used
// to revive the replica at once.
TEST(FleetFaults, FaultDelaysPastTheLastPicosecondAreRejected) {
  const graph::CsrGraph g = test_graph();
  serve::FleetServer fleet(core::table3_system());
  // 48 queries at 4000 qps keep the fleet busy past every fault drawn
  // over the first 8 ms; a fault after the workload drains is skipped.
  serve::FleetRequest req = fleet_request(4000.0, 48, 3);
  req.fleet.faults.horizon_sec = 0.008;
  req.fleet.faults.crashes = 2;
  // 18,446,744,000 ms: the revival lands near, but before, 2^64 ps.
  req.fleet.faults.restart_sec = 18'446'744.0;
  const serve::FleetReport fits = fleet.serve(g, req);
  EXPECT_GT(fits.crashes, 0u);
  EXPECT_GT(fits.restarts, 0u);
  // 18,446,744,073.7 ms: crash time plus restart passes 2^64 ps.
  req.fleet.faults.restart_sec = 18'446'744'073.7e-3;
  try {
    fleet.serve(g, req);
    FAIL() << "a revival past the last picosecond was scheduled";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("overflows"), std::string::npos)
        << e.what();
  }
  // I/O-burst and link-flap windows end the same way.
  req.fleet.faults.crashes = 0;
  req.fleet.faults.io_bursts = 1;
  req.fleet.faults.io_burst_sec = 18'446'744'073.7e-3;
  req.fleet.faults.io_error_rate = 0.3;
  EXPECT_THROW(fleet.serve(g, req), std::overflow_error);
  req.fleet.faults.io_bursts = 0;
  req.fleet.faults.link_flaps = 1;
  req.fleet.faults.flap_sec = 18'446'744'073.7e-3;
  req.fleet.faults.flap_derate = 0.5;
  EXPECT_THROW(fleet.serve(g, req), std::overflow_error);
}

// A derated link stretches each quantum by 1 / derate - 1. Any derate in
// (0, 1] passes validation, and a tiny one stretches a quantum past
// 2^64 ps: the serve must throw, not cast.
TEST(FleetFaults, LinkDeratedQuantumPastTheLastPicosecondThrows) {
  const graph::CsrGraph g = golden::smoke_graph();
  serve::QueryServer fleet(core::table4_system());
  serve::FleetRequest req = golden::smoke_fleet_faults_request();
  req.fleet.faults.flap_derate = 1e-300;
  try {
    fleet.serve(g, req);
    FAIL() << "a quantum stretched past the last picosecond was served";
  } catch (const std::overflow_error& e) {
    EXPECT_NE(std::string(e.what()).find("link-derated quantum"),
              std::string::npos)
        << e.what();
  }
}

TEST(FleetFaults, InvalidSpecsRejectedThroughFleetValidate) {
  const graph::CsrGraph g = test_graph();
  serve::FleetServer fleet(core::table3_system());
  serve::FleetRequest req = fleet_request(4000.0, 8, 2);
  req.fleet.faults.crashes = 1;  // enabled but horizon == 0
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
  req.fleet.faults.horizon_sec = 0.01;
  req.fleet.faults.restart_sec = -1.0;
  EXPECT_THROW(fleet.serve(g, req), std::invalid_argument);
}

}  // namespace
}  // namespace cxlgraph
