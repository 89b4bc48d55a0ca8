/// Bit-identity contract of the simulator: the golden table of
/// golden_suite.hpp, checked in tier 1.
///
/// The event core was rewritten from std::function callbacks on a
/// priority_queue to type-tagged POD events on FIFO lanes + a heap of lane
/// heads; the first table was captured from the *pre-rewrite* core. The
/// table has since been re-pinned only when its folds widened — the old,
/// narrower folds still reproduce the pre-rewrite values — so every
/// simulated report on the smoke configuration is pinned bit-for-bit:
/// BFS on all seven backends, the write-back and delta-stepping paths, a
/// sharded cluster run, a serving mix, a thermal soak, a fleet with and
/// without faults, a closed-loop elastic fleet replacing crashed
/// replicas, and the Fig.-9 and Fig.-10 latency probes. The core may get faster; it may not drift by one
/// bit. The suite is also run twice (run-to-run identity) and once with a
/// fully-enabled telemetry sink (observing must not perturb).
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

#include "golden_suite.hpp"

namespace cxlgraph {
namespace {

const graph::CsrGraph& smoke_graph() {
  static const graph::CsrGraph g = golden::smoke_graph();
  return g;
}

const std::vector<std::uint64_t>& smoke_checksums() {
  static const std::vector<std::uint64_t> sums =
      golden::compute_checksums(smoke_graph());
  return sums;
}

/// Checks the named rows of the golden table against the computed suite.
void expect_goldens(std::initializer_list<std::string_view> names) {
  const std::vector<std::uint64_t>& sums = smoke_checksums();
  ASSERT_EQ(sums.size(), std::size(golden::kGoldens));
  for (const std::string_view name : names) {
    std::size_t row = 0;
    while (row < sums.size() && golden::kGoldens[row].name != name) ++row;
    ASSERT_LT(row, sums.size()) << "no golden case named " << name;
    EXPECT_EQ(sums[row], golden::kGoldens[row].checksum)
        << "simulated results drifted on " << name;
  }
}

TEST(SimCoreIdentity, BfsReportsMatchPreRewriteCoreOnAllBackends) {
  expect_goldens({"bfs/host-dram", "bfs/host-dram-remote", "bfs/cxl",
                  "bfs/xlfdd", "bfs/bam-nvme", "bfs/uvm",
                  "bfs/tiered-dram-cxl"});
}

TEST(SimCoreIdentity, WritePathAndDeltaReportsMatchPreRewriteCore) {
  // Write-back on the storage (RMW) and memory (coherency) paths, then
  // delta-stepping replay.
  expect_goldens({"bfs-writeback/xlfdd", "bfs-writeback/cxl",
                  "sssp-delta/cxl"});
}

TEST(SimCoreIdentity, ClusterReportMatchesPreRewriteCore) {
  expect_goldens({"cluster-bfs-x2/cxl"});
}

TEST(SimCoreIdentity, ServeReportsMatchGoldens) {
  expect_goldens({"serve-mix/cxl", "serve-soak-throttled/cxl"});
}

TEST(SimCoreIdentity, FleetReportsMatchGoldens) {
  expect_goldens({"fleet-serve/cxl", "fleet-faults/cxl", "fleet-elastic/cxl"});
}

TEST(SimCoreIdentity, LatencyProbesMatchGoldens) {
  // Fig. 9's pointer chase and Fig. 10's CPU probe at +2 us, exactly:
  // the figure tables print only two decimals.
  expect_goldens({"probe-chase/cxl", "probe-cpu/cxl"});
}

TEST(SimCoreIdentity, RepeatedSuiteIsIdentical) {
  EXPECT_EQ(golden::compute_checksums(smoke_graph()), smoke_checksums());
}

TEST(SimCoreIdentity, SuiteIsIdenticalWithTelemetryOn) {
  // Every hook only reads state, never schedules, so a fully-enabled
  // sink tapping every layer leaves every checksum where it was. The
  // sink must have captured spans and metrics, so a silently detached
  // hook cannot pass vacuously.
  obs::Telemetry telemetry(obs::Telemetry::enabled_config());
  EXPECT_EQ(golden::compute_checksums(smoke_graph(), &telemetry),
            smoke_checksums());
  EXPECT_FALSE(telemetry.tracer().empty());
  EXPECT_GT(telemetry.metrics().size(), 0u);
}

}  // namespace
}  // namespace cxlgraph
