/// Tests for tiered DRAM+CXL placement.

#include <gtest/gtest.h>

#include "closure_sim.hpp"
#include "core/runtime.hpp"
#include "device/cxl_device.hpp"
#include "device/host_dram.hpp"
#include "device/tiered.hpp"
#include "graph/datasets.hpp"
#include "graph/reorder.hpp"

namespace cxlgraph {
namespace {

using device::TieredMemory;
using device::TieredMemoryParams;

struct Fixture {
  sim::ClosureSim sim;
  device::HostDram dram;
  device::CxlDevice cxl;

  Fixture()
      : dram(sim, device::HostDramParams{}, "fast"),
        cxl(sim, device::CxlDeviceParams{}, "slow") {}
};

TEST(Tiered, RangeSplitRoutesByAddress) {
  Fixture f;
  TieredMemoryParams p;
  p.fast_bytes = 1 << 20;
  TieredMemory tiered(f.dram, f.cxl, p);
  EXPECT_TRUE(tiered.is_fast(0));
  EXPECT_TRUE(tiered.is_fast((1 << 20) - 1));
  EXPECT_FALSE(tiered.is_fast(1 << 20));

  tiered.read(1024, 64, f.sim.make_callback([] {}));
  tiered.read(2 << 20, 64, f.sim.make_callback([] {}));
  f.sim.run();
  EXPECT_EQ(tiered.fast_requests(), 1u);
  EXPECT_EQ(tiered.slow_requests(), 1u);
  EXPECT_EQ(f.dram.stats().requests, 1u);
  EXPECT_EQ(f.cxl.stats().requests, 1u);
}

TEST(Tiered, WritesRouteLikeReads) {
  Fixture f;
  TieredMemoryParams p;
  p.fast_bytes = 4096;
  TieredMemory tiered(f.dram, f.cxl, p);
  tiered.write(0, 64, f.sim.make_callback([] {}));
  tiered.write(8192, 64, f.sim.make_callback([] {}));
  f.sim.run();
  EXPECT_EQ(tiered.fast_requests(), 1u);
  EXPECT_EQ(tiered.slow_requests(), 1u);
}

TEST(Tiered, AggregateStatsSumBothTiers) {
  Fixture f;
  TieredMemoryParams p;
  p.fast_bytes = 4096;
  TieredMemory tiered(f.dram, f.cxl, p);
  for (int i = 0; i < 10; ++i) {
    tiered.read(static_cast<std::uint64_t>(i) * 1024, 64, f.sim.make_callback([] {}));
  }
  f.sim.run();
  EXPECT_EQ(tiered.stats().requests, 10u);
  EXPECT_EQ(tiered.stats().bytes, 640u);
}

TEST(Tiered, CompositeCapsAreTheStricterOfBoth) {
  Fixture f;
  TieredMemoryParams p;
  p.fast_bytes = 4096;
  TieredMemory tiered(f.dram, f.cxl, p);
  EXPECT_EQ(tiered.caps().max_transfer, 128u);
  EXPECT_TRUE(tiered.caps().memory_semantics);
}

// --------------------------------------------------------------- core ----

TEST(TieredCore, BackendRunsEndToEnd) {
  const graph::CsrGraph g = graph::make_dataset(graph::DatasetId::kUrand,
                                                11, false, 3);
  core::ExternalGraphRuntime rt(core::table4_system());
  core::RunRequest req;
  req.backend = core::BackendKind::kTieredDramCxl;
  req.cxl_added_latency = util::ps_from_us(2.0);
  const auto r = rt.run(g, req);
  EXPECT_GT(r.runtime_sec, 0.0);
  EXPECT_EQ(r.backend, "tiered-dram-cxl");
}

TEST(TieredCore, RuntimeSitsBetweenAllDramAndAllCxl) {
  const graph::CsrGraph g = graph::reorder(
      graph::make_dataset(graph::DatasetId::kFriendster, 12, false, 4),
      graph::VertexOrder::kDegreeSorted, 4);
  core::ExternalGraphRuntime rt(core::table4_system());
  core::RunRequest req;
  req.cxl_added_latency = util::ps_from_us(4.0);

  req.backend = core::BackendKind::kHostDram;
  const double t_dram = rt.run(g, req).runtime_sec;
  req.backend = core::BackendKind::kCxl;
  const double t_cxl = rt.run(g, req).runtime_sec;
  req.backend = core::BackendKind::kTieredDramCxl;
  req.cache_bytes = g.edge_list_bytes() / 2;
  const double t_tiered = rt.run(g, req).runtime_sec;

  EXPECT_GT(t_cxl, t_dram);
  EXPECT_LE(t_tiered, t_cxl * 1.02);
  EXPECT_GE(t_tiered, t_dram * 0.98);
}

TEST(TieredCore, BiggerHotTierIsNotSlower) {
  const graph::CsrGraph g = graph::reorder(
      graph::make_dataset(graph::DatasetId::kFriendster, 12, false, 5),
      graph::VertexOrder::kDegreeSorted, 5);
  core::ExternalGraphRuntime rt(core::table4_system());
  core::RunRequest req;
  req.backend = core::BackendKind::kTieredDramCxl;
  req.cxl_added_latency = util::ps_from_us(4.0);
  double prev = 1e9;
  for (const double fraction : {0.1, 0.5, 0.9}) {
    req.cache_bytes = static_cast<std::uint64_t>(
        fraction * static_cast<double>(g.edge_list_bytes()));
    const double t = rt.run(g, req).runtime_sec;
    EXPECT_LE(t, prev * 1.02) << fraction;
    prev = t;
  }
}

}  // namespace
}  // namespace cxlgraph
