/// Tests for the write-path extension (paper Sec. 5): link upstream
/// serialization, device write models, write coalescing, RMW cycles, and
/// the end-to-end write-back workload.

#include <gtest/gtest.h>

#include "access/emogi.hpp"
#include "access/xlfdd_direct.hpp"
#include "algo/bfs.hpp"
#include "closure_sim.hpp"
#include "ready_log.hpp"
#include "core/runtime.hpp"
#include "device/cxl_device.hpp"
#include "device/host_dram.hpp"
#include "device/xlfdd.hpp"
#include "gpusim/engine.hpp"
#include "graph/datasets.hpp"
#include "graph/generate.hpp"

namespace cxlgraph {
namespace {

using device::PcieGen;
using device::PcieLink;
using sim::ClosureSim;
using sim::SimTime;
using sim::Simulator;
using util::ps_from_us;

// ---------------------------------------------------------- link writes ----

TEST(LinkWrites, WriteCompletesAndCountsBytes) {
  ClosureSim sim;
  PcieLink link(sim, device::pcie_x16(PcieGen::kGen4));
  device::HostDram dram(sim, device::HostDramParams{});
  bool done = false;
  link.memory_write(dram, 0, 64, sim.make_callback([&] { done = true; }));
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(link.stats().memory_writes, 1u);
  EXPECT_EQ(link.stats().bytes_written, 64u);
}

TEST(LinkWrites, WritesShareTheTagBudgetWithReads) {
  ClosureSim sim;
  const auto lp = device::pcie_x16(PcieGen::kGen3);
  PcieLink link(sim, lp);
  device::HostDramParams dp;
  dp.access_latency = ps_from_us(4.0);
  device::HostDram dram(sim, dp);
  int completions = 0;
  for (int i = 0; i < 2'000; ++i) {
    link.memory_read(dram, static_cast<std::uint64_t>(i) * 64, 64,
                     sim.make_callback([&] { ++completions; }));
    link.memory_write(dram, static_cast<std::uint64_t>(i) * 64, 64,
                      sim.make_callback([&] { ++completions; }));
    EXPECT_LE(link.tags_in_use(), lp.n_max);
  }
  sim.run();
  EXPECT_EQ(completions, 4'000);
  EXPECT_EQ(link.tags_in_use(), 0u);
}

TEST(LinkWrites, UpstreamDoesNotStealDownstreamBandwidth) {
  // Full duplex: saturating reads should be unaffected by concurrent
  // storage-write payload transfers.
  auto read_mbps = [](bool with_writes) {
    ClosureSim sim;
    const auto lp = device::pcie_x16(PcieGen::kGen4);
    PcieLink link(sim, lp);
    device::HostDram dram(sim, device::HostDramParams{});
    SimTime last = 0;
    const int reads = 10'000;
    for (int i = 0; i < reads; ++i) {
      link.memory_read(dram, static_cast<std::uint64_t>(i) * 128, 128,
                       sim.make_callback([&] { last = sim.now(); }));
      if (with_writes) link.upstream_transfer(128, sim.make_callback([] {}));
    }
    sim.run();
    return util::mbps_from(static_cast<std::uint64_t>(reads) * 128, last);
  };
  EXPECT_NEAR(read_mbps(true), read_mbps(false), read_mbps(false) * 0.02);
}

// -------------------------------------------------------- device writes ----

TEST(DeviceWrites, DefaultDeviceIsReadOnly) {
  // A device type that does not override write() reports itself read-only.
  class ReadOnlyDevice final : public device::MemoryDevice {
   public:
    explicit ReadOnlyDevice(Simulator& sim) : sim_(sim) {
      caps_.name = "ro-dev";
    }
    void read(std::uint64_t, std::uint32_t, device::ReadyFn ready) override {
      ready.announce(sim_.now() + 1);
    }
    const device::DeviceCaps& caps() const noexcept override {
      return caps_;
    }
    const device::DeviceStats& stats() const noexcept override {
      return stats_;
    }

   private:
    Simulator& sim_;
    device::DeviceCaps caps_;
    device::DeviceStats stats_;
  };
  ClosureSim sim;
  ReadOnlyDevice dev(sim);
  device::ReadyLog ready(sim);
  EXPECT_THROW(dev.write(0, 64, ready()), std::logic_error);
}

TEST(DeviceWrites, CxlWriteSlowerThanReadByCoherency) {
  ClosureSim sim;
  device::CxlDeviceParams p;
  device::CxlDevice dev(sim, p, "dev");
  device::ReadyLog ready(sim);
  SimTime read_done = 0;
  SimTime write_done = 0;
  dev.read(0, 64, ready([&] { read_done = sim.now(); }));
  sim.run();
  const SimTime read_latency = read_done;
  ClosureSim sim2;
  device::CxlDevice dev2(sim2, p, "dev2");
  device::ReadyLog ready2(sim2);
  dev2.write(0, 64, ready2([&] { write_done = sim2.now(); }));
  sim2.run();
  EXPECT_EQ(write_done - read_latency, p.write_coherency_overhead);
  EXPECT_EQ(ready.times, std::vector<SimTime>{read_done});
  EXPECT_EQ(ready2.times, std::vector<SimTime>{write_done});
}

TEST(DeviceWrites, StorageWriteDominatedByProgramLatency) {
  ClosureSim sim;
  PcieLink link(sim, device::pcie_x16(PcieGen::kGen4));
  device::StorageDriveParams p = device::xlfdd_drive_params();
  device::StorageDrive drive(sim, link, p);
  SimTime done_at = 0;
  drive.submit_write(0, 512, sim.make_callback([&] { done_at = sim.now(); }));
  sim.run();
  EXPECT_GE(done_at, p.program_latency);
  EXPECT_LT(done_at, p.program_latency + ps_from_us(5.0));
}

TEST(DeviceWrites, WriteIopsCapSustainedRate) {
  ClosureSim sim;
  PcieLink link(sim, device::pcie_x16(PcieGen::kGen4));
  device::StorageDriveParams p = device::xlfdd_drive_params();
  p.queue_depth = 1024;
  device::StorageDrive drive(sim, link, p);
  const int writes = 5'000;
  SimTime last = 0;
  for (int i = 0; i < writes; ++i) {
    drive.submit_write(static_cast<std::uint64_t>(i) * 512, 512,
                       sim.make_callback([&] { last = sim.now(); }));
  }
  sim.run();
  const double iops =
      static_cast<double>(writes) / util::sec_from_ps(last);
  EXPECT_NEAR(iops, p.write_iops, p.write_iops * 0.05);
}

// ------------------------------------------------------- engine writes ----

algo::AccessTrace writeback_trace(const graph::CsrGraph& g,
                                  std::uint64_t seed) {
  return algo::build_writeback_trace(
      g, algo::bfs(g, algo::pick_source(g, seed)).frontiers);
}

TEST(EngineWrites, WritebackTraceHasOneWritePerReachedVertex) {
  const graph::CsrGraph g = graph::generate_uniform(2048, 8.0, {});
  const graph::VertexId s = algo::pick_source(g, 1);
  const auto bfs = algo::bfs(g, s);
  const auto trace = algo::build_writeback_trace(g, bfs.frontiers);
  EXPECT_EQ(trace.total_writes, bfs.reached_vertices());
  EXPECT_EQ(trace.total_write_bytes, bfs.reached_vertices() * 8);
}

TEST(EngineWrites, WritesLandInResultRegion) {
  const graph::CsrGraph g = graph::generate_uniform(512, 8.0, {});
  const auto trace = writeback_trace(g, 2);
  for (const auto& w : trace.write_arena) {
    EXPECT_GE(w.addr, g.edge_list_bytes());
  }
}

TEST(EngineWrites, EngineAccountsWrites) {
  Simulator sim;
  PcieLink link(sim, device::pcie_x16(PcieGen::kGen4));
  device::HostDram dram(sim, device::HostDramParams{});
  access::EmogiParams ep;
  access::EmogiAccess method(ep);
  access::MemoryPathBackend backend(link, dram);
  gpusim::TraversalEngine engine(sim, method, backend,
                                 gpusim::GpuParams{});
  const graph::CsrGraph g = graph::generate_uniform(2048, 8.0, {});
  const auto trace = writeback_trace(g, 3);
  const auto r = engine.run(trace);
  EXPECT_EQ(r.write_payload_bytes, trace.total_write_bytes);
  // Alignment rounding + coalescing: written >= payload, and dense sorted
  // 8 B writes coalesce well below one transaction per write.
  EXPECT_GE(r.written_bytes, r.write_payload_bytes);
  EXPECT_LT(r.write_transactions, trace.total_writes);
  EXPECT_EQ(r.rmw_reads, 0u);  // memory path: byte-enabled writes
  EXPECT_EQ(link.stats().bytes_written, r.written_bytes);
}

TEST(EngineWrites, StorageWritesTriggerRmwOnPartialUnits) {
  Simulator sim;
  PcieLink link(sim, device::pcie_x16(PcieGen::kGen4));
  device::StorageArray array(sim, link, device::xlfdd_drive_params(), 4,
                            device::kXlfddStripeBytes);
  access::XlfddDirectAccess method;
  access::StoragePathBackend backend(array, "xlfdd");
  gpusim::TraversalEngine engine(sim, method, backend,
                                 gpusim::GpuParams{});
  // A sparse graph: isolated 8 B writes inside 16 B units -> RMW.
  const graph::CsrGraph g = graph::generate_uniform(512, 2.0, {});
  const auto trace = writeback_trace(g, 4);
  const auto r = engine.run(trace);
  EXPECT_GT(r.write_transactions, 0u);
  EXPECT_GT(r.rmw_reads, 0u);
}

TEST(EngineWrites, WritesMakeStepsSlowerNotCheaper) {
  auto runtime = [](bool with_writes) {
    Simulator sim;
    PcieLink link(sim, device::pcie_x16(PcieGen::kGen3));
    device::HostDram dram(sim, device::HostDramParams{});
    access::EmogiParams ep;
    access::EmogiAccess method(ep);
    access::MemoryPathBackend backend(link, dram);
    gpusim::TraversalEngine engine(sim, method, backend,
                                   gpusim::GpuParams{});
    const graph::CsrGraph g = graph::generate_uniform(2048, 8.0, {});
    const graph::VertexId s = algo::pick_source(g, 5);
    const auto frontiers = algo::bfs(g, s).frontiers;
    const auto trace = with_writes
                           ? algo::build_writeback_trace(g, frontiers)
                           : algo::build_trace(g, frontiers);
    return engine.run(trace).total_time;
  };
  EXPECT_GT(runtime(true), runtime(false));
}

// ----------------------------------------------------------- core level ----

TEST(CoreWrites, WritebackRunsOnAllWritableBackends) {
  const graph::CsrGraph g = graph::make_dataset(graph::DatasetId::kUrand,
                                                11, false, 6);
  core::ExternalGraphRuntime rt(core::table4_system());
  for (const auto backend :
       {core::BackendKind::kHostDram, core::BackendKind::kCxl,
        core::BackendKind::kXlfdd, core::BackendKind::kBamNvme}) {
    core::RunRequest req;
    req.algorithm = core::Algorithm::kBfsWriteback;
    req.backend = backend;
    const auto r = rt.run(g, req);
    EXPECT_GT(r.written_bytes, 0u) << core::to_string(backend);
    EXPECT_GT(r.write_transactions, 0u) << core::to_string(backend);
  }
}

TEST(CoreWrites, FlashWritePenaltyExceedsCxlPenalty) {
  const graph::CsrGraph g = graph::make_dataset(graph::DatasetId::kUrand,
                                                12, false, 7);
  core::ExternalGraphRuntime rt(core::table4_system());
  auto penalty = [&](core::BackendKind backend) {
    core::RunRequest ro;
    ro.backend = backend;
    core::RunRequest rw = ro;
    rw.algorithm = core::Algorithm::kBfsWriteback;
    return rt.run(g, rw).runtime_sec / rt.run(g, ro).runtime_sec;
  };
  EXPECT_GT(penalty(core::BackendKind::kXlfdd),
            penalty(core::BackendKind::kCxl));
}

}  // namespace
}  // namespace cxlgraph
