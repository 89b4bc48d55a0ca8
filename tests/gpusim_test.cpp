#include <gtest/gtest.h>

#include "access/emogi.hpp"
#include "access/xlfdd_direct.hpp"
#include "algo/bfs.hpp"
#include "closure_sim.hpp"
#include "core/runtime.hpp"
#include "device/cxl_device.hpp"
#include "device/host_dram.hpp"
#include "device/xlfdd.hpp"
#include "gpusim/cpu_probe.hpp"
#include "gpusim/engine.hpp"
#include "gpusim/pointer_chase.hpp"
#include "graph/generate.hpp"

namespace cxlgraph::gpusim {
namespace {

using util::ps_from_us;

algo::AccessTrace small_trace(std::uint64_t vertices = 4096,
                              double degree = 16.0) {
  const graph::CsrGraph g = graph::generate_uniform(vertices, degree, {});
  return algo::build_trace(
      g, algo::bfs(g, algo::pick_source(g, 1)).frontiers);
}

// -------------------------------------------------------------- engine ----

TEST(Engine, RejectsZeroWarps) {
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
  device::HostDram dram(sim, device::HostDramParams{});
  access::EmogiParams ep;
  access::EmogiAccess method(ep);
  access::MemoryPathBackend backend(link, dram);
  GpuParams gp;
  gp.num_warps = 0;
  EXPECT_THROW(TraversalEngine(sim, method, backend, gp),
               std::invalid_argument);
}

TEST(Engine, ConservesBytes) {
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
  device::HostDram dram(sim, device::HostDramParams{});
  access::EmogiParams ep;
  ep.gpu_cache_bytes = 0;
  access::EmogiAccess method(ep);
  access::MemoryPathBackend backend(link, dram);
  TraversalEngine engine(sim, method, backend, GpuParams{});

  const algo::AccessTrace trace = small_trace();
  const EngineResult r = engine.run(trace);

  EXPECT_EQ(r.used_bytes, trace.total_sublist_bytes);
  EXPECT_EQ(r.sublist_reads, trace.total_reads);
  // Everything the engine issued actually crossed the link.
  EXPECT_EQ(r.fetched_bytes, link.stats().bytes_delivered);
  EXPECT_GE(r.fetched_bytes, r.used_bytes);  // uncached: RAF >= 1
  EXPECT_EQ(r.steps.size(), trace.num_steps());
}

TEST(Engine, StepDurationsSumToTotal) {
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
  device::HostDram dram(sim, device::HostDramParams{});
  access::EmogiParams ep;
  access::EmogiAccess method(ep);
  access::MemoryPathBackend backend(link, dram);
  TraversalEngine engine(sim, method, backend, GpuParams{});
  const EngineResult r = engine.run(small_trace());
  sim::SimTime sum = 0;
  for (const auto& s : r.steps) sum += s.duration;
  EXPECT_EQ(sum, r.total_time);
}

TEST(Engine, EmptyTraceCostsNothing) {
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
  device::HostDram dram(sim, device::HostDramParams{});
  access::EmogiParams ep;
  access::EmogiAccess method(ep);
  access::MemoryPathBackend backend(link, dram);
  TraversalEngine engine(sim, method, backend, GpuParams{});
  const EngineResult r = engine.run(algo::AccessTrace{});
  EXPECT_EQ(r.total_time, 0u);
  EXPECT_EQ(r.transactions, 0u);
}

TEST(Engine, SaturatesLinkOnLargeFrontiers) {
  sim::Simulator sim;
  const auto lp = device::pcie_x16(device::PcieGen::kGen4);
  device::PcieLink link(sim, lp);
  device::HostDram dram(sim, device::HostDramParams{});
  access::EmogiParams ep;
  ep.gpu_cache_bytes = 0;
  access::EmogiAccess method(ep);
  access::MemoryPathBackend backend(link, dram);
  GpuParams gp;
  gp.step_launch_overhead = 0;  // isolate steady-state throughput
  TraversalEngine engine(sim, method, backend, gp);

  // One big step: a dense frontier the size of the whole graph.
  const graph::CsrGraph g = graph::generate_uniform(1 << 14, 32.0, {});
  const algo::AccessTrace trace = algo::build_sequential_trace(g, 1);
  const EngineResult r = engine.run(trace);
  // DRAM is fast, warps >> N_max: expect ~W (within launch/tail effects).
  EXPECT_GT(r.throughput_mbps(), 0.85 * lp.bandwidth_mbps);
  EXPECT_LE(r.throughput_mbps(), 1.02 * lp.bandwidth_mbps);
}

TEST(Engine, MoreWarpsNeverSlower) {
  auto runtime_with_warps = [](std::uint32_t warps) {
    sim::Simulator sim;
    device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
    device::HostDramParams dp;
    dp.access_latency = ps_from_us(2.0);  // latency-sensitive regime
    device::HostDram dram(sim, dp);
    access::EmogiParams ep;
    ep.gpu_cache_bytes = 0;
    access::EmogiAccess method(ep);
    access::MemoryPathBackend backend(link, dram);
    GpuParams gp;
    gp.num_warps = warps;
    TraversalEngine engine(sim, method, backend, gp);
    return engine.run(small_trace(1 << 13, 16.0)).total_time;
  };
  const auto t32 = runtime_with_warps(32);
  const auto t256 = runtime_with_warps(256);
  const auto t2048 = runtime_with_warps(2048);
  EXPECT_GT(t32, t256);
  EXPECT_GE(t256, t2048);
}

TEST(Engine, MlpSpeedsUpLatencyBoundWork) {
  auto runtime_with_mlp = [](std::uint32_t mlp) {
    sim::Simulator sim;
    device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
    device::HostDramParams dp;
    dp.access_latency = ps_from_us(4.0);
    device::HostDram dram(sim, dp);
    access::EmogiParams ep;
    ep.gpu_cache_bytes = 0;
    access::EmogiAccess method(ep);
    access::MemoryPathBackend backend(link, dram);
    GpuParams gp;
    gp.num_warps = 64;  // few warps: per-warp pipelining matters
    gp.warp_mlp = mlp;
    TraversalEngine engine(sim, method, backend, gp);
    return engine.run(small_trace(1 << 13, 16.0)).total_time;
  };
  EXPECT_GT(runtime_with_mlp(1), runtime_with_mlp(4));
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Simulator sim;
    device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
    device::HostDram dram(sim, device::HostDramParams{});
    access::EmogiParams ep;
    access::EmogiAccess method(ep);
    access::MemoryPathBackend backend(link, dram);
    TraversalEngine engine(sim, method, backend, GpuParams{});
    return engine.run(small_trace()).total_time;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, StorageBackendWorksEndToEnd) {
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
  device::StorageArray array(sim, link, device::xlfdd_drive_params(),
                            device::kXlfddArrayDrives,
                            device::kXlfddStripeBytes);
  access::XlfddDirectAccess method;
  access::StoragePathBackend backend(array, "xlfdd");
  TraversalEngine engine(sim, method, backend, GpuParams{});
  const algo::AccessTrace trace = small_trace();
  const EngineResult r = engine.run(trace);
  EXPECT_EQ(r.used_bytes, trace.total_sublist_bytes);
  EXPECT_GE(r.fetched_bytes, r.used_bytes);
  EXPECT_GT(r.total_time, 0u);
}

// Reads that EMOGI's cache holds whole expand to no transactions, and a
// step may read nothing (writes only, or nothing at all). Both replays,
// step by step and from expand_trace, must give what the engine gave when
// each warp expanded a read as it pulled it: the fold is pinned on that
// engine.
TEST(Engine, CachedReadsAndReadlessStepsReplayAsBefore) {
  algo::AccessTrace trace;
  for (std::uint64_t v = 0; v < 256; ++v) trace.add_sublist(v, v * 96, 96);
  trace.commit_step();
  // Every fourth read is new; the others hit lines step 0 brought in.
  for (std::uint64_t v = 0; v < 256; ++v) {
    trace.add_sublist(v, (v % 4 == 0 ? 65536 : 0) + v * 96, 96);
  }
  trace.commit_step();
  for (std::uint64_t v = 0; v < 64; ++v) trace.add_write({v * 8, 8});
  trace.commit_step();
  trace.commit_step(/*keep_if_empty=*/true);

  GpuParams gp;
  gp.num_warps = 32;
  const auto replay = [&trace, &gp](bool whole) {
    sim::Simulator sim;
    device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
    device::HostDram dram(sim, device::HostDramParams{});
    access::EmogiAccess method(access::EmogiParams{});
    access::MemoryPathBackend backend(link, dram);
    TraversalEngine engine(sim, method, backend, gp);
    return whole ? engine.run(trace, expand_trace(method, trace))
                 : engine.run(trace);
  };
  for (const bool whole : {false, true}) {
    SCOPED_TRACE(whole ? "whole-trace expansion" : "per-step expansion");
    const EngineResult r = replay(whole);
    ASSERT_EQ(r.steps.size(), 4u);
    EXPECT_EQ(r.steps[1].sublist_reads, 256u);
    EXPECT_EQ(r.steps[1].used_bytes, 256u * 96);
    EXPECT_EQ(r.steps[2].sublist_reads, 0u);
    EXPECT_GT(r.steps[2].write_transactions, 0u);
    EXPECT_EQ(r.steps[3].duration, gp.step_launch_overhead);
    std::uint64_t fold = 0xcbf29ce484222325ULL;
    const auto mix = [&fold](std::uint64_t x) {
      fold = (fold ^ x) * 0x100000001b3ULL;
    };
    mix(r.total_time);
    for (const StepResult& s : r.steps) {
      for (const std::uint64_t x :
           {s.duration, s.sublist_reads, s.transactions, s.fetched_bytes,
            s.used_bytes, s.write_transactions, s.written_bytes,
            s.write_payload_bytes, s.rmw_reads}) {
        mix(x);
      }
    }
    EXPECT_EQ(fold, 0x633c6823ca3f0511ULL);
  }
}

// --------------------------------------------------------- return path ----

/// Forwards every request to `inner` and makes no ready-order promise, so
/// a link in front of it holds every read's return for a kReadReady.
class NoOrderPromise final : public device::MemoryDevice {
 public:
  explicit NoOrderPromise(device::MemoryDevice& inner) : inner_(inner) {}
  void read(std::uint64_t addr, std::uint32_t bytes,
            device::ReadyFn ready) override {
    inner_.read(addr, bytes, ready);
  }
  void write(std::uint64_t addr, std::uint32_t bytes,
             device::ReadyFn ready) override {
    inner_.write(addr, bytes, ready);
  }
  const device::DeviceCaps& caps() const noexcept override {
    return inner_.caps();
  }
  const device::DeviceStats& stats() const noexcept override {
    return inner_.stats();
  }

 private:
  device::MemoryDevice& inner_;
};

/// What one replay leaves: the engine's result, the link's counters and
/// the simulator's event count.
struct Replay {
  EngineResult engine;
  device::PcieLinkStats link;
  std::uint64_t events = 0;
};

enum class Memory { kHostDram, kCxlPool };

/// Replays `trace` on the Table-4 stack for `memory`, with the device
/// itself or behind NoOrderPromise.
Replay replay(const algo::AccessTrace& trace, Memory memory,
              SimTime added_latency, bool promise) {
  const core::SystemConfig cfg = core::table4_system();
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(cfg.gpu_link_gen));
  std::unique_ptr<device::MemoryDevice> dev;
  if (memory == Memory::kCxlPool) {
    device::CxlDeviceParams cp = cfg.cxl;
    cp.added_latency = added_latency;
    dev = std::make_unique<device::CxlMemoryPool>(sim, cp, cfg.cxl_devices,
                                                  cfg.cxl_interleave_bytes);
  } else {
    dev = std::make_unique<device::HostDram>(sim, cfg.dram_local);
  }
  NoOrderPromise held(*dev);
  access::EmogiAccess method(cfg.emogi);
  access::MemoryPathBackend backend(link, promise ? *dev : held);
  TraversalEngine engine(sim, method, backend, cfg.gpu);
  Replay r;
  r.engine = engine.run(trace);
  r.link = link.stats();
  r.events = sim.events_processed();
  return r;
}

void expect_same_stats(const util::OnlineStats& a, const util::OnlineStats& b,
                       const char* what) {
  EXPECT_EQ(a.count(), b.count()) << what;
  EXPECT_EQ(a.mean(), b.mean()) << what;
  EXPECT_EQ(a.min(), b.min()) << what;
  EXPECT_EQ(a.max(), b.max()) << what;
}

/// Every simulated value of two replays, all but the event count.
void expect_same_replay(const Replay& a, const Replay& b) {
  EXPECT_EQ(a.engine.total_time, b.engine.total_time);
  EXPECT_EQ(a.engine.fetched_bytes, b.engine.fetched_bytes);
  EXPECT_EQ(a.engine.transactions, b.engine.transactions);
  EXPECT_EQ(a.engine.written_bytes, b.engine.written_bytes);
  EXPECT_EQ(a.engine.write_transactions, b.engine.write_transactions);
  ASSERT_EQ(a.engine.steps.size(), b.engine.steps.size());
  for (std::size_t s = 0; s < a.engine.steps.size(); ++s) {
    EXPECT_EQ(a.engine.steps[s].duration, b.engine.steps[s].duration) << s;
    EXPECT_EQ(a.engine.steps[s].fetched_bytes,
              b.engine.steps[s].fetched_bytes)
        << s;
  }
  EXPECT_EQ(a.link.memory_reads, b.link.memory_reads);
  EXPECT_EQ(a.link.memory_writes, b.link.memory_writes);
  EXPECT_EQ(a.link.bytes_delivered, b.link.bytes_delivered);
  EXPECT_EQ(a.link.bytes_written, b.link.bytes_written);
  EXPECT_EQ(a.link.return_busy_time, b.link.return_busy_time);
  EXPECT_EQ(a.link.upstream_busy_time, b.link.upstream_busy_time);
  expect_same_stats(a.link.memory_read_latency_us,
                    b.link.memory_read_latency_us, "read latency");
  expect_same_stats(a.link.tags_in_use, b.link.tags_in_use, "tags in use");
}

TEST(ReturnPath, TakenAtAnnouncementEqualsHeldReturns) {
  // A device that announces in ready order lets the link serialize each
  // read's return at the announcement; behind NoOrderPromise the same
  // device's returns wait for kReadReady. The replays must agree in
  // every simulated value, and the first must run one event fewer per
  // read. Writes keep their ack event on both.
  graph::GeneratorOptions opts;
  opts.max_weight = 255;
  const graph::CsrGraph g = graph::generate_uniform(4096, 16.0, opts);
  const core::ExternalGraphRuntime rt(core::table4_system());
  const graph::VertexId source = algo::pick_source(g, 1);
  for (const core::Algorithm algorithm :
       {core::Algorithm::kBfs, core::Algorithm::kSssp,
        core::Algorithm::kBfsWriteback}) {
    const algo::AccessTrace trace = rt.make_trace(g, algorithm, source);
    for (const Memory memory : {Memory::kHostDram, Memory::kCxlPool}) {
      for (const SimTime added : {SimTime{0}, ps_from_us(2.0)}) {
        if (memory == Memory::kHostDram && added > 0) continue;
        SCOPED_TRACE(core::to_string(algorithm) +
                     (memory == Memory::kCxlPool ? " cxl +" : " dram +") +
                     std::to_string(added));
        const Replay at_once = replay(trace, memory, added, true);
        const Replay held = replay(trace, memory, added, false);
        expect_same_replay(at_once, held);
        EXPECT_GT(at_once.engine.transactions, 0u);
        EXPECT_EQ(held.events - at_once.events, at_once.engine.transactions);
        if (algorithm == core::Algorithm::kBfsWriteback) {
          EXPECT_GT(at_once.engine.write_transactions, 0u);
        }
      }
    }
  }
}

/// Promises ready order, then announces each read 1 us before the last.
class BrokenPromise final : public device::MemoryDevice {
 public:
  explicit BrokenPromise(sim::Simulator& sim) : sim_(sim) {
    caps_.name = "broken-promise";
  }
  void read(std::uint64_t, std::uint32_t, device::ReadyFn ready) override {
    ready.announce(sim_.now() + lead_);
    lead_ -= ps_from_us(1.0);
  }
  bool announces_in_ready_order() const noexcept override { return true; }
  const device::DeviceCaps& caps() const noexcept override { return caps_; }
  const device::DeviceStats& stats() const noexcept override {
    return stats_;
  }

 private:
  sim::Simulator& sim_;
  SimTime lead_ = ps_from_us(10.0);
  device::DeviceCaps caps_;
  device::DeviceStats stats_;
};

TEST(ReturnPath, ReadAnnouncedOutOfOrderThrows) {
  sim::ClosureSim sim;
  device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen4));
  BrokenPromise dev(sim);
  link.memory_read(dev, 0, 64, sim.make_callback([] {}));
  link.memory_read(dev, 64, 64, sim.make_callback([] {}));
  EXPECT_THROW(sim.run(), std::logic_error);
}

// ------------------------------------------------------- pointer chase ----

TEST(PointerChase, HostDramLatencyNearOneMicrosecond) {
  // Fig. 9: the GPU sees ~1+ us to the host DRAM.
  sim::Simulator sim;
  device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen3));
  device::HostDram dram(sim, device::HostDramParams{});
  const double latency = pointer_chase(sim, link, dram).mean_us;
  EXPECT_GT(latency, 0.8);
  EXPECT_LT(latency, 1.5);
}

TEST(PointerChase, AddedCxlLatencyShowsUpOneForOne) {
  auto measure = [](double added_us) {
    sim::Simulator sim;
    device::PcieLink link(sim, device::pcie_x16(device::PcieGen::kGen3));
    device::CxlDeviceParams p;
    p.added_latency = ps_from_us(added_us);
    device::CxlDevice dev(sim, p, "dev");
    return pointer_chase(sim, link, dev).mean_us;
  };
  const double base = measure(0.0);
  for (double added = 1.0; added <= 3.0; added += 1.0) {
    // The Appendix-A bridge counts the added latency from request arrival,
    // so the DRAM-access portion (~0.15 us) is absorbed rather than
    // stacked: the observed delta is slightly below the programmed value.
    const double delta = measure(added) - base;
    EXPECT_LE(delta, added + 0.02) << added;
    EXPECT_GE(delta, added - 0.25) << added;
  }
}

TEST(PointerChase, CxlCostsMoreThanDram) {
  sim::Simulator sim_a;
  device::PcieLink link_a(sim_a, device::pcie_x16(device::PcieGen::kGen3));
  device::HostDram dram(sim_a, device::HostDramParams{});
  const double dram_latency = pointer_chase(sim_a, link_a, dram).mean_us;

  sim::Simulator sim_b;
  device::PcieLink link_b(sim_b, device::pcie_x16(device::PcieGen::kGen3));
  device::CxlDevice cxl(sim_b, device::CxlDeviceParams{}, "dev");
  const double cxl_latency = pointer_chase(sim_b, link_b, cxl).mean_us;

  // Fig. 9: CXL(+0) adds roughly half a microsecond over host DRAM.
  EXPECT_NEAR(cxl_latency - dram_latency, 0.5, 0.25);
}

// ----------------------------------------------------------- cpu probe ----

TEST(CpuProbe, ZeroAddedLatencyHitsChannelBandwidth) {
  const CpuProbeResult r =
      cpu_random_read_probe(device::CxlDeviceParams{});
  // Fig. 10: ~5,700 MB/s cap from the single-channel DRAM.
  EXPECT_NEAR(r.throughput_mbps, 5'700.0, 5'700.0 * 0.1);
}

TEST(CpuProbe, ThroughputFallsAsLatencyRises) {
  device::CxlDeviceParams p;
  double prev = 1e12;
  for (double added : {2.0, 4.0, 8.0}) {
    p.added_latency = ps_from_us(added);
    const CpuProbeResult r = cpu_random_read_probe(p);
    EXPECT_LT(r.throughput_mbps, prev);
    prev = r.throughput_mbps;
  }
}

TEST(CpuProbe, OutstandingSaturatesAtDeviceTags) {
  // Fig. 10: the inferred outstanding count plateaus at (about) the
  // device's 128 tags once latency dominates.
  device::CxlDeviceParams p;
  p.added_latency = ps_from_us(6.0);
  const CpuProbeResult r = cpu_random_read_probe(p);
  EXPECT_NEAR(r.littles_law_outstanding, 128.0, 16.0);
}

TEST(CpuProbe, LatencyBoundThroughputMatchesLittlesLaw) {
  // When the 128 tags bind, each tag is held for (almost exactly) the
  // programmed added latency, so T ~ tags * flit / added.
  device::CxlDeviceParams p;
  p.added_latency = ps_from_us(5.0);
  const CpuProbeResult r = cpu_random_read_probe(p);
  const double expected = 128.0 * 64.0 / 5e-6 / 1e6;
  EXPECT_NEAR(r.throughput_mbps, expected, expected * 0.1);
}

}  // namespace
}  // namespace cxlgraph::gpusim
