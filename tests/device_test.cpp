#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "closure_sim.hpp"
#include "ready_log.hpp"
#include "device/cxl_device.hpp"
#include "device/host_dram.hpp"
#include "device/nvme.hpp"
#include "device/pcie.hpp"
#include "device/storage.hpp"
#include "device/xlfdd.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cxlgraph::device {
namespace {

using sim::ClosureSim;
using util::ps_from_ns;
using util::ps_from_us;

// ---------------------------------------------------------------- pcie ----

TEST(Pcie, PresetsMatchPaperNumbers) {
  EXPECT_DOUBLE_EQ(pcie_x16(PcieGen::kGen3).bandwidth_mbps, 12'000.0);
  EXPECT_EQ(pcie_x16(PcieGen::kGen3).n_max, 256u);
  EXPECT_DOUBLE_EQ(pcie_x16(PcieGen::kGen4).bandwidth_mbps, 24'000.0);
  EXPECT_EQ(pcie_x16(PcieGen::kGen4).n_max, 768u);
  EXPECT_EQ(pcie_x16(PcieGen::kGen5).n_max, 768u);
}

TEST(Pcie, SingleReadLatencyDecomposes) {
  ClosureSim sim;
  PcieLinkParams lp = pcie_x16(PcieGen::kGen4);
  PcieLink link(sim, lp);
  HostDramParams dp;
  HostDram dram(sim, dp);

  SimTime completion = 0;
  link.memory_read(dram, 0, 128, sim.make_callback([&] { completion = sim.now(); }));
  sim.run();
  // request overhead + dram (latency + channel slot) + serialization +
  // response overhead.
  const SimTime expected_min = lp.request_overhead + dp.access_latency +
                               lp.response_overhead;
  EXPECT_GT(completion, expected_min);
  EXPECT_LT(completion, expected_min + ps_from_ns(100));
}

TEST(Pcie, BandwidthCapsThroughput) {
  // Saturate the link with far more parallelism than N_max and check the
  // data rate lands at W.
  ClosureSim sim;
  PcieLinkParams lp = pcie_x16(PcieGen::kGen4);
  PcieLink link(sim, lp);
  HostDram dram(sim, HostDramParams{});

  const int reads = 20'000;
  const std::uint32_t bytes = 128;
  int done = 0;
  SimTime last = 0;
  for (int i = 0; i < reads; ++i) {
    link.memory_read(dram, static_cast<std::uint64_t>(i) * bytes, bytes, sim.make_callback([&] {
                       ++done;
                       last = sim.now();
                     }));
  }
  sim.run();
  EXPECT_EQ(done, reads);
  const double mbps =
      util::mbps_from(static_cast<std::uint64_t>(reads) * bytes, last);
  EXPECT_NEAR(mbps, lp.bandwidth_mbps, lp.bandwidth_mbps * 0.05);
}

TEST(Pcie, TagLimitEnforcesLittlesLaw) {
  // Make the device slow (16 us) so the N_max term binds:
  // T = N_max * d / L.
  ClosureSim sim;
  PcieLinkParams lp = pcie_x16(PcieGen::kGen4);
  PcieLink link(sim, lp);
  HostDramParams dp;
  dp.access_latency = ps_from_us(16.0);
  HostDram dram(sim, dp);

  const int reads = 50'000;
  const std::uint32_t bytes = 128;
  SimTime last = 0;
  for (int i = 0; i < reads; ++i) {
    link.memory_read(dram, static_cast<std::uint64_t>(i) * bytes, bytes, sim.make_callback([&] { last = sim.now(); }));
  }
  sim.run();
  const double observed_latency_us =
      link.stats().memory_read_latency_us.mean();
  const double expected_mbps =
      static_cast<double>(lp.n_max) * bytes /
      (observed_latency_us * 1e-6) / 1e6;
  const double mbps =
      util::mbps_from(static_cast<std::uint64_t>(reads) * bytes, last);
  EXPECT_NEAR(mbps, expected_mbps, expected_mbps * 0.05);
  EXPECT_LT(mbps, 0.4 * lp.bandwidth_mbps);  // far from W: latency-bound
}

TEST(Pcie, NeverExceedsTagBudget) {
  ClosureSim sim;
  PcieLinkParams lp = pcie_x16(PcieGen::kGen3);
  PcieLink link(sim, lp);
  HostDramParams dp;
  dp.access_latency = ps_from_us(4.0);
  HostDram dram(sim, dp);
  for (int i = 0; i < 5'000; ++i) {
    link.memory_read(dram, static_cast<std::uint64_t>(i) * 128, 128, sim.make_callback([&] {
      EXPECT_LE(link.tags_in_use(), lp.n_max);
    }));
  }
  sim.run();
  EXPECT_LE(link.stats().tags_in_use.max(),
            static_cast<double>(lp.n_max));
}

TEST(Pcie, StorageDeliveriesShareBandwidthButNotTags) {
  ClosureSim sim;
  PcieLinkParams lp = pcie_x16(PcieGen::kGen4);
  PcieLink link(sim, lp);
  int done = 0;
  SimTime last = 0;
  const int deliveries = 10'000;
  for (int i = 0; i < deliveries; ++i) {
    link.storage_deliver(4096, sim.make_callback([&] {
      ++done;
      last = sim.now();
    }));
  }
  sim.run();
  EXPECT_EQ(done, deliveries);
  EXPECT_EQ(link.tags_in_use(), 0u);
  const double mbps =
      util::mbps_from(static_cast<std::uint64_t>(deliveries) * 4096, last);
  EXPECT_NEAR(mbps, lp.bandwidth_mbps, lp.bandwidth_mbps * 0.02);
}

TEST(Pcie, ReturnBusyTimeMatchesSerializedBytes) {
  // The return half's busy time is exactly the per-transfer serialization
  // sum — the utilization the link reports must be conserved, not sampled.
  ClosureSim sim;
  PcieLinkParams lp = pcie_x16(PcieGen::kGen4);
  PcieLink link(sim, lp);
  HostDram dram(sim, HostDramParams{});
  const int reads = 500;
  const std::uint32_t bytes = 128;
  for (int i = 0; i < reads; ++i) {
    link.memory_read(dram, static_cast<std::uint64_t>(i) * bytes, bytes,
                     sim.make_callback([] {}));
  }
  sim.run();
  const auto per_transfer = static_cast<SimTime>(
      static_cast<double>(bytes) * util::ps_per_byte(lp.bandwidth_mbps) +
      0.5);
  EXPECT_EQ(link.stats().return_busy_time,
            static_cast<SimTime>(reads) * per_transfer);
  EXPECT_EQ(link.stats().upstream_busy_time, 0u);
}

TEST(Pcie, UpstreamBusyTimeTracksWritePayloads) {
  // Regression: serialize_upstream held the upstream half busy but never
  // charged the busy-time stat, so write-heavy runs reported the link as
  // idle. Both halves must now account their own transfers.
  ClosureSim sim;
  PcieLinkParams lp = pcie_x16(PcieGen::kGen4);
  PcieLink link(sim, lp);
  HostDram dram(sim, HostDramParams{});
  const int writes = 300;
  const std::uint32_t bytes = 512;
  for (int i = 0; i < writes; ++i) {
    link.memory_write(dram, static_cast<std::uint64_t>(i) * bytes, bytes,
                      sim.make_callback([] {}));
  }
  sim.run();
  const auto per_transfer = static_cast<SimTime>(
      static_cast<double>(bytes) * util::ps_per_byte(lp.bandwidth_mbps) +
      0.5);
  EXPECT_EQ(link.stats().upstream_busy_time,
            static_cast<SimTime>(writes) * per_transfer);
  EXPECT_EQ(link.stats().return_busy_time, 0u);
  EXPECT_EQ(link.stats().busy_time(), link.stats().upstream_busy_time);
}

TEST(Pcie, BusyTimeSumsBothHalves) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  HostDram dram(sim, HostDramParams{});
  link.memory_read(dram, 0, 128, sim.make_callback([] {}));
  link.memory_write(dram, 4096, 256, sim.make_callback([] {}));
  link.upstream_transfer(1024, sim.make_callback([] {}));
  sim.run();
  EXPECT_GT(link.stats().return_busy_time, 0u);
  EXPECT_GT(link.stats().upstream_busy_time, 0u);
  EXPECT_EQ(link.stats().busy_time(), link.stats().return_busy_time +
                                          link.stats().upstream_busy_time);
}

TEST(Pcie, RejectsBadParameters) {
  Simulator sim;
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    PcieLinkParams lp;
    lp.bandwidth_mbps = bad;
    EXPECT_THROW(PcieLink(sim, lp), std::invalid_argument) << bad;
  }
  PcieLinkParams lp;
  lp.n_max = 0;
  EXPECT_THROW(PcieLink(sim, lp), std::invalid_argument);
}

// ------------------------------------------------------------ host dram ----

TEST(HostDram, SocketHopAddsLatency) {
  ClosureSim sim;
  ReadyLog ready(sim);
  HostDramParams local;
  HostDramParams remote;
  remote.socket_hop = ps_from_ns(100);
  HostDram a(sim, local, "local");
  HostDram b(sim, remote, "remote");
  SimTime t_local = 0;
  SimTime t_remote = 0;
  a.read(0, 128, ready([&] { t_local = sim.now(); }));
  b.read(0, 128, ready([&] { t_remote = sim.now(); }));
  // HostDram fixes the ready time inside read(): channel slot + access
  // latency + socket hop, the time its ready event used to run.
  const auto slot = static_cast<SimTime>(
      128 * util::ps_per_byte(local.channel_bandwidth_mbps) + 0.5);
  EXPECT_EQ(ready.times,
            (std::vector<SimTime>{slot + local.access_latency,
                                  slot + local.access_latency +
                                      ps_from_ns(100)}));
  sim.run();
  EXPECT_EQ(t_remote - t_local, ps_from_ns(100));
  EXPECT_EQ(ready.times, (std::vector<SimTime>{t_local, t_remote}));
}

TEST(HostDram, StatsAccumulate) {
  ClosureSim sim;
  ReadyLog ready(sim);
  HostDram dram(sim, HostDramParams{});
  dram.read(0, 64, ready([] {}));
  dram.read(64, 64, ready([] {}));
  sim.run();
  EXPECT_EQ(dram.stats().requests, 2u);
  EXPECT_EQ(dram.stats().bytes, 128u);
}

// ------------------------------------------------------------------ cxl ----

TEST(Cxl, AddedLatencyDelaysCompletion) {
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDeviceParams base;
  CxlDevice dev0(sim, base, "base");
  CxlDeviceParams delayed = base;
  delayed.added_latency = ps_from_us(2.0);
  CxlDevice dev2(sim, delayed, "delayed");

  SimTime t0 = 0;
  SimTime t2 = 0;
  dev0.read(0, 64, ready([&] { t0 = sim.now(); }));
  dev2.read(0, 64, ready([&] { t2 = sim.now(); }));
  sim.run();
  EXPECT_EQ(ready.times, (std::vector<SimTime>{t0, t2}));
  // The latency bridge releases at stamp + added latency, so the delta is
  // (almost exactly) the programmed 2 us.
  EXPECT_NEAR(util::us_from_ps(t2 - t0), 2.0, 0.2);
}

TEST(Cxl, LargeReadsSplitIntoFlits) {
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDevice dev(sim, CxlDeviceParams{}, "dev");
  dev.read(0, 128, ready([] {}));
  sim.run();
  // One 128 B read = 2 flits worth of channel work; stats count the
  // original request.
  EXPECT_EQ(dev.stats().requests, 1u);
  EXPECT_EQ(dev.stats().bytes, 128u);
}

TEST(Cxl, FlitTagBudgetRespected) {
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDeviceParams p;
  p.device_tags = 8;
  p.added_latency = ps_from_us(1.0);
  CxlDevice dev(sim, p, "dev");
  int done = 0;
  std::uint32_t peak = 0;
  for (int i = 0; i < 100; ++i) {
    dev.read(static_cast<std::uint64_t>(i) * 128, 128, ready([&] {
      ++done;
      peak = std::max(peak, dev.flits_in_flight());
    }));
    EXPECT_LE(dev.flits_in_flight(), p.device_tags);
  }
  sim.run();
  EXPECT_EQ(done, 100);
  // Completions see the budget full, never exceeded; once the run drains,
  // every tag has been released.
  EXPECT_EQ(peak, p.device_tags);
  EXPECT_EQ(dev.flits_in_flight(), 0u);
  // Every read is announced once, in ready order, egress after its last
  // pop.
  ASSERT_EQ(ready.times.size(), 100u);
  EXPECT_TRUE(std::is_sorted(ready.times.begin(), ready.times.end()));
}

TEST(Cxl, InOrderBridgeMonotonePops) {
  // With in-order release, a long-latency flit delays later short ones;
  // completions must be monotone in issue order for same-size reads.
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDeviceParams p;
  p.added_latency = ps_from_us(1.0);
  CxlDevice dev(sim, p, "dev");
  std::vector<SimTime> completions;
  for (int i = 0; i < 32; ++i) {
    dev.read(static_cast<std::uint64_t>(i) * 64, 64, ready([&] { completions.push_back(sim.now()); }));
  }
  sim.run();
  ASSERT_EQ(completions.size(), 32u);
  for (std::size_t i = 1; i < completions.size(); ++i) {
    EXPECT_GE(completions[i], completions[i - 1]);
  }
  EXPECT_EQ(ready.times, completions);
}

TEST(Cxl, ChannelBandwidthCapsThroughput) {
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDeviceParams p;  // 5,700 MB/s single channel
  CxlDevice dev(sim, p, "dev");
  const int reads = 20'000;
  SimTime last = 0;
  // Issue in waves bounded by tags; completions trigger nothing, so just
  // flood: the tag queue inside the device handles backpressure.
  for (int i = 0; i < reads; ++i) {
    dev.read(static_cast<std::uint64_t>(i) * 64, 64, ready([&] { last = sim.now(); }));
  }
  sim.run();
  const double mbps =
      util::mbps_from(static_cast<std::uint64_t>(reads) * 64, last);
  EXPECT_NEAR(mbps, p.channel_bandwidth_mbps,
              p.channel_bandwidth_mbps * 0.05);
}

TEST(Cxl, ThroughputDropsWithAddedLatency) {
  // Fig. 10's mechanism: tags * flit / latency once latency dominates.
  auto measure = [](double added_us) {
    ClosureSim sim;
    ReadyLog ready(sim);
    CxlDeviceParams p;
    p.added_latency = ps_from_us(added_us);
    CxlDevice dev(sim, p, "dev");
    SimTime last = 0;
    const int reads = 20'000;
    for (int i = 0; i < reads; ++i) {
      dev.read(static_cast<std::uint64_t>(i) * 64, 64, ready([&] { last = sim.now(); }));
    }
    sim.run();
    return util::mbps_from(static_cast<std::uint64_t>(reads) * 64, last);
  };
  const double at0 = measure(0.0);
  const double at5 = measure(5.0);
  const double at10 = measure(10.0);
  EXPECT_GT(at0, at5);
  EXPECT_GT(at5, at10);
  // 128 tags * 64 B / 5 us ~ 1638 MB/s; within modeling slack.
  EXPECT_NEAR(at5, 128.0 * 64.0 / 5e-6 / 1e6, 300.0);
}

TEST(Cxl, RejectsZeroByteRequests) {
  // Zero bytes split into no flits: no pop would ever complete the request,
  // leaking its parent slot (and, behind a link, the link's tag).
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDevice dev(sim, CxlDeviceParams{}, "dev");
  EXPECT_THROW(dev.read(0, 0, ready([] {})), std::invalid_argument);
  EXPECT_THROW(dev.write(0, 0, ready([] {})),
               std::invalid_argument);
  EXPECT_EQ(dev.stats().requests, 0u);
  // Through the GPU link the device sees the request one hop later.
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  link.memory_read(dev, 0, 0, sim.make_callback([] {}));
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Cxl, FlitsPoppingTogetherShareOneEvent) {
  // A 128 B read is two flits. Behind a 1 us latency bridge both pop on
  // the same picosecond, so one kPop carries both: kIngress, one kPop and
  // the ready closure run (four events with a kPop per flit). The tag
  // frees are recorded, not scheduled, either way.
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDeviceParams p;
  p.added_latency = ps_from_us(1.0);
  CxlDevice dev(sim, p, "dev");
  dev.read(0, 128, ready());
  sim.run();
  EXPECT_EQ(sim.events_processed(), 3u);
  // Ingress, the bridge, then egress.
  EXPECT_EQ(ready.times, std::vector<SimTime>{p.port_ingress + ps_from_us(1.0) +
                                              p.port_egress});
  EXPECT_EQ(dev.flits_in_flight(), 0u);
}

TEST(Cxl, FlitsPoppingApartKeepTheirOwnEvents) {
  // With no added latency the channel spaces the two flits one transfer
  // apart, so each keeps its kPop: kIngress, two kPops and the ready
  // closure, as before the merge.
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlDeviceParams p;
  CxlDevice dev(sim, p, "dev");
  dev.read(0, 128, ready());
  sim.run();
  EXPECT_EQ(sim.events_processed(), 4u);
  const auto flit = static_cast<SimTime>(
      p.flit_bytes * util::ps_per_byte(p.channel_bandwidth_mbps) + 0.5);
  EXPECT_EQ(ready.times,
            std::vector<SimTime>{p.port_ingress + 2 * flit + p.dram_latency +
                                 p.port_egress});
}

TEST(CxlPool, InterleavesAcrossDevices) {
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlMemoryPool pool(sim, CxlDeviceParams{}, 4, 4096);
  // Touch one page per device.
  for (std::uint64_t p = 0; p < 4; ++p) {
    pool.read(p * 4096, 64, ready([] {}));
  }
  sim.run();
  for (unsigned i = 0; i < 4; ++i) {
    EXPECT_EQ(pool.device(i).stats().requests, 1u) << "device " << i;
  }
}

TEST(CxlPool, AggregateStatsSumAcrossDevices) {
  ClosureSim sim;
  ReadyLog ready(sim);
  CxlMemoryPool pool(sim, CxlDeviceParams{}, 3, 4096);
  for (int i = 0; i < 30; ++i) {
    pool.read(static_cast<std::uint64_t>(i) * 4096, 64, ready([] {}));
  }
  sim.run();
  EXPECT_EQ(pool.stats().requests, 30u);
  EXPECT_EQ(pool.stats().bytes, 30u * 64u);
}

TEST(CxlPool, TagSaturationGolden) {
  // The regime Table-4 sweeps never reach: flits wait for device tags.
  // Bursts are issued at one picosecond each, on the 250 ns grid of the
  // port latencies, so ingresses, pops and tag frees tie. Every completion
  // folds (time, request id, tags held) in completion order, so a change
  // that removes device events must keep every tie and tag count to keep
  // the pin.
  std::uint64_t fold = 0xcbf29ce484222325ULL;
  const auto mix = [&fold](std::uint64_t x) {
    fold = (fold ^ x) * 0x100000001b3ULL;
  };
  const SimTime grid = ps_from_ns(250);
  int saturated = 0;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    util::Xoshiro256 rng(trial + 1);
    CxlDeviceParams p;
    p.device_tags = 2 + static_cast<std::uint32_t>(rng.next_below(7));
    p.added_latency = grid * rng.next_below(5);  // 0..1 us
    p.socket_hop = grid * rng.next_below(2);
    ClosureSim sim;
    ReadyLog ready(sim);
    CxlMemoryPool pool(sim, p, 2, 4096);

    struct Request {
      std::uint64_t addr;
      std::uint32_t bytes;
      bool write;
    };
    std::uint32_t next_id = 0;
    std::uint32_t peak = 0;  // most tags one device held at a completion
    const auto held = [&pool] {
      return pool.device(0).flits_in_flight() +
             pool.device(1).flits_in_flight();
    };
    for (int b = 0; b < 24; ++b) {
      std::vector<Request> burst(1 + rng.next_below(16));
      for (Request& r : burst) {
        r.addr = rng.next_below(32) * 4096 + rng.next_below(32) * 128;
        r.bytes = 32u << rng.next_below(3);  // 32, 64 or 128 B
        r.write = rng.next_below(5) == 0;
      }
      sim.schedule_at(grid * rng.next_below(64), [&, burst] {
        for (const Request& r : burst) {
          const std::uint32_t id = next_id++;
          const ReadyFn done = ready([&, id] {
            mix(sim.now());
            mix(id);
            mix(held());
            peak = std::max({peak, pool.device(0).flits_in_flight(),
                             pool.device(1).flits_in_flight()});
          });
          if (r.write) {
            pool.write(r.addr, r.bytes, done);
          } else {
            pool.read(r.addr, r.bytes, done);
          }
        }
      });
    }
    sim.run();
    EXPECT_EQ(held(), 0u) << "trial " << trial;
    EXPECT_LE(peak, p.device_tags) << "trial " << trial;
    if (peak == p.device_tags) ++saturated;
  }
  EXPECT_GE(saturated, 16);
  EXPECT_EQ(fold, 0xa6588a39bba4dab7ULL);
}

TEST(CxlPool, TagFreeRecordsAreInvisible) {
  // A device records a flit's tag free instead of scheduling it when no
  // flit can be waiting before it; the record must be invisible. Each
  // trial alternates bursts that fill the device tags with trickles that
  // drain them, so one run switches between recorded and scheduled frees.
  // Port shapes include port_ingress < port_egress, where every free is
  // scheduled unless the socket hop covers the gap; writes and the socket
  // hop vary per trial. Completions fold (time, request id,
  // tags held) in completion order, ties included; the pin was taken on
  // the device code from before frees were recorded.
  std::uint64_t fold = 0xcbf29ce484222325ULL;
  const auto mix = [&fold](std::uint64_t x) {
    fold = (fold ^ x) * 0x100000001b3ULL;
  };
  const SimTime grid = ps_from_ns(125);
  const SimTime ports[][2] = {  // {port_ingress, port_egress}
      {2 * grid, 2 * grid},
      {grid, 2 * grid},
      {3 * grid, 2 * grid},
      {2 * grid, 3 * grid}};
  int saturated = 0;
  for (std::uint64_t trial = 0; trial < 32; ++trial) {
    util::Xoshiro256 rng(trial + 101);
    CxlDeviceParams p;
    p.device_tags = 2 + static_cast<std::uint32_t>(rng.next_below(7));
    p.added_latency = grid * rng.next_below(9);  // 0..1 us
    p.port_ingress = ports[trial % 4][0];
    p.port_egress = ports[trial % 4][1];
    p.socket_hop = trial / 4 % 2 == 1 ? grid : 0;
    ClosureSim sim;
    ReadyLog ready(sim);
    CxlMemoryPool pool(sim, p, 2, 4096);

    std::uint32_t next_id = 0;
    std::uint32_t peak = 0;  // most tags one device held at a completion
    const auto held = [&pool] {
      return pool.device(0).flits_in_flight() +
             pool.device(1).flits_in_flight();
    };
    const auto issue = [&](SimTime at) {
      const std::uint64_t addr =
          rng.next_below(16) * 4096 + rng.next_below(32) * 128;
      const std::uint32_t bytes = 32u << rng.next_below(3);  // 32..128 B
      const bool write = rng.next_below(5) == 0;
      sim.schedule_at(at, [&, addr, bytes, write] {
        const std::uint32_t id = next_id++;
        const ReadyFn done = ready([&, id] {
          mix(sim.now());
          mix(id);
          mix(held());
          peak = std::max({peak, pool.device(0).flits_in_flight(),
                           pool.device(1).flits_in_flight()});
        });
        if (write) {
          pool.write(addr, bytes, done);
        } else {
          pool.read(addr, bytes, done);
        }
      });
    };
    for (int phase = 0; phase < 6; ++phase) {
      // A burst in one picosecond, then a trickle on the port grid.
      SimTime at = ps_from_us(20) * static_cast<SimTime>(phase);
      for (std::uint64_t n = 8 + rng.next_below(17); n > 0; --n) issue(at);
      at += ps_from_us(8);
      for (int n = 0; n < 16; ++n) {
        at += grid * (1 + rng.next_below(8));
        issue(at);
      }
    }
    sim.run();
    EXPECT_EQ(held(), 0u) << "trial " << trial;
    EXPECT_LE(peak, p.device_tags) << "trial " << trial;
    if (peak == p.device_tags) ++saturated;
  }
  EXPECT_GE(saturated, 16);
  EXPECT_EQ(fold, 0xbcd97a07ef26da63ULL);
}

TEST(CxlPool, AddedLatencyReachesEveryDevice) {
  Simulator sim;
  CxlDeviceParams p;
  p.added_latency = ps_from_us(3.0);
  CxlMemoryPool pool(sim, p, 2, 4096);
  EXPECT_EQ(pool.device(0).params().added_latency, ps_from_us(3.0));
  EXPECT_EQ(pool.device(1).params().added_latency, ps_from_us(3.0));
}

// -------------------------------------------------------------- storage ----

TEST(Storage, PresetsMatchPaper) {
  const StorageDriveParams x = xlfdd_drive_params();
  EXPECT_EQ(x.min_alignment, 16u);
  EXPECT_EQ(x.max_transfer, 2048u);
  EXPECT_DOUBLE_EQ(x.iops, 11.0e6);
  const StorageDriveParams n = nvme_drive_params();
  EXPECT_EQ(n.min_alignment, 512u);
  // 4 drives -> 6 MIOPS collectively, as in BaM's testbed.
  EXPECT_DOUBLE_EQ(n.iops * kNvmeArrayDrives, 6.0e6);
}

TEST(Storage, IopsCapsRequestRate) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDriveParams p = nvme_drive_params();
  StorageDrive drive(sim, link, p);
  const int requests = 20'000;
  SimTime last = 0;
  int done = 0;
  for (int i = 0; i < requests; ++i) {
    drive.submit(static_cast<std::uint64_t>(i) * 512, 512, sim.make_callback([&] {
      ++done;
      last = sim.now();
    }));
  }
  sim.run();
  EXPECT_EQ(done, requests);
  const double achieved_iops =
      static_cast<double>(requests) / util::sec_from_ps(last);
  EXPECT_NEAR(achieved_iops, p.iops, p.iops * 0.05);
}

TEST(Storage, SmallReadsDoNotBeatIops) {
  // The paper's assumption: reading fewer bytes does not raise IOPS.
  auto iops_at = [](std::uint32_t bytes) {
    ClosureSim sim;
    PcieLink link(sim, pcie_x16(PcieGen::kGen4));
    StorageDrive drive(sim, link, nvme_drive_params());
    SimTime last = 0;
    const int requests = 5'000;
    for (int i = 0; i < requests; ++i) {
      drive.submit(static_cast<std::uint64_t>(i) * 4096, bytes, sim.make_callback([&] { last = sim.now(); }));
    }
    sim.run();
    return static_cast<double>(requests) / util::sec_from_ps(last);
  };
  EXPECT_NEAR(iops_at(512), iops_at(4096), iops_at(4096) * 0.1);
}

TEST(Storage, QueueDepthNeverExceeded) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDriveParams p = xlfdd_drive_params();
  p.queue_depth = 8;
  StorageDrive drive(sim, link, p);
  for (int i = 0; i < 200; ++i) {
    drive.submit(static_cast<std::uint64_t>(i) * 16, 16, sim.make_callback([] {}));
  }
  sim.run();
  EXPECT_LE(drive.stats().peak_outstanding, 8u);
  EXPECT_EQ(drive.stats().requests, 200u);
}

TEST(Storage, RejectsOversizeTransfer) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDrive drive(sim, link, xlfdd_drive_params());
  EXPECT_THROW(drive.submit(0, 4096, sim.make_callback([] {})), std::invalid_argument);
}

TEST(StorageArray, RoutesByStripe) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageArray array(sim, link, xlfdd_drive_params(), 4, 8192);
  int done = 0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    array.submit(s * 8192, 256, sim.make_callback([&] { ++done; }));
  }
  sim.run();
  EXPECT_EQ(done, 8);
  // Stripe s lands on drive s % 4: two requests each.
  for (unsigned d = 0; d < array.num_drives(); ++d) {
    EXPECT_EQ(array.drive(d).stats().requests, 2u) << "drive " << d;
  }
}

TEST(StorageArray, SplitsStraddlingRequests) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageArray array(sim, link, xlfdd_drive_params(), 4, 8192);
  int done = 0;
  // 1 kB read crossing the first stripe boundary: two parts, one `done`.
  array.submit(8192 - 512, 1024, sim.make_callback([&] { ++done; }));
  sim.run();
  EXPECT_EQ(done, 1);
  for (unsigned d = 0; d < 2; ++d) {
    EXPECT_EQ(array.drive(d).stats().requests, 1u) << "drive " << d;
    EXPECT_EQ(array.drive(d).stats().bytes, 512u) << "drive " << d;
  }
}

TEST(StorageArray, RejectsZeroByteRequests) {
  // Regression: (addr + bytes - 1) underflowed for bytes == 0, computing a
  // last stripe of ~2^64 and splitting the "request" across every drive.
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageArray array(sim, link, xlfdd_drive_params(), 4, 8192);
  EXPECT_THROW(array.submit(0, 0, sim.make_callback([] {})),
               std::invalid_argument);
  EXPECT_THROW(array.submit(8192, 0, sim.make_callback([] {})),
               std::invalid_argument);
  EXPECT_THROW(array.submit_write(0, 0, sim.make_callback([] {})),
               std::invalid_argument);
  for (unsigned d = 0; d < array.num_drives(); ++d) {
    EXPECT_EQ(array.drive(d).stats().requests, 0u) << "drive " << d;
  }
}

TEST(StorageArray, SplitsChunksAtMaxTransfer) {
  // Regression: an in-stripe request larger than the drive's max_transfer
  // (XLFDD: 2 kB moves inside an 8 kB stripe) passed straight to the
  // drive and threw mid-simulation. The array must split it.
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  const StorageDriveParams p = xlfdd_drive_params();
  StorageArray array(sim, link, p, 4, 8192);
  int done = 0;
  // 4 kB aligned inside stripe 0: two 2 kB commands on one drive.
  array.submit(0, 4096, sim.make_callback([&] { ++done; }));
  // 5 kB crossing a stripe boundary with an oversized leading chunk:
  // stripe 0 carries 3 kB (2 kB + 1 kB), stripe 1 the remaining 2 kB.
  array.submit(8192 - 3072, 5120, sim.make_callback([&] { ++done; }));
  sim.run();
  EXPECT_EQ(done, 2);
  // Drive 0 (stripe 0): 2 kB + 2 kB, then 2 kB + 1 kB; drive 1: 2 kB.
  EXPECT_EQ(array.drive(0).stats().requests, 4u);
  EXPECT_EQ(array.drive(0).stats().bytes, 4096u + 3072u);
  EXPECT_EQ(array.drive(1).stats().requests, 1u);
  EXPECT_EQ(array.drive(1).stats().bytes, 2048u);
  // Every issued command respected the limit, or the drives would throw.
  EXPECT_LE(p.max_transfer, 2048u);
}

TEST(StorageArray, SplitsOversizedWrites) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageArray array(sim, link, xlfdd_drive_params(), 4, 8192);
  int done = 0;
  array.submit_write(0, 4096, sim.make_callback([&] { ++done; }));
  sim.run();
  EXPECT_EQ(done, 1);
  EXPECT_EQ(array.drive(0).stats().requests, 2u);
  EXPECT_EQ(array.drive(0).stats().written_bytes, 4096u);
}

TEST(Storage, SaturationRespectsQueueDepthProperty) {
  // Property: under randomized mixed read/write saturation the drive
  // never holds more than queue_depth requests, and every submit
  // eventually completes.
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDriveParams p = xlfdd_drive_params();
  p.queue_depth = 16;
  StorageDrive drive(sim, link, p);
  util::Xoshiro256 rng(17);
  const int requests = 4'000;
  int done = 0;
  for (int i = 0; i < requests; ++i) {
    const std::uint32_t bytes =
        16u * static_cast<std::uint32_t>(1 + rng.next_below(128));
    const std::uint64_t addr = rng.next_below(1u << 20) * 16ull;
    if (rng.next_below(4) == 0) {
      drive.submit_write(addr, bytes, sim.make_callback([&] { ++done; }));
    } else {
      drive.submit(addr, bytes, sim.make_callback([&] { ++done; }));
    }
    EXPECT_LE(drive.outstanding(), p.queue_depth);
  }
  sim.run();
  EXPECT_EQ(done, requests);
  EXPECT_LE(drive.stats().peak_outstanding, p.queue_depth);
  EXPECT_GT(drive.stats().written_bytes, 0u);
  EXPECT_LT(drive.stats().written_bytes, drive.stats().bytes);
}

TEST(Stats, QuantileZeroSkipsEmptyBuckets) {
  // Regression: q == 0 matched the first bucket even when empty (target 0
  // is trivially reached), interpolating into a range holding no samples.
  util::Log2Histogram h;
  for (int i = 0; i < 100; ++i) h.add(1000);
  // 1000 lands in (512, 1024]; q = 0 must return a value from that range,
  // not 0.0 from the empty first bucket.
  EXPECT_GE(h.quantile(0.0), 512.0);
  EXPECT_LE(h.quantile(0.0), 1024.0);
  // Populated-bucket quantiles are unchanged.
  EXPECT_GE(h.quantile(0.5), 512.0);
  EXPECT_LE(h.quantile(1.0), 1024.0);
  // Empty histogram still reports 0.
  util::Log2Histogram empty;
  EXPECT_EQ(empty.quantile(0.0), 0.0);
}

TEST(StorageArray, XlfddArraySupportsRequiredIops) {
  // Sec. 4.1.1: 16 drives "well support" 93.75 MIOPS.
  Simulator sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageArray array(sim, link, xlfdd_drive_params(), kXlfddArrayDrives,
                     kXlfddStripeBytes);
  EXPECT_GE(array.total_iops(), 93.75e6);
}

TEST(StorageArray, AggregateIopsScaleWithDrives) {
  auto measure = [](unsigned drives) {
    ClosureSim sim;
    PcieLink link(sim, pcie_x16(PcieGen::kGen4));
    StorageDriveParams p = nvme_drive_params();
    StorageArray array(sim, link, p, drives, 4096);
    util::Xoshiro256 rng(5);
    SimTime last = 0;
    const int requests = 10'000;
    for (int i = 0; i < requests; ++i) {
      const std::uint64_t addr = rng.next_below(1u << 20) * 4096ull;
      array.submit(addr, 512, sim.make_callback([&] { last = sim.now(); }));
    }
    sim.run();
    return static_cast<double>(requests) / util::sec_from_ps(last);
  };
  // Random striping spreads load; 4 drives should deliver close to 4x of
  // one drive (within queueing imbalance).
  EXPECT_GT(measure(4), 3.0 * measure(1));
}

}  // namespace
}  // namespace cxlgraph::device
