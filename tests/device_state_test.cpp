/// \file device_state_test.cpp
/// State-dependent device-model tests: thermal throttling and the
/// contract that the model defaults OFF and leaves the baseline timing
/// bit-identical; device constructors reject bad rates and state models.

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>

#include "closure_sim.hpp"
#include "device/cxl_device.hpp"
#include "device/host_dram.hpp"
#include "device/pcie.hpp"
#include "device/state_model.hpp"
#include "device/storage.hpp"
#include "device/xlfdd.hpp"
#include "util/units.hpp"

namespace cxlgraph::device {
namespace {

using sim::ClosureSim;
using util::ps_from_us;
using util::SimTime;

/// Makespan of `requests` back-to-back reads submitted up front (open
/// loop: the queue fills to queue_depth).
SimTime batch_read_makespan(const StorageDriveParams& p, int requests,
                            std::uint32_t bytes) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDrive drive(sim, link, p);
  SimTime last = 0;
  for (int i = 0; i < requests; ++i) {
    drive.submit(0, bytes, sim.make_callback([&] { last = sim.now(); }));
  }
  sim.run();
  return last;
}

/// Makespan of `requests` reads issued one at a time (closed loop, QD 1).
SimTime serial_read_makespan(const StorageDriveParams& p, int requests,
                             std::uint32_t bytes) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDrive drive(sim, link, p);
  SimTime last = 0;
  int remaining = requests;
  std::function<void()> next;
  next = [&] {
    last = sim.now();
    if (--remaining > 0) drive.submit(0, bytes, sim.make_callback(next));
  };
  drive.submit(0, bytes, sim.make_callback(next));
  sim.run();
  return last;
}

// ------------------------------------------------------------- thermal ----

TEST(Thermal, ThrottlingSlowsSustainedReads) {
  const StorageDriveParams cold = xlfdd_drive_params();

  StorageDriveParams hot = cold;
  hot.thermal.enabled = true;
  hot.thermal.heat_per_mb = 1.0;
  hot.thermal.cool_per_sec = 0.0;  // no dissipation: heat only climbs
  hot.thermal.throttle_threshold = 0.01;  // trips after ~3 x 4 kB reads
  hot.thermal.hysteresis = 0.5;
  hot.thermal.throttle_factor = 0.5;

  const int requests = 400;
  const SimTime cold_span = batch_read_makespan(cold, requests, 2048);
  const SimTime hot_span = batch_read_makespan(hot, requests, 2048);
  EXPECT_GT(hot_span, cold_span);
  // With throttle_factor 0.5 the steady state is ~2x slower; most of the
  // run is spent throttled, so the makespan should reflect a real derate,
  // not a rounding artifact.
  EXPECT_GT(static_cast<double>(hot_span),
            1.5 * static_cast<double>(cold_span));
}

TEST(Thermal, DriveReportsThrottleObservables) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDriveParams p = xlfdd_drive_params();
  p.thermal.enabled = true;
  p.thermal.cool_per_sec = 0.0;
  p.thermal.throttle_threshold = 0.01;
  StorageDrive drive(sim, link, p);
  for (int i = 0; i < 64; ++i) {
    drive.submit(0, 2048, sim.make_callback([] {}));
  }
  sim.run();
  EXPECT_TRUE(drive.throttled());
  EXPECT_GT(drive.heat(), p.thermal.throttle_threshold);
  EXPECT_GT(drive.stats().throttled_requests, 0u);
  EXPECT_GT(drive.stats().peak_heat, p.thermal.throttle_threshold);
}

TEST(Thermal, ColdStateChargesAtFullSpeed) {
  ThermalParams p;
  p.enabled = true;
  p.heat_per_mb = 1.0;
  p.cool_per_sec = 100.0;
  p.throttle_threshold = 5.0;
  p.hysteresis = 0.5;
  p.throttle_factor = 0.5;

  ThermalState s;
  // 1 MB while cold: below budget, full speed.
  EXPECT_DOUBLE_EQ(s.charge(p, 0, 1'000'000), 1.0);
  EXPECT_DOUBLE_EQ(s.heat(), 1.0);
  EXPECT_FALSE(s.throttled());
}

TEST(Thermal, CoolingRestoresFullSpeed) {
  ThermalParams p;
  p.enabled = true;
  p.heat_per_mb = 1.0;
  p.cool_per_sec = 100.0;
  p.throttle_threshold = 5.0;
  p.hysteresis = 0.5;
  p.throttle_factor = 0.5;

  ThermalState s;
  // 6 MB at t=0 blows the budget: the crossing transfer is throttled.
  EXPECT_DOUBLE_EQ(s.charge(p, 0, 6'000'000), 2.0);
  EXPECT_TRUE(s.throttled());

  // 100 ms idle removes 10 heat units -> fully cooled; the next transfer
  // runs at full speed again.
  const SimTime later = ps_from_us(100'000.0);
  EXPECT_DOUBLE_EQ(s.charge(p, later, 100'000), 1.0);
  EXPECT_FALSE(s.throttled());
  EXPECT_DOUBLE_EQ(s.peak_heat(), 6.0);
}

TEST(Thermal, HysteresisHoldsThrottleUntilCoolPoint) {
  ThermalParams p;
  p.enabled = true;
  p.heat_per_mb = 1.0;
  p.cool_per_sec = 100.0;
  p.throttle_threshold = 5.0;
  p.hysteresis = 0.5;  // must cool below 2.5 to recover
  p.throttle_factor = 0.5;

  ThermalState s;
  EXPECT_DOUBLE_EQ(s.charge(p, 0, 6'000'000), 2.0);
  // 30 ms removes 3 units -> heat 3.0, still above the 2.5 cool point:
  // the device stays throttled even though it is back under the budget.
  EXPECT_DOUBLE_EQ(s.charge(p, ps_from_us(30'000.0), 0), 2.0);
  EXPECT_TRUE(s.throttled());
  // Another 10 ms -> heat 2.0 < 2.5: recovered.
  EXPECT_DOUBLE_EQ(s.charge(p, ps_from_us(40'000.0), 0), 1.0);
  EXPECT_FALSE(s.throttled());
}

TEST(Thermal, EnabledButColdIsBitIdenticalToDisabled) {
  // The gating contract: with the model enabled but never tripping, the
  // service times must be *bit-identical* to the baseline, not merely
  // close — the stretch multiplier of 1.0 skips the float detour.
  const StorageDriveParams off = xlfdd_drive_params();
  StorageDriveParams on = off;
  on.thermal.enabled = true;
  on.thermal.throttle_threshold = 1.0e18;  // never trips
  const int requests = 200;
  EXPECT_EQ(batch_read_makespan(off, requests, 2048),
            batch_read_makespan(on, requests, 2048));
  EXPECT_EQ(serial_read_makespan(off, 50, 2048),
            serial_read_makespan(on, 50, 2048));
}

// ------------------------------------------------------------- cxl -------

TEST(CxlThermal, DeratesChannelUnderSustainedLoad) {
  CxlDeviceParams cold_p;
  CxlDeviceParams hot_p;
  hot_p.thermal.enabled = true;
  hot_p.thermal.heat_per_mb = 1.0;
  hot_p.thermal.cool_per_sec = 0.0;
  hot_p.thermal.throttle_threshold = 0.01;
  hot_p.thermal.hysteresis = 0.5;
  hot_p.thermal.throttle_factor = 0.5;

  const int reads = 200;
  SimTime cold_span = 0;
  {
    ClosureSim sim;
    CxlDevice dev(sim, cold_p);
    for (int i = 0; i < reads; ++i) {
      dev.read(0, 4096, sim.make_callback([&] { cold_span = sim.now(); }));
    }
    sim.run();
  }
  SimTime hot_span = 0;
  {
    ClosureSim sim;
    CxlDevice dev(sim, hot_p);
    for (int i = 0; i < reads; ++i) {
      dev.read(0, 4096, sim.make_callback([&] { hot_span = sim.now(); }));
    }
    sim.run();
    EXPECT_GT(dev.throttled_flits(), 0u);
    EXPECT_GT(dev.peak_heat(), hot_p.thermal.throttle_threshold);
  }
  EXPECT_GT(hot_span, cold_span);
}

// ------------------------------------------------------------ validate ----

TEST(Validate, RejectsBadParamsOnlyWhenEnabled) {
  ThermalParams t;
  t.throttle_factor = 0.0;  // invalid, but the model is off
  EXPECT_NO_THROW(validate(t));
  t.enabled = true;
  EXPECT_THROW(validate(t), std::invalid_argument);
  t.throttle_factor = 0.5;
  t.hysteresis = 1.5;
  EXPECT_THROW(validate(t), std::invalid_argument);
}

TEST(Validate, DriveConstructorValidatesStateModels) {
  Simulator sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDriveParams p = xlfdd_drive_params();
  p.thermal.enabled = true;
  p.thermal.throttle_threshold = -1.0;
  EXPECT_THROW(StorageDrive(sim, link, p), std::invalid_argument);

  CxlDeviceParams cp;
  cp.thermal.enabled = true;
  cp.thermal.hysteresis = 0.0;
  EXPECT_THROW(CxlDevice(sim, cp), std::invalid_argument);

  // Every rate a duration is derived from must be positive and finite,
  // and is checked before the first cast.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    for (double StorageDriveParams::*rate :
         {&StorageDriveParams::iops, &StorageDriveParams::write_iops,
          &StorageDriveParams::drive_link_mbps}) {
      StorageDriveParams sp = xlfdd_drive_params();
      sp.*rate = bad;
      EXPECT_THROW(StorageDrive(sim, link, sp), std::invalid_argument)
          << bad;
    }
    HostDramParams hp;
    hp.channel_bandwidth_mbps = bad;
    EXPECT_THROW(HostDram(sim, hp, "dram"), std::invalid_argument) << bad;
    CxlDeviceParams xp;
    xp.channel_bandwidth_mbps = bad;
    EXPECT_THROW(CxlDevice(sim, xp), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace cxlgraph::device
