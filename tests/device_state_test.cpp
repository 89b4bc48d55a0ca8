/// \file device_state_test.cpp
/// The thermal model the serving layer charges once per quantum (its
/// accumulator, hysteresis and parameter validation), and the device
/// constructors' rejection of rates whose durations do not fit.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "device/cxl_device.hpp"
#include "device/host_dram.hpp"
#include "device/pcie.hpp"
#include "device/state_model.hpp"
#include "device/storage.hpp"
#include "device/xlfdd.hpp"
#include "util/units.hpp"

namespace cxlgraph::device {
namespace {

using util::ps_from_us;
using util::SimTime;

// ------------------------------------------------------------- thermal ----

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

TEST(Validate, DeviceConstructorsRejectBadRates) {
  Simulator sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  // Every rate a duration is derived from must be positive and finite,
  // and slow enough rates must still give durations that fit in 64-bit
  // picoseconds: an IOPS figure its service interval, a bandwidth the
  // longest transfer a 32-bit byte count names. Each is checked before
  // the first cast; 1e-9 per second is far past both bounds.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e-9}) {
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
    PcieLinkParams lp = pcie_x16(PcieGen::kGen4);
    lp.bandwidth_mbps = bad;
    EXPECT_THROW(PcieLink(sim, lp), std::invalid_argument) << bad;
  }
}

}  // namespace
}  // namespace cxlgraph::device
