/// \file device_state_test.cpp
/// State-dependent device-model tests: thermal throttling, flash
/// endurance, queue-depth-dependent throughput, and the contract that
/// every model defaults OFF and leaves the baseline timing bit-identical.

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "closure_sim.hpp"
#include "device/cxl_device.hpp"
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

SimTime batch_write_makespan(const StorageDriveParams& p, int requests,
                             std::uint32_t bytes) {
  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDrive drive(sim, link, p);
  SimTime last = 0;
  for (int i = 0; i < requests; ++i) {
    drive.submit_write(0, bytes,
                       sim.make_callback([&] { last = sim.now(); }));
  }
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

// ----------------------------------------------------------- endurance ----

TEST(Endurance, WearFactorStartsAtOneAndIsCapped) {
  EnduranceParams p;
  p.enabled = true;
  p.wear_per_gb = 1.0;
  p.latency_slope = 0.05;
  p.max_factor = 4.0;

  WearState w;
  EXPECT_DOUBLE_EQ(w.latency_factor(p), 1.0);  // fresh device
  w.charge(p, 1'000'000'000);                  // 1 GB -> 1 wear unit
  EXPECT_DOUBLE_EQ(w.wear_units(), 1.0);
  EXPECT_DOUBLE_EQ(w.latency_factor(p), 1.05);
  w.charge(p, 1'000'000'000'000);  // 1 TB: far past the cap
  EXPECT_DOUBLE_EQ(w.latency_factor(p), 4.0);
}

TEST(Endurance, WearSlowsProgramsOverTime) {
  const StorageDriveParams fresh = xlfdd_drive_params();
  StorageDriveParams worn = fresh;
  worn.endurance.enabled = true;
  // Aggressive aging so a short test run spans a visible latency shift:
  // one wear unit per megabyte programmed, +10% program latency per unit.
  worn.endurance.wear_per_gb = 1'000.0;
  worn.endurance.latency_slope = 0.1;
  worn.endurance.max_factor = 8.0;

  const int writes = 300;
  const SimTime fresh_span = batch_write_makespan(fresh, writes, 2048);
  const SimTime worn_span = batch_write_makespan(worn, writes, 2048);
  EXPECT_GT(worn_span, fresh_span);

  ClosureSim sim;
  PcieLink link(sim, pcie_x16(PcieGen::kGen4));
  StorageDrive drive(sim, link, worn);
  for (int i = 0; i < writes; ++i) {
    drive.submit_write(0, 2048, sim.make_callback([] {}));
  }
  sim.run();
  EXPECT_GT(drive.wear_units(), 0.0);
  EXPECT_DOUBLE_EQ(drive.stats().wear_units, drive.wear_units());
  EXPECT_EQ(drive.stats().written_bytes, 300u * 2048u);
}

// ------------------------------------------------------------ qd curve ----

TEST(QdCurve, ScaleInterpolatesAndClamps) {
  QdCurveParams p;
  p.enabled = true;  // empty points -> default curve
  EXPECT_DOUBLE_EQ(qd_scale(p, 0), 0.25);  // 0 treated as QD 1
  EXPECT_DOUBLE_EQ(qd_scale(p, 1), 0.25);
  EXPECT_DOUBLE_EQ(qd_scale(p, 4), 0.55);
  EXPECT_DOUBLE_EQ(qd_scale(p, 10), 0.7);  // midway between 4 and 16
  EXPECT_DOUBLE_EQ(qd_scale(p, 64), 1.0);
  EXPECT_DOUBLE_EQ(qd_scale(p, 4096), 0.92);  // clamped past the end

  p.points = {{2.0, 0.5}, {8.0, 1.0}};
  EXPECT_DOUBLE_EQ(qd_scale(p, 1), 0.5);
  EXPECT_DOUBLE_EQ(qd_scale(p, 5), 0.75);
  EXPECT_DOUBLE_EQ(qd_scale(p, 100), 1.0);
}

TEST(QdCurve, ShallowQueueUnderutilizesController) {
  // With the curve enabled, QD-1 closed-loop traffic only reaches 25% of
  // the nominal IOPS (default curve), so the serial makespan grows; deep
  // open-loop traffic keeps near-nominal throughput.
  StorageDriveParams flat = xlfdd_drive_params();
  // Slow the controller so the service interval (which the curve scales)
  // dominates over the fixed media access latency.
  flat.iops = 50'000.0;
  StorageDriveParams curved = flat;
  curved.qd_curve.enabled = true;

  const int requests = 100;
  const SimTime flat_serial = serial_read_makespan(flat, requests, 2048);
  const SimTime curved_serial =
      serial_read_makespan(curved, requests, 2048);
  EXPECT_GT(curved_serial, flat_serial);

  const SimTime flat_batch = batch_read_makespan(flat, 400, 2048);
  const SimTime curved_batch = batch_read_makespan(curved, 400, 2048);
  // Deep queues sit on the saturated part of the curve: the penalty is
  // far smaller than the 4x serial one.
  const double serial_ratio = static_cast<double>(curved_serial) /
                              static_cast<double>(flat_serial);
  const double batch_ratio = static_cast<double>(curved_batch) /
                             static_cast<double>(flat_batch);
  EXPECT_GT(serial_ratio, 1.5);
  EXPECT_LT(batch_ratio, serial_ratio);
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

  EnduranceParams e;
  e.max_factor = 0.5;
  EXPECT_NO_THROW(validate(e));
  e.enabled = true;
  EXPECT_THROW(validate(e), std::invalid_argument);

  QdCurveParams q;
  q.points = {{4.0, 0.5}, {2.0, 1.0}};  // unsorted
  EXPECT_NO_THROW(validate(q));
  q.enabled = true;
  EXPECT_THROW(validate(q), std::invalid_argument);
  q.points = {{1.0, 0.0}};  // non-positive scale
  EXPECT_THROW(validate(q), std::invalid_argument);
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
}

}  // namespace
}  // namespace cxlgraph::device
