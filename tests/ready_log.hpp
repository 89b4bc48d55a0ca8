#pragma once
/// \file ready_log.hpp
/// A ReadySink for tests that drive a memory device by hand.
///
/// Devices announce a request's ready time when they fix it. ReadyLog
/// records every announcement, in order, and pushes the request's closure
/// at the announced time, the moment it is told: the (time, seq) slot
/// where a device pushed the ready event itself before it announced. So a
/// test's closures run exactly where they ran then, ties included.
#include <functional>
#include <utility>
#include <vector>

#include "closure_sim.hpp"
#include "device/device.hpp"

namespace cxlgraph::device {

class ReadyLog final : public ReadySink {
 public:
  explicit ReadyLog(sim::ClosureSim& sim) : sim_(sim) {}
  ReadyLog(const ReadyLog&) = delete;
  ReadyLog& operator=(const ReadyLog&) = delete;

  /// The ReadyFn for one request whose closure runs at its ready time.
  ReadyFn operator()(sim::ClosureSim::EventFn fn = [] {}) {
    return ReadyFn{this, sim_.make_callback(std::move(fn))};
  }

  void ready_at(SimTime time, const sim::Callback& cb) override {
    times.push_back(time);
    sim_.schedule_at(time, cb);
  }

  /// Announced ready times, in announcement order.
  std::vector<SimTime> times;

 private:
  sim::ClosureSim& sim_;
};

}  // namespace cxlgraph::device
