#pragma once
/// \file closure_sim.hpp
/// A simulator that also schedules closures, for tests only.
///
/// The library's event core schedules POD events only. Tests that drive a
/// device or a queue by hand are clearer with a lambda per completion, so
/// ClosureSim registers one listener of its own, first, whose payload
/// indexes a free-listed pool of closures. A closure event is an ordinary
/// POD event on that listener: it shares the queue, and so the (time, seq)
/// order, with every component's events.
#include <cstdint>
#include <functional>
#include <utility>

#include "sim/simulator.hpp"
#include "util/slot_pool.hpp"

namespace cxlgraph::sim {

class ClosureSim : public Simulator {
 public:
  using EventFn = std::function<void()>;

  ClosureSim() : listener_(add_listener(this, &ClosureSim::on_event)) {}
  ClosureSim(const ClosureSim&) = delete;
  ClosureSim& operator=(const ClosureSim&) = delete;

  using Simulator::schedule_after;
  using Simulator::schedule_at;

  void schedule_at(SimTime time, EventFn fn) {
    schedule_at(time, make_callback(std::move(fn)));
  }
  void schedule_after(SimTime delay, EventFn fn) {
    schedule_after(delay, make_callback(std::move(fn)));
  }

  /// Wraps a closure as a one-shot Callback (its slot is freed when it
  /// runs), for APIs that take a completion Callback.
  Callback make_callback(EventFn fn) {
    return Callback{listener_, 0, closures_.acquire(std::move(fn)), 0};
  }

 private:
  static void on_event(void* self, std::uint16_t /*opcode*/, std::uint32_t a,
                       std::uint32_t /*b*/) {
    auto* sim = static_cast<ClosureSim*>(self);
    // Free the slot before running: the closure may schedule more closures.
    EventFn fn = std::move(sim->closures_[a]);
    sim->closures_.release(a);
    fn();
  }

  std::uint16_t listener_;
  util::SlotPool<EventFn> closures_;
};

}  // namespace cxlgraph::sim
