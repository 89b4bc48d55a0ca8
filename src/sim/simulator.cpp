#include "sim/simulator.hpp"

#include <string>

namespace cxlgraph::sim {

void Simulator::throw_past() {
  throw std::logic_error("schedule_at: time in the simulated past");
}

void Simulator::throw_wrap(SimTime delay) const {
  throw std::overflow_error(
      "schedule_after: now " + std::to_string(now_) + " ps + delay " +
      std::to_string(delay) +
      " ps overflows 64-bit picoseconds (the simulated clock would wrap)");
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (!queue_.empty()) {
    if (count >= max_events) {
      throw std::runtime_error("Simulator::run: event budget exceeded");
    }
    const Event ev = queue_.pop();
    now_ = ev.time;
    event_seq_ = ev.seq;
    if (observer_ != nullptr) {
      observer_->on_event(now_, ev.listener, ev.opcode);
    }
    execute(ev);
    ++count;
  }
  processed_ += count;
  return count;
}

}  // namespace cxlgraph::sim
