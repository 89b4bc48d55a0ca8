#pragma once
/// \file simulator.hpp
/// The discrete-event simulation loop.
///
/// Components (devices, links, the GPU engine, the latency probes, the
/// serving fleet and its replicas) register themselves as *listeners* —
/// one `(self, handler)` pair in a dispatch table — and schedule
/// type-tagged POD events against their listener index; run() drains the
/// queue in time order and calls each event's handler with its opcode
/// and payload. Continuations cross component boundaries as POD
/// `Callback`s (listener + opcode + payload), so the whole datapath
/// (GPU warp -> link -> device -> link -> warp) runs without a single
/// per-event allocation. That is the only way to schedule an event: a
/// fresh simulator has no listener of its own. There is no global
/// synchronization other than the queue, so composition is purely by
/// event — the same structure as hardware request/response flows.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"

namespace cxlgraph::sim {

/// Handler for a registered listener: `self` is the pointer passed to
/// add_listener, `opcode`/`a`/`b` come from the event verbatim.
using HandlerFn = void (*)(void* self, std::uint16_t opcode, std::uint32_t a,
                           std::uint32_t b);

inline constexpr std::uint16_t kNullListener = 0xffffu;

/// Passive tap on the dispatch loop. An attached observer sees every event
/// just before its handler runs; implementations must only *read* (count,
/// sample, trace) — scheduling events or mutating simulation state from an
/// observer would perturb the (time, seq) order the identity goldens pin.
class EventObserver {
 public:
  virtual ~EventObserver() = default;
  virtual void on_event(SimTime now, std::uint16_t listener,
                        std::uint16_t opcode) = 0;
};

/// A continuation as data: who to notify (listener), what about (opcode),
/// and a small payload. Copyable, trivially destructible, no allocation.
/// Invoke through Simulator::dispatch (immediate) or schedule_at/after.
struct Callback {
  std::uint16_t listener = kNullListener;
  std::uint16_t opcode = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

class Simulator {
 public:
  SimTime now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// The sequence number the next scheduled event takes, and the one of
  /// the event being (or last) dispatched. Together with now() they place
  /// a component's own record of an elided event exactly where the event
  /// would have run: before every event pushed after it, after every
  /// event pushed before it at the same time.
  std::uint64_t next_seq() const noexcept { return queue_.next_seq(); }
  std::uint64_t event_seq() const noexcept { return event_seq_; }

  /// Attaches (or detaches, with nullptr) a passive dispatch observer.
  /// Costs one predictable branch per event when detached.
  void set_observer(EventObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Size of the listener table.
  static constexpr std::size_t kMaxListeners = kNullListener;

  /// Registers a listener; the returned index is this component's event
  /// address for the lifetime of the simulator. There is no removal:
  /// `self` must outlive every event the simulator runs for it.
  std::uint16_t add_listener(void* self, HandlerFn fn) {
    if (handlers_.size() >= kMaxListeners) {
      throw std::length_error("Simulator: listener table full");
    }
    handlers_.push_back(Handler{self, fn});
    return static_cast<std::uint16_t>(handlers_.size() - 1);
  }

  /// Schedules an event at an absolute time; throws std::logic_error for
  /// a time in the simulated past.
  void schedule_at(SimTime time, std::uint16_t listener, std::uint16_t opcode,
                   std::uint32_t a = 0, std::uint32_t b = 0) {
    if (time < now_) throw_past();
    queue_.push(time, listener, opcode, a, b);
  }
  /// Schedules an event `delay` after now(); throws std::overflow_error
  /// when now() + delay does not fit in SimTime, which would wrap the
  /// clock to a time in the past.
  void schedule_after(SimTime delay, std::uint16_t listener,
                      std::uint16_t opcode, std::uint32_t a = 0,
                      std::uint32_t b = 0) {
    SimTime time = 0;
    if (__builtin_add_overflow(now_, delay, &time)) throw_wrap(delay);
    queue_.push(time, listener, opcode, a, b);
  }
  void schedule_at(SimTime time, const Callback& cb) {
    schedule_at(time, cb.listener, cb.opcode, cb.a, cb.b);
  }
  void schedule_after(SimTime delay, const Callback& cb) {
    schedule_after(delay, cb.listener, cb.opcode, cb.a, cb.b);
  }

  /// Immediately invokes a callback through the handler table (no queue
  /// traffic).
  void dispatch(const Callback& cb) {
    const Handler& h = handlers_[cb.listener];
    h.fn(h.self, cb.opcode, cb.a, cb.b);
  }

  /// Runs until the queue drains. Returns the number of events processed
  /// by this call. Throws if the event budget is exceeded (runaway guard).
  std::uint64_t run(std::uint64_t max_events = kDefaultEventBudget);

  static constexpr std::uint64_t kDefaultEventBudget = 2'000'000'000ULL;

 private:
  struct Handler {
    void* self;
    HandlerFn fn;
  };

  // Cold throws, out of the inlined scheduling paths.
  [[noreturn]] static void throw_past();
  [[noreturn]] void throw_wrap(SimTime delay) const;

  void execute(const Event& ev) {
    const Handler& h = handlers_[ev.listener];
    h.fn(h.self, ev.opcode, ev.a, ev.b);
  }

  EventQueue queue_;
  std::vector<Handler> handlers_;
  SimTime now_ = 0;
  std::uint64_t event_seq_ = 0;
  std::uint64_t processed_ = 0;
  EventObserver* observer_ = nullptr;
};

}  // namespace cxlgraph::sim
