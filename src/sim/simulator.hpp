#pragma once
/// \file simulator.hpp
/// The discrete-event simulation loop.
///
/// Components (devices, links, the GPU engine) register themselves as
/// *listeners* — one `(self, handler)` pair in a dispatch table — and
/// schedule type-tagged POD events against their listener index; run()
/// drains the queue in time order and calls each event's handler with its
/// opcode and payload. Continuations cross component boundaries as POD
/// `Callback`s (listener + opcode + payload), so the whole hot datapath
/// (GPU warp -> link -> device -> link -> warp) runs without a single
/// per-event allocation. There is no global synchronization other than
/// the queue, so composition is purely by event — the same structure as
/// hardware request/response flows.
///
/// A `std::function` fallback (schedule_at(time, fn) / make_callback) is
/// kept for cold paths — tests and the gpusim latency probes — through an
/// internal listener whose payload indexes a free-listed closure-slot
/// pool; it shares the queue and therefore the deterministic (time, seq)
/// order with POD events. The serving layer does not use it: the fleet
/// and every replica register listeners of their own.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/slot_pool.hpp"

namespace cxlgraph::sim {

using EventFn = std::function<void()>;

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

  bool valid() const noexcept { return listener != kNullListener; }
};

class Simulator {
 public:
  Simulator();

  SimTime now() const noexcept { return now_; }
  std::uint64_t events_processed() const noexcept { return processed_; }
  std::size_t pending_events() const noexcept { return queue_.size(); }

  /// Attaches (or detaches, with nullptr) a passive dispatch observer.
  /// Costs one predictable branch per event when detached.
  void set_observer(EventObserver* observer) noexcept {
    observer_ = observer;
  }
  EventObserver* observer() const noexcept { return observer_; }

  /// Size of the listener table; index 0 is the closure fallback's.
  static constexpr std::size_t kMaxListeners = kNullListener;

  /// Registers a listener; the returned index is this component's event
  /// address for the lifetime of the simulator.
  std::uint16_t add_listener(void* self, HandlerFn fn) {
    if (handlers_.size() >= kMaxListeners) {
      throw std::length_error("Simulator: listener table full");
    }
    handlers_.push_back(Handler{self, fn});
    return static_cast<std::uint16_t>(handlers_.size() - 1);
  }

  // --- POD scheduling (the hot path) ---------------------------------
  void schedule_at(SimTime time, std::uint16_t listener, std::uint16_t opcode,
                   std::uint32_t a = 0, std::uint32_t b = 0) {
    check_not_past(time);
    queue_.push(time, listener, opcode, a, b);
  }
  void schedule_after(SimTime delay, std::uint16_t listener,
                      std::uint16_t opcode, std::uint32_t a = 0,
                      std::uint32_t b = 0) {
    queue_.push(now_ + delay, listener, opcode, a, b);
  }
  void schedule_at(SimTime time, const Callback& cb) {
    schedule_at(time, cb.listener, cb.opcode, cb.a, cb.b);
  }
  void schedule_after(SimTime delay, const Callback& cb) {
    queue_.push(now_ + delay, cb.listener, cb.opcode, cb.a, cb.b);
  }

  /// Immediately invokes a callback through the handler table (no queue
  /// traffic) — the POD equivalent of calling a captured closure.
  void dispatch(const Callback& cb) {
    const Handler& h = handlers_[cb.listener];
    h.fn(h.self, cb.opcode, cb.a, cb.b);
  }

  // --- Closure fallback (cold paths, tests) --------------------------
  void schedule_at(SimTime time, EventFn fn) {
    check_not_past(time);
    queue_.push(time, kClosureListener, 0, store_closure(std::move(fn)), 0);
  }
  void schedule_after(SimTime delay, EventFn fn) {
    queue_.push(now_ + delay, kClosureListener, 0,
                store_closure(std::move(fn)), 0);
  }

  /// Wraps a closure as a one-shot Callback (slot freed on first invoke).
  /// For cold paths that hand continuations to Callback-taking APIs.
  Callback make_callback(EventFn fn) {
    return Callback{kClosureListener, 0, store_closure(std::move(fn)), 0};
  }

  /// Runs until the queue drains. Returns the number of events processed
  /// by this call. Throws if the event budget is exceeded (runaway guard).
  std::uint64_t run(std::uint64_t max_events = kDefaultEventBudget);

  /// Runs until the queue drains or simulated time would exceed `deadline`.
  /// Events at exactly `deadline` still execute.
  std::uint64_t run_until(SimTime deadline,
                          std::uint64_t max_events = kDefaultEventBudget);

  static constexpr std::uint64_t kDefaultEventBudget = 2'000'000'000ULL;

 private:
  struct Handler {
    void* self;
    HandlerFn fn;
  };

  /// Listener 0 is the simulator's own closure trampoline.
  static constexpr std::uint16_t kClosureListener = 0;

  static void closure_trampoline(void* self, std::uint16_t opcode,
                                 std::uint32_t a, std::uint32_t b);

  void check_not_past(SimTime time) const {
    if (time < now_) {
      throw std::logic_error("schedule_at: time in the simulated past");
    }
  }

  std::uint32_t store_closure(EventFn fn) {
    return closures_.acquire(std::move(fn));
  }

  void execute(const Event& ev) {
    const Handler& h = handlers_[ev.listener];
    h.fn(h.self, ev.opcode, ev.a, ev.b);
  }

  EventQueue queue_;
  std::vector<Handler> handlers_;
  util::SlotPool<EventFn> closures_;
  SimTime now_ = 0;
  std::uint64_t processed_ = 0;
  EventObserver* observer_ = nullptr;
};

}  // namespace cxlgraph::sim
