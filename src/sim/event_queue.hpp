#pragma once
/// \file event_queue.hpp
/// Time-ordered event queue for the discrete-event simulator.
///
/// Events are type-tagged PODs — a listener index, an opcode, and a small
/// payload — not heap-allocated callables: the queue never touches the
/// allocator on the steady state, which is what makes the simulation core
/// allocation-free per event.
///
/// Storage exploits the structure of hardware pipelines: almost every
/// event stream a component schedules is *monotone in time* (a fixed-delay
/// request hop, a serialized channel's ready times, a link's deliveries,
/// the per-transaction processing gap — each later than the one before).
/// The queue therefore keeps one FIFO *lane* per (listener, opcode) class,
/// appends in O(1) while a stream stays monotone, and falls back to a flat
/// 4-ary *overflow heap* for the rare out-of-order push.
///
/// The next event is picked from a binary min-heap of *source heads*: one
/// entry per non-empty source (each lane, and the overflow heap), caching
/// that source's earliest (time, seq). Appending to a non-empty lane leaves
/// its head, and so the head heap, untouched; a push onto an empty lane is
/// one insert; an out-of-order push that becomes the overflow heap's new
/// front is one decrease-key; a pop is one sift. Neither push nor pop scans
/// the lanes, so a stack may register any number of (listener, opcode)
/// classes.
///
/// pop() returns the unique lexicographic (time, seq) minimum, so the drain
/// order is *exactly* the order a single heap would produce — lanes are a
/// speed trick, not a semantic: equal timestamps still execute in push
/// order (the monotonically increasing sequence number breaks ties),
/// keeping every simulation bit-for-bit deterministic, and a stream that
/// stops being monotone only loses the fast path, never its ordering.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/units.hpp"

namespace cxlgraph::sim {

using util::SimTime;

/// One scheduled event. `listener` indexes the simulator's registered
/// handler table, `opcode` tells the listener what happened, and `a`/`b`
/// carry a small payload (a pool slot, a warp index, a flit count...).
/// 32 bytes — two events per cache line — so sift paths stay cheap.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint16_t listener = 0;
  std::uint16_t opcode = 0;
};

class EventQueue {
 public:
  void push(SimTime time, std::uint16_t listener, std::uint16_t opcode,
            std::uint32_t a = 0, std::uint32_t b = 0) {
    const Event e{time, next_seq_++, a, b, listener, opcode};
    const std::uint32_t id = lane_for(listener, opcode);
    std::vector<Event>& events = lanes_[id].events;
    if (events.empty()) {
      events.push_back(e);
      sift_up(sources_++, Head{e.time, e.seq, id});
    } else if (time >= events.back().time) {
      events.push_back(e);  // seq grows monotonically: stays sorted
    } else {
      overflow_push(e);
    }
  }

  bool empty() const noexcept { return sources_ == 0; }

  /// The sequence number the next push takes.
  std::uint64_t next_seq() const noexcept { return next_seq_; }

  /// Removes and returns the earliest event. Undefined when empty().
  Event pop() {
    const std::uint32_t source = heads_.front().source;
    if (source == kOverflow) return pop_overflow();
    Lane& lane = lanes_[source];
    Event e = lane.events[lane.head];
    if (++lane.head == lane.events.size()) {
      lane.events.clear();
      lane.head = 0;
      pop_head();
    } else {
      // Steady-state lanes never fully drain; compact the served prefix
      // occasionally (amortized O(1)) so memory stays bounded.
      if (lane.head >= 1024 && lane.head * 2 >= lane.events.size()) {
        compact(lane);
      }
      const Event& next = lane.events[lane.head];
      sift_down(0, Head{next.time, next.seq, source});
    }
    return e;
  }

 private:
  static constexpr std::size_t kArity = 4;
  /// Lanes per listener. Components use a handful of opcodes; higher ones
  /// share lanes modulo this, which costs only the fast path, never order.
  static constexpr std::size_t kOpcodeLanes = 16;
  /// Head-heap source id of the overflow heap; lanes are 0, 1, 2, ...
  static constexpr std::uint32_t kOverflow = 0xffffffffu;
  static constexpr std::uint32_t kNoLane = 0xffffffffu;

  /// One (listener, opcode) class's pending events, sorted; the served
  /// prefix [0, head) is dropped when the lane drains or compacts.
  struct Lane {
    std::vector<Event> events;
    std::size_t head = 0;
  };

  /// A non-empty source and a copy of its earliest event's key.
  struct Head {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t source;
  };

  /// (time, seq) order, for Events in the overflow heap and Heads alike.
  template <class T>
  static bool before(const T& x, const T& y) noexcept {
    if (x.time != y.time) return x.time < y.time;
    return x.seq < y.seq;
  }

  /// Lane id of (listener, opcode). Listener indices are small and dense,
  /// so a flat table with kOpcodeLanes slots per listener indexes them.
  std::uint32_t lane_for(std::uint16_t listener, std::uint16_t opcode) {
    const std::size_t slot =
        std::size_t{listener} * kOpcodeLanes + opcode % kOpcodeLanes;
    if (slot < lane_ids_.size() && lane_ids_[slot] != kNoLane) {
      return lane_ids_[slot];
    }
    return add_lane(slot);
  }

  // Cold paths live in event_queue.cpp, out of the inlined hot path.
  std::uint32_t add_lane(std::size_t slot);
  void compact(Lane& lane);
  void overflow_push(const Event& e);

  /// Pops the 4-ary overflow heap's front. Inline, unlike the cold paths:
  /// as a call it slowed the dispatch loop, which inlines pop().
  Event pop_overflow() {
    const Event e = heap_.front();
    const Event back = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) {
      pop_head();
      return e;
    }
    std::size_t i = 0;
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t last_child = std::min(first_child + kArity, n);
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], back)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = back;
    sift_down(0, Head{heap_.front().time, heap_.front().seq, kOverflow});
    return e;
  }

  // --- head heap: binary, over non-empty sources ---------------------
  // Both sifts move a hole instead of swapping. No entry tracks its slot:
  // a lane's head only changes when it is popped, i.e. while it is the
  // root, and the overflow heap's rare decrease-key finds its entry.

  void sift_up(std::size_t i, Head h) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(h, heads_[parent])) break;
      heads_[i] = heads_[parent];
      i = parent;
    }
    heads_[i] = h;
  }

  void sift_down(std::size_t i, Head h) {
    const std::size_t n = sources_;
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heads_[child + 1], heads_[child])) ++child;
      if (!before(heads_[child], h)) break;
      heads_[i] = heads_[child];
      i = child;
    }
    heads_[i] = h;
  }

  /// Drops the root (its source just drained) by sifting the last entry
  /// down from the top.
  void pop_head() {
    if (--sources_ > 0) sift_down(0, heads_[sources_]);
  }

  std::vector<Head> heads_;  // binary min-heap on (time, seq)
  std::size_t sources_ = 0;  // live entries of heads_
  std::vector<Lane> lanes_;
  std::vector<std::uint32_t> lane_ids_;  // see lane_for()
  std::vector<Event> heap_;  // implicit 4-ary min-heap on (time, seq)
  std::uint64_t next_seq_ = 0;
};

}  // namespace cxlgraph::sim
