#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <vector>

#include "closure_sim.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"

namespace cxlgraph::sim {
namespace {

// The EventQueue stores type-tagged PODs; these tests drive it directly
// and read the popped events' payloads — no handlers involved.

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(30, 0, 0, 3);
  q.push(10, 0, 0, 1);
  q.push(20, 0, 0, 2);
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesPreserveInsertionOrder) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.push(5, 0, 0, i);
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CarriesListenerOpcodeAndPayload) {
  EventQueue q;
  q.push(1, 3, 7, 0xdeadbeef, 0xfeed);
  const Event e = q.pop();
  EXPECT_EQ(e.time, 1u);
  EXPECT_EQ(e.listener, 3u);
  EXPECT_EQ(e.opcode, 7u);
  EXPECT_EQ(e.a, 0xdeadbeefu);
  EXPECT_EQ(e.b, 0xfeedu);
}

TEST(EventQueue, HeavyEqualTimestampLoadPreservesInsertionOrder) {
  // The determinism guarantee the parallel sweep leans on: ten thousand
  // events at one timestamp must drain in exactly insertion order, even
  // when the heap has rebalanced thousands of times.
  constexpr std::uint64_t kEvents = 10000;
  EventQueue q;
  for (std::uint64_t i = 0; i < kEvents; ++i) q.push(123, 0, 0, i);
  std::vector<std::uint64_t> order;
  order.reserve(kEvents);
  while (!q.empty()) order.push_back(q.pop().a);
  ASSERT_EQ(order.size(), kEvents);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(order[i], i) << "tie-break broke at event " << i;
  }
}

TEST(EventQueue, EqualTimestampBatchesInterleavedWithOtherTimes) {
  // Mixed load: bursts at equal timestamps separated by earlier/later
  // events. Expected order: all of time 5 in insertion order, then all of
  // time 10 in insertion order, regardless of push interleaving.
  EventQueue q;
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.push(10, 0, 0, 1000 + i);
    q.push(5, 0, 0, i);
  }
  std::vector<std::uint64_t> order;
  while (!q.empty()) order.push_back(q.pop().a);
  ASSERT_EQ(order.size(), 200u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(order[i], i);
    EXPECT_EQ(order[100 + i], 1000 + i);
  }
}

TEST(EventQueue, PushDuringDrainKeepsEqualTimeOrdering) {
  // Events pushed *while draining* at the same timestamp run after the
  // already-queued ones: the FIFO-run fast path appends, and sequence
  // numbers keep growing monotonically.
  EventQueue q;
  q.push(1, 0, 0, 0);
  q.push(1, 0, 0, 1);
  std::vector<std::uint64_t> order;
  order.push_back(q.pop().a);  // starts the run at time 1
  q.push(1, 0, 0, 2);          // appended to the live run
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(EventQueue, PushLaterTimeDuringRunGoesToHeap) {
  EventQueue q;
  q.push(1, 0, 0, 0);
  q.push(1, 0, 0, 1);
  std::vector<std::uint64_t> order;
  order.push_back(q.pop().a);
  q.push(2, 0, 0, 3);  // later than the run: heap
  q.push(1, 0, 0, 2);  // run append
  while (!q.empty()) order.push_back(q.pop().a);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(EventQueue, InterleavedPushPopStaysSorted) {
  // An adversarial interleaving over 100 (listener, opcode) classes, more
  // than any stack registers; opcode 17 shares opcode 1's lane. Most
  // pushes extend their class's monotone stream (lane appends; lanes drain
  // and refill as pops catch up); the rest land behind their class's
  // latest time (the overflow heap, whose front they often undercut). Pops
  // are mixed in throughout. The output must be globally sorted by
  // (time, seq) with every event popped exactly once, carrying its own
  // listener and opcode.
  constexpr std::uint64_t kListeners = 20;
  constexpr std::uint16_t kOpcodes[] = {0, 1, 2, 3, 17};
  constexpr std::uint64_t kClasses = kListeners * 5;
  EventQueue q;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::vector<SimTime> latest(kClasses, 0);
  std::vector<std::uint64_t> class_of;  // by payload
  std::vector<Event> popped;
  std::uint32_t pushed = 0;
  SimTime floor = 0;  // discrete-event rule: never push before "now"
  auto pop = [&]() {
    popped.push_back(q.pop());
    floor = popped.back().time;
  };
  for (int round = 0; round < 5000; ++round) {
    const std::uint64_t pushes = 1 + next() % 4;
    for (std::uint64_t p = 0; p < pushes; ++p) {
      const std::uint64_t c = next() % kClasses;
      const SimTime t = next() % 4 == 0
                            ? floor + next() % 1000
                            : std::max(latest[c], floor) + next() % 50;
      latest[c] = std::max(latest[c], t);
      q.push(t, static_cast<std::uint16_t>(c % kListeners),
             kOpcodes[c / kListeners], pushed++);
      class_of.push_back(c);
    }
    const std::uint64_t pops = next() % 6;
    for (std::uint64_t p = 0; p < pops && !q.empty(); ++p) pop();
  }
  while (!q.empty()) pop();
  ASSERT_EQ(popped.size(), pushed);
  std::vector<bool> seen(pushed, false);
  for (std::size_t i = 0; i < popped.size(); ++i) {
    ASSERT_FALSE(seen[popped[i].a]) << "event popped twice at pop " << i;
    seen[popped[i].a] = true;
    const std::uint64_t c = class_of[popped[i].a];
    ASSERT_EQ(popped[i].listener, c % kListeners);
    ASSERT_EQ(popped[i].opcode, kOpcodes[c / kListeners]);
    if (i == 0) continue;
    const bool ordered =
        popped[i - 1].time < popped[i].time ||
        (popped[i - 1].time == popped[i].time &&
         popped[i - 1].seq < popped[i].seq);
    ASSERT_TRUE(ordered) << "disorder at pop " << i;
  }
}

// ------------------------------------------------------------ simulator ----
// These drive the loop with closures through the tests-only ClosureSim,
// whose closure events are POD events on its own listener.

TEST(Simulator, AdvancesTime) {
  ClosureSim sim;
  SimTime seen = 0;
  sim.schedule_at(100, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  ClosureSim sim;
  std::vector<SimTime> times;
  sim.schedule_at(50, [&] {
    times.push_back(sim.now());
    sim.schedule_after(25, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<SimTime>{50, 75}));
}

TEST(Simulator, RejectsSchedulingInThePast) {
  ClosureSim sim;
  sim.schedule_at(100, [&] {
    EXPECT_THROW(sim.schedule_at(50, [] {}), std::logic_error);
  });
  sim.run();
}

TEST(Simulator, CascadedEventsAllRun) {
  ClosureSim sim;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) sim.schedule_after(1, chain);
  };
  sim.schedule_at(0, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 99u);
  EXPECT_EQ(sim.events_processed(), 100u);
}

TEST(Simulator, EventBudgetGuardsRunaway) {
  ClosureSim sim;
  std::function<void()> forever = [&] { sim.schedule_after(1, forever); };
  sim.schedule_at(0, forever);
  EXPECT_THROW(sim.run(/*max_events=*/1000), std::runtime_error);
}

TEST(Simulator, DeterministicAcrossRuns) {
  auto run_once = [] {
    ClosureSim sim;
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      sim.schedule_at(static_cast<SimTime>((i * 37) % 13),
                      [&order, i] { order.push_back(i); });
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Simulator, RunReturnsEventCount) {
  ClosureSim sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i, [] {});
  EXPECT_EQ(sim.run(), 7u);
}

// ------------------------------------------- POD listeners + dispatch ----

/// A listener that records (opcode, a, time) per delivered event.
struct Recorder {
  Simulator& sim;
  std::vector<std::uint64_t> log;

  static void on_event(void* self, std::uint16_t opcode, std::uint32_t a,
                       std::uint32_t /*b*/) {
    auto* r = static_cast<Recorder*>(self);
    r->log.push_back(opcode * 1'000'000 + a * 1'000 + r->sim.now());
  }
};

TEST(PodDispatch, EventsReachTheRegisteredListener) {
  Simulator sim;
  Recorder rec{sim, {}};
  const std::uint16_t id = sim.add_listener(&rec, &Recorder::on_event);
  sim.schedule_at(5, id, /*opcode=*/2, /*a=*/1);
  sim.schedule_at(3, id, /*opcode=*/1, /*a=*/9);
  sim.run();
  ASSERT_EQ(rec.log.size(), 2u);
  EXPECT_EQ(rec.log[0], 1u * 1'000'000 + 9 * 1'000 + 3);
  EXPECT_EQ(rec.log[1], 2u * 1'000'000 + 1 * 1'000 + 5);
}

TEST(PodDispatch, DispatchInvokesImmediately) {
  Simulator sim;
  Recorder rec{sim, {}};
  const std::uint16_t id = sim.add_listener(&rec, &Recorder::on_event);
  sim.dispatch(Callback{id, 4, 2, 0});
  EXPECT_EQ(rec.log.size(), 1u);
  EXPECT_EQ(sim.events_processed(), 0u);  // no queue traffic
}

TEST(PodDispatch, CallbackScheduleMatchesPodSchedule) {
  Simulator sim;
  Recorder rec{sim, {}};
  const std::uint16_t id = sim.add_listener(&rec, &Recorder::on_event);
  const Callback cb{id, 1, 2, 0};
  sim.schedule_at(10, cb);
  sim.schedule_after(20, cb);
  sim.run();
  ASSERT_EQ(rec.log.size(), 2u);
  EXPECT_EQ(rec.log[0] % 1000, 10u);
  EXPECT_EQ(rec.log[1] % 1000, 20u);
}

TEST(PodDispatch, MakeCallbackIsOneShotAndReusesSlots) {
  ClosureSim sim;
  int calls = 0;
  for (int i = 0; i < 100; ++i) {
    sim.schedule_at(static_cast<SimTime>(i),
                    sim.make_callback([&calls] { ++calls; }));
  }
  sim.run();
  EXPECT_EQ(calls, 100);
}

/// Equivalence: the same logical schedule issued once through ClosureSim's
/// closures and once through POD events must execute in exactly the same
/// order — both are POD events on one queue, under one (time, seq)
/// contract.
TEST(PodDispatch, ClosureAndPodSchedulingInterleaveDeterministically) {
  struct Tagger {
    std::vector<int>* out;
    static void on_event(void* self, std::uint16_t /*op*/, std::uint32_t a,
                         std::uint32_t /*b*/) {
      static_cast<Tagger*>(self)->out->push_back(static_cast<int>(a));
    }
  };
  auto run_once = [](bool pod_first) {
    ClosureSim sim;
    std::vector<int> order;
    Tagger tagger{&order};
    const std::uint16_t id = sim.add_listener(&tagger, &Tagger::on_event);
    for (int i = 0; i < 64; ++i) {
      const SimTime t = static_cast<SimTime>((i * 13) % 7);
      if ((i % 2 == 0) == pod_first) {
        sim.schedule_at(t, id, 0, static_cast<std::uint32_t>(i));
      } else {
        sim.schedule_at(t, [&order, i] { order.push_back(i); });
      }
    }
    sim.run();
    return order;
  };
  EXPECT_EQ(run_once(true), run_once(true));
  // Same timestamps, same push order, mirrored transport: same order.
  EXPECT_EQ(run_once(true), run_once(false));
}

TEST(PodDispatch, FreshSimulatorHasNoListener) {
  // The whole table is free for components: the first listener gets
  // index 0, and exactly kMaxListeners fit.
  Simulator sim;
  Recorder rec{sim, {}};
  for (std::size_t i = 0; i < Simulator::kMaxListeners; ++i) {
    ASSERT_EQ(sim.add_listener(&rec, &Recorder::on_event), i);
  }
  EXPECT_THROW(sim.add_listener(&rec, &Recorder::on_event),
               std::length_error);
}

TEST(PodDispatch, ClosureSimRegistersItsListenerFirst) {
  ClosureSim sim;
  Recorder rec{sim, {}};
  EXPECT_EQ(sim.add_listener(&rec, &Recorder::on_event), 1u);
}

TEST(PodDispatch, ScheduleAfterRejectsAClockWrap) {
  // A delay that passed every duration check can still end past the last
  // picosecond: now + delay would wrap to a time in the past and run at
  // once. The last representable time is still schedulable.
  constexpr SimTime kLast = std::numeric_limits<SimTime>::max();
  Simulator sim;
  Recorder rec{sim, {}};
  const std::uint16_t id = sim.add_listener(&rec, &Recorder::on_event);
  sim.schedule_at(100, id, 0);
  sim.run();
  sim.schedule_after(kLast - 100, id, 0);
  EXPECT_THROW(sim.schedule_after(kLast - 99, id, 0), std::overflow_error);
  EXPECT_THROW(sim.schedule_after(kLast, Callback{id, 0}),
               std::overflow_error);
  sim.run();
  EXPECT_EQ(rec.log.size(), 2u);  // the rejected events never ran
  EXPECT_EQ(sim.now(), kLast);
}

TEST(PodDispatch, MillionEventStressIsDeterministic) {
  // 1M mixed-time events through the 4-ary heap + FIFO-run fast path;
  // the execution order must be identical across runs and the event
  // count exact.
  auto run_once = [] {
    Simulator sim;
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    struct Mixer {
      std::uint64_t* checksum;
      Simulator* sim;
      static void on_event(void* self, std::uint16_t /*op*/,
                           std::uint32_t a, std::uint32_t /*b*/) {
        auto* m = static_cast<Mixer*>(self);
        *m->checksum = (*m->checksum ^ (a + m->sim->now())) *
                       0x100000001b3ULL;
      }
    };
    Mixer mixer{&checksum, &sim};
    const std::uint16_t id = sim.add_listener(&mixer, &Mixer::on_event);
    std::uint64_t x = 12345;
    for (std::uint64_t i = 0; i < 1'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      // Three bands: heavy same-timestamp bursts, a sparse tail, and a
      // mid band — exercising run-append, heap push, and cohort drain.
      const SimTime t = i % 3 == 0 ? 1000 : 1000 + x % 5000;
      sim.schedule_at(t, id, 0, static_cast<std::uint32_t>(i));
    }
    const std::uint64_t processed = sim.run();
    EXPECT_EQ(processed, 1'000'000u);
    return checksum;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cxlgraph::sim
