#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace imobif::sim {
namespace {

/// A labelled single-step record; the label rides in Event::a.
Event ev(std::uint64_t label) { return Event::emit_packet(label); }

/// Pops until empty, returning the labels in execution order. `actions`
/// maps a label to what that event does when it runs (schedule, cancel…),
/// standing in for the handler a simulator would dispatch to.
std::vector<std::uint64_t> drain(
    EventQueue& q,
    const std::map<std::uint64_t, std::function<void()>>& actions = {}) {
  std::vector<std::uint64_t> order;
  while (!q.empty()) {
    const EventQueue::Popped popped = q.pop();
    order.push_back(popped.event.a);
    const auto it = actions.find(popped.event.a);
    if (it != actions.end()) it->second();
  }
  return order;
}

using Labels = std::vector<std::uint64_t>;

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), Time::infinity());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(Time::from_seconds(3.0), ev(3));
  q.schedule(Time::from_seconds(1.0), ev(1));
  q.schedule(Time::from_seconds(2.0), ev(2));
  EXPECT_EQ(drain(q), (Labels{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  for (std::uint64_t i = 0; i < 5; ++i) q.schedule(t, ev(i));
  EXPECT_EQ(drain(q), (Labels{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReturnsScheduledTimeAndRecord) {
  EventQueue q;
  q.schedule(Time::from_seconds(7.5), Event::notify_retry(4, 9));
  const EventQueue::Popped popped = q.pop();
  EXPECT_EQ(popped.when, Time::from_seconds(7.5));
  EXPECT_EQ(popped.event.kind, Event::Kind::kNotifyRetry);
  EXPECT_EQ(popped.event.a, 4u);
  EXPECT_EQ(popped.event.b, 9u);
  EXPECT_EQ(popped.step, 0u);
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  q.schedule(Time::from_seconds(5.0), ev(0));
  q.schedule(Time::from_seconds(2.0), ev(1));
  EXPECT_EQ(q.next_time(), Time::from_seconds(2.0));
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  const EventId id = q.schedule(Time::from_seconds(1.0), ev(1));
  EXPECT_NE(id, 0u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::infinity());
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(Time::from_seconds(1.0), ev(0));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_FALSE(q.cancel(0));
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.schedule(Time::from_seconds(1.0), ev(0));
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleHandleNeverCancelsSlotReuser) {
  // Liveness is a slot vector: a recycled slot must not honor the handle
  // of the event that held it before.
  EventQueue q;
  const EventId old_id = q.schedule(Time::from_seconds(1.0), ev(1));
  q.pop();  // frees the slot
  const EventId new_id = q.schedule(Time::from_seconds(2.0), ev(2));
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.cancel(old_id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(drain(q), (Labels{2}));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  q.schedule(Time::from_seconds(1.0), ev(1));
  const EventId mid = q.schedule(Time::from_seconds(2.0), ev(2));
  q.schedule(Time::from_seconds(3.0), ev(3));
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(drain(q), (Labels{1, 3}));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(Time::from_seconds(1.0), ev(0));
  q.schedule(Time::from_seconds(2.0), ev(1));
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

// --- Fan-out records (event_tag.hpp) ---------------------------------------

TEST(EventQueueFanout, StepsOncePerReceiverInOrder) {
  EventQueue q;
  q.schedule(Time::from_seconds(1.0), Event::deliver(7, 4));
  EXPECT_EQ(q.size(), 4u);  // steps, not records
  for (std::uint32_t i = 0; i < 4; ++i) {
    const EventQueue::Popped popped = q.pop();
    EXPECT_EQ(popped.event.kind, Event::Kind::kDeliver);
    EXPECT_EQ(popped.event.a, 7u);
    EXPECT_EQ(popped.step, i);
    EXPECT_EQ(q.size(), 3u - i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueFanout, SameTickNeighborsKeepTheirPlace) {
  // Events scheduled before the fan-out at its tick run before every
  // receiver; events scheduled after it (even mid-fan-out) run after the
  // last receiver — the order k separate deliveries would have.
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, ev(100));
  q.schedule(t, Event::deliver(200, 3));
  q.schedule(t, ev(300));
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  while (!q.empty()) {
    const EventQueue::Popped popped = q.pop();
    order.emplace_back(popped.event.a, popped.step);
    if (popped.event.a == 200 && popped.step == 0) q.schedule(t, ev(400));
  }
  EXPECT_EQ(order, (std::vector<std::pair<std::uint64_t, std::uint32_t>>{
                       {100, 0}, {200, 0}, {200, 1}, {200, 2}, {300, 0},
                       {400, 0}}));
}

TEST(EventQueueFanout, PendingMatchesSeparateEvents) {
  // A k-receiver record enumerates exactly like k single events scheduled
  // back to back: same times, same sequence numbers, one entry per step —
  // also after some of its steps have run.
  EventQueue fan;
  EventQueue flat;
  const Time t = Time::from_seconds(2.0);
  fan.schedule(t, ev(1));
  flat.schedule(t, ev(1));
  fan.schedule(t, Event::deliver(5, 4));
  for (int i = 0; i < 4; ++i) flat.schedule(t, Event::deliver(5, 1));
  fan.schedule(Time::from_seconds(1.0), ev(2));
  flat.schedule(Time::from_seconds(1.0), ev(2));
  for (int popped = 0; popped < 4; ++popped) {
    const auto a = fan.pending();
    const auto b = flat.pending();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(fan.size(), flat.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].when, b[i].when) << "index " << i;
      EXPECT_EQ(a[i].seq, b[i].seq) << "index " << i;
      EXPECT_EQ(a[i].event.kind, b[i].event.kind) << "index " << i;
    }
    fan.pop();
    flat.pop();
  }
  const auto rest = fan.pending();
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].step, 2u);  // ev(2) and ev(1) ran, then receivers 0-1
  EXPECT_EQ(rest[1].step, 3u);
}

TEST(EventQueueFanout, CancelDropsEveryRemainingStep) {
  EventQueue q;
  const EventId id = q.schedule(Time::from_seconds(1.0), Event::deliver(0, 5));
  q.schedule(Time::from_seconds(2.0), ev(9));
  q.pop();
  q.pop();
  EXPECT_EQ(q.size(), 4u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(drain(q), (Labels{9}));
}

// --- Same-tick ordering ------------------------------------------------------

TEST(EventQueueTick, SameTickDrainPreservesSeqOrder) {
  EventQueue q;
  const Time t = Time::from_seconds(3.0);
  for (std::uint64_t i = 0; i < 8; ++i) q.schedule(t, ev(i));
  q.schedule(Time::from_seconds(2.0), ev(99));
  EXPECT_EQ(drain(q), (Labels{99, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTick, ScheduleDuringTickRunsAfterSameTickPeers) {
  // An event scheduled while a tick is being drained, for that *same*
  // tick, carries a larger seq and must run after every peer already
  // queued — the property that keeps replays bit-identical.
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, ev(0));
  q.schedule(t, ev(1));
  q.schedule(t, ev(2));
  EXPECT_EQ(drain(q, {{0, [&] { q.schedule(t, ev(9)); }}}),
            (Labels{0, 1, 2, 9}));
}

TEST(EventQueueTick, NewcomerBetweenTicksRunsBeforeLaterTick) {
  EventQueue q;
  q.schedule(Time::from_seconds(2.0), ev(20));
  q.schedule(Time::from_seconds(1.0), ev(1));
  const auto newcomer = [&] { q.schedule(Time::from_seconds(1.5), ev(15)); };
  EXPECT_EQ(drain(q, {{1, newcomer}}), (Labels{1, 15, 20}));
}

TEST(EventQueueTick, CancelSameTickPeerMidTick) {
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, ev(0));
  const EventId victim = q.schedule(t, ev(1));
  q.schedule(t, ev(2));
  EXPECT_EQ(q.pop().event.a, 0u);
  EXPECT_TRUE(q.cancel(victim));  // its tick is already being drained
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), t);
  EXPECT_EQ(drain(q), (Labels{2}));
  EXPECT_FALSE(q.cancel(victim));  // spent handle stays spent
}

TEST(EventQueueTick, CancelFromInsideSameTickEvent) {
  // The in-simulation shape: a same-tick event cancels a peer queued
  // behind it (e.g. a packet arrival cancelling a timeout).
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, ev(0));
  const EventId timeout = q.schedule(t, ev(1));
  q.schedule(t, ev(2));
  EXPECT_EQ(drain(q, {{0, [&] { EXPECT_TRUE(q.cancel(timeout)); }}}),
            (Labels{0, 2}));
}

TEST(EventQueueTick, PendingMatchesExecutionOrder) {
  // Property: on a randomized schedule with fan-outs and cancellations,
  // pending() enumerates exactly the (time, seq, step) stream the queue
  // then pops — also when taken part-way through a tick or a fan-out.
  EventQueue q;
  std::uint64_t x = 987654321;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Coarse buckets force plenty of same-tick collisions; every fifth
    // record is a small fan-out.
    const auto t = static_cast<std::int64_t>(x % 16);
    const std::uint32_t fanout = i % 5 == 0 ? 1 + (x >> 40) % 4 : 1;
    ids.push_back(q.schedule(Time::from_ticks(t), Event::deliver(0, fanout)));
  }
  for (std::size_t i = 0; i < ids.size(); i += 7) q.cancel(ids[i]);
  for (int i = 0; i < 41; ++i) q.pop();
  const auto before = q.pending();
  ASSERT_EQ(before.size(), q.size());
  for (std::size_t i = 1; i < before.size(); ++i) {
    EXPECT_TRUE(before[i - 1].when < before[i].when ||
                (before[i - 1].when == before[i].when &&
                 before[i - 1].seq < before[i].seq))
        << "index " << i;
  }
  std::size_t k = 0;
  while (!q.empty()) {
    const EventQueue::Popped popped = q.pop();
    ASSERT_LT(k, before.size());
    EXPECT_EQ(popped.when, before[k].when) << "pop " << k;
    EXPECT_EQ(popped.step, before[k].step) << "pop " << k;
    ++k;
  }
  EXPECT_EQ(k, before.size());
}

TEST(EventQueueTick, StreamMatchesStableSortReference) {
  // Differential check: run the same randomized schedule through the queue
  // and through a plain stable-sorted reference; the label streams must be
  // identical, including mid-drain same-tick insertions.
  EventQueue q;
  std::vector<std::pair<std::int64_t, std::uint64_t>> reference;
  std::uint64_t x = 5551212;
  for (std::uint64_t label = 0; label < 200; ++label) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto t = static_cast<std::int64_t>(x % 32);
    reference.emplace_back(t, label);
    q.schedule(Time::from_ticks(t), ev(label));
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const Labels got = drain(q);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(got[i], reference[i].second) << "position " << i;
  }
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q.schedule(Time::from_ticks(static_cast<std::int64_t>(x % 100000)),
               ev(0));
  }
  Time prev = Time::zero();
  while (!q.empty()) {
    const Time cur = q.pop().when;
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace imobif::sim
