#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace imobif::sim {
namespace {

/// A record whose `a` operand labels the event, so tests can read the
/// execution order off the popped stream.
EventTag label(int i) {
  return EventTag::hello_tick(static_cast<std::uint64_t>(i));
}
int label_of(const Event& ev) { return static_cast<int>(ev.tag.a); }

std::vector<int> drain(EventQueue& q) {
  std::vector<int> order;
  while (!q.empty()) order.push_back(label_of(q.pop()));
  return order;
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), Time::infinity());
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(Time::from_seconds(3.0), label(3));
  q.schedule(Time::from_seconds(1.0), label(1));
  q.schedule(Time::from_seconds(2.0), label(2));
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  for (int i = 0; i < 5; ++i) q.schedule(t, label(i));
  EXPECT_EQ(drain(q), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, PopReturnsTheScheduledRecord) {
  EventQueue q;
  q.schedule(Time::from_seconds(7.5), EventTag::notify_retry(4, 9));
  const Event ev = q.pop();
  EXPECT_EQ(ev.when, Time::from_seconds(7.5));
  EXPECT_EQ(ev.tag.kind, EventTag::Kind::kNotifyRetry);
  EXPECT_EQ(ev.tag.a, 4u);
  EXPECT_EQ(ev.tag.b, 9u);
  EXPECT_EQ(ev.tag.packet, EventTag::kNoPacket);
}

TEST(EventQueue, NextTimeReflectsEarliest) {
  EventQueue q;
  q.schedule(Time::from_seconds(5.0), label(0));
  q.schedule(Time::from_seconds(2.0), label(1));
  EXPECT_EQ(q.next_time(), Time::from_seconds(2.0));
}

TEST(EventQueue, IdsAreNeverZero) {
  // Callers (Node's HELLO and retry handles) use 0 as "no event".
  EventQueue q;
  for (int i = 0; i < 64; ++i) {
    const EventId id = q.schedule(Time::from_seconds(1.0), label(i));
    EXPECT_NE(id, 0u);
    if (i % 2 == 0) q.cancel(id);  // churn the slot free list
  }
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  const EventId id = q.schedule(Time::from_seconds(1.0), label(1));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::infinity());
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(Time::from_seconds(1.0), label(1));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(9999));
  EXPECT_FALSE(q.cancel(0));
  q.schedule(Time::from_seconds(1.0), label(1));
  // A handle naming a real slot but a generation that never existed.
  EXPECT_FALSE(q.cancel((EventId{2} << 32) | 0u));
  EXPECT_FALSE(q.cancel((EventId{3} << 32) | 0u));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelAfterPopFails) {
  EventQueue q;
  const EventId id = q.schedule(Time::from_seconds(1.0), label(1));
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, StaleIdAfterSlotReuseLeavesNewOccupantAlone) {
  // The popped event's slot is reused by the next schedule(); the old
  // handle names the same slot under an older generation.
  EventQueue q;
  const EventId popped = q.schedule(Time::from_seconds(1.0), label(1));
  q.pop();
  const EventId reused = q.schedule(Time::from_seconds(2.0), label(2));
  EXPECT_EQ(static_cast<std::uint32_t>(popped),
            static_cast<std::uint32_t>(reused));  // same slot
  EXPECT_FALSE(q.cancel(popped));
  EXPECT_EQ(q.size(), 1u);

  // Same after a cancel: the cancelled handle cannot reach its successor.
  const EventId cancelled = q.schedule(Time::from_seconds(3.0), label(3));
  ASSERT_TRUE(q.cancel(cancelled));
  const EventId successor = q.schedule(Time::from_seconds(4.0), label(4));
  EXPECT_EQ(static_cast<std::uint32_t>(cancelled),
            static_cast<std::uint32_t>(successor));
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(drain(q), (std::vector<int>{2, 4}));
  EXPECT_FALSE(q.cancel(reused));
  EXPECT_FALSE(q.cancel(successor));
}

TEST(EventQueue, CancelledEntryIsSkippedAfterItsSlotIsReused) {
  // The cancelled event's heap entry stays behind (lazy cancellation)
  // while a new event reuses its slot; the stale entry must not run the
  // new occupant's record at the old time.
  EventQueue q;
  const EventId early = q.schedule(Time::from_seconds(1.0), label(1));
  ASSERT_TRUE(q.cancel(early));
  q.schedule(Time::from_seconds(5.0), label(5));  // reuses early's slot
  EXPECT_EQ(q.next_time(), Time::from_seconds(5.0));
  const Event ev = q.pop();
  EXPECT_EQ(ev.when, Time::from_seconds(5.0));
  EXPECT_EQ(label_of(ev), 5);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  q.schedule(Time::from_seconds(1.0), label(1));
  const EventId mid = q.schedule(Time::from_seconds(2.0), label(2));
  q.schedule(Time::from_seconds(3.0), label(3));
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(drain(q), (std::vector<int>{1, 3}));
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.schedule(Time::from_seconds(1.0), label(1));
  q.schedule(Time::from_seconds(2.0), label(2));
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
}

// --- Same-tick ordering and cancellation --------------------------------

TEST(EventQueueSameTick, ManyPeersPopInSeqOrder) {
  EventQueue q;
  const Time t = Time::from_seconds(3.0);
  for (int i = 0; i < 8; ++i) q.schedule(t, label(i));
  q.schedule(Time::from_seconds(1.0), label(-1));
  EXPECT_EQ(drain(q), (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueSameTick, NewcomerRunsAfterEarlierPeers) {
  // An event scheduled while its tick is running carries a larger seq and
  // must run after every peer already queued for that tick.
  EventQueue q;
  std::vector<int> order;
  const Time t = Time::from_seconds(1.0);
  for (int i = 0; i < 3; ++i) q.schedule(t, label(i));
  while (!q.empty()) {
    const int got = label_of(q.pop());
    order.push_back(got);
    if (got == 0) q.schedule(t, label(9));  // same tick, mid-drain
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(EventQueueSameTick, NewcomerBetweenTicksRunsInItsSlot) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::from_seconds(2.0), label(20));
  q.schedule(Time::from_seconds(1.0), label(1));
  while (!q.empty()) {
    const int got = label_of(q.pop());
    order.push_back(got);
    // Newcomer between the running tick (1.0) and the queued 2.0.
    if (got == 1) q.schedule(Time::from_seconds(1.5), label(15));
  }
  EXPECT_EQ(order, (std::vector<int>{1, 15, 20}));
}

TEST(EventQueueSameTick, CancelledPeerIsSkippedAndItsSlotReused) {
  // A same-tick peer is cancelled after its tick started running and its
  // slot is immediately reused for the same tick: the stale entry is
  // skipped, the newcomer runs last.
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, label(0));
  const EventId victim = q.schedule(t, label(1));
  q.schedule(t, label(2));
  std::vector<int> order{label_of(q.pop())};
  ASSERT_TRUE(q.cancel(victim));
  EXPECT_EQ(q.size(), 1u);
  const EventId newcomer = q.schedule(t, label(7));
  EXPECT_EQ(static_cast<std::uint32_t>(newcomer),
            static_cast<std::uint32_t>(victim));
  for (const int got : drain(q)) order.push_back(got);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 7}));
  EXPECT_FALSE(q.cancel(victim));  // spent handle stays spent
}

TEST(EventQueueSameTick, CancelFromInsideTick) {
  // The in-simulation shape: a same-tick event cancels a peer that is
  // already queued behind it (e.g. a packet arrival cancelling a timeout).
  EventQueue q;
  std::vector<int> order;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, label(0));
  const EventId timeout = q.schedule(t, label(1));
  q.schedule(t, label(2));
  while (!q.empty()) {
    const int got = label_of(q.pop());
    order.push_back(got);
    if (got == 0) {
      EXPECT_TRUE(q.cancel(timeout));
    }
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueueSameTick, PendingEnumeratesExecutionOrder) {
  // Property: on a randomized schedule with cancellations, pending()
  // enumerates exactly the (time, seq, record) stream pop() then yields —
  // the contract checkpointing relies on.
  EventQueue q;
  std::uint64_t x = 987654321;
  for (int i = 0; i < 300; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    // Coarse buckets force plenty of same-tick collisions.
    const auto t = static_cast<std::int64_t>(x % 16);
    const EventId id = q.schedule(Time::from_ticks(t), label(i));
    if (i % 7 == 3) q.cancel(id);
  }
  const auto before = q.pending();
  ASSERT_EQ(before.size(), q.size());
  // Execution order equals enumeration order.
  std::size_t k = 0;
  while (!q.empty()) {
    const Event ev = q.pop();
    EXPECT_EQ(ev.when, before[k].when) << "pop " << k;
    EXPECT_EQ(ev.seq, before[k].seq) << "pop " << k;
    EXPECT_EQ(ev.tag.a, before[k].tag.a) << "pop " << k;
    ++k;
  }
  EXPECT_EQ(k, before.size());
}

TEST(EventQueueSameTick, StreamMatchesReferenceOrdering) {
  // Differential check: run the same randomized schedule through the queue
  // and through a plain stable-sorted reference; the (time, seq) streams
  // must be identical, including mid-drain same-tick insertions.
  EventQueue q;
  std::vector<std::pair<std::int64_t, int>> reference;  // (ticks, label)
  std::uint64_t x = 5551212;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto t = static_cast<std::int64_t>(x % 32);
    reference.emplace_back(t, i);
    q.schedule(Time::from_ticks(t), label(i));
  }
  std::stable_sort(reference.begin(), reference.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  const std::vector<int> got = drain(q);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(got[i], reference[i].second) << "position " << i;
  }
}

TEST(EventQueue, RandomizedCancelAndReuseMatchesReference) {
  // Differential check of generation-counted cancellation under slot
  // churn: interleave schedule / cancel (of live and of stale handles) /
  // pop against a reference set, and require identical outcomes.
  EventQueue q;
  struct Ref {
    std::int64_t ticks;
    std::uint64_t seq;
    int label;
    EventId id;
  };
  std::vector<Ref> live;
  std::vector<EventId> spent;
  std::uint64_t x = 424242;
  std::uint64_t seq = 0;
  int next_label = 0;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  std::int64_t now = 0;
  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t op = rnd() % 4;
    if (op <= 1 || live.empty()) {
      const std::int64_t t = now + static_cast<std::int64_t>(rnd() % 8);
      const EventId id = q.schedule(Time::from_ticks(t), label(next_label));
      live.push_back({t, seq++, next_label++, id});
    } else if (op == 2) {
      const std::size_t victim = rnd() % live.size();
      EXPECT_TRUE(q.cancel(live[victim].id));
      spent.push_back(live[victim].id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      if (!spent.empty()) {
        EXPECT_FALSE(q.cancel(spent[rnd() % spent.size()]));
      }
    } else {
      const auto first = std::min_element(
          live.begin(), live.end(), [](const Ref& a, const Ref& b) {
            return a.ticks != b.ticks ? a.ticks < b.ticks : a.seq < b.seq;
          });
      const Event ev = q.pop();
      EXPECT_EQ(ev.when.ticks(), first->ticks);
      EXPECT_EQ(label_of(ev), first->label);
      now = first->ticks;
      spent.push_back(first->id);
      live.erase(first);
    }
    ASSERT_EQ(q.size(), live.size());
  }
}

// --- The delivery lane ----------------------------------------------------

EventTag delivery(int i) {
  return EventTag::deliver(static_cast<std::uint64_t>(i), 0);
}

TEST(EventQueueLane, DeliveriesInterleaveWithTicksBySeq) {
  // Same-tick records alternate between the heap (ticks) and the lane
  // (deliveries); insertion order still decides.
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  for (int i = 0; i < 8; ++i) q.schedule(t, i % 2 == 0 ? label(i) : delivery(i));
  q.schedule(Time::from_seconds(0.5), delivery(8));  // out of order: heap
  q.schedule(Time::from_seconds(0.5), label(9));
  EXPECT_EQ(drain(q), (std::vector<int>{8, 9, 0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueLane, OutOfOrderDeliveryFallsBackToTheHeap) {
  EventQueue q;
  q.schedule(Time::from_seconds(2.0), delivery(0));
  q.schedule(Time::from_seconds(1.0), delivery(1));  // before the lane's back
  q.schedule(Time::from_seconds(2.0), delivery(2));
  q.schedule(Time::from_seconds(3.0), delivery(3));
  EXPECT_EQ(q.next_time(), Time::from_seconds(1.0));
  EXPECT_EQ(drain(q), (std::vector<int>{1, 0, 2, 3}));
}

TEST(EventQueueLane, CancelledLaneFrontIsSkipped) {
  EventQueue q;
  const EventId first = q.schedule(Time::from_seconds(1.0), delivery(0));
  q.schedule(Time::from_seconds(2.0), delivery(1));
  q.schedule(Time::from_seconds(1.5), label(2));
  ASSERT_TRUE(q.cancel(first));
  EXPECT_EQ(q.next_time(), Time::from_seconds(1.5));
  // The freed slot goes to a new delivery behind the lane's back.
  const EventId reused = q.schedule(Time::from_seconds(2.0), delivery(3));
  EXPECT_EQ(static_cast<std::uint32_t>(reused),
            static_cast<std::uint32_t>(first));
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.pending().size(), 3u);
  EXPECT_EQ(drain(q), (std::vector<int>{2, 1, 3}));
}

TEST(EventQueueLane, RandomizedMixMatchesReference) {
  // Differential check of the lane beside the heap: in-order deliveries
  // (the medium's now + delay), out-of-order ones that fall back to the
  // heap, HELLO ticks tied with deliveries on the same tick, and cancels
  // of lane entries with slot reuse. Pop order, seq values, pending() and
  // size() must equal a pure (time, seq) reference.
  for (const std::uint64_t seed : {1ULL, 77ULL, 9001ULL}) {
    EventQueue q;
    struct Ref {
      std::int64_t ticks;
      std::uint64_t seq;
      int label;
      EventId id;
    };
    const auto earlier = [](const Ref& a, const Ref& b) {
      return a.ticks != b.ticks ? a.ticks < b.ticks : a.seq < b.seq;
    };
    std::vector<Ref> live;
    std::uint64_t x = seed;
    std::uint64_t seq = 0;
    int next_label = 0;
    const auto rnd = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x >> 33;
    };
    std::int64_t now = 0;
    constexpr std::int64_t kDelay = 5;
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t op = rnd() % 10;
      if (op <= 3 || live.empty()) {
        // A fan-out: several in-order deliveries at now + delay.
        const auto fan = static_cast<int>(rnd() % 4) + 1;
        for (int k = 0; k < fan; ++k) {
          const EventId id =
              q.schedule(Time::from_ticks(now + kDelay), delivery(next_label));
          live.push_back({now + kDelay, seq++, next_label++, id});
        }
      } else if (op == 4) {
        // A delivery earlier than the lane's back.
        const std::int64_t t = now + static_cast<std::int64_t>(rnd() % kDelay);
        const EventId id = q.schedule(Time::from_ticks(t), delivery(next_label));
        live.push_back({t, seq++, next_label++, id});
      } else if (op == 5) {
        // A HELLO tick, often on a delivery's tick.
        const std::int64_t t =
            now + (rnd() % 2 == 0 ? kDelay
                                  : static_cast<std::int64_t>(rnd() % 20));
        const EventId id = q.schedule(Time::from_ticks(t), label(next_label));
        live.push_back({t, seq++, next_label++, id});
      } else if (op == 6) {
        const std::size_t victim = rnd() % live.size();
        ASSERT_TRUE(q.cancel(live[victim].id));
        EXPECT_FALSE(q.cancel(live[victim].id));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        const auto first = std::min_element(live.begin(), live.end(), earlier);
        EXPECT_EQ(q.next_time().ticks(), first->ticks);
        const Event ev = q.pop();
        ASSERT_EQ(ev.when.ticks(), first->ticks) << "step " << step;
        ASSERT_EQ(ev.seq, first->seq) << "step " << step;
        ASSERT_EQ(label_of(ev), first->label) << "step " << step;
        now = first->ticks;
        live.erase(first);
      }
      ASSERT_EQ(q.size(), live.size());
      if (step % 500 == 0) {
        std::vector<Ref> order = live;
        std::sort(order.begin(), order.end(), earlier);
        const std::vector<Event> pending = q.pending();
        ASSERT_EQ(pending.size(), order.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          EXPECT_EQ(pending[i].seq, order[i].seq) << "pending " << i;
          EXPECT_EQ(label_of(pending[i]), order[i].label) << "pending " << i;
        }
      }
    }
    std::sort(live.begin(), live.end(), earlier);
    for (const Ref& ref : live) {
      const Event ev = q.pop();
      ASSERT_EQ(ev.seq, ref.seq);
      ASSERT_EQ(label_of(ev), ref.label);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_time(), Time::infinity());
  }
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<std::int64_t> times;
  // Deterministic pseudo-random times via a simple LCG.
  std::uint64_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    times.push_back(static_cast<std::int64_t>(x % 100000));
  }
  for (const auto t : times) q.schedule(Time::from_ticks(t), label(0));
  Time prev = Time::zero();
  while (!q.empty()) {
    const Time cur = q.pop().when;
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace imobif::sim
