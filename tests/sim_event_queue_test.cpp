#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

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

// --- The fan FIFO --------------------------------------------------------

EventTag delivery(int i) {
  return EventTag::deliver(static_cast<std::uint64_t>(i), 0);
}

/// Receiver ids first..first+count-1, the fan's delivery labels.
std::vector<std::uint32_t> ids(int first, int count) {
  std::vector<std::uint32_t> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(static_cast<std::uint32_t>(first + i));
  }
  return out;
}

TEST(EventQueueFan, PopsOneDeliveryPerReceiverWithConsecutiveSeqs) {
  EventQueue q;
  q.schedule(Time::from_seconds(1.0), label(100));  // seq 0
  q.fanout(Time::from_seconds(1.0), 42, std::vector<std::uint32_t>{7, 3, 9});
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(label_of(q.pop()), 100);
  const std::vector<std::uint32_t> want{7, 3, 9};
  for (std::uint64_t k = 0; k < want.size(); ++k) {
    const Event ev = q.pop();
    EXPECT_EQ(ev.when, Time::from_seconds(1.0));
    EXPECT_EQ(ev.seq, 1 + k);
    EXPECT_EQ(ev.tag.kind, EventTag::Kind::kDeliver);
    EXPECT_EQ(ev.tag.a, want[k]);
    EXPECT_EQ(ev.tag.packet, 42u);
    EXPECT_EQ(ev.tag.b, 0u);
  }
  EXPECT_TRUE(q.empty());
  // The next record continues the seq count after the fan's reservation.
  q.schedule(Time::from_seconds(2.0), label(1));
  EXPECT_EQ(q.pop().seq, 4u);
}

TEST(EventQueueFan, EmptyFanReservesNothing) {
  EventQueue q;
  q.fanout(Time::from_seconds(1.0), 0, std::span<const std::uint32_t>{});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), Time::infinity());
  q.schedule(Time::from_seconds(1.0), label(1));
  EXPECT_EQ(q.pop().seq, 0u);
}

TEST(EventQueueFan, FansInterleaveWithTicksBySeq) {
  // Same-tick records alternate between the heap (ticks) and fans;
  // insertion order still decides.
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, label(0));
  q.fanout(t, 0, ids(1, 2));
  q.schedule(t, label(3));
  q.fanout(t, 0, ids(4, 3));
  q.schedule(Time::from_seconds(0.5), label(7));
  q.fanout(Time::from_seconds(2.0), 0, ids(8, 1));
  q.schedule(t, label(9));
  EXPECT_EQ(drain(q), (std::vector<int>{7, 0, 1, 2, 3, 4, 5, 6, 9, 8}));
}

TEST(EventQueueFan, OutOfOrderFanFallsBackToTheHeap) {
  EventQueue q;
  q.fanout(Time::from_seconds(2.0), 0, ids(0, 2));
  q.fanout(Time::from_seconds(1.0), 0, ids(2, 2));  // before the back fan
  q.fanout(Time::from_seconds(2.0), 0, ids(4, 1));
  q.fanout(Time::from_seconds(3.0), 0, ids(5, 1));
  EXPECT_EQ(q.next_time(), Time::from_seconds(1.0));
  std::vector<std::uint64_t> seqs;
  std::vector<int> order;
  while (!q.empty()) {
    const Event ev = q.pop();
    seqs.push_back(ev.seq);
    order.push_back(label_of(ev));
  }
  EXPECT_EQ(order, (std::vector<int>{2, 3, 0, 1, 4, 5}));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 3, 0, 1, 4, 5}));
}

TEST(EventQueueFan, ScheduledDeliveryStaysCancellable) {
  // schedule() never makes a fan, so a directly scheduled kDeliver keeps
  // its handle; fan deliveries beside it are untouched.
  EventQueue q;
  q.fanout(Time::from_seconds(1.0), 0, ids(0, 2));
  const EventId direct = q.schedule(Time::from_seconds(1.0), delivery(2));
  q.fanout(Time::from_seconds(1.0), 0, ids(3, 1));
  ASSERT_TRUE(q.cancel(direct));
  EXPECT_FALSE(q.cancel(direct));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pending().size(), 3u);
  EXPECT_EQ(drain(q), (std::vector<int>{0, 1, 3}));
}

TEST(EventQueueFan, FanRunsAheadOfACancelledHeapTop) {
  // A cancelled heap top earlier than the front fan stays on the heap
  // until it reaches the front; it must neither run nor hide the fan.
  EventQueue q;
  const EventId early = q.schedule(Time::from_seconds(1.0), label(0));
  q.fanout(Time::from_seconds(2.0), 0, ids(1, 2));
  q.schedule(Time::from_seconds(3.0), label(3));
  ASSERT_TRUE(q.cancel(early));
  EXPECT_EQ(q.next_time(), Time::from_seconds(2.0));
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.next_time(), Time::infinity());
}

TEST(EventQueueFan, PendingExpandsAPartlyPoppedFan) {
  EventQueue q;
  q.fanout(Time::from_seconds(1.0), 5, ids(0, 4));  // seqs 0..3
  q.schedule(Time::from_seconds(1.0), label(10));   // seq 4
  q.pop();
  q.pop();
  const std::vector<Event> pending = q.pending();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0].seq, 2u);
  EXPECT_EQ(label_of(pending[0]), 2);
  EXPECT_EQ(pending[0].tag.packet, 5u);
  EXPECT_EQ(pending[1].seq, 3u);
  EXPECT_EQ(label_of(pending[1]), 3);
  EXPECT_EQ(pending[2].seq, 4u);
  EXPECT_EQ(pending[2].tag.kind, EventTag::Kind::kHelloTick);
  // Enumerating left the queue as it was.
  EXPECT_EQ(drain(q), (std::vector<int>{2, 3, 10}));
}

TEST(EventQueueSorted, OutOfOrderScheduleBehindALateBackPopsInOrder) {
  // 1, 4 and then 4 again go to the sorted FIFO; 2, 3 and 0.5 are earlier
  // than its back and go to the heap. The pops merge both by (time, seq).
  EventQueue q;
  const auto at = [&q](double s, int i) {
    q.schedule(Time::from_seconds(s), label(i));
  };
  at(1.0, 0);
  at(4.0, 1);
  at(2.0, 2);
  at(3.0, 3);
  at(4.0, 4);
  at(0.5, 5);
  EXPECT_EQ(q.next_time(), Time::from_seconds(0.5));
  EXPECT_EQ(drain(q), (std::vector<int>{5, 0, 2, 3, 1, 4}));
}

TEST(EventQueueSorted, CancelledFifoFrontIsSkipped) {
  EventQueue q;
  const EventId front = q.schedule(Time::from_seconds(1.0), label(0));
  q.schedule(Time::from_seconds(3.0), label(1));
  q.fanout(Time::from_seconds(2.0), 0, ids(2, 1));
  ASSERT_TRUE(q.cancel(front));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), Time::from_seconds(2.0));
  Event ev;
  // Nothing live is due by 1.5 s, though the cancelled front is.
  EXPECT_FALSE(q.pop_due(Time::from_seconds(1.5), ev));
  EXPECT_EQ(q.size(), 2u);
  ASSERT_TRUE(q.pop_due(Time::from_seconds(2.0), ev));
  EXPECT_EQ(label_of(ev), 2);
  EXPECT_EQ(q.next_time(), Time::from_seconds(3.0));
  EXPECT_EQ(drain(q), (std::vector<int>{1}));
  EXPECT_EQ(q.next_time(), Time::infinity());
}

TEST(EventQueueSorted, EqualTimeTiesAcrossFifoHeapAndFanResolveBySeq) {
  // At one time t: seq 0 in the sorted FIFO (whose back then moves to
  // t + 1 with seq 1), seqs 2 and 5 on the heap, seqs 3-4 a fan.
  EventQueue q;
  const Time t = Time::from_seconds(1.0);
  q.schedule(t, label(0));
  q.schedule(t + Time::from_seconds(1.0), label(1));
  q.schedule(t, label(2));
  q.fanout(t, 0, ids(3, 2));
  q.schedule(t, label(5));
  const std::vector<Event> pending = q.pending();
  std::vector<std::uint64_t> pending_seqs;
  for (const Event& ev : pending) pending_seqs.push_back(ev.seq);
  EXPECT_EQ(pending_seqs, (std::vector<std::uint64_t>{0, 2, 3, 4, 5, 1}));
  std::vector<std::uint64_t> seqs;
  std::vector<int> order;
  while (!q.empty()) {
    const Event ev = q.pop();
    seqs.push_back(ev.seq);
    order.push_back(label_of(ev));
  }
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4, 5, 1}));
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 2, 3, 4, 5, 1}));

  // A cancelled back, dropped by next_time(), empties the FIFO, so a later
  // schedule at t lands there with a seq above the heap's peer at t.
  EventQueue q2;
  const EventId back = q2.schedule(t + Time::from_seconds(1.0), label(0));
  q2.schedule(t, label(1));
  ASSERT_TRUE(q2.cancel(back));
  EXPECT_EQ(q2.next_time(), t);
  q2.schedule(t, label(2));
  q2.fanout(t, 0, ids(3, 1));
  EXPECT_EQ(drain(q2), (std::vector<int>{1, 2, 3}));
}

TEST(EventQueuePopDue, BoundaryCases) {
  EventQueue q;
  Event ev;
  EXPECT_FALSE(q.pop_due(Time::infinity(), ev));  // empty
  EXPECT_FALSE(q.pop_due(Time::zero(), ev));

  const Time until = Time::from_ticks(100);
  q.schedule(Time::from_ticks(101), label(1));  // one tick past
  EXPECT_FALSE(q.pop_due(until, ev));
  EXPECT_EQ(q.size(), 1u);

  q.fanout(until, 0, ids(2, 2));  // exactly at until
  ASSERT_TRUE(q.pop_due(until, ev));
  EXPECT_EQ(ev.when, until);
  EXPECT_EQ(label_of(ev), 2);
  ASSERT_TRUE(q.pop_due(until, ev));
  EXPECT_EQ(label_of(ev), 3);
  EXPECT_FALSE(q.pop_due(until, ev));

  // A heap record exactly at until is due; a cancelled one is skipped
  // without letting the later record through.
  const EventId cancelled = q.schedule(until, label(4));
  q.schedule(until, label(5));
  ASSERT_TRUE(q.cancel(cancelled));
  ASSERT_TRUE(q.pop_due(until, ev));
  EXPECT_EQ(label_of(ev), 5);
  EXPECT_FALSE(q.pop_due(until, ev));
  EXPECT_EQ(q.size(), 1u);

  ASSERT_TRUE(q.pop_due(Time::from_ticks(101), ev));
  EXPECT_EQ(label_of(ev), 1);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pop_due(Time::infinity(), ev));
}

// Infinity is the empty-queue sentinel: both scheduling paths refuse it
// in checked builds (the asan-ubsan and tsan legs set IMOBIF_CHECKS=ON).
#if IMOBIF_CHECKS_ENABLED
TEST(EventQueueDeathTest, InfinityIsNotSchedulable) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventQueue q;
  EXPECT_DEATH(q.fanout(Time::infinity(), 0, ids(0, 3)),
               "IMOBIF_ENSURE failed.*empty-queue sentinel");
  EXPECT_DEATH(q.schedule(Time::infinity(), label(0)),
               "IMOBIF_ENSURE failed.*empty-queue sentinel");
}
#endif

TEST(EventQueueFan, RandomizedMixMatchesReference) {
  // Differential check of the fan FIFO and the sorted FIFO beside the
  // heap against a reference queue, a std::multimap keyed by time (equal
  // keys keep their insertion order, which is the seq order). The mix:
  // fans of 0-12 receivers at now + delay (the medium's shape), fans
  // earlier than the back fan (the schedule() fallback), scheduled
  // kDeliver records and HELLO ticks, re-arms at now + a fixed period
  // (the sorted FIFO's shape) and at shorter and longer delays (either
  // container), cancels of any of those and of spent handles, pops, and
  // pending() and size() taken at random steps, mid-fan. Every popped
  // (when, seq, tag) and every pending() must match.
  struct Ref {
    std::uint64_t seq;
    EventTag tag;
  };
  using RefQueue = std::multimap<std::int64_t, Ref>;
  const auto expect_same = [](const Event& got, RefQueue::const_iterator want,
                              const char* what, int step) {
    ASSERT_EQ(got.when.ticks(), want->first) << what << " step " << step;
    ASSERT_EQ(got.seq, want->second.seq) << what << " step " << step;
    ASSERT_EQ(got.tag.kind, want->second.tag.kind) << what << " step " << step;
    ASSERT_EQ(got.tag.a, want->second.tag.a) << what << " step " << step;
    ASSERT_EQ(got.tag.packet, want->second.tag.packet)
        << what << " step " << step;
  };
  for (const std::uint64_t seed : {1ULL, 77ULL, 9001ULL}) {
    EventQueue q;
    RefQueue ref;
    std::vector<std::pair<EventId, RefQueue::iterator>> cancellable;
    std::vector<EventId> spent;
    std::uint64_t x = seed;
    std::uint64_t seq = 0;
    int next_label = 0;
    const auto rnd = [&x] {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      return x >> 33;
    };
    std::int64_t now = 0;
    constexpr std::int64_t kDelay = 5;
    constexpr std::int64_t kPeriod = 40;
    const auto add_fan = [&](std::int64_t t) {
      const auto packet = static_cast<std::uint32_t>(rnd() % 1000);
      const std::vector<std::uint32_t> receivers =
          ids(next_label, static_cast<int>(rnd() % 13));
      next_label += static_cast<int>(receivers.size());
      q.fanout(Time::from_ticks(t), packet, receivers);
      for (const std::uint32_t r : receivers) {
        ref.emplace(t, Ref{seq++, EventTag::deliver(r, packet)});
      }
    };
    const auto add_record = [&](std::int64_t t, const EventTag& tag) {
      const EventId id = q.schedule(Time::from_ticks(t), tag);
      cancellable.emplace_back(id, ref.emplace(t, Ref{seq++, tag}));
      ++next_label;
    };
    for (int step = 0; step < 8000; ++step) {
      const std::uint64_t op = rnd() % 15;
      if (op <= 3 || ref.empty()) {
        add_fan(now + kDelay);
      } else if (op == 4) {
        // Usually earlier than the back fan: the heap fallback.
        add_fan(now + static_cast<std::int64_t>(rnd() % kDelay));
      } else if (op == 5) {
        add_record(now + static_cast<std::int64_t>(rnd() % (2 * kDelay)),
                   delivery(next_label));
      } else if (op == 6) {
        // A HELLO tick, often on a fan's tick.
        const std::int64_t t =
            now + (rnd() % 2 == 0 ? kDelay
                                  : static_cast<std::int64_t>(rnd() % 20));
        add_record(t, label(next_label));
      } else if (op == 12 || op == 13) {
        // A re-arm one period on: no earlier than the sorted FIFO's back
        // unless a longer delay went there first.
        add_record(now + kPeriod, label(next_label));
      } else if (op == 14) {
        // Shorter or longer than the period: the heap, or a new back.
        const std::int64_t t =
            now + static_cast<std::int64_t>(rnd() % (3 * kPeriod));
        add_record(t, label(next_label));
      } else if (op == 7 && !cancellable.empty()) {
        const std::size_t pick = rnd() % cancellable.size();
        const auto [id, it] = cancellable[pick];
        cancellable.erase(cancellable.begin() +
                          static_cast<std::ptrdiff_t>(pick));
        ASSERT_TRUE(q.cancel(id)) << "step " << step;
        ref.erase(it);
        spent.push_back(id);
        // A spent handle (cancelled, or its record already ran) is refused.
        EXPECT_FALSE(q.cancel(spent[rnd() % spent.size()]));
      } else if (op == 8) {
        const std::vector<Event> pending = q.pending();
        ASSERT_EQ(pending.size(), ref.size()) << "step " << step;
        auto want = ref.cbegin();
        for (const Event& ev : pending) {
          expect_same(ev, want++, "pending", step);
        }
      } else {
        // A burst of pops, often stopping mid-fan.
        for (auto n = 1 + rnd() % 24; n > 0 && !ref.empty(); --n) {
          const auto want = ref.cbegin();
          EXPECT_EQ(q.next_time().ticks(), want->first);
          expect_same(q.pop(), want, "pop", step);
          now = want->first;
          // A popped heap record's handle is spent.
          std::erase_if(cancellable, [&](const auto& c) {
            if (c.second != want) return false;
            spent.push_back(c.first);
            return true;
          });
          ref.erase(want);
        }
      }
      ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    }
    for (auto want = ref.cbegin(); want != ref.cend(); ++want) {
      expect_same(q.pop(), want, "drain", -1);
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
