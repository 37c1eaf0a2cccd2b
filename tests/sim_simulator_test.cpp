#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace imobif::sim {
namespace {

/// The test-only event kind: stores each lambda in a table and schedules
/// a kCallback record naming its index. Domain events are plain records
/// executed by net::Network::dispatch and never go through here.
class CallbackSink final : public EventSink {
 public:
  explicit CallbackSink(Simulator& sim) : sim_(sim) { sim.set_sink(this); }

  EventId at(Time when, std::function<void()> fn) {
    fns_.push_back(std::move(fn));
    return sim_.at(when, EventTag{EventTag::Kind::kCallback,
                                  EventTag::kNoPacket, fns_.size() - 1, 0});
  }
  EventId after(Time delay, std::function<void()> fn) {
    return at(sim_.now() + delay, std::move(fn));
  }

  void dispatch(const Event& ev) override {
    if (ev.tag.kind != EventTag::Kind::kCallback) {
      throw std::logic_error("CallbackSink: not a callback event");
    }
    // Moved out first: the callback may schedule more callbacks, which
    // can reallocate the table.
    const std::function<void()> fn = std::move(fns_[ev.tag.a]);
    fn();
  }

 private:
  Simulator& sim_;
  std::vector<std::function<void()>> fns_;
};

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  CallbackSink cb(sim);
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunsEventsAndAdvancesClock) {
  Simulator sim;
  CallbackSink cb(sim);
  std::vector<double> times;
  cb.at(Time::from_seconds(1.0), [&] { times.push_back(sim.now().seconds()); });
  cb.at(Time::from_seconds(2.0), [&] { times.push_back(sim.now().seconds()); });
  const std::size_t ran = sim.run();
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 2.0);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  CallbackSink cb(sim);
  cb.at(Time::from_seconds(5.0), [&] {
    cb.after(Time::from_seconds(2.0), [] {});
  });
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 7.0);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  CallbackSink cb(sim);
  cb.at(Time::from_seconds(5.0), [] {});
  sim.run();
  EXPECT_THROW(cb.at(Time::from_seconds(1.0), [] {}),
               std::invalid_argument);
}

TEST(Simulator, RunUntilHorizonLeavesLaterEvents) {
  Simulator sim;
  CallbackSink cb(sim);
  bool early = false, late = false;
  cb.at(Time::from_seconds(1.0), [&] { early = true; });
  cb.at(Time::from_seconds(10.0), [&] { late = true; });
  sim.run(Time::from_seconds(5.0));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending_events(), 1u);
  // Clock advanced to the horizon even though no event sits there.
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 5.0);
  sim.run();
  EXPECT_TRUE(late);
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  CallbackSink cb(sim);
  int count = 0;
  cb.at(Time::from_seconds(1.0), [&] { ++count; });
  cb.at(Time::from_seconds(2.0), [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  CallbackSink cb(sim);
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    cb.at(Time::from_seconds(i), [&] {
      if (++count == 3) sim.stop();
    });
  }
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(sim.pending_events(), 7u);
  // A subsequent run resumes.
  sim.run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  CallbackSink cb(sim);
  bool ran = false;
  const EventId id = cb.at(Time::from_seconds(1.0), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, NestedSchedulingSameTickRuns) {
  Simulator sim;
  CallbackSink cb(sim);
  std::vector<int> order;
  cb.at(Time::from_seconds(1.0), [&] {
    order.push_back(1);
    cb.after(Time::zero(), [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  CallbackSink cb(sim);
  for (int i = 1; i <= 5; ++i) cb.at(Time::from_seconds(i), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, DispatchesRecordsToTheSink) {
  struct Recorder final : EventSink {
    std::vector<Event> got;
    void dispatch(const Event& ev) override { got.push_back(ev); }
  };
  Simulator sim;
  Recorder recorder;
  sim.set_sink(&recorder);
  sim.at(Time::from_seconds(2.0), EventTag::emit_packet(7));
  sim.at(Time::from_seconds(1.0), EventTag::fault_set(3, true));
  EXPECT_EQ(sim.run(), 2u);
  ASSERT_EQ(recorder.got.size(), 2u);
  EXPECT_EQ(recorder.got[0].when, Time::from_seconds(1.0));
  EXPECT_EQ(recorder.got[0].tag.kind, EventTag::Kind::kFaultSet);
  EXPECT_EQ(recorder.got[0].tag.a, 3u);
  EXPECT_EQ(recorder.got[0].tag.b, 1u);
  EXPECT_EQ(recorder.got[1].tag.kind, EventTag::Kind::kEmitPacket);
  EXPECT_EQ(recorder.got[1].tag.a, 7u);
}

TEST(Simulator, StepWithoutSinkThrows) {
  Simulator sim;
  sim.at(Time::from_seconds(1.0), EventTag::mob_tick());
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulator, StepWithoutSinkThrowsOnlyWhenAnEventIsDue) {
  Simulator sim;
  EXPECT_FALSE(sim.step());  // nothing pending
  sim.at(Time::from_seconds(2.0), EventTag::mob_tick());
  EXPECT_FALSE(sim.step(Time::from_seconds(1.0)));  // not yet due
  EXPECT_THROW(sim.step(Time::from_seconds(2.0)), std::logic_error);
  // The due event was not consumed by the failed step.
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.executed_events(), 0u);
}

TEST(Simulator, StepRunsAnEventExactlyAtUntil) {
  Simulator sim;
  CallbackSink cb(sim);
  int ran = 0;
  const Time until = Time::from_ticks(500);
  cb.at(until, [&] { ++ran; });
  cb.at(Time::from_ticks(501), [&] { ++ran; });
  EXPECT_TRUE(sim.step(until));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), until);
  EXPECT_FALSE(sim.step(until));  // one tick past
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, FanoutDeliversEachReceiverInOrder) {
  struct Recorder final : EventSink {
    std::vector<Event> got;
    void dispatch(const Event& ev) override { got.push_back(ev); }
  };
  Simulator sim;
  Recorder recorder;
  sim.set_sink(&recorder);
  sim.at(Time::from_seconds(1.0), EventTag::hello_tick(0));
  sim.fanout(Time::from_seconds(1.0), 9,
             std::vector<std::uint32_t>{4, 2, 6});
  EXPECT_EQ(sim.pending_events(), 4u);
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(sim.executed_events(), 4u);
  ASSERT_EQ(recorder.got.size(), 4u);
  EXPECT_EQ(recorder.got[0].tag.kind, EventTag::Kind::kHelloTick);
  const std::vector<std::uint64_t> want{4, 2, 6};
  for (std::size_t k = 0; k < want.size(); ++k) {
    const Event& ev = recorder.got[k + 1];
    EXPECT_EQ(ev.tag.kind, EventTag::Kind::kDeliver);
    EXPECT_EQ(ev.tag.a, want[k]);
    EXPECT_EQ(ev.tag.packet, 9u);
    EXPECT_EQ(ev.seq, k + 1);
  }
  // Like at(), fanout() refuses the past.
  EXPECT_THROW(sim.fanout(Time::from_seconds(0.5), 9,
                          std::vector<std::uint32_t>{1}),
               std::invalid_argument);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace imobif::sim
