#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace imobif::sim {
namespace {

/// Test handler: records every dispatched (label, step) — the label rides
/// in Event::a — and runs the action scripted for that label, if any.
class Script final : public EventHandler {
 public:
  explicit Script(Simulator& sim) {
    sim.set_handler(Event::Kind::kEmitPacket, this);
    sim.set_handler(Event::Kind::kDeliver, this);
  }
  void handle(const Event& event, std::uint32_t step) override {
    ran.emplace_back(event.a, step);
    const auto it = actions.find(event.a);
    if (it != actions.end()) it->second(step);
  }
  std::vector<std::uint64_t> labels() const {
    std::vector<std::uint64_t> out;
    for (const auto& [label, step] : ran) out.push_back(label);
    return out;
  }

  std::map<std::uint64_t, std::function<void(std::uint32_t)>> actions;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ran;
};

Event ev(std::uint64_t label) { return Event::emit_packet(label); }

using Labels = std::vector<std::uint64_t>;

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), Time::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunsEventsAndAdvancesClock) {
  Simulator sim;
  Script script(sim);
  std::vector<double> times;
  const auto stamp = [&](std::uint32_t) {
    times.push_back(sim.now().seconds());
  };
  script.actions = {{1, stamp}, {2, stamp}};
  sim.at(Time::from_seconds(1.0), ev(1));
  sim.at(Time::from_seconds(2.0), ev(2));
  const std::size_t ran = sim.run();
  EXPECT_EQ(ran, 2u);
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 2.0);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  Script script(sim);
  script.actions[1] = [&](std::uint32_t) {
    sim.after(Time::from_seconds(2.0), ev(2));
  };
  sim.at(Time::from_seconds(5.0), ev(1));
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 7.0);
  EXPECT_EQ(script.labels(), (Labels{1, 2}));
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  Script script(sim);
  sim.at(Time::from_seconds(5.0), ev(0));
  sim.run();
  EXPECT_THROW(sim.at(Time::from_seconds(1.0), ev(1)), std::invalid_argument);
}

TEST(Simulator, SchedulingWithoutHandlerThrows) {
  Simulator sim;
  Script script(sim);  // handles kEmitPacket and kDeliver only
  EXPECT_THROW(sim.at(Time::from_seconds(1.0), Event::hello_tick(0)),
               std::logic_error);
  sim.set_handler(Event::Kind::kEmitPacket, nullptr);
  EXPECT_THROW(sim.at(Time::from_seconds(1.0), ev(0)), std::logic_error);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunUntilHorizonLeavesLaterEvents) {
  Simulator sim;
  Script script(sim);
  sim.at(Time::from_seconds(1.0), ev(1));
  sim.at(Time::from_seconds(10.0), ev(10));
  sim.run(Time::from_seconds(5.0));
  EXPECT_EQ(script.labels(), (Labels{1}));
  EXPECT_EQ(sim.pending_events(), 1u);
  // Clock advanced to the horizon even though no event sits there.
  EXPECT_DOUBLE_EQ(sim.now().seconds(), 5.0);
  sim.run();
  EXPECT_EQ(script.labels(), (Labels{1, 10}));
}

TEST(Simulator, StepExecutesSingleEvent) {
  Simulator sim;
  Script script(sim);
  sim.at(Time::from_seconds(1.0), ev(1));
  sim.at(Time::from_seconds(2.0), ev(2));
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(script.ran.size(), 1u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(script.ran.size(), 2u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  Script script(sim);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sim.at(Time::from_seconds(static_cast<double>(i)), ev(i));
  }
  script.actions[3] = [&](std::uint32_t) { sim.stop(); };
  sim.run();
  EXPECT_EQ(script.ran.size(), 3u);
  EXPECT_EQ(sim.pending_events(), 7u);
  // A subsequent run resumes.
  sim.run();
  EXPECT_EQ(script.ran.size(), 10u);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  Script script(sim);
  const EventId id = sim.at(Time::from_seconds(1.0), ev(1));
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_TRUE(script.ran.empty());
}

TEST(Simulator, EventBudgetAborts) {
  Simulator sim;
  Script script(sim);
  sim.set_event_budget(10);
  // Self-perpetuating event chain.
  script.actions[1] = [&](std::uint32_t) {
    sim.after(Time::from_seconds(1.0), ev(1));
  };
  sim.after(Time::from_seconds(1.0), ev(1));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, NestedSchedulingSameTickRuns) {
  Simulator sim;
  Script script(sim);
  script.actions[1] = [&](std::uint32_t) { sim.after(Time::zero(), ev(2)); };
  sim.at(Time::from_seconds(1.0), ev(1));
  sim.run();
  EXPECT_EQ(script.labels(), (Labels{1, 2}));
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  Script script(sim);
  for (int i = 1; i <= 5; ++i) {
    sim.at(Time::from_seconds(static_cast<double>(i)), ev(0));
  }
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

// --- Fan-out records --------------------------------------------------------

TEST(SimulatorFanout, EachReceiverIsOneExecutedEvent) {
  Simulator sim;
  Script script(sim);
  sim.at(Time::from_seconds(1.0), Event::deliver(7, 3));
  EXPECT_EQ(sim.pending_events(), 3u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(sim.executed_events(), 3u);
  EXPECT_EQ(script.ran, (std::vector<std::pair<std::uint64_t, std::uint32_t>>{
                            {7, 0}, {7, 1}, {7, 2}}));
}

TEST(SimulatorFanout, StopBetweenReceiversResumesInOrder) {
  // stop() from inside a receiver ends the run after that receiver; the
  // rest stay pending (one pending event each) and run in order next time.
  Simulator sim;
  Script script(sim);
  sim.at(Time::from_seconds(1.0), Event::deliver(7, 4));
  sim.at(Time::from_seconds(1.0), ev(8));
  script.actions[7] = [&](std::uint32_t step) {
    if (step == 1) sim.stop();
  };
  EXPECT_EQ(sim.run(), 2u);
  EXPECT_EQ(sim.pending_events(), 3u);
  const auto pending = sim.pending();
  ASSERT_EQ(pending.size(), 3u);
  EXPECT_EQ(pending[0].step, 2u);
  EXPECT_EQ(pending[1].step, 3u);
  EXPECT_EQ(pending[2].event.a, 8u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(script.ran, (std::vector<std::pair<std::uint64_t, std::uint32_t>>{
                            {7, 0}, {7, 1}, {7, 2}, {7, 3}, {8, 0}}));
}

TEST(SimulatorFanout, EventCapLandsBetweenReceivers) {
  Simulator sim;
  Script script(sim);
  sim.at(Time::from_seconds(1.0), Event::deliver(7, 3));
  EXPECT_EQ(sim.run(Time::infinity(), 1), 1u);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(script.ran.back().second, 1u);
}

}  // namespace
}  // namespace imobif::sim
