// Replay bisection: state hashes must stay equal along identical runs,
// detect a perturbed restore immediately, and pinpoint the first
// diverging event between two runs that differ only in the fault seed.
#include "snap/replay.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "exp/instance.hpp"
#include "net/network.hpp"
#include "snap/snapshot.hpp"
#include "util/rng.hpp"

namespace imobif::snap {
namespace {

exp::ScenarioParams replay_params(std::uint64_t fault_seed) {
  exp::ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{40.0 * 1024.0 * 8.0};
  p.seed = 42;
  // No warmup: drop decisions happen when deliveries are *scheduled*, so
  // any executed warmup traffic would already split the fault worlds.
  // With zero warmup both runs start from the identical pristine state and
  // diverge at the first differing drop decision during the scan.
  p.warmup_s = util::Seconds{0.0};
  p.fault.loss_rate = 0.25;
  p.fault.seed = fault_seed;
  return p;
}

std::unique_ptr<exp::InstanceRun> make_run(const exp::ScenarioParams& params) {
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  return exp::InstanceRun::create(instance, params,
                                  core::MobilityMode::kInformed, {});
}

TEST(SnapReplay, IdenticalRunsNeverDiverge) {
  const exp::ScenarioParams params = replay_params(1);
  auto a = make_run(params);
  auto b = make_run(params);
  const Divergence d = find_divergence(*a, *b);
  EXPECT_FALSE(d.diverged) << d.describe();
  EXPECT_FALSE(d.truncated);
  EXPECT_TRUE(d.finished_a);
  EXPECT_TRUE(d.finished_b);
  EXPECT_NE(d.describe().find("no divergence"), std::string::npos);
}

TEST(SnapReplay, RestoredRunTracksOriginalToCompletion) {
  const exp::ScenarioParams params = replay_params(5);
  auto original = make_run(params);
  original->advance(3000);
  auto restored = restore(encode(*original));
  const Divergence d = find_divergence(*original, *restored);
  EXPECT_FALSE(d.diverged) << d.describe();
}

TEST(SnapReplay, DifferentFaultSeedsBisectToFirstDivergingEvent) {
  // A rare loss keeps the first few events' drop decisions in agreement so
  // the divergence lands deep enough to exercise the truncated pre-scan.
  exp::ScenarioParams pa = replay_params(1001);
  exp::ScenarioParams pb = replay_params(2002);
  pa.fault.loss_rate = pb.fault.loss_rate = 0.01;
  auto a = make_run(pa);
  auto b = make_run(pb);
  // Same topology, same instance, same initial state: the fault seed only
  // influences drop decisions, which are made as traffic flows.
  EXPECT_EQ(state_hash(*a), state_hash(*b));

  const Divergence d = find_divergence(*a, *b);
  ASSERT_TRUE(d.diverged) << d.describe();
  ASSERT_GT(d.event_index, 1u) << d.describe();
  EXPECT_NE(d.hash_a, d.hash_b);
  EXPECT_NE(d.describe().find("diverged at event"), std::string::npos);

  // The scan stopped at the *first* differing event: re-running two fresh
  // copies up to the event before must still agree.
  auto a2 = make_run(pa);
  auto b2 = make_run(pb);
  const Divergence before =
      find_divergence(*a2, *b2, static_cast<std::size_t>(d.event_index) - 1);
  EXPECT_FALSE(before.diverged) << before.describe();
  EXPECT_TRUE(before.truncated);
}

TEST(SnapReplay, PerturbedRestoreIsDetected) {
  const exp::ScenarioParams params = replay_params(9);
  auto original = make_run(params);
  original->advance(2500);
  auto perturbed = restore(encode(*original));
  // Nudge one node's battery by a microjoule — the hash flags it at once.
  net::Node& node = perturbed->network().node(0);
  const energy::Battery& b = node.battery();
  node.battery().restore(b.initial(), b.residual() - util::Joules{1e-6},
                         b.consumed_transmit(), b.consumed_move(),
                         b.consumed_other());
  const Divergence d = find_divergence(*original, *perturbed);
  EXPECT_TRUE(d.diverged);
  EXPECT_EQ(d.event_index,
            original->network().simulator().executed_events());
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(SnapReplay, AdvanceOneStepsThroughAFanout) {
  // After 1502 events of this run the next pending events are one HELLO
  // broadcast's eight deliveries. Stepping through them one advance(1) at
  // a time must leave, after every receiver, the state of a run advanced
  // there in one call — and the snapshot bytes recorded when every
  // receiver was its own queue event (FNV-1a of snap::encode).
  constexpr std::size_t kStart = 1502;
  constexpr std::array<std::uint64_t, 10> kEncodeGolden = {
      0xa2d1eb6cae4035b8ULL, 0x86eef9ca7d03737dULL, 0x439c8763837a48c3ULL,
      0x617093667bffc7a6ULL, 0x4545a1c2f7005478ULL, 0x37d4400a5615358bULL,
      0x1bbf412073749235ULL, 0xb317a1eaed14634cULL, 0xfcb29a3837c560e5ULL,
      0x641a75358dabd785ULL};
  const exp::ScenarioParams params = replay_params(5);
  auto stepped = make_run(params);
  stepped->advance(kStart);
  const auto pending = stepped->network().simulator().pending();
  ASSERT_GE(pending.size(), 8u);
  EXPECT_EQ(pending[0].event.kind, sim::Event::Kind::kDeliver);
  EXPECT_EQ(pending[0].event.fanout, 8u);
  EXPECT_EQ(pending[0].step, 0u);

  std::unique_ptr<exp::InstanceRun> resumed;
  for (std::size_t i = 0; i < kEncodeGolden.size(); ++i) {
    SCOPED_TRACE("receiver step " + std::to_string(i));
    auto whole = make_run(params);
    whole->advance(kStart + i);
    const std::string bytes = encode(*stepped);
    EXPECT_EQ(state_hash(*stepped), state_hash(*whole));
    EXPECT_EQ(bytes, encode(*whole));
    EXPECT_EQ(fnv1a(bytes), kEncodeGolden[i]);
    // A restore taken mid-fan-out carries on in lock step.
    if (i == 3) resumed = restore(bytes);
    if (resumed != nullptr) {
      EXPECT_EQ(encode(*resumed), bytes);
      resumed->advance(1);
    }
    stepped->advance(1);
  }
}

TEST(SnapReplay, DivergenceIndexIsPerReceiver) {
  // find_divergence counts one event per receiver, so the reported index
  // is the one recorded when every delivery was its own queue event.
  {
    exp::ScenarioParams pa = replay_params(1001);
    exp::ScenarioParams pb = replay_params(2002);
    pa.fault.loss_rate = pb.fault.loss_rate = 0.01;
    auto a = make_run(pa);
    auto b = make_run(pb);
    const Divergence d = find_divergence(*a, *b);
    ASSERT_TRUE(d.diverged) << d.describe();
    EXPECT_EQ(d.event_index, 167u);
  }
  {
    // Receive energy changes the first receiver's battery.
    exp::ScenarioParams pb = replay_params(5);
    pb.radio.rx_per_bit = 1e-9;
    auto a = make_run(replay_params(5));
    auto b = make_run(pb);
    const Divergence d = find_divergence(*a, *b);
    ASSERT_TRUE(d.diverged) << d.describe();
    EXPECT_EQ(d.event_index, 2u);
  }
}

TEST(SnapReplay, MismatchedStartingPointsRejected) {
  const exp::ScenarioParams params = replay_params(3);
  auto a = make_run(params);
  auto b = make_run(params);
  a->advance(100);
  EXPECT_THROW(find_divergence(*a, *b), std::invalid_argument);
}

}  // namespace
}  // namespace imobif::snap
