// Field sensitivity of snap::state_hash (DESIGN.md §9/§15).
//
// The checkpoint-exhaustiveness gate (tools/imobif_snaplint.py) proves
// statically that every mutable field is persisted or annotated; this test
// proves the complementary dynamic property: the digest actually *depends*
// on each persisted dynamic section. A mid-flight run is perturbed through
// the same restore accessors the snapshot codec uses — network progress,
// medium counters, node position/battery, policy counters, mobility rng
// and model state, traffic generator state — and every perturbation must
// move the hash. Meta-only state (the sampler RNG) must NOT move it, since
// replay bisection compares hashes across runs that intentionally differ
// in a meta parameter.
#include "snap/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/instance.hpp"
#include "mob/params.hpp"
#include "snap/codec.hpp"
#include "snap/state_hash.hpp"
#include "traffic/generator.hpp"
#include "traffic/params.hpp"
#include "util/rng.hpp"

namespace imobif::snap {
namespace {

/// Model-zoo scenario: background motion and shaped traffic so the mob
/// and traffic sections carry real state.
exp::ScenarioParams zoo_params() {
  exp::ScenarioParams p;
  p.node_count = 60;
  p.area_m = util::Meters{800.0};
  p.mean_flow_bits = util::Bits{60.0 * 1024.0 * 8.0};
  p.seed = 42;
  p.mob.model = mob::ModelId::kRandomWaypoint;
  p.mob.update_s = util::Seconds{1.0};
  p.mob.speed_min = util::MetersPerSecond{0.5};
  p.mob.speed_max = util::MetersPerSecond{2.0};
  p.mob.pause_s = util::Seconds{5.0};
  p.traffic.model = traffic::ModelId::kOnOff;
  return p;
}

std::unique_ptr<exp::InstanceRun> midflight_run() {
  const exp::ScenarioParams params = zoo_params();
  util::Rng rng(params.seed);
  const exp::FlowInstance instance = exp::sample_instance(params, rng);
  auto run = exp::InstanceRun::create(instance, params,
                                      core::MobilityMode::kInformed, {});
  run->set_sampler_rng_state(rng.state());
  run->advance(1500);
  return run;
}

TEST(SnapStateHashTest, DigestOfAFixedRunIsPinned) {
  // Recorded before StateHash and StateWriter shared one encoder: any
  // change to this value means the dynamic-state encoding moved.
  EXPECT_EQ(state_hash(*midflight_run()), 0x237b17cdeb4ea477ull);
}

TEST(SnapStateHashTest, DigestIsFnv1aOfTheWriterBytes) {
  const auto feed = [](auto& sink) {
    sink.begin_section("mixed");
    sink.u8(0xab);
    sink.u32(0xdeadbeefu);
    sink.u64(0x0123456789abcdefull);
    sink.i64(-42);
    sink.f64(-0.0);
    sink.boolean(true);
    sink.str("snapshot");
    sink.begin_section("");
    sink.end_section();
    sink.boolean(false);
    sink.end_section();
  };
  StateWriter writer;
  StateHash hash;
  feed(writer);
  feed(hash);

  // FNV-1a over everything after the 8-byte header (magic + version).
  std::uint64_t expected = 0xcbf29ce484222325ull;
  for (const char c : writer.data().substr(8)) {
    expected = (expected ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ull;
  }
  EXPECT_EQ(hash.digest(), expected);
}

TEST(SnapStateHashTest, MetaOnlyChangeLeavesDigestUntouched) {
  auto run = midflight_run();
  const std::uint64_t before = state_hash(*run);
  const std::string bytes_before = encode(*run);

  run->set_sampler_rng_state({1u, 2u, 3u, 4u});

  // The snapshot bytes change (the sampler RNG lives in "meta") but the
  // dynamic-state digest must not.
  EXPECT_NE(encode(*run), bytes_before);
  EXPECT_EQ(state_hash(*run), before);
}

TEST(SnapStateHashTest, EveryDynamicSectionMovesTheDigest) {
  auto run = midflight_run();
  net::Network& network = run->network();
  std::uint64_t last = state_hash(*run);

  auto expect_moved = [&](const char* section) {
    const std::uint64_t now = state_hash(*run);
    EXPECT_NE(now, last) << "state_hash insensitive to " << section;
    last = now;
  };

  // network section: last-progress timestamp.
  network.restore_last_progress(network.last_progress() +
                                sim::Time::from_ticks(1));
  expect_moved("network last-progress time");

  // network section: scalar drop counter.
  network.restore_total_data_drops(network.total_data_drops() + 7);
  expect_moved("network drop counter");

  // medium section: delivery counters.
  net::Medium::Counters counters = network.medium().counters();
  counters.unicasts += 1;
  network.medium().restore_counters(counters);
  expect_moved("medium counters");

  // nodes section: a node position.
  net::Node& node = network.node(0);
  node.set_position(node.position() + geom::Vec2{1.0, 0.0});
  expect_moved("node position");

  // nodes section: battery split.
  energy::Battery& battery = node.battery();
  battery.restore(battery.initial(),
                  battery.residual() - util::Joules{1e-3},
                  battery.consumed_transmit() + util::Joules{1e-3},
                  battery.consumed_move(), battery.consumed_other());
  expect_moved("node battery");

  // policy section: movement counters.
  core::ImobifPolicy& policy = run->policy();
  policy.restore_counters(policy.movements_applied() + 1,
                          policy.total_distance_moved(),
                          policy.recruits_initiated());
  expect_moved("policy counters");

  // mob section: the mobility model's RNG and its state vector.
  ASSERT_NE(run->motion(), nullptr);
  mob::MobilityModel& model = run->motion()->model();
  model.rng().reseed(999);
  expect_moved("mobility rng");

  std::vector<double> state = model.state();
  ASSERT_FALSE(state.empty());
  state.front() += 0.5;
  model.restore_state(state);
  expect_moved("mobility model state");

  // traffic section: a generator's (rng, state) pair.
  const auto& generators = network.traffic_generators();
  ASSERT_FALSE(generators.empty());
  const auto& [flow_id, generator] = *generators.begin();
  util::Rng reseeded(12345);
  network.restore_traffic_state(flow_id, reseeded.state(),
                                generator->state());
  expect_moved("traffic generator state");

  // sim/events sections: executing one more event advances the clock.
  run->advance(1);
  expect_moved("simulator clock after one event");
}

}  // namespace
}  // namespace imobif::snap
