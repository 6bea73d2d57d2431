// imobif_perfbench: end-to-end and per-layer benchmark of the iMobif
// simulator (workloads, metrics and checks are documented in README.md
// next to this file; run.py builds this program and runs it).
//
//   imobif_perfbench --workload paper_eval|scale_1e5|mobile_ckpt
//                    --seed N --seconds T --trace 0|1
//                    [--expect-digest HEX]
//                    [--inject flip-snapshot|perturb-policy]
//   imobif_perfbench --cross-check
//
// A run repeats one fixed pass of its workload for about T seconds and
// reports medians over the passes. Every line but the last is for people;
// the last stdout line is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 reports the end-to-end metrics; --trace 1 alternates
// untraced and traced passes and reports the per-layer metrics of the
// traced ones. Spans are taken only here, around public calls into the
// library: nothing under src/ is instrumented.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/imobif.hpp"
#include "exp/instance.hpp"
#include "exp/instance_run.hpp"
#include "net/greedy_routing.hpp"
#include "net/network.hpp"
#include "snap/snapshot.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"

namespace {

using namespace imobif;
using Clock = std::chrono::steady_clock;

// A pass keeps the first sampled flows whose length lies within this share
// of the scenario mean, so every seed replays the same amount of simulated
// time and the pass cost does not follow the exponential length draw. Set-up
// always draws at least kDraws instances per scenario (~30 land in the
// band), so its cost does not follow the seed either.
constexpr double kFlowBand = 0.02;
constexpr std::size_t kDraws = 2000;
constexpr std::size_t kPaperInstances = 8;   // per paper_eval scenario
constexpr std::size_t kMobileInstances = 8;  // mobile_ckpt
// The sweep runtime's default --checkpoint-every-s.
constexpr double kCheckpointEverySimS = 30.0;
constexpr std::size_t kScaleNodes = 100000;
constexpr std::size_t kScaleFlows = 16;
// Network builds per pass: setup_s is their median, the last one runs.
constexpr std::size_t kScaleBuilds = 3;
constexpr double kScaleHelloS = 10.0;   // one HELLO interval before flows
constexpr double kScaleWindowS = 10.0;  // simulated window with the flows
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kMinTracedPairs = 2;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// Scenario seed: the paper's seed plus --seed, as the figure binaries'
/// --seed sets it (see README.md on seeds at or above 2^63).
std::uint64_t scenario_seed(std::uint64_t base, std::uint64_t seed) {
  return base + seed;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile; callers pass samples with >= 10 beyond p90.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// FNV-1a over 64-bit words; doubles enter by bit pattern. Kept apart from
/// snap::StateHash so that a snapshot-codec change cannot move the digests
/// recorded in oracle.json.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "check failed: " << what << "\n";
    }
  }
};

struct Span {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Adds the lifetime of the scope to `span` (nothing for nullptr),
/// including a scope left by an exception.
class Timed {
 public:
  explicit Timed(Span* span)
      : span_(span), start_(span != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~Timed() {
    if (span_ == nullptr) return;
    ++span_->calls;
    span_->ns += ns_since(start_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Span* span_;
  Clock::time_point start_;
};

/// Spans of a traced pass. exp/sim spans are the pass's top-level calls;
/// core, routing and snap spans nest inside exp.advance / sim.run.
struct Spans {
  Span sample_instance, create, advance, result, sim_run;
  Span seed_at_source, on_relay, after_forward, evaluate;
  Span next_hop;

  std::uint64_t core_ns() const {
    return seed_at_source.ns + on_relay.ns + after_forward.ns + evaluate.ns;
  }
  std::uint64_t top_level_ns() const {
    return create.ns + advance.ns + result.ns + sim_run.ns;
  }
};

/// Everything measured in one pass of a workload.
struct Pass {
  std::vector<double> setup_s;  ///< input sampling or network builds
  double wall_s = 0.0;   ///< the measured part of the pass
  double sim_s = 0.0;    ///< simulated seconds, warm-up included
  std::uint64_t digest = 0;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::uint64_t pending_end = 0;
  std::size_t nodes = 0;
  std::size_t queue_bytes = 0;
  std::size_t grid_bytes = 0;
  std::size_t store_bytes = 0;
  net::Medium::Counters medium;
  std::uint64_t data_drops = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t movements = 0;
  std::uint64_t notifications = 0;
  // Snap calls are the benchmark's own checkpoint and are always timed.
  Span state_hash, encode, restore;
  std::uint64_t snap_bytes = 0;
  std::uint64_t verify_failures = 0;
  std::vector<double> encode_ms, restore_ms;
  // Traced passes only.
  bool traced = false;
  Spans spans;
  std::uint64_t tap_deliveries = 0;
  std::uint64_t tap_data_drops = 0;
  std::uint64_t tap_notifications = 0;

  std::uint64_t drops() const {
    return medium.dropped_out_of_range + medium.dropped_dead +
           medium.dropped_unknown + medium.dropped_injected +
           medium.dropped_faulted;
  }
  void add_medium(const net::Medium::Counters& c) {
    medium.broadcasts += c.broadcasts;
    medium.unicasts += c.unicasts;
    medium.delivered += c.delivered;
    medium.dropped_out_of_range += c.dropped_out_of_range;
    medium.dropped_dead += c.dropped_dead;
    medium.dropped_unknown += c.dropped_unknown;
    medium.dropped_injected += c.dropped_injected;
    medium.dropped_faulted += c.dropped_faulted;
  }
};

/// Times the four Figure-1 seam calls. With `perturb` set it flips the
/// first destination verdict it sees and clears the flag (self-test).
class TimedPolicy final : public net::MobilityPolicy {
 public:
  TimedPolicy(net::MobilityPolicy& inner, Spans& spans, bool* perturb)
      : inner_(inner), spans_(spans), perturb_(perturb) {}

  void seed_at_source(net::Node& source, net::DataBody& data,
                      net::FlowEntry& entry) override {
    Timed t(&spans_.seed_at_source);
    inner_.seed_at_source(source, data, entry);
  }
  void on_relay(net::Node& relay, net::DataBody& data,
                net::FlowEntry& entry) override {
    Timed t(&spans_.on_relay);
    inner_.on_relay(relay, data, entry);
  }
  void after_forward(net::Node& relay, net::FlowEntry& entry) override {
    Timed t(&spans_.after_forward);
    inner_.after_forward(relay, entry);
  }
  std::optional<bool> evaluate_at_destination(net::Node& dest,
                                              const net::DataBody& data,
                                              net::FlowEntry& entry) override {
    std::optional<bool> verdict;
    {
      Timed t(&spans_.evaluate);
      verdict = inner_.evaluate_at_destination(dest, data, entry);
    }
    if (perturb_ != nullptr && *perturb_) {
      *perturb_ = false;
      verdict = verdict.has_value() ? std::nullopt : std::optional<bool>(true);
    }
    return verdict;
  }

 private:
  net::MobilityPolicy& inner_;
  Spans& spans_;
  bool* perturb_;
};

/// Times next_hop of a fresh GreedyRouting, which holds nothing but its
/// Medium reference and so can stand in for the installed one.
class TimedRouting final : public net::RoutingProtocol {
 public:
  TimedRouting(const net::Medium& medium, Span& span)
      : inner_(medium), span_(span) {}

  const char* name() const override { return inner_.name(); }
  net::NodeId next_hop(const net::Node& self, net::NodeId dest) override {
    Timed t(&span_);
    return inner_.next_hop(self, dest);
  }
  void handle_control(net::Node& self, const net::Packet& pkt) override {
    inner_.handle_control(self, pkt);
  }
  void prepare_route(net::Node& origin, net::NodeId dest) override {
    inner_.prepare_route(origin, dest);
  }

 private:
  net::GreedyRouting inner_;
  Span& span_;
};

class CountingTap final : public net::NetworkEvents {
 public:
  void on_delivered(net::Node&, const net::DataBody&) override {
    ++deliveries;
  }
  void on_notification_initiated(net::Node&,
                                 const net::NotificationBody&) override {
    ++notifications;
  }
  void on_drop(net::Node&, net::PacketType type, net::DropReason) override {
    if (type == net::PacketType::kData) ++data_drops;
  }

  std::uint64_t deliveries = 0;
  std::uint64_t notifications = 0;
  std::uint64_t data_drops = 0;
};

/// The traced pass's decorators, installed on one network at a time.
class Instruments {
 public:
  Instruments(Spans& spans, CountingTap& tap, bool* perturb)
      : spans_(spans), tap_(tap), perturb_(perturb) {}

  void install(net::Network& network, net::MobilityPolicy& inner) {
    policy_ = std::make_unique<TimedPolicy>(inner, spans_, perturb_);
    network.set_policy(policy_.get());
    network.set_routing(
        std::make_unique<TimedRouting>(network.medium(), spans_.next_hop));
    network.set_event_tap(&tap_);
  }

 private:
  Spans& spans_;
  CountingTap& tap_;
  bool* perturb_;
  std::unique_ptr<TimedPolicy> policy_;
};

struct PassOptions {
  bool traced = false;
  bool flip_snapshot = false;
  bool perturb_policy = false;
};

/// InstanceRun's chunk-boundary callback. Samples the event queue on
/// traced passes and, when checkpointing, takes a checkpoint every
/// kCheckpointEverySimS: state_hash, encode, restore of those bytes, and
/// state_hash of the restored run. A verified restore replaces the running
/// instance (via SwapToRestored), so all later output depends on restore
/// being exact.
class ChunkHook {
 public:
  struct SwapToRestored {};

  ChunkHook(Pass& pass, Checks& checks, bool checkpoint, bool flip)
      : pass_(pass), checks_(checks), checkpoint_(checkpoint), flip_(flip) {}

  void operator()(exp::InstanceRun& run) {
    sim::Simulator& sim = run.network().simulator();
    if (pass_.traced) {
      pass_.queue_bytes = std::max(pass_.queue_bytes, sim.queue_approx_bytes());
    }
    if (!checkpoint_) return;
    const sim::Time now = sim.now();
    if (!armed_) {  // like snap::Checkpointer: skip the initial state
      armed_ = true;
      last_ = now;
      return;
    }
    if ((now - last_).seconds() < kCheckpointEverySimS) return;
    last_ = now;

    std::uint64_t before = 0;
    {
      Timed t(&pass_.state_hash);
      before = snap::state_hash(run);
    }
    auto start = Clock::now();
    std::string bytes = snap::encode(run);
    add(pass_.encode, pass_.encode_ms, start);
    pass_.snap_bytes += bytes.size();
    if (flip_) bytes[bytes.size() * 3 / 4] ^= 0x5a;

    std::unique_ptr<exp::InstanceRun> restored;
    start = Clock::now();
    try {
      restored = snap::restore(bytes);
    } catch (const std::exception& e) {
      ++pass_.verify_failures;
      checks_.expect(false, std::string("snap::restore: ") + e.what());
      return;
    }
    add(pass_.restore, pass_.restore_ms, start);
    std::uint64_t after = 0;
    {
      Timed t(&pass_.state_hash);
      after = snap::state_hash(*restored);
    }
    checks_.expect(after == before, "restored state_hash equals the original");
    if (after != before) {
      ++pass_.verify_failures;
      return;
    }
    restored_ = std::move(restored);
    throw SwapToRestored{};
  }

  std::unique_ptr<exp::InstanceRun> take_restored() {
    return std::move(restored_);
  }

 private:
  static void add(Span& span, std::vector<double>& ms,
                  Clock::time_point start) {
    const std::uint64_t ns = ns_since(start);
    ++span.calls;
    span.ns += ns;
    ms.push_back(static_cast<double>(ns) * 1e-6);
  }

  Pass& pass_;
  Checks& checks_;
  bool checkpoint_;
  bool flip_;
  bool armed_ = false;
  sim::Time last_ = sim::Time::zero();
  std::unique_ptr<exp::InstanceRun> restored_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass: its untimed-by-wall set-up, then the measured part.
  virtual Pass pass(const PassOptions& options, Checks& checks) = 0;
};

struct Scenario {
  const char* name;
  exp::ScenarioParams params;
  exp::RunOptions options;
  std::vector<core::MobilityMode> modes;
};

struct Input {
  std::size_t scenario = 0;
  std::size_t index = 0;  ///< position in run_comparison's instance stream
  exp::FlowInstance instance;
};

/// paper_eval and mobile_ckpt: sampled instances replayed through
/// exp::InstanceRun, as exp::run_comparison does.
class InstanceWorkload final : public Workload {
 public:
  InstanceWorkload(std::vector<Scenario> scenarios, std::size_t per_scenario,
                   bool checkpoint)
      : scenarios_(std::move(scenarios)),
        per_scenario_(per_scenario),
        checkpoint_(checkpoint) {}

  Pass pass(const PassOptions& options, Checks& checks) override {
    Pass pass;
    pass.traced = options.traced;
    const auto setup_start = Clock::now();
    const std::vector<Input> inputs =
        sample(options.traced ? &pass.spans.sample_instance : nullptr);
    pass.setup_s.push_back(seconds_since(setup_start));
    if (!first_inputs_) {
      first_inputs_ = fingerprint(inputs);
    } else {
      checks.expect(fingerprint(inputs) == *first_inputs_,
                    "sampled instances repeat");
    }

    bool perturb = options.perturb_policy && options.traced;
    CountingTap tap;
    Digest digest;
    const auto start = Clock::now();
    for (const Input& input : inputs) {
      for (const core::MobilityMode mode : scenarios_[input.scenario].modes) {
        run_one(input, mode, options, checks, pass, tap, &perturb, digest);
      }
    }
    pass.wall_s = seconds_since(start);
    digest.add(pass.encode.calls);
    digest.add(pass.verify_failures);
    pass.digest = digest.value();
    pass.tap_deliveries = tap.deliveries;
    pass.tap_data_drops = tap.data_drops;
    pass.tap_notifications = tap.notifications;
    return pass;
  }

  /// Full-count replay of the paper scenarios with no length band,
  /// compared against EXPERIMENTS.md.
  void cross_check(Checks& checks) {
    for (std::size_t s = 0; s < scenarios_.size(); ++s) {
      const Scenario& sc = scenarios_[s];
      const std::size_t count = s == 0 ? 40 : 60;
      util::Rng rng(sc.params.seed);
      double sum_cu = 0.0, sum_in = 0.0;
      std::size_t enabled = 0;
      for (std::size_t i = 0; i < count; ++i) {
        util::Rng instance_rng = rng.fork();
        const exp::FlowInstance inst =
            exp::sample_instance(sc.params, instance_rng);
        exp::RunResult r[3];
        for (std::size_t m = 0; m < 3; ++m) {
          auto run = exp::InstanceRun::create(inst, sc.params, sc.modes[m],
                                              sc.options);
          run->advance();
          r[m] = run->result();
        }
        if (s == 0) {
          sum_cu += r[1].total_energy_j.value() / r[0].total_energy_j.value();
          sum_in += r[2].total_energy_j.value() / r[0].total_energy_j.value();
        } else {
          sum_cu += r[1].lifetime_s.value() / r[0].lifetime_s.value();
          sum_in += r[2].lifetime_s.value() / r[0].lifetime_s.value();
        }
        if (r[2].moved_distance_m.value() > 0.0) ++enabled;
      }
      const double cu = sum_cu / static_cast<double>(count);
      const double in = sum_in / static_cast<double>(count);
      std::printf("cross-check %s: %zu instances, cost-unaware avg %.4f, "
                  "imobif avg %.4f, imobif enabled on %zu/%zu\n",
                  sc.name, count, cu, in, enabled, count);
      if (s == 0) {
        checks.expect(std::abs(cu - 1.853) < 5e-4, "fig6(c) cost-unaware 1.853");
        checks.expect(std::abs(in - 0.9743) < 5e-5, "fig6(c) imobif 0.9743");
        checks.expect(enabled == 9, "fig6(c) enabled on 9/40");
      } else {
        checks.expect(std::abs(cu - 0.39) < 5e-3, "fig8 cost-unaware 0.39");
        checks.expect(std::abs(in - 1.12) < 5e-3, "fig8 imobif 1.12");
      }
    }
  }

 private:
  std::vector<Input> sample(Span* span) const {
    std::vector<Input> inputs;
    for (std::size_t s = 0; s < scenarios_.size(); ++s) {
      const exp::ScenarioParams& params = scenarios_[s].params;
      const double mean = params.mean_flow_bits.value();
      util::Rng rng(params.seed);
      std::size_t kept = 0;
      for (std::size_t i = 0; kept < per_scenario_ || i < kDraws; ++i) {
        util::Rng instance_rng = rng.fork();
        exp::FlowInstance inst;
        {
          Timed t(span);
          inst = exp::sample_instance(params, instance_rng);
        }
        if (kept == per_scenario_ ||
            std::abs(inst.flow_bits.value() - mean) > kFlowBand * mean) {
          continue;
        }
        inputs.push_back({s, i, std::move(inst)});
        ++kept;
      }
    }
    return inputs;
  }

  static std::uint64_t fingerprint(const std::vector<Input>& inputs) {
    Digest d;
    for (const Input& in : inputs) {
      d.add(static_cast<std::uint64_t>(in.index));
      d.add(in.instance.flow_bits.value());
      d.add(static_cast<std::uint64_t>(in.instance.source));
      d.add(static_cast<std::uint64_t>(in.instance.destination));
      for (const auto& p : in.instance.positions) {
        d.add(p.x);
        d.add(p.y);
      }
      for (const auto& e : in.instance.energies) d.add(e.value());
    }
    return d.value();
  }

  void run_one(const Input& input, core::MobilityMode mode,
               const PassOptions& options, Checks& checks, Pass& pass,
               CountingTap& tap, bool* perturb, Digest& digest) {
    const Scenario& sc = scenarios_[input.scenario];
    Spans* spans = options.traced ? &pass.spans : nullptr;
    std::unique_ptr<exp::InstanceRun> run;
    {
      Timed t(spans != nullptr ? &spans->create : nullptr);
      run = exp::InstanceRun::create(input.instance, sc.params, mode,
                                     sc.options);
    }
    ChunkHook hook(pass, checks, checkpoint_, options.flip_snapshot);
    Instruments instruments(pass.spans, tap, perturb);
    const auto attach = [&](exp::InstanceRun& r) {
      if (checkpoint_ || options.traced) {
        r.set_checkpoint_hook([&hook](exp::InstanceRun& x) { hook(x); });
      }
      if (options.traced) instruments.install(r.network(), r.policy());
    };
    attach(*run);
    for (;;) {
      try {
        Timed t(spans != nullptr ? &spans->advance : nullptr);
        run->advance();
        break;
      } catch (const ChunkHook::SwapToRestored&) {
        run = hook.take_restored();
        attach(*run);
      }
    }
    exp::RunResult r;
    {
      Timed t(spans != nullptr ? &spans->result : nullptr);
      r = run->result();
    }

    net::Network& network = run->network();
    sim::Simulator& sim = network.simulator();
    ++pass.runs;
    pass.events += sim.executed_events();
    pass.pending_end += sim.pending_events();
    pass.sim_s += sim.now().seconds();
    pass.nodes = std::max(pass.nodes, network.node_count());
    pass.queue_bytes = std::max(pass.queue_bytes, sim.queue_approx_bytes());
    pass.grid_bytes =
        std::max(pass.grid_bytes, network.medium().grid().approx_bytes());
    pass.store_bytes = std::max(pass.store_bytes, network.store().approx_bytes());
    pass.add_medium(r.medium);
    pass.data_drops += network.total_data_drops();
    pass.delivered_packets +=
        network.progress(exp::InstanceRun::kMainFlowId).packets_delivered;
    pass.movements += r.movements;
    pass.notifications += r.notifications;

    digest.add(static_cast<std::uint64_t>(input.scenario));
    digest.add(static_cast<std::uint64_t>(input.index));
    digest.add(static_cast<std::uint64_t>(mode));
    digest.add(static_cast<std::uint64_t>(r.completed));
    digest.add(r.delivered_bits.value());
    digest.add(r.completion_s.value());
    digest.add(r.transmit_energy_j.value());
    digest.add(r.movement_energy_j.value());
    digest.add(r.total_energy_j.value());
    digest.add(r.notifications);
    digest.add(r.notifications_applied);
    digest.add(r.movements);
    digest.add(r.moved_distance_m.value());
    digest.add(r.lifetime_s.value());
    digest.add(r.medium.broadcasts);
    digest.add(r.medium.unicasts);
    digest.add(r.medium.delivered);
    digest.add(r.medium.dropped_out_of_range + r.medium.dropped_dead +
               r.medium.dropped_unknown + r.medium.dropped_injected +
               r.medium.dropped_faulted);
  }

  std::vector<Scenario> scenarios_;
  std::size_t per_scenario_;
  bool checkpoint_;
  std::optional<std::uint64_t> first_inputs_;
};

/// The 10^5-node network of scale_1e5, with the policy it points to.
struct ScaleNetwork {
  explicit ScaleNetwork(std::uint64_t seed)
      : side(1000.0 * std::sqrt(static_cast<double>(kScaleNodes) / 100.0)),
        mobility(energy::MobilityParams{}),
        network(config()) {
    util::Rng rng(seed);
    for (std::size_t i = 0; i < kScaleNodes; ++i) {
      network.add_node(
          geom::Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)},
          util::Joules{2000.0});
    }
    network.set_routing(std::make_unique<net::GreedyRouting>(network.medium()));
    policy = core::make_default_policy(network.radio(), mobility,
                                       core::MobilityMode::kInformed);
    network.set_policy(policy.get());
  }

  /// bench/scale_sweep's network: paper radio, 180 m range.
  static net::NetworkConfig config() {
    net::NetworkConfig c;
    c.medium.comm_range_m = 180.0;
    c.radio.a = 1e-7;
    c.radio.b = 5e-10;
    c.radio.alpha = 2.0;
    return c;
  }

  double side;
  energy::MobilityEnergyModel mobility;
  net::Network network;
  std::unique_ptr<core::ImobifPolicy> policy;
};

/// scale_1e5: HELLO beaconing over 10^5 nodes at the paper density, then
/// kScaleFlows long iMobif flows for a fixed simulated window.
class ScaleWorkload final : public Workload {
 public:
  explicit ScaleWorkload(std::uint64_t seed) : seed_(seed) {}

  Pass pass(const PassOptions& options, Checks& checks) override {
    (void)checks;
    Pass pass;
    pass.traced = options.traced;
    std::unique_ptr<ScaleNetwork> scale;
    for (std::size_t i = 0; i < kScaleBuilds; ++i) {
      scale.reset();  // one network alive at a time
      const auto setup_start = Clock::now();
      scale = std::make_unique<ScaleNetwork>(scenario_seed(20050610, seed_));
      pass.setup_s.push_back(seconds_since(setup_start));
    }

    net::Network& network = scale->network;
    sim::Simulator& sim = network.simulator();
    Spans* spans = options.traced ? &pass.spans : nullptr;
    bool perturb = options.perturb_policy && options.traced;
    CountingTap tap;
    Instruments instruments(pass.spans, tap, &perturb);
    if (options.traced) instruments.install(network, *scale->policy);

    const auto start = Clock::now();
    network.start_hellos();
    {
      Timed t(spans != nullptr ? &spans->sim_run : nullptr);
      sim.run(sim::Time::from_seconds(kScaleHelloS));
    }
    if (options.traced) pass.queue_bytes = sim.queue_approx_bytes();
    util::Rng rng(scenario_seed(20050611, seed_));
    const auto& grid = network.medium().grid();
    const auto random_node = [&] {
      const geom::Vec2 p{rng.uniform(0.0, scale->side),
                         rng.uniform(0.0, scale->side)};
      return grid.nearest(p, scale->side)->id;
    };
    for (std::size_t f = 0; f < kScaleFlows; ++f) {
      net::FlowSpec flow;
      flow.id = static_cast<net::FlowId>(f + 1);
      flow.source = random_node();
      do {
        flow.destination = random_node();
      } while (flow.destination == flow.source);
      flow.length_bits = util::Bits{1e12};  // outlasts the window
      flow.strategy = net::StrategyId::kMinTotalEnergy;
      network.start_flow(flow);
    }
    {
      Timed t(spans != nullptr ? &spans->sim_run : nullptr);
      sim.run(sim::Time::from_seconds(kScaleHelloS + kScaleWindowS));
    }
    pass.wall_s = seconds_since(start);

    pass.sim_s = sim.now().seconds();
    pass.events = sim.executed_events();
    pass.pending_end = sim.pending_events();
    pass.nodes = network.node_count();
    pass.queue_bytes = std::max(pass.queue_bytes, sim.queue_approx_bytes());
    pass.grid_bytes = network.medium().grid().approx_bytes();
    pass.store_bytes = network.store().approx_bytes();
    pass.add_medium(network.medium().counters());
    pass.data_drops = network.total_data_drops();
    pass.movements = scale->policy->movements_applied();
    pass.tap_deliveries = tap.deliveries;
    pass.tap_data_drops = tap.data_drops;
    pass.tap_notifications = tap.notifications;

    Digest digest;
    digest.add(pass.medium.broadcasts);
    digest.add(pass.medium.unicasts);
    digest.add(pass.medium.delivered);
    digest.add(pass.drops());
    digest.add(pass.data_drops);
    digest.add(pass.movements);
    for (const net::FlowProgress* prog : network.all_progress()) {
      pass.notifications += prog->notifications_from_dest;
      pass.delivered_packets += prog->packets_delivered;
    }
    for (std::size_t f = 1; f <= kScaleFlows; ++f) {
      const net::FlowProgress& prog =
          network.progress(static_cast<net::FlowId>(f));
      digest.add(static_cast<std::uint64_t>(prog.spec.source));
      digest.add(static_cast<std::uint64_t>(prog.spec.destination));
      digest.add(prog.packets_delivered);
      digest.add(prog.notifications_from_dest);
    }
    pass.digest = digest.value();
    return pass;
  }

 private:
  std::uint64_t seed_;
};

std::unique_ptr<InstanceWorkload> paper_eval(std::uint64_t seed) {
  exp::ScenarioParams fig6c = bench::paper_defaults();
  fig6c.mean_flow_bits = util::Bits{1.0 * bench::kMB};
  fig6c.seed = scenario_seed(20050610, seed);

  exp::ScenarioParams fig8 = bench::paper_defaults();
  fig8.strategy = net::StrategyId::kMaxLifetime;
  fig8.mean_flow_bits = util::Bits{1.0 * bench::kMB};
  fig8.random_energy = true;
  fig8.energy_lo_j = util::Joules{5.0};
  fig8.energy_hi_j = util::Joules{100.0};
  fig8.seed = scenario_seed(20050611, seed);
  exp::RunOptions lifetime;
  lifetime.stop_on_first_death = true;

  const std::vector<core::MobilityMode> modes = {
      core::MobilityMode::kNoMobility, core::MobilityMode::kCostUnaware,
      core::MobilityMode::kInformed};
  std::vector<Scenario> scenarios = {{"fig6(c)", fig6c, {}, modes},
                                     {"fig8", fig8, lifetime, modes}};
  return std::make_unique<InstanceWorkload>(std::move(scenarios),
                                            kPaperInstances, false);
}

std::unique_ptr<Workload> mobile_ckpt(std::uint64_t seed) {
  // bench/mobility_sweep's random-waypoint cell with on/off traffic.
  exp::ScenarioParams p = bench::paper_defaults();
  p.mean_flow_bits = util::Bits{1.0 * bench::kMB};
  p.seed = scenario_seed(20050610, seed);
  p.mob.model = mob::ModelId::kRandomWaypoint;
  p.mob.update_s = util::Seconds{1.0};
  p.mob.speed_min = util::MetersPerSecond{0.5};
  p.mob.speed_max = util::MetersPerSecond{2.0};
  p.mob.pause_s = util::Seconds{10.0};
  p.traffic.model = traffic::ModelId::kOnOff;
  std::vector<Scenario> scenarios = {
      {"rwp/onoff", p, {}, {core::MobilityMode::kInformed}}};
  return std::make_unique<InstanceWorkload>(std::move(scenarios),
                                            kMobileInstances, true);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// VmHWM, the peak resident set of this process image. Unlike ru_maxrss
/// it does not carry over the parent's peak across exec.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

template <typename F>
double median_of(const std::vector<Pass>& passes, F&& f) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(f(p));
  return median(v);
}

std::vector<Metric> end_to_end(const std::vector<Pass>& passes) {
  std::vector<double> setups;
  for (const Pass& p : passes) {
    setups.insert(setups.end(), p.setup_s.begin(), p.setup_s.end());
  }
  return {
      {"setup_s", median(setups), "s"},
      {"wall_s", median_of(passes, [](const Pass& p) { return p.wall_s; }),
       "s"},
      {"receptions_per_s", median_of(passes, [](const Pass& p) {
         return ratio(static_cast<double>(p.medium.delivered), p.wall_s);
       }),
       "1/s"},
      {"sim_s_per_wall_s",
       median_of(passes, [](const Pass& p) { return ratio(p.sim_s, p.wall_s); }),
       "s/s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

/// Checkpoint latencies: medians over passes of each pass's percentiles.
std::vector<Metric> checkpoint_latency(const std::vector<Pass>& passes) {
  return {
      {"checkpoint_ms.p50", median_of(passes, [](const Pass& p) {
         return percentile(p.encode_ms, 0.50);
       }),
       "ms"},
      {"checkpoint_ms.p90", median_of(passes, [](const Pass& p) {
         return percentile(p.encode_ms, 0.90);
       }),
       "ms"},
      {"restore_ms.p50", median_of(passes, [](const Pass& p) {
         return percentile(p.restore_ms, 0.50);
       }),
       "ms"},
      {"restore_ms.p90", median_of(passes, [](const Pass& p) {
         return percentile(p.restore_ms, 0.90);
       }),
       "ms"},
  };
}

std::vector<Metric> per_layer(const Pass& p, double untraced_wall_s) {
  const Spans& s = p.spans;
  const double receptions = static_cast<double>(p.medium.delivered);
  const double wall_ns = p.wall_s * 1e9;
  const std::uint64_t snap_ns = p.state_hash.ns + p.encode.ns + p.restore.ns;
  const double run_ns =
      static_cast<double>(s.advance.ns + s.sim_run.ns);
  const double self_ns = run_ns - static_cast<double>(s.core_ns()) -
                         static_cast<double>(s.next_hop.ns) -
                         static_cast<double>(snap_ns);
  const double hot_bytes = static_cast<double>(p.grid_bytes + p.store_bytes +
                                               p.queue_bytes);
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"exp.runs", count(p.runs), "count"},
      {"exp.sample_instance.ns", count(s.sample_instance.ns), "ns"},
      {"exp.create.ns", count(s.create.ns), "ns"},
      {"exp.advance.ns", count(s.advance.ns), "ns"},
      {"exp.result.ns", count(s.result.ns), "ns"},
      {"sim.events", count(p.events), "count"},
      {"sim.events_per_reception", ratio(count(p.events), receptions), "ratio"},
      {"sim.pending_end", count(p.pending_end), "count"},
      {"sim.queue_bytes", count(p.queue_bytes), "B"},
      {"sim_net.self_ns", self_ns, "ns"},
      {"sim_net.ns_per_reception", ratio(self_ns, receptions), "ns"},
      {"net.medium.broadcasts", count(p.medium.broadcasts), "count"},
      {"net.medium.unicasts", count(p.medium.unicasts), "count"},
      {"net.medium.receptions", receptions, "count"},
      {"net.medium.drops", count(p.drops()), "count"},
      {"net.fanout",
       ratio(receptions, count(p.medium.broadcasts + p.medium.unicasts)),
       "ratio"},
      {"net.data_drops", count(p.tap_data_drops), "count"},
      {"net.routing.next_hop.calls", count(s.next_hop.calls), "count"},
      {"net.routing.next_hop.ns", count(s.next_hop.ns), "ns"},
      {"net.grid.bytes", count(p.grid_bytes), "B"},
      {"net.store.bytes", count(p.store_bytes), "B"},
      {"net.bytes_per_node", ratio(hot_bytes, count(p.nodes)), "B"},
  };
  const std::pair<const char*, const Span*> core[] = {
      {"core.seed_at_source", &s.seed_at_source},
      {"core.on_relay", &s.on_relay},
      {"core.after_forward", &s.after_forward},
      {"core.evaluate_at_destination", &s.evaluate},
  };
  for (const auto& [name, span] : core) {
    m.push_back({std::string(name) + ".calls", count(span->calls), "count"});
    m.push_back({std::string(name) + ".ns", count(span->ns), "ns"});
  }
  m.push_back({"core.share", ratio(count(s.core_ns()), wall_ns), "ratio"});
  m.push_back({"core.movements", count(p.movements), "count"});
  m.push_back({"core.notifications", count(p.tap_notifications), "count"});
  const std::pair<const char*, const Span*> snap[] = {
      {"snap.state_hash", &p.state_hash},
      {"snap.encode", &p.encode},
      {"snap.restore", &p.restore},
  };
  for (const auto& [name, span] : snap) {
    m.push_back({std::string(name) + ".calls", count(span->calls), "count"});
    m.push_back({std::string(name) + ".ns", count(span->ns), "ns"});
  }
  m.push_back({"snap.bytes", count(p.snap_bytes), "B"});
  m.push_back({"snap.verify_failures", count(p.verify_failures), "count"});
  m.push_back({"trace.span_coverage", ratio(count(s.top_level_ns()), wall_ns),
               "ratio"});
  m.push_back({"trace.overhead_share",
               ratio(p.wall_s - untraced_wall_s, untraced_wall_s), "ratio"});
  return m;
}

/// Medians of each per-layer metric over the traced passes.
std::vector<Metric> per_layer_median(const std::vector<Pass>& traced,
                                     double untraced_wall_s) {
  std::vector<std::vector<Metric>> all;
  for (const Pass& p : traced) all.push_back(per_layer(p, untraced_wall_s));
  std::vector<Metric> out = all.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> v;
    for (const auto& m : all) v.push_back(m[i].value);
    out[i].value = median(v);
  }
  for (const Metric& m : checkpoint_latency(traced)) out.push_back(m);
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Checks& checks, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted);
  out += ", \"failed\": " + std::to_string(checks.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

/// Checks that hold between passes of one run: identical outputs and
/// identical deterministic counts.
void check_repeats(const std::vector<Pass>& passes, const Pass& reference,
                   Checks& checks) {
  for (const Pass& p : passes) {
    if (&p == &reference) continue;
    checks.expect(p.digest == reference.digest,
                  std::string(p.traced ? "traced" : "untraced") +
                      " pass digest equals the first pass's");
    checks.expect(p.events == reference.events &&
                      p.medium.delivered == reference.medium.delivered &&
                      p.snap_bytes == reference.snap_bytes &&
                      p.movements == reference.movements,
                  "deterministic counts repeat");
  }
  for (const Pass& p : passes) {
    if (!p.traced) continue;
    checks.expect(p.tap_deliveries == p.delivered_packets &&
                      p.tap_notifications == p.notifications &&
                      p.tap_data_drops == p.data_drops,
                  "event tap agrees with the network counters");
  }
}

int run_benchmark(const util::Args& args) {
  const std::string name = args.get_string("workload", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0));
  const double seconds = args.get_double("seconds", 10.0);
  const std::int64_t trace = args.get_int("trace", 0);
  const std::string inject = args.get_string("inject", "");
  if (trace != 0 && trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (!inject.empty() && inject != "flip-snapshot" &&
      inject != "perturb-policy") {
    throw std::invalid_argument("unknown --inject " + inject);
  }

  std::unique_ptr<Workload> workload;
  if (name == "paper_eval") {
    workload = paper_eval(seed);
  } else if (name == "scale_1e5") {
    workload = std::make_unique<ScaleWorkload>(seed);
  } else if (name == "mobile_ckpt") {
    workload = mobile_ckpt(seed);
  } else {
    throw std::invalid_argument("unknown --workload '" + name + "'");
  }

  Checks checks;
  PassOptions plain;
  plain.flip_snapshot = inject == "flip-snapshot";
  PassOptions traced = plain;
  traced.traced = true;
  traced.perturb_policy = inject == "perturb-policy";

  // Untraced runs repeat plain passes; traced runs alternate plain and
  // traced passes so the overhead and the digest comparison share a run.
  std::vector<Pass> plain_passes, traced_passes;
  const auto start = Clock::now();
  for (;;) {
    const auto round_start = Clock::now();
    plain_passes.push_back(workload->pass(plain, checks));
    if (trace == 1) traced_passes.push_back(workload->pass(traced, checks));
    const double round_s = seconds_since(round_start);
    const std::size_t rounds = plain_passes.size();
    const bool enough =
        rounds >= (trace == 1 ? kMinTracedPairs : kMinPasses);
    if (enough && seconds_since(start) + round_s > seconds) break;
  }

  const Pass& reference = plain_passes.front();
  check_repeats(plain_passes, reference, checks);
  check_repeats(traced_passes, reference, checks);
  const std::string expected = args.get_string("expect-digest", "");
  if (!expected.empty()) {
    checks.expect(hex(reference.digest) == expected,
                  "digest " + hex(reference.digest) + " equals the recorded " +
                      expected);
  }

  const double untraced_wall =
      median_of(plain_passes, [](const Pass& p) { return p.wall_s; });
  std::printf("workload %s seed %llu: %zu untraced + %zu traced passes\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              plain_passes.size(), traced_passes.size());
  std::printf("digest %s\n", hex(reference.digest).c_str());
  std::printf("untraced pass wall_s:");
  for (const Pass& p : plain_passes) std::printf(" %.4f", p.wall_s);
  std::printf("\n");
  std::printf("counts: events %llu receptions %llu runs %llu checkpoints %llu\n",
              static_cast<unsigned long long>(reference.events),
              static_cast<unsigned long long>(reference.medium.delivered),
              static_cast<unsigned long long>(reference.runs),
              static_cast<unsigned long long>(reference.encode.calls));
  std::vector<Metric> e2e = end_to_end(plain_passes);
  for (const Metric& m : e2e) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  if (reference.encode.calls > 0) {
    for (const Metric& m : checkpoint_latency(plain_passes)) {
      std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  std::printf("failed_share = %.6g (%llu of %llu checks)\n",
              ratio(static_cast<double>(checks.failed),
                    static_cast<double>(checks.attempted)),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));

  if (trace == 1) {
    const std::vector<Metric> layers =
        per_layer_median(traced_passes, untraced_wall);
    for (const Metric& m : layers) {
      std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    print_result(checks, layers);
  } else {
    print_result(checks, e2e);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Args args(argc, argv);
    if (args.has("cross-check")) {
      Checks checks;
      paper_eval(0)->cross_check(checks);
      std::printf("cross-check: %llu of %llu checks failed\n",
                  static_cast<unsigned long long>(checks.failed),
                  static_cast<unsigned long long>(checks.attempted));
      return checks.failed == 0 ? 0 : 1;
    }
    return run_benchmark(args);
  } catch (const std::exception& e) {
    std::cerr << "imobif_perfbench: " << e.what() << "\n";
    return 2;
  }
}
