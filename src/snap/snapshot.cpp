#include "snap/snapshot.hpp"

#include <array>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/scenario_io.hpp"
#include "mob/driver.hpp"
#include "net/fault.hpp"
#include "net/flow_table.hpp"
#include "net/neighbor_table.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "sim/event_tag.hpp"
#include "snap/archive.hpp"
#include "snap/codec.hpp"
#include "snap/state_hash.hpp"
#include "traffic/generator.hpp"
#include "util/config.hpp"
#include "util/units.hpp"

namespace imobif::snap {

// --- field lists (DESIGN.md §9; archive.hpp has the primitives) ---

template <class Ar>
void fields(Ar& ar, net::MobilityAggregate& x) {
  ar.quantity(x.bits_mob);
  ar.quantity(x.resi_mob);
  ar.quantity(x.bits_nomob);
  ar.quantity(x.resi_nomob);
}

template <class Ar>
void fields(Ar& ar, net::FlowSpec& x) {
  ar.u64(x.id);
  ar.u64(x.source);
  ar.u64(x.destination);
  ar.quantity(x.length_bits);
  ar.quantity(x.packet_bits);
  ar.quantity(x.rate_bps);
  ar.enumeration(x.strategy, net::StrategyId::kMaxLifetime, "strategy id");
  ar.boolean(x.initially_enabled);
  ar.f64(x.length_estimate_factor);
}

template <class Ar>
void fields(Ar&, net::HelloBody&) {}

template <class Ar>
void fields(Ar& ar, net::DataBody& x) {
  ar.u64(x.flow_id);
  ar.u64(x.source);
  ar.u64(x.destination);
  ar.u32(x.seq);
  ar.quantity(x.payload_bits);
  ar.quantity(x.residual_flow_bits);
  ar.enumeration(x.strategy, net::StrategyId::kMaxLifetime, "strategy id");
  ar.boolean(x.mobility_enabled);
  fields(ar, x.agg);
  ar.u32(x.hop_count);
  ar.boolean(x.sender_has_plan);
  fields(ar, x.sender_target);
  ar.quantity(x.sender_move_cost);
}

template <class Ar>
void fields(Ar& ar, net::NotificationBody& x) {
  ar.u64(x.flow_id);
  ar.u64(x.flow_source);
  ar.boolean(x.enable);
  fields(ar, x.agg);
  ar.u32(x.decision_seq);
  ar.u8(x.attempt);
}

template <class Ar>
void fields(Ar& ar, net::RouteRequestBody& x) {
  ar.u64(x.origin);
  ar.u64(x.target);
  ar.u32(x.request_id);
  ar.u32(x.origin_seq);
  ar.u32(x.hop_count);
}

template <class Ar>
void fields(Ar& ar, net::RouteReplyBody& x) {
  ar.u64(x.origin);
  ar.u64(x.target);
  ar.u32(x.target_seq);
  ar.u32(x.hop_count);
}

template <class Ar>
void fields(Ar& ar, net::RecruitBody& x) {
  ar.u64(x.flow_id);
  ar.u64(x.flow_source);
  ar.u64(x.flow_destination);
  ar.u64(x.upstream);
  ar.u64(x.downstream);
  ar.enumeration(x.strategy, net::StrategyId::kMaxLifetime, "strategy id");
  ar.quantity(x.residual_flow_bits);
  ar.boolean(x.mobility_enabled);
}

template <class Ar>
void fields(Ar& ar, net::SenderStamp& x) {
  ar.u64(x.id);
  fields(ar, x.position);
  ar.quantity(x.residual_energy);
}

template <class Ar>
void fields(Ar& ar, net::Packet& x) {
  ar.enumeration(x.type, net::PacketType::kRecruit, "packet type");
  fields(ar, x.sender);
  ar.u64(x.link_dest);
  ar.quantity(x.size_bits);
  ar.variant(x.body, "packet body");
}

template <class Ar>
void fields(Ar& ar, net::FlowProgress& x) {
  fields(ar, x.spec);
  ar.quantity(x.emitted_bits);
  ar.quantity(x.delivered_bits);
  ar.u64(x.packets_emitted);
  ar.u64(x.packets_delivered);
  ar.u64(x.notifications_from_dest);
  ar.u64(x.notification_retries);
  ar.u64(x.notifications_at_source);
  ar.u64(x.recruits);
  ar.u64(x.drops);
  ar.boolean(x.emission_done);
  ar.boolean(x.completed);
  ar.opt(x.completion_time);
  ar.opt(x.last_delivery_time);
}

template <class Ar>
void fields(Ar& ar, net::Medium::Counters& x) {
  ar.u64(x.broadcasts);
  ar.u64(x.unicasts);
  ar.u64(x.delivered);
  ar.u64(x.dropped_out_of_range);
  ar.u64(x.dropped_dead);
  ar.u64(x.dropped_unknown);
  ar.u64(x.dropped_injected);
  ar.u64(x.dropped_faulted);
}
template void fields(Writer<StateWriter>&, net::Medium::Counters&);
template void fields(Reader&, net::Medium::Counters&);

template <class Ar>
void fields(Ar& ar, net::NeighborInfo& x) {
  ar.u64(x.id);
  fields(ar, x.position);
  ar.quantity(x.residual_energy);
  ar.time(x.last_heard);
}

template <class Ar>
void fields(Ar& ar, net::FlowEntry& x) {
  ar.u64(x.id);
  ar.u64(x.source);
  ar.u64(x.destination);
  ar.u64(x.prev);
  ar.u64(x.next);
  ar.quantity(x.residual_bits);
  ar.enumeration(x.strategy, net::StrategyId::kMaxLifetime, "strategy id");
  ar.boolean(x.mobility_enabled);
  ar.opt(x.target);
  ar.u64(x.packets_relayed);
  ar.quantity(x.moved_distance);
  ar.opt(x.last_notify_seq, [](auto& a, auto& seq) { a.u32(seq); });
  ar.opt(x.pending_status);
  fields(ar, x.notify_agg);
  ar.u32(x.notify_decision_seq);
  ar.u32(x.notify_attempts);
  ar.u32(x.notify_applied_seq);
  ar.u32(x.recruits_initiated);
}

template <class Ar>
void fields(Ar& ar, exp::RunOptions& x) {
  ar.boolean(x.stop_on_first_death);
  ar.f64(x.horizon_factor);
  ar.quantity(x.horizon_slack_s);
  ar.boolean(x.multi_flow_blending);
  ar.seq(x.extra_flows);
}

template <class Ar>
void fields(Ar& ar, exp::FlowInstance& x) {
  ar.seq(x.positions);
  ar.seq(x.energies);
  ar.u64(x.source);
  ar.u64(x.destination);
  ar.quantity(x.flow_bits);
  ar.seq(x.initial_path);
  ar.u64(x.mobility_seed);
  ar.u64(x.traffic_seed);
}

/// Everything the "meta" section carries: what rebuilds the run's object
/// graph (restore() and restore_fresh()) plus the run-loop scalars.
struct Meta {
  std::string config;  ///< exp::to_config_string of the scenario params
  core::MobilityMode mode = core::MobilityMode::kInformed;
  exp::RunOptions options;
  exp::FlowInstance instance;
  std::optional<std::array<std::uint64_t, 4>> sampler_state;
  util::Joules warmup_consumed{0.0};
  sim::Time flow_start = sim::Time::zero();
  bool in_chunk = false;
  sim::Time chunk_end = sim::Time::zero();
  bool done = false;
};

template <class Ar>
void fields(Ar& ar, Meta& x) {
  ar.begin_section("meta");
  ar.str(x.config);
  ar.enumeration(x.mode, core::MobilityMode::kInformed, "mobility mode");
  fields(ar, x.options);
  fields(ar, x.instance);
  ar.opt(x.sampler_state);
  ar.quantity(x.warmup_consumed);
  ar.time(x.flow_start);
  ar.boolean(x.in_chunk);
  ar.time(x.chunk_end);
  ar.boolean(x.done);
  ar.end_section();
}

namespace {

Meta gather_meta(const exp::InstanceRun& run) {
  Meta meta;
  meta.config = exp::to_config_string(run.params());
  meta.mode = run.mode();
  meta.options = run.options();
  meta.instance = run.instance();
  meta.sampler_state = run.sampler_rng_state();
  meta.warmup_consumed = run.warmup_consumed_j();
  meta.flow_start = run.flow_start();
  meta.in_chunk = run.in_chunk();
  meta.chunk_end = run.chunk_end();
  meta.done = run.done();
  return meta;
}

template <class Encoder>
void encode_dynamic(Writer<Encoder>& ar, exp::InstanceRun& run) {
  net::Network& network = run.network();
  sim::Simulator& sim = network.simulator();

  ar.begin_section("sim");
  ar.time(sim.now());
  ar.u64(sim.executed_events());
  ar.end_section();

  ar.begin_section("network");
  ar.time(network.last_progress());
  ar.opt(network.first_death_time());
  ar.u64(network.dead_node_count());
  ar.u64(network.total_data_drops());
  const std::vector<const net::FlowProgress*> progress =
      network.all_progress();
  ar.u64(progress.size());
  for (const net::FlowProgress* prog : progress) item(ar, *prog);
  ar.end_section();

  ar.begin_section("medium");
  item(ar, network.medium().counters());
  const net::FaultInjector* injector = network.medium().fault_injector();
  ar.boolean(injector != nullptr);
  if (injector != nullptr) {
    const std::vector<net::FaultInjector::LinkSnapshot> links =
        injector->link_states();
    ar.u64(links.size());
    for (const net::FaultInjector::LinkSnapshot& link : links) {
      ar.u64(link.key);
      ar.u64(link.packets);
      ar.boolean(link.bad);
    }
    ar.u64(injector->decisions());
    ar.u64(injector->drops());
  }
  ar.end_section();

  ar.begin_section("nodes");
  ar.u64(network.node_count());
  for (std::size_t i = 0; i < network.node_count(); ++i) {
    const net::Node& node = network.node(static_cast<net::NodeId>(i));
    item(ar, node.position());
    ar.boolean(node.faulted());
    ar.quantity(node.total_moved());

    const energy::Battery& battery = node.battery();
    ar.quantity(battery.initial());
    ar.quantity(battery.residual());
    ar.quantity(battery.consumed_transmit());
    ar.quantity(battery.consumed_move());
    ar.quantity(battery.consumed_other());

    ar.seq(node.neighbors().all_entries());
    ar.u64(node.flows().size());
    node.flows().for_each(
        [&ar](const net::FlowEntry& entry) { item(ar, entry); });
  }
  ar.end_section();

  ar.begin_section("policy");
  ar.u64(run.policy().movements_applied());
  ar.quantity(run.policy().total_distance_moved());
  ar.u64(run.policy().recruits_initiated());
  ar.end_section();

  // Background motion: (rng, model state); the pending tick itself rides
  // in the events section like every other event.
  ar.begin_section("mob");
  const mob::MotionDriver* motion = run.motion();
  ar.boolean(motion != nullptr);
  if (motion != nullptr) {
    item(ar, motion->model().rng().state());
    ar.seq(motion->model().state());
  }
  ar.end_section();

  // Traffic generators, in flow-id (map) order.
  ar.begin_section("traffic");
  const auto& generators = network.traffic_generators();
  ar.u64(generators.size());
  for (const auto& [flow_id, generator] : generators) {
    ar.u64(flow_id);
    item(ar, generator->rng().state());
    ar.seq(generator->state());
  }
  ar.end_section();

  // One record per pending step: a fan-out delivery contributes one kDeliver
  // entry (receiver id, packet) for each receiver it has not reached yet.
  ar.begin_section("events");
  const std::vector<sim::EventQueue::PendingEvent> pending = sim.pending();
  ar.u64(pending.size());
  for (const sim::EventQueue::PendingEvent& p : pending) {
    ar.time(p.when);
    ar.u8(static_cast<std::uint8_t>(p.event.kind));
    if (p.event.kind == sim::Event::Kind::kDeliver) {
      const net::Medium::InFlight& flight =
          network.medium().in_flight(p.event.a);
      ar.u64(flight.receivers[p.step]);
      ar.u64(0);
      item(ar, flight.packet);
    } else {
      ar.u64(p.event.a);
      ar.u64(p.event.b);
    }
  }
  ar.end_section();
}

exp::ScenarioParams params_of(const Meta& meta) {
  exp::ScenarioParams params;
  exp::apply_config(util::Config::from_string(meta.config), params);
  return params;
}

}  // namespace

std::string encode(exp::InstanceRun& run) {
  StateWriter writer;
  Writer ar(writer);
  item(ar, gather_meta(run));
  encode_dynamic(ar, run);
  return writer.data();
}

void save(exp::InstanceRun& run, const std::string& path) {
  write_file_atomic(path, encode(run));
}

std::uint64_t state_hash(exp::InstanceRun& run) {
  StateHash hash;
  Writer ar(hash);
  encode_dynamic(ar, run);
  return hash.digest();
}

std::string debug_json(exp::InstanceRun& run) {
  return debug_dump(encode(run));
}

std::unique_ptr<exp::InstanceRun> restore_fresh(const std::string& data) {
  StateReader r(data);
  Reader in(r);
  const auto meta = in.read<Meta>();
  std::unique_ptr<exp::InstanceRun> run = exp::InstanceRun::create(
      meta.instance, params_of(meta), meta.mode, meta.options);
  if (meta.sampler_state) run->set_sampler_rng_state(*meta.sampler_state);
  return run;
}

std::unique_ptr<exp::InstanceRun> restore(const std::string& data) {
  StateReader r(data);
  Reader in(r);
  const auto meta = in.read<Meta>();
  const exp::ScenarioParams params = params_of(meta);

  std::unique_ptr<exp::InstanceRun> run = exp::InstanceRun::create_shell(
      meta.instance, params, meta.mode, meta.options);
  if (meta.sampler_state) run->set_sampler_rng_state(*meta.sampler_state);
  run->restore_run_state(meta.warmup_consumed, meta.flow_start, meta.in_chunk,
                         meta.chunk_end, meta.done);

  net::Network& network = run->network();
  sim::Simulator& sim = network.simulator();

  // Clock first: at() rejects scheduling in the past, so every restored
  // event below needs `now` already seated.
  in.begin_section("sim");
  const auto now = in.read<sim::Time>();
  const auto executed = in.read<std::uint64_t>();
  sim.restore_clock(now, static_cast<std::size_t>(executed));
  in.end_section();

  in.begin_section("network");
  network.restore_last_progress(in.read<sim::Time>());
  network.restore_first_death(in.read<std::optional<sim::Time>>());
  network.restore_dead_nodes(in.read<std::size_t>());
  network.restore_total_data_drops(in.read<std::uint64_t>());
  for (const net::FlowProgress& prog :
       in.read<std::vector<net::FlowProgress>>()) {
    network.restore_flow_progress(prog);
  }
  in.end_section();

  in.begin_section("medium");
  network.medium().restore_counters(in.read<net::Medium::Counters>());
  if (in.read<bool>()) {
    net::FaultInjector& injector =
        network.medium().restore_fault_injector(params.fault);
    const auto link_count = in.read<std::uint64_t>();
    for (std::uint64_t i = 0; i < link_count; ++i) {
      const auto key = in.read<std::uint64_t>();
      const auto packets = in.read<std::uint64_t>();
      const auto bad = in.read<bool>();
      injector.restore_link(key, packets, bad);
    }
    const auto decisions = in.read<std::uint64_t>();
    const auto drops = in.read<std::uint64_t>();
    injector.restore_counts(decisions, drops);
  }
  in.end_section();

  in.begin_section("nodes");
  const auto node_count = in.read<std::uint64_t>();
  if (node_count != network.node_count()) {
    throw std::runtime_error(
        "snapshot: node count mismatch (snapshot " +
        std::to_string(node_count) + ", rebuilt network " +
        std::to_string(network.node_count()) + ")");
  }
  for (std::uint64_t i = 0; i < node_count; ++i) {
    net::Node& node = network.node(static_cast<net::NodeId>(i));
    node.set_position(in.read<geom::Vec2>());
    node.restore_faulted(in.read<bool>());
    node.restore_total_moved(in.read<util::Meters>());

    const auto battery_initial = in.read<util::Joules>();
    const auto battery_residual = in.read<util::Joules>();
    const auto battery_tx = in.read<util::Joules>();
    const auto battery_move = in.read<util::Joules>();
    const auto battery_other = in.read<util::Joules>();
    node.battery().restore(battery_initial, battery_residual, battery_tx,
                           battery_move, battery_other);

    for (const net::NeighborInfo& info :
         in.read<std::vector<net::NeighborInfo>>()) {
      node.neighbors().upsert(info.id, info.position, info.residual_energy,
                              info.last_heard);
    }
    // The shell's flow tables are empty and no timer is armed yet, so the
    // whole entry (notify_retry_event = 0 included) is copied in.
    for (const net::FlowEntry& entry :
         in.read<std::vector<net::FlowEntry>>()) {
      node.flows().ensure(entry.id) = entry;
    }
  }
  in.end_section();

  in.begin_section("policy");
  const auto movements = in.read<std::uint64_t>();
  const auto distance_moved = in.read<util::Meters>();
  const auto recruits = in.read<std::uint64_t>();
  run->policy().restore_counters(movements, distance_moved, recruits);
  in.end_section();

  in.begin_section("mob");
  if (in.read<bool>()) {
    mob::MotionDriver* motion = run->motion();
    if (motion == nullptr) {
      throw std::runtime_error(
          "snapshot: motion state but the scenario has no mobility model");
    }
    motion->model().rng().set_state(in.read<std::array<std::uint64_t, 4>>());
    motion->model().restore_state(in.read<std::vector<double>>());
  }
  in.end_section();

  in.begin_section("traffic");
  const auto generator_count = in.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < generator_count; ++i) {
    const auto flow_id = in.read<net::FlowId>();
    const auto rng_state = in.read<std::array<std::uint64_t, 4>>();
    network.restore_traffic_state(flow_id, rng_state,
                                  in.read<std::vector<double>>());
  }
  in.end_section();

  // Events last, in encoded (time, sequence) order: the queue hands out
  // fresh sequence numbers in insertion order, so same-tick events keep
  // their exact relative ordering. Each record is re-inserted as the same
  // plain record a live run schedules; only the timers that can be
  // cancelled go through their owner, which keeps the handle.
  in.begin_section("events");
  const auto event_count = in.read<std::uint64_t>();
  for (std::uint64_t i = 0; i < event_count; ++i) {
    const auto when = in.read<sim::Time>();
    const std::uint8_t kind_raw = r.u8();
    const auto a = in.read<std::uint64_t>();
    const auto b = in.read<std::uint64_t>();
    switch (static_cast<sim::Event::Kind>(kind_raw)) {
      case sim::Event::Kind::kHelloTick:
        network.node(static_cast<net::NodeId>(a)).arm_hello(when);
        break;
      case sim::Event::Kind::kEmitPacket:
        network.progress(static_cast<net::FlowId>(a));  // must exist
        sim.at(when, sim::Event::emit_packet(a));
        break;
      case sim::Event::Kind::kDeliver:
        network.medium().deliver_at(when, in.read<net::Packet>(),
                                    static_cast<net::NodeId>(a));
        break;
      case sim::Event::Kind::kNotifyRetry: {
        net::Node& node = network.node(static_cast<net::NodeId>(a));
        node.arm_notify_retry(node.flows().ensure(static_cast<net::FlowId>(b)),
                              when);
        break;
      }
      case sim::Event::Kind::kFaultSet:
        sim.at(when, sim::Event::fault_set(a, b != 0));
        break;
      case sim::Event::Kind::kMobTick:
        if (run->motion() == nullptr) {
          throw std::runtime_error(
              "snapshot: mob tick but the scenario has no mobility model");
        }
        sim.at(when, sim::Event::mob_tick());
        break;
      default:
        throw std::runtime_error("snapshot: unknown event kind " +
                                 std::to_string(kind_raw));
    }
  }
  in.end_section();

  if (!r.at_end()) {
    throw std::runtime_error("snapshot: trailing bytes after event section");
  }
  return run;
}

std::unique_ptr<exp::InstanceRun> restore_file(const std::string& path) {
  return restore(read_file(path));
}

}  // namespace imobif::snap
