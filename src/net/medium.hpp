// Broadcast wireless medium with a fixed communication range.
//
// Delivery model: a transmission from position p reaches every live node
// within `comm_range_m` of p after a constant propagation/processing delay.
// Unicasts outside the range (or to dead nodes) are dropped and counted.
// Transmission *energy* is charged by the sender (Node::transmit) according
// to the actual hop distance — range gates connectivity, power control
// scales cost, exactly as in the paper's model.
//
// The medium also doubles as the experiment's ground-truth position oracle
// (`true_position`), standing in for GPS (paper Assumption 2).
//
// In-flight transmissions: a transmission pools ONE copy of its packet
// together with the receivers chosen at send time and schedules ONE
// kDeliver record stepped once per receiver (sim/event_tag.hpp); a unicast
// is a fan-out of one. Pool entries (and their receiver vectors) are
// recycled, so delivery allocates nothing per receiver once warm.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "geom/vec2.hpp"
#include "net/fault.hpp"
#include "net/grid_index.hpp"
#include "net/ids.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace imobif::net {

class Node;

// snap:transient(config struct, persisted wholesale as scenario text)
struct MediumConfig {
  double comm_range_m = 180.0;
  sim::Time prop_delay = sim::Time::from_seconds(0.005);
  /// Unicasts model power-controlled links (paper Assumption 4): a sender
  /// reaches its flow neighbor at any distance by paying E_T(d, l), so by
  /// default only broadcasts (HELLO/RREQ neighbor discovery) are gated by
  /// comm_range_m. Set true to gate unicasts as well.
  bool unicast_range_gated = false;
};

// snap:transient(wiring rebuilt by create_shell and attach)
class Medium {
 public:
  Medium(sim::Simulator& sim, MediumConfig config);

  /// Registers a node; the medium does not own it.
  void attach(Node& node);

  /// Keeps the spatial index current; Node calls this on every position
  /// change.
  void node_moved(NodeId id, geom::Vec2 new_position);

  Node* find_node(NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }
  const std::vector<Node*>& all_nodes() const { return nodes_; }

  /// Ground-truth position (GPS oracle). Throws for unknown ids.
  geom::Vec2 true_position(NodeId id) const;

  util::Meters comm_range() const {
    return util::Meters{config_.comm_range_m};
  }

  /// The spatial index over attached nodes — the one neighbor-discovery
  /// path (DESIGN.md §12); routing oracles query it instead of scanning
  /// all_nodes().
  const GridIndex& grid() const { return index_; }

  /// Delivers to every live node in range of the sender (HELLO beacons).
  void broadcast(const Node& sender, const Packet& pkt);

  /// Delivers to `dest` iff it is alive and in range of the sender's
  /// position at transmit time. Returns true when the packet was accepted
  /// for delivery. Injected channel loss (see install_fault_plan) is
  /// *silent*: the packet is counted as dropped_injected but unicast still
  /// returns true — a wireless sender cannot tell a lost frame from a
  /// delivered one without an ACK.
  bool unicast(const Node& sender, NodeId dest, const Packet& pkt);

  // snap:transient(pool entry; the events section encodes one packet per pending receiver)
  struct InFlight {
    Packet packet;
    std::vector<NodeId> receivers;  ///< in delivery order
  };
  /// The pooled transmission a pending kDeliver record names (Event::a).
  const InFlight& in_flight(std::uint64_t slot) const {
    return in_flight_.at(slot);
  }

  /// Schedules delivery of `pkt` to `receiver` at absolute time `when`
  /// (the unicast path and checkpoint restore). Counters are untouched: a
  /// live transmission counts itself, a restored one was counted before
  /// the snapshot. Throws std::out_of_range for an unknown receiver.
  void deliver_at(sim::Time when, const Packet& pkt, NodeId receiver);

  /// kDeliver handler: hands the pooled packet to its `step`-th receiver
  /// and recycles the pool entry after the last one.
  void deliver(std::uint64_t slot, std::uint32_t step);

  /// Installs a fault plan (DESIGN.md §7): deterministic injected link
  /// loss and a node crash/pause schedule executed through the simulator.
  /// Installing a disabled (default) plan is a no-op. Call before running
  /// the simulation; crash times are absolute simulated seconds.
  void install_fault_plan(const FaultPlan& plan);
  const FaultInjector* fault_injector() const { return injector_.get(); }

  struct Counters {
    std::uint64_t broadcasts = 0;
    std::uint64_t unicasts = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped_out_of_range = 0;
    std::uint64_t dropped_dead = 0;
    std::uint64_t dropped_unknown = 0;
    std::uint64_t dropped_injected = 0;  ///< fault-injected channel loss
    std::uint64_t dropped_faulted = 0;   ///< receiver crashed/paused
  };
  const Counters& counters() const { return counters_; }

  // --- Checkpoint restore support (src/snap) ---

  void restore_counters(const Counters& counters) { counters_ = counters; }
  /// Re-creates the loss injector from its plan WITHOUT scheduling the
  /// crash events (those are restored as pending simulator events); returns
  /// it so the caller can restore per-link channel state.
  FaultInjector& restore_fault_injector(const FaultPlan& plan);

 private:
  /// A recycled pool entry holding a copy of `pkt` and no receivers.
  std::uint32_t hold(const Packet& pkt);

  sim::Simulator& sim_;
  MediumConfig config_;
  std::vector<Node*> nodes_;
  /// Dense id -> node table (ids are dense in practice; sparse ids cost
  /// vector slack, not correctness). One array read on the per-recipient
  /// broadcast path where a hash lookup used to be.
  std::vector<Node*> by_id_;
  GridIndex index_;
  // A deque, so entries never move while a receiver transmits.
  // snap:transient(in-flight pool; the events section encodes its pending receivers)
  std::deque<InFlight> in_flight_;
  // snap:transient(free list of the in-flight pool, refilled as deliveries finish)
  std::vector<std::uint32_t> free_in_flight_;
  Counters counters_;
  // snap:derived(restore_fault_injector)
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace imobif::net
