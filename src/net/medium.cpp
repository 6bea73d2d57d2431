#include "net/medium.hpp"

#include <stdexcept>

#include "net/node.hpp"

namespace imobif::net {

Medium::Medium(sim::Simulator& sim, MediumConfig config)
    : sim_(sim),
      config_(config),
      index_(config.comm_range_m > 0.0 ? config.comm_range_m : 1.0) {
  if (config_.comm_range_m <= 0.0) {
    throw std::invalid_argument("Medium: comm_range must be > 0");
  }
}

void Medium::attach(Node& node) {
  const NodeId id = node.id();
  if (id < by_id_.size() && by_id_[id] != nullptr) {
    throw std::invalid_argument("Medium: duplicate node id");
  }
  if (id >= by_id_.size()) by_id_.resize(id + 1, nullptr);
  nodes_.push_back(&node);
  by_id_[id] = &node;
  index_.insert(id, node.position());
}

void Medium::node_moved(NodeId id, geom::Vec2 new_position) {
  // Nodes not (yet) attached to this medium are ignored: tests construct
  // free-standing nodes, and attach() will index the final position.
  if (find_node(id) != nullptr) index_.update(id, new_position);
}

Node* Medium::find_node(NodeId id) const {
  return id < by_id_.size() ? by_id_[id] : nullptr;
}

geom::Vec2 Medium::true_position(NodeId id) const {
  const Node* node = find_node(id);
  if (node == nullptr) {
    throw std::out_of_range("Medium::true_position: unknown node");
  }
  return node->position();
}

std::uint32_t Medium::hold(const Packet& pkt) {
  std::uint32_t slot = 0;
  if (free_in_flight_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_in_flight_.back();
    free_in_flight_.pop_back();
  }
  InFlight& entry = in_flight_[slot];
  entry.packet = pkt;
  entry.receivers.clear();
  return slot;
}

void Medium::deliver_at(sim::Time when, const Packet& pkt, NodeId receiver) {
  if (find_node(receiver) == nullptr) {
    throw std::out_of_range("Medium::deliver_at: unknown node");
  }
  const std::uint32_t slot = hold(pkt);
  in_flight_[slot].receivers.push_back(receiver);
  sim_.at(when, sim::Event::deliver(slot, 1));
}

void Medium::deliver(std::uint64_t slot, std::uint32_t step) {
  // A deque entry never moves, so the reference survives any transmission
  // the receiver makes (which may grow the pool).
  const InFlight& entry = in_flight_[slot];
  by_id_[entry.receivers[step]]->handle_receive(entry.packet);
  if (step + 1 == entry.receivers.size()) {
    free_in_flight_.push_back(static_cast<std::uint32_t>(slot));
  }
}

void Medium::broadcast(const Node& sender, const Packet& pkt) {
  ++counters_.broadcasts;
  const geom::Vec2 origin = sender.position();
  const std::uint32_t slot = hold(pkt);
  std::vector<NodeId>& receivers = in_flight_[slot].receivers;
  index_.for_each_in_range(
      origin, config_.comm_range_m, [&](NodeId id, geom::Vec2) {
        if (id == sender.id()) return;
        Node* node = by_id_[id];
        if (!node->alive()) return;
        if (node->faulted()) {
          ++counters_.dropped_faulted;
          return;
        }
        if (injector_ != nullptr && injector_->should_drop(sender.id(), id)) {
          ++counters_.dropped_injected;
          return;
        }
        receivers.push_back(id);
      });
  if (receivers.empty()) {
    free_in_flight_.push_back(slot);
    return;
  }
  const auto count = static_cast<std::uint32_t>(receivers.size());
  counters_.delivered += count;
  sim_.at(sim_.now() + config_.prop_delay, sim::Event::deliver(slot, count));
}

bool Medium::unicast(const Node& sender, NodeId dest, const Packet& pkt) {
  ++counters_.unicasts;
  Node* node = find_node(dest);
  if (node == nullptr) {
    ++counters_.dropped_unknown;
    return false;
  }
  if (!node->alive()) {
    ++counters_.dropped_dead;
    return false;
  }
  // A crashed/paused node fails link-layer-visibly like a dead one, so the
  // sender's local repair can route around it.
  if (node->faulted()) {
    ++counters_.dropped_faulted;
    return false;
  }
  if (config_.unicast_range_gated &&
      geom::distance(sender.position(), node->position()) >
          config_.comm_range_m) {
    ++counters_.dropped_out_of_range;
    return false;
  }
  if (injector_ != nullptr && injector_->should_drop(sender.id(), dest)) {
    ++counters_.dropped_injected;
    return true;  // silent loss: accepted by the channel, never delivered
  }
  ++counters_.delivered;
  deliver_at(sim_.now() + config_.prop_delay, pkt, dest);
  return true;
}

void Medium::install_fault_plan(const FaultPlan& plan) {
  plan.validate();
  if (!plan.enabled()) return;
  if (plan.has_loss()) injector_ = std::make_unique<FaultInjector>(plan);
  for (const FaultPlan::CrashEvent& crash : plan.crashes) {
    sim_.at(sim::Time::from_seconds(crash.at_s),
            sim::Event::fault_set(crash.node, true));
    if (crash.duration_s >= 0.0) {
      sim_.at(sim::Time::from_seconds(crash.at_s + crash.duration_s),
              sim::Event::fault_set(crash.node, false));
    }
  }
}

FaultInjector& Medium::restore_fault_injector(const FaultPlan& plan) {
  plan.validate();
  injector_ = std::make_unique<FaultInjector>(plan);
  return *injector_;
}

}  // namespace imobif::net
