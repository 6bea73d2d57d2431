// NodeStore: the Network's dense, id-indexed owner of its Node objects
// (DESIGN.md §12).
//
// A node's position and residual energy live in the Node (and its
// Battery) as plain members; the store only owns the objects. Node is
// neither copyable nor movable and the Medium keeps raw pointers to it,
// so each node is heap-allocated once and never relocated. A node's slot
// index is its NodeId.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "geom/vec2.hpp"
#include "net/ids.hpp"
#include "net/node.hpp"
#include "util/units.hpp"

namespace imobif::net {

class NodeStore {
 public:
  /// Creates the next node with id size(), so ids are dense from 0.
  Node& add(geom::Vec2 position, util::Joules initial_energy,
            Node::Services services, const NodeConfig& config) {
    const auto id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::make_unique<Node>(id, position, initial_energy,
                                            services, config));
    return *nodes_.back();
  }

  std::size_t size() const { return nodes_.size(); }

  /// The node with id `id`; throws std::out_of_range when there is none.
  Node& at(NodeId id) { return *nodes_.at(id); }
  const Node& at(NodeId id) const { return *nodes_.at(id); }

  /// Visits every node in id order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (const auto& node : nodes_) fn(*node);
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& node : nodes_) fn(static_cast<const Node&>(*node));
  }

  /// Bytes held for the nodes (scale accounting: bytes/node): the Node
  /// objects themselves plus the index vector's capacity. Heap memory a
  /// node owns indirectly (neighbor and flow tables) is not counted.
  std::size_t approx_bytes() const {
    return nodes_.size() * sizeof(Node) +
           nodes_.capacity() * sizeof(std::unique_ptr<Node>);
  }

 private:
  // snap:derived(Network::add_node)
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace imobif::net
