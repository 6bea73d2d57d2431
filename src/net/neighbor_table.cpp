#include "net/neighbor_table.hpp"

#include <algorithm>

namespace imobif::net {

namespace {

bool id_less(const NeighborInfo& info, NodeId id) { return info.id < id; }

}  // namespace

void NeighborTable::upsert(NodeId id, geom::Vec2 position,
                           util::Joules residual_energy, sim::Time now) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), id, id_less);
  if (it == entries_.end() || it->id != id) {
    it = entries_.insert(it, NeighborInfo{});
    it->id = id;
  }
  it->position = position;
  it->residual_energy = residual_energy;
  it->last_heard = now;
}

std::optional<NeighborInfo> NeighborTable::find(NodeId id,
                                                sim::Time now) const {
  const auto it =
      std::lower_bound(entries_.begin(), entries_.end(), id, id_less);
  if (it == entries_.end() || it->id != id || expired(*it, now)) {
    return std::nullopt;
  }
  return *it;
}

void NeighborTable::purge(sim::Time now) {
  std::erase_if(entries_,
                [&](const NeighborInfo& info) { return expired(info, now); });
}

std::vector<NeighborInfo> NeighborTable::snapshot(sim::Time now) const {
  std::vector<NeighborInfo> out;
  out.reserve(entries_.size());
  for (const NeighborInfo& info : entries_) {
    if (!expired(info, now)) out.push_back(info);
  }
  return out;
}

}  // namespace imobif::net
