#include "net/flow_table.hpp"

namespace imobif::net {

FlowEntry& FlowTable::get_or_create(const DataBody& data) {
  auto& entry = entries_[data.flow_id];
  if (entry.id == kInvalidFlow) {
    entry.id = data.flow_id;
    entry.source = data.source;
    entry.destination = data.destination;
    entry.strategy = data.strategy;
  }
  return entry;
}

FlowEntry* FlowTable::find(FlowId id) {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

const FlowEntry* FlowTable::find(FlowId id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second;
}

FlowEntry& FlowTable::ensure(FlowId id) {
  auto& entry = entries_[id];
  entry.id = id;
  return entry;
}

std::vector<const FlowEntry*> FlowTable::all() const {
  std::vector<const FlowEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) out.push_back(&entry);
  return out;
}

}  // namespace imobif::net
