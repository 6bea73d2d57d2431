#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/check.hpp"

namespace imobif::sim {

EventId EventQueue::schedule(Time when, const Event& event) {
  IMOBIF_ENSURE(event.fanout >= 1, "an event needs at least one step");
  IMOBIF_ENSURE(when != Time::infinity(),
                "infinity is the empty-queue sentinel, not a schedulable time");
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  ++s.gen;  // even (free) -> odd (live)
  s.remaining = event.fanout;
  heap_.push_back(Entry{when, next_seq_, event, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  next_seq_ += event.fanout;
  live_count_ += event.fanout;
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || (gen & 1u) == 0 || slots_[slot].gen != gen) {
    return false;
  }
  Slot& s = slots_[slot];
  ++s.gen;  // dead; the entry is dropped (and the slot freed) lazily
  live_count_ -= s.remaining;
  s.remaining = 0;
  return true;
}

void EventQueue::drop_dead_top() const {
  while (!heap_.empty() && !live(heap_.front())) {
    release(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

Time EventQueue::next_time() const {
  drop_dead_top();
  return heap_.empty() ? Time::infinity() : heap_.front().when;
}

EventQueue::Popped EventQueue::pop() {
  drop_dead_top();
  if (heap_.empty()) throw std::logic_error("EventQueue::pop on empty queue");
  // A fan-out stays on top until its last step: its reserved sequence
  // range leaves no room for another event in between.
  const Entry& top = heap_.front();
  Slot& s = slots_[top.slot];
  const Popped out{top.when, top.event, top.event.fanout - s.remaining};
  --live_count_;
  if (--s.remaining == 0) {
    ++s.gen;  // finished: dead, and no entry refers to the slot any more
    release(top.slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  IMOBIF_ASSERT(out.when >= last_popped_,
                "event times must be popped in non-decreasing order");
  last_popped_ = out.when;
  return out;
}

std::vector<EventQueue::PendingEvent> EventQueue::pending() const {
  std::vector<PendingEvent> out;
  out.reserve(live_count_);
  const auto collect = [&](const Entry& entry) {
    if (!live(entry)) return;  // cancelled, not yet dropped
    const std::uint32_t fanout = entry.event.fanout;
    for (std::uint32_t step = fanout - slots_[entry.slot].remaining;
         step < fanout; ++step) {
      out.push_back(PendingEvent{entry.when, entry.seq + step, entry.event,
                                 step});
    }
  };
  for (const Entry& entry : heap_) collect(entry);
  std::sort(out.begin(), out.end(),
            [](const PendingEvent& a, const PendingEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.seq < b.seq;
            });
  return out;
}

std::size_t EventQueue::approx_bytes() const {
  return heap_.capacity() * sizeof(Entry) +
         slots_.capacity() * sizeof(Slot) +
         free_slots_.capacity() * sizeof(std::uint32_t);
}

}  // namespace imobif::sim
