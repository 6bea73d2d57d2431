// Discrete-event queue: a binary heap of plain event records with O(log n)
// push/pop and O(1) cancellation.
//
// Each heap entry is the record itself — (time, seq, Event, slot) — with no
// closure and no side table. Ties in time break by insertion sequence, so
// same-tick events run in the order they were scheduled; this determinism
// is what makes the paper's packet-by-packet protocol reproducible.
//
// Liveness: every record owns a slot in a dense vector holding a
// generation (odd = live) and its remaining steps; an EventId packs
// (generation, slot). A cancelled entry is dropped lazily when it reaches
// the top, and only then is its slot recycled, so an entry never aliases
// a newer event.
//
// Fan-out (event_tag.hpp): a record with fanout = k reserves sequence
// numbers seq..seq+k-1 and is popped k times, once per step. size() and
// pending() count steps, so they match k separately scheduled events.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_tag.hpp"
#include "sim/time.hpp"

namespace imobif::sim {

/// Handle for cancel(); 0 never names an event.
using EventId = std::uint64_t;

// snap:transient(pending records are dumped to and re-inserted from the snapshot events section)
class EventQueue {
 public:
  /// Schedules `event` at absolute time `when` (event.fanout >= 1); returns
  /// a handle for cancel().
  EventId schedule(Time when, const Event& event);

  /// Cancels every remaining step of a pending event. Returns false when
  /// the event already ran, was already cancelled, or never existed.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  /// Remaining steps over all live events.
  std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; Time::infinity() when empty.
  Time next_time() const;

  // snap:transient(pop result value type)
  struct Popped {
    Time when;
    Event event;
    std::uint32_t step = 0;
  };
  /// Removes and returns the earliest live step. Requires !empty().
  Popped pop();

  /// One remaining step of a live event, for checkpoint enumeration.
  // snap:transient(enumeration result value type)
  struct PendingEvent {
    Time when;
    std::uint64_t seq = 0;
    Event event;
    std::uint32_t step = 0;
  };
  /// Every remaining step in execution order (time, then sequence).
  std::vector<PendingEvent> pending() const;

  /// Heap-allocated bytes of the queue's vectors (scale accounting).
  std::size_t approx_bytes() const;

 private:
  // snap:transient(queue entry; the events section dumps the live ones)
  struct Entry {
    Time when;
    std::uint64_t seq;  ///< sequence of step 0; step i runs as seq + i
    Event event;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  // snap:transient(liveness bookkeeping, rebuilt as restored records are scheduled)
  struct Slot {
    std::uint32_t gen = 0;        ///< odd while the owning event is live
    std::uint32_t remaining = 0;  ///< steps not yet popped
  };

  bool live(const Entry& entry) const {
    return (slots_[entry.slot].gen & 1u) != 0;
  }
  /// Returns a dropped or finished entry's slot to the free list.
  void release(std::uint32_t slot) const { free_slots_.push_back(slot); }
  void drop_dead_top() const;

  mutable std::vector<Entry> heap_;  ///< max-heap under Later (min-time first)
  std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  // Time of the last event handed out by pop(); pop() contracts that the
  // stream of popped times never regresses.
  Time last_popped_ = Time::zero();
};

}  // namespace imobif::sim
