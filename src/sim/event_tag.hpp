// Event: the plain record every scheduled event is.
//
// An event is data, not code: a kind plus two integer operands (and, for
// deliveries, a fan-out count). The queue stores the record itself; the
// simulator dispatches it to the EventHandler registered for its kind.
// Checkpointing dumps the records and restore re-inserts them, so run and
// restore share one dispatch path and nothing needs to be re-materialized.
// The sim layer stays network-agnostic: kinds are a closed enum shared with
// the net layer by convention, and a delivery's packet lives in the net
// layer's in-flight pool, named here only by its slot index.
//
// Fan-out: a broadcast to k receivers is ONE kDeliver record with
// fanout = k. The queue reserves k consecutive sequence numbers for it and
// steps it once per receiver (step = 0..k-1), so each receiver still counts
// as one executed event, stop() can land between two receivers, and the
// pending enumeration lists one entry per remaining receiver — exactly the
// (time, seq) stream k separate events would have produced.
#pragma once

#include <cstddef>
#include <cstdint>

namespace imobif::sim {

struct Event {
  // Values are part of the snapshot codec; never renumber.
  enum class Kind : std::uint8_t {
    kHelloTick = 1,     ///< a = node id
    kEmitPacket = 2,    ///< a = flow id
    kDeliver = 3,       ///< a = in-flight slot; one step per receiver
    kNotifyRetry = 4,   ///< a = node id, b = flow id
    kFaultSet = 5,      ///< a = node id, b = 1 (crash) / 0 (resume)
    kMobTick = 6,       ///< background-motion tick (src/mob)
  };
  static constexpr std::size_t kKindCount = 7;

  Kind kind = Kind::kHelloTick;
  /// Steps this record executes; > 1 only for a broadcast delivery.
  // snap:transient(restore re-inserts each pending receiver as a single-step record)
  std::uint32_t fanout = 1;
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  // Named constructors (the net layer's scheduling sites use these).
  static Event hello_tick(std::uint64_t node) {
    return Event{Kind::kHelloTick, 1, node, 0};
  }
  static Event emit_packet(std::uint64_t flow) {
    return Event{Kind::kEmitPacket, 1, flow, 0};
  }
  static Event deliver(std::uint32_t slot, std::uint32_t receivers) {
    return Event{Kind::kDeliver, receivers, slot, 0};
  }
  static Event notify_retry(std::uint64_t node, std::uint64_t flow) {
    return Event{Kind::kNotifyRetry, 1, node, flow};
  }
  static Event fault_set(std::uint64_t node, bool on) {
    return Event{Kind::kFaultSet, 1, node, on ? 1u : 0u};
  }
  static Event mob_tick() { return Event{Kind::kMobTick, 1, 0, 0}; }
};

/// Executes events of the kinds it is registered for
/// (Simulator::set_handler). `step` is 0 for single-step events and the
/// receiver index for a fan-out.
class EventHandler {
 public:
  virtual void handle(const Event& event, std::uint32_t step) = 0;

 protected:
  ~EventHandler() = default;
};

}  // namespace imobif::sim
