// Battery: residual-energy bookkeeping for a node.
//
// Tracks draws by category (transmission / movement / other) so experiments
// can report the Fig-6(b) decomposition directly. A node dies when its
// residual reaches zero; draws are clamped at zero and the shortfall
// reported, matching the "node can measure its residual energy" assumption.
//
// All quantities are strongly typed util::Joules; raw doubles enter only at
// the I/O boundary (snapshot codec, scenario parsing).
#pragma once

#include <functional>

#include "util/units.hpp"

namespace imobif::energy {

enum class DrawKind { kTransmit, kMove, kOther };

class Battery {
 public:
  explicit Battery(util::Joules initial);

  util::Joules residual() const { return residual_; }
  util::Joules initial() const { return initial_; }
  bool depleted() const { return residual_ <= util::Joules{0.0}; }

  /// Draws up to `amount`; returns the energy actually drawn (less than
  /// requested only when the battery empties).
  util::Joules draw(util::Joules amount, DrawKind kind);

  /// True when the battery currently holds at least `amount`.
  bool can_afford(util::Joules amount) const { return residual_ >= amount; }

  util::Joules consumed_total() const { return initial_ - residual_; }
  util::Joules consumed_transmit() const { return consumed_transmit_; }
  util::Joules consumed_move() const { return consumed_move_; }
  util::Joules consumed_other() const { return consumed_other_; }

  /// Invoked exactly once, at the transition to depleted.
  void set_depletion_callback(std::function<void()> cb) {
    on_depleted_ = std::move(cb);
  }

  /// Experiment support: reset to a new initial charge (keeps callback).
  void recharge(util::Joules initial);

  /// Checkpoint restore: overwrite the full accounting state (keeps the
  /// callback, never re-fires it — a battery restored as depleted already
  /// announced its death before the snapshot was taken).
  void restore(util::Joules initial, util::Joules residual,
               util::Joules consumed_tx, util::Joules consumed_move,
               util::Joules consumed_other);

 private:
  util::Joules initial_;
  util::Joules residual_;
  util::Joules consumed_transmit_;
  util::Joules consumed_move_;
  util::Joules consumed_other_;
  // snap:transient(depletion callback wired by the owning node at attach time)
  std::function<void()> on_depleted_;
};

}  // namespace imobif::energy
