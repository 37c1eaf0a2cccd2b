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

  util::Joules residual() const { return res(); }
  util::Joules initial() const { return initial_; }
  bool depleted() const { return res() <= util::Joules{0.0}; }

  /// Redirects residual-energy storage into an external cell (the
  /// net::NodeStore struct-of-arrays column, DESIGN.md §12). The current
  /// residual is copied into `*cell`; all subsequent reads and writes go
  /// through it. The cell must outlive the battery and stay
  /// address-stable; pass nullptr to fall back to inline storage.
  void bind_residual_cell(util::Joules* cell) {
    if (cell != nullptr) *cell = res();
    cell_ = cell;
  }

  /// Draws up to `amount`; returns the energy actually drawn (less than
  /// requested only when the battery empties).
  util::Joules draw(util::Joules amount, DrawKind kind);

  util::Joules consumed_total() const { return initial_ - res(); }
  util::Joules consumed_transmit() const { return consumed_transmit_; }
  util::Joules consumed_move() const { return consumed_move_; }
  util::Joules consumed_other() const { return consumed_other_; }

  /// Invoked exactly once, at the transition to depleted.
  void set_depletion_callback(std::function<void()> cb) {
    on_depleted_ = std::move(cb);
  }

  /// Checkpoint restore: overwrite the full accounting state (keeps the
  /// callback, never re-fires it — a battery restored as depleted already
  /// announced its death before the snapshot was taken).
  void restore(util::Joules initial, util::Joules residual,
               util::Joules consumed_tx, util::Joules consumed_move,
               util::Joules consumed_other);

 private:
  /// Residual storage: the bound external cell when present, the inline
  /// member otherwise. Copying a battery copies the binding, so bound
  /// batteries should not be copied (Node never does).
  util::Joules& res() { return cell_ != nullptr ? *cell_ : residual_; }
  const util::Joules& res() const {
    return cell_ != nullptr ? *cell_ : residual_;
  }

  util::Joules initial_;
  util::Joules residual_;
  util::Joules consumed_transmit_;
  util::Joules consumed_move_;
  util::Joules consumed_other_;
  // snap:derived(bind_residual_cell)
  util::Joules* cell_ = nullptr;
  // snap:transient(depletion callback wired by the owning node at attach time)
  std::function<void()> on_depleted_;
};

}  // namespace imobif::energy
