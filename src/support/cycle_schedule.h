// Checkpoint schedule and jump arithmetic for exact-cycle fast-forward.
//
// Both the concrete interpreter (vm::Interpreter) and the symbolic
// executor (symex::SymExecutor) skip hung loops the same way: at
// instruction-count checkpoints they arm a complete snapshot of their
// state, compare later checkpoints against it, and on an exact match jump
// the instruction counter forward a whole number of periods. This header
// holds the part that is pure arithmetic, so the two detectors share one
// schedule instead of two copies that could drift.
#pragma once

#include <cstdint>

namespace octopocs::support {

/// Brent's doubling schedule over a monotone instruction count: a
/// snapshot armed at count c is compared at every later checkpoint until
/// the count reaches 2c, then re-armed there. A loop entered after
/// warm-up w whose state repeats every p checkpointed instructions is
/// detected once an arm lands past w with c >= p, i.e. within O(w + p)
/// instructions, while snapshots are taken only O(log n) times.
class CycleSchedule {
 public:
  /// True when the caller should (re-)take its snapshot at `now`.
  bool ShouldArm(std::uint64_t now) const { return !armed_ || now >= limit_; }

  /// Records that the snapshot now describes the state at `now`.
  void Arm(std::uint64_t now) {
    armed_at_ = now;
    limit_ = 2 * now;
    armed_ = true;
  }

  /// Instructions since the snapshot: the period once the state at
  /// `now` equals the snapshot.
  std::uint64_t Period(std::uint64_t now) const { return now - armed_at_; }

 private:
  std::uint64_t armed_at_ = 0;
  std::uint64_t limit_ = 0;
  bool armed_ = false;
};

/// Instructions to jump: the largest whole number of `period`s that fits
/// in `room`, the instructions left before the next limit. The jump
/// lands on a state equal to the current one, so the residual (under one
/// period) executes normally into the same limit the unskipped run hits.
inline std::uint64_t WholePeriods(std::uint64_t period, std::uint64_t room) {
  return period == 0 ? 0 : room / period * period;
}

}  // namespace octopocs::support
