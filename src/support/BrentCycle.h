//===- support/BrentCycle.h - loop-head divergence schedule ---------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// When to save and when to compare the machine state at a loop head, so
/// that an executor proves non-termination the moment its state repeats
/// instead of at the end of its step budget (DESIGN.md Section 18). The
/// executors own the state itself; this is only Brent's cycle-detection
/// schedule: the state is saved at checks 1, 2, 4, 8, ... and every later
/// check is compared against the last save.
///
/// Only every 8th visit is a check. That is still exact: the states at
/// visits 8, 16, 24, ... are the orbit of f^8, where f maps one visit's
/// state to the next, and f^8 is eventually periodic whenever f is, so
/// Brent's algorithm on it finds every cycle f has.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_BRENTCYCLE_H
#define SPE_SUPPORT_BRENTCYCLE_H

#include <cstdint>

namespace spe {

class BrentSchedule {
public:
  /// Counts one visit; \returns true when this visit is a check.
  bool due() { return (++Visits & 7) == 0; }

  /// Whether a check has a saved state to compare against.
  bool saved() const { return Power != 0; }

  /// Called on each check after the comparison; \returns true when the
  /// caller must replace the saved state with the current one.
  bool advance() {
    bool Save = Lam == Power;
    if (Save) {
      Power = Power ? Power * 2 : 1;
      Lam = 0;
    }
    ++Lam;
    return Save;
  }

private:
  uint64_t Visits = 0;
  uint64_t Power = 0; ///< Checks between two saves; 0 = nothing saved yet.
  uint64_t Lam = 0;   ///< Checks since the last save.
};

} // namespace spe

#endif // SPE_SUPPORT_BRENTCYCLE_H
