//===- support/Scratch.h - per-thread reusable buffers --------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread scratch for work done once per variant: IRGen's emission
/// buffers, the passes' dense tables, the VM's register files. A use leases
/// its thread's tables for as long as it runs, so their buffers outlive it
/// and the next use on the thread allocates nothing.
///
/// The rule that keeps results independent of what ran before: a use
/// re-initializes every table in full (assign, resize-and-fill, clear)
/// before it reads it, and nothing reads a table across uses. A use nested
/// inside another on one thread gets fresh tables of its own.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_SCRATCH_H
#define SPE_SUPPORT_SCRATCH_H

#include <memory>

namespace spe {

/// Leases the calling thread's \p T for the lease's lifetime.
template <class T> class ScratchLease {
public:
  ScratchLease() {
    Slot &S = slot();
    if (S.Leased) {
      Nested = std::make_unique<T>();
      Tables = Nested.get();
    } else {
      S.Leased = true;
      Tables = &S.Tables;
    }
  }
  ~ScratchLease() {
    if (!Nested)
      slot().Leased = false;
  }
  ScratchLease(const ScratchLease &) = delete;
  ScratchLease &operator=(const ScratchLease &) = delete;

  T &operator*() { return *Tables; }
  T *operator->() { return Tables; }

private:
  struct Slot {
    T Tables;
    bool Leased = false;
  };
  static Slot &slot() {
    thread_local Slot S;
    return S;
  }

  T *Tables;
  /// The tables of a lease taken while the thread's are leased.
  std::unique_ptr<T> Nested;
};

} // namespace spe

#endif // SPE_SUPPORT_SCRATCH_H
