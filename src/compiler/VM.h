//===- compiler/VM.h - MiniCC IR execution engine ------------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode-style executor for MiniCC IR. On UB-free programs (the only ones
/// the differential harness compares, per Section 5.4) the O0 pipeline's
/// behavior matches the reference interpreter exactly; divergence after
/// optimization therefore indicates a compiler bug (injected or real).
/// Unlike the reference interpreter, the VM performs no UB bookkeeping -- it
/// guards only against conditions that would crash the host (bad memory,
/// division by zero) and reports them as traps.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMPILER_VM_H
#define SPE_COMPILER_VM_H

#include "compiler/IR.h"
#include "support/Divergence.h"

#include <string>

namespace spe {

/// VM execution options.
struct VMOptions {
  uint64_t MaxSteps = 5'000'000;
  unsigned MaxCallDepth = 256;
  /// Stdin image consumed by the spe_input() intrinsic: each call parses
  /// the next integer scanf("%d")-style and yields 0 once exhausted,
  /// mirroring the reference interpreter and the external backends'
  /// scanf-based prelude byte for byte.
  std::string Input;
};

/// Outcome of a VM run.
enum class VMStatus { Ok, Trap, Timeout };

struct VMResult {
  VMStatus Status = VMStatus::Trap;
  int64_t ExitCode = 0;
  /// printf output; always empty on Timeout (budget, call depth, or a
  /// repeated loop-head state, DESIGN.md Section 18).
  std::string Output;
  std::string Message;
  /// Why the run timed out; None unless Status is Timeout.
  TimeoutReason Reason = TimeoutReason::None;

  bool ok() const { return Status == VMStatus::Ok; }
};

/// Executes the module's main function.
VMResult executeModule(const IRModule &M, VMOptions Opts = {});

} // namespace spe

#endif // SPE_COMPILER_VM_H
