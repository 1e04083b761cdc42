//===- interp/Interpreter.h - Reference interpreter with UB oracle -------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST-walking reference interpreter for the mini-C dialect. It plays the
/// role CompCert's reference interpreter plays in Section 5 of the paper:
/// the trusted executor that (a) provides the expected output for
/// differential testing and (b) detects undefined behavior so that
/// UB-exercising variants are excluded before wrong-code classification
/// (Section 5.4).
///
/// Detected UB: uninitialized scalar reads, signed integer overflow,
/// division/remainder by zero (and INT_MIN / -1), out-of-range and
/// negative shift amounts, shifts of/into negative signed values, null /
/// dangling / out-of-bounds dereferences, pointer arithmetic escaping its
/// object (one-past-the-end allowed, dereferencing it is not), and
/// relational comparison or subtraction of pointers into different objects.
/// A pointer dangles once its object's lifetime ends: a callee's local
/// when the callee returns, a block-scope local when control leaves its
/// block (DESIGN.md Section 18.6).
///
/// The interpreter also records which statements executed (by Sema-assigned
/// stmt id); the Orion-style mutation baseline deletes statements in the
/// unexecuted "dead regions" exactly as in the paper's coverage experiment.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_INTERP_INTERPRETER_H
#define SPE_INTERP_INTERPRETER_H

#include "lang/AST.h"
#include "support/Divergence.h"

#include <cstdint>
#include <set>
#include <string>

namespace spe {

/// Outcome classification of one reference execution.
enum class ExecStatus {
  /// Ran to completion; ExitCode and Output are meaningful.
  Ok,
  /// Undefined behavior detected; Message names it.
  UndefinedBehavior,
  /// Step budget or call depth exhausted, or a proof at a loop head or a
  /// taken goto that the budget would run out (DESIGN.md Section 18); not
  /// UB, but the variant is excluded from differential comparison. Reason
  /// says which.
  Timeout,
  /// The program uses a feature outside the executable subset, or has no
  /// main function.
  Unsupported,
};

/// Result of interpreting a program.
struct ExecResult {
  ExecStatus Status = ExecStatus::Unsupported;
  /// main's return value (when Status == Ok).
  int64_t ExitCode = 0;
  /// Accumulated printf output; always empty on Timeout.
  std::string Output;
  /// Diagnostic for UB / unsupported features / timeouts.
  std::string Message;
  /// Why the run timed out; None unless Status is Timeout.
  TimeoutReason Reason = TimeoutReason::None;
  /// Sema statement ids that executed at least once.
  std::set<int> ExecutedStmts;

  bool ok() const { return Status == ExecStatus::Ok; }
};

/// Interpreter configuration.
struct InterpOptions {
  /// Maximum number of statement/expression evaluation steps.
  uint64_t MaxSteps = 2'000'000;
  /// Maximum call depth (guards runaway recursion).
  unsigned MaxCallDepth = 256;
  /// Stdin image consumed by the spe_input() intrinsic (scanf("%d")
  /// semantics, 0 at exhaustion); see support/StdinScan.h for the
  /// cross-executor contract.
  std::string Input;
};

/// Runs the analyzed translation unit's main() under the reference
/// semantics. The unit must have passed Sema.
ExecResult interpret(ASTContext &Ctx, InterpOptions Opts = {});

} // namespace spe

#endif // SPE_INTERP_INTERPRETER_H
