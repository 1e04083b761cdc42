//===- compiler/Backend.h - pluggable compiler backends ------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler-under-test abstraction of the differential harness. The
/// paper's headline result is 217 bugs in *real* GCC and Clang; this
/// interface is what lets one campaign loop drive either the in-process
/// MiniCC personas (ground-truth injected bugs, used by every bench that
/// reports found/missed precisely) or an external host compiler invoked as
/// a subprocess (compiler/ExternalBackend.h, no ground truth -- findings
/// flow through signature-only triage exactly as the paper's authors'
/// did).
///
/// A backend turns (variant text, configuration) into one behavioral
/// observation: how compilation ended, whether compile time blew up, and
/// -- when a binary was produced -- how it ran. Classification against the
/// reference oracle stays in the harness (and in reduce/BugRepro.h via the
/// shared classifyDivergence), so the two can never drift on what counts
/// as a divergence.
///
/// The in-process backend does each piece of a variant's work once. It
/// lowers the AST the oracle interpreted when the harness lends one
/// (BatchExpectation::Parsed: the cursor range's bound AST, or the oracle's
/// own parse of a variant the binder refused) and parses the text
/// otherwise; it builds and verifies one module per (opt level,
/// mutilation) for all configs, reads each in place, and runs the VM once
/// per distinct (module, stdin).
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMPILER_BACKEND_H
#define SPE_COMPILER_BACKEND_H

#include "compiler/Bugs.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spe {

class ASTContext;
class CoverageRegistry;
class LoweredUnit;

/// The shared front-end gate: parse + Sema, null on any failure. One
/// definition serves the harness, the repro oracle, and the in-process
/// backend, so what counts as "frontend-valid" cannot desynchronize
/// between them.
std::unique_ptr<ASTContext> parseAndAnalyze(const std::string &Source);

/// One compile-and-run observation of a variant under a configuration.
struct BackendObservation {
  enum class CompileStatus {
    Ok,       ///< A runnable artifact was produced.
    Crashed,  ///< The compiler itself died (ICE / assertion / signal).
    Rejected, ///< Diagnosed and refused; not a bug observation.
    TimedOut, ///< Compilation exceeded its wall-clock budget.
  };
  CompileStatus Compile = CompileStatus::Rejected;
  /// Crash signature text (CompileStatus::Crashed): the assertion or ICE
  /// line for MiniCC; the normalized stderr marker line for external
  /// compilers.
  std::string CrashSignature;
  /// Ground-truth injected bug behind the crash, or 0 when unknown (always
  /// 0 for external backends).
  int CrashBugId = 0;
  /// All ground-truth bugs that fired during compilation; empty when the
  /// backend has none. The harness looks ids up with findBug(), so foreign
  /// or empty id sets are safe.
  std::vector<int> FiredBugs;
  /// Pathological compile time: MiniCC's inflated cost model, or an
  /// external compile that needed killing (CompileStatus::TimedOut).
  bool CompileTimeAnomaly = false;

  enum class ExecStatus {
    NotRun,  ///< No artifact to execute (crash/reject/timeout).
    Ok,      ///< Ran to completion; ExitCode and Output are meaningful.
    Trap,    ///< Died abnormally (VM trap, or a signal for subprocesses).
    Timeout, ///< Execution budget expired -- the hang-divergence case.
  };
  ExecStatus Exec = ExecStatus::NotRun;
  int64_t ExitCode = 0;
  /// True when ExitCode passed through a POSIX wait status and only its
  /// low 8 bits are meaningful; divergence comparison masks both sides.
  bool ExitCodeLow8 = false;
  std::string Output;
};

/// The stdin inputs one config's sweep drives. An empty ExecSweep is the
/// classic single execution on empty stdin, so this is never empty: it
/// returns {""} for an unswept config. The reference lives as long as
/// \p Config.
const std::vector<std::string> &configInputs(const CompilerConfig &Config);

/// The matrix's input axis: the first-appearance-ordered union of every
/// config's sweep. Index 0 is the *primary* input -- the one whose oracle
/// verdict gates whether a variant is tested at all, and "" when no config
/// sweeps. Deterministic for identical config lists, which is what lets
/// checkpoints fingerprint the sweep set.
std::vector<std::string> sweepUnion(const std::vector<CompilerConfig> &Configs);

/// The harness's oracle expectation for one batched variant: what a clean
/// execution must reproduce. A batched observation that deviates from it in
/// any way (or that has no valid expectation to check against) is discarded
/// and the variant re-run unbatched, so every observation that can reach
/// the recording path carries single-compile provenance.
struct BatchExpectation {
  /// False = no behavioral expectation is known; such variants are always
  /// resolved by an unbatched run.
  bool Valid = false;
  /// Expected behavior under the primary input (sweepUnion index 0).
  int64_t ExitCode = 0;
  std::string Output;

  /// Expected behavior of one non-primary sweep input.
  struct Cell {
    /// False = this input's oracle verdict was not Ok (UB / timeout under
    /// that input); the cell is excluded from the matrix and never run.
    bool Valid = false;
    int64_t ExitCode = 0;
    std::string Output;
  };
  /// Expectations for sweepUnion indices 1.. (entry I describes union
  /// input I+1). Empty when the campaign has no sweep -- the layout the
  /// pre-matrix harness produced, byte for byte.
  std::vector<Cell> Extra;
  /// A borrowed, analysed AST of this variant, or null: the AST the
  /// oracle interpreted, bound from the seed's template
  /// (skeleton/VariantBinder.h) or parsed from the text. An in-process
  /// backend lowers it instead of parsing the text; interpretation, like
  /// IRGen, writes only the type table's interned pointer types, so it
  /// lowers exactly as a fresh parse does. The lender keeps it alive and
  /// unchanged until finishBatch returns, since the lowered IR reads types
  /// the AST owns; other backends ignore it.
  ASTContext *Parsed = nullptr;

  /// The expectation cell for sweep-union index \p UnionIdx (index 0
  /// aliases the legacy top-level fields). Cell.Valid is false when the
  /// whole expectation is invalid or that input is excluded.
  Cell cell(size_t UnionIdx) const {
    if (!Valid)
      return {};
    if (UnionIdx == 0)
      return {true, ExitCode, Output};
    if (UnionIdx - 1 >= Extra.size())
      return {};
    return Extra[UnionIdx - 1];
  }
};

/// Opaque handle for an in-flight batch: beginBatch() may start real work
/// (pool compiles) behind it; finishBatch() consumes it. Destroying an
/// unfinished ticket abandons the batch and releases its resources --
/// exactly what a simulated crash strands.
class BatchTicket {
public:
  virtual ~BatchTicket() = default;
};

/// A compiler under differential test. Implementations must be const-callable
/// from concurrent shard workers.
class CompilerBackend {
public:
  virtual ~CompilerBackend() = default;

  /// Stable identity folded into checkpoint fingerprints (persist/): for
  /// external backends the command-line template plus the compiler's
  /// --version banner, so a snapshot written against one compiler can
  /// never be resumed against another.
  virtual std::string identity() const = 0;

  /// True when observations carry ground-truth injected-bug ids. Without
  /// ground truth the harness records findings as signature-only clusters
  /// (FoundBug::BugId 0, keyed by normalized signature).
  virtual bool hasGroundTruth() const = 0;

  /// Compiles \p Source under \p Config and, when a runnable artifact
  /// results, executes it. \p Cov is forwarded to backends that support
  /// coverage instrumentation and ignored by the rest.
  virtual BackendObservation run(const std::string &Source,
                                 const CompilerConfig &Config,
                                 CoverageRegistry *Cov) const = 0;

  /// run() with \p Input fed to the executed artifact's stdin (the
  /// spe_input() intrinsic reads it). The base implementation ignores the
  /// input and forwards to run() -- correct for test doubles whose
  /// behavior is scripted rather than executed; every real executor
  /// overrides it.
  virtual BackendObservation runWithInput(const std::string &Source,
                                          const CompilerConfig &Config,
                                          const std::string &Input,
                                          CoverageRegistry *Cov) const;

  /// One compile, M executions: the full observation row of \p Source
  /// under \p Config for each stdin in \p Inputs (never empty; pass
  /// configInputs(Config)). All returned observations share one compile's
  /// status/crash fields. The base implementation loops runWithInput;
  /// real backends override to amortize the compile across the sweep.
  virtual std::vector<BackendObservation>
  runSweep(const std::string &Source, const CompilerConfig &Config,
           const std::vector<std::string> &Inputs,
           CoverageRegistry *Cov) const;

  /// Starts testing a batch of variants against every configuration and
  /// returns immediately; backends that can overlap work (ExternalBackend's
  /// pool compiles) start it here. The base implementation just parks the
  /// inputs, and each expectation's borrowed Parsed pointer, in the
  /// ticket. Ownership of \p Sources transfers to the ticket so nothing
  /// dangles while the caller enumerates ahead.
  virtual std::unique_ptr<BatchTicket>
  beginBatch(std::vector<std::string> Sources,
             std::vector<BatchExpectation> Expected,
             std::vector<CompilerConfig> Configs, CoverageRegistry *Cov) const;

  /// Completes a batch: \returns Out[variant][config][input] observations
  /// in the shape beginBatch was given, with the input axis of row
  /// (variant, config) being configInputs(Configs[config]). The contract
  /// batched callers rely on: every observation that differs from its
  /// BatchExpectation cell (crash, reject, anomaly, divergence, exec
  /// failure) is equal to what runSweep() would have produced for that
  /// (variant, config) row -- the base implementation guarantees it by
  /// *being* a runSweep() loop, InProcessBackend by sharing only the
  /// config-independent half of the compile, ExternalBackend by bisection
  /// plus unbatched re-verification of the whole row.
  virtual std::vector<std::vector<std::vector<BackendObservation>>>
  finishBatch(std::unique_ptr<BatchTicket> Ticket) const;
};

/// The in-process driver: parse + Sema + MiniCompiler + VM. Every entry
/// runs one loop, runConfigs: per variant one parse (none when the batch
/// lends an AST) and one lowering; per config the bug hooks,
/// which pick one of the unit's verified modules; per distinct (module,
/// stdin) one VM run. The observations equal a fresh-parse runSweep()
/// loop's, field for field.
class InProcessBackend final : public CompilerBackend {
public:
  explicit InProcessBackend(bool InjectBugs = true)
      : InjectBugs(InjectBugs) {}

  std::string identity() const override { return "minicc"; }
  bool hasGroundTruth() const override { return true; }
  BackendObservation run(const std::string &Source,
                         const CompilerConfig &Config,
                         CoverageRegistry *Cov) const override;
  BackendObservation runWithInput(const std::string &Source,
                                  const CompilerConfig &Config,
                                  const std::string &Input,
                                  CoverageRegistry *Cov) const override;
  /// One MiniCompiler invocation, one VM execution per distinct input.
  std::vector<BackendObservation>
  runSweep(const std::string &Source, const CompilerConfig &Config,
           const std::vector<std::string> &Inputs,
           CoverageRegistry *Cov) const override;
  /// The base beginBatch's parked inputs, one lowering per variant for the
  /// whole config list: of the expectation's lent Parsed AST when it has
  /// one, of a fresh parse otherwise.
  std::vector<std::vector<std::vector<BackendObservation>>>
  finishBatch(std::unique_ptr<BatchTicket> Ticket) const override;

  /// In-process fast path: compile + execute an already-analyzed unit,
  /// skipping the re-parse run() would perform. Used where the caller
  /// still holds the AST it built for the oracle verdict. \p Input feeds
  /// the VM's spe_input() cursor.
  BackendObservation runOn(ASTContext &Ctx, const CompilerConfig &Config,
                           CoverageRegistry *Cov,
                           const std::string &Input = {}) const;

private:
  /// One variant's rows under every config of \p Configs, each over the
  /// stdins \p Sweep when it is non-null and over its configInputs
  /// otherwise: \p Parsed lowered once (\p Source parsed first when it is
  /// null), then per config the bug hooks and one VM run per (module,
  /// stdin) not run yet.
  std::vector<std::vector<BackendObservation>>
  runConfigs(const std::string &Source, ASTContext *Parsed,
             const std::vector<CompilerConfig> &Configs,
             const std::vector<std::string> *Sweep,
             CoverageRegistry *Cov) const;

  bool InjectBugs;
};

/// Classifies one executed observation against the reference oracle's
/// verdict. \returns the raw wrong-code signature -- "miscompilation
/// (hang)" for an execution timeout, "(trap)", "(exit A != B)", or
/// "(output)" -- or the empty string when behaviors agree. Exit codes are
/// masked to their low 8 bits when the observation says only those
/// survived the wait status. Shared by the harness and the reduction
/// pipeline's repro oracle so the divergence definition cannot drift.
std::string classifyDivergence(const BackendObservation &Obs,
                               int64_t OracleExitCode,
                               const std::string &OracleOutput);

} // namespace spe

#endif // SPE_COMPILER_BACKEND_H
