//===- compiler/Compiler.h - MiniCC driver --------------------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniCC driver: feature extraction, IR generation, the optimization
/// pipeline with coverage instrumentation, and the injected-bug hooks. This
/// is the "compiler under test" of the differential harness; the paper's
/// GCC/Clang stand-ins are CompilerConfig personas over this driver. A
/// compile is a configuration-independent LoweredUnit plus a per-config
/// half, so one lowering serves a variant's whole config matrix. The unit
/// builds and verifies each (opt level, mutilation) module once; the
/// per-config half is the bug hooks, which pick one of those modules, and
/// compileInPlace() reads it where it lies.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMPILER_COMPILER_H
#define SPE_COMPILER_COMPILER_H

#include "compiler/Bugs.h"
#include "compiler/Coverage.h"
#include "compiler/IRGen.h"
#include "compiler/VM.h"

#include <map>

namespace spe {

/// Outcome of one compilation.
struct CompileResult {
  enum class Status {
    Ok,       ///< Module ready to execute.
    Crashed,  ///< Internal compiler error (an injected bug fired).
    Rejected, ///< Outside the compilable subset.
  };
  Status St = Status::Rejected;
  /// The optimized (and possibly mutilated) module; empty when IRGen
  /// rejected the unit or an injected crash preempted the pipeline.
  IRModule Module;
  std::string CrashSignature;
  /// The injected bug behind a crash, or 0.
  int CrashBugId = 0;
  /// All injected bugs that fired (crash, wrong-code, performance).
  std::vector<int> FiredBugs;
  /// Simulated compile cost; Performance bugs inflate it.
  uint64_t CompileCost = 0;
  std::string Error;

  bool ok() const { return St == Status::Ok; }
  bool crashed() const { return St == Status::Crashed; }
};

/// The configuration-independent half of a compile: one translation unit's
/// features, its IRGen module, and the modules a config can end with. A
/// compile under a config changes only the bug hooks, and they pick only
/// the opt level and the mutilation, so one lowering serves every config
/// of a variant. The unit reads types owned by the ASTContext it was
/// lowered from, which must outlive it.
class LoweredUnit {
public:
  /// A module a compile can end with, and the verifier's verdict on it.
  struct Module {
    IRModule IR;
    /// verifyModule's error; empty when the module is well formed.
    std::string VerifyError;
  };

  /// Extracts features and runs IRGen; hits the irgen.* coverage points
  /// in \p Cov (may be null), which also receives every pipeline's hits.
  LoweredUnit(ASTContext &Ctx, CoverageRegistry *Cov);

  /// False when IRGen refused the unit: every config rejects it.
  bool ok() const { return Gen.Ok; }
  const std::string &error() const { return Gen.Error; }
  const ProgramFeatures &features() const { return Features; }
  /// 1 + the module's block count, before any bug inflates it.
  uint64_t baseCost() const { return BaseCost; }
  /// The pipeline's output at \p OptLevel with \p Mut applied, built and
  /// verified on the first request: for Mutilation::None, and for a
  /// mutilation that finds nothing to change, the level's pipeline output
  /// itself; otherwise a mutilated copy of it. The reference stays valid
  /// for the unit's lifetime.
  const Module &module(unsigned OptLevel, Mutilation Mut);

private:
  ProgramFeatures Features;
  IRGenResult Gen;
  uint64_t BaseCost = 0;
  CoverageRegistry *Cov;
  /// Built modules by (opt level, mutilation); a map, so references to
  /// its values survive later insertions.
  std::map<std::pair<unsigned, Mutilation>, Module> Modules;
};

/// Compiles one analyzed translation unit under a configuration.
class MiniCompiler {
public:
  /// \param Config   persona/version/opt-level/machine mode.
  /// \param Cov      optional coverage registry (Figure 9).
  /// \param InjectBugs when false the ground-truth bugs are disabled; this
  ///        is the "fixed compiler" used by differential self-validation.
  MiniCompiler(CompilerConfig Config, CoverageRegistry *Cov = nullptr,
               bool InjectBugs = true)
      : Config(Config), Cov(Cov), InjectBugs(InjectBugs) {}

  /// Lowers \p Ctx, then compiles the unit.
  CompileResult compile(ASTContext &Ctx) const;
  /// The per-config half over an already lowered unit: compileInPlace()
  /// plus a copy of the module it picks.
  CompileResult compile(LoweredUnit &Unit) const;
  /// The per-config half without the copy: runs the bug hooks, fills every
  /// field of \p Result but Module, and \returns the unit's module that
  /// compile() would copy into it -- the one for this opt level and the
  /// fired wrong-code mutilation, also when the verifier refused it -- or
  /// null when Module stays empty (IRGen refused the unit, or an injected
  /// crash preempted the pipeline). Coverage goes to the registry \p Unit
  /// was lowered with.
  const IRModule *compileInPlace(LoweredUnit &Unit,
                                 CompileResult &Result) const;

  const CompilerConfig &config() const { return Config; }

private:
  CompilerConfig Config;
  CoverageRegistry *Cov;
  bool InjectBugs;
};

/// Applies a wrong-code mutilation to the module (test hook; the driver
/// applies the same edit when a WrongCode bug fires). \returns whether it
/// changed the module: false when the mutilation finds nothing to edit,
/// or its edit would swap two equal operands or successors.
bool applyMutilation(IRModule &M, Mutilation Mut);

} // namespace spe

#endif // SPE_COMPILER_COMPILER_H
