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
/// half, so one lowering serves a variant's whole config matrix.
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
/// features, its IRGen module and the optimization pipeline's output per
/// opt level. A compile under a config changes only the bug hooks, the
/// mutilation and which opt level's output it copies, so one lowering
/// serves every config of a variant. The unit reads types owned by the
/// ASTContext it was lowered from, which must outlive it.
class LoweredUnit {
public:
  /// Extracts features and runs IRGen; hits the irgen.* coverage points
  /// in \p Cov (may be null), which also receives every pipeline's hits.
  LoweredUnit(ASTContext &Ctx, CoverageRegistry *Cov);

  /// False when IRGen refused the unit: every config rejects it.
  bool ok() const { return Gen.Ok; }
  const std::string &error() const { return Gen.Error; }
  const ProgramFeatures &features() const { return Features; }
  /// 1 + the module's block count, before any bug inflates it.
  uint64_t baseCost() const { return BaseCost; }
  /// The pipeline's output at \p OptLevel, run on the first request.
  const IRModule &optimized(unsigned OptLevel);

private:
  ProgramFeatures Features;
  IRGenResult Gen;
  uint64_t BaseCost = 0;
  CoverageRegistry *Cov;
  /// Pipeline outputs by opt level, each filled on its first request.
  std::map<unsigned, IRModule> Optimized;
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
  /// The per-config half over an already lowered unit: the bug hooks, a
  /// copy of the pipeline's output at this opt level, the wrong-code
  /// mutilation on that copy, and the verifier. Coverage goes to the
  /// registry \p Unit was lowered with.
  CompileResult compile(LoweredUnit &Unit) const;

  const CompilerConfig &config() const { return Config; }

private:
  CompilerConfig Config;
  CoverageRegistry *Cov;
  bool InjectBugs;
};

/// Applies a wrong-code mutilation to the module (test hook; the driver
/// calls it internally when a WrongCode bug fires).
void applyMutilation(IRModule &M, Mutilation Mut);

} // namespace spe

#endif // SPE_COMPILER_COMPILER_H
