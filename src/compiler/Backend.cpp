//===- compiler/Backend.cpp - pluggable compiler backends ----------------===//

#include "compiler/Backend.h"

#include "compiler/Compiler.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "support/Scratch.h"

#include <algorithm>
#include <memory>

using namespace spe;

namespace {

/// The base batch ticket: nothing is in flight, the inputs are merely
/// parked until finishBatch runs the ordinary per-variant loop.
struct GenericBatchTicket final : BatchTicket {
  std::vector<std::string> Sources;
  /// Each variant's borrowed BatchExpectation::Parsed (may be null); its
  /// lender keeps it alive until finishBatch returns.
  std::vector<ASTContext *> Parsed;
  std::vector<CompilerConfig> Configs;
  CoverageRegistry *Cov = nullptr;
};

} // namespace

const std::vector<std::string> &
spe::configInputs(const CompilerConfig &Config) {
  static const std::vector<std::string> EmptyStdin{std::string()};
  return Config.ExecSweep.empty() ? EmptyStdin : Config.ExecSweep;
}

std::vector<std::string>
spe::sweepUnion(const std::vector<CompilerConfig> &Configs) {
  std::vector<std::string> Union;
  for (const CompilerConfig &C : Configs)
    for (const std::string &In : configInputs(C))
      if (std::find(Union.begin(), Union.end(), In) == Union.end())
        Union.push_back(In);
  if (Union.empty())
    Union.emplace_back(); // No configs at all: still one empty input.
  return Union;
}

BackendObservation
CompilerBackend::runWithInput(const std::string &Source,
                              const CompilerConfig &Config,
                              const std::string &Input,
                              CoverageRegistry *Cov) const {
  (void)Input; // Scripted doubles have no execution to feed.
  return run(Source, Config, Cov);
}

std::vector<BackendObservation>
CompilerBackend::runSweep(const std::string &Source,
                          const CompilerConfig &Config,
                          const std::vector<std::string> &Inputs,
                          CoverageRegistry *Cov) const {
  std::vector<BackendObservation> Row;
  Row.reserve(Inputs.size());
  for (const std::string &In : Inputs)
    Row.push_back(runWithInput(Source, Config, In, Cov));
  return Row;
}

std::unique_ptr<BatchTicket>
CompilerBackend::beginBatch(std::vector<std::string> Sources,
                            std::vector<BatchExpectation> Expected,
                            std::vector<CompilerConfig> Configs,
                            CoverageRegistry *Cov) const {
  // finishBatch's loop *is* the unbatched path; nothing to verify, so only
  // the lent ASTs are kept.
  auto T = std::make_unique<GenericBatchTicket>();
  T->Sources = std::move(Sources);
  for (const BatchExpectation &E : Expected)
    T->Parsed.push_back(E.Parsed);
  T->Configs = std::move(Configs);
  T->Cov = Cov;
  return T;
}

std::vector<std::vector<std::vector<BackendObservation>>>
CompilerBackend::finishBatch(std::unique_ptr<BatchTicket> Ticket) const {
  auto *T = dynamic_cast<GenericBatchTicket *>(Ticket.get());
  if (!T)
    return {}; // Ticket from a different backend's beginBatch: caller bug.
  std::vector<std::vector<std::vector<BackendObservation>>> Out(
      T->Sources.size());
  for (size_t I = 0; I < T->Sources.size(); ++I) {
    Out[I].reserve(T->Configs.size());
    for (const CompilerConfig &Config : T->Configs)
      Out[I].push_back(
          runSweep(T->Sources[I], Config, configInputs(Config), T->Cov));
  }
  return Out;
}

std::unique_ptr<ASTContext> spe::parseAndAnalyze(const std::string &Source) {
  auto Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, *Ctx, Diags))
    return nullptr;
  Sema Analysis(*Ctx, Diags);
  if (!Analysis.run())
    return nullptr;
  return Ctx;
}

BackendObservation InProcessBackend::run(const std::string &Source,
                                         const CompilerConfig &Config,
                                         CoverageRegistry *Cov) const {
  return runWithInput(Source, Config, std::string(), Cov);
}

BackendObservation
InProcessBackend::runWithInput(const std::string &Source,
                               const CompilerConfig &Config,
                               const std::string &Input,
                               CoverageRegistry *Cov) const {
  return runSweep(Source, Config, {Input}, Cov).front();
}

std::vector<BackendObservation>
InProcessBackend::runSweep(const std::string &Source,
                           const CompilerConfig &Config,
                           const std::vector<std::string> &Inputs,
                           CoverageRegistry *Cov) const {
  return runConfigs(Source, nullptr, {Config}, &Inputs, Cov).front();
}

std::vector<std::vector<std::vector<BackendObservation>>>
InProcessBackend::finishBatch(std::unique_ptr<BatchTicket> Ticket) const {
  auto *T = dynamic_cast<GenericBatchTicket *>(Ticket.get());
  if (!T)
    return {}; // Ticket from a different backend's beginBatch: caller bug.
  std::vector<std::vector<std::vector<BackendObservation>>> Out;
  Out.reserve(T->Sources.size());
  for (size_t I = 0; I < T->Sources.size(); ++I)
    Out.push_back(
        runConfigs(T->Sources[I], T->Parsed[I], T->Configs, nullptr, T->Cov));
  return Out;
}

BackendObservation InProcessBackend::runOn(ASTContext &Ctx,
                                           const CompilerConfig &Config,
                                           CoverageRegistry *Cov,
                                           const std::string &Input) const {
  const std::vector<std::string> Sweep{Input};
  return runConfigs(std::string(), &Ctx, {Config}, &Sweep, Cov)
      .front()
      .front();
}

namespace {

/// One VM run of runConfigs' memo: a module, a stdin, and its result.
struct MemoRun {
  const IRModule *Module;
  const std::string *Input;
  VMResult Result;
};

} // namespace

std::vector<std::vector<BackendObservation>>
InProcessBackend::runConfigs(const std::string &Source, ASTContext *Parsed,
                             const std::vector<CompilerConfig> &Configs,
                             const std::vector<std::string> *Sweep,
                             CoverageRegistry *Cov) const {
  std::unique_ptr<ASTContext> Fresh;
  if (!Parsed) {
    Fresh = parseAndAnalyze(Source);
    Parsed = Fresh.get();
  }
  std::vector<std::vector<BackendObservation>> Rows;
  Rows.reserve(Configs.size());
  if (!Parsed) {
    for (const CompilerConfig &Config : Configs)
      Rows.emplace_back((Sweep ? *Sweep : configInputs(Config)).size());
    return Rows; // Frontend refusal: all rejected.
  }
  LoweredUnit Unit(*Parsed, Cov);
  // The VM reads only the module, the step budget and the stdin, so each
  // (module, stdin) runs once however many configs end with that module.
  // A variant makes a few distinct runs, so the memo is a short list kept
  // as per-thread scratch and cleared here.
  ScratchLease<std::vector<MemoRun>> Runs;
  Runs->clear();
  for (const CompilerConfig &Config : Configs) {
    const std::vector<std::string> &Ins =
        Sweep ? *Sweep : configInputs(Config);
    BackendObservation Obs;
    CompileResult R;
    const IRModule *M =
        MiniCompiler(Config, nullptr, InjectBugs).compileInPlace(Unit, R);
    if (R.St == CompileResult::Status::Rejected) {
      Rows.emplace_back(Ins.size(), Obs);
      continue;
    }
    Obs.FiredBugs = std::move(R.FiredBugs);
    if (R.crashed()) {
      Obs.Compile = BackendObservation::CompileStatus::Crashed;
      Obs.CrashSignature = std::move(R.CrashSignature);
      Obs.CrashBugId = R.CrashBugId;
      Rows.emplace_back(Ins.size(), Obs);
      continue;
    }
    Obs.Compile = BackendObservation::CompileStatus::Ok;
    // The MiniCC cost model: a fired Performance bug inflates compile cost
    // past the paper's pathological threshold.
    Obs.CompileTimeAnomaly = R.CompileCost > 1'000'000;

    // One compile, one VM execution per sweep input: the compile-level
    // fields are shared across the row, the exec fields are per input.
    std::vector<BackendObservation> &Row = Rows.emplace_back(Ins.size(), Obs);
    for (size_t I = 0; I < Ins.size(); ++I) {
      auto It =
          std::find_if(Runs->begin(), Runs->end(), [&](const MemoRun &Run) {
            return Run.Module == M && *Run.Input == Ins[I];
          });
      if (It == Runs->end()) {
        VMOptions VO;
        VO.Input = Ins[I];
        Runs->push_back({M, &Ins[I], executeModule(*M, VO)});
        It = Runs->end() - 1;
      }
      const VMResult &V = It->Result;
      switch (V.Status) {
      case VMStatus::Ok:
        Row[I].Exec = BackendObservation::ExecStatus::Ok;
        break;
      case VMStatus::Trap:
        Row[I].Exec = BackendObservation::ExecStatus::Trap;
        break;
      case VMStatus::Timeout:
        Row[I].Exec = BackendObservation::ExecStatus::Timeout;
        break;
      }
      Row[I].ExitCode = V.ExitCode;
      Row[I].Output = V.Output;
    }
  }
  return Rows;
}

std::string spe::classifyDivergence(const BackendObservation &Obs,
                                    int64_t OracleExitCode,
                                    const std::string &OracleOutput) {
  switch (Obs.Exec) {
  case BackendObservation::ExecStatus::NotRun:
    return "";
  case BackendObservation::ExecStatus::Timeout:
    // The oracle terminated (only oracle-Ok variants reach comparison),
    // so a non-terminating compiled module is a genuine divergence.
    return "miscompilation (hang)";
  case BackendObservation::ExecStatus::Trap:
    return "miscompilation (trap)";
  case BackendObservation::ExecStatus::Ok:
    break;
  }
  int64_t Got = Obs.ExitCode;
  int64_t Want = OracleExitCode;
  if (Obs.ExitCodeLow8) {
    // A POSIX wait status keeps main's return value modulo 256; compare
    // what actually survived so large oracle exit codes cannot fabricate
    // divergences.
    Got &= 0xFF;
    Want &= 0xFF;
  }
  if (Got != Want)
    return "miscompilation (exit " + std::to_string(Got) +
           " != " + std::to_string(Want) + ")";
  if (Obs.Output != OracleOutput)
    return "miscompilation (output)";
  return "";
}
