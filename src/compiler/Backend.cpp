//===- compiler/Backend.cpp - pluggable compiler backends ----------------===//

#include "compiler/Backend.h"

#include "compiler/Compiler.h"
#include "lang/Parser.h"
#include "sema/Sema.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace spe;

namespace {

/// The base batch ticket: nothing is in flight, the inputs are merely
/// parked until finishBatch runs the ordinary per-variant loop.
struct GenericBatchTicket final : BatchTicket {
  std::vector<std::string> Sources;
  std::vector<CompilerConfig> Configs;
  CoverageRegistry *Cov = nullptr;
};

} // namespace

std::vector<std::string> spe::configInputs(const CompilerConfig &Config) {
  if (Config.ExecSweep.empty())
    return {std::string()};
  return Config.ExecSweep;
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
  (void)Expected; // The loop below *is* the unbatched path; nothing to verify.
  auto T = std::make_unique<GenericBatchTicket>();
  T->Sources = std::move(Sources);
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
  return runConfigs(Source, {Config}, {Inputs}, Cov).front();
}

std::vector<std::vector<std::vector<BackendObservation>>>
InProcessBackend::finishBatch(std::unique_ptr<BatchTicket> Ticket) const {
  auto *T = dynamic_cast<GenericBatchTicket *>(Ticket.get());
  if (!T)
    return {}; // Ticket from a different backend's beginBatch: caller bug.
  std::vector<std::vector<std::string>> Inputs;
  for (const CompilerConfig &Config : T->Configs)
    Inputs.push_back(configInputs(Config));
  std::vector<std::vector<std::vector<BackendObservation>>> Out;
  Out.reserve(T->Sources.size());
  for (const std::string &Source : T->Sources)
    Out.push_back(runConfigs(Source, T->Configs, Inputs, T->Cov));
  return Out;
}

BackendObservation InProcessBackend::runOn(ASTContext &Ctx,
                                           const CompilerConfig &Config,
                                           CoverageRegistry *Cov,
                                           const std::string &Input) const {
  LoweredUnit Unit(Ctx, Cov);
  return observe(Unit, Config, {Input}).front();
}

std::vector<std::vector<BackendObservation>>
InProcessBackend::runConfigs(const std::string &Source,
                             const std::vector<CompilerConfig> &Configs,
                             const std::vector<std::vector<std::string>> &Inputs,
                             CoverageRegistry *Cov) const {
  // One parse and one lowering; each config runs only its own half of the
  // compile and its executions.
  std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Source);
  std::optional<LoweredUnit> Unit;
  if (Ctx)
    Unit.emplace(*Ctx, Cov);
  std::vector<std::vector<BackendObservation>> Rows;
  Rows.reserve(Configs.size());
  for (size_t C = 0; C < Configs.size(); ++C)
    Rows.push_back(Unit ? observe(*Unit, Configs[C], Inputs[C])
                        : std::vector<BackendObservation>(
                              Inputs[C].size())); // All rejected.
  return Rows;
}

std::vector<BackendObservation>
InProcessBackend::observe(LoweredUnit &Unit, const CompilerConfig &Config,
                          const std::vector<std::string> &Inputs) const {
  BackendObservation Obs;
  CompileResult R = MiniCompiler(Config, nullptr, InjectBugs).compile(Unit);
  if (R.St == CompileResult::Status::Rejected)
    return std::vector<BackendObservation>(Inputs.size(), Obs);
  Obs.FiredBugs = std::move(R.FiredBugs);
  if (R.crashed()) {
    Obs.Compile = BackendObservation::CompileStatus::Crashed;
    Obs.CrashSignature = std::move(R.CrashSignature);
    Obs.CrashBugId = R.CrashBugId;
    return std::vector<BackendObservation>(Inputs.size(), Obs);
  }
  Obs.Compile = BackendObservation::CompileStatus::Ok;
  // The MiniCC cost model: a fired Performance bug inflates compile cost
  // past the paper's pathological threshold.
  Obs.CompileTimeAnomaly = R.CompileCost > 1'000'000;

  // One compile, one VM execution per sweep input: the compile-level
  // fields are shared across the row, the exec fields are per input.
  std::vector<BackendObservation> Row(Inputs.size(), Obs);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    VMOptions VO;
    VO.Input = Inputs[I];
    VMResult V = executeModule(R.Module, VO);
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
    Row[I].Output = std::move(V.Output);
  }
  return Row;
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
