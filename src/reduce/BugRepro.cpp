//===- reduce/BugRepro.cpp - signature-preservation oracle ---------------===//

#include "reduce/BugRepro.h"

#include "interp/Interpreter.h"
#include "testing/OracleCache.h"
#include "triage/BugSignature.h"

#include <memory>

using namespace spe;

bool ReproOracle::reproduces(const std::string &Source) {
  ++Stats.Probes;
  auto It = Memo.find(Source);
  if (It != Memo.end()) {
    ++Stats.MemoHits;
    return It->second;
  }
  bool Result = evaluate(Source);
  Memo.emplace(Source, Result);
  return Result;
}

bool ReproOracle::evaluate(const std::string &Source) {
  // The candidate's own oracle verdict, replayed from the campaign-shared
  // cache when available (identical flow to the harness, so a variant the
  // campaign already interpreted is never re-run here).
  OracleCache::Entry Verdict;
  std::unique_ptr<ASTContext> Ctx;
  std::string Key = oracleCacheKey(Source, Spec.Input, Spec.OracleMaxSteps);
  OracleCache::Claim Miss;
  if (Cache && Cache->lookup(Key, Verdict, &Miss)) {
    ++Stats.OracleCacheHits;
  } else {
    Ctx = parseAndAnalyze(Source);
    Verdict.FrontendOk = Ctx != nullptr;
    if (Ctx) {
      InterpOptions IO;
      IO.MaxSteps = Spec.OracleMaxSteps;
      IO.Input = Spec.Input;
      ExecResult Ref = interpret(*Ctx, IO);
      ++Stats.OracleRuns;
      Verdict.Status = Ref.Status;
      Verdict.ExitCode = Ref.ExitCode;
      Verdict.Output = std::move(Ref.Output);
    }
    Miss.fill(Verdict);
  }
  if (Verdict.FrontendOk && Verdict.Status == ExecStatus::Timeout)
    ++Stats.TimeoutRuns;
  if (!Verdict.FrontendOk || Verdict.Status != ExecStatus::Ok)
    return false;

  // Compile (and, for wrong-code, execute) under the finding's
  // configuration through the same backend the campaign used. The
  // in-process fallback reuses the AST built for the oracle verdict
  // (building it now on a cache hit -- FrontendOk guarantees success)
  // instead of paying a second parse per probe.
  BackendObservation Obs;
  if (Backend) {
    Obs = Backend->runWithInput(Source, Spec.Config, Spec.Input,
                                /*Cov=*/nullptr);
  } else {
    if (!Ctx)
      Ctx = parseAndAnalyze(Source);
    if (!Ctx)
      return false;
    Obs = Fallback.runOn(*Ctx, Spec.Config, /*Cov=*/nullptr, Spec.Input);
  }
  if (Obs.Compile == BackendObservation::CompileStatus::Rejected)
    return false;

  switch (Spec.Effect) {
  case BugEffect::Crash:
    return Obs.Compile == BackendObservation::CompileStatus::Crashed &&
           normalizeSignature(BugEffect::Crash, Obs.CrashSignature) ==
               Spec.SignatureKey;
  case BugEffect::Performance:
    return Obs.Compile != BackendObservation::CompileStatus::Crashed &&
           Obs.CompileTimeAnomaly;
  case BugEffect::WrongCode: {
    if (Obs.Compile != BackendObservation::CompileStatus::Ok)
      return false;
    // Reconstruct the divergence kind the campaign would report for this
    // candidate -- the harness-shared classifyDivergence, so e.g. an
    // exit-code miscompilation cannot silently degrade into a mere output
    // diff, and a hang reproducer must still hang.
    std::string Raw =
        classifyDivergence(Obs, Verdict.ExitCode, Verdict.Output);
    if (Raw.empty())
      return false;
    return normalizeSignature(BugEffect::WrongCode, Raw) ==
           Spec.SignatureKey;
  }
  }
  return false;
}
