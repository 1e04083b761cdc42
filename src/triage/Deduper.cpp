//===- triage/Deduper.cpp - signature clustering + triage pipeline -------===//

#include "triage/Deduper.h"

#include <algorithm>
#include <tuple>

using namespace spe;

BugSignature spe::signatureOf(const FoundBug &Bug) {
  return {Bug.P, Bug.Effect, normalizeSignature(Bug.Effect, Bug.Signature),
          Bug.Backend};
}

std::vector<TriagedBug>
spe::clusterBySignature(const std::vector<const FoundBug *> &Bugs) {
  // std::map keyed by BugSignature gives the sorted-by-signature output
  // order for free.
  std::map<BugSignature, TriagedBug> Clusters;
  for (const FoundBug *BugPtr : Bugs) {
    const FoundBug &Bug = *BugPtr;
    BugSignature Sig = signatureOf(Bug);
    auto [It, Inserted] = Clusters.try_emplace(Sig);
    TriagedBug &Cluster = It->second;
    ++Cluster.RawCount;
    if (std::find(Cluster.MemberIds.begin(), Cluster.MemberIds.end(),
                  Bug.BugId) == Cluster.MemberIds.end())
      Cluster.MemberIds.push_back(Bug.BugId);
    uint64_t Tokens = tokenCount(Bug.WitnessProgram);
    if (Inserted) {
      Cluster.Sig = std::move(Sig);
      Cluster.Representative = Bug;
      Cluster.TokensBefore = Cluster.TokensAfter = Tokens;
      continue;
    }
    // Smallest witness wins; deterministic tie-break on text then id.
    const FoundBug &Rep = Cluster.Representative;
    if (std::make_tuple(Tokens, std::cref(Bug.WitnessProgram), Bug.BugId) <
        std::make_tuple(Cluster.TokensBefore,
                        std::cref(Rep.WitnessProgram), Rep.BugId)) {
      Cluster.Representative = Bug;
      Cluster.TokensBefore = Cluster.TokensAfter = Tokens;
    }
  }

  std::vector<TriagedBug> Out;
  Out.reserve(Clusters.size());
  for (auto &[Sig, Cluster] : Clusters) {
    std::sort(Cluster.MemberIds.begin(), Cluster.MemberIds.end());
    Out.push_back(std::move(Cluster));
  }
  return Out;
}

std::vector<TriagedBug>
spe::clusterBySignature(const std::map<FindingKey, FoundBug> &Raw) {
  std::vector<const FoundBug *> Ptrs;
  Ptrs.reserve(Raw.size());
  for (const auto &[Key, Bug] : Raw)
    Ptrs.push_back(&Bug);
  return clusterBySignature(Ptrs);
}

void spe::triageCampaign(CampaignResult &Result,
                         const HarnessOptions &Opts) {
  std::vector<TriagedBug> Clusters;
  {
    SpanTimer T(Opts.Telemetry, nullptr, "triage_dedup");
    Clusters = clusterBySignature(Result.RawFindings);
  }

  ReductionStats Stats;
  Stats.RawBugs = Result.RawFindings.size();
  Stats.Clusters = Clusters.size();

  for (TriagedBug &Cluster : Clusters) {
    FoundBug &Rep = Cluster.Representative;

    // Oracle-outvoted clusters have no compiler to re-probe through -- the
    // divergence is between the roster's consensus and the reference
    // semantics itself -- so their witness is reported unreduced.
    if (Rep.Backend == "reference-oracle") {
      Cluster.TokensAfter = Cluster.TokensBefore;
      Stats.TokensBefore += Cluster.TokensBefore;
      Stats.TokensAfter += Cluster.TokensAfter;
      continue;
    }

    // Matrix findings re-probe through the backend they were attributed
    // to; classic findings (empty Backend) keep the campaign's primary.
    const CompilerBackend *ProbeBackend = Opts.Backend;
    if (!Rep.Backend.empty()) {
      if (!(Opts.Backend && Opts.Backend->identity() == Rep.Backend))
        for (const CompilerBackend *E : Opts.ExtraBackends)
          if (E && E->identity() == Rep.Backend) {
            ProbeBackend = E;
            break;
          }
    }
    SkeletonReducer Reducer(Opts.Cache, ProbeBackend);
    VariantMinimizer Minimizer(Opts.Cache, ProbeBackend);

    ReproSpec Spec;
    Spec.Config = {Rep.P, Rep.Version, Rep.OptLevel, Rep.Mode64, {}};
    Spec.Effect = Rep.Effect;
    Spec.SignatureKey = Cluster.Sig.Key;
    Spec.InjectBugs = Opts.InjectBugs;
    Spec.OracleMaxSteps = Opts.OracleMaxSteps;
    Spec.Input = Rep.Input;

    {
      SpanTimer T(Opts.Telemetry, nullptr, "triage_ddmin");
      ReductionOutcome R = Reducer.reduce(Rep.WitnessProgram, Spec);
      Rep.WitnessProgram = std::move(R.Reduced);
      Stats.StatementsDeleted += R.StatementsDeleted;
      Stats.DeclsDropped += R.DeclsDropped;
      Stats.ExprsSimplified += R.ExprsSimplified;
      Stats.ReductionProbes += R.Oracle.Probes;
      Stats.OracleRuns += R.Oracle.OracleRuns;
      Stats.OracleCacheHits += R.Oracle.OracleCacheHits;
    }
    {
      SpanTimer T(Opts.Telemetry, nullptr, "triage_minimize");
      MinimizeOutcome M = Minimizer.minimize(Rep.WitnessProgram, Spec);
      Rep.WitnessProgram = std::move(M.Minimized);
      Stats.RankMinimized += M.Improved ? 1 : 0;
      Stats.ReductionProbes += M.Oracle.Probes;
      Stats.OracleRuns += M.Oracle.OracleRuns;
      Stats.OracleCacheHits += M.Oracle.OracleCacheHits;
    }
    Cluster.TokensAfter = tokenCount(Rep.WitnessProgram);
    Stats.TokensBefore += Cluster.TokensBefore;
    Stats.TokensAfter += Cluster.TokensAfter;
  }

  Result.Triaged = std::move(Clusters);
  Result.Reduction = Stats;
}
