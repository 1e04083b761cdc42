//===- bench/bench_reduction_pipeline.cpp - triage pipeline metrics ------===//
//
// Measures the post-campaign triage pipeline on the two-persona trunk
// campaign: how many raw per-config findings collapse into how many
// signature clusters, how far the representatives' token counts shrink, and
// what the reduction costs in oracle work (and how much of that the shared
// OracleCache absorbs). Emits BENCH_reduction_pipeline.json.
//
// Build and run:  ./build/bench_reduction_pipeline
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"
#include "triage/Deduper.h"

#include <chrono>
#include <cstdio>

using namespace spe;

namespace {

CampaignResult runCampaign(const std::vector<std::string> &Seeds,
                           OracleCache *Cache) {
  CampaignResult Total;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    HarnessOptions Opts;
    Opts.Configs =
        HarnessOptions::crashMatrix(P, P == Persona::GccSim ? 70 : 40);
    Opts.VariantBudget = 150;
    Opts.Cache = Cache;
    Total.merge(DifferentialHarness(Opts).runCampaign(Seeds));
  }
  return Total;
}

double seconds(std::chrono::steady_clock::time_point Begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Begin)
      .count();
}

} // namespace

int main() {
  bench::header("Bug triage pipeline: dedup + reduction");

  // The campaign corpus: embedded figure seeds (richer bug reach) plus the
  // generated c-torture-style stream with uninitialized locals enabled.
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(3000, 32, CO);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());

  OracleCache Cache;
  auto T0 = std::chrono::steady_clock::now();
  CampaignResult Campaign = runCampaign(Seeds, &Cache);
  double CampaignSec = seconds(T0);

  std::printf("campaign: %llu raw findings (%zu ground-truth bugs), "
              "%.2fs\n",
              static_cast<unsigned long long>(Campaign.RawFindings.size()),
              Campaign.UniqueBugs.size(), CampaignSec);

  uint64_t CacheHitsBefore = Cache.hits();
  HarnessOptions Opts;
  Opts.Cache = &Cache;
  auto T1 = std::chrono::steady_clock::now();
  triageCampaign(Campaign, Opts);
  double TriageSec = seconds(T1);
  const ReductionStats &R = Campaign.Reduction;

  std::printf("triage:   %llu clusters (dedup ratio %.2f), %.2fs\n",
              static_cast<unsigned long long>(R.Clusters), R.dedupRatio(),
              TriageSec);
  std::printf("tokens:   %llu -> %llu (-%.1f%%)\n",
              static_cast<unsigned long long>(R.TokensBefore),
              static_cast<unsigned long long>(R.TokensAfter),
              100.0 * R.tokenReduction());
  std::printf("probes:   %llu signature probes, %llu oracle runs, "
              "%llu cache hits\n",
              static_cast<unsigned long long>(R.ReductionProbes),
              static_cast<unsigned long long>(R.OracleRuns),
              static_cast<unsigned long long>(R.OracleCacheHits));
  std::printf("passes:   %llu stmts deleted, %llu decls dropped, "
              "%llu exprs simplified, %llu rank-minimized\n",
              static_cast<unsigned long long>(R.StatementsDeleted),
              static_cast<unsigned long long>(R.DeclsDropped),
              static_cast<unsigned long long>(R.ExprsSimplified),
              static_cast<unsigned long long>(R.RankMinimized));

  std::printf("\n%-11s %-9s %-8s %-7s %s\n", "persona", "effect", "raw",
              "tokens", "signature");
  for (const TriagedBug &Cluster : Campaign.Triaged)
    std::printf("%-11s %-9s %-8llu %3llu->%-3llu %.48s\n",
                personaName(Cluster.Sig.P),
                bugEffectName(Cluster.Sig.Effect),
                static_cast<unsigned long long>(Cluster.RawCount),
                static_cast<unsigned long long>(Cluster.TokensBefore),
                static_cast<unsigned long long>(Cluster.TokensAfter),
                Cluster.Sig.Key.c_str());

  bench::BenchJson Json("reduction_pipeline");
  Json.put("seeds", static_cast<uint64_t>(Seeds.size()));
  Json.put("raw_findings", static_cast<uint64_t>(R.RawBugs));
  Json.put("ground_truth_bugs",
           static_cast<uint64_t>(Campaign.UniqueBugs.size()));
  Json.put("clusters", static_cast<uint64_t>(R.Clusters));
  Json.put("dedup_ratio", R.dedupRatio());
  Json.put("tokens_before", R.TokensBefore);
  Json.put("tokens_after", R.TokensAfter);
  Json.put("token_reduction", R.tokenReduction());
  Json.put("reduction_probes", R.ReductionProbes);
  Json.put("oracle_execs_reducing", R.OracleRuns);
  Json.put("oracle_cache_hits_reducing", R.OracleCacheHits);
  Json.put("campaign_cache_hits_at_triage", CacheHitsBefore);
  Json.put("stmts_deleted", R.StatementsDeleted);
  Json.put("decls_dropped", R.DeclsDropped);
  Json.put("exprs_simplified", R.ExprsSimplified);
  Json.put("rank_minimized", R.RankMinimized);
  Json.put("campaign_seconds", CampaignSec);
  Json.put("triage_seconds", TriageSec);
  Json.write();
  return 0;
}
