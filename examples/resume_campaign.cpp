//===- examples/resume_campaign.cpp - interrupt-then-resume walkthrough --===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
// Long-haul campaigns outlive single processes. This walkthrough runs a
// differential campaign with checkpointing on, "kills" it partway through
// (the SimulateCrashAfter test hook stands in for SIGKILL), resumes it
// from the on-disk snapshot in a fresh harness -- fresh oracle cache,
// fresh coverage registry, exactly what a new process would have -- and
// verifies the resumed result is bit-identical to an uninterrupted run.
// See DESIGN.md Section 11 for why this equivalence is exact rather than
// approximate.
//
//===----------------------------------------------------------------------===//

#include "compiler/Passes.h"
#include "persist/Checkpoint.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <cstdio>
#include <filesystem>

using namespace spe;

namespace {

HarnessOptions campaignOptions(unsigned Threads) {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  std::vector<CompilerConfig> Clang =
      HarnessOptions::crashMatrix(Persona::ClangSim, 36);
  Opts.Configs.insert(Opts.Configs.end(), Clang.begin(), Clang.end());
  Opts.VariantBudget = 60;
  Opts.Threads = Threads;
  Opts.CheckpointEveryN = 16;
  return Opts;
}

} // namespace

int main() {
  std::filesystem::create_directories("resume_campaign_tmp");
  const std::string CkPath = "resume_campaign_tmp/campaign.ck";
  const std::string StorePath = "resume_campaign_tmp/oracle.log";
  std::filesystem::remove(CkPath);
  std::filesystem::remove(StorePath);

  std::vector<std::string> Seeds(embeddedSeeds().begin(),
                                 embeddedSeeds().begin() + 4);
  const unsigned Threads = 2;

  // --- The uninterrupted reference -------------------------------------
  CoverageRegistry RefCov;
  registerPassCoverageCatalog(RefCov);
  OracleCache RefCache;
  HarnessOptions RefOpts = campaignOptions(Threads);
  RefOpts.Cov = &RefCov;
  RefOpts.Cache = &RefCache;
  CampaignResult Reference = DifferentialHarness(RefOpts).runCampaign(Seeds);
  std::printf("uninterrupted run : %llu variants, %zu unique bugs, "
              "%llu oracle execs\n",
              static_cast<unsigned long long>(Reference.VariantsEnumerated),
              Reference.UniqueBugs.size(),
              static_cast<unsigned long long>(Reference.OracleExecutions));

  // --- The doomed campaign ---------------------------------------------
  uint64_t KillAfter = Reference.VariantsEnumerated / 2;
  {
    CoverageRegistry Cov;
    registerPassCoverageCatalog(Cov);
    OracleCache Cache;
    HarnessOptions Opts = campaignOptions(Threads);
    Opts.Cov = &Cov;
    Opts.Cache = &Cache;
    Opts.CheckpointPath = CkPath;
    Opts.OracleStorePath = StorePath;
    Opts.SimulateCrashAfter = KillAfter; // SIGKILL stand-in.
    DifferentialHarness(Opts).runCampaign(Seeds);
    std::printf("campaign killed   : after %llu variants (snapshot + oracle "
                "log survive on disk)\n",
                static_cast<unsigned long long>(KillAfter));
  }

  // What did the crash leave behind?
  CampaignCheckpoint Snap;
  std::string Err;
  if (!CampaignCheckpoint::loadFrom(CkPath, Snap, Err)) {
    std::printf("!! unreadable snapshot: %s\n", Err.c_str());
    return 1;
  }
  std::printf("snapshot on disk  : next_seed=%llu, in-flight=%s, "
              "%zu chunk cursors, %llu oracle-log bytes\n",
              static_cast<unsigned long long>(Snap.NextSeed),
              Snap.InFlight ? "yes" : "no", Snap.Workers.size(),
              static_cast<unsigned long long>(Snap.StoreBytes));

  // --- The resumed process ----------------------------------------------
  // A fresh harness: new cache, new coverage registry, same options. The
  // resume validates the snapshot's fingerprints, truncates the oracle log
  // to the recorded consistent length, warms the cache from it, and seeks
  // every in-flight rank chunk's cursor back to its published rank.
  CoverageRegistry Cov;
  registerPassCoverageCatalog(Cov);
  OracleCache Cache;
  HarnessOptions Opts = campaignOptions(Threads);
  Opts.Cov = &Cov;
  Opts.Cache = &Cache;
  Opts.CheckpointPath = CkPath;
  Opts.OracleStorePath = StorePath;
  CampaignResult Resumed;
  if (!DifferentialHarness(Opts).resumeCampaign(Seeds, Resumed, Err)) {
    std::printf("!! resume rejected: %s\n", Err.c_str());
    return 1;
  }
  std::printf("resumed run       : %llu variants, %zu unique bugs, "
              "%llu oracle execs, %llu warm-cache hits\n",
              static_cast<unsigned long long>(Resumed.VariantsEnumerated),
              Resumed.UniqueBugs.size(),
              static_cast<unsigned long long>(Resumed.OracleExecutions),
              static_cast<unsigned long long>(Resumed.OracleCacheHits));

  bool Identical =
      Resumed == Reference && Cov.hitSet() == RefCov.hitSet();
  std::printf("resume equivalence: %s\n",
              Identical ? "bit-identical to the uninterrupted run"
                        : "DIVERGED -- BUG");
  return Identical ? 0 : 1;
}
