//===- distrib/Worker.cpp - fleet worker protocol loop --------------------===//

#include "distrib/Worker.h"

#include "distrib/FleetProtocol.h"
#include "persist/LineText.h"
#include "testing/CampaignStatus.h"

#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <vector>

using namespace spe;
using namespace spe::linetext;

namespace {

std::vector<std::string> splitTokens(const std::string &Line) {
  std::vector<std::string> Tokens;
  size_t P = 0;
  while (P < Line.size()) {
    size_t Space = Line.find(' ', P);
    if (Space == std::string::npos)
      Space = Line.size();
    if (Space > P)
      Tokens.push_back(Line.substr(P, Space - P));
    P = Space + 1;
  }
  return Tokens;
}

bool isDecimal(const std::string &T) {
  if (T.empty())
    return false;
  for (char C : T)
    if (C < '0' || C > '9')
      return false;
  return true;
}

/// The counter slice of \p R the heartbeat publishes (the harness's
/// countersOf, which is internal to Harness.cpp).
StatusCounters countersOf(const CampaignResult &R) {
  StatusCounters C;
  C.Enumerated = R.VariantsEnumerated;
  C.Tested = R.VariantsTested;
  C.Pruned = R.VariantsPruned;
  C.OracleExcluded = R.VariantsOracleExcluded;
  C.OracleExecs = R.OracleExecutions;
  C.CacheHits = R.OracleCacheHits;
  C.Timeouts = R.ExecutionTimeouts;
  C.MatrixCells = R.MatrixCellsCompared;
  C.RawFindings = R.RawFindings.size();
  C.UniqueBugs = R.UniqueBugs.size();
  return C;
}

} // namespace

int spe::runFleetWorker(std::istream &In, std::ostream &Out,
                        const FleetWorkerOptions &WO) {
  std::unique_ptr<CampaignStatusFeed> Feed;
  std::unique_ptr<DifferentialHarness> Harness;
  CampaignSpec Spec;
  std::map<uint64_t, std::string> Seeds;
  /// Everything this worker ran, for heartbeat counters only -- fragments
  /// go back to the coordinator per lease.
  CampaignResult Cumulative;
  uint64_t LeasesDone = 0;

  auto fatal = [&](const std::string &Msg) {
    Out << "error " << escapeToken(Msg) << '\n' << std::flush;
    return 2;
  };

  std::string Line;
  while (std::getline(In, Line)) {
    std::vector<std::string> T = splitTokens(Line);
    if (T.empty())
      continue;

    if (T[0] == "spec" && T.size() == 2) {
      std::string Doc, Err;
      if (!unescapeToken(T[1], Doc))
        return fatal("bad spec escaping");
      if (!parseSpec(Doc, Spec, Err))
        return fatal("bad spec: " + Err);
      HarnessOptions HO(Spec);
      if (!WO.StatusPath.empty()) {
        CampaignStatusFeed::Options SO;
        SO.Path = WO.StatusPath;
        SO.EveryMs = WO.StatusEveryMs;
        Feed = std::make_unique<CampaignStatusFeed>(SO);
        // A worker does not know the corpus size -- its "seeds" are the
        // leases it completes, counted as they stream in.
        Feed->beginCampaign(0, 0, StatusCounters());
        HO.Status = Feed.get();
      }
      Harness = std::make_unique<DifferentialHarness>(std::move(HO));
      Out << "ready " << fingerprintSpec(Spec) << '\n' << std::flush;
      continue;
    }

    if (T[0] == "seed" && T.size() == 3) {
      uint64_t Idx;
      std::string Src;
      if (!parseU64(T[1], Idx) || !unescapeToken(T[2], Src))
        return fatal("bad seed line");
      Seeds[Idx] = std::move(Src);
      continue;
    }

    if (T[0] == "lease" && T.size() == 5) {
      if (!Harness)
        return fatal("lease before spec");
      uint64_t Id, SeedIdx;
      if (!parseU64(T[1], Id) || !parseU64(T[2], SeedIdx) ||
          !isDecimal(T[3]) || !isDecimal(T[4]))
        return fatal("bad lease line");
      auto It = Seeds.find(SeedIdx);
      if (It == Seeds.end())
        return fatal("lease names unknown seed " + T[2]);
      BigInt Begin = BigInt::fromDecimalString(T[3]);
      BigInt End = BigInt::fromDecimalString(T[4]);
      if (Feed)
        Feed->beginSeed(Id, 1);
      CampaignResult Fragment;
      std::string Err;
      if (!Harness->runLease(It->second, Begin, End, Fragment, Err))
        return fatal("lease " + T[1] + " failed: " + Err);
      ++LeasesDone;
      Cumulative.merge(Fragment);
      if (Feed)
        Feed->commitSeed(Id, countersOf(Cumulative));
      Out << "done " << Id << ' ' << escapeToken(serializeFragment(Fragment))
          << '\n'
          << std::flush;
      continue;
    }

    if (T[0] == "exit")
      break;

    return fatal("unknown command: " + T[0]);
  }

  // EOF without `exit` means the coordinator went away; lease work already
  // streamed back is safe (the journal has it), so this is a clean orphan
  // shutdown either way.
  if (Feed)
    Feed->finishCampaign(countersOf(Cumulative));
  return 0;
}
