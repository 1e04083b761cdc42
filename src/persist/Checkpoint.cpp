//===- persist/Checkpoint.cpp - campaign snapshot format -----------------===//

#include "persist/Checkpoint.h"

#include "persist/LineText.h"

#include "compiler/Backend.h"
#include "persist/OracleStore.h"

#include <cstdio>
#include <sstream>

#include <unistd.h>

using namespace spe;
using namespace spe::linetext;

namespace {

const char Magic[] = "SPE-CHECKPOINT v3";

} // namespace

//===----------------------------------------------------------------------===//
// CampaignCheckpoint
//===----------------------------------------------------------------------===//

std::string CampaignCheckpoint::serialize() const {
  std::ostringstream Out;
  Out << Magic << '\n';
  Out << "options_fp " << OptionsFingerprint << '\n';
  Out << "seeds_fp " << SeedsFingerprint << '\n';
  Out << "store_bytes " << StoreBytes << '\n';
  Out << "complete " << (Complete ? 1 : 0) << '\n';
  Out << "next_seed " << NextSeed << '\n';
  Out << "merged\n";
  writeResult(Out, Merged);
  writeCov(Out, CovHits);
  Out << "inflight " << (InFlight ? 1 : 0) << '\n';
  if (InFlight) {
    Out << "constraints_fp " << ConstraintsFingerprint << '\n';
    Out << "header\n";
    writeResult(Out, SeedHeader);
    Out << "workers " << Workers.size() << '\n';
    for (const WorkerCheckpoint &W : Workers) {
      Out << "worker " << (W.Finished ? 1 : 0) << ' ' << W.Cursor.Position
          << ' ' << W.Cursor.End << ' ' << W.Cursor.Pruned << '\n';
      writeResult(Out, W.Partial);
      writeCov(Out, W.CovHits);
    }
  }
  return withChecksumTrailer(Out.str());
}

bool CampaignCheckpoint::deserialize(const std::string &Text,
                                     CampaignCheckpoint &Out,
                                     std::string &Err) {
  Out = CampaignCheckpoint();

  // The checksum guards the exact byte body, so verify it before any
  // structural parsing: truncation and single-byte corruption both die
  // here with a precise message.
  std::string Body;
  if (!stripChecksumTrailer(Text, Body, Err))
    return false;
  Reader R(Body);
  if (R.Lines.empty() || R.Lines[0].size() != 2 ||
      R.Lines[0][0] + " " + R.Lines[0][1] != Magic) {
    Err = "bad magic or unsupported format version";
    return false;
  }
  R.At = 1;

  const std::vector<std::string> *L;
  bool Ok =
      (L = R.line("options_fp", 2)) && R.u64((*L)[1], Out.OptionsFingerprint) &&
      (L = R.line("seeds_fp", 2)) && R.u64((*L)[1], Out.SeedsFingerprint) &&
      (L = R.line("store_bytes", 2)) && R.u64((*L)[1], Out.StoreBytes) &&
      (L = R.line("complete", 2)) && R.boolTok((*L)[1], Out.Complete) &&
      (L = R.line("next_seed", 2)) && R.u64((*L)[1], Out.NextSeed) &&
      R.line("merged", 1) && readResult(R, Out.Merged) &&
      readCov(R, Out.CovHits) && (L = R.line("inflight", 2)) &&
      R.boolTok((*L)[1], Out.InFlight);
  if (Ok && Out.InFlight) {
    uint64_t NWorkers = 0;
    Ok = (L = R.line("constraints_fp", 2)) &&
         R.u64((*L)[1], Out.ConstraintsFingerprint) &&
         R.line("header", 1) && readResult(R, Out.SeedHeader) &&
         (L = R.line("workers", 2)) && R.u64((*L)[1], NWorkers);
    for (uint64_t I = 0; Ok && I < NWorkers; ++I) {
      WorkerCheckpoint W;
      const auto *WL = R.line("worker", 5);
      Ok = WL && R.boolTok((*WL)[1], W.Finished);
      if (Ok) {
        W.Cursor.Position = (*WL)[2];
        W.Cursor.End = (*WL)[3];
        W.Cursor.Pruned = (*WL)[4];
        Ok = readResult(R, W.Partial) && readCov(R, W.CovHits);
      }
      if (Ok)
        Out.Workers.push_back(std::move(W));
    }
  }
  if (Ok && R.At != R.Lines.size())
    Ok = R.fail("trailing data after snapshot body");
  if (!Ok) {
    Err = R.Err.empty() ? "malformed snapshot" : R.Err;
    return false;
  }
  return true;
}

bool spe::atomicWriteFile(const std::string &Path, const std::string &Text,
                          std::string *Err) {
  std::string Tmp = Path + ".tmp";
  std::FILE *F = std::fopen(Tmp.c_str(), "wb");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Tmp;
    return false;
  }
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = std::fflush(F) == 0 && Ok;
  // fsync before the rename: without it, power loss can leave the rename
  // durable but the contents not, replacing a good snapshot with an
  // empty/partial one. (Losing the rename itself is harmless -- the
  // previous snapshot survives.)
  Ok = Ok && ::fsync(fileno(F)) == 0;
  std::fclose(F);
  if (!Ok || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    if (Err)
      *Err = "write/rename failed for " + Path;
    std::remove(Tmp.c_str());
    return false;
  }
  // And the directory entry: a rename that is not durable yet would
  // resurrect the previous snapshot after power loss -- harmless -- but
  // pairing this with OracleStore's directory sync keeps the snapshot
  // and the log it references from surviving independently.
  fsyncParentDir(Path);
  return true;
}

bool CampaignCheckpoint::saveTo(const std::string &Path,
                                std::string *Err) const {
  return atomicWriteFile(Path, serialize(), Err);
}

bool CampaignCheckpoint::loadFrom(const std::string &Path,
                                  CampaignCheckpoint &Out,
                                  std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F) {
    Err = "cannot open " + Path;
    return false;
  }
  std::string Text;
  char Buf[1 << 16];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Text.append(Buf, Got);
  std::fclose(F);
  return deserialize(Text, Out, Err);
}

//===----------------------------------------------------------------------===//
// Fingerprints
//===----------------------------------------------------------------------===//

namespace {

/// Folds each result-affecting option of the walk into the fingerprint.
struct FoldOption {
  Fnv &F;

  template <class T>
  void operator()(const char *, OptionKind Kind, const T &Field) {
    if (Kind == OptionKind::ResultNeutral)
      return;
    if constexpr (std::is_same_v<T, std::vector<CompilerConfig>>) {
      F.u64(Field.size());
      for (const CompilerConfig &C : Field)
        walkCompilerConfig(C, *this);
    } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
      F.u64(Field.size());
      for (const std::string &S : Field)
        F.str(S);
    } else {
      F.u64(static_cast<uint64_t>(Field));
    }
  }
};

} // namespace

uint64_t spe::fingerprintOptions(const HarnessOptions &Opts) {
  Fnv F;
  walkCampaignSpec(Opts, FoldOption{F});
  // Presence bits only: cache contents live in the oracle store, and the
  // counters a resume reproduces depend on whether memoization ran at all;
  // likewise coverage is only recorded into snapshots when a registry is
  // attached, so resuming with the opposite setting would silently skew
  // the final hit set.
  F.u64(Opts.Cache != nullptr ? 1 : 0);
  F.u64(Opts.OracleStorePath.empty() ? 0 : 1);
  F.u64(Opts.Cov != nullptr ? 1 : 0);
  // Backend identity: command line + --version banner for external
  // compilers, "minicc" for the in-process driver. A checkpoint can never
  // be resumed against a different compiler.
  F.str(Opts.Backend ? Opts.Backend->identity()
                     : InProcessBackend(Opts.InjectBugs).identity());
  // The rest of the matrix roster, in slot order: adding, dropping, or
  // reordering differential backends reshapes every vote, so it severs
  // resume like a compiler change does. Classic campaigns fold a bare 0.
  F.u64(Opts.ExtraBackends.size());
  for (const CompilerBackend *E : Opts.ExtraBackends)
    F.str(E ? E->identity() : std::string());
  return F.H;
}

uint64_t spe::fingerprintSeeds(const std::vector<std::string> &Seeds) {
  Fnv F;
  F.u64(Seeds.size());
  for (const std::string &S : Seeds)
    F.str(S);
  return F.H;
}

uint64_t
spe::fingerprintConstraints(const std::vector<ValidityConstraints> &Tables) {
  Fnv F;
  F.u64(Tables.size());
  for (const ValidityConstraints &C : Tables) {
    F.u64(C.Forbidden.size());
    for (const auto &Row : C.Forbidden) {
      F.u64(Row.size());
      for (uint8_t B : Row)
        F.u64(B);
    }
  }
  return F.H;
}
