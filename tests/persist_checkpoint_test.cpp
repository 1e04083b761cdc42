//===- tests/persist_checkpoint_test.cpp - snapshot format + cursors -----===//
//
// The persistence layer's local guarantees, independent of whole-campaign
// runs: (a) cursor saveState/restoreState round-trips across every stratum
// of the rank space (types, levels, partitions, units) in exact and
// paper-faithful mode, pruned or not; (b) CampaignCheckpoint text
// serialization is a lossless involution, written atomically; (c) corrupt,
// truncated, and version-skewed snapshots are rejected loudly; (d) the
// append-only OracleStore replays exactly the prefix a checkpoint recorded
// and tolerates torn tails.
//
//===----------------------------------------------------------------------===//

#include "distrib/FleetProtocol.h"
#include "lang/Parser.h"
#include "persist/Checkpoint.h"
#include "persist/OracleStore.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "support/Telemetry.h"
#include "testing/CampaignStatus.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

using namespace spe;

namespace {

struct Pipeline {
  std::unique_ptr<ASTContext> Ctx;
  std::unique_ptr<Sema> Analysis;
  std::vector<SkeletonUnit> Units;
};

Pipeline analyze(const std::string &Seed) {
  Pipeline P;
  P.Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  EXPECT_TRUE(Parser::parse(Seed, *P.Ctx, Diags));
  P.Analysis = std::make_unique<Sema>(*P.Ctx, Diags);
  EXPECT_TRUE(P.Analysis->run());
  SkeletonExtractor Extractor(*P.Ctx, *P.Analysis, {});
  P.Units = Extractor.extract();
  return P;
}

/// A deterministic, fully populated snapshot exercising every field,
/// including strings that stress the token escaping.
CampaignCheckpoint sampleCheckpoint() {
  CampaignCheckpoint CP;
  CP.OptionsFingerprint = 0x1122334455667788ull;
  CP.SeedsFingerprint = 0x99aabbccddeeff00ull;
  CP.StoreBytes = 4242;
  CP.Complete = false;
  CP.NextSeed = 3;

  FoundBug Crash;
  Crash.BugId = 7;
  Crash.P = Persona::GccSim;
  Crash.Effect = BugEffect::Crash;
  Crash.Signature = "ICE in gimplify, at gimplify.c:1234";
  Crash.Version = 48;
  Crash.OptLevel = 3;
  Crash.Mode64 = false;
  Crash.WitnessProgram = "int main(void)\n{\n  int a = 3;\n  return a;\n}\n";
  FoundBug Wrong;
  Wrong.BugId = 31;
  Wrong.P = Persona::ClangSim;
  Wrong.Effect = BugEffect::WrongCode;
  Wrong.Signature = "miscompilation (exit 4 != 0)";
  Wrong.Version = 36;
  Wrong.OptLevel = 2;
  Wrong.WitnessProgram = "";

  CP.Merged.UniqueBugs.emplace(Crash.BugId, Crash);
  CP.Merged.UniqueBugs.emplace(Wrong.BugId, Wrong);
  CP.Merged.RawFindings.emplace(
      FindingKey{Crash.BugId, Crash.P, Crash.Version, Crash.OptLevel,
                 Crash.Mode64, 0, 0, {}},
      Crash);
  // A signature-only finding (BugId 0, external backend): its key carries
  // the normalized signature, including characters the token escaper must
  // round-trip.
  FoundBug SigOnly;
  SigOnly.BugId = 0;
  SigOnly.P = Persona::GccSim;
  SigOnly.Effect = BugEffect::Crash;
  SigOnly.Signature = "internal compiler error: in foo_bar, at foo.c:12";
  SigOnly.Version = 140;
  SigOnly.OptLevel = 3;
  SigOnly.WitnessProgram = "int main(void)\n{\n  return 1;\n}\n";
  CP.Merged.RawFindings.emplace(
      FindingKey{0, SigOnly.P, SigOnly.Version, SigOnly.OptLevel,
                 SigOnly.Mode64, 0, 0, SigOnly.Signature},
      SigOnly);
  CP.Merged.SeedsProcessed = 3;
  CP.Merged.VariantsEnumerated = 120;
  CP.Merged.VariantsOracleExcluded = 11;
  CP.Merged.VariantsTested = 100;
  CP.Merged.VariantsPruned = 9;
  CP.Merged.OracleExecutions = 80;
  CP.Merged.OracleCacheHits = 31;
  CP.Merged.CrashObservations = 5;
  CP.Merged.WrongCodeObservations = 2;
  CP.Merged.ExecutionTimeouts = 1;
  CP.CovHits = {"constfold.binary", "dce.removed\tstore", "gvn.hit point"};

  CP.InFlight = true;
  CP.ConstraintsFingerprint = 0xdeadbeefcafef00dull;
  CP.SeedHeader.SeedsProcessed = 1;

  WorkerCheckpoint W0;
  W0.Finished = true;
  W0.Cursor = {"15", "15", "4"};
  W0.Partial.VariantsEnumerated = 11;
  W0.Partial.VariantsPruned = 4;
  W0.CovHits = {"licm.hoisted"};
  WorkerCheckpoint W1;
  W1.Finished = false;
  W1.Cursor = {"23", "30", "0"};
  W1.Partial.VariantsEnumerated = 8;
  W1.Partial.UniqueBugs.emplace(Wrong.BugId, Wrong);
  CP.Workers = {W0, W1};
  return CP;
}

/// FNV-1a twin of the serializer's checksum, for forging valid trailers in
/// the version-skew test.
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string tempPath(const std::string &Name) {
  std::filesystem::create_directories("persist_test_tmp");
  return "persist_test_tmp/" + Name;
}

} // namespace

//===----------------------------------------------------------------------===//
// Cursor save/restore round-trips
//===----------------------------------------------------------------------===//

TEST(CursorStateTest, ProgramCursorRestoreContinuesTheExactSequence) {
  // For every embedded seed: walk the space sequentially, and at every
  // rank k check that a fresh cursor restored to {k, end, 0} produces the
  // identical remaining sequence. This sweeps all strata -- unit carries,
  // type odometer steps, level-map changes, partition successors.
  for (const std::string &Seed : embeddedSeeds()) {
    Pipeline P = analyze(Seed);
    ProgramCursor Reference(P.Units, SpeMode::Exact);
    uint64_t Limit = 40;
    if (Reference.size() < BigInt(Limit))
      Limit = Reference.size().toUint64();
    Reference.setEnd(BigInt(Limit));
    std::vector<ProgramAssignment> Sequential;
    while (const ProgramAssignment *PA = Reference.next())
      Sequential.push_back(*PA);

    for (uint64_t K = 0; K <= Sequential.size(); ++K) {
      ProgramCursor Restored(P.Units, SpeMode::Exact);
      CursorState S{BigInt(K).toString(), BigInt(Limit).toString(), "0"};
      ASSERT_TRUE(Restored.restoreState(S)) << "rank " << K;
      EXPECT_EQ(Restored.position(), BigInt(K));
      for (uint64_t J = K; J < Sequential.size(); ++J) {
        const ProgramAssignment *PA = Restored.next();
        ASSERT_NE(PA, nullptr) << "rank " << K << " step " << J;
        EXPECT_EQ(*PA, Sequential[J]) << "rank " << K << " step " << J;
      }
      EXPECT_EQ(Restored.next(), nullptr);
    }
  }
}

TEST(CursorStateTest, SaveMidStreamRoundTripsBothModes) {
  // save/restore at a live mid-stream position must agree with continuing
  // the original cursor, in exact and paper-faithful mode.
  for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
    Pipeline P = analyze(embeddedSeeds()[0]);
    ProgramCursor Original(P.Units, Mode);
    uint64_t Limit = 24;
    if (Original.size() < BigInt(Limit))
      Limit = Original.size().toUint64();
    Original.setEnd(BigInt(Limit));
    for (int I = 0; I < 7; ++I)
      ASSERT_NE(Original.next(), nullptr);

    CursorState S = Original.saveState();
    ProgramCursor Restored(P.Units, Mode);
    ASSERT_TRUE(Restored.restoreState(S));
    EXPECT_EQ(Restored.saveState(), S);

    for (;;) {
      const ProgramAssignment *A = Original.next();
      const ProgramAssignment *B = Restored.next();
      ASSERT_EQ(A == nullptr, B == nullptr);
      if (!A)
        break;
      EXPECT_EQ(*A, *B);
    }
  }
}

TEST(CursorStateTest, PrunedCounterSurvivesTheRoundTrip) {
  // Under validity constraints the pruned counter is part of the state:
  // a restored cursor must end with the same total as the uninterrupted
  // one. Pick the first embedded seed with non-empty constraints.
  for (const std::string &Seed : embeddedSeeds()) {
    Pipeline P = analyze(Seed);
    std::vector<ValidityConstraints> Validity =
        analyzeValidity(*P.Ctx, *P.Analysis, P.Units);
    bool AnyFacts = false;
    for (const ValidityConstraints &C : Validity)
      AnyFacts = AnyFacts || !C.empty();
    if (!AnyFacts)
      continue;
    std::vector<const ValidityConstraints *> Ptrs = constraintPtrs(Validity);

    ProgramCursor Full(P.Units, SpeMode::Exact);
    Full.setConstraints(Ptrs);
    uint64_t Limit = 60;
    if (Full.size() < BigInt(Limit))
      Limit = Full.size().toUint64();
    Full.setEnd(BigInt(Limit));
    unsigned Steps = 0;
    while (Full.next())
      ++Steps;
    ASSERT_GT(Steps, 0u);

    // Re-walk, snapshotting after every produced variant; each restore
    // must reproduce the same final pruned total and tail length.
    ProgramCursor Walk(P.Units, SpeMode::Exact);
    Walk.setConstraints(Ptrs);
    Walk.setEnd(BigInt(Limit));
    while (Walk.next()) {
      CursorState S = Walk.saveState();
      ProgramCursor Restored(P.Units, SpeMode::Exact);
      Restored.setConstraints(Ptrs);
      ASSERT_TRUE(Restored.restoreState(S));
      while (Restored.next())
        ;
      EXPECT_EQ(Restored.pruned(), Full.pruned());
    }
    return; // One constrained seed suffices.
  }
  GTEST_SKIP() << "no embedded seed produced validity facts";
}

TEST(CursorStateTest, RestoreRejectsMalformedAndOutOfRangeStates) {
  Pipeline P = analyze(embeddedSeeds()[0]);
  ProgramCursor Cursor(P.Units, SpeMode::Exact);
  std::string Size = Cursor.size().toString();
  std::string Beyond = (Cursor.size() + BigInt(1)).toString();
  EXPECT_FALSE(Cursor.restoreState({"", "0", "0"}));
  EXPECT_FALSE(Cursor.restoreState({"1x", "2", "0"}));
  EXPECT_FALSE(Cursor.restoreState({"-1", "2", "0"}));
  EXPECT_FALSE(Cursor.restoreState({"3", "2", "0"})); // Pos > End.
  EXPECT_FALSE(Cursor.restoreState({"0", Beyond, "0"})); // End > size.
  EXPECT_TRUE(Cursor.restoreState({"0", Size, "0"}));
}

//===----------------------------------------------------------------------===//
// Snapshot serialization
//===----------------------------------------------------------------------===//

TEST(CheckpointFormatTest, SerializeDeserializeIsLossless) {
  CampaignCheckpoint CP = sampleCheckpoint();
  std::string Text = CP.serialize();
  CampaignCheckpoint Back;
  std::string Err;
  ASSERT_TRUE(CampaignCheckpoint::deserialize(Text, Back, Err)) << Err;
  EXPECT_TRUE(Back == CP);
  // And the round-trip is a fixpoint: re-serializing yields the same bytes.
  EXPECT_EQ(Back.serialize(), Text);
}

TEST(CheckpointFormatTest, EmptySnapshotRoundTrips) {
  CampaignCheckpoint CP;
  CampaignCheckpoint Back;
  std::string Err;
  ASSERT_TRUE(CampaignCheckpoint::deserialize(CP.serialize(), Back, Err))
      << Err;
  EXPECT_TRUE(Back == CP);
}

TEST(CheckpointFormatTest, SaveToLoadFromRoundTripsThroughDisk) {
  CampaignCheckpoint CP = sampleCheckpoint();
  std::string Path = tempPath("roundtrip.ck");
  std::string Err;
  ASSERT_TRUE(CP.saveTo(Path, &Err)) << Err;
  // The atomic protocol must not leave its temp file behind.
  EXPECT_FALSE(std::filesystem::exists(Path + ".tmp"));
  CampaignCheckpoint Back;
  ASSERT_TRUE(CampaignCheckpoint::loadFrom(Path, Back, Err)) << Err;
  EXPECT_TRUE(Back == CP);
}

TEST(CheckpointFormatTest, EveryTruncationIsRejected) {
  std::string Text = sampleCheckpoint().serialize();
  // Sweep a prefix ladder (every 7 bytes keeps the test fast while hitting
  // line boundaries, mid-token cuts, and mid-escape cuts).
  for (size_t Len = 0; Len < Text.size(); Len += 7) {
    CampaignCheckpoint Out;
    std::string Err;
    EXPECT_FALSE(
        CampaignCheckpoint::deserialize(Text.substr(0, Len), Out, Err))
        << "accepted a " << Len << "-byte truncation";
  }
}

TEST(CheckpointFormatTest, SingleByteCorruptionIsRejected) {
  std::string Text = sampleCheckpoint().serialize();
  // Flip one byte at a spread of offsets; the whole-body checksum must
  // catch every one of them.
  for (size_t At = 0; At < Text.size(); At += 11) {
    std::string Bad = Text;
    Bad[At] = Bad[At] == 'x' ? 'y' : 'x';
    if (Bad == Text)
      continue;
    CampaignCheckpoint Out;
    std::string Err;
    EXPECT_FALSE(CampaignCheckpoint::deserialize(Bad, Out, Err))
        << "accepted corruption at offset " << At;
  }
}

TEST(CheckpointFormatTest, VersionSkewIsRejectedEvenWithValidChecksum) {
  // A file from a hypothetical v4 writer: structurally intact, checksum
  // freshly valid -- the version gate alone must reject it.
  std::string Text = sampleCheckpoint().serialize();
  size_t Tail = Text.rfind("checksum ");
  ASSERT_NE(Tail, std::string::npos);
  std::string Body = Text.substr(0, Tail);
  size_t V = Body.find("v3");
  ASSERT_NE(V, std::string::npos);
  Body.replace(V, 2, "v4");
  std::string Forged = Body + "checksum " + std::to_string(fnv1a(Body)) + "\n";
  CampaignCheckpoint Out;
  std::string Err;
  EXPECT_FALSE(CampaignCheckpoint::deserialize(Forged, Out, Err));
  EXPECT_NE(Err.find("version"), std::string::npos) << Err;
}

TEST(CheckpointFormatTest, TrailingGarbageIsRejected) {
  std::string Text = sampleCheckpoint().serialize();
  CampaignCheckpoint Out;
  std::string Err;
  EXPECT_FALSE(CampaignCheckpoint::deserialize(Text + "extra\n", Out, Err));
}

//===----------------------------------------------------------------------===//
// Options fingerprint: campaign-shaping flags and backend identity
//===----------------------------------------------------------------------===//

namespace {

/// Minimal backend stub with a chosen identity, for fingerprint tests.
struct NamedBackend : CompilerBackend {
  std::string Name;
  explicit NamedBackend(std::string Name) : Name(std::move(Name)) {}
  std::string identity() const override { return Name; }
  bool hasGroundTruth() const override { return false; }
  BackendObservation run(const std::string &, const CompilerConfig &,
                         CoverageRegistry *) const override {
    return {};
  }
};

/// One option a campaign can be skewed by, and whether the checkpoint
/// fingerprint must notice. Rows for CampaignSpec fields carry
/// walkCampaignSpec's names (a Configs entry's field as "Configs.<name>");
/// the rest are the objects, paths and hooks HarnessOptions attaches.
struct OptionSkew {
  const char *Name;
  bool ResultAffecting;
  void (*Apply)(HarnessOptions &);
};

const OptionSkew Skews[] = {
    {"Mode", true, [](HarnessOptions &O) { O.Mode = SpeMode::PaperFaithful; }},
    {"Extract.Gran", true,
     [](HarnessOptions &O) { O.Extract.Gran = Granularity::InterProcedural; }},
    {"Extract.Model", true,
     [](HarnessOptions &O) { O.Extract.Model = ScopeModel::Lexical; }},
    {"VariantThreshold", true,
     [](HarnessOptions &O) { O.VariantThreshold = 500; }},
    {"VariantBudget", true, [](HarnessOptions &O) { O.VariantBudget = 20; }},
    {"Threads", false, [](HarnessOptions &O) { O.Threads = 2; }},
    {"BatchSize", false, [](HarnessOptions &O) { O.BatchSize = 8; }},
    {"InjectBugs", true, [](HarnessOptions &O) { O.InjectBugs = false; }},
    {"PruneInvalid", true, [](HarnessOptions &O) { O.PruneInvalid = false; }},
    {"Triage", true, [](HarnessOptions &O) { O.Triage = true; }},
    {"OracleMaxSteps", true,
     [](HarnessOptions &O) { O.OracleMaxSteps = 100'000; }},
    {"Configs", true, [](HarnessOptions &O) { O.Configs.pop_back(); }},
    {"Configs.P", true,
     [](HarnessOptions &O) { O.Configs[0].P = Persona::ClangSim; }},
    {"Configs.Version", true,
     [](HarnessOptions &O) { O.Configs[0].Version = 44; }},
    {"Configs.OptLevel", true,
     [](HarnessOptions &O) { O.Configs[0].OptLevel = 2; }},
    {"Configs.Mode64", true,
     [](HarnessOptions &O) { O.Configs[0].Mode64 = !O.Configs[0].Mode64; }},
    {"Configs.ExecSweep", true,
     [](HarnessOptions &O) { O.Configs[0].ExecSweep = {"", "7 11"}; }},
    {"Cache", true,
     [](HarnessOptions &O) {
       static OracleCache Cache;
       O.Cache = &Cache;
     }},
    {"OracleStorePath", true,
     [](HarnessOptions &O) { O.OracleStorePath = tempPath("skew.store"); }},
    {"Cov", true,
     [](HarnessOptions &O) {
       static CoverageRegistry Cov;
       O.Cov = &Cov;
     }},
    {"Backend", true,
     [](HarnessOptions &O) {
       static NamedBackend Gcc("external: gcc -w [-O] | gcc (Distro) 14.2.0");
       O.Backend = &Gcc;
     }},
    {"ExtraBackends", true,
     [](HarnessOptions &O) {
       static NamedBackend Clang("external: clang -w [-O] | clang 19.1.0");
       O.ExtraBackends = {&Clang};
     }},
    {"CheckpointEveryN", false,
     [](HarnessOptions &O) { O.CheckpointEveryN = 7; }},
    {"Telemetry", false,
     [](HarnessOptions &O) {
       static TelemetrySink Sink;
       O.Telemetry = &Sink;
     }},
    {"Status", false,
     [](HarnessOptions &O) {
       static CampaignStatusFeed Feed({tempPath("skew.status.json"), 500});
       O.Status = &Feed;
     }},
};

/// The campaign every row skews.
HarnessOptions skewBase() {
  HarnessOptions O;
  O.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 70);
  return O;
}

/// Collects walkCampaignSpec's field names, a Configs entry's as
/// "Configs.<name>".
struct CollectNames {
  std::set<std::string> &Names;
  std::string Prefix;

  template <class T>
  void operator()(const char *Name, OptionKind, const T &) {
    Names.insert(Prefix + Name);
    if constexpr (std::is_same_v<T, std::vector<CompilerConfig>>) {
      const CompilerConfig Entry;
      walkCompilerConfig(Entry, CollectNames{Names, Prefix + Name + "."});
    }
  }
};

std::set<std::string> walkNames() {
  std::set<std::string> Names;
  const HarnessOptions Base = skewBase();
  walkCampaignSpec(Base, CollectNames{Names, ""});
  return Names;
}

} // namespace

TEST(OptionsFingerprintTest, EveryWalkFieldHasARow) {
  std::set<std::string> Rows;
  for (const OptionSkew &Skew : Skews)
    EXPECT_TRUE(Rows.insert(Skew.Name).second) << "duplicate " << Skew.Name;
  for (const std::string &Name : walkNames())
    EXPECT_EQ(Rows.count(Name), 1u) << Name << " has no row";
}

TEST(OptionsFingerprintTest, ChangesIffTheOptionIsResultAffecting) {
  // Regression rows: Triage and the oracle step budget were once missing
  // from the fingerprint, and ExecSweep was folded in by hand.
  const HarnessOptions A = skewBase();
  for (const OptionSkew &Skew : Skews) {
    HarnessOptions B = A;
    Skew.Apply(B);
    EXPECT_EQ(fingerprintOptions(A) != fingerprintOptions(B),
              Skew.ResultAffecting)
        << Skew.Name;
  }
}

TEST(OptionsFingerprintTest, FleetDocumentRoundTripsEveryWalkField) {
  // Walk fields reach the wire and come back; the attached objects, paths
  // and hooks never reach it.
  const std::set<std::string> OnWire = walkNames();
  const HarnessOptions A = skewBase();
  for (const OptionSkew &Skew : Skews) {
    HarnessOptions B = A;
    Skew.Apply(B);
    const std::string Doc = serializeSpec(B);
    EXPECT_EQ(Doc != serializeSpec(A), OnWire.count(Skew.Name) == 1)
        << Skew.Name;
    CampaignSpec Back;
    std::string Err;
    ASSERT_TRUE(parseSpec(Doc, Back, Err)) << Skew.Name << ": " << Err;
    EXPECT_EQ(serializeSpec(Back), Doc) << Skew.Name;
    EXPECT_EQ(fingerprintOptions(HarnessOptions(Back)),
              fingerprintOptions(HarnessOptions(CampaignSpec(B))))
        << Skew.Name;
  }
}

TEST(OptionsFingerprintTest, BackendIdentityChangesTheFingerprint) {
  HarnessOptions A;
  NamedBackend Gcc("external: gcc -w [-O] | gcc (Distro) 14.2.0");
  NamedBackend Clang("external: clang -w [-O] | clang version 19.1.0");
  A.Backend = &Gcc;
  HarnessOptions B = A;
  B.Backend = &Clang;
  HarnessOptions C = A;
  C.Backend = nullptr; // In-process MiniCC.
  uint64_t FA = fingerprintOptions(A);
  EXPECT_NE(FA, fingerprintOptions(B));
  EXPECT_NE(FA, fingerprintOptions(C));
}

TEST(OptionsFingerprintTest, TriageMismatchRejectsTheResume) {
  // End to end: a snapshot written by a non-triaging campaign must be
  // refused by a triaging resume (or one under another oracle step budget,
  // or any other result-affecting skew) on the fingerprint gate, and
  // accepted under a result-neutral skew or once the options match.
  std::vector<std::string> Seeds = {"int main(void) { return 0; }\n"};
  HarnessOptions Plain = skewBase();
  Plain.CheckpointPath = tempPath("triage_skew.ck");
  CampaignResult Full = DifferentialHarness(Plain).runCampaign(Seeds);

  for (const OptionSkew &Skew : Skews) {
    HarnessOptions Skewed = Plain;
    Skew.Apply(Skewed);
    CampaignResult R;
    std::string Err;
    if (!Skew.ResultAffecting) {
      EXPECT_TRUE(DifferentialHarness(Skewed).resumeCampaign(Seeds, R, Err))
          << Skew.Name << ": " << Err;
      EXPECT_TRUE(R == Full) << Skew.Name;
      continue;
    }
    EXPECT_FALSE(DifferentialHarness(Skewed).resumeCampaign(Seeds, R, Err))
        << Skew.Name;
    EXPECT_NE(Err.find("options fingerprint"), std::string::npos)
        << Skew.Name << ": " << Err;
  }

  CampaignResult Again;
  std::string Err2;
  ASSERT_TRUE(DifferentialHarness(Plain).resumeCampaign(Seeds, Again, Err2))
      << Err2;
  EXPECT_TRUE(Again == Full);
}

//===----------------------------------------------------------------------===//
// Oracle store
//===----------------------------------------------------------------------===//

namespace {

OracleCache::Entry entry(bool Ok, ExecStatus St, int64_t Exit,
                         std::string Output) {
  OracleCache::Entry E;
  E.FrontendOk = Ok;
  E.Status = St;
  E.ExitCode = Exit;
  E.Output = std::move(Output);
  return E;
}

} // namespace

TEST(OracleStoreTest, AppendThenLoadReplaysEveryRecord) {
  std::string Path = tempPath("store_roundtrip.log");
  std::remove(Path.c_str());
  OracleStore Store(Path);
  std::vector<OracleStore::Record> Batch = {
      {"int main(void)\n{\n  return 0;\n}\n",
       entry(true, ExecStatus::Ok, 0, "hello\nworld\n")},
      {"rejected program", entry(false, ExecStatus::Unsupported, 0, "")},
      {"ub program", entry(true, ExecStatus::UndefinedBehavior, -3, "")},
  };
  ASSERT_TRUE(Store.append(Batch));
  uint64_t Bytes = Store.bytesOnDisk();
  EXPECT_GT(Bytes, 0u);

  OracleCache Cache;
  uint64_t Valid = 0;
  EXPECT_EQ(Store.loadInto(Cache, ~uint64_t(0), &Valid), 3u);
  EXPECT_EQ(Valid, Bytes);
  OracleCache::Entry E;
  ASSERT_TRUE(Cache.lookup(Batch[0].first, E));
  EXPECT_TRUE(E.FrontendOk);
  EXPECT_EQ(E.Output, "hello\nworld\n");
  ASSERT_TRUE(Cache.lookup(Batch[2].first, E));
  EXPECT_EQ(E.Status, ExecStatus::UndefinedBehavior);
  EXPECT_EQ(E.ExitCode, -3);
}

namespace {

/// Writes one record to a fresh log at \p Path, rewrites its magic to
/// \p OldMagic, and \returns how many records a load then replays.
size_t loadWithMagic(const std::string &Path, const char *OldMagic) {
  std::remove(Path.c_str());
  OracleStore Store(Path);
  EXPECT_TRUE(Store.append({{"prog", entry(true, ExecStatus::Ok, 5, "")}}));
  std::string Bytes;
  {
    std::ifstream In(Path, std::ios::binary);
    Bytes.assign(std::istreambuf_iterator<char>(In), {});
  }
  EXPECT_EQ(Bytes.compare(0, 18, "SPE-ORACLE-LOG v3\n"), 0);
  Bytes.replace(0, 18, OldMagic);
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }
  OracleCache Cache;
  size_t Loaded = Store.loadInto(Cache);
  EXPECT_EQ(Cache.size(), Loaded);
  return Loaded;
}

} // namespace

TEST(OracleStoreTest, VersionOneLogLoadsCold) {
  // v1 keys carried no step budget, so their verdicts came from a budget
  // nobody recorded: such a log must not replay.
  EXPECT_EQ(loadWithMagic(tempPath("store_v1.log"), "SPE-ORACLE-LOG v1\n"),
            0u);
}

TEST(OracleStoreTest, VersionTwoLogLoadsCold) {
  // v2 verdicts came from an oracle that never ended a block's locals, so
  // a v2 Ok may belong to a program that reads a dead block.
  EXPECT_EQ(loadWithMagic(tempPath("store_v2.log"), "SPE-ORACLE-LOG v2\n"),
            0u);
}

TEST(OracleStoreTest, PrefixLoadStopsAtTheRecordedLength) {
  std::string Path = tempPath("store_prefix.log");
  std::remove(Path.c_str());
  OracleStore Store(Path);
  ASSERT_TRUE(Store.append({{"first", entry(true, ExecStatus::Ok, 1, "")}}));
  uint64_t AfterFirst = Store.bytesOnDisk();
  ASSERT_TRUE(Store.append({{"second", entry(true, ExecStatus::Ok, 2, "")}}));

  // A checkpoint written after record one must reconstruct a cache that
  // has record one and not record two.
  OracleCache Cache;
  EXPECT_EQ(Store.loadInto(Cache, AfterFirst), 1u);
  OracleCache::Entry E;
  EXPECT_TRUE(Cache.lookup("first", E));
  EXPECT_FALSE(Cache.lookup("second", E));

  // And truncateTo makes the cut permanent for future appends.
  ASSERT_TRUE(Store.truncateTo(AfterFirst));
  EXPECT_EQ(Store.bytesOnDisk(), AfterFirst);
  OracleCache Fresh;
  EXPECT_EQ(Store.loadInto(Fresh), 1u);
}

TEST(OracleStoreTest, TornTailIsToleratedAndTrimmable) {
  std::string Path = tempPath("store_torn.log");
  std::remove(Path.c_str());
  OracleStore Store(Path);
  ASSERT_TRUE(Store.append({{"whole", entry(true, ExecStatus::Ok, 7, "x")}}));
  uint64_t Whole = Store.bytesOnDisk();

  // Simulate a crash mid-append: half a record header at the tail.
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(F, nullptr);
  std::fputs("R 999 1", F);
  std::fclose(F);

  OracleCache Cache;
  uint64_t Valid = 0;
  EXPECT_EQ(Store.loadInto(Cache, ~uint64_t(0), &Valid), 1u);
  EXPECT_EQ(Valid, Whole);
  ASSERT_TRUE(Store.truncateTo(Valid));
  EXPECT_EQ(Store.bytesOnDisk(), Whole);
}

TEST(OracleStoreTest, TornHeaderRestartsTheLogInsteadOfPoisoningIt) {
  // A crash can die between creating the file and getting the magic to
  // disk. The next append must notice the short file and restart the log
  // (magic first), not append magic-less records that no load could ever
  // parse again.
  std::string Path = tempPath("store_torn_header.log");
  std::remove(Path.c_str());
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("SPE-OR", F); // Half the magic, then "power loss".
  std::fclose(F);

  OracleStore Store(Path);
  ASSERT_TRUE(Store.append({{"key", entry(true, ExecStatus::Ok, 1, "")}}));
  OracleCache Cache;
  EXPECT_EQ(Store.loadInto(Cache), 1u);
  OracleCache::Entry E;
  EXPECT_TRUE(Cache.lookup("key", E));
}

TEST(OracleStoreTest, CorruptVerdictEnumEndsTheValidPrefix) {
  // A record whose Status field decodes outside the ExecStatus range must
  // terminate the valid prefix, not replay as an arbitrary verdict into
  // the differential arbiter.
  std::string Path = tempPath("store_bad_enum.log");
  std::remove(Path.c_str());
  OracleStore Store(Path);
  ASSERT_TRUE(Store.append({{"good", entry(true, ExecStatus::Ok, 0, "")}}));
  uint64_t Good = Store.bytesOnDisk();
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(F, nullptr);
  std::fputs("R 3 1 99 0 0\nbad\n", F); // Status 99: no such ExecStatus.
  std::fclose(F);

  OracleCache Cache;
  uint64_t Valid = 0;
  EXPECT_EQ(Store.loadInto(Cache, ~uint64_t(0), &Valid), 1u);
  EXPECT_EQ(Valid, Good);
  OracleCache::Entry E;
  EXPECT_FALSE(Cache.lookup("bad", E));
}

TEST(OracleStoreTest, AbsurdLengthFieldEndsThePrefixInsteadOfAllocating) {
  // A corrupt length field must terminate the valid prefix cleanly, not
  // feed resize() a multi-exabyte request that aborts the process.
  std::string Path = tempPath("store_bad_len.log");
  std::remove(Path.c_str());
  OracleStore Store(Path);
  ASSERT_TRUE(Store.append({{"good", entry(true, ExecStatus::Ok, 0, "")}}));
  uint64_t Good = Store.bytesOnDisk();
  std::FILE *F = std::fopen(Path.c_str(), "ab");
  ASSERT_NE(F, nullptr);
  std::fputs("R 18446744073709551615 1 0 0 0\n", F);
  std::fclose(F);

  OracleCache Cache;
  uint64_t Valid = 0;
  EXPECT_EQ(Store.loadInto(Cache, ~uint64_t(0), &Valid), 1u);
  EXPECT_EQ(Valid, Good);
}

TEST(OracleStoreTest, ForeignFileIsRefusedNotAppendedToOrDestroyed) {
  // A non-log file at the store path must be left exactly as found:
  // appending after unparseable content would strand the records, and
  // truncating would destroy data the store does not own.
  std::string Path = tempPath("store_foreign.log");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("this is somebody's notes file, not an oracle log....\n", F);
  std::fclose(F);
  uint64_t Before = std::filesystem::file_size(Path);

  OracleStore Store(Path);
  EXPECT_FALSE(Store.append({{"key", entry(true, ExecStatus::Ok, 1, "")}}));
  EXPECT_EQ(std::filesystem::file_size(Path), Before);
  OracleCache Cache;
  EXPECT_EQ(Store.loadInto(Cache), 0u);

  // Same for a foreign file *shorter* than the magic: only a genuine
  // torn-header prefix of the magic may be truncated away.
  std::string Short = tempPath("store_foreign_short.log");
  F = std::fopen(Short.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("abc", F);
  std::fclose(F);
  OracleStore ShortStore(Short);
  EXPECT_FALSE(
      ShortStore.append({{"key", entry(true, ExecStatus::Ok, 1, "")}}));
  EXPECT_EQ(std::filesystem::file_size(Short), 3u);
}

TEST(OracleStoreTest, MissingFileIsACleanColdStart) {
  OracleStore Store(tempPath("does_not_exist.log"));
  std::remove(Store.path().c_str());
  OracleCache Cache;
  uint64_t Valid = 42;
  EXPECT_EQ(Store.loadInto(Cache, ~uint64_t(0), &Valid), 0u);
  EXPECT_EQ(Valid, 0u);
  EXPECT_EQ(Store.bytesOnDisk(), 0u);
  EXPECT_TRUE(Store.truncateTo(0));
}
