//===- tests/skeleton_golden_snapshot_test.cpp - pinned variant goldens --===//
//
// Pins the rendered text and the enumeration order of the first variants of
// every embedded handwritten seed (exact mode, default extraction). The
// FNV-1a fingerprints were captured from the current pipeline; any change
// to cursor order, canonicalization, or rendering -- accidental or
// deliberate -- trips this test and must update the goldens consciously.
// seek(k) is cross-checked against sequential order so direct addressing
// pins the same sequence.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "persist/Checkpoint.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

#include <fstream>
#include <sstream>

using namespace spe;

namespace {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

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

/// Renders the first (up to) \p Limit variants in cursor order.
std::vector<std::string> firstVariants(const Pipeline &P, unsigned Limit) {
  ProgramCursor Cursor(P.Units, SpeMode::Exact);
  VariantRenderer Renderer(*P.Ctx, P.Units);
  std::vector<std::string> Out;
  std::string Buffer;
  while (Out.size() < Limit) {
    const ProgramAssignment *PA = Cursor.next();
    if (!PA)
      break;
    Renderer.renderInto(*PA, Buffer);
    Out.push_back(Buffer);
  }
  return Out;
}

/// Golden FNV-1a fingerprints of the first 8 variants of each embedded
/// seed, in embeddedSeeds() order (seeds with smaller spaces pin fewer).
const std::vector<std::vector<uint64_t>> &goldenHashes() {
  static const std::vector<std::vector<uint64_t>> Golden = {
      {0x400a87c2ce105435ull, 0xfafe83753a91d0f6ull, 0x6b5fc78348f2cd80ull,
       0x47666f5414a5734full, 0x8e893212faaccc70ull, 0x2da6617fd0ad857full,
       0x6699f25282ad7c25ull, 0xddd875a0f3b6ba26ull},
      {0x3e9cbb1d34a2ecfcull, 0x346bd44a427d8987ull, 0xacceb5fce49b4327ull,
       0xa5e2e6d3f782cb1cull, 0x8264bfdd2cf094b9ull, 0x492fcfa609441d49ull,
       0x434f327301fe0362ull, 0x18336c96d43893f7ull},
      {0x9a15c9b214eae372ull, 0x60925590a4770eabull, 0x06165c4633016d75ull,
       0x2e059c06ab00bdc0ull, 0x647623ffbd57ddf1ull, 0x1b04c01acdc612ccull,
       0xdb1144676783ca7eull, 0x183c5045a9a51f37ull},
      {0x09ac5ad00603111bull, 0x49794d2846efd403ull, 0x8263a52f950accf5ull,
       0xc85d2c49c0f2eea9ull},
      {0x0d1cb4857981c02aull, 0xd0332064062a8c03ull, 0xed96a539ae2f4987ull,
       0xb67b95305412d54eull, 0x30fd9969e6946dfcull, 0x71915a12ba3c66b7ull,
       0x34664e34781b11feull, 0xa0312871543ffeacull},
      {0x93b2be3f7364b8cdull, 0xbd0b063be63174c6ull, 0x31ab4b627636ee6cull,
       0x7d94532302f6fc33ull, 0x59a9eae6750d572bull, 0x3402684f5ebbf144ull,
       0x7feb700feb7bff0bull, 0xa67fd4215e875b93ull},
      {0xb5f10424d6c880f1ull, 0x27a4b846788e273eull, 0x4131a464cf1b8054ull,
       0x4c24884a3d6986bfull, 0xfd9790044ac70738ull, 0x8c2f5ef5292fd064ull,
       0x93bc42da949aadcfull, 0x48954a94a4db5748ull},
      {0xbb2086556f191ec3ull, 0x0c035ae375c1e0beull, 0xae15990593339064ull,
       0x829e89b6a8602679ull, 0x04264be29035dc86ull, 0xdd4961f3dbf6552bull,
       0x6f462a27275e30edull, 0x24d098f0fc9cd708ull},
      {0x7a53f3a30a449daaull, 0x124ab5a6663f15c5ull, 0x4e5489d8e16896d1ull,
       0xaf2ba98df9b52a86ull, 0x9121f7260bca496bull, 0x235c3ea4b50f0e50ull,
       0xb70ce6880577a8c4ull, 0xb5395aea6d658cdfull},
      {0xc7220df7f162e74cull, 0x72340d980d8bff85ull, 0x7d3c54d7bfc397bbull,
       0xbe2f290f01da6f1eull, 0x1fb82fe69495d5d3ull, 0x65886abbded87ba6ull,
       0xeb69e2985c315654ull, 0x135003efe732765dull},
  };
  return Golden;
}

} // namespace

TEST(GoldenSnapshotTest, FirstVariantsOfEveryEmbeddedSeedAreStable) {
  const std::vector<std::string> &Seeds = embeddedSeeds();
  const auto &Golden = goldenHashes();
  ASSERT_EQ(Seeds.size(), Golden.size())
      << "a seed was added or removed; regenerate the golden table";

  for (size_t SI = 0; SI < Seeds.size(); ++SI) {
    Pipeline P = analyze(Seeds[SI]);
    std::vector<std::string> Variants = firstVariants(P, 8);
    ASSERT_EQ(Variants.size(), Golden[SI].size()) << "seed " << SI;
    for (size_t V = 0; V < Variants.size(); ++V) {
      EXPECT_EQ(fnv1a(Variants[V]), Golden[SI][V])
          << "seed " << SI << " variant " << V << " changed:\n"
          << Variants[V];
    }
  }
}

TEST(GoldenSnapshotTest, SeekAddressesTheSameSequence) {
  // seek(k) must land on the exact variant sequential iteration produces;
  // this pins the rank <-> variant mapping the parallel shards rely on.
  const std::vector<std::string> &Seeds = embeddedSeeds();
  for (size_t SI = 0; SI < Seeds.size(); ++SI) {
    Pipeline P = analyze(Seeds[SI]);
    std::vector<std::string> Sequential = firstVariants(P, 8);
    VariantRenderer Renderer(*P.Ctx, P.Units);
    std::string Buffer;
    for (size_t K = 0; K < Sequential.size(); ++K) {
      ProgramCursor Cursor(P.Units, SpeMode::Exact);
      Cursor.seek(BigInt(K));
      const ProgramAssignment *PA = Cursor.next();
      ASSERT_NE(PA, nullptr) << "seed " << SI << " rank " << K;
      Renderer.renderInto(*PA, Buffer);
      EXPECT_EQ(Buffer, Sequential[K]) << "seed " << SI << " rank " << K;
    }
  }
}

namespace {

/// A fixed, fully populated snapshot whose serialization is pinned byte
/// for byte by tests/golden/campaign_checkpoint_v3.golden. Touch nothing
/// here (and nothing in the serializer) without consciously regenerating
/// the golden file AND bumping CampaignCheckpoint::FormatVersion -- an
/// accidental layout change would strand every long-haul campaign's
/// resume.
CampaignCheckpoint goldenCheckpoint() {
  CampaignCheckpoint CP;
  CP.OptionsFingerprint = 1234567890123456789ull;
  CP.SeedsFingerprint = 987654321098765432ull;
  CP.StoreBytes = 2048;
  CP.NextSeed = 2;

  FoundBug Crash;
  Crash.BugId = 3;
  Crash.P = Persona::GccSim;
  Crash.Effect = BugEffect::Crash;
  Crash.Signature = "ICE: segfault in reassoc, at tree-ssa-reassoc.c:77";
  Crash.Version = 48;
  Crash.OptLevel = 3;
  Crash.Mode64 = false;
  Crash.WitnessProgram =
      "int main(void)\n{\n  int a = 3;\n  return a * 10 + a;\n}\n";
  CP.Merged.UniqueBugs.emplace(Crash.BugId, Crash);
  CP.Merged.RawFindings.emplace(
      FindingKey{Crash.BugId, Crash.P, Crash.Version, Crash.OptLevel,
                 Crash.Mode64, 0, 0, {}},
      Crash);
  // A signature-only finding (no ground truth: external backend) from a
  // differential matrix cell -- pins the v3 Sig/Backend/Input bug tokens
  // and the BackendIdx/InputIdx key tokens, with the escaped
  // "miscompilation (hang)" key.
  FoundBug Hang;
  Hang.BugId = 0;
  Hang.P = Persona::GccSim;
  Hang.Effect = BugEffect::WrongCode;
  Hang.Signature = "miscompilation (hang)";
  Hang.Version = 140;
  Hang.OptLevel = 2;
  Hang.Mode64 = true;
  Hang.Backend = "gcc -std=c99";
  Hang.Input = "42\n";
  Hang.WitnessProgram = "int main(void)\n{\n  return 0;\n}\n";
  CP.Merged.RawFindings.emplace(
      FindingKey{0, Hang.P, Hang.Version, Hang.OptLevel, Hang.Mode64, 1, 2,
                 "miscompilation (hang)"},
      Hang);
  CP.Merged.SeedsProcessed = 2;
  CP.Merged.VariantsEnumerated = 60;
  CP.Merged.VariantsOracleExcluded = 4;
  CP.Merged.VariantsTested = 50;
  CP.Merged.VariantsPruned = 6;
  CP.Merged.OracleExecutions = 54;
  CP.Merged.OracleCacheHits = 12;
  CP.Merged.CrashObservations = 2;
  CP.Merged.ExecutionTimeouts = 1;
  CP.Merged.MatrixCellsCompared = 180;
  CP.Merged.SweepCellsExcluded = 3;
  CP.CovHits = {"constfold.binary", "dce.removed store"};

  CP.InFlight = true;
  CP.ConstraintsFingerprint = 1111222233334444ull;
  CP.SeedHeader.SeedsProcessed = 1;
  WorkerCheckpoint W0;
  W0.Finished = false;
  W0.Cursor = {"7", "15", "2"};
  W0.Partial.VariantsEnumerated = 5;
  W0.CovHits = {"licm.hoisted"};
  WorkerCheckpoint W1;
  W1.Finished = true;
  W1.Cursor = {"30", "30", "0"};
  W1.Partial.VariantsEnumerated = 15;
  CP.Workers = {W0, W1};
  return CP;
}

} // namespace

TEST(GoldenSnapshotTest, CheckpointFormatIsPinnedByGoldenFile) {
  // The serialized checkpoint layout is an on-disk compatibility surface:
  // campaigns killed under one build must resume under the next. Pin the
  // exact bytes against a checked-in golden file so any accidental format
  // change fails CI loudly instead of silently stranding snapshots.
  std::ifstream In(std::string(SPE_SOURCE_DIR) +
                   "/tests/golden/campaign_checkpoint_v3.golden");
  ASSERT_TRUE(In.good())
      << "tests/golden/campaign_checkpoint_v3.golden is missing";
  std::ostringstream Golden;
  Golden << In.rdbuf();

  CampaignCheckpoint CP = goldenCheckpoint();
  EXPECT_EQ(CP.serialize(), Golden.str())
      << "the serialized checkpoint layout changed; if deliberate, bump "
         "CampaignCheckpoint::FormatVersion and regenerate the golden file";

  // And the pinned bytes must still load as format v3.
  CampaignCheckpoint Back;
  std::string Err;
  ASSERT_TRUE(CampaignCheckpoint::deserialize(Golden.str(), Back, Err))
      << Err;
  EXPECT_TRUE(Back == CP);
}

TEST(GoldenSnapshotTest, Figure1VariantTextIsPinnedVerbatim) {
  // One readable exemplar: the Figure 1 seed's first three variants, fully
  // spelled out so a rendering regression is visible in the diff, not just
  // as a hash mismatch.
  Pipeline P = analyze(embeddedSeeds()[2]);
  std::vector<std::string> Variants = firstVariants(P, 3);
  ASSERT_EQ(Variants.size(), 3u);
  EXPECT_EQ(Variants[0], "int main(void)\n"
                         "{\n"
                         "  int a = 3;\n"
                         "  int b = 1;\n"
                         "  a = a - a;\n"
                         "  if (a > a)\n"
                         "    a = a - a;\n"
                         "  return a * 10 + a;\n"
                         "}\n");
  EXPECT_EQ(Variants[1], "int main(void)\n"
                         "{\n"
                         "  int a = 3;\n"
                         "  int b = 1;\n"
                         "  a = a - a;\n"
                         "  if (a > a)\n"
                         "    a = a - a;\n"
                         "  return a * 10 + b;\n"
                         "}\n");
  EXPECT_EQ(Variants[2], "int main(void)\n"
                         "{\n"
                         "  int a = 3;\n"
                         "  int b = 1;\n"
                         "  a = a - a;\n"
                         "  if (a > a)\n"
                         "    a = a - a;\n"
                         "  return b * 10 + a;\n"
                         "}\n");
}
