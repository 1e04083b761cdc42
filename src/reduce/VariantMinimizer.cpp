//===- reduce/VariantMinimizer.cpp - minimal-rank canonical reproducers --===//

#include "reduce/VariantMinimizer.h"

#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantRenderer.h"

#include <memory>

using namespace spe;

namespace {

/// Maximum rendered-and-probed candidates per witness.
constexpr uint64_t ProbeBudget = 192;
/// Maximum rank (exclusive) the scan may reach; pruned skips do not spend
/// probes but still advance the rank, so this bounds pathological spaces.
constexpr uint64_t RankBudget = 1 << 16;

} // namespace

MinimizeOutcome VariantMinimizer::minimize(const std::string &Witness,
                                           const ReproSpec &Spec) const {
  MinimizeOutcome Out;
  Out.Minimized = Witness;

  auto Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Witness, *Ctx, Diags))
    return Out;
  Sema Analysis(*Ctx, Diags);
  if (!Analysis.run())
    return Out;

  std::vector<SkeletonUnit> Units = SkeletonExtractor(*Ctx, Analysis).extract();

  ProgramCursor Cursor(Units, SpeMode::Exact);
  if (Cursor.size() > BigInt(RankBudget))
    Cursor.setEnd(BigInt(RankBudget));
  std::vector<ValidityConstraints> Validity =
      analyzeValidity(*Ctx, Analysis, Units);
  Cursor.setConstraints(constraintPtrs(Validity));

  VariantRenderer Renderer(*Ctx, Units);
  ReproOracle Oracle(Spec, Cache, Backend);
  std::string Buffer;
  while (Out.Probes < ProbeBudget) {
    // position() is the rank of the variant next() is about to produce; read
    // it before the call advances the cursor.
    const BigInt &Pos = Cursor.position();
    uint64_t Rank = Pos.fitsInUint64() ? Pos.toUint64() : ~uint64_t(0);
    const ProgramAssignment *PA = Cursor.next();
    if (!PA)
      break;
    Renderer.renderInto(*PA, Buffer);
    ++Out.Probes;
    if (Buffer == Witness) {
      // Reached the witness itself: nothing below its rank triggers, so it
      // already is the canonical reproducer.
      Out.FoundAtRank = true;
      Out.Rank = Rank;
      break;
    }
    if (Oracle.reproduces(Buffer)) {
      Out.Minimized = Buffer;
      Out.FoundAtRank = true;
      Out.Rank = Rank;
      Out.Improved = true;
      break;
    }
  }
  Out.Oracle = Oracle.stats();
  return Out;
}
