//===- skeleton/VariantBinder.cpp - variants as rebound ASTs -------------===//

#include "skeleton/VariantBinder.h"

#include "lang/Parser.h"
#include "sema/Sema.h"

using namespace spe;

/// True when \p A and \p B agree in every field the assignments and the
/// resolution table read (VariantBinder's constructor comment).
static bool sameShape(const SkeletonUnit &A, const SkeletonUnit &B) {
  const AbstractSkeleton &SA = A.Skeleton;
  const AbstractSkeleton &SB = B.Skeleton;
  if (SA.numHoles() != SB.numHoles() || SA.numVars() != SB.numVars())
    return false;
  for (unsigned H = 0; H < SA.numHoles(); ++H)
    if (SA.hole(H).Type != SB.hole(H).Type ||
        A.HoleSites[H]->decl()->name() != B.HoleSites[H]->decl()->name())
      return false;
  for (VarId V = 0; V < SA.numVars(); ++V)
    if (SA.var(V).Name != SB.var(V).Name || SA.var(V).Type != SB.var(V).Type)
      return false;
  return true;
}

VariantBinder::VariantBinder(const VariantRenderer &Renderer,
                             const std::vector<SkeletonUnit> &Plan,
                             const ExtractorOptions &Opts) {
  auto Parsed = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Renderer.renderOriginal(), *Parsed, Diags))
    return;
  Sema Analysis(*Parsed, Diags);
  if (!Analysis.run())
    return;
  std::vector<SkeletonUnit> Own =
      SkeletonExtractor(*Parsed, Analysis, Opts).extract();
  if (Own.size() != Plan.size())
    return;
  for (size_t U = 0; U < Own.size(); ++U)
    if (!sameShape(Own[U], Plan[U]))
      return;
  for (SkeletonUnit &S : Own) {
    Unit &B = Units.emplace_back();
    B.Sites = std::move(S.HoleSites);
    B.Vars = std::move(S.AstVars);
    B.Binds.assign(B.Sites.size() * B.Vars.size(), 0);
    for (size_t H = 0; H < B.Sites.size(); ++H)
      for (size_t V = 0; V < B.Vars.size(); ++V) {
        VarDecl *Var = B.Vars[V];
        B.Binds[H * B.Vars.size() + V] =
            Var->type() == B.Sites[H]->decl()->type() &&
            Analysis.resolveAt(B.Sites[H], Var->name()) == Var;
      }
  }
  Ctx = std::move(Parsed);
}

ASTContext *VariantBinder::bind(const ProgramAssignment &PA) {
  if (!Ctx || PA.size() != Units.size())
    return nullptr;
  // A refused assignment may leave some sites rebound; every later bind
  // rebinds every site, so nothing reads that mix.
  for (size_t U = 0; U < Units.size(); ++U) {
    const Unit &B = Units[U];
    const Assignment &A = PA[U];
    if (A.size() != B.Sites.size())
      return nullptr;
    for (size_t H = 0; H < A.size(); ++H) {
      if (A[H] >= B.Vars.size() || !B.Binds[H * B.Vars.size() + A[H]])
        return nullptr;
      B.Sites[H]->rebind(B.Vars[A[H]]);
    }
  }
  return Ctx.get();
}
