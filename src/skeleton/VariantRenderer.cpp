//===- skeleton/VariantRenderer.cpp - assignments back to C source -------===//

#include "skeleton/VariantRenderer.h"

#include "lang/AstPrinter.h"

#include <cassert>
#include <unordered_map>
#include <utility>

using namespace spe;

VariantRenderer::VariantRenderer(const ASTContext &Ctx,
                                 const std::vector<SkeletonUnit> &Units)
    : Units(Units) {
  std::unordered_map<const DeclRefExpr *, std::pair<unsigned, unsigned>>
      Slots;
  for (unsigned U = 0; U < Units.size(); ++U)
    for (unsigned H = 0; H < Units[U].HoleSites.size(); ++H)
      Slots[Units[U].HoleSites[H]] = {U, H};
  std::vector<AstPrinter::NameSite> Names;
  AstPrinter Printer;
  Printer.setNameLog(&Names);
  Printer.printTo(Ctx, Template);
  for (const AstPrinter::NameSite &N : Names) {
    auto It = Slots.find(N.Ref);
    if (It != Slots.end())
      Splices.push_back({N.Offset, N.Ref->name().size(), It->second.first,
                         It->second.second});
  }
}

std::string VariantRenderer::render(const ProgramAssignment &PA) const {
  std::string Out;
  renderInto(PA, Out);
  return Out;
}

void VariantRenderer::renderInto(const ProgramAssignment &PA,
                                 std::string &Out) const {
  assert(PA.size() == Units.size() && "assignment/unit arity mismatch");
  Out.clear();
  size_t From = 0;
  for (const Splice &S : Splices) {
    assert(S.Hole < PA[S.Unit].size() && "hole arity mismatch");
    Out.append(Template, From, S.Offset - From);
    Out += Units[S.Unit].Skeleton.var(PA[S.Unit][S.Hole]).Name;
    From = S.Offset + S.Length;
  }
  Out.append(Template, From, std::string::npos);
}

std::string VariantRenderer::renderOriginal() const { return Template; }

ProgramAssignment VariantRenderer::identityAssignment() const {
  ProgramAssignment PA;
  for (const SkeletonUnit &Unit : Units) {
    Assignment A(Unit.Skeleton.numHoles());
    for (unsigned H = 0; H < Unit.Skeleton.numHoles(); ++H) {
      const VarDecl *Original = Unit.HoleSites[H]->decl();
      VarId Found = ~0u;
      for (VarId V = 0; V < Unit.Skeleton.numVars(); ++V) {
        if (Unit.AstVars[V] == Original) {
          Found = V;
          break;
        }
      }
      assert(Found != ~0u && "original variable missing from skeleton");
      A[H] = Found;
    }
    PA.push_back(std::move(A));
  }
  return PA;
}
