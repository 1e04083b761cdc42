//===- skeleton/VariantBinder.h - variants as rebound ASTs ---------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds each enumerated variant's analysed AST without parsing its text.
/// The paper's program is a syntactic skeleton parameterized by its
/// variable names (Section 3), so two variants of one seed differ only in
/// which declaration each hole site names. The binder parses and analyses
/// the renderer's template once; per variant it re-points every hole site
/// at the variable the assignment chose (DeclRefExpr::rebind). The bound
/// AST is the AST a parse of the variant's rendered text builds: it prints
/// as that text, and interprets and lowers as a fresh parse does.
///
/// That holds only where the chosen name, spelled at the site, resolves to
/// the chosen declaration. SPE fills a hole with any variable of the
/// hole's type visible in its skeleton scope, which is broader than C's
/// rule: the default ScopeModel::PaperMerged lets a hole name a local
/// declared later in the function, or a global that a same-named local
/// shadows. A table built with Sema::resolveAt -- the rule analysis itself
/// resolves names with -- marks which (hole, variable) pairs resolve, and
/// bind() refuses every assignment that uses another pair. A refused
/// variant is parsed from its text, which stays the reference.
///
/// The binder owns its AST and rebinds it in place, so it serves one
/// variant at a time on one thread: each cursor range builds its own. The
/// AST's type table outlives the variants, because interpretation and
/// IRGen intern pointer types into it. Interning is idempotent, and only
/// skeleton extraction, which runs once here, reads a type's index.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SKELETON_VARIANTBINDER_H
#define SPE_SKELETON_VARIANTBINDER_H

#include "skeleton/VariantRenderer.h"

#include <memory>

namespace spe {

/// Binds program variants into one analysed AST of their seed.
class VariantBinder {
public:
  /// Parses and analyses \p Renderer's template and extracts its units
  /// under \p Opts. The binder binds nothing when a step fails, or when
  /// its units differ in shape from \p Units, the plan the assignments
  /// index: in unit count, in a unit's hole count, in a hole's original
  /// variable name or type index, or in the names and type indices of a
  /// unit's variables.
  VariantBinder(const VariantRenderer &Renderer,
                const std::vector<SkeletonUnit> &Units,
                const ExtractorOptions &Opts);

  /// Re-points every hole site at the variable \p PA chooses and \returns
  /// the bound AST, valid until the next bind() or the binder's end. Null
  /// when the binder binds nothing or some chosen name, at its site, would
  /// resolve to another variable or to none: that variant must be parsed.
  /// One table lookup and one rebind per hole.
  ASTContext *bind(const ProgramAssignment &PA);

private:
  /// One unit's hole sites and variables in the binder's own AST, and
  /// Binds[H * Vars.size() + V]: whether hole H may name variable V.
  struct Unit {
    std::vector<DeclRefExpr *> Sites;
    std::vector<VarDecl *> Vars;
    std::vector<char> Binds;
  };

  std::unique_ptr<ASTContext> Ctx; ///< Null when the binder binds nothing.
  std::vector<Unit> Units;
};

} // namespace spe

#endif // SPE_SKELETON_VARIANTBINDER_H
