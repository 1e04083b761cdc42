//===- skeleton/VariantRenderer.h - assignments back to C source ---------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns enumerated assignments back into concrete C programs: each skeleton
/// hole's use site is printed with the name of the variable the assignment
/// chose for it. The original program is exactly the variant that assigns
/// every hole its original variable.
///
/// The renderer is built for campaign-scale batches: it prints the program
/// once, as a template, and records where each hole site's name sits in it.
/// A variant is then the template's fixed text with the chosen names
/// spliced in at those offsets, appended into the caller's reused buffer,
/// so the hot render path walks no AST and allocates nothing.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SKELETON_VARIANTRENDERER_H
#define SPE_SKELETON_VARIANTRENDERER_H

#include "skeleton/ProgramEnumerator.h"

#include <string>

namespace spe {

/// Renders program variants from skeleton assignments.
class VariantRenderer {
public:
  /// Prints \p Ctx once as the template all variants are spliced from.
  VariantRenderer(const ASTContext &Ctx,
                  const std::vector<SkeletonUnit> &Units);

  /// Renders the full program variant as C source.
  std::string render(const ProgramAssignment &PA) const;

  /// Renders the variant into \p Out (cleared first, capacity kept);
  /// repeated calls allocate nothing once \p Out's capacity settles.
  void renderInto(const ProgramAssignment &PA, std::string &Out) const;

  /// Renders the unmodified program.
  std::string renderOriginal() const;

  /// \returns the identity assignment (every hole keeps its original
  /// variable), useful as a sanity baseline.
  ProgramAssignment identityAssignment() const;

private:
  /// Unit \p Unit's hole \p Hole: its original name spans [Offset, Offset +
  /// Length) of Template.
  struct Splice {
    size_t Offset;
    size_t Length;
    unsigned Unit;
    unsigned Hole;
  };

  const std::vector<SkeletonUnit> &Units;
  std::string Template;          ///< The program printed with its own names.
  std::vector<Splice> Splices;   ///< Ascending Offset.
};

} // namespace spe

#endif // SPE_SKELETON_VARIANTRENDERER_H
