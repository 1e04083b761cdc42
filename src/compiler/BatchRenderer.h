//===- compiler/BatchRenderer.h - pack variants into one TU --------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-variant translation units for batched external compilation. A real
/// compiler costs ~30 ms per subprocess invocation; a skeleton variant is a
/// few hundred bytes of straight-line C. Packing K variants into one TU --
/// each variant alpha-renamed into its own namespace (every identifier
/// prefixed "v<i>_", so variant i carries a private snapshot of its globals
/// and its entry point becomes v<i>_main) plus a table of those entry
/// points -- amortizes that invocation down to one compile per K
/// differential points.
///
/// The dispatcher amortizes the executions the same way. Its main is fixed
/// C (dispatcherSource()), compiled once per compiler and machine mode into
/// an object that every packed TU links, so no batch compile pays for it.
/// One run of the packed binary executes every requested member, each in
/// its own forked child that starts from the untouched image, reads the
/// same stdin bytes, runs under its own deadline and ends with
/// exit(v<i>_main()), so its stdio flushes into a pipe exactly as a solo
/// binary's does under runProcess. The parent writes each member's outcome
/// to its stdout as a framed record. This class owns that whole ABI:
/// dispatch() builds the invocation and frames() decodes it into one
/// ProcessResult per member, equal to what runProcess would have returned
/// for that member compiled and run alone (stderr aside, which members
/// share).
///
/// The rename is token-exact: the mini-C Lexer locates every identifier and
/// the prefix is spliced into the *raw* source text, so string literals,
/// integer spellings, comments and whitespace survive byte-for-byte.
/// Keywords come back as keyword tokens (never renamed) and the library
/// names the harness prelude declares (printf) are preserved. The scheme is
/// collision-free by construction: renaming is injective per variant
/// (a fixed prefix on distinct names yields distinct names), and two
/// prefixes "v<i>_" / "v<j>_" can only collide on identifiers starting
/// with a digit, which cannot lex.
///
/// Packing can fail (a variant that does not re-lex); callers fall back to
/// per-variant compilation, which is always correct. Note the packed TU is
/// an *amortization*, not an oracle: compiler/ExternalBackend.h bisects any
/// batch-level failure and re-verifies any batch-level anomaly with a solo
/// compile, so every recorded observation comes from an unbatched run.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMPILER_BATCHRENDERER_H
#define SPE_COMPILER_BATCHRENDERER_H

#include "support/ProcessRunner.h"

#include <cstddef>
#include <string>
#include <vector>

namespace spe {

/// Renders K variant programs into one dispatching translation unit.
class BatchRenderer {
public:
  /// Outcome of one pack() call.
  struct Result {
    bool Ok = false;
    /// The packed TU (valid when Ok): prelude, then each renamed variant,
    /// then the member table the dispatcher reads.
    std::string Source;
    /// Human-readable reason when !Ok (e.g. which variant failed to lex).
    std::string Error;
  };

  /// Packs \p Variants (complete mini-C programs, each defining main) into
  /// one TU prefixed by \p Prelude. Linked with the dispatcher object, it
  /// runs the members dispatch() names.
  static Result pack(const std::vector<std::string> &Variants,
                     const std::string &Prelude);
  /// Same, over a subset: packs Variants[Subset[0]], Variants[Subset[1]],
  /// ... so bisection re-packs sub-batches without copying sources. The
  /// packed TU numbers its members 0..Subset.size()-1 in subset order.
  static Result pack(const std::vector<std::string> &Variants,
                     const std::vector<size_t> &Subset,
                     const std::string &Prelude);

  /// Splices \p Prefix onto every identifier of \p Source except preserved
  /// library names (printf). \returns false (and sets \p Error) when the
  /// source does not lex cleanly. Exposed for tests.
  static bool prefixIdentifiers(const std::string &Source,
                                const std::string &Prefix, std::string &Out,
                                std::string &Error);

  /// The dispatcher's C source: the packed binary's main. Compile it (with
  /// the compiler and machine mode of the packed TUs) into an object and
  /// link that into every packed binary.
  static const char *dispatcherSource();

  /// One run of a packed binary.
  struct Dispatch {
    std::vector<std::string> Argv;
    /// Stdin carries the members' shared input; the budget covers every
    /// member's deadline plus slack, so only a wedged dispatcher hits it.
    ProcessOptions Opts;
    /// The members it executes, in execution (and frame) order.
    std::vector<size_t> Members;
  };
  /// The run of packed binary \p Bin that executes its members \p Members
  /// (packed-TU numbering, executed in this order), each as
  /// runProcess({member}, \p Member) would: stdin Member.StdinData, killed
  /// at Member.TimeoutMs (0 = no deadline), stdout kept up to
  /// Member.MaxOutputBytes and drained past it.
  static Dispatch dispatch(const std::string &Bin,
                           const std::vector<size_t> &Members,
                           const ProcessOptions &Member);

  /// Decodes \p Run, the finished run of \p D, into one result per
  /// D.Members entry. A member whose frame is missing, short or malformed
  /// -- and every member when the dispatcher did not exit 0, left bytes
  /// after the last frame or filled its output cap -- comes back
  /// StartFailed: no observation.
  static std::vector<ProcessResult> frames(const Dispatch &D,
                                           const ProcessResult &Run);
};

} // namespace spe

#endif // SPE_COMPILER_BATCHRENDERER_H
