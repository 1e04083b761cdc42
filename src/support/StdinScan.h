//===- support/StdinScan.h - scanf("%d")-style input cursor --------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of what the spe_input() intrinsic reads. Every
/// executor of a variant -- the reference interpreter, the MiniCC VM, and
/// the scanf-based prelude compiled into external backends' binaries --
/// must parse the stdin sweep identically, or an input-encoding quirk
/// would masquerade as a wrong-code divergence. The contract is plain
/// scanf("%d") on canonical sweep text (whitespace-separated decimal
/// integers): skip whitespace, optional sign, digits; a matching failure
/// or exhausted input yields 0, and keeps yielding 0.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_STDINSCAN_H
#define SPE_SUPPORT_STDINSCAN_H

#include <cctype>
#include <cstdint>
#include <string>

namespace spe {

/// Cursor over an in-memory stdin image handing out successive "%d"
/// conversions. Copy of the image is deliberate: executors outlive the
/// strings the harness builds sweeps from.
class StdinIntScanner {
public:
  StdinIntScanner() = default;
  explicit StdinIntScanner(std::string Data) : Data(std::move(Data)) {}

  /// The next integer, or 0 on matching failure / end of input.
  int32_t next() {
    while (Pos < Data.size() &&
           std::isspace(static_cast<unsigned char>(Data[Pos])))
      ++Pos;
    size_t P = Pos;
    bool Neg = false;
    if (P < Data.size() && (Data[P] == '-' || Data[P] == '+')) {
      Neg = Data[P] == '-';
      ++P;
    }
    if (P >= Data.size() ||
        !std::isdigit(static_cast<unsigned char>(Data[P])))
      return 0; // Matching failure: consume nothing, like scanf.
    int64_t V = 0;
    while (P < Data.size() &&
           std::isdigit(static_cast<unsigned char>(Data[P]))) {
      // Sweeps are canonical small ints; past any plausible magnitude the
      // digits are still consumed but stop accumulating.
      if (V <= int64_t(1) << 40)
        V = V * 10 + (Data[P] - '0');
      ++P;
    }
    Pos = P;
    if (Neg)
      V = -V;
    return static_cast<int32_t>(V);
  }

  /// Bytes consumed so far. next() depends on nothing else, so two equal
  /// positions promise the same future reads (DESIGN.md Section 18).
  size_t position() const { return Pos; }

private:
  std::string Data;
  size_t Pos = 0;
};

} // namespace spe

#endif // SPE_SUPPORT_STDINSCAN_H
