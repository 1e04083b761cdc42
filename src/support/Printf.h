//===- support/Printf.h - the mini-C printf formatter ---------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of what the mini-C printf prints. The reference
/// interpreter and the MiniCC VM both format through it, or a formatting
/// quirk would masquerade as a wrong-code divergence (support/StdinScan.h
/// is the same contract for spe_input()). The dialect knows %d %i %u %x %c
/// and %%, each after any number of l's. Each argument is a 64-bit word:
/// without an l a conversion reads its low 32 bits, with one all 64. A
/// lone % ending the format prints nothing; "%l" ending it prints '%'.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_PRINTF_H
#define SPE_SUPPORT_PRINTF_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace spe {

/// Why formatPrintf printed nothing.
struct PrintfFailure {
  enum Kind { None, UnknownConversion, MissingArgument } What = None;
  /// The failing conversion character.
  char Conv = 0;
};

/// Appends \p Fmt formatted over the argument words \p Args to \p Out. On a
/// failure \p Out is left as it was. A conversion the dialect does not know
/// fails before its argument is looked for.
inline PrintfFailure formatPrintf(const std::string &Fmt,
                                  const std::vector<uint64_t> &Args,
                                  std::string &Out) {
  const size_t Start = Out.size();
  auto Fail = [&](PrintfFailure::Kind What, char Conv) {
    Out.resize(Start);
    return PrintfFailure{What, Conv};
  };
  size_t Arg = 0;
  for (size_t P = 0; P < Fmt.size(); ++P) {
    if (Fmt[P] != '%') {
      Out += Fmt[P];
      continue;
    }
    if (++P >= Fmt.size())
      break;
    bool Long = false;
    for (; P < Fmt.size() && Fmt[P] == 'l'; ++P)
      Long = true;
    char Conv = P < Fmt.size() ? Fmt[P] : '%';
    if (Conv == '%') {
      Out += '%';
      continue;
    }
    if (Conv != 'd' && Conv != 'i' && Conv != 'u' && Conv != 'x' &&
        Conv != 'c')
      return Fail(PrintfFailure::UnknownConversion, Conv);
    if (Arg >= Args.size())
      return Fail(PrintfFailure::MissingArgument, Conv);
    uint64_t Word = Args[Arg++];
    uint64_t Unsigned = Long ? Word : static_cast<uint32_t>(Word);
    if (Conv == 'd' || Conv == 'i') {
      Out += std::to_string(Long ? static_cast<int64_t>(Word)
                                 : static_cast<int32_t>(Word));
    } else if (Conv == 'u') {
      Out += std::to_string(Unsigned);
    } else if (Conv == 'x') {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%llx",
                    static_cast<unsigned long long>(Unsigned));
      Out += Buf;
    } else {
      Out += static_cast<char>(Word & 0xff);
    }
  }
  return {};
}

} // namespace spe

#endif // SPE_SUPPORT_PRINTF_H
