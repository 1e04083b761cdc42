//===- distrib/FleetProtocol.cpp - coordinator/worker wire format --------===//

#include "distrib/FleetProtocol.h"

#include "persist/LineText.h"

#include <limits>
#include <sstream>

using namespace spe;
using namespace spe::linetext;

namespace {

const char SpecMagic[] = "SPE-FLEET-SPEC v1";
const char FragmentMagic[] = "SPE-FLEET-FRAGMENT v1";

/// The largest wire value of a scalar option: the last enumerator of an
/// enum, else the type's own maximum (1 for a bool).
template <class T> constexpr uint64_t optionMax() {
  if constexpr (std::is_same_v<T, SpeMode>)
    return static_cast<uint64_t>(SpeMode::PaperFaithful);
  else if constexpr (std::is_same_v<T, Granularity>)
    return static_cast<uint64_t>(Granularity::InterProcedural);
  else if constexpr (std::is_same_v<T, ScopeModel>)
    return static_cast<uint64_t>(ScopeModel::DeclRegion);
  else if constexpr (std::is_same_v<T, Persona>)
    return static_cast<uint64_t>(Persona::ClangSim);
  else {
    static_assert(std::is_integral_v<T>, "name the enum's last enumerator");
    return std::numeric_limits<T>::max();
  }
}

template <class T>
constexpr bool IsConfigs = std::is_same_v<T, std::vector<CompilerConfig>>;
template <class T>
constexpr bool IsSweep = std::is_same_v<T, std::vector<std::string>>;

/// Writes each option as one token: scalars as numbers (enums by
/// enumerator, bools 0/1). Configs ends the `opts` line and writes a
/// `configs` count line, then one `config` line per entry; its ExecSweep
/// count ends that line, and a `sweep` line follows per input.
struct WriteOption {
  std::ostringstream &Out;

  template <class T>
  void operator()(const char *, OptionKind, const T &Field) {
    if constexpr (IsConfigs<T>) {
      Out << "\nconfigs " << Field.size() << '\n';
      for (const CompilerConfig &C : Field) {
        Out << "config";
        walkCompilerConfig(C, *this);
      }
    } else if constexpr (IsSweep<T>) {
      Out << ' ' << Field.size() << '\n';
      for (const std::string &In : Field)
        Out << "sweep " << escapeToken(In) << '\n';
    } else {
      Out << ' ' << static_cast<uint64_t>(Field);
    }
  }
};

/// Counts the tokens WriteOption puts on one line, keyword included.
struct CountTokens {
  size_t N = 1;

  template <class T> void operator()(const char *, OptionKind, const T &) {
    N += IsConfigs<T> ? 0 : 1;
  }
};

/// Reads WriteOption's document back, checking each scalar against its
/// type's range.
struct ReadOption {
  Reader &R;
  /// The `opts` or `config` line being read, and its next token.
  const std::vector<std::string> *Line = nullptr;
  size_t Next = 1;
  bool Ok = true;

  bool open(const char *Kw, size_t NTokens) {
    Line = R.line(Kw, NTokens);
    Next = 1;
    return Ok = Line != nullptr;
  }

  template <class T> void operator()(const char *Name, OptionKind, T &Field) {
    if (!Ok)
      return;
    uint64_t N = 0;
    if constexpr (IsConfigs<T>) {
      CompilerConfig Blank;
      CountTokens PerConfig;
      walkCompilerConfig(Blank, PerConfig);
      const std::vector<std::string> *L = R.line("configs", 2);
      Ok = L && R.u64((*L)[1], N);
      for (uint64_t I = 0; Ok && I < N && open("config", PerConfig.N); ++I)
        walkCompilerConfig(Field.emplace_back(), *this);
    } else if constexpr (IsSweep<T>) {
      Ok = R.u64((*Line)[Next++], N);
      for (uint64_t I = 0; Ok && I < N; ++I) {
        const std::vector<std::string> *L = R.line("sweep", 2);
        Ok = L && R.strTok((*L)[1], Field.emplace_back());
      }
    } else {
      Ok = R.u64((*Line)[Next++], N) &&
           (N <= optionMax<T>() ||
            R.fail(std::string(Name) + " " + std::to_string(N) +
                   " out of range"));
      if (Ok)
        Field = static_cast<T>(N);
    }
  }
};

} // namespace

std::string spe::serializeSpec(const CampaignSpec &Spec) {
  std::ostringstream Out;
  Out << SpecMagic << "\nopts";
  walkCampaignSpec(Spec, WriteOption{Out});
  return Out.str();
}

bool spe::parseSpec(const std::string &Text, CampaignSpec &Out,
                    std::string &Err) {
  Out = CampaignSpec();
  Reader R(Text);
  if (R.Lines.empty() || R.Lines[0].size() != 2 ||
      R.Lines[0][0] + " " + R.Lines[0][1] != SpecMagic) {
    Err = "bad fleet spec magic";
    return false;
  }
  R.At = 1;
  CountTokens PerOpts;
  walkCampaignSpec(Out, PerOpts);
  ReadOption Read{R};
  if (Read.open("opts", PerOpts.N))
    walkCampaignSpec(Out, Read);
  if (Read.Ok && R.At != R.Lines.size())
    Read.Ok = R.fail("trailing data after fleet spec");
  if (!Read.Ok) {
    Err = R.Err.empty() ? "malformed fleet spec" : R.Err;
    return false;
  }
  return true;
}

uint64_t spe::fingerprintSpec(const CampaignSpec &Spec) {
  std::string Doc = serializeSpec(Spec);
  Fnv Sum;
  Sum.bytes(Doc.data(), Doc.size());
  return Sum.H;
}

std::string spe::serializeFragment(const CampaignResult &R) {
  std::ostringstream Out;
  Out << FragmentMagic << '\n';
  linetext::writeResult(Out, R);
  return withChecksumTrailer(Out.str());
}

bool spe::parseFragment(const std::string &Text, CampaignResult &Out,
                        std::string &Err) {
  Out = CampaignResult();
  std::string Body;
  if (!stripChecksumTrailer(Text, Body, Err))
    return false;
  Reader R(Body);
  if (R.Lines.empty() || R.Lines[0].size() != 2 ||
      R.Lines[0][0] + " " + R.Lines[0][1] != FragmentMagic) {
    Err = "bad fragment magic";
    return false;
  }
  R.At = 1;
  if (!linetext::readResult(R, Out) || R.At != R.Lines.size()) {
    Err = R.Err.empty() ? "malformed fragment" : R.Err;
    return false;
  }
  return true;
}
