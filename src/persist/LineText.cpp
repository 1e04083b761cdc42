//===- persist/LineText.cpp - shared line-text serialization --------------===//

#include "persist/LineText.h"

#include <cerrno>
#include <cstdlib>

namespace spe {
namespace linetext {

std::string withChecksumTrailer(std::string Body) {
  Fnv Sum;
  Sum.bytes(Body.data(), Body.size());
  return Body + "checksum " + std::to_string(Sum.H) + "\n";
}

bool stripChecksumTrailer(const std::string &Text, std::string &Body,
                          std::string &Err) {
  size_t Tail = Text.rfind("checksum ");
  if (Tail == std::string::npos || (Tail != 0 && Text[Tail - 1] != '\n')) {
    Err = "missing checksum trailer (truncated?)";
    return false;
  }
  std::string SumText = Text.substr(Tail + 9);
  while (!SumText.empty() &&
         (SumText.back() == '\n' || SumText.back() == '\r'))
    SumText.pop_back();
  uint64_t Expected;
  if (!parseU64(SumText, Expected)) {
    Err = "malformed checksum trailer";
    return false;
  }
  Fnv Sum;
  Sum.bytes(Text.data(), Tail);
  if (Sum.H != Expected) {
    Err = "checksum mismatch (corrupt or truncated)";
    return false;
  }
  Body = Text.substr(0, Tail);
  return true;
}

std::string escapeToken(const std::string &S) {
  if (S.empty())
    return "\\e";
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '\\': Out += "\\\\"; break;
    case ' ':  Out += "\\s";  break;
    case '\n': Out += "\\n";  break;
    case '\t': Out += "\\t";  break;
    case '\r': Out += "\\r";  break;
    default:   Out += C;      break;
    }
  }
  return Out;
}

bool unescapeToken(const std::string &T, std::string &Out) {
  Out.clear();
  if (T == "\\e")
    return true;
  for (size_t I = 0; I < T.size(); ++I) {
    if (T[I] != '\\') {
      Out += T[I];
      continue;
    }
    if (++I >= T.size())
      return false;
    switch (T[I]) {
    case '\\': Out += '\\'; break;
    case 's':  Out += ' ';  break;
    case 'n':  Out += '\n'; break;
    case 't':  Out += '\t'; break;
    case 'r':  Out += '\r'; break;
    default:   return false;
    }
  }
  return true;
}

bool parseU64(const std::string &T, uint64_t &Out) {
  if (T.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(T.c_str(), &End, 10);
  if (errno != 0 || End != T.c_str() + T.size() || T[0] == '-')
    return false;
  Out = V;
  return true;
}

bool parseI64(const std::string &T, int64_t &Out) {
  if (T.empty())
    return false;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(T.c_str(), &End, 10);
  if (errno != 0 || End != T.c_str() + T.size())
    return false;
  Out = V;
  return true;
}

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

static void writeBugFields(std::ostringstream &Out, const FoundBug &Bug) {
  Out << Bug.BugId << ' ' << static_cast<int>(Bug.P) << ' '
      << static_cast<int>(Bug.Effect) << ' ' << Bug.Version << ' '
      << Bug.OptLevel << ' ' << (Bug.Mode64 ? 1 : 0) << ' '
      << escapeToken(Bug.Signature) << ' ' << escapeToken(Bug.Backend)
      << ' ' << escapeToken(Bug.Input) << ' '
      << escapeToken(Bug.WitnessProgram);
}

void writeResult(std::ostringstream &Out, const CampaignResult &R) {
  Out << "counters " << R.SeedsProcessed << ' ' << R.SeedsSkippedByThreshold
      << ' ' << R.VariantsEnumerated << ' ' << R.VariantsOracleExcluded
      << ' ' << R.VariantsTested << ' ' << R.VariantsPruned << ' '
      << R.OracleExecutions << ' ' << R.OracleCacheHits << ' '
      << R.CrashObservations << ' ' << R.WrongCodeObservations << ' '
      << R.PerformanceObservations << ' ' << R.ExecutionTimeouts << ' '
      << R.MatrixCellsCompared << ' ' << R.SweepCellsExcluded << '\n';
  Out << "bugs " << R.UniqueBugs.size() << '\n';
  for (const auto &[Id, Bug] : R.UniqueBugs) {
    (void)Id;
    Out << "bug ";
    writeBugFields(Out, Bug);
    Out << '\n';
  }
  Out << "findings " << R.RawFindings.size() << '\n';
  for (const auto &[Key, Bug] : R.RawFindings) {
    Out << "finding " << Key.BugId << ' ' << static_cast<int>(Key.P) << ' '
        << Key.Version << ' ' << Key.OptLevel << ' '
        << (Key.Mode64 ? 1 : 0) << ' ' << Key.BackendIdx << ' '
        << Key.InputIdx << ' ' << escapeToken(Key.Sig) << ' ';
    writeBugFields(Out, Bug);
    Out << '\n';
  }
}

void writeCov(std::ostringstream &Out, const std::set<std::string> &Hits) {
  Out << "cov " << Hits.size() << '\n';
  for (const std::string &Name : Hits)
    Out << "covhit " << escapeToken(Name) << '\n';
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

Reader::Reader(const std::string &Text) {
  size_t Start = 0;
  while (Start <= Text.size()) {
    size_t NL = Text.find('\n', Start);
    if (NL == std::string::npos)
      NL = Text.size();
    std::vector<std::string> Tokens;
    size_t P = Start;
    while (P < NL) {
      size_t Space = Text.find(' ', P);
      if (Space == std::string::npos || Space > NL)
        Space = NL;
      if (Space > P)
        Tokens.push_back(Text.substr(P, Space - P));
      P = Space + 1;
    }
    if (!Tokens.empty())
      Lines.push_back(std::move(Tokens));
    Start = NL + 1;
  }
}

bool Reader::fail(const std::string &Msg) {
  if (Err.empty())
    Err = "line " + std::to_string(At + 1) + ": " + Msg;
  return false;
}

const std::vector<std::string> *Reader::line(const char *Kw, size_t NTokens) {
  if (At >= Lines.size()) {
    fail(std::string("unexpected end of file, wanted '") + Kw + "'");
    return nullptr;
  }
  const std::vector<std::string> &L = Lines[At];
  if (L[0] != Kw) {
    fail(std::string("expected '") + Kw + "', got '" + L[0] + "'");
    return nullptr;
  }
  if (L.size() != NTokens) {
    fail(std::string("'") + Kw + "' wants " + std::to_string(NTokens) +
         " tokens, got " + std::to_string(L.size()));
    return nullptr;
  }
  ++At;
  return &L;
}

bool Reader::u64(const std::string &T, uint64_t &Out) {
  return parseU64(T, Out) || fail("bad unsigned integer '" + T + "'");
}
bool Reader::i64(const std::string &T, int64_t &Out) {
  return parseI64(T, Out) || fail("bad integer '" + T + "'");
}
bool Reader::strTok(const std::string &T, std::string &Out) {
  return unescapeToken(T, Out) || fail("bad escaped string");
}
bool Reader::boolTok(const std::string &T, bool &Out) {
  uint64_t V;
  if (!parseU64(T, V) || V > 1)
    return fail("bad flag '" + T + "'");
  Out = V != 0;
  return true;
}

static bool readBugFields(Reader &R, const std::vector<std::string> &L,
                          size_t At, FoundBug &Bug) {
  int64_t Id = 0;
  uint64_t P = 0, E = 0, Ver = 0, Opt = 0;
  bool M64 = false;
  if (!R.i64(L[At], Id) || !R.u64(L[At + 1], P) || !R.u64(L[At + 2], E) ||
      !R.u64(L[At + 3], Ver) || !R.u64(L[At + 4], Opt) ||
      !R.boolTok(L[At + 5], M64) || !R.strTok(L[At + 6], Bug.Signature) ||
      !R.strTok(L[At + 7], Bug.Backend) || !R.strTok(L[At + 8], Bug.Input) ||
      !R.strTok(L[At + 9], Bug.WitnessProgram))
    return false;
  if (P > 1 || E > 2)
    return R.fail("enum value out of range");
  Bug.BugId = static_cast<int>(Id);
  Bug.P = static_cast<Persona>(P);
  Bug.Effect = static_cast<BugEffect>(E);
  Bug.Version = static_cast<unsigned>(Ver);
  Bug.OptLevel = static_cast<unsigned>(Opt);
  Bug.Mode64 = M64;
  return true;
}

bool readResult(Reader &R, CampaignResult &Out) {
  const auto *L = R.line("counters", 15);
  if (!L)
    return false;
  uint64_t *Slots[14] = {
      &Out.SeedsProcessed,     &Out.SeedsSkippedByThreshold,
      &Out.VariantsEnumerated, &Out.VariantsOracleExcluded,
      &Out.VariantsTested,     &Out.VariantsPruned,
      &Out.OracleExecutions,   &Out.OracleCacheHits,
      &Out.CrashObservations,  &Out.WrongCodeObservations,
      &Out.PerformanceObservations, &Out.ExecutionTimeouts,
      &Out.MatrixCellsCompared, &Out.SweepCellsExcluded};
  for (size_t I = 0; I < 14; ++I)
    if (!R.u64((*L)[I + 1], *Slots[I]))
      return false;

  uint64_t N = 0;
  L = R.line("bugs", 2);
  if (!L || !R.u64((*L)[1], N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    const auto *BL = R.line("bug", 11);
    FoundBug Bug;
    if (!BL || !readBugFields(R, *BL, 1, Bug))
      return false;
    if (!Out.UniqueBugs.emplace(Bug.BugId, std::move(Bug)).second)
      return R.fail("duplicate bug id");
  }

  L = R.line("findings", 2);
  if (!L || !R.u64((*L)[1], N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    const auto *FL = R.line("finding", 19);
    if (!FL)
      return false;
    int64_t Id = 0;
    uint64_t P = 0, Ver = 0, Opt = 0, BIdx = 0, IIdx = 0;
    FindingKey Key;
    FoundBug Bug;
    if (!R.i64((*FL)[1], Id) || !R.u64((*FL)[2], P) ||
        !R.u64((*FL)[3], Ver) || !R.u64((*FL)[4], Opt) ||
        !R.boolTok((*FL)[5], Key.Mode64) || !R.u64((*FL)[6], BIdx) ||
        !R.u64((*FL)[7], IIdx) || !R.strTok((*FL)[8], Key.Sig) ||
        !readBugFields(R, *FL, 9, Bug))
      return false;
    if (P > 1)
      return R.fail("enum value out of range");
    Key.BugId = static_cast<int>(Id);
    Key.P = static_cast<Persona>(P);
    Key.Version = static_cast<unsigned>(Ver);
    Key.OptLevel = static_cast<unsigned>(Opt);
    Key.BackendIdx = static_cast<unsigned>(BIdx);
    Key.InputIdx = static_cast<unsigned>(IIdx);
    if (!Out.RawFindings.emplace(Key, std::move(Bug)).second)
      return R.fail("duplicate finding key");
  }
  return true;
}

bool readCov(Reader &R, std::set<std::string> &Out) {
  const auto *L = R.line("cov", 2);
  uint64_t N = 0;
  if (!L || !R.u64((*L)[1], N))
    return false;
  for (uint64_t I = 0; I < N; ++I) {
    const auto *HL = R.line("covhit", 2);
    std::string Name;
    if (!HL || !R.strTok((*HL)[1], Name))
      return false;
    Out.insert(std::move(Name));
  }
  return true;
}

} // namespace linetext
} // namespace spe
