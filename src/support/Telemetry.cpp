//===- support/Telemetry.cpp - campaign trace spans + metrics ------------===//

#include "support/Telemetry.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>

using namespace spe;

uint64_t LatencyHistogram::quantileUs(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0;
  if (Q < 0.0)
    Q = 0.0;
  if (Q > 1.0)
    Q = 1.0;
  // The 1-based rank of the quantile sample, nearest-rank definition:
  // ceil(Q*N), so the median of 3 samples is the 2nd, not the 1st.
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(N));
  if (static_cast<double>(Rank) < Q * static_cast<double>(N))
    ++Rank;
  if (Rank == 0)
    Rank = 1;
  if (Rank > N)
    Rank = N;
  uint64_t Seen = 0;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Seen += Buckets[I];
    if (Seen >= Rank)
      return bucketUpperUs(I);
  }
  return bucketUpperUs(NumBuckets - 1);
}

uint64_t TelemetrySummary::totalUsFor(const std::string &Phase) const {
  uint64_t Total = 0;
  for (const auto &[Key, Agg] : Phases)
    if (Key.Phase == Phase)
      Total += Agg.TotalUs;
  return Total;
}

uint64_t TelemetrySummary::countFor(const std::string &Phase) const {
  uint64_t Total = 0;
  for (const auto &[Key, Agg] : Phases)
    if (Key.Phase == Phase)
      Total += Agg.Count;
  return Total;
}

//===----------------------------------------------------------------------===//
// TelemetrySink
//===----------------------------------------------------------------------===//

TelemetrySink::TelemetrySink(Options O)
    : Opts(std::move(O)), Epoch(std::chrono::steady_clock::now()) {
  if (!Opts.EventLogPath.empty()) {
    // Truncate up front so a reused path never mixes two campaigns' logs.
    std::FILE *F = std::fopen(Opts.EventLogPath.c_str(), "wb");
    if (F)
      std::fclose(F);
    else
      LogFailed = true;
  }
  Buffer.reserve(1 << 16);
}

TelemetrySink::~TelemetrySink() { flush(); }

unsigned TelemetrySink::threadId() {
  // Dense per-sink index; the cache makes the common case (one sink per
  // campaign, threads touching it repeatedly) a pointer compare.
  thread_local const TelemetrySink *CachedSink = nullptr;
  thread_local unsigned CachedId = 0;
  if (CachedSink == this)
    return CachedId;
  std::lock_guard<std::mutex> Lock(Mu);
  CachedSink = this;
  CachedId = NextTid++;
  return CachedId;
}

void TelemetrySink::appendEventLocked(const char *Phase,
                                      const std::string &Backend,
                                      const std::string &Config,
                                      uint64_t StartUs, uint64_t DurUs,
                                      unsigned Tid) {
  if (Opts.EventLogPath.empty() || LogFailed)
    return;
  if (BytesWritten + Buffer.size() >= Opts.MaxEventBytes)
    return;
  char Tail[96];
  Buffer += "{\"ph\":\"";
  Buffer += jsonEscape(Phase);
  Buffer += "\",\"be\":\"";
  Buffer += jsonEscape(Backend);
  Buffer += "\",\"cfg\":\"";
  Buffer += jsonEscape(Config);
  std::snprintf(Tail, sizeof(Tail),
                "\",\"ts\":%llu,\"dur\":%llu,\"tid\":%u}\n",
                static_cast<unsigned long long>(StartUs),
                static_cast<unsigned long long>(DurUs), Tid);
  Buffer += Tail;
  ++Events;
  if (Buffer.size() >= (1 << 18))
    flushLocked();
}

void TelemetrySink::recordSpan(const char *Phase, const std::string &Backend,
                               const std::string &Config, uint64_t StartUs,
                               uint64_t DurUs, bool Aggregate) {
  unsigned Tid = threadId(); // Outside Mu: takes Mu itself on first use.
  std::lock_guard<std::mutex> Lock(Mu);
  appendEventLocked(Phase, Backend, Config, StartUs, DurUs, Tid);
  if (Aggregate)
    aggregateLocked(Phase, Backend, Config, DurUs);
}

void TelemetrySink::recordAggregate(const char *Phase,
                                    const std::string &Backend,
                                    const std::string &Config,
                                    uint64_t DurUs) {
  std::lock_guard<std::mutex> Lock(Mu);
  aggregateLocked(Phase, Backend, Config, DurUs);
}

void TelemetrySink::aggregateLocked(const char *Phase,
                                    const std::string &Backend,
                                    const std::string &Config,
                                    uint64_t DurUs) {
  Global.record(Phase, Backend, Config, DurUs);
  for (TelemetrySummary *Campaign : Open)
    Campaign->record(Phase, Backend, Config, DurUs);
}

CampaignSpans::CampaignSpans(TelemetrySink *Sink) : Sink(Sink) {
  if (!Sink)
    return;
  std::lock_guard<std::mutex> Lock(Sink->Mu);
  Sink->Open.push_back(&Spans);
}

CampaignSpans::~CampaignSpans() { close(); }

TelemetrySummary CampaignSpans::close() {
  if (Sink) {
    std::lock_guard<std::mutex> Lock(Sink->Mu);
    Sink->Open.erase(std::find(Sink->Open.begin(), Sink->Open.end(), &Spans));
    Sink = nullptr;
  }
  return std::move(Spans);
}

TelemetrySummary TelemetrySink::summary() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Global;
}

uint64_t TelemetrySink::eventsWritten() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

void TelemetrySink::flushLocked() {
  if (Buffer.empty() || Opts.EventLogPath.empty() || LogFailed)
    return;
  std::FILE *F = std::fopen(Opts.EventLogPath.c_str(), "ab");
  if (!F) {
    LogFailed = true;
    Buffer.clear();
    return;
  }
  if (std::fwrite(Buffer.data(), 1, Buffer.size(), F) != Buffer.size())
    LogFailed = true;
  std::fclose(F);
  BytesWritten += Buffer.size();
  Buffer.clear();
}

void TelemetrySink::flush() {
  std::lock_guard<std::mutex> Lock(Mu);
  flushLocked();
}

bool TelemetrySink::parseEventLine(const std::string &Line,
                                   TelemetryEvent &Out) {
  // The sink writes these lines itself with a fixed field order; parse by
  // key so the reader stays robust to future field additions.
  auto FindString = [&](const char *Key, std::string &Val) {
    std::string Needle = std::string("\"") + Key + "\":\"";
    size_t At = Line.find(Needle);
    if (At == std::string::npos)
      return false;
    At += Needle.size();
    Val.clear();
    while (At < Line.size() && Line[At] != '"') {
      if (Line[At] == '\\' && At + 1 < Line.size()) {
        ++At;
        switch (Line[At]) {
        case 'n': Val += '\n'; break;
        case 't': Val += '\t'; break;
        case 'r': Val += '\r'; break;
        default: Val += Line[At]; break;
        }
      } else {
        Val += Line[At];
      }
      ++At;
    }
    return At < Line.size();
  };
  auto FindNum = [&](const char *Key, uint64_t &Val) {
    std::string Needle = std::string("\"") + Key + "\":";
    size_t At = Line.find(Needle);
    if (At == std::string::npos)
      return false;
    At += Needle.size();
    if (At >= Line.size() || !std::isdigit(static_cast<unsigned char>(Line[At])))
      return false;
    Val = 0;
    while (At < Line.size() &&
           std::isdigit(static_cast<unsigned char>(Line[At])))
      Val = Val * 10 + static_cast<uint64_t>(Line[At++] - '0');
    return true;
  };
  uint64_t Tid = 0;
  if (!FindString("ph", Out.Phase) || !FindString("be", Out.Backend) ||
      !FindString("cfg", Out.Config) || !FindNum("ts", Out.StartUs) ||
      !FindNum("dur", Out.DurUs) || !FindNum("tid", Tid))
    return false;
  Out.Tid = static_cast<unsigned>(Tid);
  return true;
}

bool TelemetrySink::exportChromeTrace(const std::string &Path,
                                      std::string &Err) {
  flush();
  if (Opts.EventLogPath.empty()) {
    Err = "no event log configured (TelemetrySink::Options::EventLogPath)";
    return false;
  }
  std::FILE *In = std::fopen(Opts.EventLogPath.c_str(), "rb");
  if (!In) {
    Err = "cannot open event log " + Opts.EventLogPath;
    return false;
  }
  std::string Log;
  char Buf[1 << 16];
  size_t Got;
  while ((Got = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
    Log.append(Buf, Got);
  std::fclose(In);

  std::FILE *OutF = std::fopen(Path.c_str(), "wb");
  if (!OutF) {
    Err = "cannot write trace " + Path;
    return false;
  }
  std::fputs("{\"traceEvents\":[", OutF);
  bool First = true;
  size_t Pos = 0;
  while (Pos < Log.size()) {
    size_t Nl = Log.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Log.size();
    std::string Line = Log.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    TelemetryEvent Ev;
    if (Line.empty() || !parseEventLine(Line, Ev))
      continue;
    std::string Name = Ev.Phase;
    if (!Ev.Backend.empty())
      Name += "@" + Ev.Backend;
    std::fprintf(OutF,
                 "%s\n{\"name\":\"%s\",\"cat\":\"spe\",\"ph\":\"X\","
                 "\"ts\":%llu,\"dur\":%llu,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"config\":\"%s\"}}",
                 First ? "" : ",", jsonEscape(Name).c_str(),
                 static_cast<unsigned long long>(Ev.StartUs),
                 static_cast<unsigned long long>(Ev.DurUs), Ev.Tid,
                 jsonEscape(Ev.Config).c_str());
    First = false;
  }
  std::fputs("\n]}\n", OutF);
  bool Ok = std::ferror(OutF) == 0;
  std::fclose(OutF);
  if (!Ok)
    Err = "write error on " + Path;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Labels + JSON helpers
//===----------------------------------------------------------------------===//

std::string spe::telemetryBackendLabel(const std::string &Identity) {
  size_t End = Identity.find(" | ");
  if (End == std::string::npos)
    End = Identity.size();
  size_t Nl = Identity.find('\n');
  if (Nl != std::string::npos && Nl < End)
    End = Nl;
  std::string Label = Identity.substr(0, End);
  while (!Label.empty() && Label.back() == ' ')
    Label.pop_back();
  if (Label.size() > 48)
    Label.resize(48);
  return Label;
}

std::string spe::telemetryConfigLabel(unsigned OptLevel, bool Mode64) {
  std::string L = "O" + std::to_string(OptLevel);
  if (!Mode64)
    L += ".m32";
  return L;
}

std::string spe::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
      break;
    }
  }
  return Out;
}

namespace {

/// Minimal strict JSON parser used only for validation.
struct JsonValidator {
  const std::string &S;
  size_t At = 0;

  explicit JsonValidator(const std::string &S) : S(S) {}

  void ws() {
    while (At < S.size() && (S[At] == ' ' || S[At] == '\t' || S[At] == '\n' ||
                             S[At] == '\r'))
      ++At;
  }
  bool lit(const char *L) {
    size_t N = std::strlen(L);
    if (S.compare(At, N, L) != 0)
      return false;
    At += N;
    return true;
  }
  bool string() {
    if (At >= S.size() || S[At] != '"')
      return false;
    ++At;
    while (At < S.size()) {
      char C = S[At];
      if (C == '"') {
        ++At;
        return true;
      }
      if (static_cast<unsigned char>(C) < 0x20)
        return false;
      if (C == '\\') {
        ++At;
        if (At >= S.size())
          return false;
        char E = S[At];
        if (E == 'u') {
          for (int I = 0; I < 4; ++I) {
            ++At;
            if (At >= S.size() ||
                !std::isxdigit(static_cast<unsigned char>(S[At])))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", E)) {
          return false;
        }
      }
      ++At;
    }
    return false;
  }
  bool number() {
    size_t Begin = At;
    if (At < S.size() && S[At] == '-')
      ++At;
    if (At >= S.size() || !std::isdigit(static_cast<unsigned char>(S[At])))
      return false;
    if (S[At] == '0') {
      ++At;
    } else {
      while (At < S.size() && std::isdigit(static_cast<unsigned char>(S[At])))
        ++At;
    }
    if (At < S.size() && S[At] == '.') {
      ++At;
      if (At >= S.size() || !std::isdigit(static_cast<unsigned char>(S[At])))
        return false;
      while (At < S.size() && std::isdigit(static_cast<unsigned char>(S[At])))
        ++At;
    }
    if (At < S.size() && (S[At] == 'e' || S[At] == 'E')) {
      ++At;
      if (At < S.size() && (S[At] == '+' || S[At] == '-'))
        ++At;
      if (At >= S.size() || !std::isdigit(static_cast<unsigned char>(S[At])))
        return false;
      while (At < S.size() && std::isdigit(static_cast<unsigned char>(S[At])))
        ++At;
    }
    return At > Begin;
  }
  bool value(unsigned Depth) {
    if (Depth > 256)
      return false;
    ws();
    if (At >= S.size())
      return false;
    char C = S[At];
    if (C == '{') {
      ++At;
      ws();
      if (At < S.size() && S[At] == '}') {
        ++At;
        return true;
      }
      while (true) {
        ws();
        if (!string())
          return false;
        ws();
        if (At >= S.size() || S[At] != ':')
          return false;
        ++At;
        if (!value(Depth + 1))
          return false;
        ws();
        if (At < S.size() && S[At] == ',') {
          ++At;
          continue;
        }
        if (At < S.size() && S[At] == '}') {
          ++At;
          return true;
        }
        return false;
      }
    }
    if (C == '[') {
      ++At;
      ws();
      if (At < S.size() && S[At] == ']') {
        ++At;
        return true;
      }
      while (true) {
        if (!value(Depth + 1))
          return false;
        ws();
        if (At < S.size() && S[At] == ',') {
          ++At;
          continue;
        }
        if (At < S.size() && S[At] == ']') {
          ++At;
          return true;
        }
        return false;
      }
    }
    if (C == '"')
      return string();
    if (C == 't')
      return lit("true");
    if (C == 'f')
      return lit("false");
    if (C == 'n')
      return lit("null");
    return number();
  }
};

} // namespace

bool spe::isValidJsonText(const std::string &Text) {
  JsonValidator V(Text);
  if (!V.value(0))
    return false;
  V.ws();
  return V.At == Text.size();
}
