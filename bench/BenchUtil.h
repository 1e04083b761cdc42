//===- bench/BenchUtil.h - shared benchmark plumbing ---------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the bench binaries: parsing a corpus file through
/// the pipeline and computing its enumeration counts, section headers, and
/// the JSON and phase-breakdown output of bench_telemetry_overhead.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_BENCH_BENCHUTIL_H
#define SPE_BENCH_BENCHUTIL_H

#include "core/SpeEnumerator.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace spe {
namespace bench {

/// One corpus file pushed through the front end with its counts.
struct FileAnalysis {
  std::unique_ptr<ASTContext> Ctx;
  std::unique_ptr<Sema> Analysis;
  std::vector<SkeletonUnit> Units;
  SkeletonStats Stats;
  BigInt NaiveCount;
  BigInt SpeCount;      ///< Paper-faithful Algorithm 1.
  BigInt SpeExactCount; ///< Complete canonical count.
};

/// Parses + analyzes + extracts + counts; nullopt when the front end
/// rejects the file.
inline std::optional<FileAnalysis>
analyzeFile(const std::string &Source,
            ExtractorOptions Opts = {}) {
  FileAnalysis R;
  R.Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, *R.Ctx, Diags))
    return std::nullopt;
  R.Analysis = std::make_unique<Sema>(*R.Ctx, Diags);
  if (!R.Analysis->run())
    return std::nullopt;
  SkeletonExtractor Extractor(*R.Ctx, *R.Analysis, Opts);
  R.Units = Extractor.extract();
  R.Stats = computeSkeletonStats(*R.Ctx, *R.Analysis, R.Units);
  ProgramEnumerator Enumerator(R.Units, SpeMode::PaperFaithful);
  R.NaiveCount = Enumerator.countNaive();
  R.SpeCount = Enumerator.countSpe();
  R.SpeExactCount =
      ProgramEnumerator(R.Units, SpeMode::Exact).countSpe();
  return R;
}

/// Prints a horizontal rule and a section header.
inline void header(const char *Title) {
  std::printf("\n=== %s ===\n", Title);
}

/// Accumulates flat key/value metrics and writes them as
/// BENCH_<name>.json in the working directory.
class BenchJson {
public:
  explicit BenchJson(std::string Name) : Name(std::move(Name)) {}

  void put(const std::string &Key, double Value) {
    if (!std::isfinite(Value)) { // Bare nan/inf is not valid JSON.
      Fields.emplace_back(Key, "null");
      return;
    }
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
    Fields.emplace_back(Key, Buf);
  }
  void put(const std::string &Key, uint64_t Value) {
    Fields.emplace_back(Key, std::to_string(Value));
  }
  void put(const std::string &Key, int Value) {
    Fields.emplace_back(Key, std::to_string(Value));
  }
  void put(const std::string &Key, const std::string &Value) {
    std::string Escaped = "\"";
    for (char C : Value) {
      if (C == '"' || C == '\\')
        Escaped += '\\';
      Escaped += C;
    }
    Escaped += '"';
    Fields.emplace_back(Key, Escaped);
  }

  /// Writes BENCH_<name>.json; \returns false (and warns) on I/O failure.
  bool write() const {
    std::string Path = "BENCH_" + Name + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::printf("!! could not write %s\n", Path.c_str());
      return false;
    }
    std::fprintf(F, "{\n  \"bench\": \"%s\"", Name.c_str());
    for (const auto &[Key, Value] : Fields)
      std::fprintf(F, ",\n  \"%s\": %s", Key.c_str(), Value.c_str());
    std::fprintf(F, "\n}\n");
    std::fclose(F);
    std::printf("wrote %s\n", Path.c_str());
    return true;
  }

private:
  std::string Name;
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Folds a campaign's telemetry summary into \p J as a per-phase
/// breakdown: phase_<name>_{count,total_us,p50_us,max_us}, with the
/// backend/config axes collapsed; a phase that never ran emits nothing.
inline void emitPhaseBreakdown(BenchJson &J, const TelemetrySummary &S) {
  // Collapse (phase, backend, config) keys down to the phase axis.
  std::map<std::string, PhaseAggregate> ByPhase;
  for (const auto &[Key, Agg] : S.Phases)
    ByPhase[Key.Phase].merge(Agg);
  for (const auto &[Phase, Agg] : ByPhase) {
    J.put("phase_" + Phase + "_count", Agg.Count);
    J.put("phase_" + Phase + "_total_us", Agg.TotalUs);
    J.put("phase_" + Phase + "_p50_us", Agg.Hist.quantileUs(0.50));
    J.put("phase_" + Phase + "_max_us", Agg.MaxUs);
  }
}

/// Best-of-\p Reps paired wall time: runs \p Fn that many times and
/// returns the minimum elapsed milliseconds. Minimum, not mean -- the
/// lower envelope is the least noisy estimator on a shared CI machine,
/// and both sides of an overhead comparison get the same treatment.
template <typename Fn> inline double minWallMs(unsigned Reps, Fn &&Body) {
  double Best = -1.0;
  for (unsigned R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Body();
    auto T1 = std::chrono::steady_clock::now();
    double Ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
            T1 - T0)
            .count();
    if (Best < 0.0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

} // namespace bench
} // namespace spe

#endif // SPE_BENCH_BENCHUTIL_H
