//===- testing/OracleCache.h - memoized reference-oracle verdicts --------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memoizing cache for reference-oracle verdicts, keyed by the canonical
/// variant signature -- the rendered program text, which two distinct
/// canonical assignments can never share. The oracle run (parse + Sema +
/// reference interpretation, Section 5.4) dominates per-variant cost, and
/// campaigns repeat it: persona/version sweeps re-test the same seeds, and
/// shards of different campaigns can meet the same variant. A shared cache
/// turns every repeat into a lookup.
///
/// The cache is safe for concurrent shard workers (a single mutex; the
/// payloads are small) and is *determinism-preserving*: a hit replays the
/// exact stored verdict of the deterministic interpreter, so campaign
/// results are bit-identical with and without the cache, for any thread
/// count -- only the OracleExecutions / OracleCacheHits counters differ.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_TESTING_ORACLECACHE_H
#define SPE_TESTING_ORACLECACHE_H

#include "interp/Interpreter.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace spe {

/// Cache/store key of one oracle verdict: "\x1e" budget "\x1f" input
/// "\x1f" source. The step budget is part of it because a Timeout only says
/// the budget ran out, or provably would (DESIGN.md Section 18.5), and a
/// larger budget can turn it into UB or Ok; campaigns with different
/// budgets may therefore share one cache or store. Sweep inputs are
/// whitespace-separated decimal integers and cannot contain \x1f. Shared
/// by the harness's oracle phase and the reduction pipeline's repro oracle
/// so a finding's re-probes replay the campaign's own verdicts.
inline std::string oracleCacheKey(const std::string &Source,
                                  const std::string &Input,
                                  uint64_t MaxSteps) {
  std::string Key = "\x1e" + std::to_string(MaxSteps) + "\x1f";
  Key.reserve(Key.size() + Input.size() + Source.size() + 1);
  Key += Input;
  Key.push_back('\x1f');
  Key += Source;
  return Key;
}

/// Memoizes per-variant oracle verdicts across seeds, configs, shards, and
/// whole campaigns.
class OracleCache {
public:
  /// One memoized verdict. FrontendOk == false records that the variant's
  /// own parse/Sema rejected it (no oracle run happened and none ever
  /// will); otherwise Status/ExitCode/Output replay the interpretation.
  struct Entry {
    bool FrontendOk = false;
    ExecStatus Status = ExecStatus::Unsupported;
    int64_t ExitCode = 0;
    std::string Output;
  };

  /// \returns true and fills \p Out when \p Source has a memoized verdict.
  /// Counts a hit or a miss either way.
  bool lookup(const std::string &Source, Entry &Out) {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Map.find(Source);
    if (It == Map.end()) {
      ++Misses;
      return false;
    }
    ++Hits;
    Out = It->second;
    return true;
  }

  /// Memoizes \p E for \p Source (first writer wins; the oracle is
  /// deterministic, so racing writers agree).
  void insert(const std::string &Source, Entry E) {
    std::lock_guard<std::mutex> Lock(M);
    Map.emplace(Source, std::move(E));
  }

  uint64_t hits() const {
    std::lock_guard<std::mutex> Lock(M);
    return Hits;
  }
  uint64_t misses() const {
    std::lock_guard<std::mutex> Lock(M);
    return Misses;
  }
  uint64_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Map.size();
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Map.clear();
    Hits = Misses = 0;
  }

private:
  mutable std::mutex M;
  std::unordered_map<std::string, Entry> Map;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace spe

#endif // SPE_TESTING_ORACLECACHE_H
