//===- testing/OracleCache.h - memoized reference-oracle verdicts --------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A memoizing cache for reference-oracle verdicts, keyed by the rendered
/// program text (with the step budget and the stdin input). The oracle run
/// (parse + Sema + reference interpretation, Section 5.4) dominates
/// per-variant cost, and campaigns repeat it: persona/version sweeps
/// re-test the same seeds, and shards of different campaigns can meet the
/// same variant. Ranks of one seed can meet a text too: distinct canonical
/// assignments usually print distinct programs, but where a skeleton
/// variable is shadowed at a hole, several print the same one. A shared
/// cache turns every repeat into a lookup.
///
/// The cache is safe for concurrent workers (a single mutex; the payloads
/// are small) and is *determinism-preserving*: a hit replays the exact
/// stored verdict of the deterministic interpreter, so campaign results
/// are bit-identical with and without the cache -- only the
/// OracleExecutions / OracleCacheHits counters differ -- and those
/// counters are identical for any thread count, because a miss claims its
/// key. Until the claimant fills the claim, a concurrent lookup of that key
/// waits for the verdict and counts as a hit, so each key is interpreted
/// once however the threads interleave.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_TESTING_ORACLECACHE_H
#define SPE_TESTING_ORACLECACHE_H

#include "interp/Interpreter.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

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

  /// A missed lookup's hold on its key, filled at most once. fill()
  /// memoizes the claimant's verdict; a claim destroyed unfilled is
  /// released, and a waiting lookup then misses and claims the key itself,
  /// so no waiter is stranded whatever path the claimant takes.
  class Claim {
  public:
    Claim() = default;
    Claim(const Claim &) = delete;
    Claim &operator=(const Claim &) = delete;
    ~Claim() { release(); }

    /// Memoizes \p E for the claimed key and wakes its waiters; a no-op
    /// when nothing is claimed.
    void fill(Entry E) {
      if (Cache)
        std::exchange(Cache, nullptr)->insert(Key, std::move(E));
    }

  private:
    friend class OracleCache;
    void release() {
      if (Cache)
        std::exchange(Cache, nullptr)->release(Key);
    }

    OracleCache *Cache = nullptr;
    std::string Key;
  };

  /// \returns true and fills \p Out when \p Key has a memoized verdict,
  /// waiting first while another thread holds a claim on it. Otherwise
  /// \returns false and, with \p Miss set, claims \p Key into it (a claim
  /// \p Miss held before is released). Counts a hit or a miss either way.
  bool lookup(const std::string &Key, Entry &Out, Claim *Miss = nullptr) {
    if (Miss)
      Miss->release();
    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      auto It = Map.find(Key);
      if (It != Map.end()) {
        ++Hits;
        Out = It->second;
        return true;
      }
      if (!Claimed.count(Key))
        break;
      Released.wait(Lock);
    }
    ++Misses;
    if (Miss) {
      Claimed.insert(Key);
      Miss->Cache = this;
      Miss->Key = Key;
    }
    return false;
  }

  /// Memoizes \p E for \p Key (first writer wins; the oracle is
  /// deterministic, so racing writers agree) and releases a claim on it.
  void insert(const std::string &Key, Entry E) {
    bool WasClaimed;
    {
      std::lock_guard<std::mutex> Lock(M);
      Map.emplace(Key, std::move(E));
      WasClaimed = Claimed.erase(Key) != 0;
    }
    if (WasClaimed)
      Released.notify_all();
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
  /// Drops the claim on \p Key unfilled.
  void release(const std::string &Key) {
    {
      std::lock_guard<std::mutex> Lock(M);
      Claimed.erase(Key);
    }
    Released.notify_all();
  }

  mutable std::mutex M;
  /// Signalled whenever a claim ends, filled or not.
  std::condition_variable Released;
  std::unordered_map<std::string, Entry> Map;
  /// Keys a missed lookup holds until its verdict is inserted.
  std::unordered_set<std::string> Claimed;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace spe

#endif // SPE_TESTING_ORACLECACHE_H
