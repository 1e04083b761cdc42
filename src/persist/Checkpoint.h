//===- persist/Checkpoint.h - campaign snapshot format -------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The versioned on-disk snapshot a long-haul campaign periodically writes
/// so it can be killed at any instant and resumed with a final result
/// bit-identical to the uninterrupted run (DESIGN.md Section 11).
///
/// What makes perfect resume *possible* is the deterministic mixed-radix
/// ranking of the enumeration cursors: a worker's entire future is a pure
/// function of (seed, options, cursor rank range), so a snapshot only needs
/// per-worker CursorState plus each worker's partial CampaignResult -- the
/// exact fold of the ranks it already consumed. Everything else in the file
/// is validation (format version, whole-file checksum, fingerprints of the
/// options, the seed list, and the in-flight seed's validity constraints)
/// so a resume against skewed inputs is rejected loudly instead of
/// silently diverging.
///
/// The format is line-oriented text with space-separated tokens; embedded
/// strings (bug signatures, witness programs, coverage point names) are
/// escaped to keep tokens whitespace-free. Files are written atomically
/// (temp file + rename) by saveTo. The serialized layout is pinned by a
/// golden file under tests/golden/; bump FormatVersion on any change.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_PERSIST_CHECKPOINT_H
#define SPE_PERSIST_CHECKPOINT_H

#include "core/ValidityPruning.h"
#include "skeleton/ProgramEnumerator.h"
#include "testing/Harness.h"

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace spe {

/// One rank chunk's saved progress inside the in-flight seed, written as a
/// `worker` block. An unclaimed chunk is its range with an empty partial.
struct WorkerCheckpoint {
  /// True once the chunk's final publish ran (range exhausted, pruned
  /// counter folded into Partial). Finished chunks are restored verbatim,
  /// not re-run; Position == End alone is *not* sufficient to tell -- a
  /// mid-run publish can land after the last variant but before the fold.
  bool Finished = false;
  /// The chunk's ProgramCursor position (rank range + pruned counter).
  CursorState Cursor;
  /// Fold of the ranks in [chunk begin, Cursor.Position). VariantsPruned
  /// stays zero until the final publish folds the cursor's counter, so
  /// restored counters never double-count.
  CampaignResult Partial;
  /// The chunk's private coverage registry hit set.
  std::set<std::string> CovHits;

  bool operator==(const WorkerCheckpoint &Other) const {
    return Finished == Other.Finished && Cursor == Other.Cursor &&
           Partial == Other.Partial && CovHits == Other.CovHits;
  }
};

/// A whole-campaign snapshot: the merged result of completed seeds plus,
/// when a seed is mid-enumeration, the states of its rank chunks.
struct CampaignCheckpoint {
  /// Bump on any serialized-layout change; loadFrom rejects other versions.
  /// v2: counters line gained ExecutionTimeouts; finding lines gained the
  /// signature-only key token (FindingKey::Sig).
  /// v3 (differential matrix, DESIGN.md Section 14): counters line gained
  /// MatrixCellsCompared + SweepCellsExcluded; bug fields gained the
  /// attributed backend identity and the sweep input; finding keys gained
  /// BackendIdx + InputIdx.
  static constexpr unsigned FormatVersion = 3;

  /// Fingerprint of the campaign-shaping HarnessOptions fields (mode,
  /// extraction, threshold, budget, threads, configs, bug injection,
  /// pruning, cache/store presence). Resume rejects a mismatch.
  uint64_t OptionsFingerprint = 0;
  /// Fingerprint of the seed list (count + every text).
  uint64_t SeedsFingerprint = 0;
  /// Valid byte length of the OracleStore log when this snapshot was
  /// published; resume truncates the log back to it (persist/OracleStore.h).
  uint64_t StoreBytes = 0;
  /// True for the final snapshot: every seed merged, campaign done.
  bool Complete = false;
  /// Index of the first seed not folded into Merged.
  uint64_t NextSeed = 0;
  /// Fold of seeds [0, NextSeed).
  CampaignResult Merged;
  /// The user coverage registry's hit set after seeds [0, NextSeed) -- the
  /// base state every in-flight worker's private copy diverged from.
  std::set<std::string> CovHits;

  /// True when seed NextSeed is mid-enumeration and Workers below is live.
  bool InFlight = false;
  /// Fingerprint of the in-flight seed's ValidityConstraints; pruning
  /// changes rank-skip behavior, so resuming against skewed analysis facts
  /// is rejected.
  uint64_t ConstraintsFingerprint = 0;
  /// The in-flight seed's pre-enumeration counters (SeedsProcessed /
  /// SeedsSkippedByThreshold increments), merged before worker partials.
  /// Resume recomputes this deterministically and cross-checks it against
  /// the recorded value as an extra front-end skew detector.
  CampaignResult SeedHeader;
  /// One entry per rank chunk of the in-flight seed, in rank order: the
  /// seed's whole grid, whatever the thread count that wrote it.
  std::vector<WorkerCheckpoint> Workers;

  bool operator==(const CampaignCheckpoint &Other) const {
    return OptionsFingerprint == Other.OptionsFingerprint &&
           SeedsFingerprint == Other.SeedsFingerprint &&
           StoreBytes == Other.StoreBytes && Complete == Other.Complete &&
           NextSeed == Other.NextSeed && Merged == Other.Merged &&
           CovHits == Other.CovHits && InFlight == Other.InFlight &&
           ConstraintsFingerprint == Other.ConstraintsFingerprint &&
           SeedHeader == Other.SeedHeader && Workers == Other.Workers;
  }

  /// Serializes to the versioned text format, checksum line included.
  std::string serialize() const;

  /// Parses \p Text. \returns false with a diagnostic in \p Err on any
  /// malformation: bad magic or version skew, checksum mismatch (corrupt
  /// or truncated file), or structural damage.
  static bool deserialize(const std::string &Text, CampaignCheckpoint &Out,
                          std::string &Err);

  /// Atomically writes the snapshot: serialize to \p Path + ".tmp", flush,
  /// rename over \p Path. A crash mid-write leaves the previous snapshot
  /// intact. \returns false on I/O failure.
  bool saveTo(const std::string &Path, std::string *Err = nullptr) const;

  /// Reads and deserializes \p Path. \returns false with a diagnostic on a
  /// missing, corrupt, truncated, or version-skewed file.
  static bool loadFrom(const std::string &Path, CampaignCheckpoint &Out,
                       std::string &Err);
};

/// Atomically writes \p Text to \p Path: temp file + flush + rename, so a
/// crash mid-write leaves any previous file intact. \returns false on I/O
/// failure (the temp file is cleaned up). This is the write primitive
/// under CampaignCheckpoint::saveTo, exposed so callers that serialize
/// under a lock can perform the disk write outside it.
bool atomicWriteFile(const std::string &Path, const std::string &Text,
                     std::string *Err = nullptr);

/// Fingerprints the campaign-shaping fields of \p Opts (FNV-1a): every
/// result-affecting CampaignSpec field in walkCampaignSpec order, then the
/// cache/store/coverage presence bits and the backend roster's identity()
/// strings (command line + --version output for external backends).
/// Checkpoint cadence, paths and observation hooks are excluded --
/// resuming with a different CheckpointEveryN is sound.
uint64_t fingerprintOptions(const HarnessOptions &Opts);

/// Fingerprints the seed list: count plus every program text.
uint64_t fingerprintSeeds(const std::vector<std::string> &Seeds);

/// Fingerprints per-unit validity constraints (forbidden tables).
uint64_t
fingerprintConstraints(const std::vector<ValidityConstraints> &Tables);

} // namespace spe

#endif // SPE_PERSIST_CHECKPOINT_H
