//===- distrib/FleetProtocol.h - coordinator/worker wire format ----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-framed protocol between a CampaignCoordinator and its worker
/// processes (DESIGN.md Section 16). Every payload -- the campaign spec, a
/// seed's source, a per-lease CampaignResult fragment -- is serialized with
/// the checkpoint line-text helpers (persist/LineText.h) and escaped into a
/// single whitespace-free token, so one protocol message is always exactly
/// one line and splits on spaces:
///
///   coordinator -> worker        worker -> coordinator
///   ------------------------     -------------------------------
///   spec <escaped-spec-doc>      ready <spec-fingerprint>
///   seed <idx> <escaped-src>
///   lease <id> <seed> <b> <e>    done <id> <escaped-fragment>
///   exit                         error <escaped-message>   (fatal)
///
/// FleetSpec is the serializable subset of HarnessOptions a worker needs to
/// reproduce the coordinator's enumeration exactly: pointer-valued options
/// (Backend, Cache, Cov, Telemetry) deliberately have no wire form -- fleet
/// campaigns run the in-process backend with no shared cache, which is what
/// keeps per-lease oracle counters independent of how leases land on
/// workers. The spec fingerprint (FNV-1a over the serialized form) is
/// echoed by the worker's `ready` and embedded in the lease journal, so a
/// mismatched worker binary or a journal from a different campaign is
/// rejected instead of silently skewing results.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_DISTRIB_FLEETPROTOCOL_H
#define SPE_DISTRIB_FLEETPROTOCOL_H

#include "testing/Harness.h"

#include <string>
#include <vector>

namespace spe {

/// The wire-serializable campaign configuration a fleet shares.
struct FleetSpec {
  SpeMode Mode = SpeMode::Exact;
  ExtractorOptions Extract;
  uint64_t VariantThreshold = 10'000;
  uint64_t VariantBudget = 400;
  /// Folded into the checkpoint options fingerprint only (leases always
  /// run single-cursor): set this to the thread count of the equivalent
  /// single-process campaign so the coordinator's final checkpoint is
  /// byte-identical to that run's.
  unsigned Threads = 1;
  uint64_t BatchSize = 1;
  std::vector<CompilerConfig> Configs;
  bool InjectBugs = true;
  bool PruneInvalid = true;
  bool Triage = false;
  /// HarnessOptions::OracleMaxSteps: which variants the oracle excludes as
  /// Timeout, so every worker must run the campaign's own budget.
  uint64_t OracleMaxSteps = 2'000'000;

  /// Line-text document (magic, options line, config/sweep lines).
  std::string serialize() const;
  static bool parse(const std::string &Text, FleetSpec &Out,
                    std::string &Err);
  /// FNV-1a over serialize(): one number both sides agree on.
  uint64_t fingerprint() const;
  /// The harness options a worker (or the coordinator's own planner) runs
  /// under. Pointer-valued options are left at their defaults.
  HarnessOptions toHarnessOptions() const;
};

/// Serializes the checkpointed portion of \p R (counters + finding maps,
/// persist/LineText layout) with a checksum trailer.
std::string serializeFragment(const CampaignResult &R);

/// Inverse of serializeFragment; checksum-verified before parsing.
bool parseFragment(const std::string &Text, CampaignResult &Out,
                   std::string &Err);

} // namespace spe

#endif // SPE_DISTRIB_FLEETPROTOCOL_H
