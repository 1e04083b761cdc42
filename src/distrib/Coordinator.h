//===- distrib/Coordinator.h - lease-based fleet campaign server ---------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The CampaignCoordinator (DESIGN.md Section 16): owns every seed's
/// budgeted rank space, partitions it into contiguous leases, and hands
/// them to worker *processes* over the line-framed pipe protocol
/// (distrib/FleetProtocol.h). Fragments stream back per lease; the final
/// merge folds each seed's header counters first and then its fragments in
/// ascending rank order -- exactly the deterministic merge a campaign's
/// rank chunks use -- so a coordinator + N workers campaign is
/// bit-identical to the single-process run, for any worker count, lease
/// size, or batch size.
///
/// Fault tolerance:
///  - A worker death (EOF on its pipe, confirmed by wait status) requeues
///    the in-flight lease and respawns the worker; because a lease's
///    fragment is recorded exactly once and a dead worker's partial work
///    never leaves its process, re-leased ranges cannot double-count.
///  - The lease journal (atomic write-then-rename + checksum, the persist/
///    idioms) is rewritten after every completed fragment; a SIGKILLed
///    coordinator resumes by replaying completed leases from the journal
///    and re-running only the rest. Spec and seed-list fingerprints gate
///    resume exactly like checkpoint resume does.
///
/// The coordinator also aggregates per-worker status.json heartbeats into
/// one fleet-level document (schemas/fleet_status.schema.json).
///
//===----------------------------------------------------------------------===//

#ifndef SPE_DISTRIB_COORDINATOR_H
#define SPE_DISTRIB_COORDINATOR_H

#include "distrib/FleetProtocol.h"
#include "support/BigInt.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spe {

struct FleetOptions {
  /// argv of the worker binary (tools/fleet_worker.cpp). The coordinator
  /// appends "--status <path>" when WorkerStatusDir is set.
  std::vector<std::string> WorkerCommand;
  /// Worker processes to run concurrently.
  unsigned Workers = 2;
  /// Ranks per lease; 0 = auto (about four leases per worker per seed, so
  /// re-leased work after a death stays small without drowning the fleet
  /// in round trips).
  uint64_t LeaseRanks = 0;
  /// When non-empty, the crash-consistent lease journal lands here and a
  /// pre-existing valid journal for this exact campaign resumes it.
  std::string JournalPath;
  /// When non-empty, the aggregated fleet status document lands here.
  std::string FleetStatusPath;
  /// When non-empty, each worker writes its own status.json heartbeat to
  /// <dir>/worker<i>.status.json and the fleet document embeds them.
  std::string WorkerStatusDir;
  /// Fleet status write cadence in milliseconds.
  uint64_t StatusEveryMs = 500;
  /// Times a single worker slot may be respawned after a death before the
  /// campaign aborts (a worker dying on every lease it touches means the
  /// lease itself is poison, not the process).
  unsigned MaxRespawns = 8;
  /// When non-empty, the coordinator writes a Complete campaign checkpoint
  /// (persist/Checkpoint.h) of the merged pre-triage result here --
  /// byte-identical to the one the equivalent single-process checkpointed
  /// campaign leaves behind.
  std::string CheckpointPath;

  //===--- Test hooks (the kill-point battery) --------------------------===//

  /// Stop dispatching after this many fragments have been recorded (0 =
  /// off). The journal stays valid, so a fresh coordinator resumes; this
  /// simulates a coordinator SIGKILL at a fragment boundary.
  uint64_t StopAfterFragments = 0;
  /// SIGKILL the worker right after dispatching the Nth lease (1-based,
  /// 0 = off): the lease must be detected as dead, requeued, and re-run
  /// with no double-counted stats.
  uint64_t KillWorkerAtLease = 0;
};

struct FleetStats {
  uint64_t LeasesTotal = 0;
  uint64_t LeasesRun = 0;      ///< Fragments produced by live workers.
  uint64_t LeasesRestored = 0; ///< Fragments replayed from the journal.
  uint64_t Releases = 0;       ///< Leases requeued after a worker death.
  uint64_t WorkersSpawned = 0;
  uint64_t WorkerDeaths = 0;
};

class CampaignCoordinator {
public:
  CampaignCoordinator(CampaignSpec Spec, FleetOptions Opts);

  /// Runs the fleet campaign over \p Seeds into \p Result. \returns false
  /// with \p Err set on unrecoverable failures (worker binary unstartable,
  /// respawn budget exhausted, corrupt journal for this campaign). When
  /// StopAfterFragments fires, \returns true with stoppedByHook() set and
  /// a partial Result; the journal carries the completed prefix.
  bool run(const std::vector<std::string> &Seeds, CampaignResult &Result,
           std::string &Err);

  const FleetStats &stats() const { return Stats; }
  bool stoppedByHook() const { return StoppedByHook; }

private:
  struct Impl;

  CampaignSpec Spec;
  FleetOptions Opts;
  FleetStats Stats;
  bool StoppedByHook = false;
};

} // namespace spe

#endif // SPE_DISTRIB_COORDINATOR_H
