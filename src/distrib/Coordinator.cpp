//===- distrib/Coordinator.cpp - lease-based fleet campaign server --------===//

#include "distrib/Coordinator.h"

#include "persist/Checkpoint.h"
#include "persist/LineText.h"
#include "support/PipedProcess.h"
#include "triage/Deduper.h"

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

using namespace spe;
using namespace spe::linetext;

namespace {

const char JournalMagic[] = "SPE-FLEET-JOURNAL v1";

std::vector<std::string> splitTokens(const std::string &Line) {
  std::vector<std::string> Tokens;
  size_t P = 0;
  while (P < Line.size()) {
    size_t Space = Line.find(' ', P);
    if (Space == std::string::npos)
      Space = Line.size();
    if (Space > P)
      Tokens.push_back(Line.substr(P, Space - P));
    P = Space + 1;
  }
  return Tokens;
}

bool readFileText(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In.is_open())
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

uint64_t steadyMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One contiguous rank range of one seed's budgeted space.
struct Lease {
  uint64_t Id = 0;
  uint64_t SeedIdx = 0;
  uint64_t Begin = 0;
  uint64_t End = 0;
  bool Done = false;
  CampaignResult Fragment;
};

/// Per-slot bookkeeping the fleet status document publishes.
struct WorkerSlot {
  pid_t Pid = -1;
  bool Alive = false;
  uint64_t LeasesDone = 0;
  unsigned Deaths = 0;
};

} // namespace

/// All state the dispatch threads, the status writer, and the journal share
/// for one run() invocation. Everything below Mu is guarded by it.
struct CampaignCoordinator::Impl {
  const CampaignSpec &Spec;
  const FleetOptions &O;
  const std::vector<std::string> &Seeds;

  uint64_t SpecFp = 0;
  uint64_t SeedsFp = 0;
  std::string SpecDoc;
  uint64_t StartMs = 0;

  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<CampaignResult> Headers; ///< Per-seed summarizeSeed headers.
  std::vector<Lease> Leases;           ///< Seed-major, ascending Begin.
  std::deque<size_t> Pending;          ///< Lease indices awaiting a worker.
  uint64_t DoneCount = 0;
  bool Stop = false;
  bool HookStop = false;
  std::string FirstErr;
  FleetStats St;
  std::vector<WorkerSlot> Slots;
  /// Headers plus every recorded fragment, for live status counters only;
  /// the returned Result is rebuilt with the deterministic final merge.
  CampaignResult Live;
  uint64_t Dispatched = 0; ///< Global dispatch ordinal (KillWorkerAtLease).
  uint64_t StatusWrites = 0;
  uint64_t StatusWriteFailures = 0;
  bool StatusWarned = false;
  bool StatusDone = false;

  Impl(const CampaignSpec &Spec, const FleetOptions &O,
       const std::vector<std::string> &Seeds)
      : Spec(Spec), O(O), Seeds(Seeds) {}

  void failLocked(const std::string &Msg) {
    if (FirstErr.empty())
      FirstErr = Msg;
    Stop = true;
    Cv.notify_all();
  }

  void fail(const std::string &Msg) {
    std::lock_guard<std::mutex> G(Mu);
    failLocked(Msg);
  }

  std::string workerStatusPath(unsigned W) const {
    return O.WorkerStatusDir + "/worker" + std::to_string(W) +
           ".status.json";
  }

  //===--- Lease journal --------------------------------------------------===//

  std::string serializeJournalLocked() const {
    std::ostringstream Out;
    Out << JournalMagic << '\n';
    Out << "spec_fp " << SpecFp << '\n';
    Out << "seeds_fp " << SeedsFp << '\n';
    Out << "leases " << Leases.size() << '\n';
    for (const Lease &L : Leases) {
      Out << "lease " << L.Id << ' ' << L.SeedIdx << ' ' << L.Begin << ' '
          << L.End << ' ' << (L.Done ? 1 : 0) << '\n';
      if (L.Done)
        writeResult(Out, L.Fragment);
    }
    return withChecksumTrailer(Out.str());
  }

  void writeJournalLocked() {
    if (O.JournalPath.empty())
      return;
    std::string Err;
    if (!atomicWriteFile(O.JournalPath, serializeJournalLocked(), &Err))
      std::fprintf(stderr, "spe: fleet journal write failed: %s\n",
                   Err.c_str());
  }

  /// Replays a pre-existing journal into Leases. A missing file is a fresh
  /// campaign; anything present must match this campaign's spec, seed
  /// list, and lease partition exactly or the resume is rejected.
  bool loadJournal(std::string &Err) {
    std::string Text;
    if (O.JournalPath.empty() || !readFileText(O.JournalPath, Text))
      return true;
    std::string Body;
    if (!stripChecksumTrailer(Text, Body, Err)) {
      Err = "fleet journal: " + Err;
      return false;
    }
    Reader R(Body);
    bool Ok = !R.Lines.empty() && R.Lines[0].size() == 2 &&
              R.Lines[0][0] + " " + R.Lines[0][1] == JournalMagic;
    if (!Ok) {
      Err = "fleet journal: bad magic";
      return false;
    }
    R.At = 1;
    uint64_t Fp = 0, N = 0;
    const std::vector<std::string> *L = nullptr;
    Ok = (L = R.line("spec_fp", 2)) && R.u64((*L)[1], Fp);
    if (Ok && Fp != SpecFp)
      Ok = R.fail("journal is from a different campaign spec");
    Ok = Ok && (L = R.line("seeds_fp", 2)) && R.u64((*L)[1], Fp);
    if (Ok && Fp != SeedsFp)
      Ok = R.fail("journal is from a different seed list");
    Ok = Ok && (L = R.line("leases", 2)) && R.u64((*L)[1], N);
    if (Ok && N != Leases.size())
      Ok = R.fail("journal lease partition does not match");
    for (size_t I = 0; Ok && I < Leases.size(); ++I) {
      Lease &Mine = Leases[I];
      uint64_t Id = 0, Seed = 0, B = 0, E = 0;
      bool Done = false;
      Ok = (L = R.line("lease", 6)) && R.u64((*L)[1], Id) &&
           R.u64((*L)[2], Seed) && R.u64((*L)[3], B) && R.u64((*L)[4], E) &&
           R.boolTok((*L)[5], Done);
      if (Ok && (Id != Mine.Id || Seed != Mine.SeedIdx || B != Mine.Begin ||
                 E != Mine.End))
        Ok = R.fail("journal lease partition does not match");
      if (Ok && Done) {
        Ok = readResult(R, Mine.Fragment);
        if (Ok) {
          Mine.Done = true;
          ++DoneCount;
          ++St.LeasesRestored;
          Live.merge(Mine.Fragment);
        }
      }
    }
    if (Ok && R.At != R.Lines.size())
      Ok = R.fail("trailing data after fleet journal");
    if (!Ok) {
      Err = "fleet journal: " +
            (R.Err.empty() ? std::string("malformed") : R.Err);
      return false;
    }
    return true;
  }

  //===--- Fleet status document -----------------------------------------===//

  void writeStatusLocked(const char *State) {
    if (O.FleetStatusPath.empty())
      return;
    std::ostringstream J;
    J << "{\"schema\":1,\"state\":\"" << State << "\"";
    J << ",\"uptime_ms\":" << (steadyMs() - StartMs);
    J << ",\"leases\":{\"total\":" << Leases.size()
      << ",\"done\":" << DoneCount << ",\"released\":" << St.Releases
      << "}";
    J << ",\"workers\":[";
    for (size_t W = 0; W < Slots.size(); ++W) {
      const WorkerSlot &S = Slots[W];
      if (W)
        J << ',';
      J << "{\"id\":" << W << ",\"pid\":" << S.Pid << ",\"alive\":"
        << (S.Alive ? "true" : "false") << ",\"leases_done\":"
        << S.LeasesDone << ",\"respawns\":" << S.Deaths;
      // Embed the worker's own heartbeat verbatim when it parses as a
      // JSON object; a missing or torn file just omits the key.
      std::string Doc;
      if (!O.WorkerStatusDir.empty() &&
          readFileText(workerStatusPath(W), Doc)) {
        while (!Doc.empty() && (Doc.back() == '\n' || Doc.back() == '\r' ||
                                Doc.back() == ' '))
          Doc.pop_back();
        if (!Doc.empty() && Doc.front() == '{' && Doc.back() == '}')
          J << ",\"status\":" << Doc;
      }
      J << '}';
    }
    J << ']';
    J << ",\"counters\":{\"enumerated\":" << Live.VariantsEnumerated
      << ",\"tested\":" << Live.VariantsTested
      << ",\"pruned\":" << Live.VariantsPruned
      << ",\"oracle_excluded\":" << Live.VariantsOracleExcluded
      << ",\"oracle_execs\":" << Live.OracleExecutions
      << ",\"cache_hits\":" << Live.OracleCacheHits
      << ",\"timeouts\":" << Live.ExecutionTimeouts
      << ",\"matrix_cells\":" << Live.MatrixCellsCompared
      << ",\"raw_findings\":" << Live.RawFindings.size()
      << ",\"unique_bugs\":" << Live.UniqueBugs.size() << "}";
    // Committed-write semantics, exactly as status.schema.json documents
    // them: the counts cover documents that landed before this one.
    J << ",\"write_failures\":" << StatusWriteFailures
      << ",\"writes\":" << StatusWrites << "}\n";
    std::string Err;
    if (atomicWriteFile(O.FleetStatusPath, J.str(), &Err)) {
      ++StatusWrites;
      StatusWarned = false;
    } else {
      ++StatusWriteFailures;
      if (!StatusWarned) {
        StatusWarned = true;
        std::fprintf(stderr, "spe: fleet status write failed: %s\n",
                     Err.c_str());
      }
    }
  }
};

CampaignCoordinator::CampaignCoordinator(CampaignSpec Spec, FleetOptions Opts)
    : Spec(std::move(Spec)), Opts(std::move(Opts)) {}

bool CampaignCoordinator::run(const std::vector<std::string> &Seeds,
                              CampaignResult &Result, std::string &Err) {
  Result = CampaignResult();
  Stats = FleetStats();
  StoppedByHook = false;
  if (Opts.WorkerCommand.empty()) {
    Err = "fleet: no worker command configured";
    return false;
  }
  const unsigned Workers = Opts.Workers == 0 ? 1 : Opts.Workers;

  Impl I(Spec, Opts, Seeds);
  I.SpecDoc = serializeSpec(Spec);
  I.SpecFp = fingerprintSpec(Spec);
  I.SeedsFp = fingerprintSeeds(Seeds);
  I.StartMs = steadyMs();
  I.Slots.resize(Workers);

  //===--- Plan: headers + lease partition, no enumeration ---------------===//

  const HarnessOptions HO(Spec);
  DifferentialHarness Planner(HO);
  I.Headers.resize(Seeds.size());
  std::vector<size_t> FirstLease(Seeds.size() + 1, 0);
  for (size_t S = 0; S < Seeds.size(); ++S) {
    FirstLease[S] = I.Leases.size();
    DifferentialHarness::SeedLeaseSummary Sum = Planner.summarizeSeed(Seeds[S]);
    I.Headers[S] = std::move(Sum.Header);
    I.Live.merge(I.Headers[S]);
    if (!Sum.Enumerable)
      continue;
    const uint64_t Budget = Sum.Budget.toUint64();
    uint64_t Ranks = Opts.LeaseRanks;
    if (Ranks == 0)
      Ranks = (Budget + 4 * Workers - 1) / (4 * Workers);
    if (Ranks == 0)
      Ranks = 1;
    for (uint64_t B = 0; B < Budget; B += Ranks) {
      Lease L;
      L.Id = I.Leases.size();
      L.SeedIdx = S;
      L.Begin = B;
      L.End = B + Ranks < Budget ? B + Ranks : Budget;
      I.Leases.push_back(std::move(L));
    }
  }
  FirstLease[Seeds.size()] = I.Leases.size();
  I.St.LeasesTotal = I.Leases.size();

  if (!I.loadJournal(Err))
    return false;
  for (size_t Idx = 0; Idx < I.Leases.size(); ++Idx)
    if (!I.Leases[Idx].Done)
      I.Pending.push_back(Idx);

  //===--- Dispatch ------------------------------------------------------===//

  auto workerMain = [&I](unsigned W) {
    std::unique_ptr<PipedProcess> Proc;
    std::set<uint64_t> SeedsSent;

    // A worker death: confirm via wait status, requeue the in-flight
    // lease, and let the next dispatch respawn -- unless this slot has
    // burned its respawn budget (a lease that kills every worker that
    // touches it is poison, not bad luck).
    auto onDeath = [&](size_t Idx) {
      Proc->kill(SIGKILL);
      Proc->wait();
      Proc.reset();
      std::lock_guard<std::mutex> G(I.Mu);
      WorkerSlot &S = I.Slots[W];
      S.Alive = false;
      ++S.Deaths;
      ++I.St.WorkerDeaths;
      ++I.St.Releases;
      I.Pending.push_front(Idx);
      if (S.Deaths > I.O.MaxRespawns)
        I.failLocked("fleet: worker slot " + std::to_string(W) +
                     " exceeded its respawn budget");
      I.Cv.notify_all();
    };

    for (;;) {
      size_t Idx;
      {
        std::unique_lock<std::mutex> L(I.Mu);
        I.Cv.wait(L, [&] {
          return I.Stop || !I.Pending.empty() ||
                 I.DoneCount == I.Leases.size();
        });
        if (I.Stop || I.Pending.empty())
          break;
        Idx = I.Pending.front();
        I.Pending.pop_front();
      }

      if (!Proc) {
        Proc = std::make_unique<PipedProcess>();
        std::vector<std::string> Cmd = I.O.WorkerCommand;
        if (!I.O.WorkerStatusDir.empty()) {
          Cmd.push_back("--status");
          Cmd.push_back(I.workerStatusPath(W));
        }
        std::string SErr;
        if (!Proc->start(Cmd, SErr)) {
          std::lock_guard<std::mutex> G(I.Mu);
          I.Pending.push_front(Idx);
          I.failLocked("fleet: cannot start worker: " + SErr);
          return;
        }
        SeedsSent.clear();
        {
          std::lock_guard<std::mutex> G(I.Mu);
          ++I.St.WorkersSpawned;
          I.Slots[W].Pid = Proc->pid();
          I.Slots[W].Alive = true;
        }
        std::string Resp;
        if (!Proc->writeLine("spec " + escapeToken(I.SpecDoc)) ||
            !Proc->readLine(Resp)) {
          onDeath(Idx);
          continue;
        }
        std::vector<std::string> T = splitTokens(Resp);
        uint64_t Fp = 0;
        if (T.size() != 2 || T[0] != "ready" || !parseU64(T[1], Fp)) {
          I.fail("fleet: bad worker handshake: \"" + Resp + "\"");
          break;
        }
        if (Fp != I.SpecFp) {
          I.fail("fleet: worker echoed spec fingerprint " + T[1] +
                 ", expected " + std::to_string(I.SpecFp) +
                 " (skewed worker binary?)");
          break;
        }
      }

      const Lease &L = I.Leases[Idx];
      bool Sent = true;
      if (!SeedsSent.count(L.SeedIdx)) {
        Sent = Proc->writeLine("seed " + std::to_string(L.SeedIdx) + " " +
                               escapeToken(I.Seeds[L.SeedIdx]));
        if (Sent)
          SeedsSent.insert(L.SeedIdx);
      }
      Sent = Sent && Proc->writeLine("lease " + std::to_string(L.Id) + " " +
                                     std::to_string(L.SeedIdx) + " " +
                                     std::to_string(L.Begin) + " " +
                                     std::to_string(L.End));
      if (Sent) {
        uint64_t Ordinal;
        {
          std::lock_guard<std::mutex> G(I.Mu);
          Ordinal = ++I.Dispatched;
        }
        if (I.O.KillWorkerAtLease && Ordinal == I.O.KillWorkerAtLease)
          Proc->kill(SIGKILL);
      }

      std::string Resp;
      if (!Sent || !Proc->readLine(Resp)) {
        onDeath(Idx);
        continue;
      }
      std::vector<std::string> T = splitTokens(Resp);
      if (T.size() == 2 && T[0] == "error") {
        std::string Msg;
        unescapeToken(T[1], Msg);
        // A reported error is deterministic (the lease itself failed, not
        // the process) -- re-leasing would fail identically.
        I.fail("fleet: worker reported: " + Msg);
        break;
      }
      std::string FragText, PErr;
      CampaignResult Frag;
      if (T.size() != 3 || T[0] != "done" ||
          T[1] != std::to_string(L.Id) ||
          !unescapeToken(T[2], FragText) ||
          !parseFragment(FragText, Frag, PErr)) {
        I.fail("fleet: lease " + std::to_string(L.Id) +
               ": bad worker reply" + (PErr.empty() ? "" : ": " + PErr));
        break;
      }

      std::lock_guard<std::mutex> G(I.Mu);
      Lease &Mine = I.Leases[Idx];
      Mine.Done = true;
      Mine.Fragment = std::move(Frag);
      ++I.DoneCount;
      ++I.St.LeasesRun;
      ++I.Slots[W].LeasesDone;
      I.Live.merge(Mine.Fragment);
      I.writeJournalLocked();
      if (I.O.StopAfterFragments &&
          I.St.LeasesRun >= I.O.StopAfterFragments) {
        I.HookStop = true;
        I.Stop = true;
      }
      I.Cv.notify_all();
    }

    if (Proc) {
      Proc->writeLine("exit");
      Proc->closeStdin();
      Proc->wait();
      std::lock_guard<std::mutex> G(I.Mu);
      I.Slots[W].Alive = false;
    }
  };

  std::thread StatusThread;
  if (!Opts.FleetStatusPath.empty()) {
    StatusThread = std::thread([&I] {
      std::unique_lock<std::mutex> L(I.Mu);
      while (!I.StatusDone) {
        I.writeStatusLocked("running");
        I.Cv.wait_for(L, std::chrono::milliseconds(
                             I.O.StatusEveryMs == 0 ? 1 : I.O.StatusEveryMs),
                      [&] { return I.StatusDone; });
      }
    });
  }

  std::vector<std::thread> Threads;
  Threads.reserve(Workers);
  for (unsigned W = 0; W < Workers; ++W)
    Threads.emplace_back(workerMain, W);
  for (std::thread &T : Threads)
    T.join();

  //===--- Deterministic final merge -------------------------------------===//

  {
    std::lock_guard<std::mutex> G(I.Mu);
    for (size_t S = 0; S < Seeds.size(); ++S) {
      Result.merge(I.Headers[S]);
      for (size_t Idx = FirstLease[S]; Idx < FirstLease[S + 1]; ++Idx)
        if (I.Leases[Idx].Done)
          Result.merge(I.Leases[Idx].Fragment);
    }
    Stats = I.St;
    StoppedByHook = I.HookStop;
  }

  const bool Failed = !I.FirstErr.empty();
  if (!Failed && !StoppedByHook) {
    if (!Opts.CheckpointPath.empty()) {
      // The Complete pre-triage snapshot the equivalent single-process
      // checkpointed campaign leaves behind, byte for byte.
      CampaignCheckpoint CP;
      CP.OptionsFingerprint = fingerprintOptions(HO);
      CP.SeedsFingerprint = I.SeedsFp;
      CP.Complete = true;
      CP.NextSeed = Seeds.size();
      CP.Merged = Result;
      std::string CErr;
      if (!CP.saveTo(Opts.CheckpointPath, &CErr))
        std::fprintf(stderr, "spe: fleet checkpoint write failed: %s\n",
                     CErr.c_str());
    }
    if (Spec.Triage)
      triageCampaign(Result, HO);
  }

  {
    std::lock_guard<std::mutex> G(I.Mu);
    I.StatusDone = true;
    I.Cv.notify_all();
  }
  if (StatusThread.joinable())
    StatusThread.join();
  {
    std::lock_guard<std::mutex> G(I.Mu);
    I.writeStatusLocked(Failed ? "failed" : "complete");
  }

  if (Failed) {
    Err = I.FirstErr;
    return false;
  }
  return true;
}
