//===- perfbench/perfbench.cpp - campaign benchmark driver ---------------===//
//
// One process runs one iteration of one workload: set up fresh state, run
// the campaign (or the enumeration stream), record its wall time, CPU and
// correctness digest, then time stand-alone set-ups; run.py repeats such
// processes as a closed loop. With --trace 1 the iteration is followed by
// an untraced and a traced replay that drive every layer's public entry
// points in the harness's own order (the traced one with a span around
// each call), then one harness run with the library's TelemetrySink
// attached for the phases only the harness can see (pooled compiles,
// checkpoint writes, broker pool statistics).
//
// Prints one JSON object on stdout; run.py turns it into metrics and checks
// the digests against pins.json.
//
//   perfbench --workload corpus2p --seed 1 --trace 0
//             --base 2000 --work .bench_build/work/x
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "compiler/ExternalBackend.h"
#include "compiler/VM.h"
#include "core/ValidityPruning.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantRenderer.h"
#include "support/Diagnostics.h"
#include "support/ProcessPool.h"
#include "support/ProcessRunner.h"
#include "support/Telemetry.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace spe;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Resets the kernel's RSS high-water mark to the current RSS, so each
/// iteration reports its own peak rather than the process's running
/// maximum (which would grow with the iteration count).
void resetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM in KiB: the peak RSS since the last resetPeakRss().
uint64_t peakRssKb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(Line.c_str() + 6, nullptr, 10);
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<uint64_t>(U.ru_maxrss);
}

/// Processor time the hypervisor withheld from this machine's processors
/// (the steal column of /proc/stat), in seconds; 0 where not reported.
double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t Field[8] = {};
  In >> Cpu;
  for (uint64_t &F : Field)
    In >> F;
  return static_cast<double>(Field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double cpuSeconds(int Who) {
  rusage U;
  getrusage(Who, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

uint64_t fnv1a(uint64_t H, const void *Data, size_t Len) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I < Len; ++I) {
    H ^= P[I];
    H *= FnvPrime;
  }
  return H;
}

uint64_t fnv1a(uint64_t H, const std::string &S) {
  // The terminating NUL separates consecutive strings in one stream.
  return fnv1a(H, S.c_str(), S.size() + 1);
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx", static_cast<unsigned long long>(V));
  return Buf;
}

uint64_t splitmix64(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// The seed programs of one workload, in the order the run feeds them.
/// --seed permutes the order (Fisher-Yates over splitmix64, so the order is
/// the same on every platform); --base picks the generated corpus itself.
/// Every pinned digest is order-independent, so one pin serves all seeds.
struct Corpus {
  std::vector<std::string> Seeds;
  std::vector<size_t> Index; ///< Seeds[I] is corpus program Index[I].
};

Corpus makeCorpus(const std::string &Workload, uint64_t Base, uint64_t Seed) {
  std::vector<std::string> Programs;
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  if (Workload == "loops_ckpt" || Workload == "enum_loops") {
    CO.BoundedLoopProb = 0.6;
    CO.RichHelperProb = 0.6;
    Programs = generateCorpus(Base, 12, CO);
  } else {
    Programs = embeddedSeeds();
    std::vector<std::string> Gen = generateCorpus(Base, 40, CO);
    Programs.insert(Programs.end(), Gen.begin(), Gen.end());
  }
  Corpus C;
  C.Index.resize(Programs.size());
  for (size_t I = 0; I < C.Index.size(); ++I)
    C.Index[I] = I;
  uint64_t State = Seed;
  for (size_t I = C.Index.size(); I > 1; --I)
    std::swap(C.Index[I - 1], C.Index[splitmix64(State) % I]);
  for (size_t I : C.Index)
    C.Seeds.push_back(Programs[I]);
  return C;
}

//===----------------------------------------------------------------------===//
// Workload settings
//===----------------------------------------------------------------------===//

/// One harness pass of a campaign workload.
struct Pass {
  std::vector<CompilerConfig> Configs;
};

struct Settings {
  std::vector<Pass> Passes;
  uint64_t Budget = 400;
  uint64_t Threshold = 10'000;
  uint64_t MaxSteps = 2'000'000;
  unsigned Threads = 1;
  bool External = false;
  bool Checkpointed = false; ///< Shared cache + store + checkpoints.
  bool Enumerate = false;    ///< enum_loops: stream and render only.
  uint64_t BatchSize = 1;
};

/// Ranks streamed per seed by enum_loops.
constexpr uint64_t EnumRankCap = 5000;

/// Set-ups a process times on its own, on top of its iteration's one.
constexpr int SetupRepeats = 10;

Settings settingsFor(const std::string &W) {
  Settings S;
  if (W == "corpus2p") {
    Pass P;
    P.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
    auto Clang = HarnessOptions::crashMatrix(Persona::ClangSim, 39);
    P.Configs.insert(P.Configs.end(), Clang.begin(), Clang.end());
    S.Passes = {P};
  } else if (W == "loops_ckpt") {
    S.Passes = {{HarnessOptions::crashMatrix(Persona::GccSim, 48)},
                {HarnessOptions::crashMatrix(Persona::ClangSim, 36)}};
    S.Budget = 200;
    S.Threshold = 1'000'000'000'000'000ull;
    S.MaxSteps = 100'000;
    S.Threads = 2;
    S.Checkpointed = true;
  } else if (W == "ext_gcc") {
    // -O0 against -O2 of the host cc; 140 is only a label on findings.
    Pass P;
    for (unsigned Opt : {0u, 2u}) {
      CompilerConfig C;
      C.P = Persona::GccSim;
      C.Version = 140;
      C.OptLevel = Opt;
      P.Configs.push_back(C);
    }
    S.Passes = {P};
    S.Budget = 64;
    S.MaxSteps = 100'000;
    S.External = true;
    S.BatchSize = 64;
  } else if (W == "enum_loops") {
    S.Budget = EnumRankCap;
    S.Threshold = ~uint64_t(0);
    S.Enumerate = true;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Correctness digest
//===----------------------------------------------------------------------===//

/// The result-defining part of one iteration: pinned in pins.json. Cost
/// counters (OracleExecutions, VariantsPruned, cache hits) are deliberately
/// absent -- pruning and caching changes may lower them legitimately.
struct Digest {
  uint64_t Tested = 0;
  uint64_t Excluded = 0;
  /// Backend cells (variant x config) that compiled and ran to completion.
  uint64_t ExecOk = 0;
  std::set<int> Bugs;
  std::set<std::string> Raw;
  /// enum_loops: rendered variant count and stream hash.
  uint64_t Rendered = 0;
  uint64_t StreamHash = 0;

  void add(const CampaignResult &R) {
    Tested += R.VariantsTested;
    Excluded += R.VariantsOracleExcluded;
    for (const auto &[Id, Bug] : R.UniqueBugs) {
      (void)Bug;
      Bugs.insert(Id);
    }
    for (const auto &[K, Bug] : R.RawFindings) {
      (void)Bug;
      std::ostringstream OS;
      OS << K.BugId << '/' << static_cast<int>(K.P) << '/' << K.Version
         << "/O" << K.OptLevel << '/' << (K.Mode64 ? 64 : 32) << '/'
         << K.BackendIdx << '/' << K.InputIdx << '/' << K.Sig;
      Raw.insert(OS.str());
    }
  }

  std::string hash() const {
    uint64_t H = FnvOffset;
    H = fnv1a(H, std::to_string(Tested));
    H = fnv1a(H, std::to_string(Excluded));
    H = fnv1a(H, std::to_string(ExecOk));
    for (int B : Bugs)
      H = fnv1a(H, std::to_string(B));
    for (const std::string &K : Raw)
      H = fnv1a(H, K);
    H = fnv1a(H, std::to_string(Rendered));
    H = fnv1a(H, hex64(StreamHash));
    return hex64(H);
  }

  std::string json() const {
    std::ostringstream OS;
    OS << "{\"tested\": " << Tested << ", \"excluded\": " << Excluded
       << ", \"exec_ok\": " << ExecOk << ", \"bugs\": [";
    bool First = true;
    for (int B : Bugs) {
      OS << (First ? "" : ", ") << B;
      First = false;
    }
    OS << "], \"raw_findings\": " << Raw.size() << ", \"rendered\": "
       << Rendered << ", \"stream_hash\": \"" << hex64(StreamHash)
       << "\", \"hash\": \"" << hash() << "\"}";
    return OS.str();
  }
};

/// Forwards every call to the campaign's backend and counts the observation
/// cells only a working compile-and-execute path produces. The harness
/// counts a variant as tested before any backend runs, and an external
/// backend turns a compiler or binary that cannot start into a skipped
/// variant, so without these counts a broken backend would leave the rest of
/// the digest unchanged.
class CountingBackend final : public CompilerBackend {
public:
  explicit CountingBackend(const CompilerBackend &Inner) : Inner(Inner) {}

  std::string identity() const override { return Inner.identity(); }
  bool hasGroundTruth() const override { return Inner.hasGroundTruth(); }
  BackendObservation run(const std::string &Source,
                         const CompilerConfig &Config,
                         CoverageRegistry *Cov) const override {
    return count(Inner.run(Source, Config, Cov));
  }
  BackendObservation runWithInput(const std::string &Source,
                                  const CompilerConfig &Config,
                                  const std::string &Input,
                                  CoverageRegistry *Cov) const override {
    return count(Inner.runWithInput(Source, Config, Input, Cov));
  }
  std::vector<BackendObservation>
  runSweep(const std::string &Source, const CompilerConfig &Config,
           const std::vector<std::string> &Inputs,
           CoverageRegistry *Cov) const override {
    std::vector<BackendObservation> Row =
        Inner.runSweep(Source, Config, Inputs, Cov);
    for (const BackendObservation &O : Row)
      count(O);
    return Row;
  }
  std::unique_ptr<BatchTicket>
  beginBatch(std::vector<std::string> Sources,
             std::vector<BatchExpectation> Expected,
             std::vector<CompilerConfig> Configs,
             CoverageRegistry *Cov) const override {
    return Inner.beginBatch(std::move(Sources), std::move(Expected),
                            std::move(Configs), Cov);
  }
  std::vector<std::vector<std::vector<BackendObservation>>>
  finishBatch(std::unique_ptr<BatchTicket> Ticket) const override {
    auto Out = Inner.finishBatch(std::move(Ticket));
    for (const auto &Variant : Out)
      for (const auto &Row : Variant)
        for (const BackendObservation &O : Row)
          count(O);
    return Out;
  }

  uint64_t execOk() const { return ExecOk.load(); }
  /// Cells the backend could not run at all: a compiled binary that did
  /// not execute, or -- for a backend without ground truth, i.e. a real
  /// compiler given an oracle-valid program -- a compile that produced
  /// nothing.
  uint64_t infraFailures() const { return Infra.load(); }

private:
  const BackendObservation &count(const BackendObservation &O) const {
    using CS = BackendObservation::CompileStatus;
    using ES = BackendObservation::ExecStatus;
    if (O.Compile == CS::Ok && O.Exec == ES::Ok)
      ++ExecOk;
    else if ((O.Compile == CS::Ok && O.Exec == ES::NotRun) ||
             (O.Compile == CS::Rejected && !Inner.hasGroundTruth()))
      ++Infra;
    return O;
  }

  const CompilerBackend &Inner;
  mutable std::atomic<uint64_t> ExecOk{0};
  mutable std::atomic<uint64_t> Infra{0};
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder for the traced replay: name, start, end, parent
/// span and the id of the variant the span belongs to (0 = per-seed work).
/// Spans are written out only when the run ends.
class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent;
    uint64_t Variant;
  };

  int32_t open(const char *Name) {
    int32_t Id = static_cast<int32_t>(Spans.size());
    Spans.push_back({Name, nowNs(), 0, Stack.empty() ? -1 : Stack.back(),
                     Variant});
    Stack.push_back(Id);
    return Id;
  }
  void close(int32_t Id) {
    Spans[Id].EndNs = nowNs();
    Stack.pop_back();
  }

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  uint64_t Variant = 0;
};

/// RAII span; a no-op when the tracer is null (the untraced enum_loops
/// iterations run the very same loop).
class Scope {
public:
  Scope(Tracer *T, const char *Name) : T(T), Id(T ? T->open(Name) : -1) {}
  ~Scope() {
    if (T)
      T->close(Id);
  }
  /// Renames the span after the fact (the oracle span learns its verdict
  /// only when interpretation ends).
  void rename(const char *Name) {
    if (T)
      T->Spans[Id].Name = Name;
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int32_t Id;
};

/// Spans that are benchmark glue rather than a layer call.
bool isGlueSpan(const std::string &Name) {
  return Name == "replay" || Name == "seed" || Name == "variant";
}

const char *verdictSpan(bool FrontendOk, ExecStatus St) {
  if (!FrontendOk)
    return "interp.oracle_us.reject";
  switch (St) {
  case ExecStatus::Ok:
    return "interp.oracle_us.ok";
  case ExecStatus::UndefinedBehavior:
    return "interp.oracle_us.ub";
  case ExecStatus::Timeout:
    return "interp.oracle_us.timeout";
  case ExecStatus::Unsupported:
    break;
  }
  return "interp.oracle_us.reject";
}

//===----------------------------------------------------------------------===//
// Traced replay
//===----------------------------------------------------------------------===//

struct ReplayCounts {
  uint64_t Variants = 0; ///< Rendered variants.
  uint64_t Tested = 0;
  uint64_t Excluded = 0;
  uint64_t ExecOk = 0; ///< Backend cells that compiled and ran.
  uint64_t OracleExecs = 0;
  uint64_t VmTimeouts = 0;
  uint64_t Ranks = 0;  ///< Budgeted ranks (rendered + pruned).
  uint64_t Pruned = 0;
  std::vector<uint64_t> SeedHash; ///< Per corpus program (enum_loops).
};

/// Drives one pass over \p Seeds through the layers' public entry points in
/// the harness's order: parse + Sema + extract, countSpe, analyzeValidity,
/// then per variant cursor next, renderInto, the oracle (cache lookup,
/// parseAndAnalyze + interpret), and per config either MiniCC parse +
/// compile + VM execute, or -- for an external backend -- batched
/// beginBatch/finishBatch. With a null tracer it is the plain enumeration
/// loop enum_loops measures.
void replayPass(Tracer *T, const Corpus &C, const Settings &S,
                const Pass *P, OracleCache *Cache,
                const CompilerBackend *Ext, ReplayCounts &Out) {
  std::vector<std::string> BatchSources;
  std::vector<BatchExpectation> BatchExpected;
  auto FlushBatch = [&] {
    if (BatchSources.empty())
      return;
    Scope Sp(T, "compiler.ext_batch_us");
    auto Ticket = Ext->beginBatch(std::move(BatchSources),
                                  std::move(BatchExpected), P->Configs,
                                  nullptr);
    for (const auto &Variant : Ext->finishBatch(std::move(Ticket)))
      for (const auto &Row : Variant)
        for (const BackendObservation &O : Row)
          Out.ExecOk += O.Compile == BackendObservation::CompileStatus::Ok &&
                        O.Exec == BackendObservation::ExecStatus::Ok;
    BatchSources.clear();
    BatchExpected.clear();
  };

  if (Out.SeedHash.size() < C.Seeds.size())
    Out.SeedHash.assign(C.Seeds.size(), FnvOffset);
  for (size_t SI = 0; SI < C.Seeds.size(); ++SI) {
    Scope SeedSpan(T, "seed");
    if (T)
      T->Variant = 0;
    auto Ctx = std::make_unique<ASTContext>();
    DiagnosticEngine Diags;
    std::unique_ptr<Sema> Analysis;
    std::vector<SkeletonUnit> Units;
    {
      Scope Sp(T, "skeleton.frontend_us");
      if (!Parser::parse(C.Seeds[SI], *Ctx, Diags))
        continue;
      Analysis = std::make_unique<Sema>(*Ctx, Diags);
      if (!Analysis->run())
        continue;
      Units = SkeletonExtractor(*Ctx, *Analysis, ExtractorOptions()).extract();
    }
    BigInt Count;
    {
      Scope Sp(T, "core.count_us");
      Count = ProgramEnumerator(Units, SpeMode::Exact).countSpe();
    }
    if (Count > BigInt(S.Threshold))
      continue;
    BigInt Budget = Count;
    if (BigInt(S.Budget) < Budget)
      Budget = BigInt(S.Budget);
    std::vector<ValidityConstraints> Validity;
    {
      Scope Sp(T, "analysis.validity_us");
      Validity = analyzeValidity(*Ctx, *Analysis, Units);
    }
    ProgramCursor Cursor(Units, SpeMode::Exact);
    Cursor.setConstraints(constraintPtrs(Validity));
    Cursor.setEnd(Budget);
    VariantRenderer Renderer(*Ctx, Units);
    std::string Buffer;
    uint64_t &SeedHash = Out.SeedHash[C.Index[SI]];
    for (;;) {
      if (T)
        T->Variant = Out.Variants + 1;
      Scope VariantSpan(T, "variant");
      const ProgramAssignment *PA;
      {
        Scope Sp(T, "core.cursor_next_us");
        PA = Cursor.next();
      }
      if (!PA)
        break;
      ++Out.Variants;
      {
        Scope Sp(T, "skeleton.render_us");
        Renderer.renderInto(*PA, Buffer);
      }
      if (!P) {
        SeedHash = fnv1a(SeedHash, Buffer);
        continue;
      }

      OracleCache::Entry V;
      bool Hit = false;
      if (Cache) {
        Scope Sp(T, "testing.cache_lookup_us");
        Hit = Cache->lookup(Buffer, V);
      }
      if (!Hit) {
        Scope Oracle(T, "interp.oracle_us.reject");
        std::unique_ptr<ASTContext> Ref;
        {
          Scope Sp(T, "interp.oracle_parse_us");
          Ref = parseAndAnalyze(Buffer);
        }
        V.FrontendOk = Ref != nullptr;
        if (Ref) {
          InterpOptions IO;
          IO.MaxSteps = S.MaxSteps;
          ExecResult R = interpret(*Ref, IO);
          ++Out.OracleExecs;
          V.Status = R.Status;
          V.ExitCode = R.ExitCode;
          V.Output = std::move(R.Output);
        }
        Oracle.rename(verdictSpan(V.FrontendOk, V.Status));
        if (Cache)
          Cache->insert(Buffer, V);
      }
      if (!V.FrontendOk)
        continue;
      if (V.Status != ExecStatus::Ok) {
        ++Out.Excluded;
        continue;
      }
      ++Out.Tested;

      if (Ext) {
        BatchExpectation E;
        E.Valid = true;
        E.ExitCode = V.ExitCode;
        E.Output = V.Output;
        BatchSources.push_back(Buffer);
        BatchExpected.push_back(std::move(E));
        if (BatchSources.size() >= S.BatchSize)
          FlushBatch();
        continue;
      }
      for (const CompilerConfig &Config : P->Configs) {
        std::unique_ptr<ASTContext> Unit;
        {
          Scope Sp(T, "compiler.minicc_parse_us");
          Unit = parseAndAnalyze(Buffer);
        }
        if (!Unit)
          continue;
        CompileResult R;
        {
          Scope Sp(T, "compiler.minicc_compile_us");
          R = MiniCompiler(Config, nullptr, true).compile(*Unit);
        }
        if (!R.ok())
          continue;
        Scope Sp(T, "compiler.vm_exec_us");
        VMStatus St = executeModule(R.Module).Status;
        Out.ExecOk += St == VMStatus::Ok;
        Out.VmTimeouts += St == VMStatus::Timeout;
      }
    }
    if (T)
      T->Variant = 0;
    FlushBatch();
    const BigInt &Pr = Cursor.pruned();
    uint64_t Pruned = Pr.fitsInUint64() ? Pr.toUint64() : 0;
    Out.Pruned += Pruned;
    Out.Ranks += Budget.fitsInUint64() ? Budget.toUint64() : 0;
  }
}

/// Combines enum_loops' per-program stream hashes in corpus order, so the
/// digest does not depend on the order --seed feeds the programs in.
uint64_t combinedStreamHash(const ReplayCounts &R) {
  uint64_t H = FnvOffset;
  for (uint64_t S : R.SeedHash)
    H = fnv1a(H, &S, sizeof(S));
  return H;
}

//===----------------------------------------------------------------------===//
// Iterations
//===----------------------------------------------------------------------===//

struct Iteration {
  double SetupS = 0;
  double WallS = 0;
  double CpuS = 0;
  double StealS = 0; ///< Machine-wide steal during the timed window.
  uint64_t Variants = 0;
  uint64_t OracleExecs = 0;
  uint64_t InfraFailures = 0;
  uint64_t PeakRssKb = 0;
  Digest D;
};

/// Records `cc --version` as the ext_gcc host guard; empty when cc cannot
/// run at all.
std::string probeCompiler() {
  ProcessOptions PO;
  PO.TimeoutMs = 30'000;
  ProcessResult R = runProcess({"cc", "--version"}, PO);
  if (!R.exitedWith(0))
    return "";
  return R.Stdout.substr(0, R.Stdout.find('\n'));
}

/// Everything one iteration builds before its timed window: the fresh
/// state of the closed loop. Members are destroyed in reverse order, so the
/// counting wrapper goes before the backend it wraps.
struct State {
  Corpus C;
  fs::path Dir;
  std::unique_ptr<ExternalBackend> Ext;
  InProcessBackend InProc;
  std::unique_ptr<CountingBackend> Backend;
  std::unique_ptr<OracleCache> Cache;
  double ChildCpu0 = 0; ///< Children's CPU before the backend existed.
};

class Runner {
public:
  Runner(std::string Workload, uint64_t Base, uint64_t Seed, fs::path Work)
      : Workload(std::move(Workload)), Base(Base), Seed(Seed),
        Work(std::move(Work)), S(settingsFor(this->Workload)) {}

  const std::string &ccVersion() const { return CcVersion; }

  /// Builds fresh state (in \p Subdir of the work directory, where it needs
  /// one) and \returns it with the seconds it took in \p SetupS. \p Pooled
  /// selects the broker pool (campaign iterations) over synchronous
  /// compiles (the replay); \p Sink attaches telemetry to an external
  /// backend.
  std::unique_ptr<State> setup(const char *Subdir, bool Pooled,
                               TelemetrySink *Sink, double &SetupS) {
    auto Start = Clock::now();
    auto St = std::make_unique<State>();
    St->C = makeCorpus(Workload, Base, Seed);
    // Only the store, the checkpoints and the external scratch files need a
    // directory; the others would time file-system calls for nothing.
    if (S.Checkpointed || S.External) {
      St->Dir = Work / Subdir;
      fs::remove_all(St->Dir);
      fs::create_directories(St->Dir);
    }
    if (S.External) {
      CcVersion = probeCompiler();
      if (CcVersion.empty()) {
        std::fprintf(stderr, "perfbench: `cc --version` failed; ext_gcc "
                             "needs a host C compiler\n");
        std::exit(3);
      }
    }
    St->ChildCpu0 = cpuSeconds(RUSAGE_CHILDREN);
    if (S.External) {
      ExternalBackendOptions EB;
      EB.PoolWorkers = Pooled ? 2 : 0;
      EB.TempDir = St->Dir.string();
      EB.Telemetry = Sink;
      St->Ext = std::make_unique<ExternalBackend>(EB);
      if (!St->Ext->available()) {
        std::fprintf(stderr, "perfbench: host compiler unavailable: %s\n",
                     St->Ext->unavailableReason().c_str());
        std::exit(3);
      }
      St->Backend = std::make_unique<CountingBackend>(*St->Ext);
    } else {
      St->Backend = std::make_unique<CountingBackend>(St->InProc);
    }
    St->Cache = std::make_unique<OracleCache>();
    SetupS = secondsSince(Start);
    return St;
  }

  /// Set-up alone, torn down untimed: more set-up samples per run.
  double setupOnly() {
    double SetupS = 0;
    std::unique_ptr<State> St = setup("setup", true, nullptr, SetupS);
    fs::path Dir = St->Dir;
    St.reset();
    if (!Dir.empty())
      fs::remove_all(Dir);
    return SetupS;
  }

  /// One fresh-state iteration; \p Sink attaches telemetry (the in-harness
  /// phases run of --trace 1), otherwise everything is off.
  Iteration iterate(TelemetrySink *Sink = nullptr,
                    CampaignResult *Last = nullptr,
                    ProcessPool::Stats *PoolStats = nullptr) {
    Iteration It;
    resetPeakRss();
    std::unique_ptr<State> St = setup("iteration", true, Sink, It.SetupS);

    double Cpu0 = cpuSeconds(RUSAGE_SELF);
    double Steal0 = stealSeconds();
    auto Start = Clock::now();
    CampaignResult Total;
    if (S.Enumerate) {
      ReplayCounts R;
      replayPass(nullptr, St->C, S, nullptr, nullptr, nullptr, R);
      It.Variants = R.Variants;
      It.D.Rendered = R.Variants;
      It.D.StreamHash = combinedStreamHash(R);
    } else {
      for (size_t PI = 0; PI < S.Passes.size(); ++PI) {
        HarnessOptions Opts;
        Opts.Configs = S.Passes[PI].Configs;
        Opts.VariantBudget = S.Budget;
        Opts.VariantThreshold = S.Threshold;
        Opts.OracleMaxSteps = S.MaxSteps;
        Opts.Threads = S.Threads;
        Opts.BatchSize = S.BatchSize;
        Opts.Backend = St->Backend.get();
        Opts.Telemetry = Sink;
        if (S.Checkpointed) {
          Opts.Cache = St->Cache.get();
          Opts.OracleStorePath = (St->Dir / "oracle.store").string();
          Opts.CheckpointPath =
              (St->Dir / ("pass" + std::to_string(PI) + ".ckpt")).string();
        }
        CampaignResult R = DifferentialHarness(Opts).runCampaign(St->C.Seeds);
        Total.merge(R);
        // A store-lifetime snapshot, deliberately not folded by merge().
        Total.OracleStoreBytes = R.OracleStoreBytes;
      }
      It.D.add(Total);
      It.D.ExecOk = St->Backend->execOk();
      It.Variants = Total.VariantsTested;
      It.OracleExecs = Total.OracleExecutions;
      It.InfraFailures = St->Backend->infraFailures();
    }
    It.WallS = secondsSince(Start);
    It.StealS = stealSeconds() - Steal0;
    It.CpuS = cpuSeconds(RUSAGE_SELF) - Cpu0;
    It.PeakRssKb = peakRssKb();

    if (St->Ext) {
      ProcessPool::Stats PS = St->Ext->pool()->stats();
      It.InfraFailures += PS.Respawns + (PS.JobsSubmitted - PS.JobsCompleted);
      if (PoolStats)
        *PoolStats = PS;
    }
    double ChildCpu0 = St->ChildCpu0;
    fs::path Dir = St->Dir;
    St.reset(); // Reaps the brokers: their CPU lands in CHILDREN.
    It.CpuS += cpuSeconds(RUSAGE_CHILDREN) - ChildCpu0;
    if (Last)
      *Last = std::move(Total);
    if (!Dir.empty())
      fs::remove_all(Dir);
    return It;
  }

  /// One iteration's work driven through the layers' public calls, on fresh
  /// state; traced when \p T is set. \returns its wall seconds.
  double replay(Tracer *T, ReplayCounts &R, TelemetrySink *ExtSink) {
    double SetupS = 0;
    // No pool: the replay calls the batch API synchronously, and unpooled
    // compiles log one event per compiler invocation into ExtSink.
    std::unique_ptr<State> St = setup("replay", false, ExtSink, SetupS);
    auto Start = Clock::now();
    {
      Scope Root(T, "replay");
      if (S.Enumerate)
        replayPass(T, St->C, S, nullptr, nullptr, nullptr, R);
      for (const Pass &P : S.Passes)
        replayPass(T, St->C, S, &P,
                   S.Checkpointed ? St->Cache.get() : nullptr, St->Ext.get(),
                   R);
    }
    double Wall = secondsSince(Start);
    fs::path Dir = St->Dir;
    St.reset();
    if (!Dir.empty())
      fs::remove_all(Dir);
    return Wall;
  }

  const Settings &settings() const { return S; }

private:
  std::string Workload;
  uint64_t Base;
  uint64_t Seed;
  fs::path Work;
  Settings S;
  std::string CcVersion;
};

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

/// Accumulates the per-layer metrics as a flat name -> (value, unit) list.
class Metrics {
public:
  void put(const std::string &Name, double Value, const char *Unit) {
    Out.push_back({Name, Value, Unit});
  }
  /// count / total / p50 / p99 of a set of microsecond samples.
  void timing(const std::string &Name, std::vector<double> Us) {
    std::sort(Us.begin(), Us.end());
    double Total = 0;
    for (double U : Us)
      Total += U;
    put(Name + ".count", static_cast<double>(Us.size()), "count");
    put(Name + ".total", Total, "us");
    put(Name + ".p50", quantile(Us, 0.50), "us");
    put(Name + ".p99", quantile(Us, 0.99), "us");
  }
  std::string json() const {
    std::ostringstream OS;
    OS << "{";
    for (size_t I = 0; I < Out.size(); ++I) {
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), "%.17g", Out[I].Value);
      OS << (I ? ", " : "") << "\"" << Out[I].Name << "\": {\"value\": "
         << Buf << ", \"unit\": \"" << Out[I].Unit << "\"}";
    }
    OS << "}";
    return OS.str();
  }

private:
  /// Nearest-rank quantile of sorted samples; 0 when empty.
  static double quantile(const std::vector<double> &Sorted, double Q) {
    if (Sorted.empty())
      return 0;
    size_t Rank = static_cast<size_t>(Q * static_cast<double>(Sorted.size()));
    return Sorted[std::min(Rank, Sorted.size() - 1)];
  }
  struct Entry {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Entry> Out;
};

/// Exact per-event durations (us) by phase from a sink's JSONL event log.
std::map<std::string, std::vector<double>> eventDurations(TelemetrySink &Sink) {
  Sink.flush();
  std::map<std::string, std::vector<double>> Out;
  std::ifstream In(Sink.eventLogPath());
  std::string Line;
  TelemetryEvent E;
  while (std::getline(In, Line))
    if (TelemetrySink::parseEventLine(Line, E))
      Out[E.Phase].push_back(static_cast<double>(E.DurUs));
  return Out;
}

void writeSpans(const Tracer &T, const fs::path &Path) {
  std::ofstream Out(Path);
  for (size_t I = 0; I < T.Spans.size(); ++I) {
    const Tracer::Span &S = T.Spans[I];
    Out << "{\"id\": " << I << ", \"name\": \"" << S.Name
        << "\", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
        << ", \"parent\": " << S.Parent << ", \"variant\": " << S.Variant
        << "}\n";
  }
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Worker-thread phases of the harness's own telemetry: the time the
/// harness spends inside layer calls. None of them nests inside another.
const char *const HarnessLayerPhases[] = {
    "render",      "cache_lookup", "oracle_exec", "sweep_exec",
    "backend_run", "batch_wait",   "vote",        "batch_pack",
    "checkpoint_write"};

/// The --trace 1 layer metrics: an untraced and a traced replay, the traced
/// replay's own external-backend events, and one harness iteration with the
/// library's TelemetrySink attached. \p Its holds the run's untraced
/// iteration; the harness iteration is appended so its digest is checked
/// too.
std::string traceLayers(Runner &Run, const fs::path &Work,
                        const fs::path &SpanFile, std::vector<Iteration> &Its,
                        ReplayCounts &R) {
  const Settings &S = Run.settings();
  const Iteration Untraced = Its.front();
  ReplayCounts Plain;
  double UntracedReplayS = Run.replay(nullptr, Plain, nullptr);

  TelemetrySink::Options RSO;
  RSO.EventLogPath = (Work / "replay-events.jsonl").string();
  TelemetrySink ReplaySink(RSO);
  Tracer T;
  double TracedReplayS = Run.replay(&T, R, &ReplaySink);
  writeSpans(T, SpanFile);

  std::vector<int64_t> ChildNs(T.Spans.size(), 0);
  for (const Tracer::Span &Sp : T.Spans)
    if (Sp.Parent >= 0)
      ChildNs[Sp.Parent] += Sp.EndNs - Sp.StartNs;
  std::map<std::string, std::vector<double>> ByName;
  double LayerSelfUs = 0;
  for (size_t I = 0; I < T.Spans.size(); ++I) {
    const Tracer::Span &Sp = T.Spans[I];
    std::string Name = Sp.Name;
    if (isGlueSpan(Name))
      continue;
    ByName[Name].push_back(static_cast<double>(Sp.EndNs - Sp.StartNs) / 1e3);
    LayerSelfUs +=
        static_cast<double>(Sp.EndNs - Sp.StartNs - ChildNs[I]) / 1e3;
  }

  Metrics M;
  for (const char *Name :
       {"interp.oracle_us.ok", "interp.oracle_us.ub",
        "interp.oracle_us.timeout", "interp.oracle_us.reject",
        "interp.oracle_parse_us", "compiler.minicc_parse_us",
        "compiler.minicc_compile_us", "compiler.vm_exec_us",
        "core.cursor_next_us", "skeleton.render_us", "skeleton.frontend_us",
        "core.count_us", "analysis.validity_us", "testing.cache_lookup_us",
        "compiler.ext_batch_us"})
    M.timing(Name, ByName[Name]);
  M.put("compiler.vm_timeouts", static_cast<double>(R.VmTimeouts), "count");
  M.put("core.prune_ratio",
        ratio(static_cast<double>(R.Pruned), static_cast<double>(R.Ranks)),
        "ratio");

  std::map<std::string, std::vector<double>> ExtEvents =
      eventDurations(ReplaySink);
  M.timing("compiler.ext_compile_us", ExtEvents["compile"]);
  M.timing("compiler.ext_exec_us", ExtEvents["exec"]);
  M.timing("compiler.ext_batch_pack_us", ExtEvents["batch_pack"]);

  // The in-harness phases: one more fresh iteration with the sink attached.
  CampaignResult H;
  ProcessPool::Stats PS;
  std::map<std::string, std::vector<double>> HarnessEvents;
  uint64_t CompileCount = 0;
  double HarnessSelfUs = 0;
  if (!S.Enumerate) {
    TelemetrySink::Options HSO;
    HSO.EventLogPath = (Work / "harness-events.jsonl").string();
    TelemetrySink HarnessSink(HSO);
    Its.push_back(Run.iterate(&HarnessSink, &H, &PS));
    HarnessEvents = eventDurations(HarnessSink);
    CompileCount = H.Telemetry.countFor("compile");
    // Thread time of the harness run spent outside every layer phase: the
    // variant loops, pipelines, seed planning, merges and idle shards.
    HarnessSelfUs = Its.back().WallS * 1e6 * S.Threads;
    for (const char *Phase : HarnessLayerPhases)
      for (double Us : HarnessEvents[Phase])
        HarnessSelfUs -= Us;
  }
  double Configs = S.Passes.empty()
                       ? 0.0
                       : static_cast<double>(S.Passes[0].Configs.size());
  M.put("compiler.ext_variants_per_compile",
        ratio(static_cast<double>(H.VariantsTested) * Configs,
              static_cast<double>(CompileCount)),
        "ratio");
  M.put("support.pool_wait_ms", static_cast<double>(PS.CumQueueWaitMs), "ms");
  M.put("support.pool_respawns", static_cast<double>(PS.Respawns), "count");
  M.timing("persist.checkpoint_write_us", HarnessEvents["checkpoint_write"]);
  M.put("persist.store_bytes", static_cast<double>(H.OracleStoreBytes),
        "bytes");
  M.put("testing.batch_wait_us",
        static_cast<double>(H.Telemetry.totalUsFor("batch_wait")), "us");
  M.put("testing.compile_wait_us",
        static_cast<double>(H.Telemetry.totalUsFor("compile_wait")), "us");
  M.put("testing.backend_run_us",
        static_cast<double>(H.Telemetry.totalUsFor("backend_run")), "us");
  M.put("testing.cache_hit_ratio",
        ratio(static_cast<double>(H.OracleCacheHits),
              static_cast<double>(H.OracleCacheHits + H.OracleExecutions)),
        "ratio");
  M.put("testing.tested_per_oracle_exec",
        ratio(static_cast<double>(H.VariantsTested),
              static_cast<double>(H.OracleExecutions)),
        "ratio");
  double Bugs = static_cast<double>(Untraced.D.Bugs.size());
  M.put("testing.s_per_bug", ratio(Untraced.WallS, Bugs), "s");
  M.put("testing.oracle_execs_per_bug",
        ratio(static_cast<double>(Untraced.OracleExecs), Bugs), "count");
  M.put("testing.harness_self_us", HarnessSelfUs, "us");

  M.put("trace.coverage", ratio(LayerSelfUs, TracedReplayS * 1e6), "ratio");
  M.put("trace.overhead_frac", ratio(TracedReplayS, UntracedReplayS) - 1.0,
        "ratio");
  return M.json();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --trace 0|1 "
               "--base B --work DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> A;
  for (int I = 1; I + 1 < Argc; I += 2)
    A[Argv[I]] = Argv[I + 1];
  for (const char *Key :
       {"--workload", "--seed", "--trace", "--base", "--work"})
    if (!A.count(Key))
      return usage();
  const std::string Workload = A["--workload"];
  if (settingsFor(Workload).Passes.empty() && Workload != "enum_loops") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 Workload.c_str());
    return 2;
  }
  const uint64_t Seed = std::strtoull(A["--seed"].c_str(), nullptr, 10);
  const bool Trace = A["--trace"] == "1";
  const uint64_t Base = std::strtoull(A["--base"].c_str(), nullptr, 10);
  const fs::path Work = A["--work"];
  fs::create_directories(Work);

  Runner Run(Workload, Base, Seed, Work);
  // One fresh-state iteration per process: run.py repeats processes as a
  // closed loop, because each process draws its own speed from the host.
  std::vector<Iteration> Its{Run.iterate()};
  // Set-up is milliseconds against seconds of campaign, so each process
  // also times stand-alone set-ups -- after the iteration, when the
  // processor has left its idle clock.
  std::vector<double> SetupSamples{Its.front().SetupS};
  for (int I = 0; I < SetupRepeats; ++I)
    SetupSamples.push_back(Run.setupOnly());

  ReplayCounts R;
  std::string Layers;
  if (Trace)
    Layers = traceLayers(Run, Work, Work / ("spans-" + Workload + ".jsonl"),
                         Its, R);

  std::ostringstream OS;
  OS << "{\"workload\": \"" << Workload << "\", \"seed\": " << Seed
     << ", \"base\": " << Base << ", \"cc_version\": \""
     << jsonEscape(Run.ccVersion()) << "\", \"iterations\": [";
  for (size_t I = 0; I < Its.size(); ++I) {
    const Iteration &It = Its[I];
    char Buf[320];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"setup_s\": %.9f, \"wall_s\": %.9f, \"cpu_s\": %.6f, "
                  "\"steal_s\": %.2f, \"variants\": %llu, "
                  "\"oracle_execs\": %llu, \"infra_failures\": %llu, "
                  "\"peak_rss_kb\": %llu, \"digest\": ",
                  It.SetupS, It.WallS, It.CpuS, It.StealS,
                  static_cast<unsigned long long>(It.Variants),
                  static_cast<unsigned long long>(It.OracleExecs),
                  static_cast<unsigned long long>(It.InfraFailures),
                  static_cast<unsigned long long>(It.PeakRssKb));
    OS << (I ? ", " : "") << Buf << It.D.json() << "}";
  }
  OS << "], \"setup_samples\": [";
  for (size_t I = 0; I < SetupSamples.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.9f", SetupSamples[I]);
    OS << (I ? ", " : "") << Buf;
  }
  OS << "]";
  if (Trace)
    OS << ", \"replay\": {\"variants\": " << R.Variants
       << ", \"tested\": " << R.Tested << ", \"excluded\": " << R.Excluded
       << ", \"exec_ok\": " << R.ExecOk << ", \"stream_hash\": \""
       << hex64(combinedStreamHash(R)) << "\"}, \"layers\": " << Layers;
  OS << "}";
  std::printf("%s\n", OS.str().c_str());
  return 0;
}
