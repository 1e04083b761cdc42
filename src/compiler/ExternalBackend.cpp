//===- compiler/ExternalBackend.cpp - real-compiler subprocess driver ----===//

#include "compiler/ExternalBackend.h"

#include "compiler/BatchRenderer.h"
#include "support/ProcessPool.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include <cerrno>
#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace spe;

namespace {

/// Writes \p Text to \p Path; \returns false on any I/O failure.
bool writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  Ok = std::fclose(F) == 0 && Ok;
  return Ok;
}

std::string firstLine(const std::string &Text) {
  size_t NL = Text.find('\n');
  std::string Line = NL == std::string::npos ? Text : Text.substr(0, NL);
  while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' '))
    Line.pop_back();
  return Line;
}

/// Marker substrings that distinguish "the compiler died" from "the
/// compiler diagnosed the program". Shared across GCC and Clang stderr
/// shapes.
bool isCrashMarker(const std::string &Line) {
  return Line.find("internal compiler error") != std::string::npos ||
         Line.find("Internal compiler error") != std::string::npos ||
         Line.find("Assertion") != std::string::npos ||
         Line.find("error in backend") != std::string::npos ||
         Line.find("fatal error: error in") != std::string::npos ||
         Line.find("PLEASE submit a bug report") != std::string::npos ||
         Line.find("Segmentation fault") != std::string::npos;
}

/// Decodes a finished *execution* subprocess result into the observation.
/// The caller has already set Compile = Ok and handled StartFailed (solo
/// paths warn and leave Exec at NotRun; batch paths re-run the variant).
void classifyExecInto(const ProcessResult &R, BackendObservation &Obs) {
  switch (R.St) {
  case ProcessResult::Status::StartFailed:
    break; // Caller's responsibility; see above.
  case ProcessResult::Status::TimedOut:
    Obs.Exec = BackendObservation::ExecStatus::Timeout;
    break;
  case ProcessResult::Status::Signaled:
    Obs.Exec = BackendObservation::ExecStatus::Trap;
    break;
  case ProcessResult::Status::Exited:
    Obs.Exec = BackendObservation::ExecStatus::Ok;
    Obs.ExitCode = R.ExitCode;
    Obs.ExitCodeLow8 = true;
    Obs.Output = R.Stdout;
    break;
  }
}

/// One memoized `--version` probe outcome.
struct ProbeResult {
  bool Ok = false;
  std::string Unavailable;
  std::string Version;
};

/// Probes `Command --version` once per distinct command line for the whole
/// process. Campaigns and tests construct many backends over the same
/// compiler; the probe is pure identity, so re-running it buys nothing but
/// a subprocess per construction.
const ProbeResult &probeCompiler(const std::vector<std::string> &Command) {
  static std::mutex Mu;
  static std::map<std::string, ProbeResult> Memo;
  std::string Key;
  for (const std::string &A : Command) {
    Key += A;
    Key += '\x1f';
  }
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Memo.find(Key);
  if (It != Memo.end())
    return It->second;
  ProbeResult P;
  std::vector<std::string> Argv = Command;
  Argv.push_back("--version");
  ProcessOptions PO;
  PO.TimeoutMs = 10'000;
  ProcessResult R = runProcess(Argv, PO);
  if (R.St == ProcessResult::Status::StartFailed) {
    P.Unavailable = R.Error;
  } else if (!R.exitedWith(0)) {
    P.Unavailable = "'" + Command[0] + " --version' did not exit 0";
  } else {
    P.Version = firstLine(R.Stdout.empty() ? R.Stderr : R.Stdout);
    P.Ok = true;
  }
  return Memo.emplace(Key, std::move(P)).first->second;
}

} // namespace

namespace spe {

/// In-flight state of one batched compile: the packed TU on disk plus one
/// (possibly pool-submitted) compile per configuration. Destruction claims
/// any job finishBatch never collected -- an abandoned ticket (simulated
/// crash mid-batch) must neither strand its result in the pool nor let its
/// compile write a binary after the cleanup -- and removes the scratch
/// files.
struct ExternalBatchTicket final : BatchTicket {
  const ExternalBackend *B = nullptr;
  std::vector<std::string> Sources;
  std::vector<BatchExpectation> Expected;
  std::vector<CompilerConfig> Configs;
  /// sweepUnion(Configs): maps each config's local sweep inputs to the
  /// expectation indices BatchExpectation::cell() speaks. Set by
  /// finishBatch before any subset is resolved.
  std::vector<std::string> Union;
  /// The packed TU's source path; empty when !Packed.
  std::string Src;
  struct ConfigCompile {
    std::string Bin;
    ProcessPool::JobId Job = 0;
    bool Submitted = false; ///< True until finishBatch claims the job.
    /// Sink timestamp at pool submission; the honest compile latency of a
    /// pooled compile is submit -> collect (telemetry on only).
    uint64_t SubmitUs = 0;
  };
  std::vector<ConfigCompile> Compiles;
  /// False = packing was skipped or failed; finishBatch resolves every
  /// (variant, config) pair by plain run().
  bool Packed = false;

  ~ExternalBatchTicket() override {
    bool Keep = B && B->options().KeepArtifacts;
    for (ConfigCompile &CC : Compiles) {
      if (CC.Submitted && B && B->pool())
        B->pool()->wait(CC.Job);
      if (!CC.Bin.empty() && !Keep)
        std::remove(CC.Bin.c_str());
    }
    if (!Src.empty() && !Keep)
      std::remove(Src.c_str());
  }
};

} // namespace spe

std::string
ExternalBackend::extractCrashSignature(const std::string &Stderr,
                                       const std::string &Fallback) {
  size_t Start = 0;
  while (Start <= Stderr.size()) {
    size_t NL = Stderr.find('\n', Start);
    if (NL == std::string::npos)
      NL = Stderr.size();
    std::string Line = Stderr.substr(Start, NL - Start);
    Start = NL + 1;
    if (!isCrashMarker(Line))
      continue;
    // Strip the variant-specific "path/to/spe-ext-1234-5.c:3:7: " prefix:
    // everything up to the last ": " before the marker keyword would be
    // too aggressive (assertion texts embed colons), so strip only a
    // leading "<token-without-spaces>: " whose token contains a path-ish
    // ':' separated location.
    size_t FirstSpace = Line.find(' ');
    if (FirstSpace != std::string::npos && FirstSpace > 0 &&
        Line[FirstSpace - 1] == ':' &&
        Line.find(':') < FirstSpace - 1)
      Line = Line.substr(FirstSpace + 1);
    while (!Line.empty() && (Line.back() == '\r' || Line.back() == ' '))
      Line.pop_back();
    if (!Line.empty())
      return Line;
  }
  return Fallback;
}

ExternalBackend::ExternalBackend(ExternalBackendOptions O)
    : Opts(std::move(O)) {
  if (Opts.Command.empty()) {
    Unavailable = "empty compiler command";
    return;
  }
  const ProbeResult &P = probeCompiler(Opts.Command);
  Available = P.Ok;
  Unavailable = P.Unavailable;
  Version = P.Version;
  TelLabel = telemetryBackendLabel(identity());
  if (!Available)
    return;

  // One scratch directory per instance: scratch files cluster under it and
  // the destructor removes everything at once, so long campaigns cannot
  // strand thousands of loose temp files on a crash-free exit.
  std::string Base = Opts.TempDir;
  if (Base.empty()) {
    const char *Env = std::getenv("TMPDIR");
    Base = Env && *Env ? Env : "/tmp";
  }
  while (!Base.empty() && Base.back() == '/')
    Base.pop_back();
  ::mkdir(Base.c_str(), 0777); // Best effort; mkdtemp reports real failure.
  // Reap scratch left behind by SIGKILLed campaigns before adding our own:
  // the destructor below never runs on a kill, so without this every
  // crashed run strands one directory per backend forever.
  sweepStaleScratch(Base);
  // The owner's pid is part of the name mkdtemp creates, so no sweep --
  // concurrent or later -- can see this directory without also seeing who
  // owns it.
  std::string Templ = Base + "/spe-ext-" +
                      std::to_string(static_cast<long long>(::getpid())) +
                      "-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  if (mkdtemp(Buf.data())) {
    ScratchDir = Buf.data();
    OwnScratchDir = true;
  } else {
    // Flat fallback: unique pid+seq names directly under the base, as the
    // pre-directory layout did. Nothing is removed on destruction beyond
    // the per-run cleanups.
    ScratchDir = Base;
  }

  if (Opts.PoolWorkers > 0)
    Pool = std::make_unique<ProcessPool>(Opts.PoolWorkers);
}

ExternalBackend::~ExternalBackend() {
  // The pool first: its workers must not outlive the scratch directory
  // their jobs write into.
  Pool.reset();
  if (Opts.KeepArtifacts)
    return;
  for (const std::string &Obj : DispatcherObj)
    if (!Obj.empty())
      std::remove(Obj.c_str());
  if (!OwnScratchDir)
    return;
  if (DIR *D = opendir(ScratchDir.c_str())) {
    while (dirent *E = readdir(D)) {
      if (std::strcmp(E->d_name, ".") == 0 || std::strcmp(E->d_name, "..") == 0)
        continue;
      std::remove((ScratchDir + "/" + E->d_name).c_str());
    }
    closedir(D);
  }
  rmdir(ScratchDir.c_str());
}

unsigned ExternalBackend::sweepStaleScratch(const std::string &BaseDir) {
  std::vector<std::string> Stale;
  DIR *D = opendir(BaseDir.c_str());
  if (!D)
    return 0;
  while (dirent *E = readdir(D)) {
    if (std::strncmp(E->d_name, "spe-ext-", 8) != 0)
      continue;
    std::string Dir = BaseDir + "/" + E->d_name;
    struct stat St;
    if (::stat(Dir.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
      continue;
    // kill(pid, 0) probes liveness without signaling: success or EPERM
    // means the pid exists; ESRCH means the owner is gone. A name with no
    // "<pid>-" field is no scratch directory of this layout and stays.
    char *End = nullptr;
    long long Pid = std::strtoll(E->d_name + 8, &End, 10);
    if (End == E->d_name + 8 || *End != '-' || Pid <= 0)
      continue;
    if (::kill(static_cast<pid_t>(Pid), 0) != 0 && errno != EPERM)
      Stale.push_back(std::move(Dir));
  }
  closedir(D);

  unsigned Removed = 0;
  for (const std::string &Dir : Stale) {
    if (DIR *SD = opendir(Dir.c_str())) {
      while (dirent *E = readdir(SD)) {
        if (std::strcmp(E->d_name, ".") == 0 ||
            std::strcmp(E->d_name, "..") == 0)
          continue;
        std::remove((Dir + "/" + E->d_name).c_str());
      }
      closedir(SD);
    }
    if (::rmdir(Dir.c_str()) == 0)
      ++Removed;
  }
  return Removed;
}

std::string ExternalBackend::identity() const {
  // Command line + --version banner: the resume fingerprint must change
  // whenever either does, so a checkpoint can never silently continue
  // against a different compiler or flag set. Deliberately excluded:
  // PoolWorkers and scratch placement -- execution mechanics that cannot
  // change any observation, so a snapshot stays resumable across them.
  std::string Id = "external:";
  for (const std::string &A : Opts.Command)
    Id += " " + A;
  for (const std::string &A : Opts.ExtraArgs)
    Id += " " + A;
  Id += Opts.MapOptLevel ? " [-O]" : "";
  Id += Opts.MapMachineMode ? " [-m]" : "";
  Id += " | " + (Available ? Version : "unavailable: " + Unavailable);
  return Id;
}

void ExternalBackend::warnInfra(const std::string &What) const {
  if (InfraWarned.exchange(true, std::memory_order_relaxed))
    return;
  std::fprintf(stderr,
               "spe: external backend infrastructure failure (%s); affected "
               "variants are skipped, not classified -- further failures "
               "of this backend are silent\n",
               What.c_str());
}

std::string ExternalBackend::scratchBase() const {
  uint64_t N = Seq.fetch_add(1, std::memory_order_relaxed);
  if (OwnScratchDir)
    return ScratchDir + "/v" + std::to_string(N);
  return ScratchDir + "/spe-ext-" +
         std::to_string(static_cast<long>(getpid())) + "-" +
         std::to_string(N);
}

ProcessResult
ExternalBackend::runCompiler(const std::vector<std::string> &Argv,
                             const ProcessOptions &PO) const {
  return Pool ? Pool->run(Argv, PO) : runProcess(Argv, PO);
}

std::vector<std::string>
ExternalBackend::compileArgv(const std::string &Src, const std::string &Bin,
                             const CompilerConfig &Config,
                             const std::string &Link) const {
  std::vector<std::string> Argv = Opts.Command;
  Argv.insert(Argv.end(), Opts.ExtraArgs.begin(), Opts.ExtraArgs.end());
  if (Opts.MapOptLevel)
    Argv.push_back("-O" + std::to_string(Config.OptLevel));
  if (Opts.MapMachineMode)
    Argv.push_back(Config.Mode64 ? "-m64" : "-m32");
  Argv.push_back(Src);
  if (!Link.empty())
    Argv.push_back(Link);
  Argv.push_back("-o");
  Argv.push_back(Bin);
  return Argv;
}

std::string ExternalBackend::dispatcherFor(const CompilerConfig &Config) const {
  size_t Mode = Opts.MapMachineMode && !Config.Mode64 ? 1 : 0;
  std::lock_guard<std::mutex> Lock(DispatcherMu);
  if (DispatcherTried[Mode])
    return DispatcherObj[Mode];
  DispatcherTried[Mode] = true;
  std::string Base = scratchBase();
  std::string Src = Base + "-dispatch.c";
  std::string Obj = Base + "-dispatch.o";
  if (!writeFile(Src, BatchRenderer::dispatcherSource()))
    return {};
  std::vector<std::string> Argv = Opts.Command;
  Argv.insert(Argv.end(), Opts.ExtraArgs.begin(), Opts.ExtraArgs.end());
  if (Opts.MapMachineMode)
    Argv.push_back(Config.Mode64 ? "-m64" : "-m32");
  Argv.insert(Argv.end(), {"-c", Src, "-o", Obj});
  ProcessOptions PO;
  PO.TimeoutMs = Opts.CompileTimeoutMs;
  if (runCompiler(Argv, PO).exitedWith(0))
    DispatcherObj[Mode] = Obj;
  if (!Opts.KeepArtifacts)
    std::remove(Src.c_str());
  return DispatcherObj[Mode];
}

BackendObservation ExternalBackend::run(const std::string &Source,
                                        const CompilerConfig &Config,
                                        CoverageRegistry *Cov) const {
  return runWithInput(Source, Config, std::string(), Cov);
}

BackendObservation
ExternalBackend::runWithInput(const std::string &Source,
                              const CompilerConfig &Config,
                              const std::string &Input,
                              CoverageRegistry *Cov) const {
  return runSweep(Source, Config, {Input}, Cov).front();
}

std::vector<BackendObservation>
ExternalBackend::runSweep(const std::string &Source,
                          const CompilerConfig &Config,
                          const std::vector<std::string> &Inputs,
                          CoverageRegistry *Cov) const {
  (void)Cov; // No instrumentation hooks into a foreign compiler.
  BackendObservation Obs;
  auto Row = [&Inputs](const BackendObservation &O) {
    // The compile's outcome is the whole row's outcome.
    return std::vector<BackendObservation>(Inputs.size(), O);
  };
  if (!Available)
    return Row(Obs); // Rejected: probe() already told the caller why.

  std::string Base = scratchBase();
  std::string Src = Base + ".c";
  std::string Bin = Base + ".bin";
  struct Cleanup {
    const ExternalBackend *B;
    std::string Src, Bin;
    ~Cleanup() {
      if (!B->Opts.KeepArtifacts) {
        std::remove(Src.c_str());
        std::remove(Bin.c_str());
      }
    }
  } Scope{this, Src, Bin};

  if (!writeFile(Src, Opts.Prelude + Source)) {
    warnInfra("cannot write scratch file " + Src);
    return Row(Obs);
  }

  TelemetrySink *Sink = Opts.Telemetry;
  std::string Cfg =
      Sink ? telemetryConfigLabel(Config.OptLevel, Config.Mode64)
           : std::string();
  ProcessOptions PO;
  PO.TimeoutMs = Opts.CompileTimeoutMs;
  ProcessResult C;
  {
    SpanTimer Span(Sink, nullptr, "compile", TelLabel, Cfg);
    C = runCompiler(compileArgv(Src, Bin, Config), PO);
  }
  switch (C.St) {
  case ProcessResult::Status::StartFailed:
    // A compiler that probed fine but cannot start now (deleted binary,
    // fork pressure): the variant is skipped like a rejection, but a
    // campaign silently degrading into "everything rejected, zero
    // findings" is a misconfiguration worth one loud line.
    warnInfra("cannot start compiler: " + C.Error);
    return Row(Obs);
  case ProcessResult::Status::TimedOut:
    Obs.Compile = BackendObservation::CompileStatus::TimedOut;
    Obs.CompileTimeAnomaly = true;
    return Row(Obs);
  case ProcessResult::Status::Signaled:
    Obs.Compile = BackendObservation::CompileStatus::Crashed;
    Obs.CrashSignature = extractCrashSignature(
        C.Stderr, "compiler killed by signal " + std::to_string(C.Signal));
    return Row(Obs);
  case ProcessResult::Status::Exited:
    break;
  }
  if (C.ExitCode != 0) {
    // Distinguish "died with a diagnostic banner" (ICE, assertion) from a
    // plain rejection: GCC's cc1 segfault surfaces as driver exit 1 plus
    // an "internal compiler error" line, not as a signal here.
    std::string Sig = extractCrashSignature(C.Stderr, "");
    if (Sig.empty()) {
      Obs.Compile = BackendObservation::CompileStatus::Rejected;
      return Row(Obs);
    }
    Obs.Compile = BackendObservation::CompileStatus::Crashed;
    Obs.CrashSignature = std::move(Sig);
    return Row(Obs);
  }

  // One compile, one subprocess execution per sweep input.
  Obs.Compile = BackendObservation::CompileStatus::Ok;
  std::vector<BackendObservation> Out = Row(Obs);
  for (size_t I = 0; I < Inputs.size(); ++I) {
    ProcessOptions RO;
    RO.TimeoutMs = Opts.ExecTimeoutMs;
    RO.StdinData = Inputs[I];
    ProcessResult R;
    {
      SpanTimer Span(Sink, nullptr, "exec", TelLabel, Cfg);
      R = runProcess({Bin}, RO);
    }
    if (R.St == ProcessResult::Status::StartFailed) {
      // We never ran the binary -- transient fork pressure, or an artifact
      // the compiler claimed and did not deliver. Either way this is an
      // infrastructure fact, not a behavioral observation: leave Exec at
      // NotRun so no wrong-code finding can be fabricated from it, and say
      // so once.
      warnInfra("cannot execute compiled binary: " + R.Error);
      continue;
    }
    classifyExecInto(R, Out[I]);
  }
  return Out;
}

std::unique_ptr<BatchTicket>
ExternalBackend::beginBatch(std::vector<std::string> Sources,
                            std::vector<BatchExpectation> Expected,
                            std::vector<CompilerConfig> Configs,
                            CoverageRegistry *Cov) const {
  (void)Cov;
  auto T = std::make_unique<ExternalBatchTicket>();
  T->B = this;
  T->Sources = std::move(Sources);
  T->Expected = std::move(Expected);
  T->Configs = std::move(Configs);
  if (!Available || T->Sources.size() <= 1)
    return T; // Solo fallback: nothing batched, nothing in flight.

  TelemetrySink *Sink = Opts.Telemetry;
  BatchRenderer::Result P;
  std::vector<std::string> Links(T->Configs.size());
  {
    SpanTimer Span(Sink, nullptr, "batch_pack", TelLabel);
    P = BatchRenderer::pack(T->Sources, Opts.Prelude);
    for (size_t C = 0; P.Ok && C < T->Configs.size(); ++C) {
      Links[C] = dispatcherFor(T->Configs[C]);
      P.Ok = !Links[C].empty();
    }
  }
  // A variant that does not re-lex, or a compiler that cannot build the
  // dispatcher: the solo path is always right.
  if (!P.Ok)
    return T;

  std::string Base = scratchBase();
  T->Src = Base + ".c";
  if (!writeFile(T->Src, P.Source)) {
    warnInfra("cannot write scratch file " + T->Src);
    T->Src.clear();
    return T;
  }
  T->Packed = true;
  T->Compiles.resize(T->Configs.size());
  ProcessOptions PO;
  PO.TimeoutMs = Opts.CompileTimeoutMs;
  for (size_t C = 0; C < T->Configs.size(); ++C) {
    ExternalBatchTicket::ConfigCompile &CC = T->Compiles[C];
    CC.Bin = Base + "-c" + std::to_string(C) + ".bin";
    if (Pool) {
      // The overlap the pool exists for: compiles start now, while the
      // harness worker goes back to rendering and interpreting. Without a
      // pool the compile happens synchronously in finishBatch.
      CC.Job = Pool->submit(
          compileArgv(T->Src, CC.Bin, T->Configs[C], Links[C]), PO);
      CC.Submitted = true;
      if (Sink)
        CC.SubmitUs = Sink->nowUs();
    }
  }
  return T;
}

std::vector<std::vector<std::vector<BackendObservation>>>
ExternalBackend::finishBatch(std::unique_ptr<BatchTicket> Ticket) const {
  auto *T = dynamic_cast<ExternalBatchTicket *>(Ticket.get());
  if (!T)
    return CompilerBackend::finishBatch(std::move(Ticket));

  std::vector<std::vector<std::vector<BackendObservation>>> Out(
      T->Sources.size(),
      std::vector<std::vector<BackendObservation>>(T->Configs.size()));
  if (!T->Packed) {
    for (size_t I = 0; I < T->Sources.size(); ++I)
      for (size_t C = 0; C < T->Configs.size(); ++C)
        Out[I][C] = runSolo(T->Sources[I], T->Configs[C]);
    return Out;
  }

  T->Union = sweepUnion(T->Configs);
  std::vector<size_t> All(T->Sources.size());
  for (size_t I = 0; I < All.size(); ++I)
    All[I] = I;
  ProcessOptions PO;
  PO.TimeoutMs = Opts.CompileTimeoutMs;
  TelemetrySink *Sink = Opts.Telemetry;
  for (size_t C = 0; C < T->Configs.size(); ++C) {
    ExternalBatchTicket::ConfigCompile &CC = T->Compiles[C];
    std::string Cfg = Sink ? telemetryConfigLabel(T->Configs[C].OptLevel,
                                                  T->Configs[C].Mode64)
                           : std::string();
    ProcessResult CR;
    if (CC.Submitted) {
      {
        // The blocking wait traces as its own phase; the honest compile
        // latency (submit -> collect, crossing threads) folds
        // aggregate-only under "compile" so pool-overlapped compiles
        // report real durations, not just the tail this thread blocked on.
        SpanTimer Span(Sink, nullptr, "compile_wait", TelLabel, Cfg);
        CR = Pool->wait(CC.Job);
      }
      CC.Submitted = false;
      if (Sink)
        Sink->recordAggregate("compile", TelLabel, Cfg,
                              Sink->nowUs() - CC.SubmitUs);
    } else {
      SpanTimer Span(Sink, nullptr, "compile", TelLabel, Cfg);
      CR = runCompiler(compileArgv(T->Src, CC.Bin, T->Configs[C],
                                   dispatcherFor(T->Configs[C])),
                       PO);
    }
    resolveSubset(*T, C, All, &CR, CC.Bin, Out);
  }
  return Out; // ~ExternalBatchTicket removes the scratch files.
}

std::vector<BackendObservation>
ExternalBackend::runSolo(const std::string &Source,
                         const CompilerConfig &Config) const {
  SpanTimer Span(Opts.Telemetry, nullptr, "solo", TelLabel,
                 Opts.Telemetry
                     ? telemetryConfigLabel(Config.OptLevel, Config.Mode64)
                     : std::string());
  return runSweep(Source, Config, configInputs(Config), nullptr);
}

void ExternalBackend::resolveSubset(
    const ExternalBatchTicket &T, size_t ConfigIdx,
    const std::vector<size_t> &Subset, const ProcessResult *Known,
    const std::string &KnownBin,
    std::vector<std::vector<std::vector<BackendObservation>>> &Out) const {
  const CompilerConfig &Config = T.Configs[ConfigIdx];
  const std::vector<std::string> Ins = configInputs(Config);
  const std::string Cfg =
      Opts.Telemetry ? telemetryConfigLabel(Config.OptLevel, Config.Mode64)
                     : std::string();
  auto Solo = [&](size_t V) {
    Out[V][ConfigIdx] = runSolo(T.Sources[V], Config);
  };

  ProcessResult CR;
  std::string Bin;
  struct Cleanup {
    const ExternalBackend *B;
    std::string Src, Bin;
    ~Cleanup() {
      if (B && !B->Opts.KeepArtifacts) {
        if (!Src.empty())
          std::remove(Src.c_str());
        if (!Bin.empty())
          std::remove(Bin.c_str());
      }
    }
  } Scope{nullptr, {}, {}};

  if (Known) {
    CR = *Known;
    Bin = KnownBin;
  } else {
    // A sub-batch produced by splitting: one variant resolves by plain
    // run() directly (cheaper than packing a singleton TU, and it is the
    // very observation the contract demands); larger subsets re-pack.
    if (Subset.size() == 1)
      return Solo(Subset.front());
    BatchRenderer::Result P;
    {
      SpanTimer Span(Opts.Telemetry, nullptr, "batch_pack", TelLabel);
      P = BatchRenderer::pack(T.Sources, Subset, Opts.Prelude);
    }
    if (!P.Ok) {
      for (size_t V : Subset)
        Solo(V);
      return;
    }
    std::string Base = scratchBase();
    Scope.B = this;
    Scope.Src = Base + ".c";
    Scope.Bin = Bin = Base + ".bin";
    if (!writeFile(Scope.Src, P.Source)) {
      warnInfra("cannot write scratch file " + Scope.Src);
      for (size_t V : Subset)
        Solo(V);
      return;
    }
    ProcessOptions PO;
    PO.TimeoutMs = Opts.CompileTimeoutMs;
    SpanTimer Span(Opts.Telemetry, nullptr, "compile", TelLabel, Cfg);
    CR = runCompiler(compileArgv(Scope.Src, Bin, Config, dispatcherFor(Config)),
                     PO);
  }

  if (!CR.exitedWith(0)) {
    // The batch TU did not compile cleanly: crash, reject, timeout, or
    // start failure. Which member is responsible is unknowable from here
    // (diagnostics name renamed identifiers, a timeout names nobody), so
    // split and recurse; singletons resolve unbatched, which classifies
    // the failure exactly as an unbatched campaign would have.
    if (Subset.size() == 1)
      return Solo(Subset.front());
    size_t Mid = Subset.size() / 2;
    resolveSubset(T, ConfigIdx,
                  std::vector<size_t>(Subset.begin(), Subset.begin() + Mid),
                  nullptr, {}, Out);
    resolveSubset(T, ConfigIdx,
                  std::vector<size_t>(Subset.begin() + Mid, Subset.end()),
                  nullptr, {}, Out);
    return;
  }

  // Solo-verification invariant, row edition: only a row whose every
  // executed cell exactly reproduces its oracle expectation is kept -- and
  // such a row records nothing downstream. Any deviating cell (trap, hang,
  // divergent exit or output, no well-formed frame, missing expectation)
  // sends the whole (variant, config) row back through unbatched
  // runSweep() so the recorded row shares one single-compile provenance.
  // Cells whose input the oracle excluded (Cell.Valid false under a valid
  // expectation) are never executed here and stay Exec = NotRun; the
  // harness skips them by oracle verdict, never by looking at the
  // observation, so the shape difference against a runSweep() row is
  // unobservable. The one thing none of this can catch is a batch compile
  // *masking* a divergence its solo compile would show while still
  // matching the oracle -- see DESIGN.md Section 13 for why that is
  // accepted.
  std::vector<const BatchExpectation *> Expect(Subset.size(), nullptr);
  std::vector<bool> Clean(Subset.size(), false);
  std::vector<std::vector<BackendObservation>> Rows(
      Subset.size(), std::vector<BackendObservation>(Ins.size()));
  for (size_t Local = 0; Local < Subset.size(); ++Local) {
    size_t V = Subset[Local];
    Expect[Local] = V < T.Expected.size() ? &T.Expected[V] : nullptr;
    Clean[Local] = Expect[Local] && Expect[Local]->Valid;
    for (BackendObservation &Obs : Rows[Local])
      Obs.Compile = BackendObservation::CompileStatus::Ok;
  }
  // One run of the packed binary per sweep input executes every member
  // whose row is still clean and whose cell the oracle kept, each in its
  // own forked child under its own ExecTimeoutMs (compiler/BatchRenderer.h).
  for (size_t I = 0; I < Ins.size(); ++I) {
    // This input's index in the batch's sweep union -- the index space
    // BatchExpectation::cell() speaks.
    size_t U = static_cast<size_t>(
        std::find(T.Union.begin(), T.Union.end(), Ins[I]) - T.Union.begin());
    std::vector<size_t> Members;
    for (size_t Local = 0; Local < Subset.size(); ++Local)
      if (Clean[Local] && Expect[Local]->cell(U).Valid)
        Members.push_back(Local);
    if (Members.empty())
      continue;
    ProcessOptions RO;
    RO.TimeoutMs = Opts.ExecTimeoutMs;
    RO.StdinData = Ins[I];
    BatchRenderer::Dispatch D = BatchRenderer::dispatch(Bin, Members, RO);
    ProcessResult R;
    {
      SpanTimer Span(Opts.Telemetry, nullptr, "exec", TelLabel, Cfg);
      R = runProcess(D.Argv, D.Opts);
    }
    std::vector<ProcessResult> Frames = BatchRenderer::frames(D, R);
    for (size_t M = 0; M < Members.size(); ++M) {
      size_t Local = Members[M];
      if (Frames[M].St == ProcessResult::Status::StartFailed) {
        Clean[Local] = false;
        continue;
      }
      BackendObservation &Obs = Rows[Local][I];
      classifyExecInto(Frames[M], Obs);
      BatchExpectation::Cell Cell = Expect[Local]->cell(U);
      Clean[Local] = Obs.Exec == BackendObservation::ExecStatus::Ok &&
                     classifyDivergence(Obs, Cell.ExitCode, Cell.Output)
                         .empty();
    }
  }
  for (size_t Local = 0; Local < Subset.size(); ++Local) {
    if (Clean[Local])
      Out[Subset[Local]][ConfigIdx] = std::move(Rows[Local]);
    else
      Solo(Subset[Local]);
  }
}
