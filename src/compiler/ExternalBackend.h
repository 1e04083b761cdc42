//===- compiler/ExternalBackend.h - real-compiler subprocess driver ------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend the paper actually describes: render the variant to a file,
/// invoke a real host compiler (cc/gcc/clang) as a subprocess, run the
/// produced binary, and classify crash / reject / wrong-code / timeout.
/// Built on support/ProcessRunner.h; thread-safe (every run gets uniquely
/// named scratch files inside one per-instance scratch directory, removed
/// on destruction).
///
/// Mapping from CompilerConfig: OptLevel becomes -O<n>; Mode64 becomes
/// -m64/-m32 when MapMachineMode is on (off by default -- 32-bit support
/// libraries are frequently absent); Persona/Version are carried through
/// to findings as labels but do not change the command line -- point
/// different ExternalBackend instances at different compilers to test
/// several personas for real.
///
/// There is no ground truth here. Compiler crashes are keyed by the marker
/// line fished out of stderr ("internal compiler error: ...", assertion
/// failures, backend fatals) with the variant-specific file/line prefix
/// stripped; wrong-code findings carry the divergence kind. Everything
/// dedups through the signature-only triage path (FoundBug::BugId == 0).
///
/// Batched path (DESIGN.md Section 13): beginBatch packs K variants into
/// one translation unit (compiler/BatchRenderer.h) and compiles it once
/// per configuration -- asynchronously on the process pool when
/// Opts.PoolWorkers > 0 -- then finishBatch runs the packed binary once
/// per configuration and sweep input: its dispatcher main (an object
/// compiled once per machine mode and linked into every packed binary)
/// forks one child per member, each under its own ExecTimeoutMs, and
/// frames every member's exit status and stdout. The batch is an
/// amortization, never an oracle: a batch compile failure is bisected by
/// recursive split down to single variants, and a batched execution cell
/// that deviates from the harness's expectation in any way -- including a
/// missing or malformed frame and a dispatcher that fails -- sends its
/// whole (variant, config) row back through unbatched runSweep(), so
/// every observation that can become a finding carries ordinary
/// single-variant provenance and campaign results are bit-identical to
/// BatchSize = 1.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMPILER_EXTERNALBACKEND_H
#define SPE_COMPILER_EXTERNALBACKEND_H

#include "compiler/Backend.h"
#include "support/ProcessRunner.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spe {

class ProcessPool;
class TelemetrySink;
struct ExternalBatchTicket;

/// Command-line template and budgets for one external compiler.
struct ExternalBackendOptions {
  /// Compiler argv prefix; Argv[0] is resolved through PATH.
  std::vector<std::string> Command = {"cc"};
  /// Arguments appended right after Command on every compile. "-w" keeps
  /// ordinary warnings out of the stderr stream the crash scanner reads.
  std::vector<std::string> ExtraArgs = {"-w"};
  /// Append -O<OptLevel> from the CompilerConfig under test.
  bool MapOptLevel = true;
  /// Append -m64 / -m32 from CompilerConfig::Mode64. Off by default: the
  /// -m32 runtime is often not installed, and a missing libc must not be
  /// misread as ten thousand rejection findings.
  bool MapMachineMode = false;
  uint64_t CompileTimeoutMs = 30'000;
  uint64_t ExecTimeoutMs = 5'000;
  /// Text prepended to every variant before it reaches the compiler.
  /// Variants are mini-C programs that may call printf (so stdio.h) and
  /// spe_input(), the sweep intrinsic, which reads one scanf("%d") integer
  /// from stdin -- the same contract support/StdinScan.h implements for
  /// the in-process executors, so swept inputs (whitespace-separated
  /// decimal integers) observe identical values everywhere.
  std::string Prelude = "#include <stdio.h>\n"
                        "static int spe_input(void) {\n"
                        "  int spe_v = 0;\n"
                        "  if (scanf(\"%d\", &spe_v) != 1)\n"
                        "    return 0;\n"
                        "  return spe_v;\n"
                        "}\n";
  /// Scratch directory under which the per-instance scratch subdirectory
  /// (`spe-ext-<pid>-XXXXXX`) is created; empty = $TMPDIR or /tmp.
  std::string TempDir;
  /// Keep scratch files (and the scratch directory) instead of removing
  /// them on destruction (debugging).
  bool KeepArtifacts = false;
  /// Worker threads running compiler subprocesses on this backend's
  /// behalf (support/ProcessPool.h). 0 = no pool, every compile run on the
  /// calling thread. The pool overlaps batch compiles with the harness's
  /// oracle work and runs one batch's per-config compiles concurrently.
  /// Compiled binaries always run on the calling thread, so a batch's
  /// execution never queues behind the next batch's compiles. The pool
  /// never changes any observation, so it is (like BatchSize) excluded
  /// from identity() and the resume fingerprint.
  unsigned PoolWorkers = 0;
  /// Campaign telemetry sink (support/Telemetry.h); null = off. Global
  /// spans: "compile" per compiler invocation (for pooled batch compiles,
  /// the honest submit-to-collect latency folds aggregate-only under the
  /// same key while "compile_wait" traces the blocking wait), "batch_pack"
  /// around TU packing (and the once-per-machine-mode dispatcher compile),
  /// "exec" around compiled-binary executions (one per packed binary run
  /// on the batched path), and "solo" around every (variant, config) row a
  /// batch resolves through unbatched runSweep().
  /// Observation only -- excluded from identity() and every resume
  /// fingerprint, exactly like PoolWorkers.
  TelemetrySink *Telemetry = nullptr;
};

/// Drives one real host compiler through support/ProcessRunner.
class ExternalBackend final : public CompilerBackend {
public:
  /// Probes `Command --version` once per distinct command line
  /// process-wide (memoized -- constructing many backends over the same
  /// compiler re-probes nothing); a backend whose compiler cannot be
  /// executed stays constructible (available() false, every run()
  /// rejecting) so callers can report the reason and skip.
  explicit ExternalBackend(ExternalBackendOptions Opts = {});
  ~ExternalBackend() override;

  /// True when the version probe succeeded and runs can proceed.
  bool available() const { return Available; }
  /// Human-readable reason when available() is false.
  const std::string &unavailableReason() const { return Unavailable; }
  /// First line of the probed `--version` output.
  const std::string &versionLine() const { return Version; }

  std::string identity() const override;
  bool hasGroundTruth() const override { return false; }
  BackendObservation run(const std::string &Source,
                         const CompilerConfig &Config,
                         CoverageRegistry *Cov) const override;
  BackendObservation runWithInput(const std::string &Source,
                                  const CompilerConfig &Config,
                                  const std::string &Input,
                                  CoverageRegistry *Cov) const override;
  /// One compile, one subprocess execution per sweep input (each input fed
  /// through the binary's stdin).
  std::vector<BackendObservation>
  runSweep(const std::string &Source, const CompilerConfig &Config,
           const std::vector<std::string> &Inputs,
           CoverageRegistry *Cov) const override;

  std::unique_ptr<BatchTicket>
  beginBatch(std::vector<std::string> Sources,
             std::vector<BatchExpectation> Expected,
             std::vector<CompilerConfig> Configs,
             CoverageRegistry *Cov) const override;
  std::vector<std::vector<std::vector<BackendObservation>>>
  finishBatch(std::unique_ptr<BatchTicket> Ticket) const override;

  const ExternalBackendOptions &options() const { return Opts; }
  /// The process pool (null when Opts.PoolWorkers == 0). Exposed for its
  /// stats() (status feeds, benches).
  ProcessPool *pool() const { return Pool.get(); }
  /// The per-instance scratch directory (removed on destruction unless
  /// KeepArtifacts).
  const std::string &scratchDir() const { return ScratchDir; }

  /// Extracts the stable crash key from a crashed compiler's stderr: the
  /// first marker line (internal compiler error / assertion / backend
  /// fatal) with its leading "file:line:col:" prefix stripped, or
  /// \p Fallback when no marker is present. Exposed for tests.
  static std::string extractCrashSignature(const std::string &Stderr,
                                           const std::string &Fallback);

  /// Best-effort reaper for scratch directories stranded by SIGKILLed
  /// campaigns: removes every `spe-ext-<pid>-*` directory directly under
  /// \p BaseDir whose `<pid>` names a dead process. The pid is part of the
  /// name mkdtemp creates, so a live owner's directory is never removed,
  /// not even one created a moment ago. \returns the number of directories
  /// removed. Runs automatically at construction against the instance's
  /// scratch base; exposed for tests and tools.
  static unsigned sweepStaleScratch(const std::string &BaseDir);

private:
  friend struct ExternalBatchTicket;

  std::string scratchBase() const;
  /// Runs one compiler subprocess, through the process pool when one
  /// exists -- identical results either way (the pool's contract).
  ProcessResult runCompiler(const std::vector<std::string> &Argv,
                            const ProcessOptions &PO) const;
  /// The compile command line for one (source file, output, config);
  /// \p Link, when set, is an object linked in after the source.
  std::vector<std::string> compileArgv(const std::string &Src,
                                       const std::string &Bin,
                                       const CompilerConfig &Config,
                                       const std::string &Link = {}) const;
  /// The dispatcher object (BatchRenderer::dispatcherSource()) that packed
  /// binaries under \p Config link, compiled on first use once per
  /// machine mode by this compiler at its default optimization level.
  /// Empty when it does not compile: such batches resolve solo.
  std::string dispatcherFor(const CompilerConfig &Config) const;
  /// Resolves the members of \p Subset for configuration \p ConfigIdx into
  /// \p Out: compiles the packed subset (or accepts \p Known, the already
  /// finished compile of exactly this subset), runs a successful compile
  /// once per sweep input, and recursively splits a failed compile down to
  /// single variants, which are resolved by plain runSweep(). Any executed
  /// cell that deviates from its expectation sends the whole (variant,
  /// config) row back through runSweep() so every recorded row shares one
  /// unbatched compile.
  void resolveSubset(
      const ExternalBatchTicket &T, size_t ConfigIdx,
      const std::vector<size_t> &Subset, const ProcessResult *Known,
      const std::string &KnownBin,
      std::vector<std::vector<std::vector<BackendObservation>>> &Out) const;
  /// runSweep() of one row a batch could not keep, inside a "solo" span.
  std::vector<BackendObservation> runSolo(const std::string &Source,
                                          const CompilerConfig &Config) const;
  /// One loud line on the first infrastructure failure (scratch write,
  /// a compiler or binary that did not start); such variants are skipped, never
  /// classified, so they cannot fabricate findings.
  void warnInfra(const std::string &What) const;

  ExternalBackendOptions Opts;
  bool Available = false;
  std::string Unavailable;
  std::string Version;
  /// Cached telemetryBackendLabel(identity()) -- span keys must not pay an
  /// identity() rebuild per compile.
  std::string TelLabel;
  std::string ScratchDir;
  /// True when ScratchDir is this instance's own mkdtemp directory (and is
  /// removed on destruction); false on the fallback flat layout when the
  /// directory could not be created.
  bool OwnScratchDir = false;
  std::unique_ptr<ProcessPool> Pool;
  /// dispatcherFor()'s objects, by machine mode (index 1 = -m32 when
  /// MapMachineMode is on), and whether each compile has run; guarded by
  /// DispatcherMu.
  mutable std::mutex DispatcherMu;
  mutable std::string DispatcherObj[2];
  mutable bool DispatcherTried[2] = {false, false};
  mutable std::atomic<uint64_t> Seq{0};
  mutable std::atomic<bool> InfraWarned{false};
};

} // namespace spe

#endif // SPE_COMPILER_EXTERNALBACKEND_H
