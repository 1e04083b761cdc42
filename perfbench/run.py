#!/usr/bin/env python3
"""Campaign benchmark: one workload, one client, one JSON result line.

    python3 perfbench/run.py --workload corpus2p --seed 1 --seconds 20 --trace 0

Builds the benchmark package in this directory (CMake, Release) into
$CARGO_TARGET_DIR (default .bench_build) under the checkout root, runs the
perfbench driver for the named workload -- with --trace 0 as a closed loop
of one-iteration driver processes for --seconds, with --trace 1 once -- and
prints, as the last stdout line, {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced replay.

--seed shuffles the order in which the corpus programs are fed; --base picks
the generated corpus (default: the primary base in pins.json; the held-out
base there is for confirming a claim). Every iteration's correctness digest
is checked against pins.json; a mismatch makes the run fail (exit 1).

    python3 perfbench/run.py --pin    # re-derive pins.json (new corpus only)
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORKLOADS = ("corpus2p", "loops_ckpt", "ext_gcc", "enum_loops")
DRIVER_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once, then lets CMake decide what is stale."""
    if not (ROOT / "src" / "testing" / "Harness.h").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    out = build_dir()
    cmake = out / "cmake"
    steps = []
    if not (cmake / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake), "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return cmake / "perfbench"


def run_driver(binary, workload, seed, trace, base):
    """One driver process: one fresh-state iteration (plus, with trace, the
    replays and the telemetry-attached harness iteration)."""
    work = build_dir() / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    argv = [str(binary), "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--base", str(base), "--work", str(work)]
    # Its own session, so a hung driver is killed together with its broker
    # processes (compile jobs carry their own timeouts).
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(work, ignore_errors=True)
        fail(f"{workload} driver exceeded {DRIVER_TIMEOUT_S} s", 1)
    try:
        if proc.returncode != 0:
            fail(f"{workload} driver exited with {proc.returncode}", 1)
        spans = work / f"spans-{workload}.jsonl"
        if spans.is_file():  # Written at the end of a traced run.
            traces = build_dir() / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.move(str(spans), traces / f"spans-{workload}-seed{seed}.jsonl")
        return json.loads(stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def closed_loop(binary, workload, seed, seconds, base):
    """Driver processes one after another until the budget is spent; none
    starts that the remaining budget cannot fit (by the median process so
    far). Each process draws its own speed from the host (the same
    iteration reads up to ~1.5x apart in two processes), so many short
    processes average what one long process could not. Returns the
    processes' outputs."""
    start = time.monotonic()
    spent, outs = [], []
    while True:
        t0 = time.monotonic()
        outs.append(run_driver(binary, workload, seed, 0, base))
        spent.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(spent) > seconds:
            return outs


DIGEST_KEYS = ("tested", "excluded", "exec_ok", "bugs", "raw_findings",
               "rendered", "stream_hash", "hash")


def digest_mismatch(got, want):
    """Names the first pinned field an iteration's digest disagrees on."""
    for key in DIGEST_KEYS:
        if got.get(key) != want.get(key):
            return f"{key}: got {got.get(key)!r}, pinned {want.get(key)!r}"
    return None


def replay_mismatch(replay, want):
    """The traced replay must see the same variants the harness tested."""
    if want["rendered"]:
        if (replay["variants"], replay["stream_hash"]) != (
                want["rendered"], want["stream_hash"]):
            return "replay stream differs from the pinned enumeration"
    elif (replay["tested"], replay["excluded"], replay["exec_ok"]) != (
            want["tested"], want["excluded"], want["exec_ok"]):
        return (f"replay tested/excluded/exec_ok {replay['tested']}/"
                f"{replay['excluded']}/{replay['exec_ok']} != pinned "
                f"{want['tested']}/{want['excluded']}/{want['exec_ok']}")
    return None


def metric(value, unit):
    return {"value": value, "unit": unit}


def unstolen_share(it):
    """The share of the processor time an iteration was runnable for that it
    got: cpu / (cpu + steal). Wall times are scaled by it to take out the
    hypervisor's steal, which on a shared host comes in bursts (up to half
    of all processor time for minutes) and would otherwise set the spread
    of every multi-process workload. Nothing else runs on the machine
    during a run, so all of the machine's steal is this iteration's."""
    cpu = it["cpu_s"]
    return cpu / (cpu + it["steal_s"]) if cpu > 0 else 1.0


def end_to_end(outs):
    """Throughput and CPU as sums over all iterations of one run, which
    weigh each process by its work; set-up as the median of its samples,
    each scaled by its process's unstolen share (a set-up takes
    milliseconds, below the resolution of the steal counter); peak RSS as
    the maximum."""
    iters = [it for out in outs for it in out["iterations"]]
    variants = sum(it["variants"] for it in iters)
    if not variants:
        fail("no iteration delivered a variant", 1)
    setup = [s * unstolen_share(out["iterations"][0])
             for out in outs for s in out["setup_samples"]]
    return {
        "variants_per_s": metric(variants / sum(
            it["wall_s"] * unstolen_share(it) for it in iters), "1/s"),
        "cpu_ms_per_variant": metric(
            1000.0 * sum(it["cpu_s"] for it in iters) / variants, "ms"),
        # The run's highest high-water mark: on loops_ckpt (two shard
        # threads) a process peaks near 17, 20.5 or 23.5 MB, depending on
        # how the allocator's thread arenas fall out, so the lowest or the
        # median of a handful of processes jumps between those levels,
        # while the highest is almost always the top one.
        "peak_rss_mb": metric(max(
            it["peak_rss_kb"] for it in iters) / 1024.0, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def pin():
    pins = json.loads(PINS.read_text())
    binary = build()
    for workload in WORKLOADS:
        bases = pins["bases"][workload]
        for base in (bases["primary"], bases["held_out"]):
            out = run_driver(binary, workload, 0, 0, base)
            digest = out["iterations"][0]["digest"]
            pins["digests"].setdefault(workload, {})[str(base)] = digest
            if out["cc_version"]:
                pins["cc_version"] = out["cc_version"]
            print(workload, base, digest, file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=2) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--base", type=int)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.pin:
        return pin()
    if not args.workload:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    pins = json.loads(PINS.read_text())
    base = args.base if args.base is not None else \
        pins["bases"][args.workload]["primary"]
    want = pins["digests"].get(args.workload, {}).get(str(base))
    if want is None:
        fail(f"no pinned digest for {args.workload} at base {base}")

    if args.trace:
        outs = [run_driver(binary, args.workload, args.seed, 1, base)]
    else:
        outs = closed_loop(binary, args.workload, args.seed, args.seconds,
                           base)
    for out in outs:
        if (args.workload == "ext_gcc"
                and out["cc_version"] != pins["cc_version"]):
            fail(f"host compiler changed: `cc --version` says "
                 f"{out['cc_version']!r}, pins.json recorded "
                 f"{pins['cc_version']!r}; ext_gcc results are not "
                 f"comparable", 1)

    attempted = failed = 0
    problems = []
    iterations = [it for out in outs for it in out["iterations"]]
    for n, it in enumerate(iterations):
        # A digest mismatch fails every variant of the iteration; otherwise
        # each backend cell that could not run, broker respawn or lost pool
        # job fails one (never more than the iteration attempted).
        attempted += it["variants"]
        bad = digest_mismatch(it["digest"], want)
        if bad:
            failed += it["variants"]
            problems.append(f"iteration {n}: {bad}")
        else:
            failed += min(it["infra_failures"], it["variants"])
    if args.trace:
        metrics = outs[0]["layers"]
        replay = outs[0]["replay"]
        attempted += replay["variants"]
        bad = replay_mismatch(replay, want)
        if bad:
            failed += replay["variants"]
            problems.append(bad)
    else:
        metrics = end_to_end(outs)
    for p in problems:
        print(f"perfbench: {args.workload}: DIGEST MISMATCH {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
