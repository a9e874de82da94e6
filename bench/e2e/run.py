#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md in this directory).

One run (the BENCHMARK.json command; run from the repository root):
    python3 bench/e2e/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Agreement mode: N rounds of every workload, alternating the workload order,
then each metric's median and quartiles, flagging any whose spread between
quartiles exceeds its BENCHMARK.json bound:
    python3 bench/e2e/run.py --repeat N [--seed N]

--seconds defaults to BENCHMARK.json's run_seconds.

Smoke test (tiny sizes, same correctness gates, well under 15 s once built):
    python3 bench/e2e/run.py --smoke

The program is built from source with CMake into $CARGO_TARGET_DIR/e2e
(default .bench_build/e2e) under the repository root. The last line of a
run's standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["paper-mixed", "hot-auction", "zipf-1m", "replica-reads"]
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then lets the build tool skip what is up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} does not hold the concord sources (CMakeLists.txt, src/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "e2e"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    # The compiler's temporary files stay inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env, check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir


def command(build_dir, workload, seed, seconds, trace, smoke=False):
    cmd = [str(build_dir / "concord_e2e"), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append(f"--trace={build_dir / 'trace'}")
    if smoke:
        cmd.append("--smoke")
    return cmd


def run_captured(cmd):
    """Runs one benchmark process; returns (exit code, parsed result or None)."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        return 1, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"    {line}")
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode or 1, None


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def repeat(build_dir, args):
    bound = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    values = {w: {} for w in WORKLOADS}
    failures = 0
    for i in range(args.repeat):
        order = WORKLOADS if i % 2 == 0 else list(reversed(WORKLOADS))
        for w in order:
            seed = args.seed + i
            print(f"[round {i + 1}/{args.repeat}] {w} seed={seed}", flush=True)
            code, result = run_captured(command(build_dir, w, seed, args.seconds, False))
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                failures += 1
                print(f"  FAILED (exit {code})")
                continue
            print(f"  failed_ratio={result['failed'] / result['attempted']:.6f} " +
                  " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(result["metrics"].items())))
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])

    flagged = 0
    print(f"\n{'workload':<14} {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in WORKLOADS:
        for name, vals in sorted(values[w].items()):
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bound.get(name)
            over = limit is not None and spread > limit
            flagged += over
            print(f"{w:<14} {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.3f} {limit if limit is not None else '-':>6}"
                  f"{'  SPREAD ABOVE BOUND' if over else ''}")
    print(f"\n{failures} failed run(s), {flagged} metric(s) with spread above bound")
    return 0 if failures == 0 and flagged == 0 else 1


def smoke(build_dir):
    failures = 0
    for w in WORKLOADS:
        for trace in (False, True):
            print(f"smoke: {w}{' (traced)' if trace else ''}", flush=True)
            code, result = run_captured(command(build_dir, w, 42, 0.5, trace, smoke=True))
            ok = code == 0 and result is not None and result["correct"] and not result["failed"]
            failures += not ok
            print(f"  {'ok' if ok else 'FAILED'}")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.repeat or args.smoke):
        parser.error("one of --workload, --repeat or --smoke is required")

    build_dir = build()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.smoke:
        return smoke(build_dir)
    if args.repeat:
        return repeat(build_dir, args)
    cmd = command(build_dir, args.workload, args.seed, args.seconds, args.trace == 1)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
