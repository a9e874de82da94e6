#!/usr/bin/env bash
# Same-machine A/B of two commits on the end-to-end benchmark (bench/e2e).
# usage: bench/ab.sh <base> <head> [pairs] [workload...]
#
# Each commit is exported to .bench_build/ab/<side>-<sha>/src and built by its
# own run.py into its own CARGO_TARGET_DIR. Pair i (default 10 pairs) runs each
# side's `run.py --workload W --seed 42+i` for every workload (default:
# BENCHMARK.json's), alternating which side goes first. Prints per metric both
# medians, head/base, head's wins by the metric's `better` direction and base's
# IQR/median beside the bound, then failed/attempted per side. Run logs go to
# .bench_build/ab/logs/. Exits 1 on any incorrect or failed run.
set -euo pipefail
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
if [[ $# -lt 2 ]]; then
  echo "usage: $0 <base> <head> [pairs] [workload...]" >&2
  exit 2
fi
AB="$ROOT/.bench_build/ab"
mkdir -p "$AB/logs"
export_tree() {  # side rev; prints the side's directory
  local sha dir
  sha="$(git -C "$ROOT" rev-parse --verify "$2^{commit}")"
  dir="$AB/$1-$sha"
  if [[ ! -f "$dir/src/CMakeLists.txt" ]]; then
    rm -rf "$dir/src" && mkdir -p "$dir/src"
    git -C "$ROOT" archive "$sha" | tar -x -C "$dir/src"
  fi
  echo "$dir"
}
BASE_DIR="$(export_tree base "$1")"
HEAD_DIR="$(export_tree head "$2")"
PAIRS="${3:-10}"
shift $(($# < 3 ? $# : 3))

exec python3 - "$ROOT" "$AB/logs" "$BASE_DIR" "$HEAD_DIR" "$PAIRS" "$@" <<'EOF'
import importlib.util, json, os, statistics, subprocess, sys
root, logs, base_dir, head_dir, pairs, *workloads = sys.argv[1:]
spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
workloads = workloads or [w["name"] for w in spec["workloads"]]
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
sides = {"base": base_dir, "head": head_dir}
run_py = {s: os.path.join(d, "src/bench/e2e/run.py") for s, d in sides.items()}
target = {s: os.path.join(d, "target") for s, d in sides.items()}

for side in sides:  # Build up front, so a build failure is not a run failure.
    print(f"building {side} ...", flush=True)
    loader = importlib.util.spec_from_file_location(f"run_{side}", run_py[side])
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    os.environ["CARGO_TARGET_DIR"] = target[side]
    module.build()

def run(side, w, seed, log):
    cmd = [sys.executable, run_py[side], "--workload", w, "--seed", str(seed)]
    env = dict(os.environ, CARGO_TARGET_DIR=target[side])
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, check=False)
    with open(log, "w") as f:
        f.write(done.stdout + done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    ok = done.returncode == 0 and result is not None and result["correct"] and not result["failed"]
    if not ok:
        print(f"  {side} FAILED (exit {done.returncode}); log: {log}")
        print("".join(f"    {l}\n" for l in lines if "GATE FAILED" in l), end="")
    return ok, result

values = {w: {s: {} for s in sides} for w in workloads}  # w -> side -> metric -> pair -> value
ops = {s: [0, 0] for s in sides}  # failed, attempted
bad_runs = {s: 0 for s in sides}
for i in range(int(pairs)):
    order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
    for w in workloads:
        print(f"[pair {i + 1}/{pairs}] {w} seed={42 + i} first={order[0]}", flush=True)
        for side in order:
            ok, result = run(side, w, 42 + i, os.path.join(logs, f"{i + 1:02d}-{w}-{side}.log"))
            bad_runs[side] += not ok
            if result is None:
                continue
            ops[side][0] += result["failed"]
            ops[side][1] += result["attempted"]
            for name, metric in result["metrics"].items():
                values[w][side].setdefault(name, {})[i] = metric["value"]

def iqr_over_median(vals):
    if len(vals) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")

print(f"\n{'workload':<14} {'metric':<16} {'base':>12} {'head':>12} {'head/base':>9} "
      f"{'wins':>6} {'base IQR/med':>12} {'bound':>6}")
for w in workloads:
    for name, b in sorted(values[w]["base"].items()):
        h = values[w]["head"].get(name, {})
        if not h:
            continue
        mb, mh = statistics.median(b.values()), statistics.median(h.values())
        higher = better.get(name) == "higher"
        paired = [(b[i], h[i]) for i in b if i in h]
        wins = sum((y > x) if higher else (y < x) for x, y in paired)
        print(f"{w:<14} {name:<16} {mb:>12.6g} {mh:>12.6g} "
              f"{mh / mb if mb else float('nan'):>9.3f} {f'{wins}/{len(paired)}':>6} "
              f"{iqr_over_median(list(b.values())):>12.3f} {bound.get(name, '-'):>6}")
for side in sides:
    print(f"{side}: {ops[side][0]}/{ops[side][1]} operations failed, "
          f"{bad_runs[side]}/{int(pairs) * len(workloads)} runs failed")
sys.exit(1 if any(bad_runs.values()) else 0)
EOF
