#!/usr/bin/env bash
# Builds a Release-flavored preset and runs every bench once. Defaults to
# --quick so a full sweep stays CI-sized; pass --full for the paper's full
# axes. Any bench that throws (a rejected block, a state-root mismatch)
# fails the sweep. Speed claims go through bench/ab.sh, not this script.
#
# usage: bench/run_all.sh [--full] [--preset=NAME]
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK="--quick"
PRESET="release"
for arg in "$@"; do
  case "$arg" in
    --full) QUICK="" ;;
    --preset=*) PRESET="${arg#--preset=}" ;;
    *) echo "usage: $0 [--full] [--preset=NAME]" >&2; exit 2 ;;
  esac
done

cmake --preset "$PRESET"
cmake --build --preset "$PRESET"

# Glob the built binaries so the CMake target list stays the single source
# of truth — a bench added there is picked up here automatically.
BIN_DIR="build-$PRESET/bench"
for bin in "$BIN_DIR"/bench_*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  bench="$(basename "$bin")"
  echo "=== $bench"
  if [[ "$bench" == bench_stm_micro ]]; then
    "$bin"  # google-benchmark CLI; absent when the library isn't installed.
  else
    "$bin" $QUICK
  fi
done
