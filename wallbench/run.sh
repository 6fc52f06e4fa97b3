#!/usr/bin/env bash
# The one command of the atomio wall-clock benchmark.
#
#   wallbench/run.sh                       the suite: 4 workloads untraced, then traced runs + layer probes
#   wallbench/run.sh --workload NAME       the suite on one workload
#   wallbench/run.sh --seed N              drives the order of tile_read's reads and every placement seed
#   wallbench/run.sh --smoke               unit tests, then the suite at 1/40 of the ops (sanity, not numbers)
#   wallbench/run.sh --selfcheck           the untraced set twice; fails if a metric moves by more than its bound
#   wallbench/run.sh compare A.json B.json verdict per (workload, end-to-end metric); non-zero on any "worse"
#   wallbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one run; the last line of stdout is the result object
#
# Builds the benchmark and the three server binaries (release, offline)
# into one target directory, runs the benchmark binary, and on every exit
# path kills and reaps whatever server it left behind and removes the
# run's scratch directory. Everything it writes is under wallbench/out
# and the cargo target directory.
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$HERE")"
TARGET="${CARGO_TARGET_DIR:-$HERE/target}"
case "$TARGET" in
/*) ;;
*) TARGET="$PWD/$TARGET" ;; # cargo reads a relative target dir against the caller's directory
esac
OUT="$HERE/out"
RUN_DIR="$OUT/run.$$"
mkdir -p "$RUN_DIR"

bench=""
cleanup() {
    if [ -n "$bench" ]; then
        kill "$bench" 2>/dev/null || true
        wait "$bench" 2>/dev/null || true
    fi
    # The benchmark lists every server it spawns; any still alive here
    # outlived a benchmark that died before its destructors ran.
    if [ -f "$RUN_DIR/pids" ]; then
        while read -r pid; do
            if grep -q '^atomio-' "/proc/$pid/comm" 2>/dev/null; then
                kill -9 "$pid" 2>/dev/null || true
            fi
        done <"$RUN_DIR/pids"
    fi
    rm -rf "$RUN_DIR"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

manifest="$HERE/Cargo.toml"
# stdout is the benchmark's; the build talks on stderr.
CARGO_TARGET_DIR="$TARGET" cargo build --release --offline --manifest-path "$manifest" \
    -p atomio-wallbench -p atomio-rpc --bins 1>&2
for arg in "$@"; do
    if [ "$arg" = "--smoke" ]; then
        CARGO_TARGET_DIR="$TARGET" cargo test --offline --manifest-path "$manifest" 1>&2
    fi
done

"$TARGET/release/atomio-wallbench" --out-dir "$OUT" --run-dir "$RUN_DIR" \
    --benchmark "$ROOT/BENCHMARK.json" "$@" &
bench=$!
code=0
wait "$bench" || code=$?
bench=""
exit "$code"
