#!/usr/bin/env bash
# Regenerates the virtual-time experiment results into a temp directory
# and compares them byte for byte with the committed results/*.json.
# Every arm is bit-reproducible (the sequenced virtual clock), so any
# difference means behaviour changed; results/ itself is never written.
#
# Usage: scripts/check_results.sh         the experiments that take under
#                                         a minute each (~1.5 min in all)
#        scripts/check_results.sh --all   + exp1, exp7_ablation, exp9_two_phase
#                                         (~12 min more)
#
# Never compared: e2 (> 6 min) and the files carrying wall-clock arms
# (e7g, e7h, e8b, e9d, e12), which move with the host on every run.
set -euo pipefail
cd "$(dirname "$0")/.."

# One row per experiment: binary | the virtual-time files it writes.
runs=(
    "exp4_regions_sweep|e4"
    "exp5_overlap_sweep|e5"
    "exp6_read_scalability|e6a e6b"
    "exp8_producer_consumer|e8"
    "exp8_wal|e8a"
    "exp10_gc|e10"
    "exp10_meta_cache|e10mc"
    "exp12_stragglers|e12st"
)
case "${1:-}" in
"") ;;
--all)
    runs+=(
        "exp1_scalability|e1"
        "exp7_ablation|e7a e7b e7c"
        "exp9_two_phase|e9"
    )
    ;;
*)
    echo "usage: $0 [--all]" >&2
    exit 2
    ;;
esac

cargo build --release --offline -p atomio-bench --bins
target="${CARGO_TARGET_DIR:-target}"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

differing=0
for row in "${runs[@]}"; do
    IFS='|' read -r bin files <<<"$row"
    ATOMIO_RESULTS_DIR="$out" "$target/release/$bin" >"$out/$bin.log" 2>&1 || {
        echo "$bin: failed; last lines of its output:" >&2
        tail -n 20 "$out/$bin.log" >&2
        exit 1
    }
    for f in $files; do
        if cmp -s "$out/$f.json" "results/$f.json"; then
            echo "$f: byte-identical"
        else
            echo "$f: DIFFERS from results/$f.json (regenerated by $bin)"
            diff <(tr ',' '\n' <"results/$f.json") <(tr ',' '\n' <"$out/$f.json") | head -n 10 || true
            differing=$((differing + 1))
        fi
    done
done

if ((differing > 0)); then
    echo "check_results: $differing file(s) differ" >&2
    exit 1
fi
echo "check_results: all regenerated files match results/"
