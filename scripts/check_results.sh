#!/usr/bin/env bash
# Regenerates every virtual-time experiment result into a temp directory
# and compares it byte for byte with the committed results/*.json.
# Every arm is bit-reproducible (the sequenced virtual clock), so any
# difference means behaviour changed; results/ itself is never written.
# It then fails if a results/*.json is accounted for by neither table
# below: a result file cannot sit in the repo unverified and unlisted.
#
# Usage: scripts/check_results.sh   (no arguments; ~1 min once built)
set -euo pipefail
cd "$(dirname "$0")/.."

# One row per experiment: binary | the virtual-time files it writes.
runs=(
    "exp1_scalability|e1"
    "exp2_tile_io|e2"
    "exp4_regions_sweep|e4"
    "exp5_overlap_sweep|e5"
    "exp6_read_scalability|e6a e6b"
    "exp7_ablation|e7a"
    "exp8_producer_consumer|e8"
    "exp9_two_phase|e9"
    "exp10_gc|e10"
    "exp12_stragglers|e12st"
)
# Committed but never compared, one row each: file | why.
never=(
    "e9d|wall-clock arm of exp9_durability (real fsyncs): moves with the host on every run"
    "e12|wall-clock arm of exp12_namespace (real sockets): moves with the host on every run"
)
if (($# > 0)); then
    echo "usage: $0" >&2
    exit 2
fi

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

# Every committed file is written by a row or is on the never-compared
# list — and that list names no file that is gone.
accounted=" "
for row in "${runs[@]}"; do
    accounted+="${row#*|} "
done
unaccounted=0
for row in "${never[@]}"; do
    f="${row%%|*}"
    accounted+="$f "
    if [[ ! -e "results/$f.json" ]]; then
        echo "$f: listed as never compared, but results/$f.json does not exist" >&2
        unaccounted=$((unaccounted + 1))
    fi
done
for path in results/*.json; do
    f="$(basename "$path" .json)"
    if [[ "$accounted" != *" $f "* ]]; then
        echo "$f: results/$f.json is neither regenerated by a row of $0 nor listed there as never compared" >&2
        unaccounted=$((unaccounted + 1))
    fi
done

if ((differing > 0 || unaccounted > 0)); then
    echo "check_results: $differing file(s) differ, $unaccounted unaccounted for" >&2
    exit 1
fi
echo "check_results: all regenerated files match results/, every results/*.json is accounted for"
