#!/usr/bin/env bash
# The verification gate, offline, all of it on by default:
#   1. release build of the workspace (tier-1's build + every binary)
#   2. the workspace test suite (tier-1's root tests + every crate's)
#   3. re-runs in the table below (the rpc suite under thread
#      contention); the socket suites' disk and sharded arms run inside
#      step 2
#   4. formatting, lints on every target the gate compiles, and the
#      docs with every rustdoc warning (a dead intra-doc link) an error
#   5. every virtual-time experiment regenerated and compared byte for
#      byte with results/ (scripts/check_results.sh)
#
# Usage: scripts/verify.sh
#   VERIFY_BENCH=1 scripts/verify.sh  # also build the wall-clock
#                                     # benchmark (wallbench/, its own
#                                     # workspace, minutes) against this
#                                     # tree and run its unit tests plus
#                                     # the suite at 1/40 of the ops with
#                                     # every correctness gate
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --workspace =="
cargo build --release --offline --workspace

# Every server the suites start binds 127.0.0.1:0, so each test gets its
# own kernel-allocated port and the default parallel test threads cannot
# race on port allocation. If you pin fixed ports (e.g. while debugging
# against running server binaries), serialize with `-- --test-threads=1`.
echo "== cargo test --workspace =="
cargo test -q --offline --workspace

# Re-runs, one per row: label | environment | cargo-test arguments.
reruns=(
    "rpc unit suite under thread contention||-p atomio-rpc -- --test-threads=16"
)
for row in "${reruns[@]}"; do
    IFS='|' read -r label vars args <<<"$row"
    echo "== rerun: $label${vars:+ ($vars)} =="
    # $vars and $args are lists: word splitting is the point.
    # shellcheck disable=SC2086
    env $vars cargo test -q --offline $args
done

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc --workspace --no-deps (rustdoc warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

if [[ "${VERIFY_BENCH:-0}" == "1" ]]; then
    # wallbench/ is its own cargo workspace, so `cargo test --workspace`
    # never compiles it: a trait or protocol change in crates/* can break
    # the benchmark unnoticed. The smoke run builds it and the three
    # server binaries against this tree, runs its unit tests, and drives
    # all four workloads (SIGKILL → restart → replay equality included)
    # at 1/40 of the ops — a sanity gate, not a measurement.
    echo "== bench: wallbench unit tests + smoke suite on the real three-service stack =="
    bash wallbench/run.sh --smoke
fi

# The virtual-time results are bit-reproducible, so a regeneration that
# differs from the committed files is a behaviour change.
echo "== results: regenerate every virtual-time experiment and compare with results/ =="
scripts/check_results.sh

echo "verify: all gates passed"
