#!/usr/bin/env bash
# Full verification gate, run offline:
#   1. tier-1: release build + the root test suite
#   2. formatting
#   3. lints (warnings are errors, workspace-wide)
#
# Usage: scripts/verify.sh
#   VERIFY_TCP=1 scripts/verify.sh   # also build the three RPC server
#                                    # binaries (provider/meta/version)
#                                    # and run the localhost-TCP
#                                    # transport-equivalence,
#                                    # three-service distributed
#                                    # atomicity, and WAL drain
#                                    # equivalence suites
#   VERIFY_DISK=1 scripts/verify.sh  # also run the crash-durability
#                                    # suite and rerun the equivalence
#                                    # suites with every hosted service
#                                    # on the disk backend (ATOMIO_DISK=1)
#   VERIFY_REACTOR=1 scripts/verify.sh # also rerun the localhost-TCP
#                                    # suites and the rpc unit suite
#                                    # with every server on the epoll
#                                    # reactor front-end
#                                    # (ATOMIO_REACTOR=1)
#   VERIFY_SHARDS=1 scripts/verify.sh # also run the namespace
#                                    # distribution suite and rerun the
#                                    # three-service suite against a
#                                    # 4-shard slot-routed version fleet
#                                    # (ATOMIO_SHARDS=4)
#   VERIFY_BENCH=1 scripts/verify.sh  # also build the wall-clock
#                                    # benchmark (wallbench/, its own
#                                    # workspace) against this tree and
#                                    # run its unit tests plus the suite
#                                    # at 1/40 of the ops with every
#                                    # correctness gate
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --offline -- -D warnings

if [[ "${VERIFY_TCP:-0}" == "1" ]]; then
    echo "== transport-tcp: build server binaries (provider + meta + version) =="
    cargo build --release --offline -p atomio-rpc --bins

    echo "== transport-tcp: loopback/TCP equivalence + mux stress/fault (localhost sockets) =="
    cargo test -q --offline --test transport_equivalence

    # Every server in these suites binds 127.0.0.1:0, so each test gets
    # its own kernel-allocated port and the default parallel test
    # threads cannot race on port allocation. If you pin fixed ports
    # (e.g. while debugging against running server binaries), serialize
    # with `-- --test-threads=1`.
    echo "== transport-tcp: three-service distributed atomicity (localhost sockets) =="
    cargo test -q --offline --test distributed_atomicity

    echo "== transport-tcp: WAL drain equivalence incl. mid-drain server kill (localhost sockets) =="
    cargo test -q --offline --test wal_equivalence

    echo "== transport-tcp: lease-based GC beside live writers (localhost sockets) =="
    cargo test -q --offline --test gc_distributed

    echo "== transport-tcp: rpc unit suite under thread contention =="
    cargo test -q --offline -p atomio-rpc -- --test-threads=16
fi

if [[ "${VERIFY_REACTOR:-0}" == "1" ]]; then
    # ATOMIO_REACTOR=1 flips every RpcServer in the suites onto the
    # event-driven reactor front-end (one epoll thread multiplexing all
    # connections) in place of thread-per-connection, proving the
    # front-end swap changes no bytes, versions, or metadata.
    echo "== reactor: transport equivalence on the epoll front-end (ATOMIO_REACTOR=1) =="
    ATOMIO_REACTOR=1 cargo test -q --offline --test transport_equivalence

    echo "== reactor: three-service distributed atomicity on the epoll front-end (ATOMIO_REACTOR=1) =="
    ATOMIO_REACTOR=1 cargo test -q --offline --test distributed_atomicity

    echo "== reactor: WAL drain equivalence on the epoll front-end (ATOMIO_REACTOR=1) =="
    ATOMIO_REACTOR=1 cargo test -q --offline --test wal_equivalence

    echo "== reactor: rpc unit suite on the epoll front-end (ATOMIO_REACTOR=1) =="
    ATOMIO_REACTOR=1 cargo test -q --offline -p atomio-rpc -- --test-threads=16
fi

if [[ "${VERIFY_DISK:-0}" == "1" ]]; then
    echo "== disk: crash-durability suite (hard-drop reopen, torn tails, grant rollback) =="
    cargo test -q --offline --test durability

    # The equivalence suites take ATOMIO_DISK=1 as a backend switch:
    # every hosted service (providers, meta shards, version manager)
    # runs on the durable disk backend in a fresh temp dir, proving the
    # substrate swap changes no bytes, versions, or metadata — incl.
    # the kill→restart→recover distributed-atomicity arm.
    echo "== disk: distributed atomicity on the disk backend (ATOMIO_DISK=1) =="
    ATOMIO_DISK=1 cargo test -q --offline --test distributed_atomicity

    echo "== disk: transport equivalence on the disk backend (ATOMIO_DISK=1) =="
    ATOMIO_DISK=1 cargo test -q --offline --test transport_equivalence

    echo "== disk: WAL drain equivalence on the disk backend (ATOMIO_DISK=1) =="
    ATOMIO_DISK=1 cargo test -q --offline --test wal_equivalence

    echo "== disk: lease-based GC incl. lease/retention crash recovery (ATOMIO_DISK=1) =="
    ATOMIO_DISK=1 cargo test -q --offline --test gc_distributed
fi

if [[ "${VERIFY_SHARDS:-0}" == "1" ]]; then
    # The namespace suite pins 1-shard vs 4-shard bit-identity, shard
    # kill/recovery blast radius, and online slot handoff; ATOMIO_SHARDS=4
    # then reruns the three-service suite with the version manager split
    # across a 4-shard slot-routed fleet, proving the routing layer
    # changes no bytes, versions, or metadata.
    echo "== shards: namespace distribution suite (slot routing, handoff, shard kill) =="
    cargo test -q --offline --test namespace_distributed

    echo "== shards: three-service distributed atomicity on a 4-shard version fleet (ATOMIO_SHARDS=4) =="
    ATOMIO_SHARDS=4 cargo test -q --offline --test distributed_atomicity

    echo "== shards: three-service distributed atomicity on a 4-shard fleet with disk-backed version services (ATOMIO_SHARDS=4 ATOMIO_DISK=1) =="
    ATOMIO_SHARDS=4 ATOMIO_DISK=1 cargo test -q --offline --test distributed_atomicity
fi

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

echo "verify: all gates passed"
