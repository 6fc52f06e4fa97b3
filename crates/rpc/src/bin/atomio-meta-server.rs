//! Hosts metadata shards behind the atomio RPC protocol.
//!
//! ```text
//! atomio-meta-server <listen-addr> [--shards N] [--chunk-size BYTES]
//!     [--data-dir PATH] [--fsync per-publish|group:N|deferred]
//!     [--workers N] [--server-mode reactor] [--max-conns N]
//!     [--max-inflight-per-conn N]
//! ```
//!
//! Without `--data-dir` tree nodes live in memory and vanish with the
//! process; with it each shard appends to a node log under `PATH/meta`
//! and recovers on restart. The server hosts metadata shards and
//! nothing else: version requests belong to `atomio-version-server` and
//! draw a typed refusal here.
//!
//! One epoll reactor thread multiplexes every connection onto
//! `--workers` dispatch threads; `--max-conns` caps admitted
//! connections (extras receive a typed busy rejection) and
//! `--max-inflight-per-conn` bounds per-connection pipelining.
//! `--server-mode reactor` names the only front-end there is and is
//! accepted as a no-op; so is `--chunk-size`, which configured the
//! version managers this role no longer hosts.
//!
//! Example: `atomio-meta-server 127.0.0.1:7421 --shards 4 --data-dir /var/lib/atomio`

use atomio_rpc::{run_server_binary, MetaService};
use std::sync::Arc;

fn main() {
    // `--chunk-size` parses and is not read: the frozen wall-clock
    // benchmark (`wallbench/src/deploy.rs`) still starts this server
    // with it. See `ServerArgs::parse`.
    let (accepts_chunk_size, hosts_versions) = (true, false);
    run_server_binary(
        "atomio-meta-server",
        Some(("--shards", 1)),
        accepts_chunk_size,
        hosts_versions,
        |args| {
            Arc::new(
                MetaService::with_backend(args.count, &args.backend()).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }),
            )
        },
    );
}
