//! Hosts metadata shards (plus nested version managers for two-server
//! deployments) behind the atomio RPC protocol.
//!
//! ```text
//! atomio-meta-server <listen-addr> [--shards N] [--chunk-size BYTES]
//!     [--retention keep-all|keep-last:N|keep-above:V] [--lease-ttl-ms N]
//!     [--shard I/N]
//!     [--data-dir PATH] [--fsync per-publish|group:N|deferred]
//!     [--workers N] [--server-mode reactor] [--max-conns N]
//!     [--max-inflight-per-conn N]
//! ```
//!
//! Without `--data-dir` tree nodes live in memory and vanish with the
//! process; with it each shard appends to a node log under `PATH/meta`
//! (and nested version managers log publishes under `PATH/version`) and
//! recovers on restart.
//!
//! One epoll reactor thread multiplexes every connection onto
//! `--workers` dispatch threads; `--max-conns` caps admitted
//! connections (extras receive a typed busy rejection) and
//! `--max-inflight-per-conn` bounds per-connection pipelining.
//! `--server-mode reactor` names the only front-end there is and is
//! accepted as a no-op.
//!
//! Example: `atomio-meta-server 127.0.0.1:7421 --shards 4 --data-dir /var/lib/atomio`

use atomio_rpc::{run_server_binary, MetaService};
use std::sync::Arc;

fn main() {
    run_server_binary("atomio-meta-server", Some(("--shards", 1)), true, |args| {
        let mut service = MetaService::with_backend(args.count, args.chunk_size, &args.backend())
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            })
            .with_retention(args.retention)
            .with_lease_ttl_cap(args.lease_ttl_cap_ms);
        if let Some((shard, of)) = args.shard {
            service = service.with_shard(shard, of);
        }
        Arc::new(service)
    });
}
