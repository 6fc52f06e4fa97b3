//! Hosts per-blob version managers behind the atomio RPC protocol — the
//! third deployable service (BlobSeer's standalone version manager).
//!
//! ```text
//! atomio-version-server <listen-addr> [--chunk-size BYTES]
//!     [--retention keep-all|keep-last:N|keep-above:V] [--lease-ttl-ms N]
//!     [--shard I/N]
//!     [--data-dir PATH] [--fsync per-publish|group:N|deferred]
//!     [--workers N] [--server-mode reactor] [--max-conns N]
//!     [--max-inflight-per-conn N]
//! ```
//!
//! Without `--data-dir` version state lives in memory and vanishes with
//! the process; with it each blob's manager appends a publish log under
//! `PATH/version/blob-<id>` and replays it on restart, so published
//! snapshots survive and granted-but-unpublished tickets roll back.
//!
//! One epoll reactor thread multiplexes every connection onto
//! `--workers` dispatch threads; `--max-conns` caps admitted
//! connections (extras receive a typed busy rejection) and
//! `--max-inflight-per-conn` bounds per-connection pipelining.
//! `--server-mode reactor` names the only front-end there is and is
//! accepted as a no-op.
//!
//! `--shard I/N` pins this server to shard `I` of an `N`-way hash-slot
//! split: it serves only blobs whose slot it owns and refuses the rest
//! with a typed `WrongShard`. Run one process per shard (same `N`,
//! distinct `I`) and point clients at the full set, in shard order, via
//! a slot-routed transport. The split is fixed for the life of the
//! deployment: restarting a shard with the same flag and `--data-dir`
//! brings back exactly its slots.
//!
//! Example: `atomio-version-server 127.0.0.1:7422 --shard 0/4 --data-dir /var/lib/atomio --fsync group:8`

use atomio_rpc::{run_server_binary, VersionService};
use std::sync::Arc;

fn main() {
    run_server_binary("atomio-version-server", None, true, true, |args| {
        let (shard, of) = args.shard;
        Arc::new(
            VersionService::with_backend(args.chunk_size, args.backend())
                .with_retention(args.retention)
                .with_lease_ttl_cap(args.lease_ttl_cap_ms)
                .with_shard(shard, of),
        )
    });
}
