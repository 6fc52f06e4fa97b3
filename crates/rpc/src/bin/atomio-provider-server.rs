//! Hosts a fleet of data providers behind the atomio RPC protocol.
//!
//! ```text
//! atomio-provider-server <listen-addr> [--providers N]
//!     [--data-dir PATH] [--fsync per-publish|group:N|deferred]
//!     [--workers N] [--server-mode reactor] [--max-conns N]
//!     [--max-inflight-per-conn N]
//! ```
//!
//! Without `--data-dir` chunks live in memory and vanish with the
//! process; with it each provider keeps one append-only part file under
//! `PATH/provider-<id>` and recovers them on restart.
//!
//! One epoll reactor thread multiplexes every connection onto
//! `--workers` dispatch threads; `--max-conns` caps admitted
//! connections (extras receive a typed busy rejection) and
//! `--max-inflight-per-conn` bounds per-connection pipelining.
//! `--server-mode reactor` names the only front-end there is and is
//! accepted as a no-op.
//!
//! Example: `atomio-provider-server 127.0.0.1:7420 --providers 4 --data-dir /var/lib/atomio`

use atomio_rpc::{run_server_binary, ProviderService};
use std::sync::Arc;

fn main() {
    run_server_binary(
        "atomio-provider-server",
        Some(("--providers", 1)),
        false,
        false,
        |args| {
            Arc::new(
                ProviderService::with_backend(args.count, &args.backend()).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }),
            )
        },
    );
}
