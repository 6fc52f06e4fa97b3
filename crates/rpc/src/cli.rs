//! The command line of the three server binaries: one flag parser
//! ([`ServerArgs`]), the usage line rendered from the same table
//! ([`server_usage`]), and their shared `main` ([`run_server_binary`]).

use crate::server::RpcServer;
use crate::services::{Service, DEFAULT_LEASE_TTL_CAP_MS};
use crate::transport::RpcConfig;
use atomio_types::{BackendConfig, FsyncPolicy, RetentionPolicy};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Everything a server binary needs from one `--flag value` style
/// argument list: kept here so the three binaries share the parsing and
/// the unit tests cover it.
#[derive(Debug, PartialEq, Eq)]
pub struct ServerArgs {
    /// Listen address, e.g. `127.0.0.1:7420`.
    pub addr: String,
    /// `--providers N` / `--shards N` style count (role-specific).
    pub count: usize,
    /// `--chunk-size BYTES`: the tree geometry of the version server's
    /// managers. The meta server parses and ignores it (see
    /// [`ServerArgs::parse`]); the provider role rejects it.
    pub chunk_size: u64,
    /// `--data-dir PATH`: root of this role's durable state. `None`
    /// (the default) keeps the in-memory backend.
    pub data_dir: Option<PathBuf>,
    /// `--fsync per-publish|group:N|deferred`: durability policy of a
    /// disk backend (ignored without `--data-dir`).
    pub fsync: FsyncPolicy,
    /// `--retention keep-all|keep-last:N|keep-above:V`: the default
    /// per-blob retention policy (version server only; the other roles
    /// host no version managers and reject it).
    pub retention: RetentionPolicy,
    /// `--lease-ttl-ms N`: cap on granted snapshot-lease TTLs (version
    /// server only).
    pub lease_ttl_cap_ms: u64,
    /// `--shard I/N`: pin the version service to shard `I` of an
    /// `N`-way slot map (version server only). The default `(0, 1)` is
    /// the one shard of an unsharded fleet: it owns every slot.
    pub shard: (usize, usize),
    /// Dispatcher and admission tuning assembled from the `--workers`,
    /// `--max-conns`, and `--max-inflight-per-conn` flags (defaults
    /// from [`RpcConfig::default`]).
    pub cfg: RpcConfig,
}

impl ServerArgs {
    /// Parses `<addr> [--COUNT_FLAG n] [--chunk-size bytes]` plus the
    /// backend flags `--data-dir path` and
    /// `--fsync per-publish|group:N|deferred` (every role: each of the
    /// three services owns durable state under a disk backend) and the
    /// shared [`RpcConfig`] flags a server reads: `--workers n`,
    /// `--max-conns n`, `--max-inflight-per-conn n` — plus
    /// `--server-mode reactor`, accepted as a no-op.
    ///
    /// The version-manager flags are role-gated: `--retention`,
    /// `--lease-ttl-ms` and `--shard` parse only with `hosts_versions`
    /// (the version server) and are rejected elsewhere instead of
    /// silently ignored — [`server_usage`] must advertise exactly what
    /// parses. `--chunk-size` parses with `accepts_chunk_size`: the
    /// version server, whose managers it configures, and the meta
    /// server, where it is a no-op — that role has had no use for it
    /// since it stopped hosting version managers, but the wall-clock
    /// benchmark (`wallbench/src/deploy.rs`, frozen) starts it with the
    /// flag; the benchmark PR that stops passing it merges the two
    /// parameters into one.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        count_flag: &str,
        default_count: usize,
        accepts_chunk_size: bool,
        hosts_versions: bool,
    ) -> std::result::Result<Self, String> {
        let mut args = args.into_iter();
        let addr = args.next().ok_or("missing listen address")?;
        let mut parsed = ServerArgs {
            addr,
            count: default_count,
            chunk_size: 64 * 1024,
            data_dir: None,
            fsync: FsyncPolicy::default(),
            retention: RetentionPolicy::default(),
            lease_ttl_cap_ms: DEFAULT_LEASE_TTL_CAP_MS,
            shard: (0, 1),
            cfg: RpcConfig::default(),
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad {flag}: {value}");
            if flag == count_flag {
                parsed.count = value.parse().map_err(|_| bad())?;
            } else if flag == "--chunk-size" {
                if !accepts_chunk_size {
                    return Err("--chunk-size: this role has no chunk geometry".into());
                }
                parsed.chunk_size = value.parse().map_err(|_| bad())?;
            } else if ["--retention", "--lease-ttl-ms", "--shard"].contains(&flag.as_str())
                && !hosts_versions
            {
                return Err(format!("{flag}: this role hosts no version managers"));
            } else if flag == "--retention" {
                parsed.retention =
                    RetentionPolicy::parse(&value).map_err(|e| format!("bad {flag}: {e}"))?;
            } else if flag == "--lease-ttl-ms" {
                parsed.lease_ttl_cap_ms = value.parse().map_err(|_| bad())?;
            } else if flag == "--shard" {
                let (i, n) = value.split_once('/').ok_or_else(bad)?;
                let (i, n): (usize, usize) =
                    (i.parse().map_err(|_| bad())?, n.parse().map_err(|_| bad())?);
                if i >= n {
                    return Err(format!("bad {flag}: shard index {i} out of range for /{n}"));
                }
                parsed.shard = (i, n);
            } else if flag == "--data-dir" {
                parsed.data_dir = Some(PathBuf::from(&value));
            } else if flag == "--fsync" {
                parsed.fsync =
                    FsyncPolicy::parse(&value).map_err(|e| format!("bad {flag}: {e}"))?;
            } else if flag == "--workers" {
                parsed.cfg.server_workers = value.parse().map_err(|_| bad())?;
            } else if flag == "--server-mode" {
                // A no-op: the reactor is the only front-end. The flag
                // still parses its one remaining value because the
                // wall-clock benchmark (`wallbench/src/deploy.rs`, frozen
                // for PR 17) starts every server with it; the benchmark
                // PR that stops passing it deletes this branch.
                if value != "reactor" {
                    return Err(format!(
                        "bad {flag}: {value} (PR 17 deleted the thread-per-connection \
                         front-end; `reactor` is the only one)"
                    ));
                }
            } else if flag == "--max-conns" {
                parsed.cfg.max_conns = value.parse().map_err(|_| bad())?;
            } else if flag == "--max-inflight-per-conn" {
                parsed.cfg.max_inflight_per_conn = value.parse().map_err(|_| bad())?;
            } else {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok(parsed)
    }

    /// The storage backend these flags select: a disk backend rooted at
    /// `--data-dir` with the `--fsync` policy, or the in-memory default
    /// when `--data-dir` was not given.
    pub fn backend(&self) -> BackendConfig {
        match &self.data_dir {
            Some(dir) => BackendConfig::disk(dir).with_fsync(self.fsync),
            None => BackendConfig::Memory,
        }
    }
}

/// Runs a service on `addr` until the process is killed (binary entry
/// point; blocks forever).
pub fn serve_forever(addr: &str, service: Arc<dyn Service>, cfg: RpcConfig) -> io::Result<()> {
    let server = RpcServer::start_with_config(addr, service, cfg)?;
    eprintln!("listening on {}", server.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// The shared dispatcher/admission flags every server binary accepts
/// (with each flag's value hint), in the order the usage line lists
/// them. [`server_usage`] renders this list, so the advertised flags
/// cannot drift from the parser.
const SHARED_FLAGS: [(&str, &str); 4] = [
    ("--workers", "N"),
    ("--server-mode", "reactor"),
    ("--max-conns", "N"),
    ("--max-inflight-per-conn", "N"),
];

/// Renders the one-line usage string of a server binary: exactly the
/// flags [`ServerArgs::parse`] accepts for that role — the role-specific
/// fleet-size flag (if any), `--chunk-size` and the version-manager
/// flags under the same two gates, and the shared [`RpcConfig`] flags.
pub fn server_usage(
    name: &str,
    count_flag: Option<&str>,
    accepts_chunk_size: bool,
    hosts_versions: bool,
) -> String {
    let mut usage = format!("usage: {name} <listen-addr>");
    if let Some(flag) = count_flag {
        usage.push_str(&format!(" [{flag} N]"));
    }
    if accepts_chunk_size {
        usage.push_str(" [--chunk-size BYTES]");
    }
    if hosts_versions {
        usage.push_str(" [--retention keep-all|keep-last:N|keep-above:V]");
        usage.push_str(" [--lease-ttl-ms N]");
        usage.push_str(" [--shard I/N]");
    }
    usage.push_str(" [--data-dir PATH] [--fsync per-publish|group:N|deferred]");
    for (flag, hint) in SHARED_FLAGS {
        usage.push_str(&format!(" [{flag} {hint}]"));
    }
    usage
}

/// The shared `main` of the three server binaries: parses the argument
/// list through [`ServerArgs`], builds the role's service, and serves
/// forever. `count_flag` is the role-specific fleet-size flag
/// (`--providers` / `--shards`) with its default, or `None` for roles
/// without one (the version server); `accepts_chunk_size` and
/// `hosts_versions` gate the role's flags as [`ServerArgs::parse`]
/// describes. Exits the process with status 2 on bad flags and 1 on a
/// bind failure.
pub fn run_server_binary(
    name: &str,
    count_flag: Option<(&str, usize)>,
    accepts_chunk_size: bool,
    hosts_versions: bool,
    build: impl FnOnce(&ServerArgs) -> Arc<dyn Service>,
) {
    let (flag, default_count) = count_flag.unwrap_or(("", 0));
    let usage = server_usage(
        name,
        count_flag.map(|(f, _)| f),
        accepts_chunk_size,
        hosts_versions,
    );
    let args = match ServerArgs::parse(
        std::env::args().skip(1),
        flag,
        default_count,
        accepts_chunk_size,
        hosts_versions,
    ) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let service = build(&args);
    if let Err(e) = serve_forever(&args.addr, service, args.cfg) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
