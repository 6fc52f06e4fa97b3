//! The deployment under test: the three real server binaries as child
//! processes on loopback TCP, and the client assembled over them the way
//! the repository README's "Running over real sockets" does.

use crate::trace::{TracedChunkStore, TracedNodeStore, TracedOracle, TracedTransport};
use atomio_core::{Store, StoreConfig, TransportMode};
use atomio_meta::NodeStore;
use atomio_provider::{ChunkStore, ProviderManager};
use atomio_rpc::{
    dial, RemoteMetaStore, RemoteProvider, RemoteVersionManager, Request, Response, RpcConfig,
    RpcMode, Transport,
};
use atomio_simgrid::{FaultInjector, Metrics};
use atomio_types::ProviderId;
use atomio_version::VersionOracle;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

pub const CHUNK_SIZE: u64 = 65536;
pub const PROVIDERS: usize = 4;
const META_SHARDS: usize = 2;
/// Client node-cache capacity. The default (4096) would hold every tree
/// node `tile_read`'s set-up can afford to write (36 snapshots × ~53
/// nodes), and the metadata read path would drop out of the benchmark; at
/// 1024 the working set is about twice the cache.
const CLIENT_CACHE_NODES: usize = 1024;
const SERVER_WORKERS: &str = "2";

/// Where a run finds its binaries and keeps its scratch state.
#[derive(Debug, Clone)]
pub struct Env {
    /// Directory holding the three `atomio-*-server` binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory of this run (data dirs, pid file). Everything
    /// under it is removed when the run ends.
    pub run_dir: PathBuf,
}

/// One server child process.
pub struct ServerProc {
    role: &'static str,
    child: Child,
    pub addr: SocketAddr,
    /// Drains the child's stderr so it can never block on a full pipe.
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ServerProc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILLs the child and reaps it.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Spawns `binary listen_addr args…` and waits for its `listening on`
/// stderr line. Fails fast — with everything the child wrote to stderr —
/// when the binary cannot be started or exits before it listens.
pub fn spawn_server(
    env: &Env,
    role: &'static str,
    listen: &str,
    args: &[String],
) -> Result<ServerProc, String> {
    let binary = env.bin_dir.join(format!("atomio-{role}-server"));
    let mut child = Command::new(&binary)
        .arg(listen)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
    // The wrapper script kills whatever this file lists if the bench
    // itself dies before its destructors run.
    if let Ok(mut pids) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(env.run_dir.join("pids"))
    {
        let _ = writeln!(pids, "{}", child.id());
    }
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let mut seen = String::new();
    loop {
        let mut line = String::new();
        match stderr.read_line(&mut line) {
            Ok(n) if n > 0 => {
                if let Some(addr) = line.trim().strip_prefix("listening on ") {
                    let addr = addr.parse().map_err(|e| {
                        format!("{role} server printed a bad address {addr:?}: {e}")
                    })?;
                    let drain = std::thread::spawn(move || {
                        let _ = stderr.read_to_end(&mut Vec::new());
                    });
                    return Ok(ServerProc {
                        role,
                        child,
                        addr,
                        drain: Some(drain),
                    });
                }
                seen.push_str(&line);
            }
            _ => {
                let _ = child.kill();
                let status = child
                    .wait()
                    .map_or("unknown".to_string(), |s| s.to_string());
                return Err(format!(
                    "{} exited ({status}) before listening; stderr:\n{seen}",
                    binary.display()
                ));
            }
        }
    }
}

/// Storage backend of the three servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Memory,
    /// `--data-dir <run_dir>/<tag>/<role> --fsync per-publish`.
    Disk,
}

/// The three servers of one deployment. Dropping it kills and reaps them
/// and removes their data directories.
pub struct Deployment {
    env: Env,
    backend: Backend,
    data_root: PathBuf,
    pub provider: ServerProc,
    pub meta: ServerProc,
    pub version: ServerProc,
}

fn role_args(role: &str, backend: Backend, data_root: &Path) -> Vec<String> {
    let mut args: Vec<String> = match role {
        "provider" => vec!["--providers".into(), PROVIDERS.to_string()],
        "meta" => vec![
            "--shards".into(),
            META_SHARDS.to_string(),
            "--chunk-size".into(),
            CHUNK_SIZE.to_string(),
        ],
        _ => vec!["--chunk-size".into(), CHUNK_SIZE.to_string()],
    };
    args.extend(["--server-mode", "reactor", "--workers", SERVER_WORKERS].map(String::from));
    if backend == Backend::Disk {
        args.extend([
            "--data-dir".to_string(),
            data_root.join(role).display().to_string(),
            "--fsync".to_string(),
            if role == "version" {
                "per-publish"
            } else {
                "deferred"
            }
            .to_string(),
        ]);
    }
    args
}

impl Deployment {
    /// Starts the three servers on ephemeral loopback ports. `tag` names
    /// this deployment's data directory under the run directory.
    pub fn start(env: &Env, backend: Backend, tag: &str) -> Result<Self, String> {
        let data_root = env.run_dir.join(tag);
        let spawn = |role| {
            spawn_server(
                env,
                role,
                "127.0.0.1:0",
                &role_args(role, backend, &data_root),
            )
        };
        Ok(Deployment {
            provider: spawn("provider")?,
            meta: spawn("meta")?,
            version: spawn("version")?,
            env: env.clone(),
            backend,
            data_root,
        })
    }

    pub fn servers(&self) -> [&ServerProc; 3] {
        [&self.provider, &self.meta, &self.version]
    }

    /// SIGKILLs all three servers, then starts them again on the same
    /// ports over the same data directories. Returns once each has
    /// recovered its state and is listening.
    pub fn crash_and_restart(&mut self) -> Result<(), String> {
        for server in [&mut self.provider, &mut self.meta, &mut self.version] {
            server.kill();
        }
        for server in [&mut self.provider, &mut self.meta, &mut self.version] {
            let role = server.role;
            let args = role_args(role, self.backend, &self.data_root);
            *server = spawn_server(&self.env, role, &server.addr.to_string(), &args)?;
        }
        Ok(())
    }

    /// Bytes under the servers' data directories (0 on the memory backend).
    pub fn stored_bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.data_root)
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for server in [&mut self.provider, &mut self.meta, &mut self.version] {
            server.kill();
        }
        let _ = std::fs::remove_dir_all(&self.data_root);
    }
}

/// The kernel's clock ticks per second, the unit of [`cpu_ticks`].
pub fn clk_tck() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` reads a constant of the running system.
    match unsafe { sysconf(SC_CLK_TCK) } {
        ticks if ticks > 0 => ticks as f64,
        _ => 100.0,
    }
}

/// utime + stime of `pid` in clock ticks, from `/proc/<pid>/stat`.
pub fn cpu_ticks(pid: u32) -> u64 {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0;
    };
    // Fields are counted after the parenthesised command name, which may
    // itself hold spaces: utime and stime are the 14th and 15th overall.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let utime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    utime + stime
}

/// Peak resident set (`VmHWM`) of `pid` in KiB, from `/proc/<pid>/status`.
pub fn peak_rss_kib(pid: u32) -> u64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The client side of a deployment.
pub struct Client {
    pub store: Store,
    /// The shared connection to the version server, for workloads that
    /// drive [`RemoteVersionManager`] directly.
    pub version_transport: Arc<dyn Transport>,
    /// `rpc.messages` / `rpc.bytes_tx` / `rpc.bytes_rx` of all three
    /// connections.
    pub rpc: Metrics,
}

/// Dials the three servers — one mux connection each, established here
/// with a `Ping` — and assembles the store over remote proxies. With
/// `traced`, every seam is wrapped in its [`crate::trace`] decorator.
pub fn connect(deployment: &Deployment, seed: u64, traced: bool) -> Result<Client, String> {
    let cfg = RpcConfig {
        pool_conns: 1,
        // A stalled fsync must read as a slow op, never as a failed one.
        read_timeout: Duration::from_secs(60),
        ..RpcConfig::default()
    };
    let rpc = Metrics::new();
    let dial_to = |server: &ServerProc| -> Result<Arc<dyn Transport>, String> {
        let transport = dial(server.addr, RpcMode::Mux, cfg, Some(rpc.clone()));
        match transport.call(&Request::Ping, &[]) {
            Ok((Response::Pong, _)) => {}
            other => {
                return Err(format!(
                    "{} server at {} answered ping with {other:?}",
                    server.role, server.addr
                ))
            }
        }
        Ok(if traced {
            Arc::new(TracedTransport(transport))
        } else {
            transport
        })
    };
    let config = StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK_SIZE)
        .with_data_providers(PROVIDERS)
        .with_meta_shards(META_SHARDS)
        .with_replication(1, 1)
        .with_meta_cache(CLIENT_CACHE_NODES)
        .with_transport_mode(TransportMode::Tcp)
        .with_seed(seed);

    let provider_transport = dial_to(&deployment.provider)?;
    let stores = (0..PROVIDERS)
        .map(|i| {
            let remote: Arc<dyn ChunkStore> = Arc::new(RemoteProvider::new(
                ProviderId::new(i as u64),
                Arc::clone(&provider_transport),
            ));
            if traced {
                Arc::new(TracedChunkStore(remote)) as Arc<dyn ChunkStore>
            } else {
                remote
            }
        })
        .collect();
    let manager = Arc::new(ProviderManager::from_stores(
        stores,
        config.allocation,
        Arc::new(FaultInjector::new(seed ^ 0xFA17)),
        seed,
    ));

    let meta: Arc<dyn NodeStore> = Arc::new(RemoteMetaStore::new(dial_to(&deployment.meta)?));
    let meta = if traced {
        Arc::new(TracedNodeStore(meta)) as Arc<dyn NodeStore>
    } else {
        meta
    };

    let version_transport = dial_to(&deployment.version)?;
    let for_oracles = Arc::clone(&version_transport);
    let store = Store::with_substrates(config, manager, meta).with_version_oracles(move |blob| {
        let remote: Arc<dyn VersionOracle> = Arc::new(RemoteVersionManager::new(
            blob.raw(),
            Arc::clone(&for_oracles),
        ));
        if traced {
            Arc::new(TracedOracle(remote))
        } else {
            remote
        }
    });
    Ok(Client {
        store,
        version_transport,
        rpc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_types::tempdir::TempDir;
    use std::os::unix::fs::PermissionsExt;

    fn env_with(script: Option<&str>) -> (TempDir, Env) {
        let tmp = TempDir::new("wallbench-spawn");
        if let Some(body) = script {
            let path = tmp.path().join("atomio-provider-server");
            std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        }
        let env = Env {
            bin_dir: tmp.path().to_path_buf(),
            run_dir: tmp.path().to_path_buf(),
        };
        (tmp, env)
    }

    #[test]
    fn a_missing_binary_fails_fast_and_names_it() {
        let (_tmp, env) = env_with(None);
        let err = spawn_server(&env, "provider", "127.0.0.1:0", &[])
            .err()
            .unwrap();
        assert!(err.contains("cannot start"), "{err}");
        assert!(err.contains("atomio-provider-server"), "{err}");
    }

    #[test]
    fn an_early_exit_fails_fast_with_the_childs_stderr() {
        let (_tmp, env) = env_with(Some("echo 'error: bad --fsync: sometimes' >&2; exit 2"));
        let err = spawn_server(&env, "provider", "127.0.0.1:0", &[])
            .err()
            .unwrap();
        assert!(err.contains("before listening"), "{err}");
        assert!(err.contains("bad --fsync: sometimes"), "{err}");
        assert!(err.contains("exit status: 2"), "{err}");
    }

    #[test]
    fn the_listening_line_yields_the_address_and_drop_reaps_the_child() {
        let (_tmp, env) = env_with(Some(
            "echo 'recovering' >&2; echo 'listening on 127.0.0.1:4242' >&2; exec sleep 600",
        ));
        let server = spawn_server(&env, "provider", "127.0.0.1:0", &[]).unwrap();
        assert_eq!(server.addr, "127.0.0.1:4242".parse().unwrap());
        let pid = server.pid();
        assert!(cpu_ticks(pid) < 1_000_000);
        assert!(peak_rss_kib(pid) > 0);
        let listed = std::fs::read_to_string(env.run_dir.join("pids")).unwrap();
        assert_eq!(listed.trim(), pid.to_string());
        drop(server);
        assert!(!Path::new(&format!("/proc/{pid}")).exists(), "child reaped");
    }
}
