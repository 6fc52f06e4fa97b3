//! Backend selection: the typed configuration that decides whether a
//! deployment's state lives in RAM or on disk.
//!
//! Every storage role (data providers, metadata shards, the version
//! manager's publish log) consumes the same [`BackendConfig`], so Memory
//! vs Disk is one uniformly-plumbed choice instead of a constructor
//! scattered across crates: `StoreConfig::with_backend` selects it for
//! in-process deployments, and the server binaries select it with
//! `--data-dir DIR --fsync POLICY`.

use std::fmt;
use std::path::{Path, PathBuf};

/// When a durable backend calls `fsync` on its append-only logs — the
/// knob trading barrier-ack latency against the durability window (how
/// many acknowledged publishes a crash can lose).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// Sync after every publish/append: zero durability window, one
    /// `fsync` on every commit's critical path.
    #[default]
    PerPublish,
    /// Group commit: sync once every `n` appends. A crash can lose up to
    /// `n - 1` acknowledged records.
    Group(u32),
    /// Never sync on the commit path; only an explicit flush (or the OS
    /// page cache on its own schedule) makes records durable. The whole
    /// unsynced tail is the durability window.
    Deferred,
}

impl FsyncPolicy {
    /// Parses the CLI spelling: `per-publish`, `group:N`, or `deferred`.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "per-publish" => Ok(FsyncPolicy::PerPublish),
            "deferred" => Ok(FsyncPolicy::Deferred),
            _ => match s.strip_prefix("group:") {
                Some(n) => match n.parse::<u32>() {
                    Ok(n) if n > 0 => Ok(FsyncPolicy::Group(n)),
                    _ => Err(format!("bad group size in fsync policy: {s}")),
                },
                None => Err(format!(
                    "unknown fsync policy {s} (expected per-publish, group:N, or deferred)"
                )),
            },
        }
    }

    /// True when a log that has `unsynced` appended-but-unsynced records
    /// must sync now.
    pub fn due(&self, unsynced: u32) -> bool {
        match self {
            FsyncPolicy::PerPublish => unsynced >= 1,
            FsyncPolicy::Group(n) => unsynced >= *n,
            FsyncPolicy::Deferred => false,
        }
    }
}

impl fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsyncPolicy::PerPublish => write!(f, "per-publish"),
            FsyncPolicy::Group(n) => write!(f, "group:{n}"),
            FsyncPolicy::Deferred => write!(f, "deferred"),
        }
    }
}

/// Which storage backend a deployment's stateful roles run on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum BackendConfig {
    /// `HashMap`-backed RAM: the simulation default. Fast, deterministic,
    /// and gone on restart.
    #[default]
    Memory,
    /// Append-only record logs under `dir`, recovered by scan on
    /// open. Each role carves its own subdirectory (see
    /// [`BackendConfig::subdir`]), so one `--data-dir` serves a whole
    /// co-located deployment without collisions.
    Disk {
        /// Root directory of the backend's state.
        dir: PathBuf,
        /// When append-only logs fsync.
        fsync: FsyncPolicy,
    },
}

impl BackendConfig {
    /// A disk backend rooted at `dir` with the default
    /// [`FsyncPolicy::PerPublish`].
    pub fn disk(dir: impl Into<PathBuf>) -> Self {
        BackendConfig::Disk {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
        }
    }

    /// Replaces the fsync policy (no-op on [`BackendConfig::Memory`]).
    pub fn with_fsync(self, policy: FsyncPolicy) -> Self {
        match self {
            BackendConfig::Memory => BackendConfig::Memory,
            BackendConfig::Disk { dir, .. } => BackendConfig::Disk { dir, fsync: policy },
        }
    }

    /// True for the disk backend.
    pub fn is_disk(&self) -> bool {
        matches!(self, BackendConfig::Disk { .. })
    }

    /// The backend re-rooted at `dir/name` (identity for Memory): how a
    /// multi-role deployment carves per-role state out of one data dir.
    pub fn subdir(&self, name: &str) -> BackendConfig {
        match self {
            BackendConfig::Memory => BackendConfig::Memory,
            BackendConfig::Disk { dir, fsync } => BackendConfig::Disk {
                dir: dir.join(name),
                fsync: *fsync,
            },
        }
    }

    /// The root directory of a disk backend.
    pub fn dir(&self) -> Option<&Path> {
        match self {
            BackendConfig::Memory => None,
            BackendConfig::Disk { dir, .. } => Some(dir),
        }
    }

    /// The fsync policy of a disk backend (the default for Memory, which
    /// has nothing to sync).
    pub fn fsync(&self) -> FsyncPolicy {
        match self {
            BackendConfig::Memory => FsyncPolicy::default(),
            BackendConfig::Disk { fsync, .. } => *fsync,
        }
    }
}

impl fmt::Display for BackendConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendConfig::Memory => write!(f, "memory"),
            BackendConfig::Disk { dir, fsync } => {
                write!(f, "disk:{} (fsync {fsync})", dir.display())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_policy_parses_its_own_display() {
        for policy in [
            FsyncPolicy::PerPublish,
            FsyncPolicy::Group(8),
            FsyncPolicy::Deferred,
        ] {
            assert_eq!(FsyncPolicy::parse(&policy.to_string()), Ok(policy));
        }
        assert!(FsyncPolicy::parse("group:0").is_err());
        assert!(FsyncPolicy::parse("group:x").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn fsync_due_matches_policy() {
        assert!(FsyncPolicy::PerPublish.due(1));
        assert!(!FsyncPolicy::Group(4).due(3));
        assert!(FsyncPolicy::Group(4).due(4));
        assert!(!FsyncPolicy::Deferred.due(1_000_000));
    }

    #[test]
    fn backend_subdir_rebases_disk_only() {
        assert_eq!(BackendConfig::Memory.subdir("meta"), BackendConfig::Memory);
        let disk = BackendConfig::disk("/data").with_fsync(FsyncPolicy::Group(2));
        match disk.subdir("meta") {
            BackendConfig::Disk { dir, fsync } => {
                assert_eq!(dir, PathBuf::from("/data/meta"));
                assert_eq!(fsync, FsyncPolicy::Group(2));
            }
            other => panic!("expected disk backend, got {other:?}"),
        }
        assert!(disk.is_disk());
        assert!(!BackendConfig::Memory.is_disk());
    }
}
