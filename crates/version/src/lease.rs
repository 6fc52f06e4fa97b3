//! Snapshot leases: time-bounded read pins that feed the GC floor.
//!
//! A reader that wants a stable view of a historic snapshot acquires a
//! lease on it. While the lease is live the collector's floor cannot
//! rise past the leased version, so every chunk and tree node reachable
//! from it survives collection. Leases are *time-bounded*: a reader
//! that crashes (or stalls past its TTL) stops pinning history the
//! moment its lease expires — no distributed failure detector needed.
//! A reader that outlives its TTL gets a typed
//! [`atomio_types::Error::LeaseExpired`], never torn bytes, because it
//! re-validates the lease before touching storage.
//!
//! The table is deliberately time-agnostic: every method takes `now_ms`
//! so the in-process deployment can drive it from the virtual clock
//! (`Participant::now_ns / 1_000_000`) while the version server uses
//! wall clock. Expiry is lazy — expired rows are dropped (and counted)
//! whenever the table is consulted, not by a background timer.

use atomio_types::VersionId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One granted snapshot lease, as returned to the reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseGrant {
    /// Opaque lease id; quote it on renew/release.
    pub lease: u64,
    /// The snapshot the lease pins.
    pub version: VersionId,
    /// Absolute expiry instant (same clock as the `now_ms` the caller
    /// passes — virtual ms in-process, wall ms on a server).
    pub expires_at_ms: u64,
}

#[derive(Debug, Clone, Copy)]
struct LeaseRow {
    version: VersionId,
    expires_at_ms: u64,
}

/// The lease table hosted by a blob's version manager.
#[derive(Debug, Default)]
pub struct LeaseManager {
    next: u64,
    live: HashMap<u64, LeaseRow>,
    expirations: u64,
}

impl LeaseManager {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every lease whose expiry is at or before `now_ms`,
    /// counting each as an expiration.
    fn expire(&mut self, now_ms: u64) {
        let before = self.live.len();
        self.live.retain(|_, row| row.expires_at_ms > now_ms);
        self.expirations += (before - self.live.len()) as u64;
    }

    /// Grants a fresh lease on `version` lasting `ttl_ms` from `now_ms`.
    pub fn acquire(&mut self, version: VersionId, ttl_ms: u64, now_ms: u64) -> LeaseGrant {
        self.expire(now_ms);
        self.next += 1;
        let lease = self.next;
        let expires_at_ms = now_ms.saturating_add(ttl_ms.max(1));
        self.live.insert(
            lease,
            LeaseRow {
                version,
                expires_at_ms,
            },
        );
        LeaseGrant {
            lease,
            version,
            expires_at_ms,
        }
    }

    /// Extends a live lease to `now_ms + ttl_ms`. Returns `None` when
    /// the lease already expired (or never existed) — the caller maps
    /// that to [`atomio_types::Error::LeaseExpired`]. A renewal never
    /// shortens a lease.
    pub fn renew(&mut self, lease: u64, ttl_ms: u64, now_ms: u64) -> Option<LeaseGrant> {
        self.expire(now_ms);
        let row = self.live.get_mut(&lease)?;
        row.expires_at_ms = row.expires_at_ms.max(now_ms.saturating_add(ttl_ms.max(1)));
        Some(LeaseGrant {
            lease,
            version: row.version,
            expires_at_ms: row.expires_at_ms,
        })
    }

    /// Releases a lease, returning the version it pinned (`None` when
    /// it already expired — releasing an expired lease is not an
    /// error, the pin is gone either way).
    pub fn release(&mut self, lease: u64, now_ms: u64) -> Option<VersionId> {
        self.expire(now_ms);
        self.live.remove(&lease).map(|row| row.version)
    }

    /// The oldest version any live lease pins — the lease contribution
    /// to the GC floor. `None` when no lease is live.
    pub fn oldest_live(&mut self, now_ms: u64) -> Option<VersionId> {
        self.expire(now_ms);
        self.live.values().map(|row| row.version).min()
    }

    /// Live lease count at `now_ms`.
    pub fn active(&mut self, now_ms: u64) -> u64 {
        self.expire(now_ms);
        self.live.len() as u64
    }

    /// Total leases that have lapsed (TTL passed without release).
    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Reinstates a recovered lease during durable replay, keeping the
    /// id allocator past every recovered id. Expiry still applies: a
    /// lease whose TTL lapsed across the crash is simply dropped by the
    /// next consultation.
    pub fn restore(&mut self, lease: u64, version: VersionId, expires_at_ms: u64) {
        self.next = self.next.max(lease);
        self.live.insert(
            lease,
            LeaseRow {
                version,
                expires_at_ms,
            },
        );
    }

    /// Keeps the id allocator past every id the log ever issued, even
    /// ones released before the crash.
    pub fn reserve_ids(&mut self, max_id: u64) {
        self.next = self.next.max(max_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_pins_until_ttl_then_unpins_automatically() {
        let mut lm = LeaseManager::new();
        let g = lm.acquire(VersionId::new(3), 100, 1_000);
        assert_eq!(g.expires_at_ms, 1_100);
        assert_eq!(lm.oldest_live(1_099), Some(VersionId::new(3)));
        assert_eq!(lm.active(1_099), 1);
        // At the expiry instant the pin is gone and counted.
        assert_eq!(lm.oldest_live(1_100), None);
        assert_eq!(lm.active(1_100), 0);
        assert_eq!(lm.expirations(), 1);
    }

    #[test]
    fn oldest_live_is_the_min_across_leases() {
        let mut lm = LeaseManager::new();
        lm.acquire(VersionId::new(9), 1_000, 0);
        let g5 = lm.acquire(VersionId::new(5), 1_000, 0);
        lm.acquire(VersionId::new(7), 1_000, 0);
        assert_eq!(lm.oldest_live(10), Some(VersionId::new(5)));
        assert_eq!(lm.release(g5.lease, 10), Some(VersionId::new(5)));
        assert_eq!(lm.oldest_live(10), Some(VersionId::new(7)));
        assert_eq!(lm.expirations(), 0, "releases are not expirations");
    }

    #[test]
    fn renew_extends_but_never_shortens() {
        let mut lm = LeaseManager::new();
        let g = lm.acquire(VersionId::new(2), 500, 0);
        let r = lm.renew(g.lease, 100, 300).unwrap();
        assert_eq!(
            r.expires_at_ms, 500,
            "shorter renewal keeps the later expiry"
        );
        let r = lm.renew(g.lease, 500, 300).unwrap();
        assert_eq!(r.expires_at_ms, 800);
        // Past expiry: renew refuses, and the lapse is counted once.
        assert_eq!(lm.renew(g.lease, 500, 800), None);
        assert_eq!(lm.expirations(), 1);
        assert_eq!(lm.renew(999, 500, 0), None, "unknown lease");
    }

    #[test]
    fn restore_replays_live_rows_and_reissues_past_recovered_ids() {
        let mut lm = LeaseManager::new();
        lm.restore(4, VersionId::new(6), 2_000);
        lm.restore(2, VersionId::new(3), 1_500);
        assert_eq!(lm.oldest_live(1_000), Some(VersionId::new(3)));
        let g = lm.acquire(VersionId::new(8), 10, 1_000);
        assert!(g.lease > 4, "allocator resumed past recovered ids");
        assert_eq!(lm.active(1_000), 3);
        // A recovered row still expires on its own TTL.
        assert_eq!(lm.oldest_live(1_500), Some(VersionId::new(6)));
    }
}
