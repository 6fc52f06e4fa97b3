//! The version manager: the ticket → publish → snapshot state machine,
//! spelled once.
//!
//! [`VersionManager`]'s inherent methods *are* the state machine. They
//! take no [`Participant`] and charge no simulated cost (the `_local`
//! in most of their names): a network server calls them directly — the
//! wire is the cost there — and lease bookkeeping takes `now_ms` from
//! whichever clock the deployment runs on. What reaching the manager
//! costs *in process* lives in exactly one place, the
//! `impl VersionOracle for VersionManager` at the bottom of this module:
//! each method is one private `charge` (an RPC round trip plus a
//! meta-op of manager CPU) followed by the participant-free call.
//!
//! A published version is described by one record type on the publish
//! log, [`PublishRecord`]; one function assembles it from manager state
//! (for the log append) and one function installs it into manager state
//! (for log replay).

use crate::lease::{LeaseGrant, LeaseManager};
use crate::log::{PublishLog, PublishRecord};
use crate::oracle::VersionOracle;
use atomio_meta::history::WriteSummary;
use atomio_meta::{NodeKey, TreeConfig, VersionHistory};
use atomio_simgrid::{CostModel, Event, Participant, Resource};
use atomio_types::{
    BackendConfig, BlobId, ByteRange, Error, ExtentList, Result, RetentionPolicy,
    TransportErrorKind, VersionId, MAX_HEADER_BYTES,
};
use parking_lot::Mutex;
use serde::{Decode, Deserialize, Encode, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A published snapshot: what a reader needs to run a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Encode, Decode)]
pub struct SnapshotRecord {
    /// The snapshot's version.
    pub version: VersionId,
    /// Root of its tree (`None` only for the initial empty snapshot).
    pub root: Option<NodeKey>,
    /// Blob size: one past the highest byte ever written up to this
    /// version.
    pub size: u64,
    /// Tree capacity of this version.
    pub capacity: u64,
}

impl SnapshotRecord {
    /// The empty snapshot every blob starts from.
    const INITIAL: SnapshotRecord = SnapshotRecord {
        version: VersionId::INITIAL,
        root: None,
        size: 0,
        capacity: 0,
    };
}

/// A write ticket: permission to build and publish one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Encode, Decode)]
pub struct Ticket {
    /// Version assigned to the write.
    pub version: VersionId,
    /// Tree capacity the write must build with.
    pub capacity: u64,
    /// Blob size after this write publishes.
    pub size: u64,
}

/// How tickets are issued. There is one way — BlobSeer's: a ticket is
/// issued immediately, metadata builds of concurrent writers overlap,
/// and only the publication flip is ordered.
///
/// The enum, and the parameter of [`VersionManager::new`] /
/// [`VersionManager::durable`] that takes it, exist *only* because the
/// frozen wall-clock benchmark (`wallbench/src/{probes,workloads}.rs`)
/// passes `TicketMode::Pipelined`; nothing reads the value. The next
/// benchmark PR that stops passing it deletes both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TicketMode {
    /// The only mode.
    #[default]
    Pipelined,
}

#[derive(Clone, Copy)]
enum TicketShape<'a> {
    Explicit(&'a ExtentList),
    Append(u64),
}

/// What a grant whose sizes do not fit the tree geometry is refused
/// with: the largest capacity is the largest power-of-two multiple of
/// the leaf size a `u64` holds.
const BLOB_TOO_LARGE: Error =
    Error::Unsupported("write would grow the blob past the largest tree capacity");

/// `known` for a caller that shares the manager's own history and so
/// needs no delta back from a grant.
const KNOWS_EVERY_ROW: usize = usize::MAX;

/// Encoded bytes of a grant's reply besides its delta rows: the reply's
/// variant tag, the ticket's three `u64`s and the rows' count. A test in
/// `atomio-rpc` holds the reckoning to the codec's bytes at the limit.
const GRANT_HEAD_BYTES: usize = 1 + 3 * 8 + 4;

#[derive(Debug, Default)]
struct VmState {
    /// Next version to hand out.
    next: u64,
    /// Highest published version (dense prefix).
    published: u64,
    /// Builds finished out of order, waiting for their predecessors.
    pending: HashMap<u64, Option<NodeKey>>,
    /// Snapshot records, index `v - 1`.
    snapshots: Vec<SnapshotRecord>,
    /// Per-ticket sizes (index `v - 1`) so records can be completed at
    /// publication time.
    ticket_sizes: Vec<u64>,
    /// Live snapshot leases pinning historic versions against GC.
    leases: LeaseManager,
    /// How much history collection must preserve regardless of leases.
    retention: RetentionPolicy,
}

/// The version-manager service.
#[derive(Debug)]
pub struct VersionManager {
    history: Arc<VersionHistory>,
    config: TreeConfig,
    cost: CostModel,
    cpu: Resource,
    state: Mutex<VmState>,
    /// Durable publish log — `None` for the in-memory deployment.
    log: Option<PublishLog>,
    /// Notified whenever the published prefix advances.
    published: Event,
}

impl VersionManager {
    /// Creates a version manager for one blob.
    pub fn new(
        history: Arc<VersionHistory>,
        config: TreeConfig,
        cost: CostModel,
        _mode: TicketMode,
    ) -> Self {
        VersionManager {
            history,
            config,
            cost,
            cpu: Resource::new("version-manager/cpu"),
            state: Mutex::new(VmState::default()),
            log: None,
            published: Event::new(),
        }
    }

    /// Creates a **durable** version manager whose publish decisions
    /// survive crashes: every snapshot entering the dense published
    /// prefix is appended to a log under `dir` (fsynced per `fsync`)
    /// before the publish call returns, and reopening the same `dir`
    /// replays the log — `history`, the published prefix, and every
    /// snapshot record come back exactly as logged. Versions granted but
    /// not published at the crash are rolled back and their numbers
    /// re-issued; they were never readable, so atomicity holds across
    /// the restart.
    ///
    /// `history` must be empty: recovery rebuilds it from the log.
    ///
    /// # Errors
    /// [`Error::Internal`] on I/O failure, a corrupt/foreign log
    /// directory, or logged records that do not form a history (a gap
    /// in the versions, a shrinking capacity).
    pub fn durable(
        dir: impl Into<std::path::PathBuf>,
        history: Arc<VersionHistory>,
        config: TreeConfig,
        cost: CostModel,
        mode: TicketMode,
        fsync: atomio_types::FsyncPolicy,
    ) -> Result<Self> {
        assert!(
            history.is_empty(),
            "durable recovery rebuilds the history from the log"
        );
        let (log, replay) = PublishLog::open(dir, fsync)?;
        let mut st = VmState {
            retention: replay.retention.unwrap_or_default(),
            ..Default::default()
        };
        for grant in &replay.leases {
            st.leases
                .restore(grant.lease, grant.version, grant.expires_at_ms);
        }
        st.leases.reserve_ids(replay.max_lease_id);
        for rec in replay.publishes {
            Self::install(&history, &mut st, rec)?;
        }
        Ok(VersionManager {
            state: Mutex::new(st),
            log: Some(log),
            ..Self::new(history, config, cost, mode)
        })
    }

    /// The shared write-summary history.
    pub fn history(&self) -> &Arc<VersionHistory> {
        &self.history
    }

    /// Issues a write ticket for `extents` and records the write summary
    /// in the history before returning. Returns the ticket, the assigned
    /// extents, and the history delta since the caller's `known` row
    /// count (so a remote client can mirror the write-summary history) —
    /// always ending with the grantee's own row, which is how a remote
    /// client learns its extents.
    ///
    /// **Grant-order invariant:** versions are granted densely, in the
    /// order ticket requests reach the manager, however far publication
    /// lags.
    ///
    /// # Errors
    /// [`Error::EmptyAccess`] for an empty extent list;
    /// [`Error::Unsupported`] when the write ends past the largest tree
    /// capacity; a typed [`TransportErrorKind::Protocol`] error when the
    /// delta's reply would pass [`MAX_HEADER_BYTES`], so a grant that
    /// could not reach its caller is never issued. Nothing is granted and
    /// no state changes in any of these cases.
    pub fn ticket_local(
        &self,
        extents: &ExtentList,
        known: usize,
    ) -> Result<(Ticket, ExtentList, Vec<WriteSummary>)> {
        if extents.is_empty() {
            return Err(Error::EmptyAccess);
        }
        self.grant(TicketShape::Explicit(extents), known)
    }

    /// Issues an **append** ticket for `len` bytes: the write's extents
    /// are `[tail, tail + len)` where `tail` is the blob size at ticket
    /// time — assigned atomically with the version number, so concurrent
    /// appenders receive disjoint, back-to-back regions (BlobSeer's
    /// APPEND primitive). Returns as [`Self::ticket_local`] does, and
    /// refuses what it refuses (an append whose end overflows included).
    pub fn ticket_append_local(
        &self,
        len: u64,
        known: usize,
    ) -> Result<(Ticket, ExtentList, Vec<WriteSummary>)> {
        if len == 0 {
            return Err(Error::EmptyAccess);
        }
        self.grant(TicketShape::Append(len), known)
    }

    /// The one grant path: a single lock-held step that nothing but its
    /// input can refuse. The sizes may come straight off the wire, so
    /// the append tail, the covering end and the capacity are computed
    /// checked, and the reply's bytes are reckoned, all before any state
    /// or history row changes.
    fn grant(
        &self,
        shape: TicketShape<'_>,
        known: usize,
    ) -> Result<(Ticket, ExtentList, Vec<WriteSummary>)> {
        let mut st = self.state.lock();
        let prev_size = st.ticket_sizes.last().copied().unwrap_or(0);
        let end = match shape {
            TicketShape::Explicit(e) => e.ranges().last().and_then(|r| r.offset.checked_add(r.len)),
            TicketShape::Append(len) => prev_size.checked_add(len),
        }
        .ok_or(BLOB_TOO_LARGE)?;
        let v = VersionId::new(st.next + 1);
        let prev_cap = self
            .history
            .capacity_of(v.predecessor().unwrap_or_default());
        let capacity = self
            .config
            .capacity_for(end)
            .ok_or(BLOB_TOO_LARGE)?
            .max(prev_cap);
        let extents = match shape {
            TicketShape::Explicit(e) => e.clone(),
            TicketShape::Append(_) => ExtentList::single(ByteRange::from_bounds(prev_size, end)),
        };
        // `extents` goes back to the caller; the row keeps its own copy,
        // exact-size like every clone, for as long as the history lives.
        let own = WriteSummary {
            version: v,
            extents: Arc::new(extents.clone()),
            capacity,
        };
        // The delta is the rows after `known`, ending with the grantee's
        // own. It starts at that row at the latest: a client whose mirror
        // ran past it (a restarted durable manager rolled back its
        // unpublished grant of `v` and grants `v` again) must still find
        // its row last.
        let from = (known != KNOWS_EVERY_ROW).then(|| known.min(st.next as usize));
        if let Some(from) = from {
            let reply = GRANT_HEAD_BYTES
                + self.history.encoded_len_between(from, st.next as usize)
                + own.encoded_len();
            let limit = MAX_HEADER_BYTES as usize;
            if reply > limit {
                return Err(Error::Transport {
                    kind: TransportErrorKind::Protocol,
                    detail: format!(
                        "granting {v} answers with {reply} bytes of history after row {from}, past the {limit}-byte frame header limit"
                    ),
                });
            }
        }
        let size = prev_size.max(end);
        st.next += 1;
        st.ticket_sizes.push(size);
        self.history.append(own);
        drop(st);
        let ticket = Ticket {
            version: v,
            capacity,
            size,
        };
        // The delta stops at the grantee's row, whatever later grants
        // appended since the state lock was released.
        let delta = from.map_or_else(Vec::new, |from| {
            self.history.summaries_between(from, v.raw() as usize)
        });
        Ok((ticket, extents, delta))
    }

    /// Reports the completed tree build of `ticket`'s version. The
    /// snapshot becomes visible once every predecessor has published;
    /// this call does not wait (see [`VersionOracle::wait_published`]).
    pub fn publish_local(&self, ticket: Ticket, root: NodeKey) -> Result<()> {
        let mut st = self.state.lock();
        let v = ticket.version.raw();
        if v == 0 || v > st.next {
            return Err(Error::Internal(format!(
                "publish of unissued version {}",
                ticket.version
            )));
        }
        if v <= st.published || st.pending.contains_key(&v) {
            return Err(Error::Internal(format!(
                "double publish of {}",
                ticket.version
            )));
        }
        st.pending.insert(v, Some(root));
        // Advance the dense published prefix. Each step appends to the
        // durable log *before* the snapshot becomes visible: a version is
        // never readable without a log record describing it.
        loop {
            let next = st.published + 1;
            let Some(root) = st.pending.remove(&next) else {
                break;
            };
            let v = VersionId::new(next);
            let snapshot = SnapshotRecord {
                version: v,
                root,
                size: st.ticket_sizes[next as usize - 1],
                capacity: self.history.capacity_of(v),
            };
            self.logged(|log| log.append(&self.record_of(snapshot)))?;
            st.published += 1;
            st.snapshots.push(snapshot);
            self.published.notify_all();
        }
        Ok(())
    }

    /// The record of a published (or publishing) version: its snapshot
    /// plus the extents of its history row. The only place one is
    /// assembled from manager state, for the log.
    fn record_of(&self, snapshot: SnapshotRecord) -> PublishRecord {
        PublishRecord {
            version: snapshot.version,
            root: snapshot.root,
            size: snapshot.size,
            capacity: snapshot.capacity,
            extents: self
                .history
                .summary(snapshot.version)
                .map(|s| (*s.extents).clone())
                .unwrap_or_default(),
        }
    }

    /// Installs one published version into manager state — history row,
    /// ticket size, snapshot, `next` / `published` — and is the only
    /// code that does, for log replay.
    ///
    /// # Errors
    /// [`Error::Internal`], with nothing changed, unless `rec` is the
    /// version right after the published prefix and its tree capacity is
    /// no smaller than its predecessor's (what [`VersionHistory::append`]
    /// asserts).
    fn install(history: &VersionHistory, st: &mut VmState, rec: PublishRecord) -> Result<()> {
        if rec.version.raw() != st.published + 1 {
            return Err(Error::Internal(format!(
                "published prefix ends at v{}, next record is {}",
                st.published, rec.version
            )));
        }
        if st
            .snapshots
            .last()
            .is_some_and(|s| s.capacity > rec.capacity)
        {
            return Err(Error::Internal(format!(
                "capacity shrinks at {}",
                rec.version
            )));
        }
        history.append(WriteSummary {
            version: rec.version,
            extents: Arc::new(rec.extents),
            capacity: rec.capacity,
        });
        st.next += 1;
        st.published += 1;
        st.ticket_sizes.push(rec.size);
        st.snapshots.push(SnapshotRecord {
            version: rec.version,
            root: rec.root,
            size: rec.size,
            capacity: rec.capacity,
        });
        Ok(())
    }

    /// Forces the publish log's outstanding appends to stable storage
    /// (no-op for in-memory managers).
    pub fn flush(&self) -> Result<()> {
        self.logged(PublishLog::flush)
    }

    /// Runs `append` on the publish log, if this manager has one.
    fn logged(&self, append: impl FnOnce(&PublishLog) -> Result<()>) -> Result<()> {
        self.log.as_ref().map_or(Ok(()), append)
    }

    /// Fsync counters of the publish log, if this manager is durable.
    pub fn publish_log_stats(&self) -> Option<crate::log::LogStats> {
        self.log.as_ref().map(|l| l.stats())
    }

    /// True once `version` is visible to readers.
    pub fn is_published(&self, version: VersionId) -> bool {
        self.state.lock().published >= version.raw()
    }

    /// The latest published snapshot (the empty initial snapshot if no
    /// write has published yet).
    pub fn latest_local(&self) -> SnapshotRecord {
        let st = self.state.lock();
        st.snapshots
            .last()
            .copied()
            .unwrap_or(SnapshotRecord::INITIAL)
    }

    /// Looks up a specific published snapshot.
    pub fn snapshot_local(&self, version: VersionId) -> Result<SnapshotRecord> {
        if version.is_initial() {
            return Ok(SnapshotRecord::INITIAL);
        }
        let st = self.state.lock();
        st.snapshots
            .get(version.raw() as usize - 1)
            .copied()
            .ok_or(Error::VersionNotFound {
                blob: atomio_types::BlobId::new(0),
                version,
            })
    }

    /// Publication statistics for the harness.
    pub fn stats(&self) -> PublicationStats {
        let st = self.state.lock();
        PublicationStats {
            issued: st.next,
            published: st.published,
            parked: st.pending.len(),
        }
    }

    // -----------------------------------------------------------------
    // Reclamation surface: retention policy, snapshot leases, GC floor.
    // `now_ms` comes from whichever clock the deployment runs on
    // (virtual in-process, wall clock on a network server).
    // -----------------------------------------------------------------

    /// Sets the blob's retention policy (durably, when logged).
    pub fn set_retention_local(&self, policy: RetentionPolicy) -> Result<()> {
        let mut st = self.state.lock();
        st.retention = policy;
        self.logged(|log| log.append_retention(policy))
    }

    /// The blob's current retention policy.
    pub fn retention(&self) -> RetentionPolicy {
        self.state.lock().retention
    }

    /// Grants a snapshot lease on a **published** version, pinning it
    /// (and everything below it) against collection for `ttl_ms`.
    ///
    /// # Errors
    /// [`Error::VersionNotFound`] when `version` is not a published
    /// (non-initial) snapshot — an unpublished or reclaimed version
    /// cannot be pinned.
    pub fn lease_acquire_local(
        &self,
        version: VersionId,
        ttl_ms: u64,
        now_ms: u64,
    ) -> Result<LeaseGrant> {
        let mut st = self.state.lock();
        if version.is_initial() || version.raw() > st.published {
            return Err(Error::VersionNotFound {
                blob: atomio_types::BlobId::new(0),
                version,
            });
        }
        let grant = st.leases.acquire(version, ttl_ms, now_ms);
        self.logged(|log| log.append_lease(&grant))?;
        Ok(grant)
    }

    /// Extends a live lease's TTL; refuses with a typed error once it
    /// has lapsed (the snapshot may already be reclaimed).
    ///
    /// # Errors
    /// [`Error::LeaseExpired`] when the lease lapsed or never existed
    /// (`version` in the error is [`VersionId::INITIAL`] when the
    /// pinned snapshot is no longer known).
    pub fn lease_renew_local(&self, lease: u64, ttl_ms: u64, now_ms: u64) -> Result<LeaseGrant> {
        let mut st = self.state.lock();
        let grant = st
            .leases
            .renew(lease, ttl_ms, now_ms)
            .ok_or(Error::LeaseExpired {
                lease,
                version: VersionId::INITIAL,
            })?;
        self.logged(|log| log.append_lease(&grant))?;
        Ok(grant)
    }

    /// Releases a lease. Idempotent: releasing an expired or unknown
    /// lease succeeds — the pin is gone either way.
    pub fn lease_release_local(&self, lease: u64, now_ms: u64) -> Result<()> {
        let mut st = self.state.lock();
        if st.leases.release(lease, now_ms).is_some() {
            self.logged(|log| log.append_lease_release(lease))?;
        }
        Ok(())
    }

    /// The reclamation floor as this manager sees it: the minimum of
    /// the retention floor (relative to the latest published snapshot)
    /// and the oldest live lease. The collector may retire versions
    /// strictly below it.
    pub fn gc_floor_local(&self, now_ms: u64) -> GcFloor {
        let mut st = self.state.lock();
        let latest = VersionId::new(st.published);
        let mut floor = st.retention.floor(latest);
        if let Some(leased) = st.leases.oldest_live(now_ms) {
            floor = floor.min(leased);
        }
        GcFloor {
            floor,
            leases_active: st.leases.active(now_ms),
            lease_expirations: st.leases.expirations(),
        }
    }

    /// What reaching the manager costs a simulated client, on every
    /// charged call: one RPC round trip plus a meta-op of manager CPU.
    fn charge(&self, p: &Participant) {
        p.sleep(self.cost.rpc_round_trip());
        self.cpu.serve(p, self.cost.meta_op);
    }
}

/// Virtual-clock milliseconds: the lease clock of an in-process manager.
fn vnow_ms(p: &Participant) -> u64 {
    p.now_ns() / 1_000_000
}

/// The charged, in-process path — the only spelling of it: `charge`,
/// then the participant-free call.
impl VersionOracle for VersionManager {
    fn history(&self) -> &Arc<VersionHistory> {
        &self.history
    }

    fn ticket(&self, p: &Participant, extents: &ExtentList) -> Result<Ticket> {
        // Refused before the round trip is paid, as it always was.
        if extents.is_empty() {
            return Err(Error::EmptyAccess);
        }
        self.charge(p);
        let (ticket, _, _) = self.ticket_local(extents, KNOWS_EVERY_ROW)?;
        Ok(ticket)
    }

    fn ticket_append(&self, p: &Participant, len: u64) -> Result<(Ticket, ExtentList)> {
        if len == 0 {
            return Err(Error::EmptyAccess);
        }
        self.charge(p);
        let (ticket, extents, _) = self.ticket_append_local(len, KNOWS_EVERY_ROW)?;
        Ok((ticket, extents))
    }

    fn publish(&self, p: &Participant, ticket: Ticket, root: NodeKey) -> Result<()> {
        self.charge(p);
        self.publish_local(ticket, root)
    }

    fn is_published(&self, version: VersionId) -> Result<bool> {
        Ok(VersionManager::is_published(self, version))
    }

    /// Blocks in virtual time until `version` is visible; not charged.
    fn wait_published(&self, p: &Participant, version: VersionId) -> Result<()> {
        p.wait_until(&self.published, || {
            VersionManager::is_published(self, version).then_some(())
        });
        Ok(())
    }

    fn latest(&self, p: &Participant) -> Result<SnapshotRecord> {
        self.charge(p);
        Ok(self.latest_local())
    }

    fn snapshot(&self, p: &Participant, version: VersionId) -> Result<SnapshotRecord> {
        self.charge(p);
        self.snapshot_local(version)
    }

    fn set_retention(&self, p: &Participant, policy: RetentionPolicy) -> Result<()> {
        self.charge(p);
        self.set_retention_local(policy)
    }

    fn lease_acquire(
        &self,
        p: &Participant,
        version: VersionId,
        ttl_ms: u64,
    ) -> Result<LeaseGrant> {
        self.charge(p);
        self.lease_acquire_local(version, ttl_ms, vnow_ms(p))
    }

    fn lease_renew(&self, p: &Participant, lease: u64, ttl_ms: u64) -> Result<LeaseGrant> {
        self.charge(p);
        self.lease_renew_local(lease, ttl_ms, vnow_ms(p))
    }

    fn lease_release(&self, p: &Participant, lease: u64) -> Result<()> {
        self.charge(p);
        self.lease_release_local(lease, vnow_ms(p))
    }

    fn gc_floor(&self, p: &Participant) -> Result<GcFloor> {
        self.charge(p);
        Ok(self.gc_floor_local(vnow_ms(p)))
    }
}

/// The manager's contribution to the reclamation floor, plus the lease
/// gauges the GC stats block reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Encode, Decode)]
pub struct GcFloor {
    /// Collection may retire versions strictly below this.
    pub floor: VersionId,
    /// Live leases at the time of the query.
    pub leases_active: u64,
    /// Leases that lapsed (TTL passed without release) since creation.
    pub lease_expirations: u64,
}

/// Counters describing the publication pipeline's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicationStats {
    /// Tickets issued so far.
    pub issued: u64,
    /// Snapshots visible so far.
    pub published: u64,
    /// Builds completed but waiting for a predecessor.
    pub parked: usize,
}

/// Builds the version manager of `blob` for `backend`: in memory for
/// `Memory`, recovered from its publish log under
/// `<dir>/version/blob-<id>` for `Disk` — the one factory in-process
/// stores and the version service create managers through.
/// `default_retention` is the deployment's default policy: it is stamped
/// on a manager that has none of its own, and never clobbers a per-blob
/// policy recovered from the publish log.
///
/// # Errors
/// [`Error::Internal`] when a disk backend's publish log cannot be
/// opened, recovered, or appended to.
pub fn version_manager_for(
    backend: &BackendConfig,
    blob: BlobId,
    tree: TreeConfig,
    cost: CostModel,
    default_retention: RetentionPolicy,
) -> Result<VersionManager> {
    let history = Arc::new(VersionHistory::new());
    let mode = TicketMode::Pipelined;
    let vm = match backend {
        BackendConfig::Memory => VersionManager::new(history, tree, cost, mode),
        BackendConfig::Disk { dir, fsync } => {
            let dir = dir.join("version").join(format!("blob-{}", blob.raw()));
            VersionManager::durable(dir, history, tree, cost, mode, *fsync)?
        }
    };
    if default_retention != RetentionPolicy::default()
        && vm.retention() == RetentionPolicy::default()
    {
        vm.set_retention_local(default_retention)?;
    }
    Ok(vm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors;
    use std::time::Duration;

    fn vm() -> VersionManager {
        VersionManager::new(
            Arc::new(VersionHistory::new()),
            TreeConfig::new(64),
            CostModel::zero(),
            TicketMode::Pipelined,
        )
    }

    fn extents(pairs: &[(u64, u64)]) -> ExtentList {
        ExtentList::from_pairs(pairs.iter().copied())
    }

    fn root_for(t: Ticket) -> NodeKey {
        NodeKey::new(
            atomio_types::BlobId::new(0),
            t.version,
            ByteRange::new(0, t.capacity),
        )
    }

    #[test]
    fn tickets_are_dense_and_capacity_monotonic() {
        let m = vm();
        run_actors(1, |_, p| {
            let t1 = m.ticket(p, &extents(&[(0, 64)])).unwrap();
            let t2 = m.ticket(p, &extents(&[(0, 32)])).unwrap();
            let t3 = m.ticket(p, &extents(&[(500, 10)])).unwrap();
            assert_eq!(t1.version, VersionId::new(1));
            assert_eq!(t2.version, VersionId::new(2));
            assert_eq!(t3.version, VersionId::new(3));
            assert_eq!(t1.capacity, 64);
            assert_eq!(t2.capacity, 64, "capacity never shrinks");
            assert_eq!(t3.capacity, 512);
            assert_eq!(t1.size, 64);
            assert_eq!(t2.size, 64, "size never shrinks");
            assert_eq!(t3.size, 510);
        });
    }

    #[test]
    fn serialized_ticket_calls_are_granted_in_call_order() {
        // The grant-order invariant: a single caller issuing tickets one
        // at a time is granted dense versions in call order, however far
        // publication lags.
        let m = vm();
        run_actors(1, |_, p| {
            let mut publish_backlog = Vec::new();
            for k in 1..=6u64 {
                let base = m.history().len() as u64;
                let t = m.ticket(p, &extents(&[(k * 8, 8)])).unwrap();
                assert_eq!(
                    t.version,
                    VersionId::new(base.max(k - 1) + 1),
                    "grant order must equal call order"
                );
                assert_eq!(t.version, VersionId::new(k));
                publish_backlog.push(t);
            }
            for t in publish_backlog.drain(..) {
                m.publish(p, t, root_for(t)).unwrap();
            }
        });
    }

    #[test]
    fn empty_extents_rejected() {
        let m = vm();
        run_actors(1, |_, p| {
            assert_eq!(
                m.ticket(p, &ExtentList::new()).unwrap_err(),
                Error::EmptyAccess
            );
        });
    }

    #[test]
    fn out_of_order_publish_becomes_visible_in_order() {
        let m = vm();
        run_actors(1, |_, p| {
            let t1 = m.ticket(p, &extents(&[(0, 64)])).unwrap();
            let t2 = m.ticket(p, &extents(&[(64, 64)])).unwrap();
            let t3 = m.ticket(p, &extents(&[(128, 64)])).unwrap();
            // Publish 3 first: nothing visible.
            m.publish(p, t3, root_for(t3)).unwrap();
            assert!(!m.is_published(t3.version));
            assert_eq!(m.stats().parked, 1);
            // Publish 2: still nothing (1 missing).
            m.publish(p, t2, root_for(t2)).unwrap();
            assert!(!m.is_published(t2.version));
            // Publish 1: all three become visible at once.
            m.publish(p, t1, root_for(t1)).unwrap();
            assert!(m.is_published(t3.version));
            assert_eq!(m.stats().parked, 0);
            assert_eq!(m.latest(p).unwrap().version, t3.version);
        });
    }

    #[test]
    fn double_publish_rejected() {
        let m = vm();
        run_actors(1, |_, p| {
            let t1 = m.ticket(p, &extents(&[(0, 64)])).unwrap();
            m.publish(p, t1, root_for(t1)).unwrap();
            assert!(matches!(
                m.publish(p, t1, root_for(t1)),
                Err(Error::Internal(_))
            ));
            // Unissued version also rejected.
            let bogus = Ticket {
                version: VersionId::new(9),
                capacity: 64,
                size: 64,
            };
            assert!(matches!(
                m.publish(p, bogus, root_for(bogus)),
                Err(Error::Internal(_))
            ));
        });
    }

    #[test]
    fn snapshot_lookup() {
        let m = vm();
        run_actors(1, |_, p| {
            let initial = m.snapshot(p, VersionId::INITIAL).unwrap();
            assert_eq!(initial.size, 0);
            assert!(initial.root.is_none());
            let t1 = m.ticket(p, &extents(&[(0, 100)])).unwrap();
            assert!(matches!(
                m.snapshot(p, t1.version),
                Err(Error::VersionNotFound { .. })
            ));
            m.publish(p, t1, root_for(t1)).unwrap();
            let snap = m.snapshot(p, t1.version).unwrap();
            assert_eq!(snap.size, 100);
            assert_eq!(snap.root, Some(root_for(t1)));
            assert_eq!(m.latest(p).unwrap(), snap);
        });
    }

    #[test]
    fn wait_published_unblocks_when_predecessors_land() {
        let m = Arc::new(vm());
        let tickets = Mutex::new(Vec::new());
        let (_, _) = run_actors(3, |i, p| {
            // Everyone takes a ticket "simultaneously".
            let t = m.ticket(p, &extents(&[(i as u64 * 64, 64)])).unwrap();
            tickets.lock().push(t.version);
            // Later tickets publish later in virtual time (reverse delay
            // would park them).
            p.sleep(Duration::from_micros(
                (3 - t.version.raw()) * 100, // v1 sleeps longest
            ));
            m.publish(p, t, root_for(t)).unwrap();
            m.wait_published(p, t.version).unwrap();
            assert!(m.is_published(t.version));
        });
        assert_eq!(m.stats().published, 3);
    }

    #[test]
    fn append_tickets_are_disjoint_and_dense() {
        let m = Arc::new(vm());
        let (results, _) = run_actors(8, |_, p| {
            let (t, ext) = m.ticket_append(p, 100).unwrap();
            (t.version.raw(), ext.covering_range().offset)
        });
        let mut by_version: Vec<(u64, u64)> = results;
        by_version.sort_unstable();
        for (i, (v, off)) in by_version.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
            assert_eq!(*off, i as u64 * 100, "append regions must be back-to-back");
        }
    }

    #[test]
    fn append_after_explicit_write_starts_at_tail() {
        let m = vm();
        run_actors(1, |_, p| {
            let t = m.ticket(p, &extents(&[(0, 130)])).unwrap();
            m.publish(p, t, root_for(t)).unwrap();
            let (t2, ext) = m.ticket_append(p, 20).unwrap();
            assert_eq!(ext.covering_range().offset, 130);
            assert_eq!(t2.size, 150);
            assert!(matches!(m.ticket_append(p, 0), Err(Error::EmptyAccess)));
        });
    }

    #[test]
    fn concurrent_tickets_are_unique() {
        let m = Arc::new(vm());
        let (versions, _) = run_actors(16, |i, p| {
            m.ticket(p, &extents(&[(i as u64 * 64, 64)]))
                .unwrap()
                .version
                .raw()
        });
        let mut sorted = versions.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (1..=16).collect::<Vec<_>>());
    }

    #[test]
    fn a_grant_delta_runs_from_the_callers_rows_to_the_grantees_own() {
        let m = vm();
        let rows = |known: usize| -> Vec<u64> {
            let (_, _, delta) = m.ticket_local(&extents(&[(0, 64)]), known).unwrap();
            delta.iter().map(|s| s.version.raw()).collect()
        };
        assert_eq!(rows(0), [1]);
        assert_eq!(rows(0), [1, 2]);
        // A mirror already past the grantee's row (a restarted durable
        // manager grants a rolled-back version again) still gets that
        // row, and only it.
        assert_eq!(rows(9), [3]);
        assert!(rows(KNOWS_EVERY_ROW).is_empty());
    }

    #[test]
    fn concurrent_grants_each_end_their_delta_with_their_own_row() {
        let m = vm();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    let mut known = 0;
                    for k in 0..200u64 {
                        let at = (t * 200 + k) * 64;
                        let (ticket, _, delta) =
                            m.ticket_local(&extents(&[(at, 64)]), known).unwrap();
                        let last = delta.last().map(|s| s.version);
                        assert_eq!(last, Some(ticket.version));
                        known = ticket.version.raw() as usize;
                    }
                });
            }
        });
        assert_eq!(m.history().len(), 800);
    }

    fn durable_vm(dir: &std::path::Path, fsync: atomio_types::FsyncPolicy) -> VersionManager {
        VersionManager::durable(
            dir,
            Arc::new(VersionHistory::new()),
            TreeConfig::new(64),
            CostModel::zero(),
            TicketMode::Pipelined,
            fsync,
        )
        .unwrap()
    }

    #[test]
    fn durable_manager_recovers_published_prefix() {
        let tmp = atomio_types::tempdir::TempDir::new("atomio-vm");
        let granted_unpublished = {
            let m = durable_vm(tmp.path(), atomio_types::FsyncPolicy::PerPublish);
            run_actors(1, |_, p| {
                for k in 1..=4u64 {
                    let t = m.ticket(p, &extents(&[((k - 1) * 64, 64)])).unwrap();
                    m.publish(p, t, root_for(t)).unwrap();
                }
                // A granted ticket that never publishes: must vanish.
                m.ticket(p, &extents(&[(512, 64)])).unwrap().version
            })
            .0[0]
            // Hard drop, no flush.
        };
        let m = durable_vm(tmp.path(), atomio_types::FsyncPolicy::PerPublish);
        assert_eq!(m.stats().published, 4);
        assert_eq!(m.stats().issued, 4, "unpublished grant rolled back");
        assert_eq!(m.history().len(), 4);
        run_actors(1, |_, p| {
            assert_eq!(m.latest(p).unwrap().version, VersionId::new(4));
            assert_eq!(m.latest(p).unwrap().size, 4 * 64);
            let snap = m.snapshot(p, VersionId::new(2)).unwrap();
            assert_eq!(
                snap.root,
                Some(root_for(Ticket {
                    version: VersionId::new(2),
                    capacity: snap.capacity,
                    size: snap.size,
                }))
            );
            // The never-published version is unknown, and its number is
            // handed out again to the next writer.
            assert!(matches!(
                m.snapshot(p, granted_unpublished),
                Err(Error::VersionNotFound { .. })
            ));
            let t = m.ticket(p, &extents(&[(256, 64)])).unwrap();
            assert_eq!(t.version, granted_unpublished);
            m.publish(p, t, root_for(t)).unwrap();
            assert_eq!(m.latest(p).unwrap().version, granted_unpublished);
        });
    }

    #[test]
    fn durable_manager_capacity_and_size_survive_reopen() {
        let tmp = atomio_types::tempdir::TempDir::new("atomio-vm");
        {
            let m = durable_vm(tmp.path(), atomio_types::FsyncPolicy::Group(8));
            run_actors(1, |_, p| {
                let t1 = m.ticket(p, &extents(&[(0, 64)])).unwrap();
                let t2 = m.ticket(p, &extents(&[(500, 10)])).unwrap();
                m.publish(p, t2, root_for(t2)).unwrap();
                m.publish(p, t1, root_for(t1)).unwrap();
            });
            // Group(8) has both records unsynced; a graceful shutdown
            // flushes them.
            m.flush().unwrap();
        }
        let m = durable_vm(tmp.path(), atomio_types::FsyncPolicy::Group(8));
        run_actors(1, |_, p| {
            // Ticket state resumes exactly: capacity stays monotone and
            // appends land at the recovered tail.
            let (t3, ext) = m.ticket_append(p, 20).unwrap();
            assert_eq!(t3.version, VersionId::new(3));
            assert_eq!(ext.covering_range().offset, 510);
            assert_eq!(t3.size, 530);
            // The append crosses the recovered 512-byte capacity, which
            // must grow exactly as it would have without the restart.
            assert_eq!(t3.capacity, 1024);
        });
    }

    #[test]
    fn gc_floor_is_min_of_retention_and_oldest_lease() {
        let m = vm();
        run_actors(1, |_, p| {
            for k in 0..6u64 {
                let t = m.ticket(p, &extents(&[(k * 64, 64)])).unwrap();
                m.publish(p, t, root_for(t)).unwrap();
            }
            // KeepAll default: floor stays at 1.
            assert_eq!(m.gc_floor(p).unwrap().floor, VersionId::new(1));
            m.set_retention(p, RetentionPolicy::KeepLast(2)).unwrap();
            assert_eq!(m.gc_floor(p).unwrap().floor, VersionId::new(5));
            // A lease on v3 drags the floor down while live.
            let g = m.lease_acquire(p, VersionId::new(3), 60_000).unwrap();
            let f = m.gc_floor(p).unwrap();
            assert_eq!(f.floor, VersionId::new(3));
            assert_eq!(f.leases_active, 1);
            m.lease_release(p, g.lease).unwrap();
            assert_eq!(m.gc_floor(p).unwrap().floor, VersionId::new(5));
            // Leasing an unpublished or initial version is refused.
            assert!(matches!(
                m.lease_acquire(p, VersionId::new(99), 1_000),
                Err(Error::VersionNotFound { .. })
            ));
            assert!(matches!(
                m.lease_acquire(p, VersionId::INITIAL, 1_000),
                Err(Error::VersionNotFound { .. })
            ));
            // An expired lease renews into a typed error and unpins.
            let g = m.lease_acquire(p, VersionId::new(2), 1).unwrap();
            p.sleep(Duration::from_millis(5));
            assert!(matches!(
                m.lease_renew(p, g.lease, 1_000),
                Err(Error::LeaseExpired { .. })
            ));
            let f = m.gc_floor(p).unwrap();
            assert_eq!(f.floor, VersionId::new(5));
            assert_eq!(f.lease_expirations, 1);
        });
    }

    #[test]
    fn durable_manager_recovers_leases_and_retention() {
        let tmp = atomio_types::tempdir::TempDir::new("atomio-vm");
        let lease_id = {
            let m = durable_vm(tmp.path(), atomio_types::FsyncPolicy::PerPublish);
            run_actors(1, |_, p| {
                for k in 0..3u64 {
                    let t = m.ticket(p, &extents(&[(k * 64, 64)])).unwrap();
                    m.publish(p, t, root_for(t)).unwrap();
                }
                m.set_retention(p, RetentionPolicy::KeepLast(1)).unwrap();
                let g = m.lease_acquire(p, VersionId::new(1), 3_600_000).unwrap();
                let released = m.lease_acquire(p, VersionId::new(2), 3_600_000).unwrap();
                m.lease_release(p, released.lease).unwrap();
                g.lease
            })
            .0[0]
            // Hard drop, no flush (PerPublish synced every record).
        };
        let m = durable_vm(tmp.path(), atomio_types::FsyncPolicy::PerPublish);
        assert_eq!(m.retention(), RetentionPolicy::KeepLast(1));
        run_actors(1, |_, p| {
            // The live lease still pins v1 across the restart.
            let f = m.gc_floor(p).unwrap();
            assert_eq!(f.floor, VersionId::new(1));
            assert_eq!(f.leases_active, 1);
            m.lease_renew(p, lease_id, 3_600_000).unwrap();
            // Fresh grants never reuse a logged id.
            let g = m.lease_acquire(p, VersionId::new(3), 1_000).unwrap();
            assert!(g.lease > lease_id + 1);
            m.lease_release(p, lease_id).unwrap();
            m.lease_release(p, g.lease).unwrap();
            assert_eq!(m.gc_floor(p).unwrap().floor, VersionId::new(3));
        });
    }

    #[test]
    fn a_write_past_the_largest_capacity_is_refused_with_nothing_granted() {
        let m = vm();
        // 2^63 is the largest capacity; one byte more has none.
        let past = extents(&[((1 << 63) - 8, 9)]);
        assert!(matches!(
            m.ticket_local(&past, 0),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            m.ticket_append_local(u64::MAX, 0),
            Err(Error::Unsupported(_))
        ));
        assert_eq!((m.stats().issued, m.history().len()), (0, 0));
        // The largest blob there is, is granted; appending to it is not.
        let (t, _, _) = m.ticket_local(&extents(&[((1 << 63) - 8, 8)]), 0).unwrap();
        assert_eq!((t.capacity, t.size), (1 << 63, 1 << 63));
        assert!(matches!(
            m.ticket_append_local(u64::MAX, 0),
            Err(Error::Unsupported(_))
        ));
        assert_eq!(m.stats().issued, 1);
    }

    #[test]
    fn pipelined_mode_overlaps_builds() {
        let m = Arc::new(vm());
        let (_, total) = run_actors(4, |i, p| {
            let t = m.ticket(p, &extents(&[(i as u64 * 64, 64)])).unwrap();
            p.sleep(Duration::from_millis(1)); // "build"
            m.publish(p, t, root_for(t)).unwrap();
            m.wait_published(p, t.version).unwrap();
        });
        // Builds overlap: well under the serialized 4ms.
        assert!(total < Duration::from_millis(2), "total {total:?}");
    }
}
