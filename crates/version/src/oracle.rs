//! The version-oracle seam: one trait covering the ticket-grant,
//! publication, and snapshot-lookup surface of the version manager, so
//! the blob write path works identically against the in-process
//! [`VersionManager`](crate::VersionManager) and a server-hosted remote
//! proxy.
//!
//! Every method is fallible: over a real transport any of these calls
//! can surface a typed [`atomio_types::Error::Transport`], and the
//! in-process implementation simply never produces one. This is the
//! contract `Blob::commit_write` is written against — the third
//! independently deployable service plugs in here.
//!
//! The trait is also the *only* participant-taking spelling of these
//! calls. `VersionManager`'s own methods are the participant-free state
//! machine; its impl of this trait (in [`crate::manager`], beside the
//! state it charges for) adds the simulated cost of an in-process call,
//! and the remote proxy's impl holds the RPC bodies.

use crate::lease::LeaseGrant;
use crate::manager::{GcFloor, SnapshotRecord, Ticket};
use atomio_meta::{NodeKey, VersionHistory};
use atomio_simgrid::Participant;
use atomio_types::{ExtentList, Result, RetentionPolicy, VersionId};
use std::sync::Arc;

/// The version-manager surface the blob write/read path depends on.
///
/// Implementations: [`VersionManager`](crate::VersionManager)
/// (in-process, the Loopback deployment) and
/// `atomio_rpc::RemoteVersionManager` (a proxy speaking the wire
/// protocol to an `atomio-version-server`).
pub trait VersionOracle: Send + Sync + std::fmt::Debug {
    /// The write-summary history the metadata builder reads. For a
    /// remote oracle this is the client-side mirror fed by grant deltas.
    fn history(&self) -> &Arc<VersionHistory>;

    /// Issues a write ticket for explicit extents and records the write
    /// summary in [`Self::history`] before returning.
    fn ticket(&self, p: &Participant, extents: &ExtentList) -> Result<Ticket>;

    /// Issues an append ticket for `len` bytes at end-of-blob; returns
    /// the ticket and the atomically-assigned extents.
    fn ticket_append(&self, p: &Participant, len: u64) -> Result<(Ticket, ExtentList)>;

    /// Reports the completed tree build of `ticket`'s version. Does not
    /// wait for visibility (see [`Self::wait_published`]).
    fn publish(&self, p: &Participant, ticket: Ticket, root: NodeKey) -> Result<()>;

    /// True once `version` is visible to readers.
    fn is_published(&self, version: VersionId) -> Result<bool>;

    /// Blocks until `version` is visible.
    fn wait_published(&self, p: &Participant, version: VersionId) -> Result<()>;

    /// The latest published snapshot (the empty initial snapshot if no
    /// write has published yet).
    fn latest(&self, p: &Participant) -> Result<SnapshotRecord>;

    /// Looks up a specific published snapshot.
    fn snapshot(&self, p: &Participant, version: VersionId) -> Result<SnapshotRecord>;

    /// Sets the blob's retention policy (how much history the collector
    /// must preserve regardless of leases).
    fn set_retention(&self, p: &Participant, policy: RetentionPolicy) -> Result<()>;

    /// Acquires a time-bounded snapshot lease pinning `version` (and
    /// everything at or above it) against collection.
    fn lease_acquire(&self, p: &Participant, version: VersionId, ttl_ms: u64)
        -> Result<LeaseGrant>;

    /// Extends a live lease; [`atomio_types::Error::LeaseExpired`] once
    /// it has lapsed.
    fn lease_renew(&self, p: &Participant, lease: u64, ttl_ms: u64) -> Result<LeaseGrant>;

    /// Releases a lease (idempotent).
    fn lease_release(&self, p: &Participant, lease: u64) -> Result<()>;

    /// The reclamation floor: `min(retention floor, oldest live
    /// lease)`.
    fn gc_floor(&self, p: &Participant) -> Result<GcFloor>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VersionManager;
    use atomio_meta::TreeConfig;
    use atomio_simgrid::clock::run_actors;
    use atomio_simgrid::CostModel;
    use atomio_types::ByteRange;

    #[test]
    fn in_process_manager_satisfies_the_oracle_contract() {
        let vm: Arc<dyn VersionOracle> = Arc::new(VersionManager::new(
            Arc::new(VersionHistory::new()),
            TreeConfig::new(64),
            CostModel::zero(),
            crate::TicketMode::Pipelined,
        ));
        run_actors(1, |_, p| {
            let extents = ExtentList::single(ByteRange::new(0, 64));
            let ticket = vm.ticket(p, &extents).unwrap();
            assert_eq!(ticket.version, VersionId::new(1));
            assert_eq!(vm.history().len(), 1);
            assert!(!vm.is_published(ticket.version).unwrap());
            let root = NodeKey::new(
                atomio_types::BlobId::new(0),
                ticket.version,
                ByteRange::new(0, ticket.capacity),
            );
            vm.publish(p, ticket, root).unwrap();
            vm.wait_published(p, ticket.version).unwrap();
            assert_eq!(vm.latest(p).unwrap().root, Some(root));
            assert_eq!(vm.snapshot(p, ticket.version).unwrap().size, 64);
            let (t2, ext2) = vm.ticket_append(p, 10).unwrap();
            assert_eq!(ext2.covering_range().offset, 64);
            assert_eq!(t2.version, VersionId::new(2));
        });
    }
}
