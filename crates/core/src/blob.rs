//! The blob handle: the versioning, natively non-contiguous data API.
//!
//! The write path implements the paper's pipeline:
//!
//! 1. **Ticket** — one RPC to the version manager assigns the snapshot
//!    version and records the write summary (so concurrent writers can
//!    link to this write's future metadata).
//! 2. **Data transfer** — the write's leaf-aligned pieces are packed,
//!    in payload order, into fresh immutable chunks of at most one leaf
//!    each, placed by the provider manager. Transfers of concurrent
//!    writers overlap freely: no locks, no waiting.
//! 3. **Metadata build** — a complete copy-on-write tree is constructed
//!    from the write summaries alone (see `atomio-meta`), again with no
//!    coordination.
//! 4. **Publish** — one RPC flips the snapshot visible once all
//!    predecessors are visible; the writer then waits (virtual time) for
//!    its own version, which preserves MPI semantics ("when the call
//!    returns, the data is visible").

use atomio_meta::{LeafEntry, NodeStore, TreeBuilder, TreeConfig, VersionHistory};
use atomio_provider::{GetRequest, ProviderManager};
use atomio_simgrid::{Metrics, Participant};
use atomio_types::ids::IdAllocator;
use atomio_types::RetentionPolicy;
use atomio_types::{BlobId, ByteRange, ChunkGeometry, Error, ExtentList, Result, VersionId};
use atomio_version::{LeaseGrant, SnapshotRecord, VersionOracle};
use bytes::Bytes;
use std::sync::Arc;

/// The client node cache, deleted: a read walks the tree the same way
/// every time (or asks the metadata server to). The type has no values,
/// so [`Blob::node_cache`] always answers `None`. It and that method
/// exist only because the frozen wall-clock benchmark
/// (`wallbench/src/workloads.rs`) reads `node_cache()` and its
/// `stats()`; the next benchmark PR that stops reading them deletes
/// both, with [`crate::StoreConfig::with_meta_cache`].
#[derive(Debug)]
pub enum NodeCache {}

impl NodeCache {
    /// Never called: there is no value to call it on.
    pub fn stats(&self) -> (u64, u64) {
        match *self {}
    }
}

/// Which snapshot a read targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadVersion {
    /// The latest published snapshot at the time the read starts.
    #[default]
    Latest,
    /// A specific published version.
    At(VersionId),
}

#[derive(Debug)]
struct BlobInner {
    id: BlobId,
    geometry: ChunkGeometry,
    providers: Arc<ProviderManager>,
    meta: Arc<dyn NodeStore>,
    history: Arc<VersionHistory>,
    vm: Arc<dyn VersionOracle>,
    chunk_ids: Arc<IdAllocator>,
    config: crate::StoreConfig,
    metrics: Metrics,
}

/// A handle to one blob (shared file). Cheap to clone; all clones see the
/// same state.
#[derive(Debug, Clone)]
pub struct Blob {
    inner: Arc<BlobInner>,
}

impl Blob {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        id: BlobId,
        geometry: ChunkGeometry,
        providers: Arc<ProviderManager>,
        meta: Arc<dyn NodeStore>,
        vm: Arc<dyn VersionOracle>,
        chunk_ids: Arc<IdAllocator>,
        config: crate::StoreConfig,
        metrics: Metrics,
    ) -> Self {
        // The tree builder and `changed_extents` read summaries from the
        // same history the oracle appends grants to — for a remote
        // oracle that is its client-side mirror.
        let history = Arc::clone(vm.history());
        Blob {
            inner: Arc::new(BlobInner {
                id,
                geometry,
                providers,
                meta,
                history,
                vm,
                chunk_ids,
                config,
                metrics,
            }),
        }
    }

    /// The blob's id.
    pub fn id(&self) -> BlobId {
        self.inner.id
    }

    /// The blob's version oracle (exposed for experiments and GC): the
    /// in-process [`atomio_version::VersionManager`] in a Loopback
    /// deployment, a remote proxy when the version manager runs as its
    /// own service.
    pub fn version_manager(&self) -> &Arc<dyn VersionOracle> {
        &self.inner.vm
    }

    /// Striping geometry.
    pub fn geometry(&self) -> ChunkGeometry {
        self.inner.geometry
    }

    /// The latest published snapshot record. Fallible because a remote
    /// version oracle can surface a typed transport error.
    pub fn latest(&self, p: &Participant) -> Result<SnapshotRecord> {
        self.inner.vm.latest(p)
    }

    /// Size of the blob in the given snapshot.
    pub fn size_at(&self, p: &Participant, version: VersionId) -> Result<u64> {
        Ok(self.inner.vm.snapshot(p, version)?.size)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Atomically writes a **non-contiguous** set of regions as one
    /// snapshot: the paper's dedicated storage-backend API (List-I/O
    /// style). `payload` holds the regions' bytes packed in file order
    /// and must be exactly `extents.total_len()` long.
    ///
    /// Returns the snapshot version the write produced, which is
    /// published when the call returns.
    pub fn write_list(
        &self,
        p: &Participant,
        extents: &ExtentList,
        payload: Bytes,
    ) -> Result<VersionId> {
        let inner = &self.inner;
        if extents.is_empty() {
            return Err(Error::EmptyAccess);
        }
        if payload.len() as u64 != extents.total_len() {
            return Err(Error::BufferSizeMismatch {
                expected: extents.total_len(),
                actual: payload.len() as u64,
            });
        }
        // 1. Ticket.
        let ticket = inner.vm.ticket(p, extents)?;
        self.commit_write(p, ticket, extents, payload)
    }

    /// Atomically appends `payload` at the end of the blob. The append
    /// position is assigned atomically with the version number, so
    /// concurrent appenders get disjoint back-to-back regions. Returns
    /// the snapshot version and the offset the data landed at.
    pub fn append(&self, p: &Participant, payload: Bytes) -> Result<(VersionId, u64)> {
        if payload.is_empty() {
            return Err(Error::EmptyAccess);
        }
        let (ticket, extents) = self.inner.vm.ticket_append(p, payload.len() as u64)?;
        let offset = extents.covering_range().offset;
        let version = self.commit_write(p, ticket, &extents, payload)?;
        Ok((version, offset))
    }

    /// The shared ticket-to-publication pipeline (steps 2–4 of the write
    /// path; the ticket came from either `write_list` or `append`).
    fn commit_write(
        &self,
        p: &Participant,
        ticket: atomio_version::Ticket,
        extents: &ExtentList,
        payload: Bytes,
    ) -> Result<VersionId> {
        let inner = &self.inner;
        inner.metrics.counter("core.writes").inc();
        inner
            .metrics
            .counter("core.bytes_written")
            .add(payload.len() as u64);

        let builder = TreeBuilder::new(
            inner.id,
            inner.meta.as_ref(),
            &inner.history,
            TreeConfig::new(inner.geometry.chunk_size()),
        )
        .with_metrics(inner.metrics.clone());

        let attempt = || -> Result<atomio_meta::NodeKey> {
            // 2. Data transfer: the write's leaf-aligned pieces, packed
            //    in payload order into chunks of at most one leaf (see
            //    `pack`), booked as one batch. A chunk is a zero-copy
            //    slice of the payload.
            let transfer_start = p.now();
            let packing = pack(inner.geometry, extents);
            let puts: Vec<(atomio_types::ChunkId, Bytes)> = packing
                .runs
                .iter()
                .map(|run| {
                    let bytes = payload.slice(run.offset as usize..run.end() as usize);
                    (inner.chunk_ids.next_chunk(), bytes)
                })
                .collect();
            inner
                .metrics
                .value_stat("core.transfer_depth")
                .record(puts.len() as u64);
            let homes = inner
                .providers
                .put_batch_replicated(
                    p,
                    &puts,
                    inner.config.replication,
                    inner.config.min_replicas,
                )
                .into_iter()
                .collect::<Result<Vec<_>>>()?;
            let entries: Vec<LeafEntry> = packing
                .pieces
                .iter()
                .map(|&(file_range, run, chunk_offset)| LeafEntry {
                    file_range,
                    chunk: puts[run].0,
                    chunk_offset,
                    homes: homes[run].clone(),
                })
                .collect();
            inner
                .metrics
                .time_stat("core.transfer_time")
                .record(p.now() - transfer_start);

            // 3. Metadata build (no coordination with concurrent
            //    writers).
            let build_start = p.now();
            let root = builder.build_update(p, ticket.version, ticket.capacity, &entries)?;
            inner
                .metrics
                .time_stat("core.meta_build_time")
                .record(p.now() - build_start);
            Ok(root)
        };

        let (root, outcome) = match attempt() {
            Ok(root) => (root, Ok(ticket.version)),
            Err(e) => {
                // The ticket's summary is already visible to concurrent
                // writers, so the version must still materialize — as a
                // tombstone (semantic no-op) — or the publication
                // pipeline and every deterministic link to this version
                // would wedge forever.
                inner.metrics.counter("core.aborted_writes").inc();
                let tombstone =
                    builder.build_tombstone(p, ticket.version, ticket.capacity, extents)?;
                (tombstone, Err(e))
            }
        };

        // 4. Publish and wait for visibility.
        let publish_start = p.now();
        inner.vm.publish(p, ticket, root)?;
        inner.vm.wait_published(p, ticket.version)?;
        inner
            .metrics
            .time_stat("core.publish_wait_time")
            .record(p.now() - publish_start);
        outcome
    }

    /// Atomically writes one contiguous region (convenience wrapper).
    pub fn write(&self, p: &Participant, offset: u64, payload: Bytes) -> Result<VersionId> {
        let extents = ExtentList::single(ByteRange::new(offset, payload.len() as u64));
        self.write_list(p, &extents, payload)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Reads a non-contiguous set of regions from a snapshot, returning
    /// the bytes packed in file order. Never-written bytes inside the
    /// snapshot's size read as zeros; reading beyond the snapshot's size
    /// is an error.
    pub fn read_list(
        &self,
        p: &Participant,
        version: ReadVersion,
        extents: &ExtentList,
    ) -> Result<Vec<u8>> {
        let inner = &self.inner;
        if extents.is_empty() {
            return Err(Error::EmptyAccess);
        }
        let snap = match version {
            ReadVersion::Latest => inner.vm.latest(p)?,
            ReadVersion::At(v) => inner.vm.snapshot(p, v)?,
        };
        if extents.covering_range().end() > snap.size {
            return Err(Error::OutOfBounds {
                requested_end: extents.covering_range().end(),
                snapshot_size: snap.size,
            });
        }
        inner.metrics.counter("core.reads").inc();
        inner
            .metrics
            .counter("core.bytes_read")
            .add(extents.total_len());

        let resolve_start = p.now();
        let pieces = inner.meta.resolve(p, snap.root, extents)?;
        inner
            .metrics
            .time_stat("core.meta_resolve_time")
            .record(p.now() - resolve_start);

        // Materialize into a packed buffer.
        let mut out = vec![0u8; extents.total_len() as usize];
        // Map absolute file offsets to packed-buffer offsets — computed
        // once and reused by both the request-assembly pass and the
        // copy-back pass.
        let offsets: Vec<(ByteRange, u64)> = extents.with_buffer_offsets().collect();
        let dst_of = |file_range: ByteRange| -> usize {
            // Locate the extent containing this piece (pieces never cross
            // extent boundaries because the resolver was given the same
            // extent list).
            let idx = offsets.partition_point(|(r, _)| r.end() <= file_range.offset);
            let (ext_range, buf_off) = offsets[idx];
            debug_assert!(ext_range.contains_range(file_range));
            (buf_off + file_range.offset - ext_range.offset) as usize
        };
        // Assemble the chunk fetches (holes read as zeros and fetch
        // nothing).
        let mut requests: Vec<GetRequest> = Vec::with_capacity(pieces.len());
        let mut targets: Vec<usize> = Vec::with_capacity(pieces.len());
        for piece in &pieces {
            let Some(src) = &piece.source else { continue };
            let dst = dst_of(piece.file_range);
            // Consecutive pieces of one packed chunk that land
            // back to back in the buffer are one fetch.
            if let (Some(last), Some(&last_dst)) = (requests.last_mut(), targets.last()) {
                if last.chunk == src.chunk
                    && last.range.end() == src.chunk_offset
                    && last_dst + last.range.len as usize == dst
                {
                    last.range.len += piece.file_range.len;
                    continue;
                }
            }
            requests.push(GetRequest {
                chunk: src.chunk,
                homes: src.homes.clone(),
                range: ByteRange::new(src.chunk_offset, piece.file_range.len),
            });
            targets.push(dst);
        }
        // `core.transfer_depth` pools both directions' batch sizes (the
        // benchmark reads it); `core.fetch_depth` is the read's own.
        for stat in ["core.transfer_depth", "core.fetch_depth"] {
            inner.metrics.value_stat(stat).record(requests.len() as u64);
        }
        let transfer_start = p.now();
        let results = inner.providers.get_batch_with_failover(p, &requests);
        for (result, &dst) in results.into_iter().zip(&targets) {
            let data = result?;
            out[dst..dst + data.len()].copy_from_slice(&data);
        }
        inner
            .metrics
            .time_stat("core.transfer_time")
            .record(p.now() - transfer_start);
        Ok(out)
    }

    /// Reads the given extents of a specific published version.
    pub fn read_at(
        &self,
        p: &Participant,
        version: VersionId,
        extents: &ExtentList,
    ) -> Result<Vec<u8>> {
        self.read_list(p, ReadVersion::At(version), extents)
    }

    /// Reads one contiguous region of the latest snapshot.
    pub fn read(&self, p: &Participant, offset: u64, len: u64) -> Result<Vec<u8>> {
        self.read_list(
            p,
            ReadVersion::Latest,
            &ExtentList::single(ByteRange::new(offset, len)),
        )
    }

    // ------------------------------------------------------------------
    // Snapshot leases and retention (distributed GC)
    // ------------------------------------------------------------------

    /// Sets this blob's snapshot retention policy — the floor below
    /// which the collector may retire versions (leases can pin the floor
    /// lower still). Durable when the version oracle is.
    pub fn set_retention(&self, p: &Participant, policy: RetentionPolicy) -> Result<()> {
        self.inner.vm.set_retention(p, policy)
    }

    /// Acquires a time-bounded snapshot lease pinning `version` (and
    /// every later snapshot) against collection until the lease expires
    /// or is released. Renew before the TTL lapses to keep reading.
    pub fn lease_acquire(
        &self,
        p: &Participant,
        version: VersionId,
        ttl_ms: u64,
    ) -> Result<LeaseGrant> {
        self.inner.vm.lease_acquire(p, version, ttl_ms)
    }

    /// Acquires a lease on the latest published snapshot.
    pub fn lease_latest(&self, p: &Participant, ttl_ms: u64) -> Result<LeaseGrant> {
        let latest = self.inner.vm.latest(p)?.version;
        self.inner.vm.lease_acquire(p, latest, ttl_ms)
    }

    /// Extends a live lease by `ttl_ms` from now;
    /// [`Error::LeaseExpired`] once it has lapsed.
    pub fn lease_renew(&self, p: &Participant, lease: u64, ttl_ms: u64) -> Result<LeaseGrant> {
        self.inner.vm.lease_renew(p, lease, ttl_ms)
    }

    /// Releases a lease, unpinning its snapshot (idempotent).
    pub fn lease_release(&self, p: &Participant, lease: u64) -> Result<()> {
        self.inner.vm.lease_release(p, lease)
    }

    /// Reads under a snapshot lease: renews the lease (rearming it for
    /// `ttl_ms`), then reads the leased version. A renewal that finds
    /// the lease lapsed — or a read that trips over reclaimed state
    /// because the lease expired mid-flight — surfaces the typed
    /// [`Error::LeaseExpired`] instead of missing-chunk noise or torn
    /// bytes; anything read successfully under a live lease is a
    /// consistent snapshot (chunks and tree nodes are immutable, so the
    /// collector can only remove them, never change them).
    pub fn read_leased(
        &self,
        p: &Participant,
        grant: &LeaseGrant,
        ttl_ms: u64,
        extents: &ExtentList,
    ) -> Result<Vec<u8>> {
        let expired_err = || Error::LeaseExpired {
            lease: grant.lease,
            version: grant.version,
        };
        self.inner
            .vm
            .lease_renew(p, grant.lease, ttl_ms)
            .map_err(|e| match e {
                Error::LeaseExpired { .. } => expired_err(),
                other => other,
            })?;
        match self.read_list(p, ReadVersion::At(grant.version), extents) {
            Err(e @ (Error::ChunkNotFound { .. } | Error::MetadataNodeMissing(_))) => {
                // The snapshot was reclaimed under us: only possible if
                // the lease lapsed after the renewal above. Probe it to
                // report the precise cause.
                match self.inner.vm.lease_renew(p, grant.lease, ttl_ms) {
                    Err(Error::LeaseExpired { .. }) => Err(expired_err()),
                    _ => Err(e),
                }
            }
            other => other,
        }
    }

    /// The set of bytes that changed between two published snapshots
    /// (`from` exclusive, `to` inclusive): the union of the write
    /// summaries of versions `from+1 ..= to`. Computed from metadata
    /// alone — no data is read. Useful for incremental consumers
    /// ("re-render only what moved since the last frame").
    pub fn changed_extents(
        &self,
        p: &Participant,
        from: VersionId,
        to: VersionId,
    ) -> Result<ExtentList> {
        if from > to {
            return Err(Error::Internal(format!(
                "changed_extents range inverted: {from} > {to}"
            )));
        }
        // Both endpoints must be published snapshots.
        let _ = self.inner.vm.snapshot(p, from)?;
        let _ = self.inner.vm.snapshot(p, to)?;
        let mut changed = ExtentList::new();
        let mut v = from.successor();
        while v <= to {
            let summary = self
                .inner
                .history
                .summary(v)
                .ok_or(Error::VersionNotFound {
                    blob: self.inner.id,
                    version: v,
                })?;
            changed = changed.union(&summary.extents);
            v = v.successor();
        }
        Ok(changed)
    }

    // ------------------------------------------------------------------
    // Internals exposed to sibling modules
    // ------------------------------------------------------------------

    pub(crate) fn meta_store(&self) -> &Arc<dyn NodeStore> {
        &self.inner.meta
    }

    pub(crate) fn provider_manager(&self) -> &Arc<ProviderManager> {
        &self.inner.providers
    }

    pub(crate) fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// Always `None` (see [`NodeCache`]).
    pub fn node_cache(&self) -> Option<&NodeCache> {
        None
    }
}

/// A write's leaf-aligned pieces packed into chunks.
#[derive(Debug)]
struct Packing {
    /// The payload range each chunk stores, in payload order.
    runs: Vec<ByteRange>,
    /// Per piece, in payload order: its file range, the index of its
    /// run, and its offset inside that run's chunk.
    pieces: Vec<(ByteRange, usize, u64)>,
}

/// Cuts `extents` into leaf-aligned pieces and packs consecutive pieces,
/// in payload order, into runs of at most one leaf (`chunk_size`) of
/// bytes: a run closes when the next piece would take it past a leaf.
/// Consecutive pieces are consecutive in the payload, so each run is
/// one slice of it; no piece straddles two runs, and a whole-leaf piece
/// is its own run at offset 0.
fn pack(geometry: ChunkGeometry, extents: &ExtentList) -> Packing {
    let mut packing = Packing {
        runs: Vec::new(),
        pieces: Vec::new(),
    };
    for (range, buf_off) in extents.with_buffer_offsets() {
        for span in geometry.split_range(range) {
            let piece = span.absolute;
            let at = buf_off + (piece.offset - range.offset);
            match packing.runs.last_mut() {
                Some(run) if run.len + piece.len <= geometry.chunk_size() => run.len += piece.len,
                _ => packing.runs.push(ByteRange::new(at, piece.len)),
            }
            let run = packing.runs.len() - 1;
            packing
                .pieces
                .push((piece, run, at - packing.runs[run].offset));
        }
    }
    packing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Store, StoreConfig};
    use atomio_simgrid::clock::run_actors;
    use atomio_types::stamp::WriteStamp;
    use atomio_types::ClientId;

    fn store() -> Store {
        Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(64)
                .with_data_providers(4)
                .with_meta_shards(2),
        )
    }

    #[test]
    fn contiguous_roundtrip() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let v = blob.write(p, 10, Bytes::from_static(b"hello")).unwrap();
            assert_eq!(v, VersionId::new(1));
            assert_eq!(blob.read(p, 10, 5).unwrap(), b"hello");
            // Unwritten prefix reads as zeros.
            assert_eq!(blob.read(p, 0, 3).unwrap(), [0, 0, 0]);
        });
    }

    #[test]
    fn noncontiguous_roundtrip_with_holes() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let extents = ExtentList::from_pairs([(0u64, 4u64), (100, 4), (300, 4)]);
            let payload = Bytes::from_static(b"aaaabbbbcccc");
            blob.write_list(p, &extents, payload).unwrap();
            assert_eq!(blob.read(p, 0, 4).unwrap(), b"aaaa");
            assert_eq!(blob.read(p, 100, 4).unwrap(), b"bbbb");
            assert_eq!(blob.read(p, 300, 4).unwrap(), b"cccc");
            // The gap is zeros.
            assert_eq!(blob.read(p, 4, 8).unwrap(), [0u8; 8]);
            // And a vectored read packs in file order.
            let got = blob.read_list(p, ReadVersion::Latest, &extents).unwrap();
            assert_eq!(got, b"aaaabbbbcccc");
        });
    }

    #[test]
    fn payload_size_must_match() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let extents = ExtentList::from_pairs([(0u64, 4u64)]);
            let err = blob
                .write_list(p, &extents, Bytes::from_static(b"toolong"))
                .unwrap_err();
            assert_eq!(
                err,
                Error::BufferSizeMismatch {
                    expected: 4,
                    actual: 7
                }
            );
            assert_eq!(
                blob.write_list(p, &ExtentList::new(), Bytes::new())
                    .unwrap_err(),
                Error::EmptyAccess
            );
        });
    }

    #[test]
    fn reads_are_versioned() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let v1 = blob.write(p, 0, Bytes::from_static(b"1111")).unwrap();
            let v2 = blob.write(p, 0, Bytes::from_static(b"2222")).unwrap();
            let ext = ExtentList::from_pairs([(0u64, 4u64)]);
            assert_eq!(blob.read_at(p, v1, &ext).unwrap(), b"1111");
            assert_eq!(blob.read_at(p, v2, &ext).unwrap(), b"2222");
            assert_eq!(
                blob.read_list(p, ReadVersion::Latest, &ext).unwrap(),
                b"2222"
            );
            // Version 0 is the empty snapshot: reading beyond size fails.
            assert!(matches!(
                blob.read_at(p, VersionId::INITIAL, &ext),
                Err(Error::OutOfBounds { .. })
            ));
        });
    }

    #[test]
    fn read_beyond_size_rejected() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from_static(b"abcd")).unwrap();
            let err = blob.read(p, 2, 10).unwrap_err();
            assert_eq!(
                err,
                Error::OutOfBounds {
                    requested_end: 12,
                    snapshot_size: 4
                }
            );
        });
    }

    #[test]
    fn overlapping_atomic_writes_serialize_by_version() {
        let s = store();
        let blob = s.create_blob();
        // Two writers race on overlapping non-contiguous extents; each
        // writer's bytes carry its stamp. The final state must equal
        // replaying the writes in version order.
        let exts = [
            ExtentList::from_pairs([(0u64, 96u64), (128, 96)]),
            ExtentList::from_pairs([(64u64, 96u64), (192, 96)]),
        ];
        let stamps = [
            WriteStamp::new(ClientId::new(0), 0),
            WriteStamp::new(ClientId::new(1), 0),
        ];
        let exts_ref = &exts;
        let stamps_ref = &stamps;
        let blob_ref = &blob;
        let (versions, _) = run_actors(2, move |i, p| {
            let payload = Bytes::from(stamps_ref[i].payload_for(&exts_ref[i]));
            blob_ref.write_list(p, &exts_ref[i], payload).unwrap()
        });
        run_actors(1, |_, p| {
            // Replay model in version order.
            let mut model = vec![0u8; 288];
            let mut order: Vec<usize> = vec![0, 1];
            order.sort_by_key(|&i| versions[i]);
            for &i in &order {
                for (r, _) in exts[i].with_buffer_offsets() {
                    let mut buf = vec![0u8; r.len as usize];
                    stamps[i].fill_range(r.offset, &mut buf);
                    model[r.offset as usize..r.end() as usize].copy_from_slice(&buf);
                }
            }
            let got = blob.read(p, 0, 288).unwrap();
            assert_eq!(got, model, "final state must be a serial replay");
        });
    }

    #[test]
    fn many_concurrent_writers_roundtrip() {
        let s = store();
        let blob = s.create_blob();
        let n = 8usize;
        let blob_ref = &blob;
        let (results, _) = run_actors(n, move |i, p| {
            let stamp = WriteStamp::new(ClientId::new(i as u64), 0);
            // Interleaved strided extents: writer i owns stripes i, i+n, ...
            let ext =
                ExtentList::from_pairs((0..4u64).map(|k| ((i as u64 + k * n as u64) * 32, 32u64)));
            let payload = Bytes::from(stamp.payload_for(&ext));
            let v = blob_ref.write_list(p, &ext, payload).unwrap();
            // Read own data back at own version.
            let got = blob_ref.read_at(p, v, &ext).unwrap();
            assert_eq!(got, stamp.payload_for(&ext), "writer {i} readback");
            v
        });
        // All versions distinct and dense.
        let mut vs: Vec<u64> = results.iter().map(|v| v.raw()).collect();
        vs.sort_unstable();
        assert_eq!(vs, (1..=n as u64).collect::<Vec<_>>());
    }

    use atomio_meta::{MetaStore, Node, NodeKey};

    /// A [`MetaStore`] that records the keys of every `get_batch`.
    #[derive(Debug)]
    struct RecordingMeta {
        inner: MetaStore,
        gets: parking_lot::Mutex<Vec<Vec<NodeKey>>>,
    }

    impl NodeStore for RecordingMeta {
        fn put_batch(&self, p: &Participant, nodes: Vec<Node>) -> Vec<Result<()>> {
            self.inner.put_batch(p, nodes)
        }

        fn get_batch(&self, p: &Participant, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>> {
            self.gets.lock().push(keys.to_vec());
            self.inner.get_batch(p, keys)
        }

        fn contains(&self, key: NodeKey) -> bool {
            self.inner.contains(key)
        }

        fn evict_batch(&self, keys: &[NodeKey]) -> u64 {
            self.inner.evict_batch(keys)
        }

        fn list_keys(&self) -> Vec<NodeKey> {
            self.inner.list_keys()
        }
    }

    #[test]
    fn a_second_read_of_a_snapshot_walks_the_tree_again() {
        use atomio_simgrid::CostModel;
        let meta = Arc::new(RecordingMeta {
            inner: MetaStore::new(2, CostModel::zero()),
            gets: Default::default(),
        });
        let providers = ProviderManager::new(4, CostModel::zero(), Default::default());
        let s = Store::with_substrates(
            StoreConfig::default().with_zero_cost().with_chunk_size(64),
            Arc::new(providers),
            Arc::clone(&meta) as Arc<dyn NodeStore>,
        );
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from(vec![1u8; 1024])).unwrap();
            meta.gets.lock().clear();
            let ext = ExtentList::from_pairs([(0u64, 1024u64)]);
            let reads: Vec<_> = (0..2)
                .map(|_| {
                    blob.read_list(p, ReadVersion::Latest, &ext).unwrap();
                    std::mem::take(&mut *meta.gets.lock())
                })
                .collect();
            // 16 leaves under a root: one batch per level.
            assert_eq!(reads[0].len(), 5);
            assert_eq!(reads[0], reads[1]);
        });
    }

    #[test]
    fn changed_extents_unions_summaries() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let v1 = blob.write(p, 0, Bytes::from(vec![1u8; 100])).unwrap();
            let v2 = blob.write(p, 200, Bytes::from(vec![2u8; 50])).unwrap();
            let v3 = blob.write(p, 90, Bytes::from(vec![3u8; 20])).unwrap();
            // Everything since the beginning.
            let all = blob.changed_extents(p, VersionId::INITIAL, v3).unwrap();
            assert_eq!(all, ExtentList::from_pairs([(0u64, 110u64), (200, 50)]));
            // Incremental: only v3's footprint.
            let inc = blob.changed_extents(p, v2, v3).unwrap();
            assert_eq!(inc, ExtentList::from_pairs([(90u64, 20u64)]));
            // Empty interval.
            assert!(blob.changed_extents(p, v2, v2).unwrap().is_empty());
            // Inverted and unpublished intervals error.
            assert!(blob.changed_extents(p, v3, v1).is_err());
            assert!(blob
                .changed_extents(p, VersionId::INITIAL, VersionId::new(99))
                .is_err());
        });
    }

    #[test]
    fn append_returns_version_and_offset() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let (v1, o1) = blob.append(p, Bytes::from_static(b"alpha")).unwrap();
            let (v2, o2) = blob.append(p, Bytes::from_static(b"beta")).unwrap();
            assert_eq!((v1.raw(), o1), (1, 0));
            assert_eq!((v2.raw(), o2), (2, 5));
            assert_eq!(blob.read(p, 0, 9).unwrap(), b"alphabeta");
            assert!(matches!(
                blob.append(p, Bytes::new()),
                Err(Error::EmptyAccess)
            ));
        });
    }

    #[test]
    fn concurrent_appends_never_overlap() {
        let s = store();
        let blob = s.create_blob();
        let blob_ref = &blob;
        let (results, _) = run_actors(8, move |i, p| {
            let payload = vec![i as u8 + 1; 50];
            blob_ref.append(p, Bytes::from(payload)).unwrap()
        });
        let mut offsets: Vec<u64> = results.iter().map(|&(_, o)| o).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, (0..8u64).map(|i| i * 50).collect::<Vec<_>>());
        // Each append's region holds exactly its writer's fill byte.
        run_actors(1, |_, p| {
            for &(v, o) in &results {
                let _ = v;
                let got = blob.read(p, o, 50).unwrap();
                assert!(got.iter().all(|&b| b == got[0]) && got[0] != 0);
            }
        });
    }

    #[test]
    fn metrics_are_recorded() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from_static(b"xyz")).unwrap();
            blob.read(p, 0, 3).unwrap();
        });
        assert_eq!(s.metrics().counter("core.writes").get(), 1);
        assert_eq!(s.metrics().counter("core.bytes_written").get(), 3);
        assert_eq!(s.metrics().counter("core.reads").get(), 1);
        assert_eq!(s.metrics().counter("core.bytes_read").get(), 3);
    }

    #[test]
    fn replication_masks_provider_failure() {
        let s = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(64)
                .with_data_providers(3)
                .with_replication(2, 2),
        );
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from_static(b"safe")).unwrap();
            // Kill every provider holding the primary replica one at a
            // time; as long as one replica survives, reads succeed.
            s.faults().fail_provider(atomio_types::ProviderId::new(0));
            let got = blob.read(p, 0, 4).unwrap();
            assert_eq!(got, b"safe");
        });
    }

    #[test]
    fn pack_fills_leaf_sized_chunks_and_reassembles_the_payload() {
        const LEAF: u64 = 64;
        let g = ChunkGeometry::new(LEAF);
        let cases = [
            // Sub-leaf pieces, a whole leaf between partial ones, a run
            // that ends mid-leaf, a piece longer than the rest of a run.
            ExtentList::from_pairs([
                (10u64, 20u64),
                (40, 30),
                (128, 64),
                (200, 5),
                (256, 128),
                (400, 100),
            ]),
            // Tile-like rows: 16 B every 40 B, some straddling a leaf.
            ExtentList::from_ranges((0..50u64).map(|i| ByteRange::new(i * 40, 16))),
            // One contiguous range: partial, whole leaves, partial.
            ExtentList::single(ByteRange::new(3, 1000)),
        ];
        for extents in &cases {
            let payload: Vec<u8> = (0..extents.total_len())
                .map(|i| (i * 7 % 251) as u8)
                .collect();
            let packing = pack(g, extents);
            // The runs tile the payload in order, each at most one leaf.
            let mut at = 0;
            for run in &packing.runs {
                assert_eq!(run.offset, at);
                assert!((1..=LEAF).contains(&run.len), "run {run:?}");
                at = run.end();
            }
            assert_eq!(at, extents.total_len());
            let end = extents.covering_range().end() as usize;
            let mut expected = vec![0u8; end];
            for (r, off) in extents.with_buffer_offsets() {
                expected[r.offset as usize..r.end() as usize]
                    .copy_from_slice(&payload[off as usize..(off + r.len) as usize]);
            }
            let mut got = vec![0u8; end];
            let mut first_of_run = vec![None; packing.runs.len()];
            for &(piece, run, off) in &packing.pieces {
                let chunk = packing.runs[run];
                assert!(off + piece.len <= chunk.len, "{piece:?} straddles");
                assert_eq!(g.chunk_index(piece.offset), g.chunk_index(piece.end() - 1));
                if piece.len == LEAF {
                    assert_eq!((off, chunk.len), (0, LEAF), "a whole leaf is its own chunk");
                }
                first_of_run[run].get_or_insert(piece.len);
                let bytes = &payload[chunk.offset as usize..chunk.end() as usize];
                got[piece.offset as usize..piece.end() as usize]
                    .copy_from_slice(&bytes[off as usize..(off + piece.len) as usize]);
            }
            assert_eq!(got, expected);
            // A run closes only when the next piece would overflow it.
            for (run, next) in packing.runs.iter().zip(&first_of_run[1..]) {
                assert!(run.len + next.unwrap() > LEAF, "{run:?} closed early");
            }
        }
    }
}
