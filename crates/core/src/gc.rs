//! Distributed lease-based version garbage collection.
//!
//! Versioning never overwrites data, so space grows with every write.
//! The collector reclaims snapshots below a **reclamation floor** while
//! preserving everything reachable from the retained snapshots — shared
//! subtrees and backlink chains keep old chunks alive exactly as long
//! as a live snapshot can still read them.
//!
//! The floor is the minimum of two constraints:
//!
//! 1. **Retention policy** ([`atomio_types::RetentionPolicy`], stored
//!    and durably logged at the version manager): how much history the
//!    blob keeps regardless of readers.
//! 2. **Oldest live lease** ([`atomio_version::LeaseManager`]): an
//!    in-flight reader acquires a time-bounded snapshot lease; its
//!    version — and everything above it — is pinned until the lease is
//!    released or expires. A crashed reader unpins automatically at
//!    expiry; nothing blocks on it.
//!
//! Both are computed server-side by
//! [`VersionOracle::gc_floor`](atomio_version::VersionOracle::gc_floor).
//!
//! **Why collection can run concurrently with live writers.** A pass
//! first marks everything reachable from versions `>= floor` (where
//! `floor <= latest` as of the pass start), then sweeps only state that
//! is reachable *exclusively* from versions `< floor`. A concurrent
//! writer's new tree links only to nodes of snapshots `>= latest` at
//! its ticket time — never below the floor — and chunks and tree nodes
//! are immutable, so the sweep can race arbitrarily with writes and
//! reads of retained snapshots without synchronization: it only ever
//! deletes state no retained or future snapshot can reach.
//!
//! (The paper defers GC to future work; this subsystem is the obvious
//! next step once versions, leases, and retention are first-class.)

use crate::blob::Blob;
use atomio_meta::reach;
use atomio_simgrid::Participant;
use atomio_types::{ChunkId, Error, ProviderId, Result, VersionId};
use std::collections::{HashMap, HashSet};

/// Outcome of one collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Versions whose exclusive state was reclaimed.
    pub versions_retired: u64,
    /// Metadata nodes evicted.
    pub nodes_evicted: u64,
    /// Chunk evictions issued (counting each replica once per provider).
    pub chunks_evicted: u64,
    /// Payload bytes reclaimed across all providers.
    pub bytes_reclaimed: u64,
}

impl GcReport {
    fn absorb(&mut self, other: GcReport) {
        self.versions_retired += other.versions_retired;
        self.nodes_evicted += other.nodes_evicted;
        self.chunks_evicted += other.chunks_evicted;
        self.bytes_reclaimed += other.bytes_reclaimed;
    }
}

/// Retires every published version **strictly below** `keep_from`,
/// keeping all state reachable from versions `>= keep_from`.
///
/// Retired versions become unreadable ([`atomio_types::Error::MetadataNodeMissing`]);
/// retained versions are untouched. One-shot: walking an
/// already-retired version again would trip over its evicted nodes, so
/// repeated collection must go through [`GcCoordinator`], which tracks
/// the swept cursor.
pub fn collect_below(p: &Participant, blob: &Blob, keep_from: VersionId) -> Result<GcReport> {
    collect_range(p, blob, VersionId::new(1), keep_from)
}

/// The shared mark-and-sweep: retires versions in `[from, keep_from)`,
/// marking from `keep_from..=latest`. Versions below `from` are assumed
/// already retired (their nodes are gone and are not walked). The mark
/// set being a superset of every later pass's retained set is what
/// makes capped incremental passes safe: state shared with a
/// not-yet-swept version `>= keep_from` stays alive until the cursor
/// passes it.
fn collect_range(
    p: &Participant,
    blob: &Blob,
    from: VersionId,
    keep_from: VersionId,
) -> Result<GcReport> {
    let vm = blob.version_manager();
    let latest = vm.latest(p)?.version;
    let keep_from = keep_from.min(latest); // never retire the latest snapshot
    let meta = blob.meta_store().as_ref();

    let mut report = GcReport::default();
    if from >= keep_from {
        return Ok(report);
    }

    // Mark: one walk from every retained root.
    let mut roots = Vec::new();
    let mut v = keep_from;
    while v <= latest {
        roots.extend(vm.snapshot(p, v)?.root);
        v = v.successor();
    }
    let live = reach(meta, p, &roots, &HashSet::new())?;

    // Sweep: one walk per retired snapshot. It stops at live keys (all
    // below them is live) and at keys an earlier walk of this pass
    // swept, so each dead node is fetched once.
    let mut skip = live.nodes;
    let mut dead_nodes = Vec::new();
    let mut dead_chunks: HashMap<ChunkId, Vec<ProviderId>> = HashMap::new();
    let mut v = from;
    while v < keep_from {
        let root = vm.snapshot(p, v)?.root;
        v = v.successor();
        // A missing node below this snapshot means an earlier collector
        // (this one or a predecessor before a restart) already swept it:
        // skip rather than fail, making collection idempotent. Whatever
        // such a version shared with a retained snapshot is in the mark
        // set regardless, so skipping never strands live state.
        let swept = match reach(meta, p, root.as_slice(), &skip) {
            Ok(swept) => swept,
            Err(Error::MetadataNodeMissing(_)) => continue,
            Err(e) => return Err(e),
        };
        for (chunk, homes) in swept.chunks {
            if !live.chunks.contains_key(&chunk) {
                dead_chunks.insert(chunk, homes);
            }
        }
        dead_nodes.extend(&swept.nodes);
        skip.extend(swept.nodes);
        report.versions_retired += 1;
    }
    report.nodes_evicted = blob.meta_store().evict_batch(&dead_nodes);
    // Evicted nodes must not be resurrected from the client cache.
    if report.nodes_evicted > 0 {
        if let Some(cache) = blob.node_cache() {
            cache.clear();
        }
    }
    // Group evictions per provider and issue one batch each — a single
    // RPC per provider in a remote deployment.
    let mut per_provider: HashMap<ProviderId, Vec<ChunkId>> = HashMap::new();
    for (chunk, homes) in dead_chunks {
        for home in homes {
            per_provider.entry(home).or_default().push(chunk);
        }
    }
    for (home, chunks) in per_provider {
        let provider = blob.provider_manager().provider(home)?;
        report.bytes_reclaimed += provider.evict_chunk_batch(&chunks);
        report.chunks_evicted += chunks.len() as u64;
    }
    Ok(report)
}

/// Outcome of one [`GcCoordinator`] pass: the reclamation totals plus
/// the floor inputs the pass observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcPassReport {
    /// What the pass reclaimed.
    pub report: GcReport,
    /// The reclamation floor the pass collected up to (after the
    /// per-pass cap).
    pub swept_below: VersionId,
    /// Live leases at the version manager when the floor was computed.
    pub leases_active: u64,
    /// Leases that lapsed without release, cumulative at the manager.
    pub lease_expirations: u64,
}

/// The reclamation driver: runs incremental collection passes
/// concurrently with live writers and readers.
///
/// Each pass asks the version oracle for the current floor
/// (`min(retention, oldest live lease)`), caps the work at
/// [`GcCoordinator::with_pass_cap`] versions, and collects from its
/// persistent cursor up to the capped floor. The cursor guarantees no
/// version is walked twice, so passes can run back-to-back or on a
/// timer, interleaved freely with writes.
///
/// Records `gc.*` metrics on the store's registry: pass counts and
/// timing, versions/nodes/chunks/bytes reclaimed, live-lease gauge and
/// expiration counter.
#[derive(Debug)]
pub struct GcCoordinator {
    blob: Blob,
    /// Everything strictly below this version is already reclaimed.
    swept_below: VersionId,
    /// Max versions retired per pass (work cap).
    pass_cap: u64,
    /// Manager-side cumulative expiration count at the last pass, so the
    /// metrics counter advances by deltas.
    seen_expirations: u64,
}

impl GcCoordinator {
    /// Default per-pass work cap, in versions retired.
    pub const DEFAULT_PASS_CAP: u64 = 64;

    /// Creates a coordinator for `blob` with the default pass cap.
    /// Nothing runs until [`GcCoordinator::run_pass`] is called.
    pub fn new(blob: Blob) -> Self {
        GcCoordinator {
            blob,
            swept_below: VersionId::new(1),
            pass_cap: Self::DEFAULT_PASS_CAP,
            seen_expirations: 0,
        }
    }

    /// Sets the per-pass work cap (versions retired per pass; min 1).
    pub fn with_pass_cap(mut self, cap: u64) -> Self {
        self.pass_cap = cap.max(1);
        self
    }

    /// The cursor: every version strictly below it has been reclaimed.
    pub fn swept_below(&self) -> VersionId {
        self.swept_below
    }

    /// Runs one collection pass. Returns the pass report; a pass that
    /// finds the floor at or below the cursor is a cheap no-op (one
    /// floor RPC, no tree traffic).
    pub fn run_pass(&mut self, p: &Participant) -> Result<GcPassReport> {
        let blob = self.blob.clone();
        let metrics = blob.metrics().clone();
        let start = p.now();
        let info = blob.version_manager().gc_floor(p)?;
        // Work cap: retire at most `pass_cap` versions this pass.
        let target = info.floor.min(VersionId::new(
            self.swept_below.raw().saturating_add(self.pass_cap),
        ));
        // The oracle's floor is never above its latest, so the capped
        // target is exactly what collect_range sweeps.
        let report = if target > self.swept_below {
            let r = collect_range(p, &blob, self.swept_below, target)?;
            self.swept_below = target;
            r
        } else {
            GcReport::default()
        };

        metrics.counter("gc.passes").inc();
        metrics
            .counter("gc.versions_retired")
            .add(report.versions_retired);
        metrics
            .counter("gc.nodes_evicted")
            .add(report.nodes_evicted);
        metrics
            .counter("gc.chunks_evicted")
            .add(report.chunks_evicted);
        metrics
            .counter("gc.bytes_reclaimed")
            .add(report.bytes_reclaimed);
        metrics.time_stat("gc.pass_time").record(p.now() - start);
        metrics
            .value_stat("gc.leases_active")
            .record(info.leases_active);
        metrics
            .counter("gc.lease_expirations")
            .add(info.lease_expirations.saturating_sub(self.seen_expirations));
        self.seen_expirations = self.seen_expirations.max(info.lease_expirations);

        Ok(GcPassReport {
            report,
            swept_below: self.swept_below,
            leases_active: info.leases_active,
            lease_expirations: info.lease_expirations,
        })
    }

    /// Runs passes until the floor stops moving (each pass retires at
    /// most the cap): the stop-the-world ablation arm, and a
    /// convenience for tests. Returns the merged totals.
    pub fn run_to_floor(&mut self, p: &Participant) -> Result<GcPassReport> {
        let mut merged = self.run_pass(p)?;
        loop {
            let pass = self.run_pass(p)?;
            if pass.report.versions_retired == 0 {
                merged.swept_below = pass.swept_below;
                merged.leases_active = pass.leases_active;
                merged.lease_expirations = pass.lease_expirations;
                return Ok(merged);
            }
            merged.report.absorb(pass.report);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Store, StoreConfig};
    use atomio_simgrid::clock::run_actors;
    use atomio_types::{BackendConfig, Error, ExtentList, RetentionPolicy};
    use bytes::Bytes;

    fn store() -> Store {
        Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(64)
                .with_data_providers(4),
        )
    }

    #[test]
    fn gc_reclaims_fully_overwritten_versions() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            // v1 and v2 fully overwrite the same leaf-aligned region.
            blob.write(p, 0, Bytes::from(vec![1u8; 128])).unwrap();
            blob.write(p, 0, Bytes::from(vec![2u8; 128])).unwrap();
            let before_bytes: u64 = s
                .providers()
                .providers()
                .iter()
                .map(|pr| pr.bytes_stored())
                .sum();
            assert_eq!(before_bytes, 256);

            let report = collect_below(p, &blob, VersionId::new(2)).unwrap();
            assert_eq!(report.versions_retired, 1);
            assert_eq!(report.bytes_reclaimed, 128);
            assert!(report.nodes_evicted > 0);

            // Latest still reads fine.
            assert_eq!(blob.read(p, 0, 128).unwrap(), vec![2u8; 128]);
            // Retired version is gone.
            let err = blob
                .read_at(
                    p,
                    VersionId::new(1),
                    &ExtentList::from_pairs([(0u64, 128u64)]),
                )
                .unwrap_err();
            assert!(matches!(err, Error::MetadataNodeMissing(_)));
        });
    }

    #[test]
    fn gc_preserves_shared_state() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            // v1 writes two leaves; v2 overwrites only the first.
            blob.write(p, 0, Bytes::from(vec![1u8; 128])).unwrap();
            blob.write(p, 0, Bytes::from(vec![2u8; 64])).unwrap();
            let report = collect_below(p, &blob, VersionId::new(2)).unwrap();
            // v1's second-leaf chunk is shared with v2 and must survive.
            assert_eq!(report.bytes_reclaimed, 64);
            let got = blob.read(p, 0, 128).unwrap();
            assert_eq!(&got[..64], &[2u8; 64][..]);
            assert_eq!(&got[64..], &[1u8; 64][..]);
        });
    }

    #[test]
    fn gc_preserves_backlinked_partial_leaves() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            // v1 writes a whole leaf; v2 overwrites only 16 bytes of it.
            blob.write(p, 0, Bytes::from(vec![1u8; 64])).unwrap();
            blob.write(p, 8, Bytes::from(vec![2u8; 16])).unwrap();
            let report = collect_below(p, &blob, VersionId::new(2)).unwrap();
            // v2's leaf backlinks into v1's leaf: nothing reclaimable.
            assert_eq!(report.bytes_reclaimed, 0);
            let got = blob.read(p, 0, 64).unwrap();
            assert_eq!(&got[..8], &[1u8; 8][..]);
            assert_eq!(&got[8..24], &[2u8; 16][..]);
            assert_eq!(&got[24..], &[1u8; 40][..]);
        });
    }

    #[test]
    fn gc_never_retires_latest() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            blob.write(p, 0, Bytes::from(vec![1u8; 64])).unwrap();
            // Ask to retire everything below v99: clamped to latest (v1).
            let report = collect_below(p, &blob, VersionId::new(99)).unwrap();
            assert_eq!(report.versions_retired, 0);
            assert_eq!(blob.read(p, 0, 64).unwrap(), vec![1u8; 64]);
        });
    }

    #[test]
    fn gc_on_empty_blob_is_noop() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let report = collect_below(p, &blob, VersionId::new(5)).unwrap();
            assert_eq!(report, GcReport::default());
        });
    }

    #[test]
    fn coordinator_honors_retention_leases_and_pass_cap() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let mut gc = GcCoordinator::new(blob.clone()).with_pass_cap(2);
            blob.set_retention(p, RetentionPolicy::KeepLast(2)).unwrap();
            for k in 0..6u64 {
                blob.write(p, 0, Bytes::from(vec![k as u8 + 1; 64]))
                    .unwrap();
            }
            // A lease on v2 pins the floor below the retention cutoff.
            let grant = blob.lease_acquire(p, VersionId::new(2), 60_000).unwrap();
            let pass = gc.run_pass(p).unwrap();
            assert_eq!(pass.report.versions_retired, 1, "only v1 reclaimable");
            assert_eq!(pass.leases_active, 1);
            assert_eq!(gc.swept_below(), VersionId::new(2));
            // The leased snapshot still reads.
            let ext = ExtentList::from_pairs([(0u64, 64u64)]);
            assert_eq!(
                blob.read_leased(p, &grant, 60_000, &ext).unwrap(),
                vec![2u8; 64]
            );

            // Release: the floor jumps to KeepLast(2) = v5, but the pass
            // cap (2) limits each pass.
            blob.lease_release(p, grant.lease).unwrap();
            let pass = gc.run_pass(p).unwrap();
            assert_eq!(pass.report.versions_retired, 2, "capped at 2 per pass");
            assert_eq!(gc.swept_below(), VersionId::new(4));
            let pass = gc.run_pass(p).unwrap();
            assert_eq!(pass.report.versions_retired, 1, "v4; floor reached");
            assert_eq!(gc.swept_below(), VersionId::new(5));
            // Retained tail reads fine.
            assert_eq!(blob.read(p, 0, 64).unwrap(), vec![6u8; 64]);
            assert_eq!(
                blob.read_at(p, VersionId::new(5), &ext).unwrap(),
                vec![5u8; 64]
            );
        });
        assert_eq!(s.metrics().counter("gc.versions_retired").get(), 4);
        assert_eq!(s.metrics().counter("gc.passes").get(), 3);
        assert!(s.metrics().counter("gc.bytes_reclaimed").get() >= 4 * 64);
    }

    #[test]
    fn expired_lease_unpins_and_read_leased_reports_it() {
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let mut gc = GcCoordinator::new(blob.clone());
            blob.set_retention(p, RetentionPolicy::KeepLast(1)).unwrap();
            blob.write(p, 0, Bytes::from(vec![1u8; 64])).unwrap();
            blob.write(p, 0, Bytes::from(vec![2u8; 64])).unwrap();
            // A 1 ms lease on v1, then let it lapse (virtual time).
            let grant = blob.lease_acquire(p, VersionId::new(1), 1).unwrap();
            p.sleep(std::time::Duration::from_millis(5));
            let pass = gc.run_pass(p).unwrap();
            assert_eq!(pass.report.versions_retired, 1, "expired lease unpins");
            assert_eq!(pass.leases_active, 0);
            assert_eq!(pass.lease_expirations, 1);

            // The reader comes back from its stall: typed error, not torn
            // bytes or missing-chunk noise.
            let ext = ExtentList::from_pairs([(0u64, 64u64)]);
            let err = blob.read_leased(p, &grant, 60_000, &ext).unwrap_err();
            assert_eq!(
                err,
                Error::LeaseExpired {
                    lease: grant.lease,
                    version: VersionId::new(1)
                }
            );
        });
        assert_eq!(s.metrics().counter("gc.lease_expirations").get(), 1);
    }

    #[test]
    fn default_retention_from_store_config_drives_the_floor() {
        let s = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(64)
                .with_data_providers(4)
                .with_retention(RetentionPolicy::KeepLast(1)),
        );
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let mut gc = GcCoordinator::new(blob.clone());
            for k in 0..3u64 {
                blob.write(p, 0, Bytes::from(vec![k as u8 + 1; 64]))
                    .unwrap();
            }
            let pass = gc.run_pass(p).unwrap();
            assert_eq!(pass.report.versions_retired, 2);
            assert_eq!(blob.read(p, 0, 64).unwrap(), vec![3u8; 64]);
        });
    }

    #[test]
    fn incremental_passes_preserve_state_shared_with_unswept_versions() {
        // v1 writes two leaves; v2..v4 overwrite only the first. With a
        // pass cap of 1, v1 is swept while v2 and v3 (also below the
        // floor) are not — v1's second-leaf chunk is reachable from them
        // only via the unswept tail, and must survive until the cursor
        // passes. The final state must read back intact throughout.
        let s = store();
        let blob = s.create_blob();
        run_actors(1, |_, p| {
            let mut gc = GcCoordinator::new(blob.clone()).with_pass_cap(1);
            blob.set_retention(p, RetentionPolicy::KeepLast(1)).unwrap();
            blob.write(p, 0, Bytes::from(vec![1u8; 128])).unwrap();
            for k in 0..3u64 {
                blob.write(p, 0, Bytes::from(vec![k as u8 + 2; 64]))
                    .unwrap();
            }
            for expect_sweep in [2u64, 3, 4] {
                let pass = gc.run_pass(p).unwrap();
                assert_eq!(pass.report.versions_retired, 1);
                assert_eq!(gc.swept_below(), VersionId::new(expect_sweep));
                // The latest snapshot reads back whole after every pass:
                // first leaf from v4's chain, second leaf from v1.
                let got = blob.read(p, 0, 128).unwrap();
                assert_eq!(&got[64..], &[1u8; 64][..], "shared leaf survives");
            }
            // Floor reached: nothing further to do.
            let pass = gc.run_pass(p).unwrap();
            assert_eq!(pass.report, GcReport::default());
        });
    }

    #[test]
    fn a_packed_chunk_lives_while_any_of_its_pieces_is_reachable() {
        let tmp = atomio_types::tempdir::TempDir::new("atomio-gc-packed");
        for backend in [BackendConfig::Memory, BackendConfig::disk(tmp.path())] {
            let s = Store::new(
                StoreConfig::default()
                    .with_zero_cost()
                    .with_chunk_size(64)
                    .with_data_providers(4)
                    .with_backend(backend),
            );
            let stored = || -> usize {
                s.providers()
                    .providers()
                    .iter()
                    .map(|pr| pr.chunk_count())
                    .sum()
            };
            let rows = ExtentList::from_pairs([(8u64, 16u64), (72, 16)]);
            let blob = s.create_blob();
            run_actors(1, |_, p| {
                let mut gc = GcCoordinator::new(blob.clone());
                blob.set_retention(p, RetentionPolicy::KeepLast(1)).unwrap();
                // 1. Two sub-leaf rows in leaves 0 and 1: one chunk.
                blob.write_list(p, &rows, Bytes::from(vec![1u8; 32]))
                    .unwrap();
                assert_eq!(stored(), 1);
                // 2. Leaf 0 (row 0 with it) is overwritten whole, so
                //    the retained tree no longer reaches v1's leaf 0.
                blob.write(p, 0, Bytes::from(vec![2u8; 64])).unwrap();
                // 3. v1 is retired, but its chunk still backs row 1.
                let pass = gc.run_to_floor(p).unwrap();
                assert_eq!(pass.report.versions_retired, 1);
                assert_eq!(pass.report.chunks_evicted, 0);
                assert_eq!(stored(), 2);
                let both = blob.read_at(p, VersionId::new(2), &rows).unwrap();
                assert_eq!(both, [[2u8; 16], [1u8; 16]].concat());
                // 4. Row 1's leaf goes too: the chunk is unreachable.
                blob.write(p, 64, Bytes::from(vec![3u8; 64])).unwrap();
                let pass = gc.run_to_floor(p).unwrap();
                assert_eq!(pass.report.chunks_evicted, 1);
                assert_eq!(pass.report.bytes_reclaimed, 32);
                assert_eq!(stored(), 2);
                let both = blob.read(p, 0, 128).unwrap();
                assert_eq!(both, [[2u8; 64], [3u8; 64]].concat());
            });
        }
    }
}
