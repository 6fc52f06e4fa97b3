//! The batched data plane against its per-item reference. The provider
//! manager hands every store one batch per provider, and a store may
//! serve it with one frame (`RemoteProvider`) or one append per slot
//! (`DiskProvider`) — or, by default, item by item. Both must yield
//! bit-identical bytes, version chains, metadata nodes (leaf `homes`
//! included) and virtual completion times, the same verifier verdicts
//! under concurrent writers and the same fault semantics, and a
//! round-trip pin keeps the per-chunk loop from silently coming back.

mod common;

use atomio::core::{ReadVersion, Store, StoreConfig};
use atomio::meta::Node;
use atomio::mpiio::adio::AdioDriver;
use atomio::mpiio::drivers::VersioningDriver;
use atomio::provider::{ChunkStore, ScrubReport};
use atomio::rpc::client::BATCH_FRAME_BYTES;
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{CostModel, Participant, Resource, SimClock, SimTime};
use atomio::types::stamp::WriteStamp;
use atomio::types::{
    ByteRange, ChunkId, ClientId, Error, ExtentList, ProviderId, Result, VersionId,
};
use atomio::workloads::{run_write_round, CheckpointWorkload, OverlapWorkload, TileWorkload};
use bytes::Bytes;
use common::{sorted_keys, Backend, Deployment, Layout, Role, Wire};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Forwards every method of a chunk store except the two batch ones, so
/// the provider manager's batch calls fall through to the trait's
/// per-item defaults: the reference every batching override must match.
#[derive(Debug)]
struct PerItem(Arc<dyn ChunkStore>);

impl ChunkStore for PerItem {
    fn id(&self) -> ProviderId {
        self.0.id()
    }
    fn put_chunk(&self, p: &Participant, chunk: ChunkId, data: Bytes) -> Result<()> {
        self.0.put_chunk(p, chunk, data)
    }
    fn put_chunk_at(&self, arrival: SimTime, chunk: ChunkId, data: Bytes) -> Result<SimTime> {
        self.0.put_chunk_at(arrival, chunk, data)
    }
    fn get_chunk(&self, p: &Participant, chunk: ChunkId) -> Result<Bytes> {
        self.0.get_chunk(p, chunk)
    }
    fn get_chunk_range(&self, p: &Participant, chunk: ChunkId, range: ByteRange) -> Result<Bytes> {
        self.0.get_chunk_range(p, chunk, range)
    }
    fn get_chunk_range_at(
        &self,
        arrival: SimTime,
        chunk: ChunkId,
        range: ByteRange,
    ) -> Result<(Bytes, SimTime)> {
        self.0.get_chunk_range_at(arrival, chunk, range)
    }
    fn chunk_count(&self) -> usize {
        self.0.chunk_count()
    }
    fn bytes_stored(&self) -> u64 {
        self.0.bytes_stored()
    }
    fn evict_chunk(&self, chunk: ChunkId) -> u64 {
        self.0.evict_chunk(chunk)
    }
    fn checksum_of(&self, chunk: ChunkId) -> Option<u64> {
        self.0.checksum_of(chunk)
    }
    fn corrupt_chunk(&self, chunk: ChunkId, byte: usize) {
        self.0.corrupt_chunk(chunk, byte)
    }
    fn scrub(&self, p: &Participant) -> ScrubReport {
        self.0.scrub(p)
    }
    fn chunk_len(&self, chunk: ChunkId) -> Option<u64> {
        self.0.chunk_len(chunk)
    }
    fn max_chunk_id(&self) -> Option<ChunkId> {
        self.0.max_chunk_id()
    }
    fn disk(&self) -> &Resource {
        self.0.disk()
    }
    fn nic(&self) -> &Resource {
        self.0.nic()
    }
    fn cost(&self) -> &CostModel {
        self.0.cost()
    }
}

/// Where the chunk stores of a deployment live. Every plane stores on
/// disk, a `DiskProvider` per provider, with fsyncs deferred: nothing
/// here restarts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Plane {
    /// The `DiskProvider`s in process, on the grid5000 cost model: the
    /// arm on which virtual completion times mean something.
    Disk,
    /// `RemoteProvider` → `Loopback` → `ProviderService` → `DiskProvider`.
    Loopback,
    /// The same over localhost TCP (mux transport, one server per provider).
    Tcp,
}

const PLANES: [Plane; 3] = [Plane::Disk, Plane::Loopback, Plane::Tcp];
const FLEET: usize = 4;

/// A store over a [`Deployment`] whose only hosted role is the data
/// plane; metadata and versions stay in process, so the deployment's
/// transport counters see data-plane round trips only.
struct Deployed {
    deployment: Deployment,
    store: Store,
}

/// A `FLEET`-provider deployment on `plane` writing `replicas` copies
/// with a quorum of `min_ok`; `per_item` wraps every store in
/// [`PerItem`].
fn deploy(
    plane: Plane,
    (replicas, min_ok): (usize, usize),
    per_item: bool,
    chunk_size: u64,
) -> Deployed {
    let config = StoreConfig::default()
        .with_chunk_size(chunk_size)
        .with_data_providers(FLEET)
        .with_replication(replicas, min_ok)
        .with_seed(0xBA7C);
    // The Disk plane hosts no role, so its wire goes unused.
    let (config, wire) = match plane {
        Plane::Disk => (config, Wire::Loopback),
        Plane::Loopback => (config.with_zero_cost(), Wire::Loopback),
        Plane::Tcp => (config.with_zero_cost(), Wire::Tcp),
    };
    let layout = Layout {
        providers: plane != Plane::Disk,
        ..Layout::new(wire, Backend::DiskDeferred)
    };
    let deployment = Deployment::start(config, layout);
    let stores = deployment
        .provider_stores()
        .into_iter()
        .map(|store| {
            if per_item {
                Arc::new(PerItem(store)) as Arc<dyn ChunkStore>
            } else {
                store
            }
        })
        .collect();
    let store = deployment.assemble(stores, None);
    Deployed { deployment, store }
}

const SMALL_CHUNK: u64 = 4096;

/// The two paper workloads at test size: overlapping ghost-cell tiles
/// (64 extents of 512 B per rank) and halo-overlapped checkpoint slabs
/// (one contiguous 17 KiB extent per rank).
fn workloads() -> Vec<(&'static str, Vec<ExtentList>)> {
    let tile = TileWorkload::new(2, 2, 64, 64, 8, 4, 4);
    let checkpoint = CheckpointWorkload::new(4, 1024, 16, 32);
    vec![
        ("tile", (0..4).map(|r| tile.extents_for(r)).collect()),
        (
            "checkpoint",
            (0..4).map(|r| checkpoint.extents_for(r)).collect(),
        ),
    ]
}

fn stamped(rank: usize, extents: &ExtentList) -> Bytes {
    Bytes::from(WriteStamp::new(ClientId::new(rank as u64), 0).payload_for(extents))
}

/// Everything one run leaves behind that a reader, a restart or a
/// timing model could tell apart.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Per write: the version it got, or its error.
    versions: Vec<Result<VersionId>>,
    latest: VersionId,
    /// Each rank's extents read back at every version, then the whole
    /// file at the latest.
    reads: Vec<Result<Vec<u8>>>,
    /// Every metadata node, by key: tree shape, chunk ids, leaf `homes`.
    nodes: Vec<Node>,
    /// Virtual time the whole run took.
    elapsed: Duration,
}

/// Writes every rank's extents in rank order, calls `between` (fault
/// injection), then reads everything back.
fn run(d: &Deployed, ranks: &[ExtentList], between: impl Fn() + Sync) -> Observed {
    let blob = d.store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;
    let (versions, latest, reads) = run_actors_on(&clock, 1, move |_, p| {
        let versions: Vec<Result<VersionId>> = ranks
            .iter()
            .enumerate()
            .map(|(rank, extents)| blob_ref.write_list(p, extents, stamped(rank, extents)))
            .collect();
        between();
        let latest = blob_ref.latest(p).unwrap();
        let mut reads = Vec::new();
        for v in 1..=latest.version.raw() {
            for extents in ranks {
                reads.push(blob_ref.read_at(p, VersionId::new(v), extents));
            }
        }
        reads.push(blob_ref.read(p, 0, latest.size));
        (versions, latest.version, reads)
    })
    .pop()
    .unwrap();
    let keys = sorted_keys(d.store.meta().list_keys());
    let nodes = run_actors_on(&SimClock::new(), 1, |_, p| {
        d.store
            .meta()
            .get_batch(p, &keys)
            .into_iter()
            .map(|node| (*node.unwrap()).clone())
            .collect()
    })
    .pop()
    .unwrap();
    Observed {
        versions,
        latest,
        reads,
        nodes,
        elapsed: clock.now(),
    }
}

#[test]
fn batched_data_plane_matches_the_per_item_reference() {
    for plane in PLANES {
        for replication in [(1, 1), (2, 2)] {
            for (name, ranks) in workloads() {
                let observe = |per_item| {
                    run(
                        &deploy(plane, replication, per_item, SMALL_CHUNK),
                        &ranks,
                        || {},
                    )
                };
                let (batched, reference) = (observe(false), observe(true));
                let arm = format!("{plane:?} replication {replication:?} {name}");
                assert!(batched.versions.iter().all(|v| v.is_ok()), "{arm}");
                // Reads below a version's size fail alike on both sides;
                // the latest reads everything back.
                assert!(batched.reads.last().unwrap().is_ok(), "{arm}");
                if plane == Plane::Disk {
                    assert!(batched.elapsed > Duration::ZERO, "{arm}: costs are booked");
                }
                assert_eq!(
                    batched, reference,
                    "{arm}: batched and per-item runs differ"
                );
            }
        }
    }
}

#[test]
fn a_provider_down_before_the_batch_costs_its_copies_only() {
    // Provider 1 is failed on the manager's fault plane from the start:
    // its copies are never booked, every chunk still lands on its other
    // home (quorum 1 of 2), and batched and per-item runs agree on every
    // byte and every shortened `homes` list.
    for plane in PLANES {
        for (name, ranks) in workloads() {
            let observe = |per_item| {
                let d = deploy(plane, (2, 1), per_item, SMALL_CHUNK);
                d.store.faults().fail_provider(ProviderId::new(1));
                run(&d, &ranks, || {})
            };
            let (batched, reference) = (observe(false), observe(true));
            assert!(
                batched.versions.iter().all(|v| v.is_ok()),
                "{plane:?} {name}"
            );
            assert!(batched.reads.last().unwrap().is_ok(), "{plane:?} {name}");
            assert_eq!(batched, reference, "{plane:?} {name}");
        }
    }
}

#[test]
fn a_provider_killed_between_put_and_get_fails_reads_over_in_a_second_round() {
    for plane in PLANES {
        for (name, ranks) in workloads() {
            let observe = |per_item| {
                let d = deploy(plane, (2, 2), per_item, SMALL_CHUNK);
                let before_reads = AtomicU64::new(0);
                let observed = run(&d, &ranks, || {
                    // Behind the manager's back: the server stops where
                    // there is one, the store refuses service otherwise.
                    d.deployment.kill(Role::Provider(2));
                    before_reads.store(d.deployment.round_trips(), Ordering::Relaxed);
                });
                (
                    observed,
                    d.deployment.round_trips() - before_reads.into_inner(),
                )
            };
            let ((batched, batched_trips), (reference, reference_trips)) =
                (observe(false), observe(true));
            let arm = format!("{plane:?} {name}");
            assert!(
                batched.reads.last().unwrap().is_ok(),
                "{arm}: every chunk has a surviving replica"
            );
            assert_eq!(batched, reference, "{arm}");
            if plane != Plane::Disk {
                assert!(
                    batched_trips < reference_trips,
                    "{arm}: failover regroups into batches ({batched_trips} round trips \
                     against {reference_trips} per item)"
                );
            }
        }
    }
}

#[test]
fn a_rejected_item_fails_alone_in_its_batch() {
    for plane in PLANES {
        let outcomes = |per_item| {
            let d = deploy(plane, (2, 2), per_item, SMALL_CHUNK);
            let chunk = |i: u64| (ChunkId::new(i), Bytes::from(vec![i as u8; 700]));
            run_actors_on(&SimClock::new(), 1, |_, p| {
                let manager = d.store.providers();
                let first = manager.put_batch_replicated(p, &[chunk(5)], 2, 2);
                // Chunk 5 again, in the middle of eight new ones.
                let batch: Vec<_> = [1, 2, 3, 4, 5, 6, 7, 8, 9].map(chunk).to_vec();
                let second = manager.put_batch_replicated(p, &batch, 2, 2);
                (first, second)
            })
            .pop()
            .unwrap()
        };
        let (batched, reference) = (outcomes(false), outcomes(true));
        assert_eq!(batched, reference, "{plane:?}");
        let (first, second) = batched;
        assert!(first[0].is_ok());
        for (i, outcome) in second.iter().enumerate() {
            if i == 4 {
                assert!(
                    matches!(outcome, Err(Error::Internal(_))),
                    "{plane:?}: the reused id is refused, got {outcome:?}"
                );
            } else {
                assert_eq!(outcome.as_ref().map(Vec::len), Ok(2), "{plane:?} item {i}");
            }
        }
    }
}

#[test]
fn a_tile_write_and_its_read_cost_one_round_trip_per_provider() {
    // The paper's §VI tile: 256 extents of 2 KiB, ghost-extended, which
    // the 64 KiB leaf geometry cuts into 264 leaf-aligned pieces. The
    // write packs them into 8 leaf-sized chunks, the read fetches those
    // 8 ranges, and the data plane pays per provider, not per chunk.
    let tile = TileWorkload::new(3, 3, 256, 256, 8, 8, 8).extents_for(4);
    assert_eq!(tile.range_count(), 256);
    for replication in [1, 2] {
        let d = deploy(
            Plane::Loopback,
            (replication, replication),
            false,
            64 * 1024,
        );
        let blob = d.store.create_blob();
        let payload = stamped(4, &tile);
        let fetches = d.store.metrics().value_stat("core.fetch_depth");
        run_actors_on(&SimClock::new(), 1, |_, p| {
            blob.write_list(p, &tile, payload.clone()).unwrap();
            let after_write = d.deployment.round_trips();
            assert!(
                (1..=(FLEET * replication) as u64).contains(&after_write),
                "write_list of a tile cost {after_write} data-plane round trips"
            );
            let back = blob.read_list(p, ReadVersion::Latest, &tile).unwrap();
            assert_eq!(back, payload.as_ref());
            let read = d.deployment.round_trips() - after_write;
            assert!(
                (1..=FLEET as u64).contains(&read),
                "read_list of a tile cost {read} data-plane round trips"
            );
            assert_eq!(
                (fetches.count(), fetches.sum()),
                (1, 8),
                "one read batch fetches 8 ranges"
            );
        });
        // Counted after the round-trip pins: each count is a request.
        let stored: usize = d
            .store
            .providers()
            .providers()
            .iter()
            .map(|store| store.chunk_count())
            .sum();
        assert_eq!(stored, 8 * replication, "the tile packs into 8 chunks");
    }
}

#[test]
fn a_write_past_the_frame_budget_splits_into_whole_frames_per_provider() {
    // 2.5 frame budgets of 64 KiB chunks per provider: ⌈2.5⌉ = 3 frames
    // each way, per provider — and the bytes still come back.
    const CHUNK: u64 = 64 * 1024;
    let per_provider = BATCH_FRAME_BYTES as u64 * 5 / 2;
    let extents = ExtentList::single(ByteRange::new(0, per_provider * FLEET as u64));
    let frames = per_provider.div_ceil(BATCH_FRAME_BYTES as u64);
    let d = deploy(Plane::Loopback, (1, 1), false, CHUNK);
    let blob = d.store.create_blob();
    let payload = stamped(0, &extents);
    run_actors_on(&SimClock::new(), 1, |_, p| {
        blob.write_list(p, &extents, payload.clone()).unwrap();
        assert_eq!(d.deployment.round_trips(), FLEET as u64 * frames);
        let back = blob.read_list(p, ReadVersion::Latest, &extents).unwrap();
        assert_eq!(back, payload.as_ref());
        assert_eq!(d.deployment.round_trips(), 2 * FLEET as u64 * frames);
    });
}

/// The two arms of a scenario: the data plane as shipped (`false`) and
/// the same stores behind [`PerItem`] (`true`).
const MODES: [bool; 2] = [false, true];

#[test]
fn concurrent_atomic_writes_serialize_in_both_modes() {
    // The suite above writes rank by rank; here six writers overlap in
    // time, so the stores' batch methods run concurrently.
    let workload = OverlapWorkload::new(6, 8, 16 * 1024, 1, 2);
    let extents: Vec<ExtentList> = (0..6).map(|c| workload.extents_for(c)).collect();
    for plane in PLANES {
        for per_item in MODES {
            let d = deploy(plane, (1, 1), per_item, 16 * 1024);
            let driver: Arc<dyn AdioDriver> =
                Arc::new(VersioningDriver::new(d.store.create_blob()));
            let out = run_write_round(&SimClock::new(), &driver, &extents, true, 9, true);
            assert!(
                out.is_atomic_ok(),
                "{plane:?} per_item={per_item} violated atomicity: {:?}",
                out.violation
            );
        }
    }
}

#[test]
fn replication_masks_provider_loss_in_both_modes() {
    let ext = ExtentList::from_pairs([(0u64, 10_240u64)]); // 10 chunks
    for per_item in MODES {
        let d = deploy(Plane::Disk, (2, 2), per_item, 1024);
        let blob = d.store.create_blob();
        run_actors_on(&SimClock::new(), 1, |_, p| {
            blob.write_list(p, &ext, Bytes::from(vec![0x42u8; 10_240]))
                .unwrap();
            // Each provider in turn, not one fixed victim as above.
            for victim in (0..FLEET as u64).map(ProviderId::new) {
                d.deployment.hosted_faults.fail_provider(victim);
                let got = blob
                    .read_list(p, ReadVersion::Latest, &ext)
                    .unwrap_or_else(|e| {
                        panic!("per_item={per_item}: lost data when {victim} died: {e}")
                    });
                assert_eq!(got, vec![0x42u8; 10_240]);
                d.deployment.hosted_faults.heal_provider(victim);
            }
        });
    }
}

#[test]
fn under_quorum_writes_fail_identically_in_both_modes() {
    let first = ExtentList::from_pairs([(0u64, 512u64)]);
    let outcomes = MODES.map(|per_item| {
        // Every provider must take a copy, and provider 0 is down.
        let d = deploy(Plane::Disk, (FLEET, FLEET), per_item, 1024);
        let blob = d.store.create_blob();
        run_actors_on(&SimClock::new(), 1, |_, p| {
            d.store.faults().fail_provider(ProviderId::new(0));
            let err = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap_err();
            assert!(
                matches!(err, Error::InsufficientReplicas { .. }),
                "per_item={per_item}: got {err}"
            );
            // The failed write must publish an invisible tombstone and
            // leave the pipeline retryable.
            let tombstone = blob.latest(p).unwrap().version;
            let zeros = blob.read_at(p, tombstone, &first).unwrap();
            assert_eq!(
                zeros,
                vec![0u8; 512],
                "per_item={per_item}: failed write visible"
            );
            d.store.faults().heal_provider(ProviderId::new(0));
            let retry = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap();
            let got = blob.read_at(p, retry, &first).unwrap();
            assert_eq!(got, vec![1u8; 512], "per_item={per_item}: retry lost data");
            (err, tombstone, retry)
        })
        .pop()
        .unwrap()
    });
    assert_eq!(outcomes[0], outcomes[1]);
}
