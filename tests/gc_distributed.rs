//! Distributed lease-based reclamation: the collector must run
//! *concurrently* with live overlapping writers — on the in-process
//! Loopback transport and on the full three-service TCP deployment —
//! without ever reclaiming a chunk reachable from a retained or leased
//! snapshot, and the lease/retention state must be as durable as the
//! publish decisions it guards.
//!
//! Three scenarios:
//!
//! 1. **GC beside the 9-writer stress**: while nine ranks atomically
//!    write overlapping ghost-extended tiles, a collector actor runs
//!    capped passes under `KeepLast(2)` with a reader's lease pinning an
//!    early snapshot. The leased snapshot reads back bit-exact during
//!    and after collection, the final dataset stays serializable, and
//!    only unpinned sub-floor versions lose their state.
//! 2. **Lease expiry mid-read**: a reader whose lease lapses while the
//!    collector takes its snapshot gets the typed
//!    [`Error::LeaseExpired`] — never torn bytes.
//! 3. **Crash durability**: killing the version server and rebuilding it
//!    fresh from the Disk backend preserves both the blob's retention
//!    policy and the live lease — the recovered floor is identical.
//!
//! Over TCP a read resolves its metadata in one `MetaResolve` round
//! trip, walked on the metadata server: a resolve that reaches a
//! collected node fails typed there too, and a lease that lapses between
//! a read's renewal and its resolve still surfaces as `LeaseExpired`.
//! A collector walks trees on the client, one `MetaGetBatch` per tree
//! level and walk.

mod common;

use atomio::core::{GcCoordinator, ReadVersion, Store, StoreConfig};
use atomio::rpc::{Request, Response, Transport};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::stamp::WriteStamp;
use atomio::types::{ByteRange, ClientId, Error, ExtentList, RetentionPolicy, VersionId};
use atomio::workloads::verify::{check_serializable_from, WriteRecord};
use atomio::workloads::TileWorkload;
use bytes::Bytes;
use common::{Backend, Deployment, Layout, Role};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const CHUNK: u64 = 4096;
const SEED: u64 = 0x6C0A;
const LEASE_TTL_MS: u64 = 60_000;

/// The version service carries the config's retention as its
/// deployment default, exactly as `atomio-version-server --retention
/// keep-last:2` would.
fn base_config(providers: usize) -> StoreConfig {
    StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK)
        .with_data_providers(providers)
        .with_meta_shards(2)
        .with_seed(SEED)
        .with_retention(RetentionPolicy::KeepLast(2))
}

type Hook = Box<dyn FnOnce() + Send>;

/// The metadata transport, counting `MetaResolve` and `MetaGetBatch`
/// calls, with a hook a test can arm to run once just before the next
/// `MetaResolve` leaves: the moment between a read's lease renewal and
/// its tree walk.
struct BeforeResolve {
    inner: Arc<dyn Transport>,
    hook: Mutex<Option<Hook>>,
    resolves: AtomicU64,
    get_batches: AtomicU64,
}

impl std::fmt::Debug for BeforeResolve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeforeResolve").finish_non_exhaustive()
    }
}

impl BeforeResolve {
    fn arm(&self, hook: impl FnOnce() + Send + 'static) {
        *self.hook.lock().unwrap() = Some(Box::new(hook));
    }

    fn resolves(&self) -> u64 {
        self.resolves.load(Ordering::SeqCst)
    }

    fn get_batches(&self) -> u64 {
        self.get_batches.load(Ordering::SeqCst)
    }
}

impl Transport for BeforeResolve {
    fn call(&self, request: &Request, payload: &[u8]) -> atomio::types::Result<(Response, Bytes)> {
        if let Request::MetaGetBatch { .. } = request {
            self.get_batches.fetch_add(1, Ordering::SeqCst);
        }
        if let Request::MetaResolve { .. } = request {
            self.resolves.fetch_add(1, Ordering::SeqCst);
            // Taken before it runs: the hook's own calls pass straight on.
            let hook = self.hook.lock().unwrap().take();
            if let Some(hook) = hook {
                hook();
            }
        }
        self.inner.call(request, payload)
    }
}

/// The three-service TCP deployment with one version server, and its
/// store over a [`BeforeResolve`]-wrapped metadata transport.
fn three_service_store(
    providers: usize,
    backend: Backend,
) -> (Deployment, Store, Arc<BeforeResolve>) {
    let d = Deployment::start(base_config(providers), Layout::three_services(backend, 1));
    let meta = Arc::new(BeforeResolve {
        inner: d.transport(Role::Meta),
        hook: Mutex::new(None),
        resolves: AtomicU64::new(0),
        get_batches: AtomicU64::new(0),
    });
    let store = d.assemble(
        d.provider_stores(),
        Some(Arc::clone(&meta) as Arc<dyn Transport>),
    );
    (d, store, meta)
}

/// The shared stress: two base snapshots, a lease pinning the second,
/// then nine overlapping tile writers racing a concurrent collector.
fn gc_beside_nine_writers(store: &Store) {
    let workload = TileWorkload::new(3, 3, 8, 8, 16, 2, 2);
    assert!(workload.has_overlap());
    let ranks = workload.processes();
    let total = workload.dataset_bytes();
    let full = ExtentList::single(ByteRange::new(0, total));

    let blob = store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;
    let full_ref = &full;

    // Two base snapshots so the collector has sub-floor work; a lease
    // pins v2 below the KeepLast(2) floor for the whole stress.
    let (grant, pinned_state) = run_actors_on(&clock, 1, move |_, p| {
        blob_ref
            .write(p, 0, Bytes::from(vec![0x11u8; total as usize]))
            .unwrap();
        blob_ref
            .write(p, 0, Bytes::from(vec![0x22u8; total as usize]))
            .unwrap();
        let grant = blob_ref.lease_latest(p, LEASE_TTL_MS).unwrap();
        assert_eq!(grant.version, VersionId::new(2));
        let state = blob_ref.read_at(p, grant.version, full_ref).unwrap();
        (grant, state)
    })
    .pop()
    .unwrap();

    // Nine overlapping atomic writers + one collector actor running
    // capped passes the whole time.
    let stamps: Vec<WriteStamp> = (0..ranks)
        .map(|r| WriteStamp::new(ClientId::new(r as u64), 1))
        .collect();
    let extents: Vec<ExtentList> = (0..ranks).map(|r| workload.extents_for(r)).collect();
    let writers_done = Arc::new(AtomicUsize::new(0));
    let stamps_ref = &stamps;
    let extents_ref = &extents;
    let writers_done_ref = &writers_done;
    let pinned_ref = &pinned_state;
    let concurrent_retired = run_actors_on(&clock, ranks + 1, move |i, p| {
        if i == ranks {
            let mut gc = GcCoordinator::new(blob_ref.clone()).with_pass_cap(2);
            let mut retired = 0u64;
            loop {
                let done = writers_done_ref.load(Ordering::Acquire) == ranks;
                let pass = gc.run_pass(p).expect("concurrent GC pass failed");
                assert_eq!(pass.leases_active, 1, "the reader's lease is live");
                retired += pass.report.versions_retired;
                if done && pass.report.versions_retired == 0 {
                    break;
                }
                p.sleep(std::time::Duration::from_micros(50));
            }
            // Mid-stress reclamation: the leased snapshot still reads
            // back bit-exact straight after the collector's last pass.
            let leased = blob_ref
                .read_leased(p, &grant, LEASE_TTL_MS, full_ref)
                .expect("leased snapshot must survive collection");
            assert_eq!(&leased, pinned_ref, "leased v2 is bit-exact after GC");
            return retired;
        }
        let payload = Bytes::from(stamps_ref[i].payload_for(&extents_ref[i]));
        blob_ref.write_list(p, &extents_ref[i], payload).unwrap();
        writers_done_ref.fetch_add(1, Ordering::Release);
        0
    })
    .pop()
    .unwrap();
    // The lease clamps the floor to v2, so exactly v1 was collectable
    // during the stress — and it was collected *while* writers wrote.
    assert_eq!(concurrent_retired, 1, "v1 retired concurrently");

    // The final dataset is one serial order of the nine writers applied
    // over the v2 base: collection never tore an overlapped byte.
    let writes: Vec<WriteRecord> = (0..ranks)
        .map(|r| WriteRecord::new(stamps[r], extents[r].clone()))
        .collect();
    let (latest, final_state) = run_actors_on(&clock, 1, move |_, p| {
        (
            blob_ref.latest(p).unwrap().version,
            blob_ref
                .read_list(p, ReadVersion::Latest, full_ref)
                .unwrap(),
        )
    })
    .pop()
    .unwrap();
    assert_eq!(latest, VersionId::new(2 + ranks as u64));
    check_serializable_from(Some(&pinned_state), &final_state, &writes)
        .unwrap_or_else(|v| panic!("GC-concurrent run violates atomicity: {v:?}"));

    // Release the lease and drain to the floor: KeepLast(2) now governs
    // alone, the retained pair reads whole, the retired tail does not.
    run_actors_on(&clock, 1, move |_, p| {
        blob_ref.lease_release(p, grant.lease).unwrap();
        let mut gc = GcCoordinator::new(blob_ref.clone());
        let merged = gc.run_to_floor(p).expect("post-release drain failed");
        assert_eq!(merged.leases_active, 0);
        assert!(
            merged.report.versions_retired >= (ranks as u64) - 1,
            "the unpinned tail is reclaimed once the lease goes: {merged:?}"
        );
        assert_eq!(
            blob_ref
                .read_list(p, ReadVersion::Latest, full_ref)
                .unwrap(),
            final_state,
            "latest still bit-exact after the drain"
        );
        assert!(
            blob_ref
                .read_at(p, VersionId::new(latest.raw() - 1), full_ref)
                .is_ok(),
            "KeepLast(2) retains latest-1"
        );
        let err = blob_ref.read_at(p, grant.version, full_ref).unwrap_err();
        assert!(
            matches!(
                err,
                Error::ChunkNotFound { .. } | Error::MetadataNodeMissing(_)
            ),
            "released v2's exclusive state is gone, typed: {err:?}"
        );
    });
}

#[test]
fn gc_runs_beside_nine_overlapping_writers_loopback() {
    gc_beside_nine_writers(&Store::new(base_config(4)));
}

#[test]
fn gc_runs_beside_nine_overlapping_writers_tcp_mux() {
    let (_d, store, _meta) = three_service_store(4, Backend::Memory);
    gc_beside_nine_writers(&store);
}

#[test]
fn lease_expiry_mid_read_is_a_typed_error_over_tcp() {
    // Server-clock leases: a 20 ms TTL lapses in wall time while the
    // collector (correctly) treats the pin as gone and reclaims.
    let (_d, store, _meta) = three_service_store(2, Backend::Memory);
    let blob = store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;
    run_actors_on(&clock, 1, move |_, p| {
        for fill in [0x31u8, 0x32, 0x33, 0x34] {
            blob_ref
                .write(p, 0, Bytes::from(vec![fill; 2 * CHUNK as usize]))
                .unwrap();
        }
        let grant = blob_ref.lease_acquire(p, VersionId::new(1), 20).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(60));
        let mut gc = GcCoordinator::new(blob_ref.clone());
        let merged = gc.run_to_floor(p).unwrap();
        assert_eq!(merged.leases_active, 0, "the lapsed lease no longer pins");
        assert!(merged.report.versions_retired >= 1);
        assert_eq!(merged.lease_expirations, 1);
        let err = blob_ref
            .read_leased(
                p,
                &grant,
                LEASE_TTL_MS,
                &ExtentList::single(ByteRange::new(0, 2 * CHUNK)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            Error::LeaseExpired {
                lease: grant.lease,
                version: grant.version
            },
            "expiry surfaces typed, never as torn bytes"
        );
    });
}

/// Writes four whole overwrites of `[0, 2 × CHUNK)`: no node of v1 or
/// v2 is shared with the two versions `KeepLast(2)` retains.
fn four_whole_overwrites(blob: &atomio::core::Blob, p: &atomio::simgrid::Participant) {
    for fill in [0x41u8, 0x42, 0x43, 0x44] {
        blob.write(p, 0, Bytes::from(vec![fill; 2 * CHUNK as usize]))
            .unwrap();
    }
}

#[test]
fn a_resolve_that_reaches_a_collected_node_fails_typed_over_tcp() {
    let (_d, store, counted) = three_service_store(2, Backend::Memory);
    let blob = store.create_blob();
    let (blob_ref, meta) = (&blob, store.meta());
    let whole = ExtentList::single(ByteRange::new(0, 2 * CHUNK));
    run_actors_on(&SimClock::new(), 1, |_, p| {
        four_whole_overwrites(blob_ref, p);
        let root = |v| {
            blob_ref
                .version_manager()
                .snapshot(p, VersionId::new(v))
                .unwrap()
                .root
        };
        let (collected, retained) = (root(1), root(4));
        assert!(meta.resolve(p, collected, &whole, None).is_ok());
        let merged = GcCoordinator::new(blob_ref.clone())
            .run_to_floor(p)
            .unwrap();
        assert_eq!(merged.report.versions_retired, 2);
        let resolves = counted.resolves();
        assert!(matches!(
            meta.resolve(p, collected, &whole, None),
            Err(Error::MetadataNodeMissing(_))
        ));
        assert_eq!(counted.resolves() - resolves, 1);
        // The retained snapshot still resolves whole, every byte stored.
        let pieces = meta.resolve(p, retained, &whole, None).unwrap();
        assert!(pieces.iter().all(|piece| piece.source.is_some()));
        let covered: u64 = pieces.iter().map(|piece| piece.file_range.len).sum();
        assert_eq!(covered, 2 * CHUNK);
    });
}

#[test]
fn a_gc_run_fetches_each_tree_level_in_one_round_trip_over_tcp() {
    let (_d, store, meta) = three_service_store(2, Backend::Memory);
    let blob = store.create_blob();
    let blob_ref = &blob;
    let whole = 4 * CHUNK;
    run_actors_on(&SimClock::new(), 1, |_, p| {
        // Six whole overwrites of four leaves: each tree is a root, two
        // inner nodes and four leaves — three levels, no backlinks.
        const LEVELS: u64 = 3;
        for fill in 0x51u8..0x57 {
            blob_ref
                .write(p, 0, Bytes::from(vec![fill; whole as usize]))
                .unwrap();
        }
        let before = meta.get_batches();
        let merged = GcCoordinator::new(blob_ref.clone())
            .run_to_floor(p)
            .unwrap();
        let calls = meta.get_batches() - before;
        let retired = merged.report.versions_retired;
        assert_eq!(retired, 4, "KeepLast(2) retires v1..v4");
        assert_eq!(merged.report.nodes_evicted, 4 * 7);
        assert_eq!(merged.report.bytes_reclaimed, 4 * whole);
        // One walk marks the retained pair and one walk sweeps each
        // retired version, each a `MetaGetBatch` per level.
        assert!(
            calls <= LEVELS * (1 + retired),
            "{calls} MetaGetBatch calls to collect {retired} versions"
        );
        for v in [5u64, 6] {
            let got = blob_ref
                .read_at(
                    p,
                    VersionId::new(v),
                    &ExtentList::single(ByteRange::new(0, whole)),
                )
                .unwrap();
            assert_eq!(got, vec![0x50 + v as u8; whole as usize]);
        }
    });
}

#[test]
fn a_lease_that_lapses_before_the_resolve_is_a_typed_error_over_tcp() {
    // A 200 ms lease, which `read_leased` renews (renewal never shortens
    // a lease), then resolves. In between, the lease lapses in wall time
    // and the collector reclaims the leased version: the resolve meets a
    // collected root, and the read reports the lapse, typed.
    let (_d, store, meta) = three_service_store(2, Backend::Memory);
    let blob = store.create_blob();
    let blob_ref = &blob;
    run_actors_on(&SimClock::new(), 1, |_, p| {
        four_whole_overwrites(blob_ref, p);
        let grant = blob_ref.lease_acquire(p, VersionId::new(1), 200).unwrap();
        let collector = blob_ref.clone();
        meta.arm(move || {
            std::thread::sleep(Duration::from_millis(300));
            let p = SimClock::new().register();
            let merged = GcCoordinator::new(collector).run_to_floor(&p).unwrap();
            assert_eq!(merged.lease_expirations, 1);
            assert_eq!(merged.report.versions_retired, 2);
        });
        let cache = blob_ref
            .node_cache()
            .expect("the default store caches nodes");
        let (resolves, lookups) = (meta.resolves(), cache.stats());
        let err = blob_ref
            .read_leased(
                p,
                &grant,
                200,
                &ExtentList::single(ByteRange::new(0, 2 * CHUNK)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            Error::LeaseExpired {
                lease: grant.lease,
                version: grant.version
            }
        );
        assert!(meta.hook.lock().unwrap().is_none(), "the hook ran");
        assert_eq!(meta.resolves() - resolves, 1, "one MetaResolve");
        assert_eq!(cache.stats(), lookups, "the client did not walk");
    });
}

#[test]
fn version_server_restart_preserves_leases_and_retention_on_disk() {
    let (d, store, _meta) = three_service_store(2, Backend::Disk);
    let blob = store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;

    // A per-blob policy *override* (KeepLast(3), not the server default)
    // plus a long-lived lease on v1: both must come back from the
    // publish log, not from server memory.
    let grant = run_actors_on(&clock, 1, move |_, p| {
        blob_ref
            .set_retention(p, RetentionPolicy::KeepLast(3))
            .unwrap();
        blob_ref
            .write(p, 0, Bytes::from(vec![0xA1; CHUNK as usize]))
            .unwrap();
        let grant = blob_ref
            .lease_acquire(p, VersionId::new(1), LEASE_TTL_MS)
            .unwrap();
        for fill in [0xA2u8, 0xA3, 0xA4, 0xA5, 0xA6] {
            blob_ref
                .write(p, 0, Bytes::from(vec![fill; CHUNK as usize]))
                .unwrap();
        }
        grant
    })
    .pop()
    .unwrap();

    // Hard-stop the version server, then rebuild a FRESH service from
    // the on-disk publish log. It carries the deployment default,
    // KeepLast(2), so a recovered KeepLast(3) and a recovered lease can
    // only have come off the disk.
    d.kill(Role::Version(0));
    run_actors_on(&clock, 1, move |_, p| {
        // Down means typed transport errors, never stale answers.
        assert!(matches!(
            blob_ref.latest(p).unwrap_err(),
            Error::Transport { .. }
        ));
    });
    d.restart_fresh(Role::Version(0));

    run_actors_on(&clock, 1, move |_, p| {
        // The recovered floor: KeepLast(3) would allow up to v4, the
        // recovered lease clamps to v1 — so a full drain retires nothing.
        let mut gc = GcCoordinator::new(blob_ref.clone());
        let merged = gc.run_to_floor(p).unwrap();
        assert_eq!(merged.leases_active, 1, "lease survived the crash");
        assert_eq!(merged.report.versions_retired, 0, "recovered lease pins v1");
        let leased = blob_ref
            .read_leased(
                p,
                &grant,
                LEASE_TTL_MS,
                &ExtentList::single(ByteRange::new(0, CHUNK)),
            )
            .unwrap();
        assert!(
            leased.iter().all(|&b| b == 0xA1),
            "v1 bit-exact via the lease"
        );

        // Releasing the recovered lease (by its pre-crash id!) hands the
        // floor to the recovered KeepLast(3): v1..v3 become collectable
        // (the default KeepLast(2) would free v4 too).
        blob_ref.lease_release(p, grant.lease).unwrap();
        let merged = gc.run_to_floor(p).unwrap();
        assert_eq!(
            merged.report.versions_retired, 3,
            "recovered KeepLast(3) governs the floor: {merged:?}"
        );
        assert!(blob_ref
            .read(p, 0, CHUNK)
            .unwrap()
            .iter()
            .all(|&b| b == 0xA6));
    });
}
