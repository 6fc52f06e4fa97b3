//! Logged-mode equivalence: a store whose writes are absorbed by the
//! host-side write-ahead log and drained asynchronously must converge to
//! **bit-identical** state — bytes, version chain, metadata node sets —
//! as a Direct-mode store replaying the same writes serially in the
//! log's append order. That replay IS the serialization witness: the
//! drainer tickets in append order, so the version oracle observes the
//! exact sequence the application saw.
//!
//! Arms: Loopback and the full three-service TCP/mux deployment, the
//! checkpoint (halo-overlap slab) and tile (ghost-cell overlap)
//! workloads, plus a mid-drain version-server kill → typed transport
//! errors → restart → the drain completes with **no hole**.

use atomio::core::{CommitMode, ReadVersion, Store, StoreConfig, TransportMode};
use atomio::meta::NodeKey;
use atomio::provider::{chunk_store_for, ChunkStore, ProviderManager};
use atomio::rpc::{
    dial, MetaService, ProviderService, RemoteMetaStore, RemoteProvider, RemoteVersionManager,
    RpcConfig, RpcMode, RpcServer, Service, VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{CostModel, FaultInjector, SimClock};
use atomio::types::stamp::WriteStamp;
use atomio::types::tempdir::TempDir;
use atomio::types::{
    BackendConfig, ByteRange, ClientId, Error, ExtentList, ProviderId, TransportErrorKind,
    VersionId,
};
use atomio::workloads::{CheckpointWorkload, TileWorkload};
use bytes::Bytes;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;

const CHUNK: u64 = 4096;
const SEED: u64 = 0xD157;

fn base_config(providers: usize) -> StoreConfig {
    StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK)
        .with_data_providers(providers)
        .with_meta_shards(2)
        .with_replication(2, 1)
        .with_seed(SEED)
}

/// A full three-service deployment (provider, meta, version servers on
/// ephemeral localhost ports) whose store runs in the given commit mode.
struct ThreeServiceDeployment {
    _provider_servers: Vec<RpcServer>,
    _meta_server: RpcServer,
    version_server: RpcServer,
    version_service: Arc<VersionService>,
    version_addr: SocketAddr,
    _tmp: TempDir,
    store: Store,
}

/// The hosted services' storage backend: in-memory by default, durable
/// disk under `tmp` when `ATOMIO_DISK=1`, so the logged-mode
/// equivalence proof also runs over recovered-capable substrates.
fn env_backend(tmp: &TempDir) -> BackendConfig {
    if std::env::var("ATOMIO_DISK").ok().as_deref() == Some("1") {
        BackendConfig::disk(tmp.path())
    } else {
        BackendConfig::Memory
    }
}

fn three_service_store(providers: usize, commit: CommitMode) -> ThreeServiceDeployment {
    let config = base_config(providers)
        .with_transport_mode(TransportMode::Tcp)
        .with_commit_mode(commit);
    let tmp = TempDir::new("atomio-wal");
    let backend = env_backend(&tmp);

    let mut provider_servers = Vec::new();
    let mut stores: Vec<Arc<dyn ChunkStore>> = Vec::new();
    for i in 0..providers {
        let hosted = chunk_store_for(
            &backend,
            ProviderId::new(i as u64),
            CostModel::zero(),
            &Arc::new(FaultInjector::new(0)),
        )
        .expect("open hosted chunk store");
        let server = RpcServer::start(
            "127.0.0.1:0",
            Arc::new(ProviderService::from_stores(vec![hosted])),
        )
        .expect("bind provider server");
        let transport = dial(
            server.local_addr(),
            RpcMode::Mux,
            RpcConfig::default(),
            None,
        );
        stores.push(Arc::new(RemoteProvider::new(
            ProviderId::new(i as u64),
            transport,
        )));
        provider_servers.push(server);
    }

    let meta_server = RpcServer::start(
        "127.0.0.1:0",
        Arc::new(
            MetaService::with_backend(config.meta_shards, &backend).expect("open meta service"),
        ),
    )
    .expect("bind meta server");
    let meta_transport = dial(
        meta_server.local_addr(),
        RpcMode::Mux,
        RpcConfig::default(),
        None,
    );

    let version_service = Arc::new(VersionService::with_backend(CHUNK, backend.clone()));
    let version_server = RpcServer::start(
        "127.0.0.1:0",
        Arc::clone(&version_service) as Arc<dyn Service>,
    )
    .expect("bind version server");
    let version_addr = version_server.local_addr();
    let version_transport = dial(version_addr, RpcMode::Mux, RpcConfig::default(), None);

    let manager = Arc::new(ProviderManager::from_stores(
        stores,
        config.allocation,
        Arc::new(FaultInjector::new(config.seed ^ 0xFA17)),
        config.seed,
    ));
    let meta = Arc::new(RemoteMetaStore::new(meta_transport));
    let store = Store::with_substrates(config, manager, meta).with_version_oracles(move |blob| {
        Arc::new(RemoteVersionManager::new(
            blob.raw(),
            Arc::clone(&version_transport),
        ))
    });

    ThreeServiceDeployment {
        _provider_servers: provider_servers,
        _meta_server: meta_server,
        version_server,
        version_service,
        _tmp: tmp,
        version_addr,
        store,
    }
}

fn sorted_keys(keys: Vec<NodeKey>) -> Vec<NodeKey> {
    let mut keys = keys;
    keys.sort_by_key(|k| (k.blob, k.version, k.range.offset, k.range.len));
    keys
}

/// The equivalence observables of a store after a run: latest version,
/// full dataset bytes, and the metadata node-key set.
type Observables = (VersionId, Vec<u8>, Vec<NodeKey>, usize);

fn observe(store: &Store, blob: &atomio::core::Blob, clock: &SimClock, bytes: u64) -> Observables {
    let (version, state) = run_actors_on(clock, 1, |_, p| {
        (
            blob.latest(p).unwrap().version,
            blob.read_list(
                p,
                ReadVersion::Latest,
                &ExtentList::single(ByteRange::new(0, bytes)),
            )
            .unwrap(),
        )
    })
    .pop()
    .unwrap();
    (
        version,
        state,
        sorted_keys(store.meta().list_keys()),
        store.meta().node_count(),
    )
}

/// One write of a workload run: who wrote what.
#[derive(Clone)]
struct LoggedWrite {
    stamp: WriteStamp,
    extents: ExtentList,
}

/// Runs `per_rank` write sequences concurrently against a Logged-mode
/// blob, then drains the log serially. Returns the observables plus the
/// writes ordered by their predicted (= granted) versions — the log's
/// append order, i.e. the serialization witness.
fn run_logged(
    store: &Store,
    per_rank: &[Vec<LoggedWrite>],
    total_bytes: u64,
) -> (Observables, Vec<LoggedWrite>) {
    let blob = store.create_blob();
    let clock = SimClock::new();
    let order: Mutex<Vec<(u64, LoggedWrite)>> = Mutex::new(Vec::new());

    // Phase 1: concurrent appends. No drainer runs yet, so the log holds
    // the whole burst — every ack is a pure host-memory append.
    let blob_ref = &blob;
    let order_ref = &order;
    run_actors_on(&clock, per_rank.len(), |rank, p| {
        for w in &per_rank[rank] {
            let payload = Bytes::from(w.stamp.payload_for(&w.extents));
            let v = blob_ref.write_list(p, &w.extents, payload).unwrap();
            order_ref.lock().push((v.raw(), w.clone()));
        }
    });

    // Phase 2: drain to completion.
    let wal = blob.wal().expect("Logged store has a WAL");
    let expected = wal.depth() as u64;
    wal.close();
    let drained = run_actors_on(&clock, 1, |_, p| blob_ref.wal_drain(p).unwrap())
        .pop()
        .unwrap();
    assert_eq!(drained, expected, "every logged entry drained");
    assert!(wal.first_drain_error().is_none());

    let mut order = order.into_inner();
    order.sort_by_key(|(v, _)| *v);
    // Predicted versions are exactly 1..=n: dense, no holes.
    let versions: Vec<u64> = order.iter().map(|(v, _)| *v).collect();
    assert_eq!(versions, (1..=order.len() as u64).collect::<Vec<_>>());

    let obs = observe(store, &blob, &clock, total_bytes);
    (obs, order.into_iter().map(|(_, w)| w).collect())
}

/// Replays `writes` serially, in order, against a Direct-mode blob.
fn run_direct_serial(store: &Store, writes: &[LoggedWrite], total_bytes: u64) -> Observables {
    let blob = store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;
    run_actors_on(&clock, 1, |_, p| {
        for (k, w) in writes.iter().enumerate() {
            let payload = Bytes::from(w.stamp.payload_for(&w.extents));
            let v = blob_ref.write_list(p, &w.extents, payload).unwrap();
            assert_eq!(v, VersionId::new(k as u64 + 1));
        }
    });
    observe(store, &blob, &clock, total_bytes)
}

fn checkpoint_writes(iters: u64) -> (Vec<Vec<LoggedWrite>>, u64) {
    // 4 ranks × 512 cells × 16 B with a 32-cell halo: neighbouring slabs
    // overlap, so drain order decides the halo bytes.
    let w = CheckpointWorkload::new(4, 512, 16, 32);
    assert!(w.has_overlap());
    let per_rank = (0..w.ranks)
        .map(|r| {
            (0..iters)
                .map(|iter| LoggedWrite {
                    stamp: WriteStamp::new(ClientId::new(r as u64), iter),
                    extents: w.extents_for(r),
                })
                .collect()
        })
        .collect();
    (per_rank, w.file_bytes())
}

fn tile_writes() -> (Vec<Vec<LoggedWrite>>, u64) {
    // 9 ranks of ghost-extended tiles: non-contiguous extent lists
    // overlapping each rank's 4-neighbourhood.
    let w = TileWorkload::new(3, 3, 8, 8, 16, 2, 2);
    assert!(w.has_overlap());
    let per_rank = (0..w.processes())
        .map(|r| {
            vec![LoggedWrite {
                stamp: WriteStamp::new(ClientId::new(r as u64), 1),
                extents: w.extents_for(r),
            }]
        })
        .collect();
    (per_rank, w.dataset_bytes())
}

#[test]
fn logged_drains_bit_identical_to_direct_loopback() {
    for (per_rank, bytes) in [checkpoint_writes(2), tile_writes()] {
        let logged_store = Store::new(base_config(4).with_commit_mode(CommitMode::Logged));
        let (logged_obs, witness) = run_logged(&logged_store, &per_rank, bytes);

        let direct_store = Store::new(base_config(4));
        let direct_obs = run_direct_serial(&direct_store, &witness, bytes);

        assert_eq!(logged_obs.0, direct_obs.0, "same version chain");
        assert_eq!(logged_obs.1, direct_obs.1, "bit-identical bytes");
        assert_eq!(logged_obs.2, direct_obs.2, "identical node-key sets");
        assert_eq!(logged_obs.3, direct_obs.3, "identical node counts");
    }
}

#[test]
fn logged_drains_bit_identical_over_tcp_mux() {
    let (per_rank, bytes) = checkpoint_writes(2);
    let remote = three_service_store(4, CommitMode::Logged);
    let (logged_obs, witness) = run_logged(&remote.store, &per_rank, bytes);

    let direct_store = Store::new(base_config(4));
    let direct_obs = run_direct_serial(&direct_store, &witness, bytes);

    assert_eq!(
        logged_obs, direct_obs,
        "TCP Logged drain must match the Loopback Direct replay"
    );
}

#[test]
fn mid_drain_version_server_kill_leaves_no_hole() {
    let mut d = three_service_store(2, CommitMode::Logged);
    let blob = d.store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;

    // Absorb a burst of three writes and drain only the first.
    run_actors_on(&clock, 1, |_, p| {
        for k in 0..3u64 {
            let v = blob_ref
                .write(p, k * CHUNK, Bytes::from(vec![k as u8 + 1; CHUNK as usize]))
                .unwrap();
            assert_eq!(v, VersionId::new(k + 1), "acked before any drain");
        }
        assert_eq!(blob_ref.wal_drain_one(p).unwrap(), Some(VersionId::new(1)));
    });
    let wal = blob.wal().unwrap();
    assert_eq!(wal.depth(), 2);

    // Kill the version server mid-drain: the next replay dies *typed*
    // at the ticket leg, and the entry stays in the log.
    d.version_server.stop();
    run_actors_on(&clock, 1, |_, p| {
        let err = blob_ref.wal_drain_one(p).unwrap_err();
        match err {
            Error::Transport { kind, .. } => {
                use TransportErrorKind::*;
                assert!(matches!(
                    kind,
                    ConnectionRefused | ConnectionReset | Timeout
                ));
            }
            other => panic!("expected Error::Transport, got {other:?}"),
        }
    });
    assert_eq!(wal.depth(), 2, "failed replay retains the entry");

    // Restart the server shell around the surviving service state and
    // finish the drain: both remaining entries replay, in order.
    d.version_server = RpcServer::start(
        d.version_addr,
        Arc::clone(&d.version_service) as Arc<dyn Service>,
    )
    .expect("rebind version server");
    wal.close();
    run_actors_on(&clock, 1, |_, p| {
        assert_eq!(blob_ref.wal_drain(p).unwrap(), 2);
        blob_ref.wal_sync(p).unwrap();
        // No hole: versions 1..=3 all published, bytes intact.
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(3));
        for k in 0..3u64 {
            let back = blob_ref.read(p, k * CHUNK, CHUNK).unwrap();
            assert!(
                back.iter().all(|&b| b == k as u8 + 1),
                "entry {k} drained intact across the crash"
            );
        }
    });
    assert_eq!(wal.depth(), 0);
    assert!(wal.first_drain_error().is_none());
}
