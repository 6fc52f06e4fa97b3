//! Transport equivalence: the same atomic-write workload must produce
//! identical observable state whether the store runs over the in-process
//! `Loopback` transport or real localhost TCP sockets (the multiplexed
//! `MuxTransport`, the one socket transport).
//!
//! The remote deployment spawns the RPC servers **in process** (same API
//! the `atomio-provider-server` / `atomio-meta-server` binaries wrap) on
//! ephemeral ports, assembles `RemoteProvider` / `RemoteMetaStore`
//! proxies over the socket transports, and funnels them into
//! `Store::with_substrates` — the exact seam a real multi-host
//! deployment uses. Compared observables: read-back bytes, version
//! numbers, the full metadata node-key set, and the `rpc.*` byte
//! counters (both transports must account identical wire totals for
//! identical workloads).

use atomio::core::{ReadVersion, Store, StoreConfig, TransportMode};
use atomio::meta::{LeafEntry, Node, NodeBody, NodeKey};
use atomio::provider::{chunk_store_for, ChunkStore, ProviderManager};
use atomio::rpc::{
    dial, Loopback, MetaService, MuxTransport, ProviderService, RemoteMetaStore, RemoteProvider,
    RemoteVersionManager, Request, Response, RpcConfig, RpcMode, RpcServer, Service, Transport,
    VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{CostModel, FaultInjector, Metrics, SimClock};
use atomio::types::tempdir::TempDir;
use atomio::types::{
    BackendConfig, BlobId, ByteRange, ChunkId, Error, ExtentList, ProviderId, TransportErrorKind,
    VersionId,
};
use atomio::version::VersionOracle;
use bytes::Bytes;
use std::sync::Arc;
use std::time::Duration;

const CHUNK: u64 = 16 * 1024;
const FILE: u64 = 128 * 1024;
const SEED: u64 = 0x7C9;

fn base_config(providers: usize) -> StoreConfig {
    StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK)
        .with_data_providers(providers)
        .with_meta_shards(2)
        .with_replication(2, 1)
        .with_seed(SEED)
}

/// The hosted services' storage backend: in-memory by default, durable
/// disk under `tmp` when `ATOMIO_DISK=1` — the equivalence suite then
/// doubles as a Memory-vs-Disk equivalence proof over real sockets.
fn env_backend(tmp: &TempDir) -> BackendConfig {
    if std::env::var("ATOMIO_DISK").ok().as_deref() == Some("1") {
        BackendConfig::disk(tmp.path())
    } else {
        BackendConfig::Memory
    }
}

/// One server-hosted chunk store over the chosen backend.
fn hosted_store(i: usize, backend: &BackendConfig) -> Arc<dyn ChunkStore> {
    chunk_store_for(
        backend,
        ProviderId::new(i as u64),
        CostModel::zero(),
        &Arc::new(FaultInjector::new(0)),
    )
    .expect("open hosted chunk store")
}

/// A remote store plus the live servers backing it. One provider server
/// per data provider, so the failover test can kill an exact replica set.
struct RemoteDeployment {
    provider_servers: Vec<RpcServer>,
    _meta_server: RpcServer,
    _tmp: TempDir,
    store: Store,
}

fn remote_store(providers: usize) -> RemoteDeployment {
    remote_store_with(providers, None)
}

fn remote_store_with(providers: usize, metrics: Option<Metrics>) -> RemoteDeployment {
    let config = base_config(providers).with_transport_mode(TransportMode::Tcp);
    let tmp = TempDir::new("atomio-transport");
    let backend = env_backend(&tmp);

    let mut provider_servers = Vec::new();
    let mut stores: Vec<Arc<dyn ChunkStore>> = Vec::new();
    for i in 0..providers {
        let server = RpcServer::start(
            "127.0.0.1:0",
            Arc::new(ProviderService::from_stores(vec![hosted_store(
                i, &backend,
            )])),
        )
        .expect("bind provider server");
        let transport = dial(
            server.local_addr(),
            RpcMode::Mux,
            RpcConfig::default(),
            metrics.clone(),
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
        metrics,
    );

    let manager = Arc::new(ProviderManager::from_stores(
        stores,
        config.allocation,
        Arc::new(FaultInjector::new(config.seed ^ 0xFA17)),
        config.seed,
    ));
    let meta = Arc::new(RemoteMetaStore::new(meta_transport));
    let store = Store::with_substrates(config, manager, meta);

    RemoteDeployment {
        provider_servers,
        _meta_server: meta_server,
        _tmp: tmp,
        store,
    }
}

/// The same topology as [`remote_store_with`] over in-process `Loopback`
/// transports: one hosted provider service per data provider plus one
/// meta service, all publishing into one metrics registry. The baseline
/// for the byte-counter parity check.
fn loopback_rpc_store(providers: usize, metrics: Metrics) -> Store {
    let config = base_config(providers);
    let mut stores: Vec<Arc<dyn ChunkStore>> = Vec::new();
    for i in 0..providers {
        let transport: Arc<dyn Transport> = Arc::new(
            Loopback::new(Arc::new(ProviderService::from_stores(vec![hosted_store(
                i,
                &BackendConfig::Memory,
            )])))
            .with_metrics(metrics.clone()),
        );
        stores.push(Arc::new(RemoteProvider::new(
            ProviderId::new(i as u64),
            transport,
        )));
    }
    let meta_transport: Arc<dyn Transport> = Arc::new(
        Loopback::new(Arc::new(MetaService::new(config.meta_shards))).with_metrics(metrics.clone()),
    );
    let manager = Arc::new(ProviderManager::from_stores(
        stores,
        config.allocation,
        Arc::new(FaultInjector::new(config.seed ^ 0xFA17)),
        config.seed,
    ));
    let meta = Arc::new(RemoteMetaStore::new(meta_transport));
    Store::with_substrates(config, manager, meta)
}

/// A deterministic single-writer history: overlapping extents, partial
/// chunks, a hole, and a self-overlapping list.
fn apply_history(blob: &atomio::core::Blob, p: &atomio::simgrid::Participant) {
    let w = |pairs: &[(u64, u64)], fill: u8| {
        let ext = ExtentList::from_pairs(pairs.iter().copied());
        let payload = Bytes::from(vec![fill; ext.total_len() as usize]);
        blob.write_list(p, &ext, payload).unwrap();
    };
    w(&[(0, 64 * 1024)], 0x11);
    w(&[(10_000, 5_000), (40_000, 12_345)], 0x22);
    w(&[(3_000, 1), (8_191, 2), (16_384, 4_096)], 0x33);
    w(&[(96 * 1024, 8 * 1024)], 0x44);
    w(&[(0, 30_000), (20_000, 30_000)], 0x55);
}

fn sorted_keys(keys: Vec<NodeKey>) -> Vec<NodeKey> {
    let mut keys = keys;
    keys.sort_by_key(|k| (k.blob, k.version, k.range.offset, k.range.len));
    keys
}

/// Runs the workload on one store and returns the observables.
fn observe(store: &Store) -> (VersionId, Vec<u8>, Vec<NodeKey>, usize) {
    let blob = store.create_blob();
    let clock = SimClock::new();
    // The history writes up to byte 104 KiB (96 KiB + 8 KiB tail).
    let full = ExtentList::single(ByteRange::new(0, 104 * 1024));
    let blob_ref = &blob;
    let full_ref = &full;
    let mut out = run_actors_on(&clock, 1, move |_, p| {
        apply_history(blob_ref, p);
        let latest = blob_ref.latest(p).unwrap();
        (
            latest.version,
            blob_ref
                .read_list(p, ReadVersion::Latest, full_ref)
                .unwrap(),
        )
    });
    let (version, bytes) = out.pop().unwrap();
    (
        version,
        bytes,
        sorted_keys(store.meta().list_keys()),
        store.meta().node_count(),
    )
}

#[test]
fn replicated_reads_survive_a_killed_server() {
    // Two providers, one per server, replication 2: every chunk lives on
    // both, so any single server death leaves a full copy.
    let mut remote = remote_store(2);
    let blob = remote.store.create_blob();
    let clock = SimClock::new();
    let extents = ExtentList::single(ByteRange::new(0, FILE));

    let blob_ref = &blob;
    let ext_ref = &extents;
    run_actors_on(&clock, 1, move |_, p| {
        let payload = Bytes::from(vec![0xAB; FILE as usize]);
        blob_ref.write_list(p, ext_ref, payload).unwrap();
        let back = blob_ref.read_list(p, ReadVersion::Latest, ext_ref).unwrap();
        assert!(back.iter().all(|&b| b == 0xAB), "pre-kill read intact");
    });

    // Kill provider server 1: its connections sever, its port closes.
    remote.provider_servers[1].stop();

    let blob_ref = &blob;
    let ext_ref = &extents;
    run_actors_on(&clock, 1, move |_, p| {
        let back = blob_ref.read_list(p, ReadVersion::Latest, ext_ref).unwrap();
        assert!(
            back.iter().all(|&b| b == 0xAB),
            "reads fail over to the surviving replica"
        );
    });

    // The dead endpoint surfaces a *typed* transport error — the signal
    // the failover policy branches on.
    let dead: Arc<dyn Transport> =
        Arc::new(MuxTransport::new(remote.provider_servers[1].local_addr()));
    let proxy = RemoteProvider::new(ProviderId::new(1), dead);
    let err = proxy
        .get_chunk_range_at(0, ChunkId::new(0), ByteRange::new(0, 1))
        .unwrap_err();
    match err {
        Error::Transport { kind, .. } => {
            use atomio::types::TransportErrorKind::*;
            assert!(matches!(
                kind,
                ConnectionRefused | ConnectionReset | Timeout
            ));
        }
        other => panic!("expected Error::Transport, got {other:?}"),
    }
}

#[test]
fn loopback_and_mux_produce_identical_state() {
    let loopback = Store::new(base_config(4));
    let remote = remote_store(4);

    let (v_loop, bytes_loop, keys_loop, count_loop) = observe(&loopback);
    let (v_mux, bytes_mux, keys_mux, count_mux) = observe(&remote.store);

    assert_eq!(v_loop, v_mux, "same version sequence");
    assert_eq!(bytes_loop, bytes_mux, "bit-identical stored bytes");
    assert_eq!(keys_loop, keys_mux, "identical metadata node sets");
    assert_eq!(count_loop, count_mux);
    assert_eq!(v_loop, VersionId::new(5));
    drop(remote);
}

/// Pulls the `rpc.*` accounting counters every transport must agree on.
fn wire_totals(metrics: &Metrics) -> (u64, u64, u64) {
    (
        metrics.counter("rpc.messages").get(),
        metrics.counter("rpc.bytes_tx").get(),
        metrics.counter("rpc.bytes_rx").get(),
    )
}

#[test]
fn transports_report_identical_byte_counters() {
    let m_loop = Metrics::new();
    let m_mux = Metrics::new();

    let loopback = loopback_rpc_store(4, m_loop.clone());
    let mux = remote_store_with(4, Some(m_mux.clone()));

    let state_loop = observe(&loopback);
    let state_mux = observe(&mux.store);
    assert_eq!(state_loop, state_mux);

    let totals_loop = wire_totals(&m_loop);
    assert!(totals_loop.0 > 0, "workload produced RPC traffic");
    assert_eq!(
        totals_loop,
        wire_totals(&m_mux),
        "mux must account the same messages and bytes as Loopback"
    );
    assert_eq!(m_loop.counter("rpc.retries").get(), 0);
    assert_eq!(m_mux.counter("rpc.retries").get(), 0);
}

/// One service hosting all three roles, so a single transport endpoint
/// can carry interleaved provider, metadata, **and** version traffic
/// (the mux stress workload below). Ticket-grant traffic routes to a
/// standalone [`VersionService`], the same service the
/// `atomio-version-server` binary wraps.
#[derive(Debug)]
struct TriService {
    provider: ProviderService,
    meta: MetaService,
    versions: VersionService,
}

impl Service for TriService {
    fn handle(&self, request: Request, payload: Bytes) -> (Response, Bytes) {
        use Request::*;
        // Every variant is named: a new request does not compile until
        // it is given a home here.
        let home: &dyn Service = match &request {
            PutChunk { .. }
            | PutChunkBatch { .. }
            | GetChunk { .. }
            | GetChunkRange { .. }
            | GetChunkRangeBatch { .. }
            | ProviderChunkCount { .. }
            | ProviderBytesStored { .. }
            | ProviderChecksumOf { .. }
            | ProviderEvictBatch { .. } => &self.provider,
            Ping
            | MetaPutBatch { .. }
            | MetaGetBatch { .. }
            | MetaEvictBatch { .. }
            | MetaListKeys
            | MetaResolve { .. } => &self.meta,
            VmTicket { .. }
            | VmTicketAppend { .. }
            | VmPublish { .. }
            | VmIsPublished { .. }
            | VmLatest { .. }
            | VmSnapshot { .. }
            | VmSetRetention { .. }
            | VmLeaseAcquire { .. }
            | VmLeaseRenew { .. }
            | VmLeaseRelease { .. }
            | VmGcFloor { .. } => &self.versions,
        };
        home.handle(request, payload)
    }
}

fn tri_service() -> Arc<TriService> {
    Arc::new(TriService {
        provider: ProviderService::new(1),
        meta: MetaService::new(2),
        versions: VersionService::new(CHUNK),
    })
}

const STRESS_THREADS: u64 = 16;
const STRESS_OPS: u64 = 6;

fn stress_chunk(t: u64, i: u64) -> (ChunkId, Vec<u8>) {
    (
        ChunkId::new(t * 1000 + i),
        vec![(t * 31 + i) as u8; 1024 + i as usize * 17],
    )
}

fn stress_node(t: u64, i: u64) -> Node {
    let key = NodeKey::new(
        BlobId::new(t + 1),
        VersionId::new(i + 1),
        ByteRange::new(i * 64, 64),
    );
    Node {
        key,
        body: NodeBody::Leaf {
            entries: vec![LeafEntry {
                file_range: ByteRange::new(i * 64, 64),
                chunk: stress_chunk(t, i).0,
                chunk_offset: 0,
                homes: vec![ProviderId::new(0)],
            }],
            backlink: None,
        },
    }
}

/// 16 threads issue interleaved provider + metadata + version calls
/// through ONE shared transport, then the final state is read out
/// single-threaded: node-key set, node count, per-blob latest version,
/// and every chunk's bytes.
fn mux_stress_state(
    transport: &Arc<dyn Transport>,
) -> (Vec<NodeKey>, usize, Vec<VersionId>, Vec<Vec<u8>>) {
    std::thread::scope(|s| {
        for t in 0..STRESS_THREADS {
            let transport = Arc::clone(transport);
            s.spawn(move || {
                let provider = RemoteProvider::new(ProviderId::new(0), Arc::clone(&transport));
                let vm = RemoteVersionManager::new(t + 1, Arc::clone(&transport));
                let p = SimClock::new().register();
                for i in 0..STRESS_OPS {
                    let (chunk, body) = stress_chunk(t, i);
                    provider
                        .put_chunk_at(0, chunk, Bytes::from(body.clone()))
                        .unwrap();
                    let (back, _) = provider
                        .get_chunk_range_at(0, chunk, ByteRange::new(0, body.len() as u64))
                        .unwrap();
                    assert_eq!(back.as_ref(), &body[..], "thread {t} op {i} chunk echo");

                    let node = stress_node(t, i);
                    let key = node.key;
                    match transport
                        .call(
                            &Request::MetaPutBatch {
                                nodes: vec![node.clone()],
                            },
                            &[],
                        )
                        .unwrap()
                    {
                        (Response::NodePuts { results }, _) => {
                            assert!(results.iter().all(|r| r.is_ok()))
                        }
                        (other, _) => panic!("expected NodePuts, got {other:?}"),
                    }
                    match transport
                        .call(&Request::MetaGetBatch { keys: vec![key] }, &[])
                        .unwrap()
                    {
                        (Response::NodeGets { results }, _) => {
                            assert_eq!(results[0].as_ref().unwrap(), &node)
                        }
                        (other, _) => panic!("expected NodeGets, got {other:?}"),
                    }

                    let (ticket, _) = vm.ticket_append(&p, 64).unwrap();
                    vm.publish(&p, ticket, key).unwrap();
                }
                assert_eq!(vm.latest(&p).unwrap().version, VersionId::new(STRESS_OPS));
            });
        }
    });

    let keys = match transport.call(&Request::MetaListKeys, &[]).unwrap() {
        (Response::Keys { keys }, _) => sorted_keys(keys),
        (other, _) => panic!("expected Keys, got {other:?}"),
    };
    let count = keys.len();
    let provider = RemoteProvider::new(ProviderId::new(0), Arc::clone(transport));
    let p = SimClock::new().register();
    let mut latest = Vec::new();
    let mut chunks = Vec::new();
    for t in 0..STRESS_THREADS {
        latest.push(
            RemoteVersionManager::new(t + 1, Arc::clone(transport))
                .latest(&p)
                .unwrap()
                .version,
        );
        for i in 0..STRESS_OPS {
            let (chunk, body) = stress_chunk(t, i);
            let (data, _) = provider
                .get_chunk_range_at(0, chunk, ByteRange::new(0, body.len() as u64))
                .unwrap();
            chunks.push(data.to_vec());
        }
    }
    (keys, count, latest, chunks)
}

#[test]
fn mux_stress_matches_loopback_bit_for_bit() {
    let m_loop = Metrics::new();
    let m_mux = Metrics::new();

    let loopback: Arc<dyn Transport> =
        Arc::new(Loopback::new(tri_service()).with_metrics(m_loop.clone()));
    let state_loop = mux_stress_state(&loopback);

    // The socket arm gets its own fresh tri-service: the stress mutates
    // server state, so the arms must not share a deployment.
    let mut mux_server = RpcServer::start("127.0.0.1:0", tri_service()).expect("bind tri server");
    let mux: Arc<dyn Transport> =
        Arc::new(MuxTransport::new(mux_server.local_addr()).with_metrics(m_mux.clone()));
    let state_mux = mux_stress_state(&mux);

    assert_eq!(state_loop.0, state_mux.0, "identical node-key sets");
    assert_eq!(state_loop.1, state_mux.1, "identical node counts");
    assert_eq!(state_loop.2, state_mux.2, "identical version sequences");
    assert_eq!(state_loop.3, state_mux.3, "bit-identical chunk bytes");

    // And the byte accounting agrees even under 16-way interleaving of
    // chunk, metadata, and ticket-grant traffic.
    assert_eq!(wire_totals(&m_loop), wire_totals(&m_mux));
    assert!(
        m_mux.counter("rpc.inflight_peak").get() >= 2,
        "stress actually ran concurrent in-flight calls"
    );
    mux_server.stop();
}

/// A service that answers slowly, so the fault test can guarantee calls
/// are in flight when a pool connection is severed.
#[derive(Debug)]
struct SlowPing;

impl Service for SlowPing {
    fn handle(&self, _request: Request, _payload: Bytes) -> (Response, Bytes) {
        std::thread::sleep(Duration::from_millis(120));
        (Response::Pong, Bytes::new())
    }
}

#[test]
fn killing_one_pool_connection_fails_only_inflight_calls() {
    let mut server = RpcServer::start("127.0.0.1:0", Arc::new(SlowPing)).expect("bind server");
    // One stream per pool member: the four concurrent calls are forced
    // onto four distinct connections (slot reservation is atomic, so
    // racing callers can never share a capped slot).
    let cfg = RpcConfig {
        mux_streams_per_conn: 1,
        ..RpcConfig::default()
    };
    let mux = Arc::new(MuxTransport::with_config(server.local_addr(), cfg));
    assert_eq!(mux.pool_size(), 4);

    // First-fit under the 1-stream cap: the first four concurrent calls
    // land on pool slots 0..3, one in-flight call per connection.
    let results: Vec<Result<(Response, Bytes), Error>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mux = Arc::clone(&mux);
                s.spawn(move || mux.call(&Request::Ping, &[]))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(40)); // all four in flight
        mux.sever_conn(0);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let failed: Vec<&Error> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(
        failed.len(),
        1,
        "exactly the severed member's in-flight call fails: {results:?}"
    );
    assert!(
        matches!(
            failed[0],
            Error::Transport {
                kind: TransportErrorKind::ConnectionReset | TransportErrorKind::Timeout,
                ..
            }
        ),
        "typed transport error, got {:?}",
        failed[0]
    );

    // The dead slot redials transparently: sequential calls first-fit
    // onto slot 0 — the severed member — and every one succeeds.
    for _ in 0..5 {
        mux.call(&Request::Ping, &[]).unwrap();
    }
    server.stop();
}
