//! Transport equivalence: the same atomic-write workload must produce
//! identical observable state whether the store runs over the in-process
//! `Loopback` transport or real localhost TCP sockets (the multiplexed
//! `MuxTransport`, the one socket transport).
//!
//! The remote deployment is the in-process one of `common`: provider and
//! metadata services (the ones the `atomio-provider-server` /
//! `atomio-meta-server` binaries wrap) on ephemeral ports, reached
//! through `RemoteProvider` / `RemoteMetaStore` proxies over the socket
//! transport — the exact seam a real multi-host deployment uses. Every
//! test runs on the memory and the disk backend. Compared observables:
//! read-back bytes, version numbers, the full metadata node-key set, and
//! the `rpc.*` byte counters (both transports must account identical
//! wire totals for identical workloads).

mod common;

use atomio::core::{ReadVersion, Store, StoreConfig};
use atomio::meta::{LeafEntry, Node, NodeBody, NodeKey};
use atomio::provider::ChunkStore;
use atomio::rpc::{
    Loopback, MetaService, MuxTransport, ProviderService, RemoteProvider, RemoteVersionManager,
    Request, Response, RpcServer, Service, Transport, VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{Metrics, SimClock};
use atomio::types::tempdir::TempDir;
use atomio::types::{
    BlobId, ByteRange, ChunkId, Error, ExtentList, ProviderId, TransportErrorKind, VersionId,
};
use atomio::version::VersionOracle;
use bytes::Bytes;
use common::{backend_config, sorted_keys, Backend, Deployment, Layout, Role, Wire, BACKENDS};
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

/// One provider service per data provider — so the failover test can
/// kill an exact replica set — and one metadata service, reached over
/// `wire`; the version managers stay in the client.
fn deployment(wire: Wire, backend: Backend, providers: usize) -> Deployment {
    let layout = Layout {
        providers: true,
        meta: true,
        ..Layout::new(wire, backend)
    };
    Deployment::start(base_config(providers), layout)
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
    for backend in BACKENDS {
        let remote = deployment(Wire::Tcp, backend, 2);
        let store = remote.store();
        let blob = store.create_blob();
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
        remote.kill(Role::Provider(1));

        run_actors_on(&clock, 1, move |_, p| {
            let back = blob_ref.read_list(p, ReadVersion::Latest, ext_ref).unwrap();
            assert!(
                back.iter().all(|&b| b == 0xAB),
                "{backend:?}: reads fail over to the surviving replica"
            );
        });

        // The dead endpoint surfaces a *typed* transport error — the
        // signal the failover policy branches on.
        let proxy = RemoteProvider::new(ProviderId::new(1), remote.transport(Role::Provider(1)));
        let err = proxy
            .get_chunk_range_at(0, ChunkId::new(0), ByteRange::new(0, 1))
            .unwrap_err();
        use TransportErrorKind::*;
        assert!(
            matches!(
                err,
                Error::Transport {
                    kind: ConnectionRefused | ConnectionReset | Timeout,
                    ..
                }
            ),
            "{backend:?}: expected a typed transport error, got {err:?}"
        );
        remote.prove_arm(&store);
    }
}

#[test]
fn loopback_and_mux_produce_identical_state() {
    let loopback = Store::new(base_config(4));
    let (v_loop, bytes_loop, keys_loop, count_loop) = observe(&loopback);
    assert_eq!(v_loop, VersionId::new(5));

    for backend in BACKENDS {
        let remote = deployment(Wire::Tcp, backend, 4);
        let store = remote.store();
        let (v_mux, bytes_mux, keys_mux, count_mux) = observe(&store);

        assert_eq!(v_loop, v_mux, "{backend:?}: same version sequence");
        assert_eq!(
            bytes_loop, bytes_mux,
            "{backend:?}: bit-identical stored bytes"
        );
        assert_eq!(
            keys_loop, keys_mux,
            "{backend:?}: identical metadata node sets"
        );
        assert_eq!(count_loop, count_mux, "{backend:?}");
        remote.prove_arm(&store);
    }
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
    for backend in BACKENDS {
        // The same topology over in-process `Loopback` transports and
        // over sockets, each counting into its own registry.
        let loopback = deployment(Wire::Loopback, backend, 4);
        let mux = deployment(Wire::Tcp, backend, 4);
        let (loopback_store, mux_store) = (loopback.store(), mux.store());

        let state_loop = observe(&loopback_store);
        let state_mux = observe(&mux_store);
        assert_eq!(state_loop, state_mux, "{backend:?}");

        let totals_loop = wire_totals(&loopback.rpc);
        assert!(totals_loop.0 > 0, "workload produced RPC traffic");
        assert_eq!(
            totals_loop,
            wire_totals(&mux.rpc),
            "{backend:?}: mux must account the same messages and bytes as Loopback"
        );
        assert_eq!(loopback.rpc.counter("rpc.retries").get(), 0);
        assert_eq!(mux.rpc.counter("rpc.retries").get(), 0);
        loopback.prove_arm(&loopback_store);
        mux.prove_arm(&mux_store);
    }
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

/// A tri-service storing on `backend`, rooted in `tmp` when on disk.
fn tri_service(backend: Backend, tmp: &TempDir) -> Arc<TriService> {
    let backend = backend_config(backend, tmp.path());
    Arc::new(TriService {
        provider: ProviderService::with_backend(1, &backend).expect("open provider"),
        meta: MetaService::with_backend(2, &backend).expect("open meta"),
        versions: VersionService::with_backend(CHUNK, backend),
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
    for backend in BACKENDS {
        let m_loop = Metrics::new();
        let m_mux = Metrics::new();

        let loopback_dir = TempDir::new("atomio-stress-loopback");
        let loopback: Arc<dyn Transport> = Arc::new(
            Loopback::new(tri_service(backend, &loopback_dir)).with_metrics(m_loop.clone()),
        );
        let state_loop = mux_stress_state(&loopback);

        // The socket arm gets its own fresh tri-service: the stress
        // mutates server state, so the arms must not share a deployment.
        let mux_dir = TempDir::new("atomio-stress-mux");
        let mut mux_server = RpcServer::start("127.0.0.1:0", tri_service(backend, &mux_dir))
            .expect("bind tri server");
        let mux: Arc<dyn Transport> =
            Arc::new(MuxTransport::new(mux_server.local_addr()).with_metrics(m_mux.clone()));
        let state_mux = mux_stress_state(&mux);

        assert_eq!(
            state_loop, state_mux,
            "{backend:?}: node keys, node counts, version sequences or chunk bytes differ"
        );

        // And the byte accounting agrees even under 16-way interleaving
        // of chunk, metadata, and ticket-grant traffic.
        assert_eq!(wire_totals(&m_loop), wire_totals(&m_mux), "{backend:?}");
        assert!(
            m_mux.counter("rpc.inflight_peak").get() >= 2,
            "stress actually ran concurrent in-flight calls"
        );
        mux_server.stop();
        // Only the disk arm left publish logs behind.
        for dir in [&loopback_dir, &mux_dir] {
            assert_eq!(
                dir.path().join("version").exists(),
                backend == Backend::Disk,
                "{backend:?}"
            );
        }
    }
}

/// A service that answers slowly, so the fault test can guarantee calls
/// are in flight when the connection is severed.
#[derive(Debug)]
struct SlowPing;

impl Service for SlowPing {
    fn handle(&self, _request: Request, _payload: Bytes) -> (Response, Bytes) {
        std::thread::sleep(Duration::from_millis(120));
        (Response::Pong, Bytes::new())
    }
}

#[test]
fn severing_the_connection_fails_every_inflight_call_then_redials() {
    let mut server = RpcServer::start("127.0.0.1:0", Arc::new(SlowPing)).expect("bind server");
    let metrics = Metrics::new();
    let mux = Arc::new(MuxTransport::new(server.local_addr()).with_metrics(metrics.clone()));

    // Four concurrent calls share the transport's one connection.
    let results: Vec<Result<(Response, Bytes), Error>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mux = Arc::clone(&mux);
                s.spawn(move || mux.call(&Request::Ping, &[]))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(40)); // all four in flight
        mux.sever();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for result in &results {
        assert!(
            matches!(
                result,
                Err(Error::Transport {
                    kind: TransportErrorKind::ConnectionReset | TransportErrorKind::Timeout,
                    ..
                })
            ),
            "every in-flight call fails typed: {results:?}"
        );
    }
    assert_eq!(metrics.counter("rpc.pool_conns").get(), 1);

    // The next call redials, and every call after it is served.
    for _ in 0..5 {
        mux.call(&Request::Ping, &[]).unwrap();
    }
    assert_eq!(metrics.counter("rpc.pool_conns").get(), 2);
    server.stop();
}
