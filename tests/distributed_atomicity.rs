//! Three-service distributed atomicity: the full deployment the paper's
//! architecture calls for — data providers, metadata shards, and the
//! version manager each behind their own RPC server — must give N
//! concurrent overlapping non-contiguous writers exactly the atomic
//! semantics the in-process store gives them.
//!
//! The harness boots all three server roles in process (the same API
//! the `atomio-provider-server` / `atomio-meta-server` /
//! `atomio-version-server` binaries wrap) on ephemeral localhost ports,
//! assembles the store from `RemoteProvider` / `RemoteMetaStore` /
//! `RemoteVersionManager` proxies, and checks three things:
//!
//! 1. **Serializability**: every overlapped byte of the final dataset is
//!    consistent with ONE serial order of the writers (the
//!    `check_serializable` witness), and replaying that order reproduces
//!    the dataset bit for bit.
//! 2. **Deployment equivalence**: version sequence, stored bytes, and
//!    the metadata node-key set are bit-identical to the Loopback run.
//! 3. **Fault atomicity**: killing the version server mid-commit or
//!    severing a mux pool member yields *typed* transport errors, and a
//!    granted-but-unpublished version is never readable — before or
//!    after the server restarts (snapshot isolation across a crash).

use atomio::core::{ReadVersion, Store, StoreConfig, TransportMode};
use atomio::meta::NodeKey;
use atomio::provider::{chunk_store_for, ChunkStore, ProviderManager};
use atomio::rpc::{
    dial, MetaService, MuxTransport, ProviderService, RemoteMetaStore, RemoteProvider,
    RemoteVersionManager, Request, Response, RpcConfig, RpcMode, RpcServer, Service,
    SlotRoutedTransport, Transport, VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{CostModel, FaultInjector, SimClock};
use atomio::types::stamp::WriteStamp;
use atomio::types::tempdir::TempDir;
use atomio::types::{
    BackendConfig, BlobId, ByteRange, ClientId, Error, ExtentList, ProviderId, TransportErrorKind,
    VersionId,
};
use atomio::version::VersionOracle;
use atomio::workloads::verify::{check_serializable, replay, WriteRecord};
use atomio::workloads::TileWorkload;
use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

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

/// The storage backend the hosted services run on: in-memory by
/// default, or the durable disk backend rooted in `tmp` when
/// `ATOMIO_DISK=1` (a re-run row of `scripts/verify.sh`), proving
/// deployment equivalence holds over real part files too.
fn env_backend(tmp: &TempDir) -> BackendConfig {
    if std::env::var("ATOMIO_DISK").ok().as_deref() == Some("1") {
        BackendConfig::disk(tmp.path())
    } else {
        BackendConfig::Memory
    }
}

/// How many version-service shards the deployment runs: 1 by default
/// (the single-oracle deployment this suite has always tested), or N
/// under `ATOMIO_SHARDS=N` (a re-run row of `scripts/verify.sh`) —
/// every assertion must hold bit for bit when version traffic is
/// hash-slot-routed across N `--shard i/N` servers.
fn env_shards() -> usize {
    std::env::var("ATOMIO_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n > 0)
        .unwrap_or(1)
}

/// One server-hosted chunk store over the deployment's backend.
fn hosted_store(i: usize, backend: &BackendConfig) -> Arc<dyn ChunkStore> {
    chunk_store_for(
        backend,
        ProviderId::new(i as u64),
        CostModel::zero(),
        &Arc::new(FaultInjector::new(0)),
    )
    .expect("open hosted chunk store")
}

/// The full three-service deployment plus the live servers backing it.
/// The version service `Arc` is kept so crash tests can restart the
/// server shell around the surviving state; the backend and listen
/// addresses are kept so disk crash tests can rebuild *fresh* services
/// from the on-disk state at the same endpoints.
struct ThreeServiceDeployment {
    provider_servers: Vec<RpcServer>,
    meta_server: RpcServer,
    version_servers: Vec<RpcServer>,
    version_services: Vec<Arc<VersionService>>,
    provider_addrs: Vec<SocketAddr>,
    meta_addr: SocketAddr,
    version_addrs: Vec<SocketAddr>,
    backend: BackendConfig,
    _tmp: TempDir,
    store: Store,
}

/// One version-service shard over the deployment's backend:
/// ownership-checked under a sharded deployment, unchecked when the
/// fleet is a single server. Shards share the backend directory — each
/// blob's publish log is only ever touched by the shard owning its slot.
fn hosted_version_service(i: usize, of: usize, backend: &BackendConfig) -> Arc<VersionService> {
    let mut service = VersionService::with_backend(CHUNK, backend.clone());
    if of > 1 {
        service = service.with_shard(i, of);
    }
    Arc::new(service)
}

/// The client-side version transport for a shard fleet: the plain
/// transport for one server, a slot-routed fan-out for several.
fn version_transport_for(addrs: &[SocketAddr]) -> Arc<dyn Transport> {
    if addrs.len() == 1 {
        dial(addrs[0], RpcMode::Mux, RpcConfig::default(), None)
    } else {
        Arc::new(SlotRoutedTransport::new(
            addrs
                .iter()
                .map(|a| dial(*a, RpcMode::Mux, RpcConfig::default(), None))
                .collect(),
        ))
    }
}

impl ThreeServiceDeployment {
    /// Hard-drops every server of all three roles: sockets sever,
    /// in-flight calls die typed, and (on a disk backend) only what the
    /// fsync policy made durable survives.
    fn kill_all(&mut self) {
        for s in &mut self.provider_servers {
            s.stop();
        }
        self.meta_server.stop();
        self.stop_version_servers();
    }

    /// Hard-drops every version-service shard.
    fn stop_version_servers(&mut self) {
        for s in &mut self.version_servers {
            s.stop();
        }
    }

    /// Rebinds each shard's server shell on its original port around the
    /// surviving service state (std listeners set SO_REUSEADDR, so the
    /// rebind does not race lingering TIME_WAIT connections).
    fn rebind_version_servers(&mut self) {
        for (i, addr) in self.version_addrs.clone().into_iter().enumerate() {
            self.version_servers[i] = RpcServer::start(
                addr,
                Arc::clone(&self.version_services[i]) as Arc<dyn Service>,
            )
            .expect("rebind version server");
        }
    }

    /// A fresh client transport to the version fleet (slot-routed when
    /// the deployment is sharded), for tests that talk to the version
    /// service outside the store's oracle seam.
    fn dial_version(&self) -> Arc<dyn Transport> {
        version_transport_for(&self.version_addrs)
    }

    /// Rebuilds *fresh* service instances from the backend's directories
    /// — the crash-recovery path, not a warm restart around surviving
    /// in-memory `Arc`s — and rebinds them on the original addresses so
    /// the still-alive client store reconnects transparently.
    fn restart_fresh(&mut self) {
        let shards = self.store.config().meta_shards;
        for (i, addr) in self.provider_addrs.clone().into_iter().enumerate() {
            let service = Arc::new(ProviderService::from_stores(vec![hosted_store(
                i,
                &self.backend,
            )]));
            self.provider_servers[i] =
                RpcServer::start(addr, service).expect("rebind provider server");
        }
        self.meta_server = RpcServer::start(
            self.meta_addr,
            Arc::new(
                MetaService::with_backend(shards, &self.backend).expect("recover meta service"),
            ),
        )
        .expect("rebind meta server");
        let fleet = self.version_services.len();
        for (i, addr) in self.version_addrs.clone().into_iter().enumerate() {
            self.version_services[i] = hosted_version_service(i, fleet, &self.backend);
            self.version_servers[i] = RpcServer::start(
                addr,
                Arc::clone(&self.version_services[i]) as Arc<dyn Service>,
            )
            .expect("rebind version server");
        }
    }
}

fn three_service_store(providers: usize) -> ThreeServiceDeployment {
    let tmp = TempDir::new("atomio-dist");
    let backend = env_backend(&tmp);
    three_service_store_on(providers, backend, tmp)
}

fn three_service_store_on(
    providers: usize,
    backend: BackendConfig,
    tmp: TempDir,
) -> ThreeServiceDeployment {
    let config = base_config(providers).with_transport_mode(TransportMode::Tcp);

    let mut provider_servers = Vec::new();
    let mut provider_addrs = Vec::new();
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
            None,
        );
        stores.push(Arc::new(RemoteProvider::new(
            ProviderId::new(i as u64),
            transport,
        )));
        provider_addrs.push(server.local_addr());
        provider_servers.push(server);
    }

    let meta_server = RpcServer::start(
        "127.0.0.1:0",
        Arc::new(
            MetaService::with_backend(config.meta_shards, &backend).expect("open meta service"),
        ),
    )
    .expect("bind meta server");
    let meta_addr = meta_server.local_addr();
    let meta_transport = dial(meta_addr, RpcMode::Mux, RpcConfig::default(), None);

    let fleet = env_shards();
    let mut version_services = Vec::new();
    let mut version_servers = Vec::new();
    let mut version_addrs = Vec::new();
    for i in 0..fleet {
        let service = hosted_version_service(i, fleet, &backend);
        let server = RpcServer::start("127.0.0.1:0", Arc::clone(&service) as Arc<dyn Service>)
            .expect("bind version server");
        version_addrs.push(server.local_addr());
        version_services.push(service);
        version_servers.push(server);
    }
    let version_transport = version_transport_for(&version_addrs);

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
        provider_servers,
        meta_server,
        version_servers,
        version_services,
        provider_addrs,
        meta_addr,
        version_addrs,
        backend,
        _tmp: tmp,
        store,
    }
}

fn sorted_keys(keys: Vec<NodeKey>) -> Vec<NodeKey> {
    let mut keys = keys;
    keys.sort_by_key(|k| (k.blob, k.version, k.range.offset, k.range.len));
    keys
}

/// Drives one tile round: every rank writes its ghost-extended tile —
/// a non-contiguous extent list overlapping its neighbours' — as one
/// atomic list-write, then the final dataset is read out along with the
/// equivalence observables.
fn run_overlapping_writers(
    store: &Store,
    workload: &TileWorkload,
) -> (VersionId, Vec<u8>, Vec<NodeKey>, usize, Vec<WriteRecord>) {
    let blob = store.create_blob();
    let clock = SimClock::new();
    let ranks = workload.processes();
    let stamps: Vec<WriteStamp> = (0..ranks)
        .map(|r| WriteStamp::new(ClientId::new(r as u64), 1))
        .collect();
    let extents: Vec<ExtentList> = (0..ranks).map(|r| workload.extents_for(r)).collect();

    let blob_ref = &blob;
    let stamps_ref = &stamps;
    let extents_ref = &extents;
    run_actors_on(&clock, ranks, move |rank, p| {
        let payload = Bytes::from(stamps_ref[rank].payload_for(&extents_ref[rank]));
        let v = blob_ref.write_list(p, &extents_ref[rank], payload).unwrap();
        // An acknowledged write is visible when it returns. On the
        // socket deployments this asks the version service itself, not
        // the client's mirror.
        assert!(
            blob_ref.version_manager().is_published(v).unwrap(),
            "rank {rank}: {v} acknowledged but not published"
        );
    });

    let full = ExtentList::single(ByteRange::new(0, workload.dataset_bytes()));
    let full_ref = &full;
    let (version, state) = run_actors_on(&clock, 1, move |_, p| {
        (
            blob_ref.latest(p).unwrap().version,
            blob_ref
                .read_list(p, ReadVersion::Latest, full_ref)
                .unwrap(),
        )
    })
    .pop()
    .unwrap();

    let writes = (0..ranks)
        .map(|r| WriteRecord::new(stamps[r], extents[r].clone()))
        .collect();
    (
        version,
        state,
        sorted_keys(store.meta().list_keys()),
        store.meta().node_count(),
        writes,
    )
}

#[test]
fn overlapping_writers_serialize_identically_across_deployments() {
    // 9 writers, each an 8x8 tile of 16-byte elements with a 2-element
    // ghost border: every rank's extent list is non-contiguous (one
    // segment per tile row) and overlaps its 4-neighbourhood.
    let workload = TileWorkload::new(3, 3, 8, 8, 16, 2, 2);
    assert!(workload.has_overlap());

    let loopback = Store::new(base_config(4));
    let (v_loop, state_loop, keys_loop, count_loop, writes) =
        run_overlapping_writers(&loopback, &workload);

    // Atomicity witness: the dataset equals a serial replay of the
    // writers in SOME single order.
    let order = check_serializable(&state_loop, &writes)
        .unwrap_or_else(|v| panic!("loopback violates atomicity: {v:?}"));
    assert_eq!(
        replay(state_loop.len(), &writes, &order),
        state_loop,
        "witness replay reproduces the loopback dataset"
    );
    assert_eq!(v_loop, VersionId::new(workload.processes() as u64));

    let remote = three_service_store(4);
    let (v_tcp, state_tcp, keys_tcp, count_tcp, writes_tcp) =
        run_overlapping_writers(&remote.store, &workload);

    let order = check_serializable(&state_tcp, &writes_tcp)
        .unwrap_or_else(|v| panic!("three-service run violates atomicity: {v:?}"));
    assert_eq!(replay(state_tcp.len(), &writes_tcp, &order), state_tcp);

    assert_eq!(v_loop, v_tcp, "same version sequence");
    assert_eq!(state_loop, state_tcp, "bit-identical dataset");
    assert_eq!(keys_loop, keys_tcp, "identical metadata node sets");
    assert_eq!(count_loop, count_tcp);
}

#[test]
fn killing_the_version_server_fails_writes_typed_then_recovers_on_restart() {
    let mut d = three_service_store(2);
    let blob = d.store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;

    run_actors_on(&clock, 1, move |_, p| {
        blob_ref.write(p, 0, Bytes::from(vec![0xAB; 8192])).unwrap();
    });

    // Crash the version fleet. The commit pipeline's first leg is the
    // ticket grant, so the write dies typed before any data moves and
    // no version hole is left behind.
    d.stop_version_servers();
    run_actors_on(&clock, 1, move |_, p| {
        let err = blob_ref
            .write(p, 0, Bytes::from(vec![0xCD; 8192]))
            .unwrap_err();
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
        // Latest-reads consult the oracle too: they fail typed rather
        // than ever serving torn state.
        assert!(matches!(
            blob_ref.latest(p).unwrap_err(),
            Error::Transport { .. }
        ));
    });

    // Restart the server shells on the same ports around the surviving
    // service state.
    d.rebind_version_servers();

    run_actors_on(&clock, 1, move |_, p| {
        // v1 survived the crash bit for bit; the failed write left no trace.
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(1));
        let back = blob_ref.read(p, 0, 8192).unwrap();
        assert!(
            back.iter().all(|&b| b == 0xAB),
            "v1 intact across the crash"
        );
        // And the pipeline is healthy again: the next commit is v2.
        blob_ref.write(p, 0, Bytes::from(vec![0xEF; 8192])).unwrap();
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(2));
        assert!(blob_ref
            .read(p, 0, 8192)
            .unwrap()
            .iter()
            .all(|&b| b == 0xEF));
    });
}

#[test]
fn a_granted_but_unpublished_ticket_is_never_readable_across_restart() {
    let p = SimClock::new().register();
    let service = Arc::new(VersionService::new(CHUNK));
    let mut server = RpcServer::start("127.0.0.1:0", Arc::clone(&service) as Arc<dyn Service>)
        .expect("bind version server");
    let writer = RemoteVersionManager::new(
        7,
        dial(
            server.local_addr(),
            RpcMode::Mux,
            RpcConfig::default(),
            None,
        ),
    );
    let root_for =
        |v: VersionId, capacity: u64| NodeKey::new(BlobId::new(7), v, ByteRange::new(0, capacity));

    // v1 commits normally.
    let (t1, _) = writer.ticket_append(&p, CHUNK).unwrap();
    let r1 = root_for(t1.version, t1.capacity);
    writer.publish(&p, t1, r1).unwrap();
    assert_eq!(writer.latest(&p).unwrap().version, VersionId::new(1));

    // v2 is granted — then the server dies before the writer publishes.
    let (t2, _) = writer.ticket_append(&p, CHUNK).unwrap();
    server.stop();
    let err = writer
        .publish(&p, t2, root_for(t2.version, t2.capacity))
        .unwrap_err();
    assert!(
        matches!(err, Error::Transport { .. }),
        "publish against a dead server is a typed transport error, got {err:?}"
    );

    // Restart around the surviving state. Snapshot isolation must hold:
    // the granted-but-unpublished v2 is invisible in EVERY read path.
    let server2 = RpcServer::start("127.0.0.1:0", Arc::clone(&service) as Arc<dyn Service>)
        .expect("restart version server");
    let reader = RemoteVersionManager::new(
        7,
        dial(
            server2.local_addr(),
            RpcMode::Mux,
            RpcConfig::default(),
            None,
        ),
    );
    assert_eq!(
        reader.latest(&p).unwrap().version,
        VersionId::new(1),
        "latest never advances past the torn version"
    );
    assert!(!reader.is_published(t2.version).unwrap());
    assert!(
        matches!(
            reader.snapshot(&p, t2.version).unwrap_err(),
            Error::VersionNotFound { .. }
        ),
        "pinned read of the torn version is a typed VersionNotFound"
    );
    // v1 still reads back exactly as published.
    let snap = reader.snapshot(&p, t1.version).unwrap();
    assert_eq!(snap.root, Some(r1));
    assert_eq!(snap.size, CHUNK);
}

#[test]
fn disk_backed_deployment_recovers_fresh_services_with_published_versions_intact() {
    let p = SimClock::new().register();
    // The hard crash arm the durable backend exists for: every service
    // of all three roles is killed and rebuilt FRESH from its data
    // directory — part files, node logs, publish logs — while the
    // client store stays alive and keeps its connections. Published
    // versions must read back bit for bit; a granted-but-unpublished
    // ticket must be invisible after recovery.
    let tmp = TempDir::new("atomio-dist-disk");
    let backend = BackendConfig::disk(tmp.path());
    let mut d = three_service_store_on(2, backend, tmp);

    let blob = d.store.create_blob();
    let clock = SimClock::new();
    let blob_ref = &blob;

    // Two committed versions: v1 spans two chunks, v2 overwrites the
    // second — so recovery must get both chunk payloads AND the version
    // order right for the final dataset to come back.
    run_actors_on(&clock, 1, move |_, p| {
        blob_ref
            .write(p, 0, Bytes::from(vec![0x11; 2 * CHUNK as usize]))
            .unwrap();
        blob_ref
            .write(p, CHUNK, Bytes::from(vec![0x22; CHUNK as usize]))
            .unwrap();
    });
    let pre_crash = run_actors_on(&clock, 1, move |_, p| {
        blob_ref.read(p, 0, 2 * CHUNK).unwrap()
    })
    .pop()
    .unwrap();
    let nodes_pre = d.store.meta().node_count();
    assert!(nodes_pre > 0);

    // A doomed writer grabs v3 and dies before publishing. Nothing
    // reaches the publish log until publication, so the grant must not
    // survive the crash.
    let doomed = RemoteVersionManager::new(blob.id().raw(), d.dial_version());
    let (t3, _) = doomed.ticket_append(&p, CHUNK).unwrap();
    assert_eq!(t3.version, VersionId::new(3));

    d.kill_all();
    d.restart_fresh();

    // The same client store keeps serving against the recovered fleet.
    let expected = pre_crash.clone();
    run_actors_on(&clock, 1, move |_, p| {
        assert_eq!(
            blob_ref.latest(p).unwrap().version,
            VersionId::new(2),
            "every published version survived, nothing more"
        );
        assert_eq!(
            blob_ref.read(p, 0, 2 * CHUNK).unwrap(),
            expected,
            "recovered dataset is bit-identical"
        );
    });
    assert_eq!(
        d.store.meta().node_count(),
        nodes_pre,
        "fresh meta shards recovered every tree node from their logs"
    );

    // Snapshot isolation across the crash: the torn v3 is invisible in
    // every read path of the recovered version service.
    let reader = RemoteVersionManager::new(blob.id().raw(), d.dial_version());
    assert_eq!(reader.latest(&p).unwrap().version, VersionId::new(2));
    assert!(!reader.is_published(t3.version).unwrap());
    assert!(matches!(
        reader.snapshot(&p, t3.version).unwrap_err(),
        Error::VersionNotFound { .. }
    ));

    // The pipeline is healthy: the rolled-back number is reissued and
    // the next commit lands as v3.
    run_actors_on(&clock, 1, move |_, p| {
        blob_ref
            .write(p, 0, Bytes::from(vec![0x33; CHUNK as usize]))
            .unwrap();
        assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(3));
        assert!(blob_ref
            .read(p, 0, CHUNK)
            .unwrap()
            .iter()
            .all(|&b| b == 0x33));
    });
}

/// A version service that answers slowly, guaranteeing grants are in
/// flight when the fault test severs a pool connection.
#[derive(Debug)]
struct SlowVersionService {
    inner: VersionService,
    delay: Duration,
}

impl Service for SlowVersionService {
    fn handle(&self, request: Request, payload: Bytes) -> (Response, Bytes) {
        std::thread::sleep(self.delay);
        self.inner.handle(request, payload)
    }
}

#[test]
fn severing_a_pool_member_loses_one_grant_and_publication_stops_at_the_hole() {
    let p = SimClock::new().register();
    let service = Arc::new(SlowVersionService {
        inner: VersionService::new(CHUNK),
        delay: Duration::from_millis(120),
    });
    let mut server = RpcServer::start("127.0.0.1:0", Arc::clone(&service) as Arc<dyn Service>)
        .expect("bind version server");
    // One stream per pool member: four concurrent grants land on four
    // distinct connections, so severing one kills exactly one call.
    let cfg = RpcConfig {
        mux_streams_per_conn: 1,
        ..RpcConfig::default()
    };
    let mux = Arc::new(MuxTransport::with_config(server.local_addr(), cfg));
    let vm = RemoteVersionManager::new(1, Arc::clone(&mux) as Arc<dyn atomio::rpc::Transport>);

    let results: Vec<Result<_, Error>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let mux = Arc::clone(&mux);
                s.spawn(move || {
                    RemoteVersionManager::new(1, mux as Arc<dyn atomio::rpc::Transport>)
                        .ticket_append(&SimClock::new().register(), 64)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(40)); // all four in flight
        mux.sever_conn(0);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let granted: Vec<_> = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|(t, _)| *t)
        .collect();
    let failed: Vec<&Error> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(
        failed.len(),
        1,
        "exactly the severed grant fails: {results:?}"
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

    // The server granted all four versions (the reply, not the grant,
    // was lost): exactly one version in 1..=4 has no surviving ticket.
    let lost: Vec<u64> = (1..=4)
        .filter(|v| !granted.iter().any(|t| t.version.raw() == *v))
        .collect();
    assert_eq!(lost.len(), 1);

    // The surviving writers publish through the self-healing pool (the
    // severed slot redials transparently)...
    for t in &granted {
        vm.publish(
            &p,
            *t,
            NodeKey::new(BlobId::new(1), t.version, ByteRange::new(0, t.capacity)),
        )
        .unwrap();
    }
    // ...and ordered publication stops exactly at the hole the severed
    // grant left: readers never observe a version past it, torn or not.
    assert_eq!(vm.latest(&p).unwrap().version.raw(), lost[0] - 1);
    assert!(!vm.is_published(VersionId::new(lost[0])).unwrap());
    server.stop();
}
