//! Three-service distributed atomicity: the full deployment the paper's
//! architecture calls for — data providers, metadata shards, and the
//! version manager each behind their own RPC server — must give N
//! concurrent overlapping non-contiguous writers exactly the atomic
//! semantics the in-process store gives them.
//!
//! Each test runs on the in-process deployment of `common` — all three
//! server roles (the same services the `atomio-provider-server` /
//! `atomio-meta-server` / `atomio-version-server` binaries wrap) on
//! ephemeral localhost ports, the store assembled from `RemoteProvider`
//! / `RemoteMetaStore` / `RemoteVersionManager` proxies — once per arm:
//! memory and disk backends, each under one version server and under a
//! 4-shard slot-routed fleet. The suite checks three things:
//!
//! 1. **Serializability**: every overlapped byte of the final dataset is
//!    consistent with ONE serial order of the writers (the
//!    `check_serializable` witness), and replaying that order reproduces
//!    the dataset bit for bit.
//! 2. **Deployment equivalence**: version sequence, stored bytes, and
//!    the metadata node-key set are bit-identical to the Loopback run.
//! 3. **Fault atomicity**: killing the version server mid-commit or
//!    severing one client's connection yields *typed* transport errors, and a
//!    granted-but-unpublished version is never readable — before or
//!    after the server restarts (snapshot isolation across a crash).

mod common;

use atomio::core::{ReadVersion, Store, StoreConfig};
use atomio::meta::NodeKey;
use atomio::rpc::{
    MuxTransport, RemoteVersionManager, Request, Response, RpcServer, Service, VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::stamp::WriteStamp;
use atomio::types::{
    BlobId, ByteRange, ClientId, Error, ExtentList, TransportErrorKind, VersionId,
};
use atomio::version::VersionOracle;
use atomio::workloads::verify::{check_serializable, replay, WriteRecord};
use atomio::workloads::TileWorkload;
use bytes::Bytes;
use common::{sorted_keys, Backend, Deployment, Layout, Role};
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

/// The arms: both backends, each under a single version server and
/// under a 4-shard slot-routed fleet.
const ARMS: [(Backend, usize); 4] = [
    (Backend::Memory, 1),
    (Backend::Memory, 4),
    (Backend::Disk, 1),
    (Backend::Disk, 4),
];

/// The three-service TCP deployment of one arm.
fn three_services((backend, shards): (Backend, usize), providers: usize) -> Deployment {
    Deployment::start(
        base_config(providers),
        Layout::three_services(backend, shards),
    )
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

    for arm in ARMS {
        let d = three_services(arm, 4);
        let store = d.store();
        let (v_tcp, state_tcp, keys_tcp, count_tcp, writes_tcp) =
            run_overlapping_writers(&store, &workload);

        let order = check_serializable(&state_tcp, &writes_tcp)
            .unwrap_or_else(|v| panic!("{arm:?}: three-service run violates atomicity: {v:?}"));
        assert_eq!(replay(state_tcp.len(), &writes_tcp, &order), state_tcp);

        assert_eq!(v_loop, v_tcp, "{arm:?}: same version sequence");
        assert_eq!(state_loop, state_tcp, "{arm:?}: bit-identical dataset");
        assert_eq!(keys_loop, keys_tcp, "{arm:?}: identical metadata node sets");
        assert_eq!(count_loop, count_tcp, "{arm:?}");
        d.prove_arm(&store);
    }
}

#[test]
fn killing_the_version_server_fails_writes_typed_then_recovers_on_restart() {
    for arm @ (_, shards) in ARMS {
        let d = three_services(arm, 2);
        let store = d.store();
        let blob = store.create_blob();
        let clock = SimClock::new();
        let blob_ref = &blob;

        run_actors_on(&clock, 1, move |_, p| {
            blob_ref.write(p, 0, Bytes::from(vec![0xAB; 8192])).unwrap();
        });

        // Crash the version fleet. The commit pipeline's first leg is the
        // ticket grant, so the write dies typed before any data moves and
        // no version hole is left behind.
        (0..shards).for_each(|i| d.kill(Role::Version(i)));
        run_actors_on(&clock, 1, move |_, p| {
            let err = blob_ref
                .write(p, 0, Bytes::from(vec![0xCD; 8192]))
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
                "{arm:?}: expected a typed transport error, got {err:?}"
            );
            // Latest-reads consult the oracle too: they fail typed rather
            // than ever serving torn state.
            assert!(matches!(
                blob_ref.latest(p).unwrap_err(),
                Error::Transport { .. }
            ));
        });

        // Restart the server shells on the same ports around the
        // surviving service state.
        (0..shards).for_each(|i| d.rebind(Role::Version(i)));

        run_actors_on(&clock, 1, move |_, p| {
            // v1 survived the crash bit for bit; the failed write left no
            // trace.
            assert_eq!(blob_ref.latest(p).unwrap().version, VersionId::new(1));
            let back = blob_ref.read(p, 0, 8192).unwrap();
            assert!(
                back.iter().all(|&b| b == 0xAB),
                "{arm:?}: v1 intact across the crash"
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
        d.prove_arm(&store);
    }
}

#[test]
fn a_granted_but_unpublished_ticket_is_never_readable_across_restart() {
    let p = SimClock::new().register();
    for arm @ (_, shards) in ARMS {
        let d = three_services(arm, 2);
        let store = d.store();
        let blob = store.create_blob().id();
        let writer = RemoteVersionManager::new(blob.raw(), d.version_transport());
        let root_for =
            |v: VersionId, capacity: u64| NodeKey::new(blob, v, ByteRange::new(0, capacity));

        // v1 commits normally.
        let (t1, _) = writer.ticket_append(&p, CHUNK).unwrap();
        let r1 = root_for(t1.version, t1.capacity);
        writer.publish(&p, t1, r1).unwrap();
        assert_eq!(writer.latest(&p).unwrap().version, VersionId::new(1));

        // v2 is granted — then the server dies before the writer
        // publishes.
        let (t2, _) = writer.ticket_append(&p, CHUNK).unwrap();
        (0..shards).for_each(|i| d.kill(Role::Version(i)));
        let err = writer
            .publish(&p, t2, root_for(t2.version, t2.capacity))
            .unwrap_err();
        assert!(
            matches!(err, Error::Transport { .. }),
            "{arm:?}: publish against a dead server is a typed transport error, got {err:?}"
        );

        // Restart around the surviving state. Snapshot isolation must
        // hold: the granted-but-unpublished v2 is invisible in EVERY read
        // path.
        (0..shards).for_each(|i| d.rebind(Role::Version(i)));
        let reader = RemoteVersionManager::new(blob.raw(), d.version_transport());
        assert_eq!(
            reader.latest(&p).unwrap().version,
            VersionId::new(1),
            "{arm:?}: latest never advances past the torn version"
        );
        assert!(!reader.is_published(t2.version).unwrap());
        assert!(
            matches!(
                reader.snapshot(&p, t2.version).unwrap_err(),
                Error::VersionNotFound { .. }
            ),
            "{arm:?}: pinned read of the torn version is a typed VersionNotFound"
        );
        // v1 still reads back exactly as published.
        let snap = reader.snapshot(&p, t1.version).unwrap();
        assert_eq!(snap.root, Some(r1));
        assert_eq!(snap.size, CHUNK);
        d.prove_arm(&store);
    }
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
    for arm in ARMS
        .into_iter()
        .filter(|(backend, _)| *backend == Backend::Disk)
    {
        let d = three_services(arm, 2);
        let store = d.store();
        let blob = store.create_blob();
        let clock = SimClock::new();
        let blob_ref = &blob;

        // Two committed versions: v1 spans two chunks, v2 overwrites the
        // second — so recovery must get both chunk payloads AND the
        // version order right for the final dataset to come back.
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
        let nodes_pre = store.meta().node_count();
        assert!(nodes_pre > 0);

        // A doomed writer grabs v3 and dies before publishing. Nothing
        // reaches the publish log until publication, so the grant must
        // not survive the crash.
        let doomed = RemoteVersionManager::new(blob.id().raw(), d.version_transport());
        let (t3, _) = doomed.ticket_append(&p, CHUNK).unwrap();
        assert_eq!(t3.version, VersionId::new(3));

        d.roles().into_iter().for_each(|role| d.kill(role));
        d.roles().into_iter().for_each(|role| d.restart_fresh(role));

        // The same client store keeps serving against the recovered
        // fleet.
        let expected = pre_crash.clone();
        run_actors_on(&clock, 1, move |_, p| {
            assert_eq!(
                blob_ref.latest(p).unwrap().version,
                VersionId::new(2),
                "{arm:?}: every published version survived, nothing more"
            );
            assert_eq!(
                blob_ref.read(p, 0, 2 * CHUNK).unwrap(),
                expected,
                "{arm:?}: recovered dataset is bit-identical"
            );
        });
        assert_eq!(
            store.meta().node_count(),
            nodes_pre,
            "{arm:?}: fresh meta shards recovered every tree node from their logs"
        );

        // Snapshot isolation across the crash: the torn v3 is invisible
        // in every read path of the recovered version service.
        let reader = RemoteVersionManager::new(blob.id().raw(), d.version_transport());
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
        d.prove_arm(&store);
    }
}

/// A version service that answers slowly, guaranteeing grants are in
/// flight when the fault test severs a connection.
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
    // Three grants share one connection; the fourth goes over its own,
    // so severing that one kills exactly one call.
    let shared = Arc::new(MuxTransport::new(server.local_addr()));
    let doomed = Arc::new(MuxTransport::new(server.local_addr()));
    let vm = RemoteVersionManager::new(1, Arc::clone(&shared) as Arc<dyn atomio::rpc::Transport>);

    let results: Vec<Result<_, Error>> = std::thread::scope(|s| {
        let handles: Vec<_> = [&shared, &shared, &shared, &doomed]
            .map(|mux| {
                let mux = Arc::clone(mux);
                s.spawn(move || {
                    RemoteVersionManager::new(1, mux as Arc<dyn atomio::rpc::Transport>)
                        .ticket_append(&SimClock::new().register(), 64)
                })
            })
            .into_iter()
            .collect();
        std::thread::sleep(Duration::from_millis(40)); // all four in flight
        doomed.sever();
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

    // The surviving writers publish over the connection that was not
    // severed...
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
