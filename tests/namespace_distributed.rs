//! Namespace-scale distribution: hash-slot routing across a sharded
//! version-service fleet must be invisible to every observable the
//! single-oracle deployment defines.
//!
//! Three arms:
//!
//! 1. **Randomized multi-tenant property test** — N tenants each drive a
//!    seeded create/write/read/delete interleaving over their own
//!    checkpoint files, concurrently. The surviving namespace, every
//!    file's version chain, and every byte must be identical whether the
//!    version service is one oracle or four `--shard i/4` shards, and
//!    whether the shard transports are in-process Loopback or real TCP
//!    mux sockets.
//! 2. **Shard-kill fault injection** — killing one shard mid-commit
//!    fails exactly the blobs in its slots with typed transport errors;
//!    the other shards keep serving; a fresh process on the same port
//!    recovers that shard's published prefix from its publish logs
//!    (Disk backend) and the granted-but-unpublished ticket stays
//!    invisible.
//! 3. **SlotMap edge cases** — a stale client map self-heals through
//!    `WrongShard` redirect-and-retry; a fully drained shard (empty slot
//!    range) keeps answering typed refusals without serving; an online
//!    handoff drains in-flight grants, and replaying the export twice is
//!    idempotent.

use atomio::core::{slot_for_blob, ReadVersion, SlotMap, Store, StoreConfig};
use atomio::meta::NodeKey;
use atomio::rpc::{
    dial, handoff_slots, handoff_slots_with_budget, Loopback, RemoteVersionManager, RpcConfig,
    RpcMode, RpcServer, Service, SlotRoutedTransport, Transport, VersionService,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::tempdir::TempDir;
use atomio::types::{BackendConfig, BlobId, ByteRange, Error, ExtentList, VersionId};
use atomio::version::VersionOracle;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::Arc;

const CHUNK: u64 = 512;
const SEED: u64 = 0x5EED_CAFE;
const TENANTS: usize = 4;
const FILES_PER_TENANT: u64 = 10;
const OPS_PER_TENANT: usize = 60;

/// Deterministic splitmix64 stream for the workload generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A version-service fleet of `n` shards plus the client transport that
/// routes across it: plain for one shard, slot-routed for several. TCP
/// fleets keep their servers alive in `_servers`.
struct VersionFleet {
    services: Vec<Arc<VersionService>>,
    servers: Vec<RpcServer>,
    transport: Arc<dyn Transport>,
}

fn loopback_fleet(n: usize) -> VersionFleet {
    let services: Vec<Arc<VersionService>> = (0..n)
        .map(|i| {
            let mut s = VersionService::new(CHUNK);
            if n > 1 {
                s = s.with_shard(i, n);
            }
            Arc::new(s)
        })
        .collect();
    let transports: Vec<Arc<dyn Transport>> = services
        .iter()
        .map(|s| Arc::new(Loopback::new(Arc::clone(s) as Arc<dyn Service>)) as Arc<dyn Transport>)
        .collect();
    let transport = routed_over(transports);
    VersionFleet {
        services,
        servers: Vec::new(),
        transport,
    }
}

fn tcp_fleet(n: usize, backend: &BackendConfig) -> VersionFleet {
    let services: Vec<Arc<VersionService>> = (0..n)
        .map(|i| {
            let mut s = VersionService::with_backend(CHUNK, backend.clone());
            if n > 1 {
                s = s.with_shard(i, n);
            }
            Arc::new(s)
        })
        .collect();
    let servers: Vec<RpcServer> = services
        .iter()
        .map(|s| {
            RpcServer::start("127.0.0.1:0", Arc::clone(s) as Arc<dyn Service>)
                .expect("bind version shard")
        })
        .collect();
    let transports: Vec<Arc<dyn Transport>> = servers
        .iter()
        .map(|srv| dial(srv.local_addr(), RpcMode::Mux, RpcConfig::default(), None))
        .collect();
    let transport = routed_over(transports);
    VersionFleet {
        services,
        servers,
        transport,
    }
}

fn routed_over(transports: Vec<Arc<dyn Transport>>) -> Arc<dyn Transport> {
    if transports.len() == 1 {
        transports.into_iter().next().unwrap()
    } else {
        Arc::new(SlotRoutedTransport::new(transports))
    }
}

/// A store whose data/metadata paths are in-process but whose version
/// oracle is the fleet's (possibly slot-routed) transport — the seam
/// under test, everything else held constant.
fn store_over(fleet: &VersionFleet) -> Store {
    let transport = Arc::clone(&fleet.transport);
    Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(CHUNK)
            .with_data_providers(2)
            .with_meta_shards(2)
            .with_seed(SEED),
    )
    .with_version_oracles(move |blob| {
        Arc::new(RemoteVersionManager::new(
            blob.raw(),
            Arc::clone(&transport),
        ))
    })
}

/// Drives the seeded multi-tenant interleaving and returns the final
/// namespace observation: every surviving path with its published
/// version count and full contents.
fn run_multi_tenant(store: &Store) -> Vec<(String, u64, Vec<u8>)> {
    let clock = SimClock::new();
    run_actors_on(&clock, TENANTS, |tenant, p| {
        let mut rng = Rng(SEED ^ (tenant as u64) << 32);
        // Local model of this tenant's files: contents + publish count.
        let mut mirror: BTreeMap<String, (Vec<u8>, u64)> = BTreeMap::new();
        for _ in 0..OPS_PER_TENANT {
            let file = rng.below(FILES_PER_TENANT);
            let path = format!("/tenant{tenant}/ckpt/{file:03}.dat");
            match rng.below(10) {
                // Delete: the name goes away; a later op may recreate it
                // with a fresh blob whose chain restarts at v1.
                0 if mirror.contains_key(&path) => {
                    store.unlink(&path).unwrap();
                    mirror.remove(&path);
                }
                // Read-back: the store must agree with the local model.
                1 | 2 if mirror.contains_key(&path) => {
                    let (bytes, _) = &mirror[&path];
                    let blob = store.open_file(&path).unwrap();
                    let got = blob.read(p, 0, bytes.len() as u64).unwrap();
                    assert_eq!(&got, bytes, "{path} diverged from the model");
                }
                // Write (creating if absent): contiguous-or-overlapping
                // extents so the model needs no hole semantics.
                _ => {
                    let blob = store.open_or_create_file(&path).unwrap();
                    let entry = mirror.entry(path).or_insert_with(|| (Vec::new(), 0));
                    let offset = rng.below(entry.0.len() as u64 + 1);
                    let len = 1 + rng.below(3 * CHUNK);
                    let fill = (rng.next() & 0xFF) as u8;
                    blob.write(p, offset, Bytes::from(vec![fill; len as usize]))
                        .unwrap();
                    let end = (offset + len) as usize;
                    if entry.0.len() < end {
                        entry.0.resize(end, 0);
                    }
                    entry.0[offset as usize..end].fill(fill);
                    entry.1 += 1;
                }
            }
        }
        mirror
    });

    // Final sweep: one reader walks the whole namespace.
    let paths = store.list("/");
    let paths_ref = &paths;
    run_actors_on(&clock, 1, move |_, p| {
        paths_ref
            .iter()
            .map(|path| {
                let blob = store.open_file(path).unwrap();
                let latest = blob.latest(p).unwrap();
                let bytes = blob.read_list(
                    p,
                    ReadVersion::Latest,
                    &ExtentList::single(ByteRange::new(0, latest.size)),
                );
                (path.clone(), latest.version.raw(), bytes.unwrap())
            })
            .collect()
    })
    .pop()
    .unwrap()
}

#[test]
fn multi_tenant_namespace_is_bit_identical_across_shard_counts_and_transports() {
    // Reference: the single-oracle loopback fleet — behaviorally the
    // deployment every earlier test in this repo pinned down.
    let reference = run_multi_tenant(&store_over(&loopback_fleet(1)));
    assert!(
        !reference.is_empty(),
        "the seeded workload must leave files behind"
    );
    // Version chains actually grew (multiple publishes per file).
    assert!(reference.iter().any(|(_, v, _)| *v > 1));

    for (label, fleet) in [
        ("loopback/4-shard", loopback_fleet(4)),
        ("tcp-mux/1-shard", tcp_fleet(1, &BackendConfig::Memory)),
        ("tcp-mux/4-shard", tcp_fleet(4, &BackendConfig::Memory)),
    ] {
        let got = run_multi_tenant(&store_over(&fleet));
        assert_eq!(
            got, reference,
            "{label}: namespace, version chains, or bytes diverged"
        );
    }
}

/// Grants one published version on blob `b` through `vm`, rooted at a
/// deterministic node key.
fn publish_once(vm: &RemoteVersionManager, blob: u64) -> VersionId {
    let p = SimClock::new().register();
    let (ticket, _) = vm.ticket_append(&p, CHUNK).unwrap();
    let version = ticket.version;
    let root = NodeKey::new(
        BlobId::new(blob),
        version,
        ByteRange::new(0, ticket.capacity),
    );
    vm.publish(&p, ticket, root).unwrap();
    version
}

#[test]
fn killing_one_shard_fails_only_its_slots_and_recovers_on_the_same_port() {
    let p = SimClock::new().register();
    let tmp = TempDir::new("atomio-shard-kill");
    let backend = BackendConfig::disk(tmp.path());
    let mut fleet = tcp_fleet(4, &backend);
    let map = SlotMap::uniform(4);

    // Two published versions on each of 32 blobs, slot-routed.
    let blobs: Vec<u64> = (0..32).collect();
    for &b in &blobs {
        let vm = RemoteVersionManager::new(b, Arc::clone(&fleet.transport));
        publish_once(&vm, b);
        publish_once(&vm, b);
    }
    let on_victim = |b: u64| map.group_of(slot_for_blob(b)) == Some(1);
    let victims: Vec<u64> = blobs.iter().copied().filter(|b| on_victim(*b)).collect();
    let survivors: Vec<u64> = blobs.iter().copied().filter(|b| !on_victim(*b)).collect();
    assert!(
        !victims.is_empty() && !survivors.is_empty(),
        "32 hashed blobs cover shard 1 and its complement"
    );

    // Mid-commit crash: a writer on a victim blob holds a granted
    // ticket when its shard dies; the publish fails typed.
    let doomed_blob = victims[0];
    let doomed = RemoteVersionManager::new(doomed_blob, Arc::clone(&fleet.transport));
    let (t3, _) = doomed.ticket_append(&p, CHUNK).unwrap();
    assert_eq!(t3.version, VersionId::new(3));
    let addr = fleet.servers[1].local_addr();
    fleet.servers[1].stop();
    let err = doomed
        .publish(
            &p,
            t3,
            NodeKey::new(
                BlobId::new(doomed_blob),
                t3.version,
                ByteRange::new(0, t3.capacity),
            ),
        )
        .unwrap_err();
    assert!(
        matches!(err, Error::Transport { .. }),
        "mid-commit shard death is a typed transport error, got {err:?}"
    );

    // Blast radius is exactly shard 1's slots: victims fail typed,
    // survivors keep granting and publishing.
    for &b in &victims {
        let vm = RemoteVersionManager::new(b, Arc::clone(&fleet.transport));
        assert!(
            matches!(vm.latest(&p), Err(Error::Transport { .. })),
            "blob {b} lives on the dead shard"
        );
    }
    for &b in &survivors {
        let vm = RemoteVersionManager::new(b, Arc::clone(&fleet.transport));
        assert_eq!(vm.latest(&p).unwrap().version, VersionId::new(2));
        assert_eq!(publish_once(&vm, b), VersionId::new(3));
    }

    // Fresh process on the same port: the shard's publish logs bring
    // back every published version; the torn v3 grant never surfaces.
    let recovered = Arc::new(VersionService::with_backend(CHUNK, backend.clone()).with_shard(1, 4));
    fleet.servers[1] =
        RpcServer::start(addr, Arc::clone(&recovered) as Arc<dyn Service>).expect("rebind shard 1");
    fleet.services[1] = recovered;
    for &b in &victims {
        let vm = RemoteVersionManager::new(b, Arc::clone(&fleet.transport));
        assert_eq!(
            vm.latest(&p).unwrap().version,
            VersionId::new(2),
            "blob {b}: published prefix recovered"
        );
        assert!(!vm.is_published(VersionId::new(3)).unwrap());
    }
    // The recovered shard reissues the rolled-back number and the
    // pipeline is healthy again.
    assert_eq!(publish_once(&doomed, doomed_blob), VersionId::new(3));
}

#[test]
fn stale_client_maps_self_heal_through_wrong_shard_redirects() {
    let p = SimClock::new().register();
    let fleet = loopback_fleet(2);
    let map = SlotMap::uniform(2);
    let routed = Arc::new(SlotRoutedTransport::new(vec![
        Arc::new(Loopback::new(
            Arc::clone(&fleet.services[0]) as Arc<dyn Service>
        )) as Arc<dyn Transport>,
        Arc::new(Loopback::new(
            Arc::clone(&fleet.services[1]) as Arc<dyn Service>
        )) as Arc<dyn Transport>,
    ]));

    // A blob owned by shard 1 under the uniform map.
    let blob = (0..u64::MAX)
        .find(|b| map.group_of(slot_for_blob(*b)) == Some(1))
        .unwrap();

    // Membership change behind the client's back: every slot of shard 1
    // moves to shard 0, installed on both servers at epoch 2.
    let next = map.reassign(&map.slots_of(1), 0);
    for service in &fleet.services {
        let (resp, _) = Loopback::new(Arc::clone(service) as Arc<dyn Service>)
            .call(
                &atomio::rpc::Request::SlotMapInstall { map: next.clone() },
                &[],
            )
            .unwrap();
        assert!(matches!(resp, atomio::rpc::Response::Unit));
    }

    // The router still believes the uniform map, so its first attempt
    // lands on shard 1, draws `WrongShard { epoch: 2 }`, refreshes, and
    // retries against shard 0 — invisible to the caller.
    let vm = RemoteVersionManager::new(blob, routed.clone() as Arc<dyn Transport>);
    assert_eq!(publish_once(&vm, blob), VersionId::new(1));
    assert_eq!(routed.slot_map().epoch, 2, "redirect refreshed the map");

    // Shard 1 now owns the empty slot range: it answers — with typed
    // refusals — rather than serving stale state.
    assert!(next.slots_of(1).is_empty());
    let direct = RemoteVersionManager::new(
        blob,
        Arc::new(Loopback::new(
            Arc::clone(&fleet.services[1]) as Arc<dyn Service>
        )) as Arc<dyn Transport>,
    );
    assert!(
        matches!(direct.latest(&p), Err(Error::WrongShard { epoch: 2, .. })),
        "a drained shard refuses with its installed epoch"
    );
}

#[test]
fn online_handoff_drains_grants_and_double_replay_is_idempotent() {
    let p = SimClock::new().register();
    let fleet = loopback_fleet(2);
    let transports: Vec<Arc<dyn Transport>> = fleet
        .services
        .iter()
        .map(|s| Arc::new(Loopback::new(Arc::clone(s) as Arc<dyn Service>)) as Arc<dyn Transport>)
        .collect();
    let map = SlotMap::uniform(2);

    // Three blobs on shard 1, two published versions each, plus one
    // ticket still in flight when the handoff starts.
    let moving_blobs: Vec<u64> = (0..u64::MAX)
        .filter(|b| map.group_of(slot_for_blob(*b)) == Some(1))
        .take(3)
        .collect();
    for &b in &moving_blobs {
        let vm = RemoteVersionManager::new(b, Arc::clone(&fleet.transport));
        publish_once(&vm, b);
        publish_once(&vm, b);
    }
    let straggler_blob = moving_blobs[0];
    let straggler = RemoteVersionManager::new(straggler_blob, Arc::clone(&fleet.transport));
    let (t3, _) = straggler.ticket_append(&p, CHUNK).unwrap();

    // The in-flight writer publishes while the coordinator is freezing
    // and draining — the freeze blocks new tickets, not this publish.
    let publisher = std::thread::spawn({
        let root = NodeKey::new(
            BlobId::new(straggler_blob),
            t3.version,
            ByteRange::new(0, t3.capacity),
        );
        move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            let p = SimClock::new().register();
            straggler.publish(&p, t3, root).unwrap();
        }
    });
    let moving = map.slots_of(1);
    let next = handoff_slots(&transports, &map, &moving, 0).expect("handoff");
    publisher.join().unwrap();
    assert_eq!(next.epoch, 2);
    assert!(next.slots_of(1).is_empty());

    // The drained publish migrated with the rest of the prefix: the new
    // owner serves v3 of the straggler and v2 of the others.
    for &b in &moving_blobs {
        let vm = RemoteVersionManager::new(b, Arc::clone(&fleet.transport));
        let want = if b == straggler_blob { 3 } else { 2 };
        assert_eq!(vm.latest(&p).unwrap().version, VersionId::new(want));
        // And the chain keeps growing on the new owner.
        assert_eq!(publish_once(&vm, b), VersionId::new(want + 1));
    }

    // Double replay: exporting the (now thawed-and-empty) source again
    // and re-importing applies nothing — the import skips versions at
    // or below the destination's published head.
    let export = transports[1]
        .call(
            &atomio::rpc::Request::VmExportSlots {
                slots: moving.clone(),
            },
            &[],
        )
        .unwrap();
    let atomio::rpc::Response::SlotExport { blobs } = export.0 else {
        panic!("expected SlotExport, got {:?}", export.0);
    };
    let replayed = transports[0]
        .call(&atomio::rpc::Request::VmImportBlobs { blobs }, &[])
        .unwrap();
    match replayed.0 {
        atomio::rpc::Response::Count { value } => {
            assert_eq!(value, 0, "double replay applies no versions")
        }
        other => panic!("expected Count, got {other:?}"),
    }
    drop(fleet.servers);
}

/// A writer that holds its ticket past the drain budget cannot be
/// silently dropped by the handoff: the moving slots are sealed before
/// the export, so the straggler's publish is *refused* (typed) and the
/// version is absent everywhere — never acked-then-vanished.
#[test]
fn handoff_seals_slots_so_an_abandoned_straggler_fails_typed_not_silently() {
    let p = SimClock::new().register();
    let fleet = loopback_fleet(2);
    let transports: Vec<Arc<dyn Transport>> = fleet
        .services
        .iter()
        .map(|s| Arc::new(Loopback::new(Arc::clone(s) as Arc<dyn Service>)) as Arc<dyn Transport>)
        .collect();
    let map = SlotMap::uniform(2);

    let blob = (0..u64::MAX)
        .find(|b| map.group_of(slot_for_blob(*b)) == Some(1))
        .unwrap();
    let vm = RemoteVersionManager::new(blob, Arc::clone(&fleet.transport));
    publish_once(&vm, blob);
    publish_once(&vm, blob);
    // The straggler: granted before the handoff, never published while
    // it runs, held far past the (tiny) drain budget.
    let (t3, _) = vm.ticket_append(&p, CHUNK).unwrap();

    let moving = map.slots_of(1);
    let next = handoff_slots_with_budget(
        &transports,
        &map,
        &moving,
        0,
        std::time::Duration::from_millis(30),
    )
    .expect("handoff proceeds past an undrained ticket");
    assert_eq!(next.epoch, 2);

    // The abandoned ticket's publish is refused — the new owner never
    // granted it — and v3 exists nowhere.
    let err = vm
        .publish(
            &p,
            t3,
            NodeKey::new(
                BlobId::new(blob),
                t3.version,
                ByteRange::new(0, t3.capacity),
            ),
        )
        .unwrap_err();
    assert!(
        matches!(err, Error::Internal(_)),
        "abandoned straggler fails typed, got {err:?}"
    );
    assert_eq!(vm.latest(&p).unwrap().version, VersionId::new(2));
    assert!(!vm.is_published(VersionId::new(3)).unwrap());
    // The chain resumes cleanly on the new owner, reissuing v3.
    assert_eq!(publish_once(&vm, blob), VersionId::new(3));
}

/// `VmSealSlots` escalates a freeze: publishes in the sealed slots are
/// refused with `WrongShard`, so the post-seal export is a consistent
/// final snapshot of the moving slots.
#[test]
fn sealed_slots_refuse_publishes_with_wrong_shard() {
    let p = SimClock::new().register();
    let fleet = loopback_fleet(2);
    let shard1: Arc<dyn Transport> = Arc::new(Loopback::new(
        Arc::clone(&fleet.services[1]) as Arc<dyn Service>
    ));
    let map = SlotMap::uniform(2);
    let blob = (0..u64::MAX)
        .find(|b| map.group_of(slot_for_blob(*b)) == Some(1))
        .unwrap();
    let vm = RemoteVersionManager::new(blob, Arc::clone(&fleet.transport));
    publish_once(&vm, blob);
    let (t2, _) = vm.ticket_append(&p, CHUNK).unwrap();

    let slot = slot_for_blob(blob);
    let sealed = shard1
        .call(
            &atomio::rpc::Request::VmSealSlots {
                slots: vec![slot],
                epoch: 2,
            },
            &[],
        )
        .unwrap();
    match sealed.0 {
        atomio::rpc::Response::Count { value } => {
            assert_eq!(value, 1, "the in-flight grant is reported as abandoned")
        }
        other => panic!("expected Count, got {other:?}"),
    }

    // Both the held ticket's publish and fresh tickets are refused
    // typed on the sealed shard.
    let direct = RemoteVersionManager::new(blob, Arc::clone(&shard1));
    let err = direct
        .publish(
            &p,
            t2,
            NodeKey::new(
                BlobId::new(blob),
                t2.version,
                ByteRange::new(0, t2.capacity),
            ),
        )
        .unwrap_err();
    assert!(
        matches!(err, Error::WrongShard { epoch: 2, .. }),
        "publish into a sealed slot draws WrongShard, got {err:?}"
    );
    assert!(matches!(
        direct.ticket_append(&p, CHUNK),
        Err(Error::WrongShard { epoch: 2, .. })
    ));
    // Reads still serve (the seal freezes mutation, not visibility) and
    // the sealed state exports exactly the published prefix.
    assert_eq!(direct.latest(&p).unwrap().version, VersionId::new(1));

    // Installing the reassigned map thaws the seal.
    let next = map.reassign(&[slot], 0);
    let (resp, _) = shard1
        .call(&atomio::rpc::Request::SlotMapInstall { map: next }, &[])
        .unwrap();
    assert!(matches!(resp, atomio::rpc::Response::Unit));
    drop(fleet.servers);
}

/// Freezes merge per slot: a second handoff freezing a *disjoint* slot
/// set off the same shard must not thaw the first one's slots mid-drain
/// (the old all-or-nothing freeze state clobbered them).
#[test]
fn disjoint_concurrent_freezes_merge_instead_of_clobbering() {
    let p = SimClock::new().register();
    let fleet = loopback_fleet(2);
    let shard1: Arc<dyn Transport> = Arc::new(Loopback::new(
        Arc::clone(&fleet.services[1]) as Arc<dyn Service>
    ));
    let map = SlotMap::uniform(2);
    let mut owned = map.slots_of(1).into_iter();
    let slot_a = owned.next().unwrap();
    let slot_b = owned.next().unwrap();

    for (slots, epoch) in [(vec![slot_a], 2u64), (vec![slot_b], 2u64)] {
        let (resp, _) = shard1
            .call(&atomio::rpc::Request::VmFreezeSlots { slots, epoch }, &[])
            .unwrap();
        assert!(matches!(resp, atomio::rpc::Response::Count { .. }));
    }

    // Both handoffs' slots stay frozen: tickets in slot_a are still
    // refused after slot_b's freeze landed.
    for slot in [slot_a, slot_b] {
        let blob = (0..u64::MAX).find(|b| slot_for_blob(*b) == slot).unwrap();
        let direct = RemoteVersionManager::new(blob, Arc::clone(&shard1));
        assert!(
            matches!(
                direct.ticket_append(&p, CHUNK),
                Err(Error::WrongShard { epoch: 2, .. })
            ),
            "slot {slot} must remain frozen"
        );
    }

    // A map install at the freeze epoch thaws both entries.
    let (resp, _) = shard1
        .call(
            &atomio::rpc::Request::SlotMapInstall {
                map: map.bump_epoch(),
            },
            &[],
        )
        .unwrap();
    assert!(matches!(resp, atomio::rpc::Response::Unit));
    let blob_a = (0..u64::MAX).find(|b| slot_for_blob(*b) == slot_a).unwrap();
    let direct = RemoteVersionManager::new(blob_a, Arc::clone(&shard1));
    direct
        .ticket_append(&p, CHUNK)
        .expect("thawed slot grants again");
    drop(fleet.servers);
}

/// A map that routes a slot to a shard the router has no transport for
/// is a permanent configuration mismatch: the router fails fast with an
/// error naming the missing shard instead of burning its full
/// redirect-retry budget on a misleading "unassigned" message.
#[test]
fn slot_routed_to_an_undialed_shard_fails_fast_with_a_named_shard() {
    let p = SimClock::new().register();
    let fleet = loopback_fleet(2);
    let routed = Arc::new(SlotRoutedTransport::new(
        fleet
            .services
            .iter()
            .map(|s| {
                Arc::new(Loopback::new(Arc::clone(s) as Arc<dyn Service>)) as Arc<dyn Transport>
            })
            .collect(),
    ));
    let map = SlotMap::uniform(2);
    let blob = 7u64;
    let slot = slot_for_blob(blob);
    routed.install(map.reassign(&[slot], 5));

    let vm = RemoteVersionManager::new(blob, routed.clone() as Arc<dyn Transport>);
    let started = std::time::Instant::now();
    let err = vm.latest(&p).unwrap_err();
    let Error::Internal(msg) = &err else {
        panic!("expected a typed Internal error, got {err:?}");
    };
    assert!(
        msg.contains("shard 5"),
        "the error names the missing shard: {msg}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_millis(100),
        "fail-fast must not burn the 100-retry redirect budget"
    );
    drop(fleet.servers);
}
