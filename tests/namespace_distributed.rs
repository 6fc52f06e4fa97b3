//! Namespace-scale distribution: hash-slot routing across a sharded
//! version-service fleet must be invisible to every observable the
//! single-oracle deployment defines.
//!
//! Two arms:
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
//!    (Disk backend), the granted-but-unpublished ticket stays
//!    invisible, and the restarted shard serves exactly its
//!    `--shard i/N` slots. A router whose shard list disagrees with the
//!    servers' flags gets a typed `WrongShard`, never a retry.

mod common;

use atomio::core::{shard_of, slot_for_blob, ReadVersion, Store, StoreConfig};
use atomio::meta::NodeKey;
use atomio::rpc::{
    Loopback, RemoteVersionManager, Request, Response, SlotRoutedTransport, Transport,
};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::{BlobId, ByteRange, Error, ExtentList, VersionId};
use atomio::version::VersionOracle;
use bytes::Bytes;
use common::{Backend, Deployment, Layout, Role, Wire};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// A version-service fleet of `shards` shards over `wire`, behind one
/// slot-routed transport; data and metadata stay in the client's store
/// — the seam under test, everything else held constant.
fn fleet(wire: Wire, backend: Backend, shards: usize) -> Deployment {
    let config = StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK)
        .with_data_providers(2)
        .with_meta_shards(2)
        .with_seed(SEED);
    let layout = Layout {
        version_shards: shards,
        ..Layout::new(wire, backend)
    };
    Deployment::start(config, layout)
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
    let reference = run_multi_tenant(&fleet(Wire::Loopback, Backend::Memory, 1).store());
    assert!(
        !reference.is_empty(),
        "the seeded workload must leave files behind"
    );
    // Version chains actually grew (multiple publishes per file).
    assert!(reference.iter().any(|(_, v, _)| *v > 1));

    for (wire, shards) in [(Wire::Loopback, 4), (Wire::Tcp, 1), (Wire::Tcp, 4)] {
        let d = fleet(wire, Backend::Memory, shards);
        let store = d.store();
        let got = run_multi_tenant(&store);
        assert_eq!(
            got, reference,
            "{wire:?}/{shards}-shard: namespace, version chains, or bytes diverged"
        );
        d.prove_arm(&store);
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
    let d = fleet(Wire::Tcp, Backend::Disk, 4);
    let transport = d.version_transport();

    // Two published versions on each of 32 blobs, slot-routed.
    let blobs: Vec<u64> = (0..32).collect();
    for &b in &blobs {
        let vm = RemoteVersionManager::new(b, Arc::clone(&transport));
        publish_once(&vm, b);
        publish_once(&vm, b);
    }
    let on_victim = |b: u64| shard_of(slot_for_blob(b), 4) == 1;
    let victims: Vec<u64> = blobs.iter().copied().filter(|b| on_victim(*b)).collect();
    let survivors: Vec<u64> = blobs.iter().copied().filter(|b| !on_victim(*b)).collect();
    assert!(
        !victims.is_empty() && !survivors.is_empty(),
        "32 hashed blobs cover shard 1 and its complement"
    );

    // Mid-commit crash: a writer on a victim blob holds a granted
    // ticket when its shard dies; the publish fails typed.
    let doomed_blob = victims[0];
    let doomed = RemoteVersionManager::new(doomed_blob, Arc::clone(&transport));
    let (t3, _) = doomed.ticket_append(&p, CHUNK).unwrap();
    assert_eq!(t3.version, VersionId::new(3));
    d.kill(Role::Version(1));
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
        let vm = RemoteVersionManager::new(b, Arc::clone(&transport));
        assert!(
            matches!(vm.latest(&p), Err(Error::Transport { .. })),
            "blob {b} lives on the dead shard"
        );
    }
    for &b in &survivors {
        let vm = RemoteVersionManager::new(b, Arc::clone(&transport));
        assert_eq!(vm.latest(&p).unwrap().version, VersionId::new(2));
        assert_eq!(publish_once(&vm, b), VersionId::new(3));
    }

    // Fresh process on the same port: the shard's publish logs bring
    // back every published version; the torn v3 grant never surfaces.
    d.restart_fresh(Role::Version(1));
    for &b in &victims {
        let vm = RemoteVersionManager::new(b, Arc::clone(&transport));
        assert_eq!(
            vm.latest(&p).unwrap().version,
            VersionId::new(2),
            "blob {b}: published prefix recovered"
        );
        assert!(!vm.is_published(VersionId::new(3)).unwrap());
    }
    // Asked directly, the restarted `1/4` serves exactly its own slots:
    // every survivor draws a typed refusal naming its slot.
    let direct: Arc<dyn Transport> = Arc::new(Loopback::new(d.service(Role::Version(1))));
    for &b in &survivors {
        let vm = RemoteVersionManager::new(b, Arc::clone(&direct));
        let wrong = Error::WrongShard {
            slot: slot_for_blob(b),
        };
        assert_eq!(
            vm.latest(&p),
            Err(wrong.clone()),
            "blob {b} is not shard 1's"
        );
        assert_eq!(vm.ticket_append(&p, CHUNK).map(drop), Err(wrong));
    }
    for &b in &victims {
        let vm = RemoteVersionManager::new(b, Arc::clone(&direct));
        assert_eq!(vm.latest(&p).unwrap().version, VersionId::new(2));
    }
    // The recovered shard reissues the rolled-back number — to a client
    // whose mirror already holds the row of the grant it rolled back —
    // and the pipeline is healthy again.
    assert_eq!(publish_once(&doomed, doomed_blob), VersionId::new(3));
}

/// Counts the calls that pass through to the transport it wraps.
#[derive(Debug)]
struct Counting {
    inner: Arc<dyn Transport>,
    calls: AtomicUsize,
}

impl Transport for Counting {
    fn call(&self, request: &Request, payload: &[u8]) -> atomio::types::Result<(Response, Bytes)> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.call(request, payload)
    }
}

#[test]
fn a_router_over_the_wrong_shard_count_fails_typed_on_the_first_call() {
    let p = SimClock::new().register();
    let d = fleet(Wire::Loopback, Backend::Memory, 4);
    let shards: Vec<Arc<Counting>> = (0..2)
        .map(|i| {
            Arc::new(Counting {
                inner: Arc::new(Loopback::new(d.service(Role::Version(i)))),
                calls: AtomicUsize::new(0),
            })
        })
        .collect();
    // A client that believes in two shards, over the first two of four.
    let routed: Arc<dyn Transport> = Arc::new(SlotRoutedTransport::new(
        shards
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn Transport>)
            .collect(),
    ));
    // A blob the two-way split sends to shard 1, which the four-way
    // deployment does not let shard 1 own.
    let blob = (0..u64::MAX)
        .find(|b| {
            let slot = slot_for_blob(*b);
            shard_of(slot, 2) == 1 && shard_of(slot, 4) != 1
        })
        .unwrap();

    let vm = RemoteVersionManager::new(blob, routed);
    assert_eq!(
        vm.latest(&p),
        Err(Error::WrongShard {
            slot: slot_for_blob(blob)
        })
    );
    let calls = shards.iter().map(|s| s.calls.load(Ordering::SeqCst));
    assert_eq!(calls.collect::<Vec<_>>(), [0, 1], "one call, no retry");
}
