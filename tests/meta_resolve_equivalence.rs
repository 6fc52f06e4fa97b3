//! The metadata server's tree walk against the client's. Over a socket,
//! a read resolves its snapshot's segment tree with one `MetaResolve`
//! round trip, walked by the server where the nodes are; in process it
//! is a level walk, one `get_batch` per tree level. Over the same stored
//! nodes both must return exactly the same pieces — holes, reads past
//! the tree's capacity and backlink hops included — on Loopback and on
//! localhost TCP, over the memory and the disk metadata backends. And a
//! round-trip pin keeps the per-level walk from silently coming back to
//! the socket path.

mod common;

use atomio::core::{ReadVersion, Store, StoreConfig};
use atomio::meta::{Node, NodeBody, NodeKey, NodeStore, ResolvedPiece};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::rng::DetRng;
use atomio::simgrid::{Participant, SimClock};
use atomio::types::stamp::WriteStamp;
use atomio::types::{ByteRange, ClientId, ExtentList, Result, VersionId};
use atomio::workloads::TileWorkload;
use bytes::Bytes;
use common::{Backend, Deployment, Layout, Wire};
use std::sync::Arc;

const CHUNK: u64 = 1024;

const ARMS: [(Wire, Backend); 4] = [
    (Wire::Loopback, Backend::Memory),
    (Wire::Loopback, Backend::Disk),
    (Wire::Tcp, Backend::Memory),
    (Wire::Tcp, Backend::Disk),
];

/// Forwards the batch calls of a node store and nothing else, so its
/// `resolve` is the trait's client-walked default: the reference the
/// server's walk must match, over the very same stored nodes.
#[derive(Debug)]
struct LevelWalk(Arc<dyn NodeStore>);

impl NodeStore for LevelWalk {
    fn put_batch(&self, p: &Participant, nodes: Vec<Node>) -> Vec<Result<()>> {
        self.0.put_batch(p, nodes)
    }
    fn get_batch(&self, p: &Participant, keys: &[NodeKey]) -> Vec<Result<Arc<Node>>> {
        self.0.get_batch(p, keys)
    }
    fn contains(&self, key: NodeKey) -> bool {
        self.0.contains(key)
    }
    fn evict_batch(&self, keys: &[NodeKey]) -> u64 {
        self.0.evict_batch(keys)
    }
    fn list_keys(&self) -> Vec<NodeKey> {
        self.0.list_keys()
    }
}

/// A store whose metadata lives in a `MetaService` behind `wire`, with
/// in-process providers and version managers: the deployment's
/// transport counters see metadata round trips only.
fn deploy((wire, backend): (Wire, Backend)) -> (Deployment, Store) {
    let config = StoreConfig::default()
        .with_zero_cost()
        .with_chunk_size(CHUNK)
        .with_data_providers(4)
        .with_meta_shards(2)
        .with_seed(0x3E7A);
    let layout = Layout {
        meta: true,
        ..Layout::new(wire, backend)
    };
    let d = Deployment::start(config, layout);
    let store = d.store();
    (d, store)
}

/// Up to four random, possibly overlapping ranges inside `[0, span)`,
/// none of them leaf-aligned by construction.
fn random_extents(rng: &DetRng, span: u64) -> ExtentList {
    let count = rng.next_range(1, 5);
    ExtentList::from_pairs((0..count).map(|_| {
        let offset = rng.next_below(span - 1);
        (
            offset,
            rng.next_range(1, (span - offset).min(3 * CHUNK) + 1),
        )
    }))
}

#[test]
fn the_server_walk_returns_exactly_the_client_walk_pieces() {
    const SPAN: u64 = 16 * CHUNK;
    for arm in ARMS {
        let (d, store) = deploy(arm);
        let meta = store.meta();
        let reference = LevelWalk(Arc::clone(meta));
        let blob = store.create_blob();
        let rng = DetRng::new(0x5EED);
        let clock = SimClock::new();
        run_actors_on(&clock, 1, |_, p| {
            // Random overlapping non-contiguous writes; the first leaves
            // the end of the tree unwritten, so early versions have holes
            // and a smaller capacity than later ones.
            let mut roots = Vec::new();
            for i in 0..24u64 {
                let span = if i < 4 { SPAN / 4 } else { SPAN };
                let extents = random_extents(&rng, span);
                let stamp = WriteStamp::new(ClientId::new(i), 0);
                blob.write_list(p, &extents, Bytes::from(stamp.payload_for(&extents)))
                    .unwrap();
                roots.push(
                    blob.latest(p)
                        .unwrap()
                        .root
                        .expect("a written blob has a root"),
                );
            }
            // The reads: random extents below and past each version's
            // capacity, plus the whole capacity and a window beyond it.
            let (mut holes, mut past, mut stored) = (0, 0, 0);
            for (i, &root) in roots.iter().enumerate() {
                let capacity = root.range.end();
                let mut reads: Vec<ExtentList> =
                    (0..6).map(|_| random_extents(&rng, 2 * capacity)).collect();
                reads.push(ExtentList::single(ByteRange::new(0, capacity)));
                reads.push(ExtentList::single(ByteRange::new(capacity - 7, 2 * CHUNK)));
                for extents in &reads {
                    let before = d.round_trips();
                    let served = meta.resolve(p, Some(root), extents).unwrap();
                    assert_eq!(d.round_trips() - before, 1, "{arm:?} one round trip");
                    let walked = reference.resolve(p, Some(root), extents).unwrap();
                    assert_eq!(served, walked, "{arm:?} v{} {extents:?}", i + 1);
                    holes += served.iter().filter(|pc| pc.source.is_none()).count();
                    stored += served.iter().filter(|pc| pc.source.is_some()).count();
                    past += served
                        .iter()
                        .filter(|pc| pc.file_range.offset >= capacity)
                        .count();
                }
            }
            assert!(holes > 0 && past > 0 && stored > 0, "{arm:?}");
            // A rootless resolve is all holes on both sides.
            let extents = ExtentList::single(ByteRange::new(3, 100));
            let served = meta.resolve(p, None, &extents).unwrap();
            assert_eq!(served, reference.resolve(p, None, &extents).unwrap());
            assert_eq!(
                served,
                vec![ResolvedPiece {
                    file_range: ByteRange::new(3, 100),
                    source: None
                }]
            );
        });
        // The random writes did leave partly overwritten leaves, so the
        // reads above followed backlinks.
        let keys = meta.list_keys();
        let nodes = run_actors_on(&SimClock::new(), 1, |_, p| meta.get_batch(p, &keys))
            .pop()
            .unwrap();
        let backlinks = nodes
            .into_iter()
            .map(|node| node.unwrap())
            .filter(|node| {
                matches!(
                    node.body,
                    NodeBody::Leaf {
                        backlink: Some(_),
                        ..
                    }
                )
            })
            .count();
        assert!(backlinks > 0, "{arm:?} no leaf has a backlink");
        d.prove_arm(&store);
    }
}

#[test]
fn a_tile_read_costs_one_meta_round_trip_and_no_cache_lookup() {
    // Four ranks' overlapping ghost-cell tiles of 64 rows each, over a
    // tree several levels deep.
    let tile = TileWorkload::new(2, 2, 64, 64, 1, 4, 4);
    for arm in ARMS {
        let (d, store) = deploy(arm);
        let blob = store.create_blob();
        let clock = SimClock::new();
        run_actors_on(&clock, 1, |_, p| {
            for rank in 0..tile.processes() {
                let extents = tile.extents_for(rank);
                let stamp = WriteStamp::new(ClientId::new(rank as u64), 0);
                blob.write_list(p, &extents, Bytes::from(stamp.payload_for(&extents)))
                    .unwrap();
            }
            for rank in 0..tile.processes() {
                for v in 1..=tile.processes() as u64 {
                    // Each version's share of the rank's tile: the
                    // snapshot grows as ranks write.
                    let v = VersionId::new(v);
                    let size = blob.version_manager().snapshot(p, v).unwrap().size;
                    let extents = tile.extents_for(rank).clip(ByteRange::new(0, size));
                    let trips = d.round_trips();
                    let read = blob.read_list(p, ReadVersion::At(v), &extents).unwrap();
                    assert_eq!(read.len() as u64, extents.total_len());
                    assert_eq!(d.round_trips() - trips, 1, "{arm:?} rank {rank} {v}");
                }
            }
        });
        d.prove_arm(&store);
    }
}
