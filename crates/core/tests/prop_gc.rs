//! Property test for version GC's reclaimed sets.
//!
//! Reference model: a recursive walk that reaches every node and chunk
//! below a root one node at a time, visiting each key once, and a pass
//! that evicts what the swept versions reach and the retained ones do
//! not, version by version. For random histories of rows smaller
//! than a leaf and whole leaves, and passes to random floors, each pass
//! must evict exactly the node keys and chunk ids the model computes
//! from the store as it stood before the pass, and every retained
//! version must read back equal to the replay of the writes.
//!
//! A write packs its pieces into leaf-sized chunks, so the pieces of a
//! multi-row write share chunks across leaves: the exact-eviction
//! property covers packing too, since a chunk is evicted only when no
//! retained version reaches any of its pieces.

use atomio_core::{GcCoordinator, Store, StoreConfig};
use atomio_meta::{Node, NodeBody, NodeKey};
use atomio_simgrid::clock::run_actors;
use atomio_simgrid::Participant;
use atomio_types::{ByteRange, ChunkId, ExtentList, RetentionPolicy, VersionId};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

const LEAF: u64 = 64;
const LEAVES: u64 = 8;

/// One step of a history.
#[derive(Debug, Clone)]
enum Step {
    /// An atomic `write_list` of these `(offset, len)` pieces.
    Write(Vec<(u64, u64)>),
    /// One GC pass under `KeepLast(keep)`.
    Gc { keep: u64 },
}

/// A piece is a whole leaf or a row inside one leaf.
fn arb_piece() -> impl Strategy<Value = (u64, u64)> {
    (0..LEAVES, any::<bool>(), 0..LEAF, 1..LEAF).prop_map(|(leaf, whole, off, len)| {
        if whole {
            (leaf * LEAF, LEAF)
        } else {
            (leaf * LEAF + off, len.min(LEAF - off))
        }
    })
}

fn arb_step() -> impl Strategy<Value = Step> {
    (
        0..3u8,
        proptest::collection::vec(arb_piece(), 1..5),
        1..4u64,
    )
        .prop_map(|(kind, pieces, keep)| match kind {
            0 => Step::Gc { keep },
            _ => Step::Write(pieces),
        })
}

type Table = HashMap<NodeKey, Arc<Node>>;

/// The model walk: every node and chunk reachable from `root`, or
/// `None` when a node it reaches is not in `table`.
fn model_reach(
    table: &Table,
    root: Option<NodeKey>,
) -> Option<(HashSet<NodeKey>, HashSet<ChunkId>)> {
    fn collect(
        table: &Table,
        key: NodeKey,
        nodes: &mut HashSet<NodeKey>,
        chunks: &mut HashSet<ChunkId>,
    ) -> Option<()> {
        if !nodes.insert(key) {
            return Some(());
        }
        match &table.get(&key)?.body {
            NodeBody::Inner { left, right } => {
                for link in [left, right].into_iter().flatten() {
                    collect(table, *link, nodes, chunks)?;
                }
            }
            NodeBody::Leaf { entries, backlink } => {
                chunks.extend(entries.iter().map(|e| e.chunk));
                if let Some(older) = backlink {
                    collect(table, *older, nodes, chunks)?;
                }
            }
        }
        Some(())
    }
    let (mut nodes, mut chunks) = (HashSet::new(), HashSet::new());
    if let Some(root) = root {
        collect(table, root, &mut nodes, &mut chunks)?;
    }
    Some((nodes, chunks))
}

/// What the model says a pass retiring `[from, keep_from)` evicts:
/// everything the swept versions reach that the retained ones do not.
/// A swept version that reaches a missing node contributes nothing.
fn model_pass(
    table: &Table,
    roots: &[Option<NodeKey>],
    from: u64,
    keep_from: u64,
) -> (u64, HashSet<NodeKey>, HashSet<ChunkId>) {
    let root = |v: u64| roots[v as usize - 1];
    let (mut live_nodes, mut live_chunks) = (HashSet::new(), HashSet::new());
    for v in keep_from..=roots.len() as u64 {
        let (nodes, chunks) = model_reach(table, root(v)).expect("retained trees are whole");
        live_nodes.extend(nodes);
        live_chunks.extend(chunks);
    }
    let (mut retired, mut dead_nodes, mut dead_chunks) = (0, HashSet::new(), HashSet::new());
    for v in from..keep_from {
        if let Some((nodes, chunks)) = model_reach(table, root(v)) {
            dead_nodes.extend(nodes.difference(&live_nodes));
            dead_chunks.extend(chunks.difference(&live_chunks));
            retired += 1;
        }
    }
    (retired, dead_nodes, dead_chunks)
}

/// Every stored node, keyed.
fn node_table(store: &Store, p: &Participant) -> Table {
    store
        .meta()
        .get_batch(p, &store.meta().list_keys())
        .into_iter()
        .map(|node| {
            let node = node.expect("listed nodes are stored");
            (node.key, node)
        })
        .collect()
}

/// Every chunk some provider still holds, among `universe`.
fn stored_chunks(store: &Store, universe: &HashSet<ChunkId>) -> HashSet<ChunkId> {
    universe
        .iter()
        .copied()
        .filter(|&c| {
            store
                .providers()
                .providers()
                .iter()
                .any(|pr| pr.has_chunk(c))
        })
        .collect()
}

/// The payload of version `v` over `len` bytes: distinct per version
/// and per position, so a byte read from the wrong version shows.
fn payload(v: u64, len: u64) -> Vec<u8> {
    (0..len).map(|i| (v * 31 + i * 7) as u8 | 1).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gc_passes_evict_exactly_the_recursive_walks_sets(
        steps in proptest::collection::vec(arb_step(), 1..24),
        pass_cap in 1..4u64,
    ) {
        let store = Store::new(
            StoreConfig::default()
                .with_zero_cost()
                .with_chunk_size(LEAF)
                .with_data_providers(3)
                .with_meta_shards(2),
        );
        let blob = store.create_blob();
        run_actors(1, |_, p| {
            let mut gc = GcCoordinator::new(blob.clone()).with_pass_cap(pass_cap);
            // replay[v] is the file after version v; roots[v - 1] is v's root.
            let mut replay = vec![Vec::new()];
            let mut roots = Vec::new();
            let mut chunks_ever = HashSet::new();
            for step in &steps {
                match step {
                    Step::Write(pieces) => {
                        let extents = ExtentList::from_pairs(pieces.iter().copied());
                        let v = roots.len() as u64 + 1;
                        let bytes = payload(v, extents.total_len());
                        let got = blob
                            .write_list(p, &extents, Bytes::from(bytes.clone()))
                            .unwrap();
                        assert_eq!(got, VersionId::new(v));
                        let mut file = replay.last().cloned().unwrap();
                        let mut src = bytes.iter();
                        for r in &extents {
                            if file.len() < r.end() as usize {
                                file.resize(r.end() as usize, 0);
                            }
                            for b in &mut file[r.offset as usize..r.end() as usize] {
                                *b = *src.next().unwrap();
                            }
                        }
                        replay.push(file);
                        roots.push(blob.version_manager().snapshot(p, got).unwrap().root);
                        let table = node_table(&store, p);
                        let (_, chunks) = model_reach(&table, *roots.last().unwrap()).unwrap();
                        chunks_ever.extend(chunks);
                    }
                    Step::Gc { keep } => {
                        blob.set_retention(p, RetentionPolicy::KeepLast(*keep)).unwrap();
                        let table = node_table(&store, p);
                        let chunks_before = stored_chunks(&store, &chunks_ever);
                        let from = gc.swept_below().raw();
                        let pass = gc.run_pass(p).unwrap();
                        let keep_from = pass.swept_below.raw();
                        let (retired, dead_nodes, dead_chunks) =
                            model_pass(&table, &roots, from, keep_from);
                        let kept: HashSet<NodeKey> =
                            store.meta().list_keys().into_iter().collect();
                        let evicted_nodes: HashSet<NodeKey> =
                            table.keys().copied().filter(|k| !kept.contains(k)).collect();
                        let evicted_chunks: HashSet<ChunkId> = chunks_before
                            .difference(&stored_chunks(&store, &chunks_ever))
                            .copied()
                            .collect();
                        assert_eq!(pass.report.versions_retired, retired, "{steps:?}");
                        assert_eq!(evicted_nodes, dead_nodes, "{steps:?}");
                        assert_eq!(pass.report.nodes_evicted, dead_nodes.len() as u64);
                        assert_eq!(evicted_chunks, dead_chunks, "{steps:?}");
                        // Every retained version reads back its replay.
                        for v in keep_from.max(1)..=roots.len() as u64 {
                            let file = &replay[v as usize];
                            let whole = ExtentList::single(ByteRange::new(0, file.len() as u64));
                            let got = blob.read_at(p, VersionId::new(v), &whole).unwrap();
                            assert_eq!(&got, file, "v{v} after a pass to v{keep_from}: {steps:?}");
                        }
                    }
                }
            }
        });
    }
}
