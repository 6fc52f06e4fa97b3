//! Model-based property tests for the copy-on-write segment tree.
//!
//! Reference model: a flat byte buffer to which writes are applied in
//! version order. For every prefix of the write sequence, resolving any
//! window through the corresponding tree must yield exactly the model's
//! bytes — including when trees are *built in an arbitrary order* (the
//! forward-reference/deterministic-key property that lets concurrent
//! writers proceed without waiting).

use atomio_meta::history::WriteSummary;
use atomio_meta::{LeafEntry, MetaStore, NodeKey, NodeStore, TreeBuilder, TreeConfig};
use atomio_simgrid::clock::run_actors;
use atomio_simgrid::CostModel;
use atomio_types::{BlobId, ByteRange, ChunkGeometry, ChunkId, ExtentList, ProviderId, VersionId};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

const LEAF: u64 = 32;
const UNIVERSE: u64 = 1024;

/// One generated write: a set of raw ranges (possibly overlapping; they
/// get normalized) and a fill byte.
#[derive(Debug, Clone)]
struct GenWrite {
    ranges: Vec<(u64, u64)>,
    fill: u8,
}

fn arb_write() -> impl Strategy<Value = GenWrite> {
    (
        proptest::collection::vec((0..UNIVERSE, 1..100u64), 1..6),
        any::<u8>(),
    )
        .prop_map(|(raw, fill)| GenWrite {
            ranges: raw
                .into_iter()
                .map(|(off, len)| (off, len.min(UNIVERSE - off)))
                .filter(|&(_, len)| len > 0)
                .collect(),
            fill,
        })
        .prop_filter("need at least one non-empty range", |w| {
            !w.ranges.is_empty()
        })
}

struct Harness {
    store: MetaStore,
    history: atomio_meta::VersionHistory,
    config: TreeConfig,
    /// chunk id -> payload bytes (the "data providers" of this test).
    chunk_data: HashMap<ChunkId, Vec<u8>>,
    next_chunk: u64,
    roots: Vec<NodeKey>,
    models: Vec<Vec<u8>>, // model state after each version
}

impl Harness {
    fn new() -> Self {
        Harness {
            store: MetaStore::new(4, CostModel::zero()),
            history: atomio_meta::VersionHistory::new(),
            config: TreeConfig::new(LEAF),
            chunk_data: HashMap::new(),
            next_chunk: 0,
            roots: Vec::new(),
            models: vec![vec![0u8; UNIVERSE as usize]],
        }
    }

    /// Registers writes in ticket order, producing per-version entries.
    fn register(&mut self, writes: &[GenWrite]) -> Vec<(VersionId, u64, Vec<LeafEntry>)> {
        let geo = ChunkGeometry::new(LEAF);
        let mut jobs = Vec::new();
        for (i, w) in writes.iter().enumerate() {
            let v = VersionId::new(i as u64 + 1);
            let extents = ExtentList::from_pairs(w.ranges.iter().copied());
            let capacity = self
                .config
                .capacity_for(extents.covering_range().end())
                .expect("generated sizes have a capacity")
                .max(self.history.capacity_of(VersionId::new(v.raw() - 1)));
            self.history.append(WriteSummary {
                version: v,
                extents: Arc::new(extents.clone()),
                capacity,
            });
            let mut entries = Vec::new();
            for span in geo.split_extents(&extents) {
                let chunk = ChunkId::new(self.next_chunk);
                self.next_chunk += 1;
                self.chunk_data.insert(
                    chunk,
                    [w.fill, w.fill].repeat(span.absolute.len as usize / 2 + 1)
                        [..span.absolute.len as usize]
                        .to_vec(),
                );
                entries.push(LeafEntry {
                    file_range: span.absolute,
                    chunk,
                    chunk_offset: 0,
                    homes: vec![ProviderId::new(0)],
                });
            }
            // Update the model in version order.
            let mut model = self.models.last().unwrap().clone();
            for r in &extents {
                for b in &mut model[r.offset as usize..r.end() as usize] {
                    *b = w.fill;
                }
            }
            self.models.push(model);
            jobs.push((v, capacity, entries));
        }
        jobs
    }

    /// Reads `window` of version `v` via the tree and materializes bytes.
    fn read(&self, p: &atomio_simgrid::Participant, v: usize, window: ByteRange) -> Vec<u8> {
        let root = if v == 0 {
            None
        } else {
            Some(self.roots[v - 1])
        };
        let pieces = self
            .store
            .resolve(p, root, &ExtentList::single(window), None)
            .unwrap();
        let mut out = vec![0u8; window.len as usize];
        let mut covered = 0u64;
        for piece in pieces {
            let dst_off = (piece.file_range.offset - window.offset) as usize;
            let dst = &mut out[dst_off..dst_off + piece.file_range.len as usize];
            if let Some(src) = piece.source {
                let data = &self.chunk_data[&src.chunk];
                let lo = src.chunk_offset as usize;
                dst.copy_from_slice(&data[lo..lo + dst.len()]);
            }
            covered += piece.file_range.len;
        }
        assert_eq!(covered, window.len, "pieces must tile the window");
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tree_reads_match_model_at_every_version(
        writes in proptest::collection::vec(arb_write(), 1..10),
        windows in proptest::collection::vec((0..UNIVERSE, 1..200u64), 1..6),
    ) {
        let mut h = Harness::new();
        let jobs = h.register(&writes);
        run_actors(1, |_, p| {
            let builder = TreeBuilder::new(BlobId::new(0), &h.store, &h.history, h.config);
            for (v, cap, entries) in &jobs {
                let root = builder.build_update(p, *v, *cap, entries).unwrap();
                // roots indexed by version-1; builds here are in order.
                assert_eq!(root.version, *v);
            }
        });
        // Collect roots (deterministic keys make them predictable).
        for (v, cap, _) in &jobs {
            h.roots.push(NodeKey::new(BlobId::new(0), *v, ByteRange::new(0, *cap)));
        }
        run_actors(1, |_, p| {
            for v in 0..=writes.len() {
                for &(off, len) in &windows {
                    let len = len.min(UNIVERSE - off);
                    if len == 0 { continue; }
                    let window = ByteRange::new(off, len);
                    let got = h.read(p, v, window);
                    let want = &h.models[v][off as usize..(off + len) as usize];
                    prop_assert_eq!(&got[..], want, "version {} window {}", v, window);
                }
            }
            Ok(())
        }).0.into_iter().collect::<Result<Vec<_>, _>>()?;
    }

    #[test]
    fn build_order_does_not_matter(
        writes in proptest::collection::vec(arb_write(), 2..8),
        seed in any::<u64>(),
    ) {
        let mut h = Harness::new();
        let mut jobs = h.register(&writes);
        // Shuffle the build order deterministically.
        let rng = atomio_simgrid::DetRng::new(seed);
        rng.shuffle(&mut jobs);
        run_actors(1, |_, p| {
            let builder = TreeBuilder::new(BlobId::new(0), &h.store, &h.history, h.config);
            for (v, cap, entries) in &jobs {
                builder.build_update(p, *v, *cap, entries).unwrap();
            }
        });
        for (i, w) in writes.iter().enumerate() {
            let _ = w;
            let v = VersionId::new(i as u64 + 1);
            let cap = h.history.capacity_of(v);
            h.roots.push(NodeKey::new(BlobId::new(0), v, ByteRange::new(0, cap)));
        }
        // After ALL builds complete, every version must read exactly as
        // the in-order model.
        run_actors(1, |_, p| {
            for v in 1..=writes.len() {
                let got = h.read(p, v, ByteRange::new(0, UNIVERSE));
                prop_assert_eq!(&got[..], &h.models[v][..], "version {}", v);
            }
            Ok(())
        }).0.into_iter().collect::<Result<Vec<_>, _>>()?;
    }
}
