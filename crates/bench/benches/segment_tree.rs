//! Microbenchmarks of the copy-on-write segment tree: metadata build and
//! snapshot resolution — the versioning backend's per-write overhead.

use atomio_meta::history::WriteSummary;
use atomio_meta::{
    LeafEntry, MetaStore, NodeKey, NodeStore, TreeBuilder, TreeConfig, VersionHistory,
};
use atomio_simgrid::{CostModel, SimClock};
use atomio_types::{BlobId, ByteRange, ChunkGeometry, ChunkId, ExtentList, ProviderId, VersionId};
use atomio_workloads::TileWorkload;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

const LEAF: u64 = 4096;

struct Fixture {
    store: MetaStore,
    history: VersionHistory,
    config: TreeConfig,
}

impl Fixture {
    fn new() -> Self {
        Self::with_leaf(LEAF)
    }

    fn with_leaf(leaf: u64) -> Self {
        Fixture {
            store: MetaStore::new(4, CostModel::zero()),
            history: VersionHistory::new(),
            config: TreeConfig::new(leaf),
        }
    }

    fn entries(&self, extents: &ExtentList, first_chunk: u64) -> Vec<LeafEntry> {
        let geo = ChunkGeometry::new(self.config.leaf_size);
        geo.split_extents(extents)
            .into_iter()
            .enumerate()
            .map(|(i, span)| LeafEntry {
                file_range: span.absolute,
                chunk: ChunkId::new(first_chunk + i as u64),
                chunk_offset: 0,
                homes: vec![ProviderId::new(0)],
            })
            .collect()
    }

    fn register(&self, extents: &ExtentList) -> (VersionId, u64) {
        self.register_shared(&Arc::new(extents.clone()))
    }

    fn register_shared(&self, extents: &Arc<ExtentList>) -> (VersionId, u64) {
        let v = VersionId::new(self.history.len() as u64 + 1);
        let cap = self
            .config
            .capacity_for(extents.covering_range().end())
            .expect("generated sizes have a capacity")
            .max(self.history.capacity_of(VersionId::new(v.raw() - 1)));
        self.history.append(WriteSummary {
            version: v,
            extents: Arc::clone(extents),
            capacity: cap,
        });
        (v, cap)
    }
}

fn strided_extents(regions: u64) -> ExtentList {
    ExtentList::from_ranges((0..regions).map(|i| ByteRange::new(i * 3 * LEAF, LEAF)))
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree/build_update");
    for &regions in &[8u64, 64, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(regions), &regions, |b, &n| {
            b.iter_with_setup(
                || {
                    let fx = Fixture::new();
                    let ext = strided_extents(n);
                    let (v, cap) = fx.register(&ext);
                    let entries = fx.entries(&ext, 0);
                    (fx, v, cap, entries)
                },
                |(fx, v, cap, entries)| {
                    let clock = SimClock::new();
                    let p = clock.register();
                    let builder =
                        TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
                    black_box(builder.build_update(&p, v, cap, &entries).unwrap());
                },
            );
        });
    }
    group.finish();
}

/// One tile update built on a history `depth` tile writes deep: the
/// cost a writer pays as versions pile up. The history lays the nine
/// tiles of the 3×3 ghost-cell grid (256 × 2 KiB extents each, 64 KiB
/// leaves) down in rank order, as two clients writing rank `(2i + c)
/// mod 9` alternately do; the measured update is a bottom-band tile,
/// whose links reach the never-written tail of the tree's capacity.
fn bench_build_at_depth(c: &mut Criterion) {
    const TILE_LEAF: u64 = 65536;
    let shape = TileWorkload::new(3, 3, 256, 256, 8, 8, 8);
    let tiles: Vec<Arc<ExtentList>> = (0..shape.processes())
        .map(|rank| Arc::new(shape.extents_for(rank)))
        .collect();
    let mut group = c.benchmark_group("tree/build_at_depth");
    for &depth in &[64usize, 512, 4096] {
        let fx = Fixture::with_leaf(TILE_LEAF);
        for j in 0..depth {
            fx.register_shared(&tiles[j % tiles.len()]);
        }
        let (v, cap) = fx.register_shared(&tiles[6]);
        let entries = fx.entries(&tiles[6], 0);
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter_with_setup(
                || MetaStore::new(4, CostModel::zero()),
                |store| {
                    let clock = SimClock::new();
                    let p = clock.register();
                    let builder = TreeBuilder::new(BlobId::new(0), &store, &fx.history, fx.config);
                    black_box(builder.build_update(&p, v, cap, &entries).unwrap());
                },
            );
        });
    }
    group.finish();
}

fn bench_resolve(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree/resolve");
    for &regions in &[8u64, 64, 256] {
        // Build once, resolve repeatedly.
        let fx = Fixture::new();
        let ext = strided_extents(regions);
        let (v, cap) = fx.register(&ext);
        let entries = fx.entries(&ext, 0);
        let clock = SimClock::new();
        let p = clock.register();
        let builder = TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
        let root = builder.build_update(&p, v, cap, &entries).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(regions), &regions, |b, _| {
            b.iter(|| {
                black_box(
                    fx.store
                        .resolve(&p, Some(root), black_box(&ext), None)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_version_chain_reads(c: &mut Criterion) {
    // Measure read cost after k partial overwrites of the same leaf
    // (backlink chain traversal).
    let mut group = c.benchmark_group("tree/backlink_chain");
    for &depth in &[1u64, 8, 32] {
        let fx = Fixture::new();
        let clock = SimClock::new();
        let p = clock.register();
        let builder = TreeBuilder::new(BlobId::new(0), &fx.store, &fx.history, fx.config);
        let mut root = None;
        for i in 0..depth {
            // Each version writes a different 64-byte slice of leaf 0.
            let ext = ExtentList::single(ByteRange::new((i % 64) * 64, 64));
            let (v, cap) = fx.register(&ext);
            let entries = fx.entries(&ext, i * 10);
            root = Some(builder.build_update(&p, v, cap, &entries).unwrap());
        }
        let root = root.unwrap();
        let whole_leaf = ExtentList::single(ByteRange::new(0, LEAF));
        group.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| {
                black_box(
                    fx.store
                        .resolve(&p, Some(root), black_box(&whole_leaf), None)
                        .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_node_key(c: &mut Criterion) {
    c.bench_function("tree/node_key_hash_store", |b| {
        let store = MetaStore::new(8, CostModel::zero());
        let clock = SimClock::new();
        let p = clock.register();
        let mut v = 1u64;
        b.iter(|| {
            let key = NodeKey::new(BlobId::new(0), VersionId::new(v), ByteRange::new(0, LEAF));
            v += 1;
            store
                .put(
                    &p,
                    atomio_meta::Node {
                        key,
                        body: atomio_meta::NodeBody::Inner {
                            left: None,
                            right: None,
                        },
                    },
                )
                .unwrap();
        });
    });
}

criterion_group!(
    benches,
    bench_build,
    bench_build_at_depth,
    bench_resolve,
    bench_version_chain_reads,
    bench_node_key
);
criterion_main!(benches);
