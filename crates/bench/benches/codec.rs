//! Microbenchmark of the frame-header codec on the headers a tile write
//! and a tile read actually send (`wallbench`'s `tile_write` /
//! `tile_read` shapes: the centre tile of a 3×3 grid of 256×256 tiles of
//! 8-byte cells with 8-cell ghost borders, over 64 KiB chunks):
//!
//! * `MetaPutBatch` — the nodes `TreeBuilder` builds for that tile;
//! * `VmTicket` (its 256+ extents) and the `TicketGrant` answering it,
//!   whose delta holds two rows: another writer's tile and its own;
//! * `PutChunkBatch` / `PutBatch` — one provider's 66-item share;
//! * `GetChunkRangeBatch` / `ChunkBatch` — a 105-item read batch;
//! * `NodeGets` — 24 nodes of the built tree.
//!
//! Each message is timed encoding into a reused buffer and decoding
//! from its bytes, single-threaded: the per-header CPU the control plane
//! spends on both sides of every call.

use atomio_meta::{
    LeafEntry, MetaStore, Node, NodeStore, TreeBuilder, TreeConfig, VersionHistory, WriteSummary,
};
use atomio_rpc::{Request, Response};
use atomio_simgrid::{CostModel, SimClock};
use atomio_types::{BlobId, ByteRange, ChunkGeometry, ChunkId, ExtentList, ProviderId, VersionId};
use atomio_version::Ticket;
use atomio_workloads::TileWorkload;
use criterion::{criterion_group, criterion_main, Criterion};
use serde::{Decode, Encode};
use std::hint::black_box;
use std::sync::Arc;

const CHUNK_SIZE: u64 = 64 * 1024;

/// The leaf entries of one tile write: one per chunk span of its extents.
fn tile_entries(extents: &ExtentList) -> Vec<LeafEntry> {
    ChunkGeometry::new(CHUNK_SIZE)
        .split_extents(extents)
        .into_iter()
        .enumerate()
        .map(|(i, span)| LeafEntry {
            file_range: span.absolute,
            chunk: ChunkId::new(i as u64),
            chunk_offset: 0,
            homes: vec![ProviderId::new(i as u64 % 4)],
        })
        .collect()
}

/// The nodes `TreeBuilder` stores for one write of `extents`.
fn tree_nodes(extents: &ExtentList) -> Vec<Node> {
    let history = VersionHistory::new();
    let config = TreeConfig::new(CHUNK_SIZE);
    let capacity = config
        .capacity_for(extents.covering_range().end())
        .expect("a tile fits a tree");
    history.append(WriteSummary {
        version: VersionId::new(1),
        extents: Arc::new(extents.clone()),
        capacity,
    });
    let store = MetaStore::new(1, CostModel::zero());
    let p = SimClock::new().register();
    TreeBuilder::new(BlobId::new(1), &store, &history, config)
        .build_update(&p, VersionId::new(1), capacity, &tile_entries(extents))
        .expect("in-memory build");
    // Top-down, left to right: the order a resolve walks them in.
    let mut keys = store.list_keys();
    keys.sort_by_key(|key| (key.range.offset, std::cmp::Reverse(key.range.len)));
    keys.into_iter()
        .map(|key| (*store.get(&p, key).expect("a listed node")).clone())
        .collect()
}

/// Messages with the names their benchmark groups carry.
type Named<T> = Vec<(&'static str, T)>;

fn messages() -> (Named<Request>, Named<Response>) {
    let tile = TileWorkload::new(3, 3, 256, 256, 8, 8, 8);
    let (own, other) = (tile.extents_for(4), tile.extents_for(3));
    let nodes = tree_nodes(&own);
    let provider = ProviderId::new(1);
    let ticket = Ticket {
        version: VersionId::new(2),
        capacity: 1 << 24,
        size: 1 << 22,
    };
    let row = |version, extents: &ExtentList| WriteSummary {
        version: VersionId::new(version),
        extents: Arc::new(extents.clone()),
        capacity: 1 << 24,
    };
    let requests = vec![
        (
            "MetaPutBatch",
            Request::MetaPutBatch {
                nodes: nodes.clone(),
            },
        ),
        (
            "VmTicket",
            Request::VmTicket {
                blob: 1,
                extents: own.clone(),
                known: 1,
            },
        ),
        (
            "PutChunkBatch",
            Request::PutChunkBatch {
                provider,
                items: (0..66).map(|i| (i, ChunkId::new(i), 2048)).collect(),
            },
        ),
        (
            "GetChunkRangeBatch",
            Request::GetChunkRangeBatch {
                provider,
                items: (0..105)
                    .map(|i| (i, ChunkId::new(i), ByteRange::new(i * 512, 2048)))
                    .collect(),
            },
        ),
    ];
    let responses = vec![
        (
            "TicketGrant",
            Response::TicketGrant {
                ticket,
                delta: vec![row(1, &other), row(2, &own)],
            },
        ),
        (
            "PutBatch",
            Response::PutBatch {
                results: (0..66).map(Ok).collect(),
            },
        ),
        (
            "ChunkBatch",
            Response::ChunkBatch {
                results: (0..105).map(|i| Ok((2048, i))).collect(),
            },
        ),
        (
            "NodeGets",
            Response::NodeGets {
                results: nodes.into_iter().take(24).map(Ok).collect(),
            },
        ),
    ];
    (requests, responses)
}

fn bench_message<T: Encode + Decode>(c: &mut Criterion, name: &str, message: &T) {
    let mut encoded = Vec::new();
    message.encode(&mut encoded);
    println!("{name}: {} header bytes", encoded.len());
    let mut group = c.benchmark_group(format!("codec_{name}"));
    let mut out = Vec::with_capacity(encoded.len());
    group.bench_function("encode", |b| {
        b.iter(|| {
            out.clear();
            black_box(message).encode(&mut out);
            black_box(out.len())
        })
    });
    group.bench_function("decode", |b| {
        b.iter(|| serde::decode_exact::<T>(black_box(&encoded)).expect("own encoding"))
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let (requests, responses) = messages();
    for (name, request) in &requests {
        bench_message(c, name, request);
    }
    for (name, response) in &responses {
        bench_message(c, name, response);
    }
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
