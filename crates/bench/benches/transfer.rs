//! Microbenchmark of the layer below the provider manager: one
//! provider's batch through `RemoteProvider` → `Loopback` (full wire
//! codec) → `ProviderService` → a temp-dir `DiskProvider`, item by item
//! against the batched trait methods — the criterion number next to
//! `wallbench`'s `tile_write` / `tile_read`.

use atomio_provider::ChunkStore;
use atomio_rpc::{Loopback, ProviderService, RemoteProvider};
use atomio_types::tempdir::TempDir;
use atomio_types::{BackendConfig, ByteRange, ChunkId, FsyncPolicy, ProviderId};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;

const TILE_CHUNKS: u64 = 256;
const TILE_CHUNK_LEN: usize = 2 * 1024;

/// A remote provider over the loopback codec, hosted on a fresh
/// temp-dir disk backend (deferred fsync, as the wall-clock benchmark
/// deploys it).
fn fresh_remote() -> (RemoteProvider, TempDir) {
    let tmp = TempDir::new("atomio-bench-transfer");
    let backend = BackendConfig::disk(tmp.path()).with_fsync(FsyncPolicy::Deferred);
    let service = ProviderService::with_backend(1, &backend).expect("open disk backend");
    let transport = Arc::new(Loopback::new(Arc::new(service)));
    (RemoteProvider::new(ProviderId::new(0), transport), tmp)
}

/// The next tile's worth of puts: chunk ids are never reused, so every
/// batch draws fresh ones from `next_id`.
fn tile_puts(next_id: &mut u64) -> Vec<(u64, ChunkId, Bytes)> {
    let first = *next_id;
    *next_id += TILE_CHUNKS;
    (first..*next_id)
        .map(|i| {
            (
                0,
                ChunkId::new(i),
                Bytes::from(vec![i as u8; TILE_CHUNK_LEN]),
            )
        })
        .collect()
}

fn bench_remote(c: &mut Criterion) {
    // One provider per arm, appended to for the whole measurement: only
    // the puts are timed, not directory set-up and tear-down.
    let mut group = c.benchmark_group("remote_put_256x2k");
    group.bench_function("per_item", |b| {
        let (remote, _tmp) = fresh_remote();
        let mut next_id = 0;
        b.iter_with_setup(
            || tile_puts(&mut next_id),
            |puts| {
                for (arrival, chunk, data) in puts {
                    remote.put_chunk_at(arrival, chunk, data).unwrap();
                }
            },
        )
    });
    group.bench_function("batched", |b| {
        let (remote, _tmp) = fresh_remote();
        let mut next_id = 0;
        b.iter_with_setup(
            || tile_puts(&mut next_id),
            |puts| assert!(remote.put_batch_at(&puts).iter().all(|r| r.is_ok())),
        )
    });
    group.finish();

    let (remote, _tmp) = fresh_remote();
    assert!(remote
        .put_batch_at(&tile_puts(&mut 0))
        .iter()
        .all(|r| r.is_ok()));
    let gets: Vec<(u64, ChunkId, ByteRange)> = (0..TILE_CHUNKS)
        .map(|i| (0, ChunkId::new(i), ByteRange::new(0, TILE_CHUNK_LEN as u64)))
        .collect();
    let mut group = c.benchmark_group("remote_get_256x2k");
    group.bench_function("per_item", |b| {
        b.iter(|| {
            for &(arrival, chunk, range) in &gets {
                remote.get_chunk_range_at(arrival, chunk, range).unwrap();
            }
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| assert!(remote.get_range_batch_at(&gets).iter().all(|r| r.is_ok())))
    });
    group.finish();
}

criterion_group!(benches, bench_remote);
criterion_main!(benches);
