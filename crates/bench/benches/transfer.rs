//! Microbenchmark of the chunk-transfer engine: serial vs. pipelined
//! batch put/get through the provider manager at provider counts 1, 4,
//! and 16.
//!
//! This measures the **host CPU cost** of driving the simulation (lock
//! traffic, booking arithmetic, actor wake-ups); the simulated-time
//! comparison between the two engines is experiment E7d.
//!
//! The `remote_*_256x2k` groups time the layer below the manager: one
//! provider's batch through `RemoteProvider` → `Loopback` (full wire
//! codec) → `ProviderService` → a temp-dir `DiskProvider`, item by item
//! against the batched trait methods — the criterion number next to
//! `wallbench`'s `tile_write` / `tile_read`.

use atomio_provider::{AllocationStrategy, ChunkStore, GetRequest, ProviderManager};
use atomio_rpc::{Loopback, ProviderService, RemoteProvider};
use atomio_simgrid::clock::run_actors;
use atomio_simgrid::{CostModel, FaultInjector};
use atomio_types::tempdir::TempDir;
use atomio_types::{BackendConfig, ByteRange, ChunkId, FsyncPolicy, ProviderId};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

const CHUNKS: u64 = 32;
const CHUNK_LEN: usize = 4 * 1024;

fn fresh_manager(n: usize) -> Arc<ProviderManager> {
    Arc::new(ProviderManager::new(
        n,
        CostModel::grid5000(),
        AllocationStrategy::RoundRobin,
        Arc::new(FaultInjector::default()),
        7,
    ))
}

fn items() -> Vec<(ChunkId, Bytes)> {
    (0..CHUNKS)
        .map(|i| (ChunkId::new(i), Bytes::from(vec![0u8; CHUNK_LEN])))
        .collect()
}

fn bench_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("transfer_put");
    for &n in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, &n| {
            b.iter(|| {
                let m = fresh_manager(n);
                let items = items();
                run_actors(1, |_, p| {
                    for (chunk, data) in &items {
                        m.put_replicated(p, *chunk, data, 1, 1).unwrap();
                    }
                });
            })
        });
        group.bench_with_input(BenchmarkId::new("pipelined", n), &n, |b, &n| {
            b.iter(|| {
                let m = fresh_manager(n);
                let items = items();
                run_actors(1, |_, p| {
                    let outcomes = m.put_batch_replicated(p, &items, 1, 1);
                    assert!(outcomes.iter().all(|o| o.is_ok()));
                });
            })
        });
    }
    group.finish();
}

/// Builds a loaded manager plus the read requests for its chunks.
fn loaded_manager(n: usize) -> (Arc<ProviderManager>, Vec<GetRequest>) {
    let m = fresh_manager(n);
    let items = items();
    let mc = Arc::clone(&m);
    let (mut homes, _) = run_actors(1, move |_, p| {
        mc.put_batch_replicated(p, &items, 1, 1)
            .into_iter()
            .map(|o| o.unwrap())
            .collect::<Vec<Vec<ProviderId>>>()
    });
    let requests = homes
        .pop()
        .unwrap()
        .into_iter()
        .enumerate()
        .map(|(i, homes)| GetRequest {
            chunk: ChunkId::new(i as u64),
            homes,
            range: ByteRange::new(0, CHUNK_LEN as u64),
        })
        .collect();
    (m, requests)
}

fn bench_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("transfer_get");
    for &n in &[1usize, 4, 16] {
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |b, &n| {
            b.iter_with_setup(
                || loaded_manager(n),
                |(m, requests)| {
                    run_actors(1, move |_, p| {
                        for req in &requests {
                            m.get_with_failover(p, req.chunk, &req.homes, req.range)
                                .unwrap();
                        }
                    });
                },
            )
        });
        group.bench_with_input(BenchmarkId::new("pipelined", n), &n, |b, &n| {
            b.iter_with_setup(
                || loaded_manager(n),
                |(m, requests)| {
                    run_actors(1, move |_, p| {
                        let results = m.get_batch_with_failover(p, &requests);
                        assert!(results.iter().all(|r| r.is_ok()));
                    });
                },
            )
        });
    }
    group.finish();
}

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

criterion_group!(benches, bench_put, bench_get, bench_remote);
criterion_main!(benches);
