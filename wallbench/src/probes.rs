//! Layer probes: single-thread, in-process timings of the public
//! functions the client-side spans cannot split, on the same shapes the
//! workloads use (2 KiB tile rows, 64 KiB chunks, 256-leaf trees).
//!
//! Each probe runs its operation repeatedly until its time budget or its
//! iteration cap is spent and reports the mean of the timed part. The
//! caps bound what a probe leaves on disk and in memory.

use crate::deploy::{spawn_server, Env, CHUNK_SIZE};
use crate::workloads::tile_shape;
use atomio_meta::{
    DiskNodeStore, LeafEntry, MetaStore, Node, NodeKey, NodeStore, TreeBuilder, TreeConfig,
    TreeReader, VersionHistory,
};
use atomio_provider::{chunk_checksum, DataProvider, DiskProvider};
use atomio_rpc::{
    dial, wire, Loopback, ProviderService, Request, Response, RpcConfig, RpcMode, Service,
    Transport,
};
use atomio_simgrid::{CostModel, FaultInjector, SimClock};
use atomio_types::{
    BackendConfig, BlobId, ByteRange, ChunkGeometry, ChunkId, ExtentList, FsyncPolicy, ProviderId,
};
use atomio_version::{TicketMode, VersionManager};
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One probe result: metric name, value, iterations behind it.
pub type Reading = (&'static str, f64, u64);

/// Runs `step(i)` — which returns the duration of its timed part — until
/// `budget` of wall time or `max_iters` is spent. Returns (mean timed
/// nanoseconds, iterations).
fn measure(budget: Duration, max_iters: u64, mut step: impl FnMut(u64) -> Duration) -> (f64, u64) {
    let started = Instant::now();
    let (mut timed, mut iters) = (Duration::ZERO, 0);
    while iters < max_iters && (iters == 0 || started.elapsed() < budget) {
        timed += step(iters);
        iters += 1;
    }
    (timed.as_nanos() as f64 / iters as f64, iters)
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let start = Instant::now();
    black_box(f());
    start.elapsed()
}

fn zero_faults() -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(0))
}

fn pattern(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i * 31 + 7) as u8).collect::<Vec<u8>>())
}

/// The leaf entries one tile write hands the tree builder.
fn tile_entries(extents: &ExtentList, first_chunk: u64) -> Vec<LeafEntry> {
    ChunkGeometry::new(CHUNK_SIZE)
        .split_extents(extents)
        .into_iter()
        .enumerate()
        .map(|(i, span)| LeafEntry {
            file_range: span.absolute,
            chunk: ChunkId::new(first_chunk + i as u64),
            chunk_offset: 0,
            homes: vec![ProviderId::new(i as u64 % 4)],
        })
        .collect()
}

/// Runs every probe, `budget` each, with scratch state under
/// `env.run_dir`. Fails only when a probe's subject cannot be set up.
pub fn run_all(env: &Env, budget: Duration) -> Result<Vec<Reading>, String> {
    let scratch = env.run_dir.join("probes");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let mut out: Vec<Reading> = Vec::new();
    let push_us = |out: &mut Vec<Reading>, name, (ns, n): (f64, u64)| out.push((name, ns / 1e3, n));
    let err = |what: &str, e: atomio_types::Error| format!("probe {what}: {e}");

    let tile = tile_shape();
    let extents = tile.extents_for(4); // the centre tile: ghost cells on every side
    let geometry = ChunkGeometry::new(CHUNK_SIZE);
    let (small, large) = (pattern(2048), pattern(CHUNK_SIZE as usize));
    let p = SimClock::new().register();

    // types: extent → chunk-span algebra of one tile.
    push_us(
        &mut out,
        "types.split_tile_extents_us",
        measure(budget, u64::MAX, |_| {
            timed(|| geometry.split_extents(&extents))
        }),
    );

    // provider: checksum, memory put, disk put/get, the service handler.
    let (ns, n) = measure(budget, u64::MAX, |_| timed(|| chunk_checksum(&large)));
    out.push((
        "provider.checksum_mib_s",
        (CHUNK_SIZE as f64 / (1 << 20) as f64) / (ns / 1e9),
        n,
    ));

    let memory = DataProvider::new(ProviderId::new(0), CostModel::zero(), zero_faults());
    push_us(
        &mut out,
        "provider.mem_put_64k_us",
        measure(budget, 100_000, |i| {
            let data = large.clone();
            timed(|| memory.put_chunk_at(0, ChunkId::new(i), data))
        }),
    );

    // The disk probes run the policy the deployment's provider and meta
    // servers run (`deferred`); one more shows what a synced append costs.
    let open_disk = |dir: &str, fsync| {
        DiskProvider::open(
            scratch.join(dir),
            ProviderId::new(0),
            CostModel::zero(),
            zero_faults(),
            fsync,
        )
        .map_err(|e| err("open disk provider", e))
    };
    let disk = open_disk("provider", FsyncPolicy::Deferred)?;
    for (put, get, data, base, most) in [
        (
            "provider.disk_put_2k_us",
            "provider.disk_get_2k_us",
            &small,
            0u64,
            65_536,
        ),
        (
            "provider.disk_put_64k_us",
            "provider.disk_get_64k_us",
            &large,
            1 << 32,
            4096,
        ),
    ] {
        let (ns, stored) = measure(budget, most, |i| {
            let data = data.clone();
            timed(|| disk.put_chunk_at(0, ChunkId::new(base + i), data))
        });
        push_us(&mut out, put, (ns, stored));
        let whole = ByteRange::new(0, data.len() as u64);
        push_us(
            &mut out,
            get,
            measure(budget, u64::MAX, |i| {
                timed(|| disk.get_chunk_range_at(0, ChunkId::new(base + i % stored), whole))
            }),
        );
    }
    drop(disk);
    let synced = open_disk("provider-synced", FsyncPolicy::PerPublish)?;
    push_us(
        &mut out,
        "provider.disk_put_2k_synced_us",
        measure(budget, 2048, |i| {
            let data = small.clone();
            timed(|| synced.put_chunk_at(0, ChunkId::new(i), data))
        }),
    );
    drop(synced);

    let service = ProviderService::with_backend(
        1,
        &BackendConfig::disk(scratch.join("service")).with_fsync(FsyncPolicy::Deferred),
    )
    .map_err(|e| err("open provider service", e))?;
    push_us(
        &mut out,
        "provider.service_put_2k_us",
        measure(budget, 65_536, |i| {
            let request = Request::PutChunk {
                provider: ProviderId::new(0),
                arrival: 0,
                chunk: ChunkId::new(i),
            };
            let data = small.clone();
            timed(|| service.handle(request, data))
        }),
    );
    drop(service);

    // meta: build and resolve one tile's tree in memory, then the same
    // node batches against the durable node store.
    let blob = BlobId::new(1);
    let vm = VersionManager::new(
        Arc::new(VersionHistory::new()),
        TreeConfig::new(CHUNK_SIZE),
        CostModel::zero(),
        TicketMode::Pipelined,
    );
    let store = MetaStore::new(2, CostModel::zero());
    let mut roots: Vec<NodeKey> = Vec::new();
    push_us(
        &mut out,
        "meta.tree_build_256_us",
        measure(budget, 128, |i| {
            let (ticket, _, _) = vm
                .ticket_local(&extents, vm.history().len())
                .expect("in-process ticket");
            let entries = tile_entries(&extents, i * 1024);
            let builder = TreeBuilder::new(blob, &store, vm.history(), TreeConfig::new(CHUNK_SIZE));
            let start = Instant::now();
            let root = builder
                .build_update(&p, ticket.version, ticket.capacity, &entries)
                .expect("in-memory build");
            let spent = start.elapsed();
            roots.push(root);
            spent
        }),
    );
    let reader = TreeReader::new(&store);
    push_us(
        &mut out,
        "meta.tree_resolve_256_us",
        measure(budget, u64::MAX, |i| {
            let root = roots[i as usize % roots.len()];
            timed(|| reader.resolve(&p, Some(root), &extents))
        }),
    );
    // One batch per built version: exactly the nodes that build stored.
    let mut batches: Vec<Vec<Node>> = vec![Vec::new(); roots.len()];
    for key in store.list_keys() {
        let node = store.get(&p, key).map_err(|e| err("collect nodes", e))?;
        batches[key.version.raw() as usize - 1].push((*node).clone());
    }
    let durable = DiskNodeStore::open(
        scratch.join("meta"),
        2,
        CostModel::zero(),
        FsyncPolicy::Deferred,
    )
    .map_err(|e| err("open disk node store", e))?;
    push_us(
        &mut out,
        "meta.disk_put_batch_256_us",
        measure(budget, batches.len() as u64, |i| {
            let nodes = batches[i as usize].clone();
            timed(|| durable.put_batch(&p, nodes))
        }),
    );
    let keys: Vec<NodeKey> = batches[0].iter().map(|n| n.key).collect();
    push_us(
        &mut out,
        "meta.disk_get_batch_256_us",
        measure(budget, u64::MAX, |_| timed(|| durable.get_batch(&p, &keys))),
    );
    drop(durable);

    // version: ticket + publish in process, without and with the fsynced
    // publish log, then the cost of replaying that log.
    let grant_publish = |vm: &VersionManager| {
        let (ticket, _, _) = vm
            .ticket_append_local(CHUNK_SIZE, vm.history().len())
            .expect("in-process ticket");
        let root = NodeKey::new(blob, ticket.version, ByteRange::new(0, ticket.capacity));
        vm.publish_local(ticket, root).expect("in-process publish");
    };
    let open_log = |dir: &Path, fsync| {
        VersionManager::durable(
            dir,
            Arc::new(VersionHistory::new()),
            TreeConfig::new(CHUNK_SIZE),
            CostModel::zero(),
            TicketMode::Pipelined,
            fsync,
        )
    };
    let in_memory = VersionManager::new(
        Arc::new(VersionHistory::new()),
        TreeConfig::new(CHUNK_SIZE),
        CostModel::zero(),
        TicketMode::Pipelined,
    );
    push_us(
        &mut out,
        "version.grant_publish_mem_us",
        measure(budget, 100_000, |_| timed(|| grant_publish(&in_memory))),
    );
    let logged = open_log(&scratch.join("log-fsync"), FsyncPolicy::PerPublish)
        .map_err(|e| err("open publish log", e))?;
    push_us(
        &mut out,
        "version.grant_publish_durable_us",
        measure(budget, 4096, |_| timed(|| grant_publish(&logged))),
    );
    drop(logged);
    const REPLAYED: u64 = 2000;
    let replay_dir = scratch.join("log-replay");
    let writer =
        open_log(&replay_dir, FsyncPolicy::Deferred).map_err(|e| err("open publish log", e))?;
    for _ in 0..REPLAYED {
        grant_publish(&writer);
    }
    writer.flush().map_err(|e| err("flush publish log", e))?;
    drop(writer);
    let (ns, n) = measure(budget, 64, |_| {
        timed(|| open_log(&replay_dir, FsyncPolicy::Deferred).expect("replay publish log"))
    });
    out.push((
        "version.log_replay_us_per_kpublish",
        ns / 1e3 * 1000.0 / REPLAYED as f64,
        n,
    ));
    let push_ns = |out: &mut Vec<Reading>, name, (ns, n): (f64, u64)| out.push((name, ns, n));

    // rpc: header codec, frame codec, loopback and TCP round trips.
    let put_header = Request::PutChunk {
        provider: ProviderId::new(3),
        arrival: 123_456_789,
        chunk: ChunkId::new(987_654_321),
    };
    let mut encoded = Vec::with_capacity(256);
    push_ns(
        &mut out,
        "rpc.encode_put_header_ns",
        measure(budget, u64::MAX, |_| {
            encoded.clear();
            timed(|| wire::encode_value(&put_header.to_value(), &mut encoded))
        }),
    );
    push_ns(
        &mut out,
        "rpc.decode_put_header_ns",
        measure(budget, u64::MAX, |_| {
            timed(|| Request::from_value(&wire::decode_value(&encoded).expect("own encoding")))
        }),
    );
    let header = put_header.to_value();
    let mut frame = Vec::with_capacity(CHUNK_SIZE as usize + 256);
    push_ns(
        &mut out,
        "rpc.frame_write_64k_ns",
        measure(budget, u64::MAX, |i| {
            frame.clear();
            timed(|| wire::write_frame(&mut frame, i, &header, &large))
        }),
    );
    push_ns(
        &mut out,
        "rpc.frame_read_64k_ns",
        measure(budget, u64::MAX, |_| {
            timed(|| wire::read_frame(&mut frame.as_slice()))
        }),
    );
    let ping = |transport: &dyn Transport| match transport.call(&Request::Ping, &[]) {
        Ok((Response::Pong, _)) => {}
        other => panic!("ping answered {other:?}"),
    };
    let loopback = Loopback::new(Arc::new(ProviderService::new(1)));
    push_us(
        &mut out,
        "rpc.loopback_roundtrip_us",
        measure(budget, u64::MAX, |_| timed(|| ping(&loopback))),
    );
    // The same Ping to a spawned provider server: the difference to the
    // loopback figure is socket + reactor + dispatch queue.
    let server = spawn_server(
        env,
        "provider",
        "127.0.0.1:0",
        &[
            "--providers",
            "1",
            "--server-mode",
            "reactor",
            "--workers",
            "2",
        ]
        .map(String::from),
    )?;
    let tcp = dial(
        server.addr,
        RpcMode::Mux,
        RpcConfig {
            pool_conns: 1,
            ..RpcConfig::default()
        },
        None,
    );
    ping(tcp.as_ref()); // dial outside the timed part
    push_us(
        &mut out,
        "rpc.tcp_roundtrip_us",
        measure(budget, u64::MAX, |_| timed(|| ping(tcp.as_ref()))),
    );
    drop(server);

    let _ = std::fs::remove_dir_all(&scratch);
    Ok(out)
}
