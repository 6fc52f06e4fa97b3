//! `atomio_sim` — the command-line simulation driver.
//!
//! Lets a user run any workload × backend combination without writing
//! code:
//!
//! ```text
//! atomio_sim backends
//! atomio_sim write-bench --backend versioning --clients 16 --regions 32 \
//!             --region-kib 256 --overlap-pct 50 --servers 16 --verify
//! atomio_sim tile --grid 4 --tile 128 --elem 32 --ghost 2 \
//!             --backend lustre-lock --two-phase
//! ```
//!
//! All time is simulated; results print as one table row plus the
//! atomicity verdict.

use atomio_bench::{Backend, BenchConfig};
use atomio_mpiio::{CollectiveStrategy, Communicator, File, OpenMode};
use atomio_simgrid::clock::run_actors_on;
use atomio_simgrid::SimClock;
use atomio_types::stamp::WriteStamp;
use atomio_types::{ClientId, ExtentList};
use atomio_workloads::{run_write_round, OverlapWorkload, TileWorkload};
use std::collections::HashMap;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage:
  atomio_sim backends
  atomio_sim write-bench [--backend NAME] [--clients N] [--regions N]
                         [--region-kib N] [--overlap-pct P] [--servers N]
                         [--chunk-kib N] [--verify]
  atomio_sim tile [--backend NAME] [--grid G] [--tile N] [--elem BYTES]
                  [--ghost N] [--servers N] [--two-phase]
  atomio_sim scrub [--servers N] [--chunks N] [--corrupt N]"
    );
    std::process::exit(2);
}

fn parse_flags(args: &[String]) -> (HashMap<String, String>, bool, bool) {
    let mut flags = HashMap::new();
    let mut verify = false;
    let mut two_phase = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--verify" => verify = true,
            "--two-phase" => two_phase = true,
            key if key.starts_with("--") => {
                let value = args.get(i + 1).unwrap_or_else(|| usage());
                flags.insert(key.trim_start_matches("--").to_owned(), value.clone());
                i += 1;
            }
            _ => usage(),
        }
        i += 1;
    }
    (flags, verify, two_phase)
}

fn get<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    flags
        .get(key)
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for --{key}: {v}");
                std::process::exit(2);
            })
        })
        .unwrap_or(default)
}

fn backend_by_name(name: &str) -> Backend {
    match name {
        "versioning" => Backend::Versioning,
        "lustre-lock" => Backend::LustreLock,
        "conflict-detect" => Backend::ConflictDetect,
        "no-lock" => Backend::NoLock,
        other => {
            eprintln!("unknown backend {other}; run `atomio_sim backends`");
            usage()
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let (flags, verify, two_phase) = parse_flags(&args[1..]);

    match command.as_str() {
        "backends" => {
            for b in Backend::ALL {
                println!(
                    "{:<24} atomic mode: {}",
                    b.label(),
                    if b.atomic_flag() {
                        "supported"
                    } else {
                        "none (raw)"
                    }
                );
            }
        }
        "write-bench" => {
            let backend = backend_by_name(&get(&flags, "backend", "versioning".to_owned()));
            let clients: usize = get(&flags, "clients", 16);
            let regions: usize = get(&flags, "regions", 32);
            let region_kib: u64 = get(&flags, "region-kib", 256);
            let overlap_pct: u64 = get(&flags, "overlap-pct", 50).min(99);
            let cfg = BenchConfig {
                servers: get(&flags, "servers", 16),
                chunk_size: get(&flags, "chunk-kib", 256u64) * 1024,
                ..BenchConfig::default()
            };
            let workload =
                OverlapWorkload::new(clients, regions, region_kib * 1024, overlap_pct, 100);
            let extents: Vec<ExtentList> = (0..clients).map(|c| workload.extents_for(c)).collect();
            let (driver, _) = cfg.build(backend);
            let clock = SimClock::new();
            let out = run_write_round(&clock, &driver, &extents, backend.atomic_flag(), 1, verify);
            println!(
                "{} | {clients} clients x {regions} x {region_kib} KiB ({overlap_pct}% overlap)",
                backend.label()
            );
            println!(
                "  {:.1} MiB/s simulated aggregate, round took {:?}",
                out.throughput_mib_s(),
                out.elapsed
            );
            match (&out.violation, verify) {
                (_, false) => println!("  atomicity: not checked (pass --verify)"),
                (None, true) => println!("  atomicity: serializable (verified)"),
                (Some(v), true) => println!("  atomicity: VIOLATED — {v:?}"),
            }
        }
        "scrub" => {
            // Demonstrate integrity scrubbing: write replicated chunks,
            // rot a few, scrub-and-repair, re-scrub.
            use atomio_core::{Store, StoreConfig};
            use bytes::Bytes;
            let servers: usize = get(&flags, "servers", 8);
            let chunks: u64 = get(&flags, "chunks", 32);
            let corrupt: u64 = get(&flags, "corrupt", 3).min(chunks);
            let store = Store::new(
                StoreConfig::default()
                    .with_data_providers(servers)
                    .with_chunk_size(64 * 1024)
                    .with_replication(2, 2),
            );
            let blob = store.create_blob();
            let clock = SimClock::new();
            run_actors_on(&clock, 1, |_, p| {
                blob.write(
                    p,
                    0,
                    Bytes::from(vec![0x77u8; (chunks * 64 * 1024) as usize]),
                )
                .unwrap();
                // Rot `corrupt` chunks: probe provider tables for real ids.
                let mut rotted = 0;
                'outer: for provider in store.providers().providers() {
                    for raw in 0..(2 * chunks) {
                        let c = atomio_types::ChunkId::new(raw);
                        if provider.has_chunk(c) {
                            provider.corrupt_chunk(c, 1);
                            rotted += 1;
                            if rotted == corrupt {
                                break 'outer;
                            }
                        }
                    }
                }
                println!(
                    "wrote {chunks} chunks x2 replicas over {servers} servers; rotted {rotted}"
                );
                let (found, repaired) = store.scrub_and_repair(p).unwrap();
                println!("scrub pass 1: found {found} corrupted, repaired {repaired}");
                let (found2, _) = store.scrub_and_repair(p).unwrap();
                println!("scrub pass 2: found {found2} corrupted");
                let got = blob.read(p, 0, chunks * 64 * 1024).unwrap();
                assert!(
                    got.iter().all(|&b| b == 0x77),
                    "data corrupted after repair"
                );
                println!("data verified bit-exact after repair ({} MiB)", chunks / 16);
            });
            println!("simulated time: {:?}", clock.now());
        }
        "tile" => {
            let backend = backend_by_name(&get(&flags, "backend", "versioning".to_owned()));
            let grid: u64 = get(&flags, "grid", 4);
            let tile: u64 = get(&flags, "tile", 128);
            let elem: u64 = get(&flags, "elem", 32);
            let ghost: u64 = get(&flags, "ghost", 2);
            let cfg = BenchConfig {
                servers: get(&flags, "servers", 16),
                ..BenchConfig::default()
            };
            let workload = TileWorkload::new(grid, grid, tile, tile, elem, ghost, ghost);
            let ranks = workload.processes();
            let (driver, _) = cfg.build(backend);
            let clock = SimClock::new();
            let comm = Communicator::new(ranks, cfg.cost);
            let files: Vec<File> = (0..ranks)
                .map(|r| File::open(comm.clone(), r, Arc::clone(&driver), OpenMode::ReadWrite))
                .collect();
            let start = clock.now();
            run_actors_on(&clock, ranks, |rank, p| {
                let f = &files[rank];
                f.set_view(workload.view(rank).expect("valid view"));
                f.set_atomic(backend.atomic_flag());
                if two_phase {
                    f.set_collective(CollectiveStrategy::TwoPhase {
                        aggregators: cfg.servers,
                    });
                }
                let stamp = WriteStamp::new(ClientId::new(rank as u64), 1);
                let payload = stamp.payload_for(&workload.extents_for(rank));
                f.write_at_all(p, 0, &payload).expect("collective write");
            });
            let elapsed = clock.now() - start;
            let total = workload.bytes_per_process() * ranks as u64;
            println!(
                "{} | {grid}x{grid} tiles of {tile}x{tile} x {elem} B, ghost {ghost}{}",
                backend.label(),
                if two_phase { ", two-phase" } else { "" }
            );
            println!(
                "  {:.1} MiB/s simulated aggregate over {ranks} ranks, {:?}",
                total as f64 / (1024.0 * 1024.0) / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
                elapsed
            );
        }
        _ => usage(),
    }
}
