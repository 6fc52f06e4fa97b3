//! E12 — namespace-scale distribution: sharded version service vs the
//! single oracle.
//!
//! The paper's version manager is the one serialized point of the write
//! path. At checkpoint-namespace scale — hundreds of thousands of files,
//! every one its own blob with its own version chain — a single manager
//! process serializes *unrelated* blobs behind one service. This
//! experiment shards the version service by hash slot
//! (`slot(blob) = hash(blob) % 1024`, contiguous slot ranges per shard)
//! and measures aggregate grant throughput as tenants create, write,
//! and read a 131,072-blob multi-tenant namespace concurrently.
//!
//! Arms (x = shard count):
//! * `single-oracle` — today's unsharded `VersionService`, no routing
//!   layer: the baseline every earlier experiment ran against.
//! * `slot-routed` — the same workload through `SlotRoutedTransport`
//!   over N `--shard i/N` services. The 1-shard arm isolates the cost
//!   of the routing layer itself and must leave bit-identical version
//!   chains (checked, reported as `atomic_ok`).
//!
//! Each blob takes one create (its manager materializes on first
//! grant), two ticket+publish rounds, and every 8th blob a latest-read
//! — the mix a restart-heavy checkpoint workload puts on the oracle.
//!
//! Run: `cargo run -p atomio-bench --release --bin exp12_namespace`

use atomio_bench::{ExperimentReport, Row};
use atomio_core::{shard_of, slot_for_blob};
use atomio_meta::NodeKey;
use atomio_rpc::{
    Loopback, RemoteVersionManager, Service, SlotRoutedTransport, Transport, VersionService,
};
use atomio_simgrid::SimClock;
use atomio_types::{BlobId, ByteRange};
use atomio_version::VersionOracle;
use std::sync::Arc;
use std::time::Instant;

const CHUNK: u64 = 64 * 1024;
const TENANTS: usize = 8;
const BLOBS_PER_TENANT: u64 = 16 * 1024;
const BLOBS: u64 = TENANTS as u64 * BLOBS_PER_TENANT;
const ROUNDS: u64 = 2;

/// Builds the client transport for an `n`-shard fleet: the raw loopback
/// for the unsharded baseline, the slot router otherwise.
fn fleet(n: usize, routed: bool) -> Arc<dyn Transport> {
    let transports: Vec<Arc<dyn Transport>> = (0..n)
        .map(|i| {
            let service = VersionService::new(CHUNK).with_shard(i, n);
            Arc::new(Loopback::new(Arc::new(service) as Arc<dyn Service>)) as Arc<dyn Transport>
        })
        .collect();
    if routed {
        Arc::new(SlotRoutedTransport::new(transports))
    } else {
        assert_eq!(n, 1);
        transports.into_iter().next().unwrap()
    }
}

/// Drives the multi-tenant grant workload and returns (elapsed seconds,
/// chain digest). The digest folds every blob's final `(id, version,
/// size)` through FNV-1a, so two runs with identical version chains —
/// and only those — agree.
fn run_workload(transport: &Arc<dyn Transport>) -> (f64, u64) {
    let start = Instant::now();
    std::thread::scope(|s| {
        for tenant in 0..TENANTS as u64 {
            let transport = Arc::clone(transport);
            s.spawn(move || {
                let lo = tenant * BLOBS_PER_TENANT;
                let p = SimClock::new().register();
                for blob in lo..lo + BLOBS_PER_TENANT {
                    let vm = RemoteVersionManager::new(blob, Arc::clone(&transport));
                    for _ in 0..ROUNDS {
                        let (ticket, _) = vm.ticket_append(&p, CHUNK).expect("grant");
                        let root = NodeKey::new(
                            BlobId::new(blob),
                            ticket.version,
                            ByteRange::new(0, ticket.capacity),
                        );
                        vm.publish(&p, ticket, root).expect("publish");
                    }
                    if blob % 8 == 0 {
                        vm.latest(&p).expect("read latest");
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |v: u64| {
        for byte in v.to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let p = SimClock::new().register();
    for blob in 0..BLOBS {
        let vm = RemoteVersionManager::new(blob, Arc::clone(transport));
        let latest = vm.latest(&p).expect("digest read");
        fold(blob);
        fold(latest.version.raw());
        fold(latest.size);
    }
    (elapsed, digest)
}

fn main() {
    let mut report = ExperimentReport::new(
        "E12",
        "namespace-scale distribution: sharded version service vs single oracle \
         (131072 blobs, 8 tenants, grant throughput)",
        "shards",
    );
    report.note(format!(
        "{TENANTS} tenants x {BLOBS_PER_TENANT} blobs, {ROUNDS} ticket+publish rounds per blob, \
         every 8th blob latest-read; loopback transport isolates service-side serialization"
    ));
    let granted_bytes = BLOBS * ROUNDS * CHUNK;

    // Warm-up: the first arm otherwise pays allocator and page-fault
    // cold-start costs the later arms don't, skewing the comparison.
    let _ = run_workload(&fleet(1, false));
    eprintln!("  ... warm-up done");

    let (base_elapsed, base_digest) = run_workload(&fleet(1, false));
    report.push(Row {
        x: 1,
        backend: "single-oracle".into(),
        throughput_mib_s: granted_bytes as f64 / (1024.0 * 1024.0) / base_elapsed,
        elapsed_s: base_elapsed,
        bytes: granted_bytes,
        atomic_ok: None,
    });
    report.note(format!(
        "single-oracle: {:.0} grants/s",
        (BLOBS * ROUNDS) as f64 / base_elapsed
    ));
    eprintln!("  ... single-oracle done ({base_elapsed:.2}s)");

    let mut routed_elapsed = Vec::new();
    for shards in [1usize, 2, 4] {
        let (elapsed, digest) = run_workload(&fleet(shards, true));
        // The 1-shard routed arm must reproduce the single oracle's
        // version chains bit for bit — the routing layer is pure
        // plumbing. (Sharded arms produce the same chains too; the
        // digest is order-insensitive across shards by construction.)
        let identical = digest == base_digest;
        assert!(
            identical,
            "{shards}-shard routing changed the version chains"
        );
        report.push(Row {
            x: shards as u64,
            backend: "slot-routed".into(),
            throughput_mib_s: granted_bytes as f64 / (1024.0 * 1024.0) / elapsed,
            elapsed_s: elapsed,
            bytes: granted_bytes,
            atomic_ok: Some(identical),
        });
        routed_elapsed.push((shards, elapsed));
        eprintln!("  ... slot-routed x{shards} done ({elapsed:.2}s)");
    }

    // Slot balance of the blob population (why 4 shards split evenly).
    let mut per_shard = [0u64; 4];
    for blob in 0..BLOBS {
        per_shard[shard_of(slot_for_blob(blob), 4)] += 1;
    }
    report.note(format!(
        "blob balance across 4 shards: {per_shard:?} of {BLOBS}"
    ));
    for (shards, elapsed) in &routed_elapsed {
        report.note(format!(
            "slot-routed x{shards}: {:.0} grants/s ({:.2}x vs single oracle)",
            (BLOBS * ROUNDS) as f64 / elapsed,
            base_elapsed / elapsed
        ));
    }

    println!("{}", report.render_table());
    match report.save_json(atomio_bench::report::results_dir()) {
        Ok(path) => println!("saved {}", path.display()),
        Err(e) => eprintln!("could not save JSON: {e}"),
    }
}
