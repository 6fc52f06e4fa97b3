//! A shared event log built on the versioning store's extensions:
//! the **namespace** (open files by path), **atomic appends** (BlobSeer's
//! APPEND primitive — concurrent appenders get disjoint, back-to-back
//! regions with no coordination), and **snapshot leases** (pin a
//! consistent snapshot of the log for offline analysis while producers
//! keep appending).
//!
//! Run: `cargo run --release --example versioned_log`

use atomio::core::{Store, StoreConfig};
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::SimClock;
use atomio::types::ExtentList;
use bytes::Bytes;

const PRODUCERS: usize = 6;
const EVENTS_PER_PRODUCER: usize = 5;
const LEASE_TTL_MS: u64 = 60_000;

fn main() {
    let store = Store::new(
        StoreConfig::default()
            .with_data_providers(8)
            .with_chunk_size(4096),
    );
    // Files live under paths, like any storage system people adopt.
    let log = store.create_file("/logs/simulation/events.log").unwrap();
    let clock = SimClock::new();

    // === Phase 1: six producers append concurrently. ===
    let offsets = run_actors_on(&clock, PRODUCERS, |i, p| {
        let mut mine = Vec::new();
        for k in 0..EVENTS_PER_PRODUCER {
            let line = format!("producer={i} event={k} | payload {:>4}\n", i * 100 + k);
            let (_, offset) = log.append(p, Bytes::from(line.into_bytes())).unwrap();
            mine.push(offset);
        }
        mine
    });

    // Appends never overlapped: offsets are unique and dense.
    let mut all: Vec<u64> = offsets.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), PRODUCERS * EVENTS_PER_PRODUCER);
    println!(
        "{} events appended concurrently by {PRODUCERS} producers — all offsets disjoint",
        all.len()
    );

    // === Phase 2: pin the log for analysis; producers keep going. ===
    run_actors_on(&clock, 1 + PRODUCERS, |actor, p| {
        if actor == 0 {
            let grant = log.lease_latest(p, LEASE_TTL_MS).expect("lease the log");
            let size = log.size_at(p, grant.version).unwrap();
            let whole = ExtentList::from_pairs([(0, size)]);
            let bytes = log.read_leased(p, &grant, LEASE_TTL_MS, &whole).unwrap();
            log.lease_release(p, grant.lease).unwrap();
            let text = String::from_utf8(bytes).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            assert_eq!(lines.len(), PRODUCERS * EVENTS_PER_PRODUCER);
            println!(
                "analysis reads a frozen, complete log of {} lines at {} (first: {:?})",
                lines.len(),
                grant.version,
                lines[0]
            );
        } else {
            // Producers append MORE while the analyst reads the pinned snapshot.
            let i = actor - 1;
            for k in EVENTS_PER_PRODUCER..EVENTS_PER_PRODUCER + 2 {
                let line = format!("producer={i} event={k} | late\n");
                log.append(p, Bytes::from(line.into_bytes())).unwrap();
            }
        }
    });

    run_actors_on(&clock, 1, |_, p| {
        let final_size = log.latest(p).unwrap().size;
        let text = String::from_utf8(log.read(p, 0, final_size).unwrap()).unwrap();
        let total = text.lines().count();
        assert_eq!(total, PRODUCERS * (EVENTS_PER_PRODUCER + 2));
        println!("live log has grown to {total} lines; the pinned snapshot is unaffected");
    });

    // Namespace niceties.
    store
        .rename("/logs/simulation/events.log", "/logs/archive/run-0042.log")
        .unwrap();
    println!("archived as: {:?}", store.list("/logs/archive"));
    println!("total simulated time: {:?}", clock.now());
}
