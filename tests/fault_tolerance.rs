//! Fault-injection tests across the stack: replication masking provider
//! failures, clean failures without replication, and OST failures in the
//! baseline file system.

use atomio::core::{ReadVersion, Store, StoreConfig};
use atomio::pfs::ParallelFs;
use atomio::simgrid::clock::run_actors_on;
use atomio::simgrid::{CostModel, Metrics, SimClock};
use atomio::types::{ByteRange, Error, ExtentList, ProviderId};
use bytes::Bytes;

fn run_latest(
    blob: &atomio::core::Blob,
    p: &atomio::simgrid::Participant,
) -> atomio::types::VersionId {
    blob.latest(p).unwrap().version
}

#[test]
fn replicated_store_survives_any_single_provider_loss() {
    let s = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(5)
            .with_replication(2, 2),
    );
    let blob = s.create_blob();
    let clock = SimClock::new();
    let ext = ExtentList::from_pairs([(0u64, 10_240u64)]); // 10 chunks
    run_actors_on(&clock, 1, |_, p| {
        blob.write_list(p, &ext, Bytes::from(vec![0x42u8; 10_240]))
            .unwrap();
        // Kill each provider in turn (healing in between): every byte
        // must stay readable through the surviving replica.
        for victim in 0..5u64 {
            s.faults().fail_provider(ProviderId::new(victim));
            let got = blob
                .read_list(p, ReadVersion::Latest, &ext)
                .unwrap_or_else(|e| panic!("lost data when provider {victim} died: {e}"));
            assert_eq!(got, vec![0x42u8; 10_240]);
            s.faults().heal_provider(ProviderId::new(victim));
        }
    });
}

#[test]
fn unreplicated_store_fails_cleanly_not_corruptly() {
    let s = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(4)
            .with_replication(1, 1),
    );
    let blob = s.create_blob();
    let clock = SimClock::new();
    run_actors_on(&clock, 1, |_, p| {
        blob.write(p, 0, Bytes::from(vec![7u8; 4096])).unwrap();
        s.faults().fail_provider(ProviderId::new(0));
        // Some chunk lived on provider 0 (round-robin): the read must
        // error, never return wrong bytes.
        match blob.read(p, 0, 4096) {
            Err(Error::ProviderFailed(_)) | Err(Error::ChunkNotFound { .. }) => {}
            Ok(data) => assert_eq!(data, vec![7u8; 4096], "if it answers, it must be right"),
            Err(e) => panic!("unexpected error {e}"),
        }
    });
}

#[test]
fn writes_fail_when_quorum_is_unreachable() {
    let s = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(2)
            .with_replication(2, 2),
    );
    let blob = s.create_blob();
    let clock = SimClock::new();
    run_actors_on(&clock, 1, |_, p| {
        s.faults().fail_provider(ProviderId::new(0));
        // Only one live provider but two replicas required.
        let err = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap_err();
        assert!(
            matches!(err, Error::InsufficientReplicas { .. }),
            "got {err}"
        );
        // The failed write publishes a tombstone: the pipeline is not
        // wedged, the failed data is invisible, and a retry succeeds.
        let latest = run_latest(&blob, p);
        let zeros = blob
            .read_at(p, latest, &ExtentList::from_pairs([(0u64, 512u64)]))
            .unwrap();
        assert_eq!(zeros, vec![0u8; 512], "failed write must be invisible");
        s.faults().heal_provider(ProviderId::new(0));
        let v = blob.write(p, 0, Bytes::from(vec![1u8; 512])).unwrap();
        let got = blob
            .read_at(p, v, &ExtentList::from_pairs([(0u64, 512u64)]))
            .unwrap();
        assert_eq!(got, vec![1u8; 512]);
    });
}

#[test]
fn pfs_ost_failure_surfaces_as_error() {
    let fs = ParallelFs::new(3, CostModel::zero(), Metrics::new());
    let f = fs.create_file(1024);
    let clock = SimClock::new();
    run_actors_on(&clock, 1, |_, p| {
        f.pwrite(p, 0, &vec![9u8; 3072]).unwrap();
        fs.faults().fail_provider(ProviderId::new(1));
        // Stripe 1 lives on OST 1: reads and writes touching it fail.
        assert!(matches!(f.pread(p, 0, 3072), Err(Error::ProviderFailed(_))));
        assert!(matches!(
            f.pwrite(p, 1024, &[0u8; 10]),
            Err(Error::ProviderFailed(_))
        ));
        // Untouched stripes still work.
        assert_eq!(f.pread(p, 0, 1024).unwrap(), vec![9u8; 1024]);
        fs.faults().heal_provider(ProviderId::new(1));
        assert_eq!(f.pread(p, 0, 3072).unwrap(), vec![9u8; 3072]);
    });
}

#[test]
fn failure_during_concurrent_round_does_not_corrupt_survivors() {
    // 4 writers to a replicated store; provider 2 dies mid-round. All
    // writes that report success must be fully readable afterwards.
    let s = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(4)
            .with_replication(2, 1),
    );
    let blob = s.create_blob();
    let clock = SimClock::new();
    let results = run_actors_on(&clock, 4, |i, p| {
        if i == 3 {
            s.faults().fail_provider(ProviderId::new(2));
            return None;
        }
        let off = i as u64 * 8192;
        blob.write(p, off, Bytes::from(vec![i as u8 + 1; 8192]))
            .ok()
            .map(|v| (off, v))
    });
    run_actors_on(&clock, 1, |_, p| {
        for r in results.iter().flatten() {
            let (off, v) = *r;
            let got = blob
                .read_at(p, v, &ExtentList::single(ByteRange::new(off, 8192)))
                .unwrap();
            let expected = (off / 8192) as u8 + 1;
            assert_eq!(got, vec![expected; 8192]);
        }
    });
}

#[test]
fn end_to_end_scrub_heals_bit_rot() {
    use atomio::types::ChunkId;
    let s = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(4)
            .with_replication(2, 2),
    );
    let blob = s.create_blob();
    let clock = SimClock::new();
    run_actors_on(&clock, 1, |_, p| {
        blob.write(p, 0, Bytes::from(vec![0xABu8; 8192])).unwrap();
        // Rot one byte of one replica of some chunk.
        let victim = s
            .providers()
            .providers()
            .iter()
            .find(|pr| pr.chunk_count() > 0)
            .expect("data landed somewhere");
        // Find an actual chunk id on that provider by probing.
        let chunk = (0..64)
            .map(ChunkId::new)
            .find(|&c| victim.has_chunk(c))
            .expect("probed a chunk id");
        victim.corrupt_chunk(chunk, 3);
        let (found, repaired) = s.scrub_and_repair(p).unwrap();
        assert_eq!((found, repaired), (1, 1));
        // Data is intact afterwards.
        assert_eq!(blob.read(p, 0, 8192).unwrap(), vec![0xABu8; 8192]);
        // Second sweep is clean.
        assert_eq!(s.scrub_and_repair(p).unwrap(), (0, 0));
    });
}

#[test]
fn scrub_after_gc_repairs_a_retained_chunk() {
    use atomio::core::collect_below;
    use atomio::types::{ChunkId, VersionId};
    let s = Store::new(
        StoreConfig::default()
            .with_zero_cost()
            .with_chunk_size(1024)
            .with_data_providers(4)
            .with_replication(2, 2),
    );
    let blob = s.create_blob();
    let clock = SimClock::new();
    run_actors_on(&clock, 1, |_, p| {
        // Two whole overwrites: collecting below v2 evicts every node
        // and chunk of v1, so v1's tree is gone from the store.
        blob.write(p, 0, Bytes::from(vec![0x11u8; 4096])).unwrap();
        blob.write(p, 0, Bytes::from(vec![0x22u8; 4096])).unwrap();
        let report = collect_below(p, &blob, VersionId::new(2)).unwrap();
        assert_eq!(report.versions_retired, 1);
        assert_eq!(report.bytes_reclaimed, 2 * 4096);
        // Rot one replica of a chunk v2 still holds.
        let victim = s
            .providers()
            .providers()
            .iter()
            .find(|pr| pr.chunk_count() > 0)
            .expect("v2's data is stored");
        let chunk = (0..64)
            .map(ChunkId::new)
            .find(|&c| victim.has_chunk(c))
            .expect("probed a chunk id");
        victim.corrupt_chunk(chunk, 3);
        // The retired v1 maps nothing; v2 maps the rotten chunk to its
        // healthy replica.
        assert_eq!(s.scrub_and_repair(p).unwrap(), (1, 1));
        assert_eq!(blob.read(p, 0, 4096).unwrap(), vec![0x22u8; 4096]);
        assert_eq!(s.scrub_and_repair(p).unwrap(), (0, 0));
    });
}
