//! Chunk integrity: checksums, scrubbing, and replica repair.
//!
//! Every stored chunk carries a checksum computed at ingest. A *scrub*
//! pass re-reads a provider's chunks and reports mismatches (bit rot,
//! torn media writes — injected in tests via
//! [`ChunkStore::corrupt_chunk`](crate::ChunkStore::corrupt_chunk)).
//! Because chunks are immutable and replicated, repair is trivial: fetch
//! any healthy replica and re-ingest — no quiescence, no locks, no
//! version bumps. Another quiet payoff of the immutable-data design.

use crate::manager::ProviderManager;
use atomio_simgrid::Participant;
use atomio_types::stamp::checksum;
use atomio_types::{ByteRange, ChunkId, Error, ProviderId, Result};

/// Seed of every chunk's ingest checksum.
const CHUNK_SEED: u64 = 0xC0FF_EE00_D15C_0B0E;

/// Checksum of a chunk payload, computed at ingest and checked by scrub
/// and repair: [`checksum`] under the chunk seed.
pub fn chunk_checksum(data: &[u8]) -> u64 {
    checksum(CHUNK_SEED, data)
}

/// Result of scrubbing one provider.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Chunks whose payload matched their checksum.
    pub healthy: u64,
    /// Chunks whose payload did not match (with ids).
    pub corrupted: Vec<ChunkId>,
}

impl ProviderManager {
    /// Repairs a corrupted chunk on `victim` by fetching a healthy
    /// replica from the other `homes` and re-ingesting it.
    ///
    /// # Errors
    /// [`Error::ChunkNotFound`] when no healthy replica exists anywhere.
    pub fn repair_chunk(
        &self,
        p: &Participant,
        chunk: ChunkId,
        victim: ProviderId,
        homes: &[ProviderId],
    ) -> Result<()> {
        for &home in homes {
            if home == victim {
                continue;
            }
            let Ok(provider) = self.provider(home) else {
                continue;
            };
            let Ok(data) = provider.get_chunk(p, chunk) else {
                continue;
            };
            if chunk_checksum(&data) != provider.checksum_of(chunk).unwrap_or(0) {
                continue; // that replica is rotten too
            }
            let target = self.provider(victim)?;
            target.evict_chunk(chunk);
            target.put_chunk(p, chunk, data)?;
            return Ok(());
        }
        Err(Error::ChunkNotFound {
            provider: victim,
            chunk,
        })
    }

    /// Scrubs every provider and repairs every corrupted chunk that has
    /// a healthy replica. Returns `(corruptions_found, repaired)`.
    pub fn scrub_and_repair(
        &self,
        p: &Participant,
        homes_of: impl Fn(ChunkId) -> Vec<ProviderId>,
    ) -> (u64, u64) {
        let mut found = 0;
        let mut repaired = 0;
        for provider in self.providers() {
            let report = provider.scrub(p);
            for chunk in report.corrupted {
                found += 1;
                if self
                    .repair_chunk(p, chunk, provider.id(), &homes_of(chunk))
                    .is_ok()
                {
                    repaired += 1;
                }
            }
        }
        (found, repaired)
    }
}

/// A blob-absolute range and the checksum of the data within; used by
/// end-to-end integrity tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeChecksum {
    /// The checked range.
    pub range: ByteRange,
    /// Its checksum.
    pub sum: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomio_simgrid::clock::run_actors;
    use atomio_simgrid::{CostModel, FaultInjector};
    use bytes::Bytes;
    use std::sync::Arc;

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let data = (0u8..=255).collect::<Vec<_>>();
        let sum = chunk_checksum(&data);
        for byte in [0usize, 1, 100, 255] {
            for bit in 0..8 {
                let mut mutated = data.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(chunk_checksum(&mutated), sum, "byte {byte} bit {bit}");
            }
        }
        // Length extension also changes the sum.
        let mut longer = data.clone();
        longer.push(0);
        assert_ne!(chunk_checksum(&longer), sum);
        assert_ne!(chunk_checksum(&[]), sum);
    }

    fn mgr(n: usize) -> ProviderManager {
        ProviderManager::new(n, CostModel::zero(), Arc::new(FaultInjector::default()))
    }

    /// Stores one chunk on `replicas` homes through a batch of one.
    fn put_one(
        m: &ProviderManager,
        p: &Participant,
        chunk: ChunkId,
        data: Vec<u8>,
        replicas: usize,
    ) -> Vec<ProviderId> {
        m.put_batch_replicated(p, &[(chunk, Bytes::from(data))], replicas, replicas)
            .pop()
            .expect("one outcome per chunk")
            .expect("every home is up")
    }

    #[test]
    fn scrub_reports_corruption() {
        let m = mgr(1);
        run_actors(1, |_, p| {
            let prov = m.provider(ProviderId::new(0)).unwrap();
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![1u8; 64]))
                .unwrap();
            prov.put_chunk(p, ChunkId::new(2), Bytes::from(vec![2u8; 64]))
                .unwrap();
            let clean = prov.scrub(p);
            assert_eq!(clean.healthy, 2);
            assert!(clean.corrupted.is_empty());

            prov.corrupt_chunk(ChunkId::new(2), 10);
            let dirty = prov.scrub(p);
            assert_eq!(dirty.healthy, 1);
            assert_eq!(dirty.corrupted, vec![ChunkId::new(2)]);
        });
    }

    #[test]
    fn repair_restores_from_replica() {
        let m = mgr(3);
        run_actors(1, |_, p| {
            let homes = put_one(&m, p, ChunkId::new(9), vec![7u8; 128], 2);
            let victim = homes[0];
            m.provider(victim)
                .unwrap()
                .corrupt_chunk(ChunkId::new(9), 5);
            assert_eq!(m.provider(victim).unwrap().scrub(p).corrupted.len(), 1);

            m.repair_chunk(p, ChunkId::new(9), victim, &homes).unwrap();
            let healed = m.provider(victim).unwrap().scrub(p);
            assert_eq!(healed.corrupted.len(), 0);
            let data = m
                .provider(victim)
                .unwrap()
                .get_chunk(p, ChunkId::new(9))
                .unwrap();
            assert_eq!(data.as_ref(), &[7u8; 128][..]);
        });
    }

    #[test]
    fn repair_fails_without_healthy_replica() {
        let m = mgr(2);
        run_actors(1, |_, p| {
            let homes = put_one(&m, p, ChunkId::new(1), vec![3u8; 32], 1);
            assert_eq!(homes.len(), 1, "unreplicated");
            m.provider(homes[0])
                .unwrap()
                .corrupt_chunk(ChunkId::new(1), 0);
            assert!(matches!(
                m.repair_chunk(p, ChunkId::new(1), homes[0], &homes),
                Err(Error::ChunkNotFound { .. })
            ));
        });
    }

    #[test]
    fn scrub_and_repair_sweeps_the_fleet() {
        let m = mgr(4);
        run_actors(1, |_, p| {
            let mut homes_map = std::collections::HashMap::new();
            for i in 0..8u64 {
                let homes = put_one(&m, p, ChunkId::new(i), vec![i as u8; 64], 2);
                homes_map.insert(ChunkId::new(i), homes);
            }
            // Corrupt three chunks (one replica each).
            for i in [1u64, 4, 6] {
                let victim = homes_map[&ChunkId::new(i)][0];
                m.provider(victim)
                    .unwrap()
                    .corrupt_chunk(ChunkId::new(i), 3);
            }
            let (found, repaired) =
                m.scrub_and_repair(p, |c| homes_map.get(&c).cloned().unwrap_or_default());
            assert_eq!((found, repaired), (3, 3));
            // A second sweep is clean.
            let (found2, _) =
                m.scrub_and_repair(p, |c| homes_map.get(&c).cloned().unwrap_or_default());
            assert_eq!(found2, 0);
        });
    }

    #[test]
    fn scrub_charges_disk_time() {
        let cost = CostModel::grid5000();
        let m = ProviderManager::new(1, cost, Arc::new(FaultInjector::default()));
        let (_, total) = run_actors(1, |_, p| {
            let prov = m.provider(ProviderId::new(0)).unwrap();
            prov.put_chunk(p, ChunkId::new(1), Bytes::from(vec![0u8; 1 << 20]))
                .unwrap();
            let before = p.now();
            prov.scrub(p);
            p.now() - before
        });
        let _ = total;
    }
}
