//! Hash-slot routing for namespace-scale distribution.
//!
//! Every blob hashes to one of [`SLOT_COUNT`] slots; a [`SlotMap`]
//! assigns contiguous slot ranges to numbered *groups* (version-service
//! shards or provider groups). The map is a tiny, epoch-versioned value
//! that ships over RPC, so clients and servers agree on who owns what:
//! a server that receives a request for a slot it does not own answers
//! `Error::WrongShard { epoch, slot }` with its current epoch, and the
//! client refetches the map and re-routes. This is the amberio/ Redis-
//! cluster shape — `hash(name) % slot_count` — chosen over consistent
//! hashing because slot ownership is explicit, enumerable, and cheap to
//! hand off one range at a time.
//!
//! Slots are deliberately decoupled from group count: a 4-shard
//! deployment owns 256 slots each, so growing to 8 shards moves slot
//! ranges without rehashing any blob.

use serde::{Decode, Deserialize, Encode, Serialize};
use std::collections::BTreeSet;

/// Total number of hash slots. Every blob maps to exactly one slot.
pub const SLOT_COUNT: u16 = 1024;

/// Routes a path to its slot: `fnv1a(name) % SLOT_COUNT`.
pub fn slot_for_name(name: &str) -> u16 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    (h % u64::from(SLOT_COUNT)) as u16
}

/// Routes a raw blob id to its slot.
///
/// Blob ids are allocated densely, so they pass through a splitmix64
/// finalizer first — otherwise blobs 0..N would fill slots 0..N in
/// order and a slot range would capture a contiguous run of creation
/// time instead of a uniform sample of the namespace.
pub fn slot_for_blob(blob: u64) -> u16 {
    let mut z = blob.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % u64::from(SLOT_COUNT)) as u16
}

/// A contiguous, inclusive slot interval owned by one group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Encode, Decode)]
pub struct SlotRange {
    /// First slot in the range (inclusive).
    pub start: u16,
    /// Last slot in the range (inclusive).
    pub end: u16,
    /// Owning group (shard index).
    pub group: usize,
}

/// The epoch-versioned assignment of slot ranges to groups.
///
/// Maps are totally ordered by `epoch`: whoever holds the higher epoch
/// is right. Membership changes bump the epoch and move ranges; slots
/// may also be *unassigned* (mid-handoff), in which case
/// [`SlotMap::group_of`] returns `None` and routed calls fail typed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Encode, Decode)]
pub struct SlotMap {
    /// Monotonic configuration version.
    pub epoch: u64,
    /// Number of groups the map routes to (shard count).
    pub groups: usize,
    /// Sorted, non-overlapping ranges. Gaps are unassigned slots.
    pub ranges: Vec<SlotRange>,
}

impl SlotMap {
    /// The trivial map: one group owning every slot, epoch 1.
    pub fn single() -> Self {
        SlotMap::uniform(1)
    }

    /// Splits the slot space evenly across `groups` shards (the first
    /// `SLOT_COUNT % groups` shards get one extra slot), epoch 1.
    pub fn uniform(groups: usize) -> Self {
        assert!(groups > 0, "a slot map needs at least one group");
        let total = usize::from(SLOT_COUNT);
        let base = total / groups;
        let extra = total % groups;
        let mut ranges = Vec::with_capacity(groups.min(total));
        let mut start = 0usize;
        for group in 0..groups.min(total) {
            let len = base + usize::from(group < extra);
            if len == 0 {
                break;
            }
            ranges.push(SlotRange {
                start: start as u16,
                end: (start + len - 1) as u16,
                group,
            });
            start += len;
        }
        SlotMap {
            epoch: 1,
            groups,
            ranges,
        }
    }

    /// The group owning `slot`, or `None` if the slot is unassigned.
    pub fn group_of(&self, slot: u16) -> Option<usize> {
        self.ranges
            .iter()
            .find(|r| r.start <= slot && slot <= r.end)
            .map(|r| r.group)
    }

    /// True if `group` owns `slot` under this map.
    pub fn owns(&self, group: usize, slot: u16) -> bool {
        self.group_of(slot) == Some(group)
    }

    /// All slots owned by `group`, ascending. Empty if the group owns
    /// no range (a valid state: a drained shard awaiting removal).
    pub fn slots_of(&self, group: usize) -> Vec<u16> {
        let mut out = Vec::new();
        for r in &self.ranges {
            if r.group == group {
                out.extend(r.start..=r.end);
            }
        }
        out
    }

    /// A new map with `slots` moved to group `to` and the epoch bumped.
    ///
    /// Used for online membership change: the coordinator freezes the
    /// moving slots on the old owner, drains and replays them on the new
    /// owner, then installs the reassigned map everywhere.
    pub fn reassign(&self, slots: &[u16], to: usize) -> SlotMap {
        let moving: BTreeSet<u16> = slots.iter().copied().collect();
        let mut owner: Vec<Option<usize>> = vec![None; usize::from(SLOT_COUNT)];
        for r in &self.ranges {
            for s in r.start..=r.end {
                owner[usize::from(s)] = Some(r.group);
            }
        }
        for s in &moving {
            owner[usize::from(*s)] = Some(to);
        }
        SlotMap {
            epoch: self.epoch + 1,
            groups: self.groups.max(to + 1),
            ranges: compress(&owner),
        }
    }

    /// A copy with the same assignment at the next epoch. Used when a
    /// handoff aborts: the coordinator reasserts the old ownership under
    /// a fresh epoch so frozen shards thaw.
    pub fn bump_epoch(&self) -> SlotMap {
        let mut next = self.clone();
        next.epoch += 1;
        next
    }
}

/// Compresses a per-slot ownership table back into sorted ranges.
fn compress(owner: &[Option<usize>]) -> Vec<SlotRange> {
    let mut ranges: Vec<SlotRange> = Vec::new();
    for (slot, who) in owner.iter().enumerate() {
        let Some(group) = *who else { continue };
        match ranges.last_mut() {
            Some(last) if last.group == group && usize::from(last.end) + 1 == slot => {
                last.end = slot as u16;
            }
            _ => ranges.push(SlotRange {
                start: slot as u16,
                end: slot as u16,
                group,
            }),
        }
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_hashing_is_stable_and_in_range() {
        let a = slot_for_name("/tenant0/ckpt/000001.dat");
        assert_eq!(a, slot_for_name("/tenant0/ckpt/000001.dat"));
        assert!(a < SLOT_COUNT);
        assert_ne!(a, slot_for_name("/tenant0/ckpt/000002.dat"));
    }

    #[test]
    fn blob_hashing_spreads_dense_ids() {
        // Dense ids 0..4096 should land in most slots, not a prefix.
        let mut hit = vec![false; usize::from(SLOT_COUNT)];
        for blob in 0u64..4096 {
            hit[usize::from(slot_for_blob(blob))] = true;
        }
        let covered = hit.iter().filter(|h| **h).count();
        assert!(covered > 900, "only {covered} of 1024 slots covered");
    }

    #[test]
    fn uniform_covers_every_slot_exactly_once() {
        for groups in [1, 2, 3, 4, 7, 16] {
            let map = SlotMap::uniform(groups);
            let mut counts = vec![0usize; groups];
            for slot in 0..SLOT_COUNT {
                let g = map.group_of(slot).expect("every slot assigned");
                counts[g] += 1;
            }
            let total: usize = counts.iter().sum();
            assert_eq!(total, usize::from(SLOT_COUNT));
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "uneven split for {groups} groups: {counts:?}"
            );
        }
    }

    #[test]
    fn reassign_moves_slots_and_bumps_epoch() {
        let map = SlotMap::uniform(4);
        let moving = map.slots_of(3);
        let next = map.reassign(&moving, 0);
        assert_eq!(next.epoch, map.epoch + 1);
        for s in &moving {
            assert_eq!(next.group_of(*s), Some(0));
        }
        // Group 3 now owns nothing — the empty-slot-range edge case.
        assert!(next.slots_of(3).is_empty());
        assert_eq!(next.group_of(0).map(|_| ()), Some(()));
        // Untouched slots keep their owner.
        for s in map.slots_of(1) {
            assert_eq!(next.group_of(s), Some(1));
        }
    }

    #[test]
    fn reassign_can_grow_the_group_count() {
        let map = SlotMap::uniform(2);
        let next = map.reassign(&[0, 1, 2], 5);
        assert_eq!(next.groups, 6);
        assert_eq!(next.group_of(1), Some(5));
    }

    #[test]
    fn ranges_compress_adjacent_slots() {
        let map = SlotMap::uniform(4);
        assert_eq!(map.ranges.len(), 4, "uniform map is 4 contiguous ranges");
        // Moving one interior slot splits its source range.
        let next = map.reassign(&[10], 1);
        assert_eq!(next.group_of(9), Some(0));
        assert_eq!(next.group_of(10), Some(1));
        assert_eq!(next.group_of(11), Some(0));
    }

    #[test]
    fn roundtrips_through_serde() {
        let map = SlotMap::uniform(4).reassign(&[7, 8, 512], 2);
        let back = SlotMap::from_value(&map.to_value()).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn bump_epoch_keeps_assignment() {
        let map = SlotMap::uniform(3);
        let next = map.bump_epoch();
        assert_eq!(next.epoch, 2);
        assert_eq!(next.ranges, map.ranges);
    }
}
