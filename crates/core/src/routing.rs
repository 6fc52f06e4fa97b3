//! Hash-slot routing for namespace-scale distribution.
//!
//! Every blob hashes to one of [`SLOT_COUNT`] slots, and [`shard_of`]
//! splits the slots into contiguous ranges, one per shard of a fleet.
//! The split is a pure function of the shard count each server is
//! deployed with (`--shard i/N`), so clients and servers agree on who
//! owns what without exchanging any state: a server that receives a
//! request for a slot it does not own answers `Error::WrongShard { slot }`,
//! which means the client was configured with a different fleet. This
//! is the amberio/Redis-cluster shape — `hash(name) % slot_count` —
//! chosen over consistent hashing because slot ownership is explicit and
//! enumerable.

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

/// The shard of an `shards`-way fleet that owns `slot`: the slots split
/// into contiguous ranges in shard order, and the first
/// `SLOT_COUNT % shards` shards own one slot more than the rest. With
/// more shards than slots, the shards past the last slot own none.
///
/// # Panics
/// When `shards` is zero.
pub fn shard_of(slot: u16, shards: usize) -> usize {
    assert!(shards > 0, "a fleet needs at least one shard");
    let (slot, total) = (usize::from(slot), usize::from(SLOT_COUNT));
    let (base, extra) = (total / shards, total % shards);
    // The first `extra` shards own `base + 1` slots each.
    let long = extra * (base + 1);
    if slot < long {
        slot / (base + 1)
    } else {
        extra + (slot - long) / base
    }
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
    fn shard_of_splits_the_slots_into_even_contiguous_ranges() {
        for shards in [1, 2, 3, 4, 7, 16, 1024, 1500] {
            let mut counts = vec![0usize; shards];
            let mut last = 0;
            for slot in 0..SLOT_COUNT {
                let shard = shard_of(slot, shards);
                assert!(shard < shards, "slot {slot} of {shards}: shard {shard}");
                assert!(shard >= last, "slot {slot} of {shards} steps back");
                counts[shard] += 1;
                last = shard;
            }
            let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
            assert!(
                max - min <= 1,
                "uneven split for {shards} shards: {counts:?}"
            );
        }
        // The first `1024 % n` shards own the extra slot.
        let bounds = [341, 342, 682, 683].map(|slot| shard_of(slot, 3));
        assert_eq!(bounds, [0, 1, 1, 2]);
        assert_eq!(shard_of(1023, 1500), 1023);
    }
}
