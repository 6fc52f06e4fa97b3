//! Writer stamps: position-dependent payload patterns that let the
//! atomicity verifier attribute every byte of a final file state to the
//! write operation that produced it.
//!
//! Each write operation is tagged with a [`WriteStamp`] `(writer, seq)`.
//! The byte stored at absolute file offset `p` by that operation is a
//! pseudo-random function of `(writer, seq, p)`. After a concurrent run,
//! the verifier recomputes the expected byte for every candidate operation
//! covering `p` and attributes the byte to the (with overwhelming
//! probability unique) matching candidate. MPI atomicity then reduces to a
//! serializability check over the attribution — see
//! `atomio-workloads::verify`.
//!
//! The module also holds the mixing the rest of the workspace shares:
//! [`mix64`], and [`checksum`], the checksum of every stored byte.

use crate::extent::ExtentList;
use crate::ids::ClientId;

/// Identity of one write operation for verification purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WriteStamp {
    /// The writing client (MPI rank).
    pub writer: ClientId,
    /// Per-writer operation sequence number.
    pub seq: u64,
}

impl WriteStamp {
    /// Creates a stamp for `writer`'s `seq`-th operation.
    pub const fn new(writer: ClientId, seq: u64) -> Self {
        Self { writer, seq }
    }

    /// The byte this operation stores at absolute file offset `p`.
    #[inline]
    pub fn byte_at(self, p: u64) -> u8 {
        let key = self
            .writer
            .raw()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.seq.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        (mix64(key ^ p) & 0xFF) as u8
    }

    /// Fills `buf` with the expected bytes for the absolute range
    /// `[start, start + buf.len())`.
    pub fn fill_range(self, start: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.byte_at(start + i as u64);
        }
    }

    /// Builds the packed payload buffer for a non-contiguous write over
    /// `extents`: extents in file order, each filled with this stamp's
    /// position-dependent bytes.
    pub fn payload_for(self, extents: &ExtentList) -> Vec<u8> {
        let mut buf = vec![0u8; extents.total_len() as usize];
        for (range, buf_off) in extents.with_buffer_offsets() {
            let slice = &mut buf[buf_off as usize..(buf_off + range.len) as usize];
            self.fill_range(range.offset, slice);
        }
        buf
    }

    /// True if `data` matches this stamp over the absolute range starting
    /// at `start`.
    pub fn matches(self, start: u64, data: &[u8]) -> bool {
        data.iter()
            .enumerate()
            .all(|(i, &b)| b == self.byte_at(start + i as u64))
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
///
/// Used for stamps, for deterministic hash-partitioning of metadata
/// nodes onto metadata providers, and by [`checksum`].
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Bytes [`checksum`] accumulates per step: eight 64-bit words.
const STRIPE: usize = 64;
/// Stripes between two scrambles of the accumulators (1 KiB).
const STRIPES_PER_BLOCK: usize = 16;

/// Key words: stripe `n` of a block keys its lanes with
/// `KEYS[n..n + 8]`, so moving a stripe within a block moves its sum;
/// the scramble takes the eight after the stripes' keys.
const KEYS: [u64; STRIPES_PER_BLOCK + 7 + 8] = {
    let mut keys = [0u64; STRIPES_PER_BLOCK + 7 + 8];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = mix64(0x243F_6A88_85A3_08D3 ^ i as u64);
        i += 1;
    }
    keys
};

/// The checksum of every stored byte: chunk payloads at ingest and
/// record frames (not crypto; this models CRC-grade integrity checking).
///
/// Eight 64-bit accumulators take one 64-byte stripe per step, XXH3's
/// accumulate: lane `i` adds the product of the low and high halves of
/// its word xor its key, and its neighbour lane `i ^ 1` adds the word
/// itself. The 32×32→64 multiplies are independent across lanes, so the
/// compiler vectorizes the loop with baseline SIMD, and the plain sum
/// keeps every bit of every word: a single-bit flip always changes an
/// accumulator. Every 1 KiB each accumulator is scrambled (a bijection:
/// xorshift, key, odd multiply), so the order of blocks counts. The
/// length, the tail past the last whole stripe and the accumulators are
/// then folded through [`mix64`]. An input shorter than one stripe is
/// only that serial chain, so a small record frame costs a few mixes.
pub fn checksum(seed: u64, bytes: &[u8]) -> u64 {
    let mut fold = mix64(seed ^ bytes.len() as u64);
    let (striped, tail) = bytes.split_at(bytes.len() - bytes.len() % STRIPE);
    if !striped.is_empty() {
        let mut acc = [0u64; 8];
        for (lane, key) in acc.iter_mut().zip(&KEYS) {
            *lane = seed ^ key;
        }
        for block in striped.chunks(STRIPE * STRIPES_PER_BLOCK) {
            for (n, stripe) in block.chunks_exact(STRIPE).enumerate() {
                accumulate(&mut acc, stripe, &KEYS[n..n + 8]);
            }
            scramble(&mut acc);
        }
        for lane in acc {
            fold = mix64(fold ^ lane);
        }
    }
    for word in tail.chunks(8) {
        let mut padded = [0u8; 8];
        padded[..word.len()].copy_from_slice(word);
        fold = mix64(fold ^ u64::from_le_bytes(padded));
    }
    fold
}

/// One stripe into the accumulators (XXH3's accumulate step).
#[inline(always)]
fn accumulate(acc: &mut [u64; 8], stripe: &[u8], keys: &[u64]) {
    let mut words = [0u64; 8];
    for (word, bytes) in words.iter_mut().zip(stripe.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("a word is 8 bytes"));
    }
    for i in 0..8 {
        let keyed = words[i] ^ keys[i];
        acc[i] = acc[i].wrapping_add((keyed & 0xFFFF_FFFF).wrapping_mul(keyed >> 32));
        acc[i ^ 1] = acc[i ^ 1].wrapping_add(words[i]);
    }
}

/// Scrambles each accumulator: xorshift, key, odd multiply — a bijection.
#[inline(always)]
fn scramble(acc: &mut [u64; 8]) {
    let keys = &KEYS[KEYS.len() - 8..];
    for (lane, key) in acc.iter_mut().zip(keys) {
        *lane = ((*lane ^ (*lane >> 47)) ^ key).wrapping_mul(0x9E37_79B1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::ByteRange;

    #[test]
    fn byte_at_is_deterministic() {
        let s = WriteStamp::new(ClientId::new(3), 7);
        assert_eq!(s.byte_at(100), s.byte_at(100));
    }

    #[test]
    fn different_stamps_differ_somewhere() {
        let a = WriteStamp::new(ClientId::new(1), 0);
        let b = WriteStamp::new(ClientId::new(2), 0);
        let c = WriteStamp::new(ClientId::new(1), 1);
        let differs =
            |x: WriteStamp, y: WriteStamp| (0..64u64).any(|p| x.byte_at(p) != y.byte_at(p));
        assert!(differs(a, b));
        assert!(differs(a, c));
        assert!(differs(b, c));
    }

    #[test]
    fn stamp_depends_on_position() {
        let s = WriteStamp::new(ClientId::new(5), 2);
        // Not all positions map to the same byte.
        let first = s.byte_at(0);
        assert!((1..256u64).any(|p| s.byte_at(p) != first));
    }

    #[test]
    fn payload_maps_buffer_to_extents() {
        let s = WriteStamp::new(ClientId::new(9), 1);
        let ext = ExtentList::from_pairs([(10u64, 4u64), (100, 3)]);
        let payload = s.payload_for(&ext);
        assert_eq!(payload.len(), 7);
        for i in 0..4u64 {
            assert_eq!(payload[i as usize], s.byte_at(10 + i));
        }
        for i in 0..3u64 {
            assert_eq!(payload[4 + i as usize], s.byte_at(100 + i));
        }
    }

    #[test]
    fn matches_detects_corruption() {
        let s = WriteStamp::new(ClientId::new(4), 0);
        let mut buf = vec![0u8; 32];
        s.fill_range(50, &mut buf);
        assert!(s.matches(50, &buf));
        buf[10] ^= 0xFF;
        assert!(!s.matches(50, &buf));
        // Matching against the wrong offset fails (position-dependence).
        let mut buf2 = vec![0u8; 32];
        s.fill_range(50, &mut buf2);
        assert!(!s.matches(51, &buf2));
    }

    #[test]
    fn fill_range_consistent_with_payload() {
        let s = WriteStamp::new(ClientId::new(8), 3);
        let r = ByteRange::new(200, 16);
        let ext = ExtentList::single(r);
        let payload = s.payload_for(&ext);
        let mut direct = vec![0u8; 16];
        s.fill_range(200, &mut direct);
        assert_eq!(payload, direct);
    }

    /// `len` pseudo-random bytes drawn from `fill`.
    fn noise(fill: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| mix64(fill ^ i) as u8).collect()
    }

    #[test]
    fn checksum_separates_near_inputs_at_every_length_to_4_kib() {
        // Every length up to 4 KiB: every stripe edge (64 B) and every
        // scramble edge (1 KiB) on both sides, and the short path.
        for len in 0..=4096usize {
            let r = mix64(len as u64);
            let data = noise(r, len);
            let sum = checksum(7, &data);
            // A single-bit flip at the first byte, the last byte and one
            // drawn between them.
            if len > 0 {
                for at in [0, len - 1, r as usize % len] {
                    let mut flipped = data.clone();
                    flipped[at] ^= 1 << ((r >> 32) % 8);
                    assert_ne!(checksum(7, &flipped), sum, "len {len} flip at {at}");
                }
            }
            // Two adjacent distinct bytes swapped, from a drawn position on.
            if len > 1 {
                let from = (r >> 16) as usize % (len - 1);
                if let Some(at) = (from..len - 1).find(|&i| data[i] != data[i + 1]) {
                    let mut swapped = data.clone();
                    swapped.swap(at, at + 1);
                    assert_ne!(checksum(7, &swapped), sum, "len {len} swap at {at}");
                }
            }
            let mut longer = data.clone();
            longer.push(0);
            assert_ne!(checksum(7, &longer), sum, "len {len} + a zero byte");
            assert_ne!(checksum(8, &data), sum, "len {len} under another seed");
        }
    }

    #[test]
    fn checksum_outputs_are_pinned() {
        // A changed output is a change of every stored checksum: an
        // on-disk format and protocol version bump, not a re-pin.
        let kib: Vec<u8> = (0..1024u32).map(|i| i as u8).collect();
        let leaf: Vec<u8> = (0..64 << 10).map(|i: u32| ((i * 131) >> 3) as u8).collect();
        assert_eq!(checksum(0, b""), 0xe220_a839_7b1d_cdaf);
        assert_eq!(checksum(0, b"hello"), 0xdc6c_d7a8_c638_1f97);
        assert_eq!(checksum(0, &kib), 0xd1d9_702f_eef5_951d);
        assert_eq!(checksum(0, &leaf), 0xdc46_a112_4d06_ce68);
    }

    #[test]
    fn mix64_is_not_identity_and_spreads() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
        // Avalanche smoke test: flipping one input bit flips many output bits.
        let a = mix64(0x1234_5678);
        let b = mix64(0x1234_5679);
        assert!((a ^ b).count_ones() > 10);
    }
}
