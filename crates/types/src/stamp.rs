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
/// Used for stamps and for deterministic hash-partitioning of metadata
/// nodes onto metadata providers.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
