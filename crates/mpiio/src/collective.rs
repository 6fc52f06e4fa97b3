//! Two-phase collective I/O (the ROMIO optimization of
//! `MPI_File_write_at_all`).
//!
//! Independent collective writes send every rank's small non-contiguous
//! pieces straight to storage. Two-phase I/O first *redistributes* the
//! data over the network: the ranks exchange access metadata
//! (allgather), the file range under access is split into contiguous
//! **file domains** owned by aggregator ranks, every rank ships its
//! pieces to the owning aggregators (alltoallv), and each aggregator
//! issues one large, mostly-contiguous write for its domain. Network
//! bandwidth is traded for far fewer, far larger storage requests.
//!
//! Overlaps *within* one collective (ghost cells!) are resolved
//! deterministically: pieces are applied in rank order, so the result
//! equals the serial schedule rank 0, rank 1, ... — a valid MPI
//! atomic-mode outcome. Each aggregator's write goes through the normal
//! ADIO driver with the caller's atomicity flag, so concurrent *other*
//! writers are handled by the backend's concurrency control.

use crate::adio::AdioDriver;
use crate::comm::Communicator;
use atomio_simgrid::Participant;
use atomio_types::{ByteRange, ClientId, Error, ExtentList, Result};
use bytes::Bytes;
use std::sync::Arc;

/// How collective data access is performed.
///
/// Independent is the default because two-phase loses on the versioning
/// driver at every scale E9 measures (0.45×–0.60× of independent, 4 to
/// 64 processes): the versioning write already packs a rank's pieces
/// into leaf-sized chunks, so the exchange is pure cost. It pays on the
/// locking baseline (10–46×), whose aggregated file domains are disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveStrategy {
    /// Every rank writes its own pieces (barrier-synchronized).
    #[default]
    Independent,
    /// Two-phase I/O with at most this many aggregator ranks.
    TwoPhase {
        /// Upper bound on the number of aggregators (clamped to the
        /// communicator size; 0 is invalid).
        aggregators: usize,
    },
}

/// Executes the two-phase write for one rank. Returns once every rank
/// has finished its part of the collective (including any aggregation
/// duty), with this rank's own error if it had one.
#[allow(clippy::too_many_arguments)] // mirrors the MPI call surface
pub fn two_phase_write(
    p: &Participant,
    comm: &Communicator,
    rank: usize,
    driver: &Arc<dyn AdioDriver>,
    extents: &ExtentList,
    payload: &[u8],
    aggregators: usize,
    atomic: bool,
) -> Result<()> {
    // Every rank holds the same strategy, so every rank refuses here,
    // before any exchange.
    if aggregators == 0 {
        return Err(Error::CollectiveMismatch(
            "two-phase I/O needs at least one aggregator".into(),
        ));
    }
    // A rank whose buffer does not fill its extents still takes part,
    // with nothing to write, so no other rank waits for it.
    let refused = if payload.len() as u64 == extents.total_len() {
        Ok(())
    } else {
        Err(Error::BufferSizeMismatch {
            expected: extents.total_len(),
            actual: payload.len() as u64,
        })
    };
    let nothing = ExtentList::new();
    let (extents, payload) = if refused.is_ok() {
        (extents, payload)
    } else {
        (&nothing, &[][..])
    };

    // Phase 0: exchange access metadata.
    let all_meta = comm.allgather(p, rank, encode_extents(extents));
    let union = all_meta.iter().try_fold(ExtentList::new(), |union, meta| {
        Ok(union.union(&decode_extents(meta)?))
    });

    // Compute file domains: contiguous-ish splits of the union, owned by
    // ranks 0..domains.len(). A union that does not decode leaves no
    // domains, and the exchange below runs empty.
    let domains = match &union {
        Ok(union) => union.partition(aggregators.min(comm.size())),
        Err(_) => Vec::new(),
    };

    // Phase 1: ship my pieces to the owning aggregators.
    let offsets: Vec<(ByteRange, u64)> = extents.with_buffer_offsets().collect();
    let mut outgoing: Vec<Vec<u8>> = vec![Vec::new(); comm.size()];
    for (d, domain) in domains.iter().enumerate() {
        let mine = extents.intersection(domain);
        if mine.is_empty() {
            continue;
        }
        let mut msg = Vec::new();
        for &piece in &mine {
            // Locate the piece's bytes in my packed payload.
            let idx = offsets.partition_point(|(r, _)| r.end() <= piece.offset);
            let (outer, buf_off) = offsets[idx];
            debug_assert!(outer.contains_range(piece));
            let start = (buf_off + piece.offset - outer.offset) as usize;
            encode_piece(&mut msg, piece, &payload[start..start + piece.len as usize]);
        }
        outgoing[d] = msg;
    }
    let inbox = comm.alltoallv(p, rank, outgoing);

    // Phase 2: aggregators assemble and write their domain.
    let written = match domains.get(rank) {
        Some(domain) => write_domain(p, rank, driver, domain, &inbox, atomic),
        None => Ok(()),
    };

    // Everyone leaves together (write_at_all semantics), whatever failed.
    comm.barrier(p);
    refused.and(union).and(written)
}

/// An aggregator's phase 2: applies the pieces of `inbox` to its
/// `domain` in source-rank order — deterministic overlap resolution equal
/// to the serial schedule rank 0, 1, 2, ... — and writes the domain.
fn write_domain(
    p: &Participant,
    rank: usize,
    driver: &Arc<dyn AdioDriver>,
    domain: &ExtentList,
    inbox: &[Vec<u8>],
    atomic: bool,
) -> Result<()> {
    let mut buf = vec![0u8; domain.total_len() as usize];
    let dom_offsets: Vec<(ByteRange, u64)> = domain.with_buffer_offsets().collect();
    for msg in inbox {
        let mut cursor = 0usize;
        while cursor < msg.len() {
            let (piece, data, next) = decode_piece(msg, cursor)?;
            let idx = dom_offsets.partition_point(|(r, _)| r.end() <= piece.offset);
            let (outer, buf_off) = *dom_offsets
                .get(idx)
                .ok_or_else(|| Error::Internal("piece outside aggregator domain".into()))?;
            if !outer.contains_range(piece) {
                return Err(Error::Internal(
                    "piece crosses aggregator domain runs".into(),
                ));
            }
            let start = (buf_off + piece.offset - outer.offset) as usize;
            buf[start..start + data.len()].copy_from_slice(data);
            cursor = next;
        }
    }
    driver.write_extents(
        p,
        ClientId::new(rank as u64),
        domain,
        Bytes::from(buf),
        atomic,
    )
}

// --- tiny wire format -----------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], at: usize) -> Result<u64> {
    buf.get(at..at + 8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .ok_or_else(|| Error::Internal("truncated collective message".into()))
}

/// Encodes an extent list as `count, (offset, len)*`.
pub(crate) fn encode_extents(extents: &ExtentList) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 16 * extents.range_count());
    put_u64(&mut out, extents.range_count() as u64);
    for r in extents {
        put_u64(&mut out, r.offset);
        put_u64(&mut out, r.len);
    }
    out
}

/// Decodes [`encode_extents`] output.
pub(crate) fn decode_extents(buf: &[u8]) -> Result<ExtentList> {
    let count = get_u64(buf, 0)? as usize;
    let mut ranges = Vec::with_capacity(count);
    for i in 0..count {
        let offset = get_u64(buf, 8 + i * 16)?;
        let len = get_u64(buf, 16 + i * 16)?;
        ranges.push(ByteRange::new(offset, len));
    }
    Ok(ExtentList::from_ranges(ranges))
}

fn encode_piece(out: &mut Vec<u8>, range: ByteRange, data: &[u8]) {
    debug_assert_eq!(range.len as usize, data.len());
    put_u64(out, range.offset);
    put_u64(out, range.len);
    out.extend_from_slice(data);
}

fn decode_piece(buf: &[u8], at: usize) -> Result<(ByteRange, &[u8], usize)> {
    let offset = get_u64(buf, at)?;
    let len = get_u64(buf, at + 8)?;
    let start = at + 16;
    let end = start + len as usize;
    let data = buf
        .get(start..end)
        .ok_or_else(|| Error::Internal("truncated piece".into()))?;
    Ok((ByteRange::new(offset, len), data, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_wire_roundtrip() {
        let e = ExtentList::from_pairs([(0u64, 10u64), (100, 5), (1 << 40, 1)]);
        assert_eq!(decode_extents(&encode_extents(&e)).unwrap(), e);
        let empty = ExtentList::new();
        assert_eq!(decode_extents(&encode_extents(&empty)).unwrap(), empty);
    }

    #[test]
    fn piece_wire_roundtrip() {
        let mut msg = Vec::new();
        encode_piece(&mut msg, ByteRange::new(40, 3), b"abc");
        encode_piece(&mut msg, ByteRange::new(100, 2), b"xy");
        let (r1, d1, next) = decode_piece(&msg, 0).unwrap();
        assert_eq!((r1, d1), (ByteRange::new(40, 3), &b"abc"[..]));
        let (r2, d2, end) = decode_piece(&msg, next).unwrap();
        assert_eq!((r2, d2), (ByteRange::new(100, 2), &b"xy"[..]));
        assert_eq!(end, msg.len());
    }

    #[test]
    fn truncated_messages_error() {
        assert!(decode_extents(&[1, 2, 3]).is_err());
        let mut msg = Vec::new();
        encode_piece(&mut msg, ByteRange::new(0, 100), &[0u8; 100]);
        msg.truncate(50);
        assert!(decode_piece(&msg, 0).is_err());
    }
}
