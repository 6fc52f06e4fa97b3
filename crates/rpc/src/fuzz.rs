//! Bytes from the network cannot panic a peer, and cannot make it hold
//! more memory than a constant multiple of what they are.
//!
//! Arbitrary byte strings, and the frame of every sample message in
//! [`crate::samples`] truncated and mutated at every offset, go through
//! everything that reads a peer's bytes: [`wire::read_frame_bytes`],
//! [`wire::split_frame`], the positional decoders of [`Request`] and
//! [`Response`] ([`wire::decode_header`]), and [`PayloadCursor`]. Frames
//! carry no checksum, so a mutated frame that still parses does reach the
//! message decoders. Each step must end in a typed error or in a message
//! that encodes again, with the thread's peak heap use — counted by this
//! test binary's allocator — inside a budget ([`metered`]). And a range
//! or an extent list that decodes at all is one its constructors would
//! have built ([`assert_ranges_are_valid`]): the services do arithmetic
//! on them. The metadata server's tree walk gets the same treatment: a
//! `MetaResolve` over any stored node set, cycles and misplaced links
//! included, ends typed or in pieces that tile its extents.

use crate::client::check_tiling;
use crate::proto::{Request, Response};
use crate::samples;
use crate::services::{MetaService, Service};
use crate::wire::{self, PayloadCursor};
use atomio_meta::{LeafEntry, Node, NodeBody, NodeKey, ResolvedPiece, WriteSummary};
use atomio_types::{
    BlobId, ByteRange, ChunkId, Error, ExtentList, ProviderId, TransportErrorKind, VersionId,
};
use bytes::Bytes;
use proptest::prelude::*;
use serde::{Decode, Encode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

/// The system allocator, counting each thread's live and peak bytes so a
/// test can meter one closure while its neighbours run in parallel.
struct Meter;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Books `delta` bytes to the calling thread. `try_with`: the allocator
/// also runs while a dying thread's locals are being torn down.
fn book(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping
// touches only const-initialised, destructor-free thread locals, so it
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment: count that.
        book(new_size as isize);
        book(-(layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static METER: Meter = Meter;

/// Runs `f`, returning its result and the most heap the calling thread
/// held during it beyond what it held on entry.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let result = f();
    (result, (PEAK.with(Cell::get) - before).max(0) as usize)
}

/// Heap bytes per item of `T` in a decoded `Vec` (plus `extra` the item
/// allocates on its own) over the fewest bytes an item encodes to.
fn ratio<T: Decode>(extra: usize) -> f64 {
    (size_of::<T>() + extra) as f64 / T::MIN_BYTES.max(1) as f64
}

/// The most heap one input byte can make a message decoder hold.
///
/// The argument. A decoder allocates in three places: a `Vec`, which
/// reserves `size_of::<T>() × count` for a declared count no larger than
/// `bytes left / T::MIN_BYTES` — so never more than `ratio::<T>()` per
/// input byte — and does not grow while the count is at most the 4096
/// items it may reserve (every input here is a few KiB, so no count
/// passes that); a `String`, which holds at most the bytes it consumed;
/// and the `Arc` of a [`WriteSummary`]. Items of one level that are
/// complete hold what their own bytes paid for, the level's open
/// reservation no more than the bytes left, so each level of nesting
/// costs its ratio once. A message type's bound is then the sum of the
/// ratios down its deepest chain of nested containers, and the constant
/// is the largest of those sums over every container in the protocol —
/// listed below, chain by chain, as the message types nest them. No
/// protocol type is recursive, so the list is finite.
fn heap_per_input_byte() -> f64 {
    type Outcome<T> = Result<T, Error>;
    let string = 1.0; // a `String`: its bytes, from 4 + its bytes
    let summary_arc = 2 * size_of::<usize>() + size_of::<ExtentList>();
    let leaf = ratio::<LeafEntry>(0) + ratio::<ProviderId>(0);
    let chains = [
        // Requests.
        ratio::<(u64, ChunkId, u64)>(0),
        ratio::<(u64, ChunkId, ByteRange)>(0),
        ratio::<ChunkId>(0),
        ratio::<Node>(0) + leaf,
        ratio::<NodeKey>(0),
        ratio::<ByteRange>(0),
        // Responses; an `Error` holds at most one `String`.
        ratio::<Outcome<u64>>(0) + string,
        ratio::<Outcome<(u64, u64)>>(0) + string,
        ratio::<Outcome<()>>(0) + string,
        ratio::<Outcome<Node>>(0) + leaf.max(string),
        ratio::<WriteSummary>(summary_arc) + ratio::<ByteRange>(0),
        ratio::<ResolvedPiece>(0) + ratio::<ProviderId>(0),
        string,
    ];
    chains.into_iter().fold(0.0, f64::max)
}

/// Runs `read` over `input` and holds its peak heap use to `(heap per
/// input byte + 1) × input + reserve + 64 KiB`: what the decoders may
/// hold ([`heap_per_input_byte`]), one copy of the input (a frame read
/// into a buffer), `reserve` — what a frame reader may take on a declared
/// length alone — and error strings and the like. What it catches: a
/// reader that trusts declarations holds memory per *declared* item, and
/// 272 MiB for a 17-byte frame prefix.
fn metered(input: &[u8], reserve: usize, read: impl FnOnce()) {
    let ((), peak) = peak_during(read);
    let budget = (heap_per_input_byte() + 1.0) * input.len() as f64;
    assert!(
        peak as f64 <= budget + (reserve + (64 << 10)) as f64,
        "reading {} bytes held {peak} bytes of heap",
        input.len()
    );
}

/// A header that decodes as a `T` yields a message that survives its
/// own round trip (and is returned).
fn assert_message_reencodes<T>(header: &[u8]) -> Option<T>
where
    T: Encode + Decode + PartialEq + std::fmt::Debug,
{
    let message = wire::decode_header::<T>(header).ok()?;
    let mut again = Vec::new();
    message.encode(&mut again);
    assert_eq!(
        wire::decode_header::<T>(&again).as_ref().ok(),
        Some(&message)
    );
    Some(message)
}

/// The ranges of a request that decoded hold what `ByteRange::new` and
/// `ExtentList::from_ranges` guarantee — no frame gets past their
/// hand-written `Decode` impls with an end that overflows or a list that
/// is not normalized.
fn assert_ranges_are_valid(request: &Request) {
    let fits = |range: &ByteRange| range.offset.checked_add(range.len).is_some();
    match request {
        Request::VmTicket { extents, .. } | Request::MetaResolve { extents, .. } => {
            assert!(extents.ranges().iter().all(fits), "{extents:?}");
            let rebuilt = ExtentList::from_ranges(extents.ranges().iter().copied());
            assert_eq!(&rebuilt, extents);
        }
        Request::GetChunkRange { range, .. } => assert!(fits(range), "{range:?}"),
        Request::GetChunkRangeBatch { items, .. } => {
            assert!(items.iter().all(|(_, _, range)| fits(range)), "{items:?}")
        }
        _ => {}
    }
}

/// A header as both sides decode it.
fn decode_both(header: &[u8]) {
    if let Some(request) = assert_message_reencodes::<Request>(header) {
        assert_ranges_are_valid(&request);
    }
    assert_message_reencodes::<Response>(header);
}

/// Everything a peer's `bytes` meet on the way in: as a bare header, and
/// as a frame — read off a stream, whose reader may reserve 1 MiB on a
/// declared length, or cut out of a buffer already holding it.
fn read_as_a_peer_would(bytes: &[u8]) {
    metered(bytes, 0, || decode_both(bytes));
    metered(bytes, 1 << 20, || {
        if let Ok(frame) = wire::read_frame_bytes(&mut &bytes[..]) {
            assert!(frame.wire_bytes as usize <= bytes.len());
            decode_both(&frame.header);
        }
    });
    metered(bytes, 0, || {
        if let Ok(frame) = wire::split_frame(Bytes::copy_from_slice(bytes)) {
            assert_eq!(frame.wire_bytes as usize, bytes.len());
            decode_both(&frame.header);
        }
    });
}

const PAYLOAD: &[u8] = b"payload bytes";

/// Whether a header decodes as one message type.
type IsMessage = fn(&[u8]) -> bool;

/// One whole frame per sample message, with [`PAYLOAD`] behind it, and
/// the check that a header decodes as that message's type.
fn sample_frames() -> Vec<(Vec<u8>, IsMessage)> {
    fn frame(message: &impl Encode) -> Vec<u8> {
        let mut frame = Vec::new();
        wire::append_frame(&mut frame, 7, message, &[PAYLOAD]).unwrap();
        frame
    }
    let is_request: IsMessage = |h| wire::decode_header::<Request>(h).is_ok();
    let is_response: IsMessage = |h| wire::decode_header::<Response>(h).is_ok();
    let requests = samples::requests()
        .into_iter()
        .map(|r| (frame(&r), is_request));
    let responses = samples::responses()
        .into_iter()
        .map(|r| (frame(&r), is_response));
    requests.chain(responses).collect()
}

#[test]
fn every_sample_frame_reads_back_whole_and_fails_typed_when_cut_anywhere() {
    for (frame, decodes) in sample_frames() {
        read_as_a_peer_would(&frame);
        let whole = wire::read_frame_bytes(&mut &frame[..]).unwrap();
        assert_eq!(whole.payload.as_ref(), PAYLOAD);
        assert_eq!(whole.wire_bytes as usize, frame.len());
        for cut in 0..frame.len() {
            let err = wire::read_frame_bytes(&mut &frame[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
            let err = wire::split_frame(Bytes::copy_from_slice(&frame[..cut])).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut at {cut}");
            read_as_a_peer_would(&frame[..cut]);
        }
        // And the header alone, cut anywhere, is not a message.
        let header = &frame[wire::FRAME_PREFIX_BYTES as usize..frame.len() - PAYLOAD.len()];
        assert!(decodes(header));
        for cut in 0..header.len() {
            assert!(!decodes(&header[..cut]), "cut at {cut}");
        }
    }
}

/// A request or response whose one container declares as many items as
/// the `filler` bytes behind it could hold, every item garbage.
fn lying_header(message: &impl Encode, count_at: usize, min_bytes: usize, filler: u8) -> Vec<u8> {
    const FILLER: usize = 15_000_000;
    let mut header = Vec::new();
    message.encode(&mut header);
    header.truncate(count_at);
    header.extend_from_slice(&((FILLER / min_bytes) as u32).to_le_bytes());
    header.resize(header.len() + FILLER, filler);
    header
}

#[test]
fn a_declared_count_reserves_no_more_than_the_cap() {
    let cap = serde::codec::MAX_PREALLOC_ITEMS;
    // 468 750 keys declared, 15 MB behind the count so it passes for
    // plausible, and the first key's range already overflows.
    let keys = Request::MetaGetBatch { keys: vec![] };
    let header = lying_header(&keys, 1, NodeKey::MIN_BYTES, 0xFF);
    let (result, peak) = peak_during(|| wire::decode_header::<Request>(&header));
    assert!(result.is_err());
    assert!(
        peak <= cap * size_of::<NodeKey>() + (64 << 10),
        "held {peak}"
    );
    // 7.5 M outcomes declared, the first one's tag unknown.
    let gets = Response::NodeGets { results: vec![] };
    let header = lying_header(&gets, 1, <Result<Node, Error>>::MIN_BYTES, 0xFF);
    let (result, peak) = peak_during(|| wire::decode_header::<Response>(&header));
    assert!(result.is_err());
    let outcome = size_of::<Result<Node, Error>>();
    assert!(peak <= cap * outcome + (64 << 10), "held {peak}");
    // 882 352 resolved pieces declared, the first one's range overflows.
    let pieces = Response::Pieces { pieces: vec![] };
    let header = lying_header(&pieces, 1, ResolvedPiece::MIN_BYTES, 0xFF);
    let (result, peak) = peak_during(|| wire::decode_header::<Response>(&header));
    assert!(result.is_err());
    let piece = size_of::<ResolvedPiece>();
    assert!(peak <= cap * piece + (64 << 10), "held {peak}");
    // Nor does the value codec the benchmark's probes keep: an array (6)
    // or object (7) declaring 15 M items, the first already garbage.
    for container in [6u8, 7] {
        let mut header = vec![0xFF; 5 + 15_000_000];
        header[0] = container;
        header[1..5].copy_from_slice(&15_000_000u32.to_le_bytes());
        let (result, peak) = peak_during(|| wire::decode_value(&header));
        assert!(result.is_err());
        assert!(peak < 256 << 10, "decoding 6 bytes reserved {peak}");
    }
    // Nor does a frame section: 17 bytes declaring 16 + 256 MiB.
    let mut prefix = vec![crate::PROTOCOL_VERSION];
    prefix.extend_from_slice(&7u64.to_be_bytes());
    prefix.extend_from_slice(&wire::MAX_HEADER_BYTES.to_be_bytes());
    prefix.extend_from_slice(&wire::MAX_PAYLOAD_BYTES.to_be_bytes());
    read_as_a_peer_would(&prefix);
}

#[test]
fn a_huge_node_batch_decodes_in_a_small_multiple_of_its_size() {
    // 12 000 leaves of 16 descriptors each — a legitimately huge
    // `MetaPutBatch` of the shape a tile write sends, 8.9 MB encoded.
    let key = |version: u64, offset: u64| {
        NodeKey::new(
            BlobId::new(1),
            VersionId::new(version),
            ByteRange::new(offset, 1 << 20),
        )
    };
    let nodes: Vec<Node> = (0..12_000u64)
        .map(|i| Node {
            key: key(i + 2, i << 20),
            body: NodeBody::Leaf {
                entries: (0..16u64)
                    .map(|e| LeafEntry {
                        file_range: ByteRange::new((i << 20) + e * 2048, 2048),
                        chunk: ChunkId::new(i * 16 + e),
                        chunk_offset: e * 2048,
                        homes: vec![ProviderId::new(e % 4)],
                    })
                    .collect(),
                backlink: Some(key(1, i << 20)),
            },
        })
        .collect();
    let request = Request::MetaPutBatch { nodes };
    let mut header = Vec::new();
    request.encode(&mut header);
    assert!(header.len() >= 8 << 20 && header.len() <= wire::MAX_HEADER_BYTES as usize);
    let (decoded, peak) = peak_during(|| wire::decode_header::<Request>(&header).unwrap());
    assert_eq!(decoded, request);
    assert!(
        peak <= 4 * header.len(),
        "a {}-byte header decoded holding {peak} bytes",
        header.len()
    );
}

/// `(version, offset, len)` of the node keys the resolve property draws
/// from: a dyadic tree over `[0, 256)` at two versions, plus ranges no
/// builder makes.
const KEYS: [(u64, u64, u64); 12] = [
    (2, 0, 256),
    (2, 0, 128),
    (2, 128, 128),
    (2, 0, 64),
    (1, 0, 64),
    (1, 0, 128),
    (1, 128, 128),
    (1, 64, 64),
    (3, 0, 64),
    (2, 0, 1),
    (2, 5, 100),
    (1, 0, 256),
];

fn universe_key(at: usize) -> NodeKey {
    let (version, offset, len) = KEYS[at];
    NodeKey::new(
        BlobId::new(1),
        VersionId::new(version),
        ByteRange::new(offset, len),
    )
}

/// `any::<u64>()`, bent toward the values sums overflow at.
fn edgy_u64() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u64..4).prop_map(|(x, k)| match x % 4 {
        0 => k,
        1 => u64::MAX - k,
        2 => x >> 32,
        _ => x,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ranges_decode_exactly_when_a_constructor_would_have_built_them(
        pairs in proptest::collection::vec((edgy_u64(), edgy_u64()), 0..5),
        sort in any::<bool>(),
    ) {
        // `(offset, len)` pairs as a peer may send them, built past the
        // constructors.
        let mut pairs = pairs;
        if sort {
            pairs.sort_unstable();
        }
        let raw: Vec<ByteRange> = pairs
            .iter()
            .map(|&(offset, len)| ByteRange { offset, len })
            .collect();
        let fit = pairs.iter().all(|&(offset, len)| offset.checked_add(len).is_some());
        let normalized = fit && ExtentList::from_pairs(pairs.iter().copied()).ranges() == raw;
        let encoded = |message: &Request| {
            let mut bytes = Vec::new();
            message.encode(&mut bytes);
            bytes
        };

        // Through the provider's door, where each range stands alone…
        let items = raw.iter().map(|&range| (0, ChunkId::new(1), range)).collect();
        let batch = Request::GetChunkRangeBatch { provider: ProviderId::new(0), items };
        let decoded = wire::decode_header::<Request>(&encoded(&batch));
        prop_assert_eq!(decoded.is_ok(), fit);

        // …and the version server's, where they form a list: the sample
        // ticket request with its extent list's ranges swapped for these
        // (tag, blob, then the list's count at byte 9).
        let ticket = encoded(&Request::VmTicket { blob: 4, extents: ExtentList::new(), known: 2 });
        let mut header = ticket[..9].to_vec();
        raw.encode(&mut header);
        header.extend_from_slice(&ticket[13..]);
        let decoded = wire::decode_header::<Request>(&header);
        prop_assert_eq!(decoded.is_ok(), normalized, "{:?}", decoded);
        if let Ok(request) = decoded {
            assert_ranges_are_valid(&request);
        }

        // …and the metadata server's: a rootless resolve (tag, `None`,
        // then the list's count at byte 2).
        let resolve = encoded(&Request::MetaResolve { root: None, extents: ExtentList::new() });
        let mut header = resolve[..2].to_vec();
        raw.encode(&mut header);
        let decoded = wire::decode_header::<Request>(&header);
        prop_assert_eq!(decoded.is_ok(), normalized, "{:?}", decoded);
        if let Ok(request) = decoded {
            assert_ranges_are_valid(&request);
        }
    }

    #[test]
    fn a_resolve_over_any_stored_tree_ends_typed_or_tiles_its_extents(
        bodies in proptest::collection::vec(
            (0usize..KEYS.len(), any::<bool>(), any::<u32>(), 0u64..3),
            1..12,
        ),
        root in 0usize..KEYS.len(),
        pairs in proptest::collection::vec((0u64..300, 1u64..80), 1..4),
    ) {
        // Nodes a peer could have put: any key, either body, links to any
        // key — cycles, self-links and children off their half included.
        let link = |pick: u8| (pick as usize % (KEYS.len() + 1)).checked_sub(1).map(universe_key);
        let nodes: Vec<Node> = bodies
            .iter()
            .map(|&(at, inner, picks, entries)| {
                let picks = picks.to_le_bytes();
                let key = universe_key(at);
                let body = if inner {
                    NodeBody::Inner { left: link(picks[0]), right: link(picks[1]) }
                } else {
                    let entries = (0..entries)
                        .map(|e| LeafEntry {
                            file_range: ByteRange::new(key.range.offset + e * 8, 12),
                            chunk: ChunkId::new(e),
                            chunk_offset: if picks[2] > 200 { u64::MAX - e } else { e },
                            homes: vec![ProviderId::new(0)],
                        })
                        .collect();
                    NodeBody::Leaf { entries, backlink: link(picks[3]) }
                };
                Node { key, body }
            })
            .collect();
        let service = MetaService::new(2);
        // One node per key: the store refuses a second, different one.
        let _ = service.store().put_batch_local(nodes);
        let extents = ExtentList::from_pairs(pairs);
        let request = Request::MetaResolve { root: Some(universe_key(root)), extents: extents.clone() };
        match service.handle(request, Bytes::new()).0 {
            Response::Pieces { pieces } => prop_assert!(check_tiling(&extents, &pieces).is_ok()),
            Response::Fail { error } => prop_assert!(
                matches!(&error, Error::MetadataNodeMissing(_))
                    || matches!(&error, Error::Internal(m) if m.starts_with("malformed tree")),
                "{error:?}"
            ),
            other => prop_assert!(false, "{other:?}"),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_a_reader(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        framed in any::<bool>(),
    ) {
        // Half the cases get a valid version byte, so the frame reader
        // goes on to the lengths instead of stopping at byte 0.
        let mut bytes = bytes;
        if framed && !bytes.is_empty() {
            bytes[0] = crate::PROTOCOL_VERSION;
        }
        read_as_a_peer_would(&bytes);
        // The same bytes as a header inside a well-formed frame.
        let mut frame = vec![crate::PROTOCOL_VERSION];
        frame.extend_from_slice(&9u64.to_be_bytes());
        frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        frame.extend_from_slice(&0u32.to_be_bytes());
        frame.extend_from_slice(&bytes);
        read_as_a_peer_would(&frame);
    }

    #[test]
    fn sample_frames_mutated_at_every_offset_never_panic_a_reader(
        which in any::<usize>(),
        mask in 1u16..256,
    ) {
        let mut frames = sample_frames();
        let (mut frame, _) = frames.swap_remove(which % frames.len());
        for offset in 0..frame.len() {
            frame[offset] ^= mask as u8;
            read_as_a_peer_would(&frame);
            frame[offset] ^= mask as u8;
        }
    }

    #[test]
    fn payload_cursor_checks_every_declared_length(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        lens in proptest::collection::vec((0u64..40, any::<u64>(), any::<bool>()), 0..8),
    ) {
        let payload = Bytes::from(payload);
        let mut cursor = PayloadCursor::new(&payload);
        let mut offset = 0usize;
        for (small, huge, pick_huge) in lens {
            let len = if pick_huge { huge } else { small };
            match cursor.take(len) {
                Ok(part) => {
                    let end = offset + len as usize;
                    prop_assert_eq!(part.as_ref(), &payload[offset..end]);
                    offset = end;
                }
                Err(e) => {
                    prop_assert!(len > (payload.len() - offset) as u64, "refused {len} at {offset}");
                    let typed = matches!(
                        e,
                        Error::Transport { kind: TransportErrorKind::Protocol, .. }
                    );
                    prop_assert!(typed, "got {e:?}");
                }
            }
        }
        prop_assert_eq!(cursor.finish().is_ok(), offset == payload.len());
    }
}

#[test]
fn the_heap_bound_is_what_its_largest_chain_says() {
    // Pins the constant the argument above yields on this target, so a
    // layout change that moves it is seen: `Result<Node, Error>` in a
    // `NodeGets` reply, then its leaf descriptors and their homes.
    let per_byte = heap_per_input_byte();
    assert!((30.0..=64.0).contains(&per_byte), "{per_byte}");
}
