//! Bytes from the network cannot panic a peer, and cannot make it hold
//! more memory than a constant multiple of what they are.
//!
//! Arbitrary byte strings, and the frame of every sample message in
//! [`crate::samples`] truncated and mutated at every offset, go through
//! everything that reads a peer's bytes: [`wire::read_frame`],
//! [`wire::decode_value`], the derived `from_value` of [`Request`] and
//! [`Response`], and [`PayloadCursor`]. Frames carry no checksum, so a
//! mutated frame that still parses does reach the derived decoders. Each
//! step must end in a typed error or in a value that encodes again, with
//! the thread's peak heap use — counted by this test binary's allocator —
//! inside a budget ([`metered`]). And a range or an extent list that
//! decodes at all is one its constructors would have built
//! ([`assert_ranges_are_valid`]): the services do arithmetic on them.

use crate::proto::{Request, Response};
use crate::samples;
use crate::wire::{self, PayloadCursor};
use atomio_types::{ByteRange, ChunkId, Error, ExtentList, ProviderId, TransportErrorKind};
use bytes::Bytes;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Runs `read` over `input` and holds its peak heap use to
/// `256 × input + reserve + 64 KiB`. The multiple: a one-byte null
/// decodes to a 32-byte [`Value`], a `Vec` doubles, a moving `realloc`
/// holds two blocks, and the typed message is built while the tree is
/// alive. `reserve` is what the reader may take on a declared length
/// alone; the 64 KiB are error strings and the like. What it catches: a
/// reader that trusts declarations holds 32 bytes per *declared* item —
/// 480 MB for a 15 MB header — and 272 MiB for a 17-byte frame prefix.
fn metered(input: &[u8], reserve: usize, read: impl FnOnce()) {
    let ((), peak) = peak_during(read);
    assert!(
        peak <= 256 * input.len() + reserve + (64 << 10),
        "reading {} bytes held {peak} bytes of heap",
        input.len()
    );
}

fn encode(value: &Value) -> Vec<u8> {
    let mut bytes = Vec::new();
    wire::encode_value(value, &mut bytes);
    bytes
}

/// A decoded value encodes again, to bytes that decode to the same
/// encoding (byte-compared: a NaN is not equal to itself, and a bool
/// byte of 2 reads as `true` but is written back as 1).
fn assert_reencodes(value: &Value) {
    let bytes = encode(value);
    let again = wire::decode_value(&bytes).expect("an encoded value decodes");
    assert_eq!(encode(&again), bytes);
}

/// A header that parsed as a message yields a message that survives its
/// own round trip (and is returned); one that did not is a `DeError`,
/// which is all `from_value` can return besides.
fn assert_message_reencodes<T>(header: &Value) -> Option<T>
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let message = T::from_value(header).ok()?;
    let again = wire::decode_value(&encode(&message.to_value())).unwrap();
    assert_eq!(T::from_value(&again).as_ref(), Ok(&message));
    Some(message)
}

/// The ranges of a request that decoded hold what `ByteRange::new` and
/// `ExtentList::from_ranges` guarantee — no frame gets past their
/// hand-written `Deserialize` impls with an end that overflows or a list
/// that is not normalized.
fn assert_ranges_are_valid(request: &Request) {
    let fits = |range: &ByteRange| range.offset.checked_add(range.len).is_some();
    match request {
        Request::VmTicket { extents, .. } => {
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

/// Everything a peer's `bytes` meet on the way in: as a bare header, and
/// as a frame, whose reader may reserve 1 MiB on a declared length.
fn read_as_a_peer_would(bytes: &[u8]) {
    metered(bytes, 0, || {
        if let Ok(value) = wire::decode_value(bytes) {
            assert_reencodes(&value);
        }
    });
    metered(bytes, 1 << 20, || {
        if let Ok((_, header, payload, read)) = wire::read_frame(&mut &bytes[..]) {
            assert!(read as usize <= bytes.len() && payload.len() <= bytes.len());
            assert_reencodes(&header);
            if let Some(request) = assert_message_reencodes::<Request>(&header) {
                assert_ranges_are_valid(&request);
            }
            assert_message_reencodes::<Response>(&header);
        }
    });
}

const PAYLOAD: &[u8] = b"payload bytes";

/// One whole frame per sample message, with [`PAYLOAD`] behind it.
fn sample_frames() -> Vec<Vec<u8>> {
    samples::headers()
        .iter()
        .map(|header| {
            let mut frame = Vec::new();
            wire::write_frame(&mut frame, 7, header, PAYLOAD).unwrap();
            frame
        })
        .collect()
}

#[test]
fn every_sample_frame_reads_back_whole_and_fails_typed_when_cut_anywhere() {
    for frame in sample_frames() {
        read_as_a_peer_would(&frame);
        let (_, _, payload, read) = wire::read_frame(&mut &frame[..]).unwrap();
        assert_eq!(payload.as_ref(), PAYLOAD);
        assert_eq!(read as usize, frame.len());
        for cut in 0..frame.len() {
            let err = wire::read_frame(&mut &frame[..cut]).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
            read_as_a_peer_would(&frame[..cut]);
        }
        // And the header alone, cut anywhere, is a malformed value.
        let header = &frame[wire::FRAME_PREFIX_BYTES as usize..frame.len() - PAYLOAD.len()];
        assert!(wire::decode_value(header).is_ok());
        for cut in 0..header.len() {
            let err = wire::decode_value(&header[..cut]).unwrap_err();
            assert!(
                err.to_string().starts_with("malformed frame"),
                "cut at {cut}"
            );
        }
    }
}

#[test]
fn a_declared_count_reserves_no_more_than_the_cap() {
    // 15 M items declared, 15 MB behind the count so it passes for
    // plausible, and the first item already garbage.
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

        // Through the provider's door, where each range stands alone…
        let items = raw.iter().map(|&range| (0, ChunkId::new(1), range)).collect();
        let batch = Request::GetChunkRangeBatch { provider: ProviderId::new(0), items };
        prop_assert_eq!(Request::from_value(&batch.to_value()).is_ok(), fit);

        // …and the version server's, where they form a list: the sample
        // ticket request with its `ranges` swapped for these.
        let ticket = Request::VmTicket { blob: 4, extents: ExtentList::new(), known: 2 };
        let mut header = ticket.to_value();
        let Value::Object(fields) = &mut header else {
            panic!("a request encodes as an object");
        };
        let extents = fields.iter_mut().find(|(name, _)| name == "extents").unwrap();
        extents.1 = Value::Object(vec![("ranges".into(), raw.to_value())]);
        let decoded = Request::from_value(&header);
        prop_assert_eq!(decoded.is_ok(), normalized, "{:?}", decoded);
        if let Ok(request) = decoded {
            assert_ranges_are_valid(&request);
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
        let mut frame = frames.swap_remove(which % frames.len());
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
