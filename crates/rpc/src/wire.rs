//! Frame format and the header codec.
//!
//! Every RPC message is one frame (the layout protocol v2 introduced):
//!
//! ```text
//! +---------+-------------+-------------+--------------+---------------------+------------------+
//! | version | request_id  | header_len  | payload_len  | header bytes        | payload bytes    |
//! | u8      | u64 BE      | u32 BE      | u32 BE       | (positional, binary)| (raw, untyped)   |
//! +---------+-------------+-------------+--------------+---------------------+------------------+
//! ```
//!
//! The leading byte is [`crate::proto::PROTOCOL_VERSION`]; a frame
//! carrying any other value is rejected before a single header byte is
//! decoded, so mismatched peers fail with a typed version error instead
//! of garbage. The `request_id` tags the call so responses can be
//! demultiplexed out of order on a shared connection: a server answers
//! with the id of the request it is answering, and ordering is
//! guaranteed **per id**, never per connection.
//!
//! The header is the request or response (see [`crate::proto`]) in the
//! positional binary codec the `Encode` / `Decode` derives generate —
//! encoded in place into the frame buffer (`append_frame_head`), and
//! decoded by the receiver straight from the frame's bytes. Chunk
//! payloads travel **out of band** in the payload section, never through
//! the header.
//!
//! ## Header layout (protocol v4 and on)
//!
//! No tags per value and no field names: the message type says what
//! comes next, field by field in declaration order.
//!
//! | shape                          | bytes                                   |
//! |--------------------------------|-----------------------------------------|
//! | message (`Request`/`Response`) | variant index `u8` + its fields         |
//! | struct, tuple                  | the fields in order                     |
//! | id newtype (`ChunkId`, …)      | the inner `u64`                         |
//! | `u16` / `u64` / `usize`        | 2 / 8 / 8 bytes, little-endian          |
//! | `bool`                         | one byte, 0 or 1                        |
//! | `String`                       | `u32` LE length + UTF-8                 |
//! | `Vec<T>`                       | `u32` LE count + the items              |
//! | `Option<T>`                    | `u8` 0 (`None`) or 1 + `T`              |
//! | `Result<T, E>`                 | `u8` 0 + `T` (`Ok`) or 1 + `E` (`Err`)  |
//!
//! ## What a peer's bytes can cost
//!
//! Every number in a frame is the peer's claim, so the reader bounds each
//! one before acting on it: the two section lengths
//! ([`MAX_HEADER_BYTES`], [`MAX_PAYLOAD_BYTES`]); every declared count,
//! refused unless the header bytes left could hold that many items at the
//! item type's smallest encoding; and memory — a `Vec` reserves room for
//! at most 4096 items, and a frame section for at most
//! `MAX_PREALLOC_BYTES`, ahead of the bytes that have actually arrived.
//! There is no depth guard: decoding is type-directed and no protocol
//! type is recursive, so no input can make the decoder nest deeper than
//! the message types do. A violation of the framing is the typed
//! `malformed frame` error, which closes the offending connection and
//! nothing else; a header that does not decode fails its one call.
//!
//! ## The value codec
//!
//! [`encode_value`], [`decode_value`], [`write_frame`] and [`read_frame`]
//! frame a self-describing `serde::Value` tree instead. No product path
//! calls them: they are kept, depth and pre-allocation guards included,
//! only for the frozen wall-clock benchmark's probes (ROADMAP item 1c).

use crate::proto::PROTOCOL_VERSION;
use bytes::Bytes;
use serde::{Decode, Encode, Value};
use std::io::{self, IoSlice, Read, Write};

/// Upper bound on an encoded header (a request/response).
pub use atomio_types::MAX_HEADER_BYTES;
/// Upper bound on a frame payload (chunk data).
pub const MAX_PAYLOAD_BYTES: u32 = 256 << 20;
/// Fixed frame prefix: version (1) + request id (8) + two lengths (4+4).
pub const FRAME_PREFIX_BYTES: u64 = 17;
/// Deepest container nesting [`decode_value`] follows: four times the
/// deepest request, and 28 levels of its recursion are a few KiB of
/// stack.
const MAX_DEPTH: usize = 28;
/// Most bytes [`read_frame`] reserves for a section on its declared
/// length alone; past that the buffer doubles as bytes actually arrive.
/// The data plane's own frame budget, so every frame its batching forms
/// is still read into one exact allocation.
const MAX_PREALLOC_BYTES: usize = crate::client::BATCH_FRAME_BYTES;

fn malformed(detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {detail}"),
    )
}

/// Decodes a whole header: exactly one `T`, every byte consumed.
pub(crate) fn decode_header<T: Decode>(header: &[u8]) -> io::Result<T> {
    serde::decode_exact(header).map_err(|e| malformed(&e.to_string()))
}

/// The error a frame from a peer speaking a different protocol version
/// produces. Mapped to `TransportErrorKind::VersionMismatch` by the
/// transports ([`io::ErrorKind::Unsupported`] marks it).
fn version_mismatch(peer: u8) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!(
            "protocol version mismatch: peer speaks v{peer}, this build speaks v{PROTOCOL_VERSION}"
        ),
    )
}

/// The one coalescing threshold, for requests and responses alike.
/// Payloads up to this size are copied into the prefix+header buffer so
/// the whole frame leaves in ONE `write` call — with `TCP_NODELAY` every
/// write is a packet, and per-syscall cost dominates small frames.
/// Larger payloads leave as one gathered write of the sender's own
/// buffers: a copy of them costs more than the syscall it saves, and a
/// second copy per in-flight frame is what a small server's resident set
/// is made of. The server's reactor uses the same bound the other way
/// round: complete frames adding up to this much are handed over as
/// slices of the buffer they were read into, smaller ones are copied
/// out.
pub(crate) const COALESCE_PAYLOAD_BYTES: usize = 64 * 1024;

/// Appends one whole frame to `out` — what a writer whose sink *is* a
/// byte buffer (a response burst, a write queue, the loopback) calls, so
/// the frame is encoded in place instead of built aside and copied in.
/// Returns the frame's wire size; `out` is left as it was on error.
pub(crate) fn append_frame(
    out: &mut Vec<u8>,
    request_id: u64,
    header: &impl Encode,
    parts: &[&[u8]],
) -> io::Result<u64> {
    let payload_len: usize = parts.iter().map(|p| p.len()).sum();
    let head_bytes = append_frame_head(out, request_id, header, payload_len)?;
    out.reserve(payload_len);
    for part in parts {
        out.extend_from_slice(part);
    }
    Ok(head_bytes + payload_len as u64)
}

/// Appends the prefix and header of a frame whose payload will be
/// `payload_len` bytes, encoding the header in place. Returns the bytes
/// appended; `out` is left as it was on error.
pub(crate) fn append_frame_head(
    out: &mut Vec<u8>,
    request_id: u64,
    header: &impl Encode,
    payload_len: usize,
) -> io::Result<u64> {
    append_head_with(out, request_id, payload_len, |out| header.encode(out))
}

/// [`append_frame_head`] for a header `encode` writes, enforcing both
/// size limits.
fn append_head_with(
    out: &mut Vec<u8>,
    request_id: u64,
    payload_len: usize,
    encode: impl FnOnce(&mut Vec<u8>),
) -> io::Result<u64> {
    if payload_len as u64 > MAX_PAYLOAD_BYTES as u64 {
        return Err(malformed("payload too large"));
    }
    let start = out.len();
    out.reserve(FRAME_PREFIX_BYTES as usize + 128);
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&[0u8; 8]); // head_len + payload_len, patched below
    encode(out);
    let head_len = out.len() - start - FRAME_PREFIX_BYTES as usize;
    if head_len as u64 > MAX_HEADER_BYTES as u64 {
        out.truncate(start);
        return Err(malformed("header too large"));
    }
    out[start + 9..start + 13].copy_from_slice(&(head_len as u32).to_be_bytes());
    out[start + 13..start + 17].copy_from_slice(&(payload_len as u32).to_be_bytes());
    Ok(FRAME_PREFIX_BYTES + head_len as u64)
}

/// A payload held in parts, as the plain slices the frame writers take.
pub(crate) fn as_slices(parts: &[Bytes]) -> Vec<&[u8]> {
    parts.iter().map(|part| part.as_ref()).collect()
}

/// `write_all` over `head` followed by every part, as gathered writes
/// (`writev` on a socket): no buffer is copied, and a short write
/// resumes where it stopped.
pub(crate) fn write_all_gathered(
    w: &mut impl Write,
    head: &[u8],
    parts: &[&[u8]],
) -> io::Result<()> {
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(head)
        .chain(parts.iter().copied())
        .filter(|part| !part.is_empty())
        .map(IoSlice::new)
        .collect();
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Walks the payload of a batch frame item by item. The lengths come
/// off the wire, so every step is checked: lengths that overrun (or
/// overflow past) the payload, or leave bytes unclaimed, are a typed
/// protocol error — never a slice panic.
pub(crate) struct PayloadCursor<'a> {
    payload: &'a Bytes,
    offset: usize,
}

impl<'a> PayloadCursor<'a> {
    pub(crate) fn new(payload: &'a Bytes) -> Self {
        PayloadCursor { payload, offset: 0 }
    }

    /// The next `len` payload bytes (a zero-copy slice).
    pub(crate) fn take(&mut self, len: u64) -> atomio_types::Result<Bytes> {
        let end = usize::try_from(len)
            .ok()
            .and_then(|len| self.offset.checked_add(len))
            .filter(|&end| end <= self.payload.len())
            .ok_or_else(|| self.mismatch(format!("an item of {len} bytes")))?;
        let part = self.payload.slice(self.offset..end);
        self.offset = end;
        Ok(part)
    }

    /// Succeeds when the items claimed the payload exactly.
    pub(crate) fn finish(self) -> atomio_types::Result<()> {
        if self.offset == self.payload.len() {
            Ok(())
        } else {
            Err(self.mismatch("nothing more".to_string()))
        }
    }

    fn mismatch(&self, declared: String) -> atomio_types::Error {
        atomio_types::Error::Transport {
            kind: atomio_types::TransportErrorKind::Protocol,
            detail: format!(
                "batch declares {declared} at payload offset {}, frame carries {} bytes",
                self.offset,
                self.payload.len()
            ),
        }
    }
}

/// One frame off the wire, its header not yet decoded.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The request id the frame carries.
    pub(crate) id: u64,
    /// The encoded header (decode with [`decode_header`]).
    pub(crate) header: Bytes,
    /// The out-of-band payload.
    pub(crate) payload: Bytes,
    /// Prefix, header and payload bytes together.
    pub(crate) wire_bytes: u64,
}

impl Frame {
    /// The sections of `frame`, one whole frame whose prefix
    /// [`parse_prefix`] already read as `id` and a `head_len`-byte header
    /// (zero-copy).
    pub(crate) fn from_parts(frame: Bytes, id: u64, head_len: usize) -> Frame {
        let prefix = FRAME_PREFIX_BYTES as usize;
        Frame {
            id,
            header: frame.slice(prefix..prefix + head_len),
            payload: frame.slice(prefix + head_len..),
            wire_bytes: frame.len() as u64,
        }
    }
}

/// The request id and section lengths of a frame prefix, refused when
/// the version is not this build's or a length passes its limit.
pub(crate) fn parse_prefix(prefix: &[u8]) -> io::Result<(u64, usize, usize)> {
    if prefix[0] != PROTOCOL_VERSION {
        return Err(version_mismatch(prefix[0]));
    }
    let field = |at: usize| u32::from_be_bytes(prefix[at..at + 4].try_into().expect("4 bytes"));
    let request_id = u64::from_be_bytes(prefix[1..9].try_into().expect("8 bytes"));
    let (head_len, payload_len) = (field(9), field(13));
    if head_len > MAX_HEADER_BYTES {
        return Err(malformed("header length exceeds limit"));
    }
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(malformed("payload length exceeds limit"));
    }
    Ok((request_id, head_len as usize, payload_len as usize))
}

/// Cuts a whole frame held in one buffer into its sections (zero-copy).
/// `frame` must be exactly one frame.
pub(crate) fn split_frame(frame: Bytes) -> io::Result<Frame> {
    let prefix = FRAME_PREFIX_BYTES as usize;
    if frame.len() < prefix {
        return Err(malformed("truncated prefix"));
    }
    let (id, head_len, payload_len) = parse_prefix(&frame[..prefix])?;
    if frame.len() != prefix + head_len + payload_len {
        return Err(malformed("frame length disagrees with its prefix"));
    }
    Ok(Frame::from_parts(frame, id, head_len))
}

/// Reads `len` bytes. Up to [`MAX_PREALLOC_BYTES`] is one exact
/// allocation; more doubles as its bytes arrive, so a prefix declaring
/// 256 MiB and then going silent holds 1 MiB, not 256.
fn read_section(r: &mut impl Read, len: usize) -> io::Result<Vec<u8>> {
    let mut section = vec![0u8; len.min(MAX_PREALLOC_BYTES)];
    r.read_exact(&mut section)?;
    while section.len() < len {
        let filled = section.len();
        section.resize(len.min(2 * filled), 0);
        r.read_exact(&mut section[filled..])?;
    }
    Ok(section)
}

/// Reads one frame, header and payload into one buffer.
pub(crate) fn read_frame_bytes(r: &mut impl Read) -> io::Result<Frame> {
    let mut prefix = [0u8; FRAME_PREFIX_BYTES as usize];
    r.read_exact(&mut prefix)?;
    let (id, head_len, payload_len) = parse_prefix(&prefix)?;
    let body = Bytes::from(read_section(r, head_len + payload_len)?);
    Ok(Frame {
        id,
        header: body.slice(..head_len),
        payload: body.slice(head_len..),
        wire_bytes: FRAME_PREFIX_BYTES + (head_len + payload_len) as u64,
    })
}

// ---------------------------------------------------------------------
// The value codec: benchmark probes only (ROADMAP item 1c).
// ---------------------------------------------------------------------

/// Encodes a value tree into `out`: one tag byte per node (0 null, 1
/// bool, 2 uint, 3 int, 4 float, 5 string, 6 array, 7 object),
/// little-endian scalars, `u32`-prefixed strings and containers.
/// Benchmark-only, see ROADMAP item 1c: no product frame carries a tree.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(u8::from(*b));
        }
        Value::UInt(n) => {
            out.push(2);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Int(n) => {
            out.push(3);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(4);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(5);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(6);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(7);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (key, val) in fields {
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

/// Decodes one value tree from `buf` (must consume it exactly), nesting
/// at most `MAX_DEPTH` containers. Benchmark-only, see ROADMAP item 1c.
pub fn decode_value(buf: &[u8]) -> io::Result<Value> {
    let mut cursor = Cursor { buf, pos: 0 };
    let v = cursor.value(MAX_DEPTH)?;
    if cursor.pos != buf.len() {
        return Err(malformed("trailing bytes after value"));
    }
    Ok(v)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> io::Result<&[u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| malformed("truncated"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> io::Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| malformed("invalid utf-8"))
    }

    /// The declared item count of a container that may nest `depth` more
    /// levels, and the capacity to start it with. Every item is at least
    /// one byte, so a count past the bytes left is a lie.
    fn container(&mut self, depth: usize) -> io::Result<(usize, usize)> {
        if depth == 0 {
            return Err(malformed("nested too deep"));
        }
        let count = self.u32()? as usize;
        if count > self.buf.len() - self.pos {
            return Err(malformed("container count exceeds frame"));
        }
        Ok((count, count.min(serde::codec::MAX_PREALLOC_ITEMS)))
    }

    /// Decodes one value whose containers may nest `depth` levels.
    fn value(&mut self, depth: usize) -> io::Result<Value> {
        match self.take(1)?[0] {
            0 => Ok(Value::Null),
            1 => Ok(Value::Bool(self.take(1)?[0] != 0)),
            2 => Ok(Value::UInt(self.u64()?)),
            3 => Ok(Value::Int(self.u64()? as i64)),
            4 => Ok(Value::Float(f64::from_bits(self.u64()?))),
            5 => Ok(Value::Str(self.string()?)),
            6 => {
                let (count, reserve) = self.container(depth)?;
                let mut items = Vec::with_capacity(reserve);
                for _ in 0..count {
                    items.push(self.value(depth - 1)?);
                }
                Ok(Value::Array(items))
            }
            7 => {
                let (count, reserve) = self.container(depth)?;
                let mut fields = Vec::with_capacity(reserve);
                for _ in 0..count {
                    let key = self.string()?;
                    let val = self.value(depth - 1)?;
                    fields.push((key, val));
                }
                Ok(Value::Object(fields))
            }
            tag => Err(malformed(&format!("unknown value tag {tag}"))),
        }
    }
}

/// Writes one frame whose header is a value tree, tagged with
/// `request_id`; returns the bytes put on the wire. A payload of up to
/// `COALESCE_PAYLOAD_BYTES` leaves in the same single `write` as the
/// head. Benchmark-only, see ROADMAP item 1c.
pub fn write_frame(
    w: &mut impl Write,
    request_id: u64,
    header: &Value,
    payload: &[u8],
) -> io::Result<u64> {
    let mut buf = Vec::new();
    let head_bytes = append_head_with(&mut buf, request_id, payload.len(), |out| {
        encode_value(header, out)
    })?;
    if payload.len() <= COALESCE_PAYLOAD_BYTES {
        buf.extend_from_slice(payload);
        w.write_all(&buf)?;
    } else {
        write_all_gathered(w, &buf, &[payload])?;
    }
    w.flush()?;
    Ok(head_bytes + payload.len() as u64)
}

/// Reads one frame whose header is a value tree. Returns `(request_id,
/// header, payload, bytes_read)`. Benchmark-only, see ROADMAP item 1c.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u64, Value, Bytes, u64)> {
    let frame = read_frame_bytes(r)?;
    let header = decode_value(&frame.header)?;
    Ok((frame.id, header, frame.payload, frame.wire_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Request;

    fn roundtrip(v: &Value) {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        assert_eq!(&decode_value(&buf).unwrap(), v);
    }

    #[test]
    fn values_roundtrip() {
        roundtrip(&Value::Null);
        roundtrip(&Value::Bool(true));
        roundtrip(&Value::Bool(false));
        roundtrip(&Value::UInt(0));
        roundtrip(&Value::UInt(u64::MAX));
        roundtrip(&Value::Int(-42));
        roundtrip(&Value::Float(3.5));
        roundtrip(&Value::Str(String::new()));
        roundtrip(&Value::Str("héllo".into()));
        roundtrip(&Value::Array(vec![Value::UInt(1), Value::Null]));
        roundtrip(&Value::Object(vec![
            ("a".into(), Value::UInt(7)),
            (
                "nested".into(),
                Value::Object(vec![("b".into(), Value::Array(vec![]))]),
            ),
        ]));
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let header = Value::Object(vec![("t".into(), Value::Str("Ping".into()))]);
        let payload = b"raw chunk bytes";
        let mut wire = Vec::new();
        let wrote = write_frame(&mut wire, 0xDEAD_BEEF, &header, payload).unwrap();
        assert_eq!(wrote as usize, wire.len());
        assert_eq!(wire[0], PROTOCOL_VERSION);
        let (id, back, body, read) = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(id, 0xDEAD_BEEF);
        assert_eq!(back, header);
        assert_eq!(body.as_ref(), payload);
        assert_eq!(read, wrote);
    }

    #[test]
    fn typed_frames_roundtrip_read_and_split() {
        let request = Request::VmLatest { blob: 9 };
        let mut wire = Vec::new();
        let wrote = append_frame(&mut wire, 42, &request, &[b"ab", b"cd"]).unwrap();
        assert_eq!(wrote as usize, wire.len());
        let read = read_frame_bytes(&mut wire.as_slice()).unwrap();
        let split = split_frame(Bytes::from(wire.clone())).unwrap();
        for frame in [read, split] {
            assert_eq!((frame.id, frame.wire_bytes), (42, wrote));
            assert_eq!(decode_header::<Request>(&frame.header).unwrap(), request);
            assert_eq!(frame.payload.as_ref(), b"abcd");
        }
        // A buffer that is not exactly one frame does not split.
        wire.push(0);
        assert!(split_frame(Bytes::from(wire)).is_err());
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panicked() {
        // Truncated value.
        assert!(decode_value(&[5, 10, 0, 0, 0, b'a']).is_err());
        // Unknown tag.
        assert!(decode_value(&[9]).is_err());
        // Trailing garbage.
        assert!(decode_value(&[0, 0]).is_err());
        // Absurd container count.
        assert!(decode_value(&[6, 255, 255, 255, 255]).is_err());
        // Nesting no message has — at any depth past the cap, including
        // one that would overflow the stack of an unbounded recursion.
        for depth in [MAX_DEPTH + 1, 20_000, 1_000_000] {
            let err = decode_value(&crate::samples::nested_arrays(depth)).unwrap_err();
            assert!(err.to_string().contains("malformed frame: nested too deep"));
        }
        assert!(decode_value(&crate::samples::nested_arrays(MAX_DEPTH)).is_ok());
        // Oversized declared header length.
        let mut wire = vec![PROTOCOL_VERSION];
        wire.extend_from_slice(&0u64.to_be_bytes());
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        wire.extend_from_slice(&0u32.to_be_bytes());
        assert!(read_frame_bytes(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn every_request_tree_nests_well_under_the_depth_cap() {
        use serde::Serialize;
        fn depth(v: &Value) -> usize {
            match v {
                Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Value::Object(fields) => 1 + fields.iter().map(|f| depth(&f.1)).max().unwrap_or(0),
                _ => 0,
            }
        }
        let deepest = crate::samples::requests()
            .iter()
            .map(|r| depth(&r.to_value()))
            .max();
        assert_eq!(deepest, Some(MAX_DEPTH / 4), "revisit MAX_DEPTH's slack");
    }

    #[test]
    fn a_v8_frame_is_rejected_before_decoding() {
        // A whole v8 `Ping`: its header is the one tag byte 0.
        let mut v8 = vec![8u8];
        v8.extend_from_slice(&7u64.to_be_bytes());
        v8.extend_from_slice(&1u32.to_be_bytes());
        v8.extend_from_slice(&0u32.to_be_bytes());
        v8.push(0);
        let read = read_frame_bytes(&mut v8.as_slice()).unwrap_err();
        let split = split_frame(Bytes::from(v8)).unwrap_err();
        for err in [read, split] {
            assert_eq!(err.kind(), io::ErrorKind::Unsupported);
            assert!(
                err.to_string()
                    .contains("peer speaks v8, this build speaks v9"),
                "{err}"
            );
        }
    }
}
