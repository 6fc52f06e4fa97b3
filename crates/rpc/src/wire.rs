//! Frame format and the binary [`Value`] codec.
//!
//! Every RPC message is one frame (the layout protocol v2 introduced):
//!
//! ```text
//! +---------+-------------+-------------+--------------+------------------+------------------+
//! | version | request_id  | header_len  | payload_len  | header bytes     | payload bytes    |
//! | u8      | u64 BE      | u32 BE      | u32 BE       | (Value, binary)  | (raw, untyped)   |
//! +---------+-------------+-------------+--------------+------------------+------------------+
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
//! The header is a [`Value`] tree (the request or response, see
//! [`crate::proto`]) in the binary encoding below. Chunk payloads travel
//! **out of band** in the payload section: the value model has no bytes
//! variant, and copying megabytes through a structured tree would be
//! wasteful anyway.
//!
//! ## Binary `Value` encoding
//!
//! One tag byte per node, little-endian fixed-width scalars,
//! `u32`-length-prefixed strings and containers:
//!
//! | tag | variant | body                                     |
//! |-----|---------|------------------------------------------|
//! | 0   | Null    | —                                        |
//! | 1   | Bool    | u8 (0/1)                                 |
//! | 2   | UInt    | u64 LE                                   |
//! | 3   | Int     | i64 LE                                   |
//! | 4   | Float   | f64 LE bits                              |
//! | 5   | Str     | u32 LE len + UTF-8 bytes                 |
//! | 6   | Array   | u32 LE count + encoded items             |
//! | 7   | Object  | u32 LE count + (Str key, value) pairs    |
//!
//! ## What a peer's bytes can cost
//!
//! Every number in a frame is the peer's claim, so the reader bounds each
//! one before acting on it: the two section lengths
//! ([`MAX_HEADER_BYTES`], [`MAX_PAYLOAD_BYTES`]), the container nesting
//! of the header (`MAX_DEPTH` levels — recursion is per level, and the
//! decode runs on a server's one reactor thread), and memory — a
//! container or a frame section reserves room for at most
//! `MAX_PREALLOC_ITEMS` items / `MAX_PREALLOC_BYTES` bytes ahead of the
//! bytes that have actually arrived, and grows with them from there. A
//! violation is the typed `malformed frame` error, which closes the
//! offending connection and nothing else.

use crate::proto::PROTOCOL_VERSION;
use bytes::Bytes;
use serde::Value;
use std::io::{self, IoSlice, Read, Write};

/// Upper bound on an encoded header (a request/response tree).
pub const MAX_HEADER_BYTES: u32 = 16 << 20;
/// Upper bound on a frame payload (chunk data).
pub const MAX_PAYLOAD_BYTES: u32 = 256 << 20;
/// Fixed frame prefix: version (1) + request id (8) + two lengths (4+4).
pub const FRAME_PREFIX_BYTES: u64 = 17;
/// Deepest container nesting [`decode_value`] follows. The deepest
/// messages of the protocol — `NodeGets` → results → result → node →
/// body → entries → entry → range — nest 8 containers (a test holds
/// every sample message to a quarter of the cap); 32 levels of this
/// recursion are a few KiB of stack.
const MAX_DEPTH: usize = 32;
/// Most items a container reserves room for on its declared count alone;
/// past that it grows as items actually decode.
const MAX_PREALLOC_ITEMS: usize = 4096;
/// Most bytes [`read_frame`] reserves for a section on its declared
/// length alone; past that the buffer doubles as bytes actually arrive.
/// The data plane's own frame budget, so every frame its batching forms
/// is still read into one exact allocation.
const MAX_PREALLOC_BYTES: usize = crate::client::BATCH_FRAME_BYTES;

/// Encodes a value tree into `out`.
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

/// Decodes one value tree from `buf` (must consume it exactly).
pub fn decode_value(buf: &[u8]) -> io::Result<Value> {
    let mut cursor = Cursor { buf, pos: 0 };
    let v = cursor.value(MAX_DEPTH)?;
    if cursor.pos != buf.len() {
        return Err(malformed("trailing bytes after value"));
    }
    Ok(v)
}

fn malformed(detail: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed frame: {detail}"),
    )
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
        Ok((count, count.min(MAX_PREALLOC_ITEMS)))
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

/// Payloads up to this size are coalesced into the prefix+header buffer
/// so the whole frame leaves in ONE `write` call — with `TCP_NODELAY`
/// every write is a packet, and per-syscall cost dominates small frames.
/// Larger payloads leave as one gathered write of the caller's own
/// buffers, to avoid the copy.
pub(crate) const COALESCE_PAYLOAD_BYTES: usize = 256 * 1024;

/// Writes one frame tagged with `request_id`. Returns the number of
/// bytes put on the wire. Small frames are emitted in a single `write`
/// call (see [`COALESCE_PAYLOAD_BYTES`]).
pub fn write_frame(
    w: &mut impl Write,
    request_id: u64,
    header: &Value,
    payload: &[u8],
) -> io::Result<u64> {
    write_frame_parts(w, request_id, header, &[payload])
}

/// [`write_frame`] for a payload that is the concatenation of `parts` —
/// a batch of chunks, each in its own buffer. The parts are never joined
/// into an intermediate payload: a small frame copies them once into the
/// single write buffer, a large one gathers them straight off the
/// caller's buffers.
pub fn write_frame_parts(
    w: &mut impl Write,
    request_id: u64,
    header: &Value,
    parts: &[&[u8]],
) -> io::Result<u64> {
    let payload_len: usize = parts.iter().map(|p| p.len()).sum();
    let mut buf = Vec::new();
    let wire_bytes = if payload_len <= COALESCE_PAYLOAD_BYTES {
        let wire_bytes = append_frame(&mut buf, request_id, header, parts)?;
        w.write_all(&buf)?;
        wire_bytes
    } else {
        let head_bytes = append_frame_head(&mut buf, request_id, header, payload_len)?;
        write_all_gathered(w, &buf, parts)?;
        head_bytes + payload_len as u64
    };
    w.flush()?;
    Ok(wire_bytes)
}

/// Appends one whole frame to `out` — what a writer whose sink *is* a
/// byte buffer (a response burst, a write queue, the loopback) calls, so
/// the frame is encoded in place instead of built aside and copied in.
/// Returns the frame's wire size; `out` is left as it was on error.
pub(crate) fn append_frame(
    out: &mut Vec<u8>,
    request_id: u64,
    header: &Value,
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
/// `payload_len` bytes, enforcing both size limits. Returns the bytes
/// appended; `out` is left as it was on error.
pub(crate) fn append_frame_head(
    out: &mut Vec<u8>,
    request_id: u64,
    header: &Value,
    payload_len: usize,
) -> io::Result<u64> {
    if payload_len as u64 > MAX_PAYLOAD_BYTES as u64 {
        return Err(malformed("payload too large"));
    }
    let start = out.len();
    out.reserve(FRAME_PREFIX_BYTES as usize + 128);
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&[0u8; 8]); // head_len + payload_len, patched below
    encode_value(header, out);
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

/// Reads the `len` bytes of a frame section. A section of up to
/// [`MAX_PREALLOC_BYTES`] is one exact allocation; a longer one doubles
/// as its bytes arrive, so a prefix declaring 256 MiB and then going
/// silent holds 1 MiB, not 256.
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

/// Reads one frame. Returns `(request_id, header, payload, bytes_read)`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u64, Value, Bytes, u64)> {
    let mut prefix = [0u8; FRAME_PREFIX_BYTES as usize];
    r.read_exact(&mut prefix)?;
    if prefix[0] != PROTOCOL_VERSION {
        return Err(version_mismatch(prefix[0]));
    }
    let request_id = u64::from_be_bytes(prefix[1..9].try_into().unwrap());
    let head_len = u32::from_be_bytes(prefix[9..13].try_into().unwrap());
    let payload_len = u32::from_be_bytes(prefix[13..].try_into().unwrap());
    if head_len > MAX_HEADER_BYTES {
        return Err(malformed("header length exceeds limit"));
    }
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(malformed("payload length exceeds limit"));
    }
    let head = read_section(r, head_len as usize)?;
    let payload = read_section(r, payload_len as usize)?;
    let header = decode_value(&head)?;
    Ok((
        request_id,
        header,
        Bytes::from(payload),
        FRAME_PREFIX_BYTES + head_len as u64 + payload_len as u64,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    #[test]
    fn every_message_nests_well_under_the_depth_cap() {
        fn depth(v: &Value) -> usize {
            match v {
                Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Value::Object(fields) => 1 + fields.iter().map(|f| depth(&f.1)).max().unwrap_or(0),
                _ => 0,
            }
        }
        let deepest = crate::samples::headers().iter().map(depth).max();
        assert_eq!(deepest, Some(MAX_DEPTH / 4), "revisit MAX_DEPTH's slack");
    }

    #[test]
    fn version_mismatch_is_rejected_before_decoding() {
        // A v1-era frame (no version byte: the first byte is the high
        // byte of a big-endian header length, i.e. not the version tag).
        let mut old = vec![0u8; FRAME_PREFIX_BYTES as usize];
        old[0] = 1; // pretend peer speaks protocol v1
        let err = read_frame(&mut old.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
        assert!(err.to_string().contains("protocol version mismatch"));
    }
}
