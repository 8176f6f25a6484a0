//! Checksummed, length-framed records: the one framing the durable
//! write-ahead log (`DCWAL001`) and the telemetry export stream
//! (`DCEXP001`) share.
//!
//! ```text
//! frame := id           u64 LE   -- WAL round id / export frame sequence
//!          len          u32 LE   -- payload byte length
//!          header_chk   u64 LE   -- over (id, len), keyed by the stream magic
//!          payload_chk  u64 LE   -- over (id, payload)
//!          payload      len bytes
//! ```
//!
//! The header carries its own checksum, so the length field is verified
//! before it is trusted for framing: a bit-flipped `len` is a header
//! error, never a phantom torn tail or a silently desynchronised stream.
//! Both checksums are SplitMix64 ([`hash64`]) chains. They are not
//! cryptographic; they catch torn writes, truncation and bit rot.
//!
//! This module only encodes and verifies. What an incomplete or damaged
//! frame *means* is the caller's policy: the WAL drops a torn final
//! record but rejects damage mid-log, and the export stream asks for
//! more bytes or drops the connection.

use crate::hash64;
use std::fmt;

/// id (8) + len (4) + header checksum (8) + payload checksum (8).
pub const HEADER_LEN: usize = 28;

/// Fold `bytes` into the running checksum `acc`, one little-endian word
/// at a time (the last word zero-padded).
pub fn word_chain(mut acc: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        acc = hash64(acc ^ u64::from_le_bytes(word));
    }
    acc
}

/// Payload checksum: the word chain over `payload`, seeded by the frame
/// id and the payload length (so a zero-padded tail word cannot make two
/// lengths collide).
fn payload_checksum(id: u64, payload: &[u8]) -> u64 {
    word_chain(hash64(id ^ (payload.len() as u64).rotate_left(32)), payload)
}

/// Header checksum over `(id, len)`, keyed by the stream's magic so a
/// frame of one stream never verifies in another.
fn header_checksum(magic: &[u8; 8], id: u64, len: u32) -> u64 {
    hash64(hash64(id ^ u64::from_le_bytes(*magic)) ^ len as u64)
}

/// Encode one frame: header plus `payload`.
///
/// # Panics
///
/// If `payload` is longer than `u32::MAX` bytes: its length would not fit
/// the header, and a truncated length would corrupt the stream.
pub fn encode(magic: &[u8; 8], id: u64, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload longer than u32::MAX bytes");
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&header_checksum(magic, id, len).to_le_bytes());
    out.extend_from_slice(&payload_checksum(id, payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// A frame header whose checksum verified: `id` and `len` are trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// The frame id.
    pub id: u64,
    /// The payload byte length.
    pub len: u32,
    payload_chk: u64,
}

/// A complete header failed its checksum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeaderMismatch;

impl fmt::Display for HeaderMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("header checksum mismatch")
    }
}

/// Parse and verify the header at the front of `buf`. `Ok(None)` when
/// `buf` is shorter than [`HEADER_LEN`].
pub fn parse_header(magic: &[u8; 8], buf: &[u8]) -> Result<Option<Header>, HeaderMismatch> {
    let Some(head) = buf.get(..HEADER_LEN) else {
        return Ok(None);
    };
    let word = |at: usize| u64::from_le_bytes(head[at..at + 8].try_into().expect("8 bytes"));
    let id = word(0);
    let len = u32::from_le_bytes(head[8..12].try_into().expect("4 bytes"));
    if header_checksum(magic, id, len) != word(12) {
        return Err(HeaderMismatch);
    }
    Ok(Some(Header {
        id,
        len,
        payload_chk: word(20),
    }))
}

impl Header {
    /// Bytes the whole frame occupies, header included.
    pub fn frame_len(&self) -> usize {
        HEADER_LEN + self.len as usize
    }

    /// The payload, if `buf` (which starts at this frame) holds all of it.
    pub fn payload<'a>(&self, buf: &'a [u8]) -> Option<&'a [u8]> {
        buf.get(HEADER_LEN..self.frame_len())
    }

    /// Whether `payload` matches the header's payload checksum.
    pub fn payload_ok(&self, payload: &[u8]) -> bool {
        payload_checksum(self.id, payload) == self.payload_chk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The battery runs under both stream magics in the workspace.
    const MAGICS: [&[u8; 8]; 2] = [b"DCWAL001", b"DCEXP001"];

    /// What a reader can tell about the front of a buffer.
    #[derive(Debug, PartialEq)]
    enum Read<'a> {
        Incomplete,
        HeaderError,
        PayloadError,
        Frame(u64, &'a [u8]),
    }

    fn read<'a>(magic: &[u8; 8], buf: &'a [u8]) -> Read<'a> {
        match parse_header(magic, buf) {
            Err(HeaderMismatch) => Read::HeaderError,
            Ok(None) => Read::Incomplete,
            Ok(Some(h)) => match h.payload(buf) {
                None => Read::Incomplete,
                Some(p) if h.payload_ok(p) => Read::Frame(h.id, p),
                Some(_) => Read::PayloadError,
            },
        }
    }

    /// Empty, sub-word, exact-word, word-plus-one and multi-word payloads.
    fn payloads() -> Vec<Vec<u8>> {
        [0usize, 1, 7, 8, 9, 37]
            .iter()
            .map(|&n| (0..n as u8).map(|b| b.wrapping_mul(37) ^ 0x5a).collect())
            .collect()
    }

    #[test]
    fn frames_round_trip_back_to_back() {
        for magic in MAGICS {
            let mut wire = Vec::new();
            for (id, p) in payloads().iter().enumerate() {
                wire.extend_from_slice(&encode(magic, id as u64 + 40, p));
            }
            let mut pos = 0;
            for (id, p) in payloads().iter().enumerate() {
                let expect = Read::Frame(id as u64 + 40, p.as_slice());
                assert_eq!(read(magic, &wire[pos..]), expect);
                pos += HEADER_LEN + p.len();
            }
            assert_eq!(pos, wire.len());
        }
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        for magic in MAGICS {
            for p in payloads() {
                let wire = encode(magic, 3, &p);
                for cut in 0..wire.len() {
                    assert_eq!(read(magic, &wire[..cut]), Read::Incomplete, "cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        for magic in MAGICS {
            for p in payloads() {
                let wire = encode(magic, 5, &p);
                for bit in 0..wire.len() * 8 {
                    let mut bad = wire.clone();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    // id, len and the header checksum are covered by the
                    // header checksum; a flipped length in particular is
                    // a header error, never a request for more bytes.
                    let expect = if bit / 8 < 20 {
                        Read::HeaderError
                    } else {
                        Read::PayloadError
                    };
                    assert_eq!(read(magic, &bad), expect, "flip of bit {bit}");
                }
            }
        }
    }

    #[test]
    fn frames_do_not_verify_under_another_magic() {
        let wire = encode(MAGICS[0], 1, b"payload");
        assert_eq!(read(MAGICS[1], &wire), Read::HeaderError);
    }

    #[test]
    fn checksum_depends_on_id_and_length() {
        assert_ne!(payload_checksum(0, b"abc"), payload_checksum(1, b"abc"));
        assert_ne!(payload_checksum(0, b"abc"), payload_checksum(0, b"abcd"));
        // Zero padding of the last word does not hide a trailing zero.
        assert_ne!(payload_checksum(0, b"ab\0"), payload_checksum(0, b"ab"));
    }
}
