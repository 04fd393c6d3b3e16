//! Length-prefixed framing for the TCP transport.
//!
//! A TCP stream is a byte pipe with no message boundaries: a single
//! `write` of an EVMS envelope may arrive split across many `read`s, and
//! several envelopes may coalesce into one. This module restores record
//! boundaries with the simplest scheme that is still self-describing:
//!
//! ```text
//! | len: u32 LE | payload: len bytes |
//! ```
//!
//! where `payload` is one encoded [`wire`](crate::wire) record (in
//! practice an EVMS envelope, which itself carries EVFD/EVQ8 blobs).
//! The length prefix is transport overhead and is *not* metered — the
//! traffic accounting in [`transport`](crate::transport) counts payload
//! bytes only, which is what keeps socket-path byte counts identical to
//! the in-process `encoded_size` arithmetic.
//!
//! [`FrameDecoder`] is an incremental reassembler: feed it arbitrary
//! chunks (down to one byte at a time, including splits inside the
//! length header) and it yields exactly the payload sequence that was
//! framed, in order. Malformed input — a declared length above
//! [`MAX_FRAME_BYTES`] — surfaces as a typed [`WireError`], never a
//! panic or an unbounded allocation.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::wire::WireError;

/// Size of the frame length prefix in bytes.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Upper bound on a single frame's payload (256 MiB), mirroring the
/// per-blob bound inside the EVMS envelope. A peer declaring more is
/// malformed or hostile; the decoder rejects the length before
/// allocating anything.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Appends one length-prefixed frame wrapping `payload` to `buf`.
///
/// The buffer is *not* cleared: callers batch several frames into one
/// `write` by calling this repeatedly.
///
/// # Panics
///
/// Panics if `payload.len() > MAX_FRAME_BYTES`; the transport never
/// produces such a payload (the wire encoders bound tensor counts and
/// blob sizes well below it).
pub fn encode_frame(buf: &mut BytesMut, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload exceeds MAX_FRAME_BYTES"
    );
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
}

/// Total wire footprint of a frame carrying `payload_len` payload bytes.
pub fn frame_size(payload_len: usize) -> usize {
    FRAME_HEADER_BYTES + payload_len
}

/// Writes one length-prefixed frame to `writer` without assembling it
/// first: the 4-byte header and the payload go out in a single vectored
/// write (gathered by the kernel into one TCP segment where possible),
/// with a resume loop for short writes. This replaces the per-send
/// "allocate a framed buffer, copy payload, write" dance in the socket
/// transport — the payload is written from wherever it already lives.
///
/// # Errors
///
/// Any I/O error from the underlying writer; a zero-length vectored
/// write surfaces as [`std::io::ErrorKind::WriteZero`].
///
/// # Panics
///
/// Panics if `payload.len() > MAX_FRAME_BYTES`, exactly like
/// [`encode_frame`].
pub fn write_frame<W: std::io::Write>(writer: &mut W, payload: &[u8]) -> std::io::Result<()> {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload exceeds MAX_FRAME_BYTES"
    );
    let header = (payload.len() as u32).to_le_bytes();
    let total = FRAME_HEADER_BYTES + payload.len();
    let mut written = 0usize;
    while written < total {
        let n = if written < FRAME_HEADER_BYTES {
            writer.write_vectored(&[
                std::io::IoSlice::new(&header[written..]),
                std::io::IoSlice::new(payload),
            ])?
        } else {
            writer.write(&payload[written - FRAME_HEADER_BYTES..])?
        };
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                "failed to write whole frame",
            ));
        }
        written += n;
    }
    Ok(())
}

/// Incremental frame reassembler.
///
/// Bytes go in via [`feed`](Self::feed) in whatever chunks the socket
/// delivers; completed payloads come out via
/// [`next_frame`](Self::next_frame). The decoder owns a single
/// contiguous buffer with a consumed-prefix offset, compacted
/// opportunistically so a long-lived connection does not accrete memory.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes received from the stream.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Number of buffered, not-yet-consumed bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Minimum additional bytes required before [`next_frame`](Self::next_frame)
    /// can yield another payload: the rest of the length header if it is
    /// split, otherwise the rest of the declared payload. Returns 0 when
    /// a complete frame is already buffered.
    pub fn needed(&self) -> usize {
        let pending = &self.buf[self.start..];
        if pending.len() < FRAME_HEADER_BYTES {
            return FRAME_HEADER_BYTES - pending.len();
        }
        let mut cursor = pending;
        let declared = cursor.get_u32_le() as usize;
        (FRAME_HEADER_BYTES + declared).saturating_sub(pending.len())
    }

    /// Extracts the next complete payload, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed (see
    /// [`needed`](Self::needed)), and `Err(WireError::OversizedFrame)`
    /// when the declared length exceeds [`MAX_FRAME_BYTES`]. The error is
    /// sticky in effect: the bad header is not consumed, so a poisoned
    /// stream keeps reporting the same error — the connection must be
    /// dropped, there is no resynchronization point in a length-prefixed
    /// stream.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        let pending = &self.buf[self.start..];
        if pending.len() < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let mut cursor = pending;
        let declared = cursor.get_u32_le() as usize;
        if declared > MAX_FRAME_BYTES {
            return Err(WireError::OversizedFrame { declared });
        }
        if cursor.len() < declared {
            return Ok(None);
        }
        let payload = Bytes::copy_from_slice(&cursor[..declared]);
        self.start += FRAME_HEADER_BYTES + declared;
        self.compact();
        Ok(Some(payload))
    }

    /// Drops the consumed prefix once it dominates the buffer, bounding
    /// resident memory to roughly one frame plus one read chunk.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= 4096 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        for p in payloads {
            encode_frame(&mut buf, p);
        }
        buf.to_vec()
    }

    #[test]
    fn single_frame_round_trips() {
        let mut dec = FrameDecoder::new();
        dec.feed(&frames(&[b"hello"]));
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"hello");
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn empty_payload_is_a_valid_frame() {
        let mut dec = FrameDecoder::new();
        dec.feed(&frames(&[b"", b"x"]));
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"");
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"x");
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_at_a_time_reassembly_preserves_the_sequence() {
        let stream = frames(&[b"alpha", b"", b"bravo-charlie"]);
        let mut dec = FrameDecoder::new();
        let mut out: Vec<Vec<u8>> = Vec::new();
        for b in &stream {
            dec.feed(std::slice::from_ref(b));
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(frame.to_vec());
            }
        }
        assert_eq!(
            out,
            vec![b"alpha".to_vec(), vec![], b"bravo-charlie".to_vec()]
        );
    }

    #[test]
    fn needed_tracks_header_then_payload() {
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.needed(), FRAME_HEADER_BYTES);
        dec.feed(&5u32.to_le_bytes()[..2]);
        assert_eq!(dec.needed(), 2);
        dec.feed(&5u32.to_le_bytes()[2..]);
        assert_eq!(dec.needed(), 5);
        dec.feed(b"ab");
        assert_eq!(dec.needed(), 3);
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.feed(b"cde");
        assert_eq!(dec.needed(), 0);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"abcde");
    }

    #[test]
    fn oversized_declaration_is_rejected_before_buffering_the_body() {
        let mut dec = FrameDecoder::new();
        dec.feed(&(u32::MAX).to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(WireError::OversizedFrame {
                declared: u32::MAX as usize
            })
        );
        // Sticky: the poisoned header stays at the front of the stream.
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::OversizedFrame { .. })
        ));
    }

    #[test]
    fn exactly_max_frame_bytes_is_accepted_as_a_length() {
        // Only the header is fed — the check must pass on the declared
        // length without requiring the (huge) body.
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME_BYTES as u32).to_le_bytes());
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.needed(), MAX_FRAME_BYTES);
    }

    #[test]
    fn coalesced_frames_drain_in_order() {
        let stream = frames(&[b"1", b"22", b"333"]);
        let mut dec = FrameDecoder::new();
        dec.feed(&stream);
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"1");
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"22");
        assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), b"333");
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn compaction_bounds_resident_memory() {
        let payload = vec![7u8; 2048];
        let mut dec = FrameDecoder::new();
        for _ in 0..64 {
            let mut buf = BytesMut::new();
            encode_frame(&mut buf, &payload);
            dec.feed(&buf);
            assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), &payload[..]);
        }
        // Everything consumed: the buffer must have been reset, not grown
        // to 64 frames.
        assert_eq!(dec.buffered(), 0);
        assert!(dec.buf.capacity() < 16 * (FRAME_HEADER_BYTES + payload.len()));
    }

    #[test]
    fn frame_size_matches_encoder_output() {
        let mut buf = BytesMut::new();
        encode_frame(&mut buf, b"abc");
        assert_eq!(buf.len(), frame_size(3));
    }

    #[test]
    fn write_frame_matches_encode_frame_bytes() {
        let mut framed = BytesMut::new();
        encode_frame(&mut framed, b"payload-bytes");
        let mut written = Vec::new();
        write_frame(&mut written, b"payload-bytes").unwrap();
        assert_eq!(written, framed.to_vec());
    }

    /// A writer that accepts at most one byte per call, exercising every
    /// resume point of the short-write loop (inside the header, at the
    /// header/payload boundary, inside the payload).
    struct Dribble(Vec<u8>);

    impl std::io::Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.push(buf[0]);
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_survives_short_writes() {
        let mut expected = BytesMut::new();
        encode_frame(&mut expected, b"short-write-survivor");
        let mut dribble = Dribble(Vec::new());
        write_frame(&mut dribble, b"short-write-survivor").unwrap();
        assert_eq!(dribble.0, expected.to_vec());

        let mut dec = FrameDecoder::new();
        dec.feed(&dribble.0);
        assert_eq!(
            dec.next_frame().unwrap().unwrap().as_ref(),
            b"short-write-survivor"
        );
    }
}
