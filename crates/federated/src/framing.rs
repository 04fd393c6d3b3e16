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
//! The length prefix is transport overhead and is *not* metered — a run's
//! [`TrafficTotals`](crate::TrafficTotals) count payload bytes only, which
//! is what keeps socket-path byte counts identical to the in-process
//! `encoded_size` arithmetic.
//!
//! [`FrameDecoder`] is the one reassembler, with a frame cap of its own
//! ([`MAX_FRAME_BYTES`] unless [`FrameDecoder::with_cap`] says less).
//! Over a stream, [`read_frame`](FrameDecoder::read_frame) reads the
//! four header bytes, checks the declared length against the cap, and
//! reads the body straight into one buffer of exactly that length: one
//! allocation, bounded by the cap, and no copy. Fed arbitrary chunks
//! instead (down to one byte at a time, including splits inside the
//! length header), [`feed`](FrameDecoder::feed) and
//! [`next_frame`](FrameDecoder::next_frame) yield exactly the payload
//! sequence that was framed, in order. A declared length above the cap
//! is a typed error before anything is allocated for it, never a panic.

use bytes::{Buf, Bytes};
use std::io::{ErrorKind, Read};

use crate::wire::WireError;

/// Size of the frame length prefix in bytes.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Upper bound on a single frame's payload (256 MiB), mirroring the
/// per-blob bound inside the EVMS envelope, and the cap of a
/// [`FrameDecoder::new`]. A peer declaring more is malformed or hostile;
/// the decoder rejects the length before allocating anything. The socket
/// transport caps each session far lower, at the largest frame the
/// protocol can send at its model's size.
pub const MAX_FRAME_BYTES: usize = 256 << 20;

/// Writes one length-prefixed frame to `writer` without assembling it
/// first: the 4-byte header and the payload go out in a single vectored
/// write (gathered by the kernel into one TCP segment where possible),
/// with a resume loop for short writes. The payload is written from
/// wherever it already lives; no framed copy is assembled.
///
/// # Errors
///
/// Any I/O error from the underlying writer; a zero-length vectored
/// write surfaces as [`std::io::ErrorKind::WriteZero`].
///
/// # Panics
///
/// Panics if `payload.len() > MAX_FRAME_BYTES`; the transport never
/// produces such a payload (the wire encoders bound tensor counts and
/// blob sizes well below it).
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

/// Why [`FrameDecoder::read_frame`] delivered no frame.
#[derive(Debug)]
pub enum FrameError {
    /// The header declared more than the decoder's cap. Nothing of the
    /// body was read or allocated; the stream has no resynchronisation
    /// point, so the connection must be dropped.
    Oversized {
        /// Declared payload length.
        declared: usize,
        /// The decoder's cap.
        cap: usize,
    },
    /// The stream ended `missing` bytes short of a whole length header.
    EndInHeader {
        /// Header bytes never received.
        missing: usize,
    },
    /// The stream ended `missing` bytes short of a `declared`-byte body.
    EndInBody {
        /// Declared payload length.
        declared: usize,
        /// Body bytes never received.
        missing: usize,
    },
    /// Reading the stream failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, cap } => {
                write!(f, "frame of {declared} bytes exceeds the cap of {cap}")
            }
            FrameError::EndInHeader { missing } => {
                write!(
                    f,
                    "connection closed {missing} bytes short of a frame header"
                )
            }
            FrameError::EndInBody { declared, missing } => write!(
                f,
                "connection closed {missing} bytes short of a {declared}-byte frame"
            ),
            FrameError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Frame reassembler with a cap on the length a header may declare.
///
/// Over a blocking stream, [`read_frame`](Self::read_frame) reads each
/// frame into one buffer of its declared size. Otherwise bytes go in via
/// [`feed`](Self::feed) in whatever chunks arrive and completed payloads
/// come out via [`next_frame`](Self::next_frame); the decoder then owns a
/// single contiguous buffer with a consumed-prefix offset, compacted
/// opportunistically so a long-lived connection does not accrete memory.
/// `read_frame` takes bytes already fed before it reads the stream.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
    /// The longest payload a header may declare.
    cap: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// Creates an empty decoder capped at [`MAX_FRAME_BYTES`].
    pub fn new() -> Self {
        Self::with_cap(MAX_FRAME_BYTES)
    }

    /// Creates an empty decoder that refuses any frame declaring more
    /// than `cap` payload bytes (at most [`MAX_FRAME_BYTES`]).
    pub fn with_cap(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            cap: cap.min(MAX_FRAME_BYTES),
        }
    }

    /// Reads the next frame from `reader`: the header, then the body into
    /// one buffer allocated at the declared length once the length has
    /// passed the cap. Bytes already [`feed`](Self::feed)-ed come first.
    ///
    /// Returns `Ok(None)` when the stream ends cleanly between frames.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] for a declared length above the cap,
    /// read before any body byte; [`FrameError::EndInHeader`] /
    /// [`FrameError::EndInBody`] when the stream ends inside a frame;
    /// [`FrameError::Io`] when a read fails.
    pub fn read_frame<R: Read>(&mut self, reader: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        match self.fill(reader, &mut header)? {
            0 => return Ok(None),
            FRAME_HEADER_BYTES => {}
            got => {
                return Err(FrameError::EndInHeader {
                    missing: FRAME_HEADER_BYTES - got,
                })
            }
        }
        let declared = u32::from_le_bytes(header) as usize;
        if declared > self.cap {
            return Err(FrameError::Oversized {
                declared,
                cap: self.cap,
            });
        }
        let mut body = vec![0u8; declared];
        let got = self.fill(reader, &mut body)?;
        if got < declared {
            return Err(FrameError::EndInBody {
                declared,
                missing: declared - got,
            });
        }
        Ok(Some(body))
    }

    /// Fills `dst` from the buffered bytes, then from `reader` until it is
    /// full or the stream ends; returns how many bytes it holds.
    fn fill<R: Read>(&mut self, reader: &mut R, dst: &mut [u8]) -> std::io::Result<usize> {
        let pending = &self.buf[self.start..];
        let mut filled = pending.len().min(dst.len());
        dst[..filled].copy_from_slice(&pending[..filled]);
        self.start += filled;
        self.compact();
        while filled < dst.len() {
            match reader.read(&mut dst[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(filled)
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

    /// Extracts the next complete payload, if one is buffered.
    ///
    /// Returns `Ok(None)` until a whole frame is buffered, and
    /// `Err(WireError::OversizedFrame)`
    /// when the declared length exceeds the decoder's cap. The error is
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
        if declared > self.cap {
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
        let mut buf = Vec::new();
        for p in payloads {
            write_frame(&mut buf, p).expect("a Vec accepts every write");
        }
        buf
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
        // Pending, not poisoned: the header waits for its body.
        assert_eq!(dec.buffered(), FRAME_HEADER_BYTES);
    }

    /// A `Read` over `bytes` that hands out at most `step` bytes a call
    /// and counts the bytes it has handed out.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        handed: usize,
    }

    impl<'a> Trickle<'a> {
        fn new(bytes: &'a [u8], step: usize) -> Self {
            Self {
                bytes,
                step,
                handed: 0,
            }
        }
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let rest = &self.bytes[self.handed..];
            let n = buf.len().min(self.step).min(rest.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.handed += n;
            Ok(n)
        }
    }

    #[test]
    fn a_frame_at_the_cap_is_read_and_one_byte_over_is_refused_unread() {
        let at_cap = vec![9u8; 300];
        let stream = frames(&[&at_cap]);
        let mut src = Trickle::new(&stream, usize::MAX);
        let mut dec = FrameDecoder::with_cap(300);
        assert_eq!(dec.read_frame(&mut src).unwrap(), Some(at_cap));
        assert_eq!(dec.read_frame(&mut src).unwrap(), None);

        let stream = frames(&[&[9u8; 301]]);
        let mut src = Trickle::new(&stream, usize::MAX);
        let err = FrameDecoder::with_cap(300)
            .read_frame(&mut src)
            .unwrap_err();
        assert!(
            matches!(
                err,
                FrameError::Oversized {
                    declared: 301,
                    cap: 300
                }
            ),
            "{err}"
        );
        // The header left the stream and no body byte did.
        assert_eq!(src.handed, FRAME_HEADER_BYTES);
    }

    #[test]
    fn a_stream_ending_inside_a_frame_is_an_error_and_between_frames_a_clean_end() {
        let (first, second): (&[u8], &[u8]) = (b"first", b"second-frame");
        let stream = frames(&[first, second]);
        let boundary = FRAME_HEADER_BYTES + first.len();
        for cut in 0..=stream.len() {
            let mut src = Trickle::new(&stream[..cut], 3);
            let mut dec = FrameDecoder::new();
            // Whatever whole frames the prefix holds come out first.
            let mut whole = Vec::new();
            let end = loop {
                match dec.read_frame(&mut src) {
                    Ok(Some(frame)) => whole.push(frame),
                    other => break other,
                }
            };
            assert_eq!(
                whole.len(),
                usize::from(cut >= boundary) + usize::from(cut == stream.len())
            );
            let (offset, body) = if cut < boundary {
                (cut, first.len())
            } else {
                (cut - boundary, second.len())
            };
            match end {
                Ok(None) => assert!(cut == 0 || cut == boundary || cut == stream.len(), "{cut}"),
                Err(FrameError::EndInHeader { missing }) => {
                    assert_eq!(missing, FRAME_HEADER_BYTES - offset, "{cut}");
                }
                Err(FrameError::EndInBody { declared, missing }) => {
                    assert_eq!(declared, body, "{cut}");
                    assert_eq!(missing, FRAME_HEADER_BYTES + body - offset, "{cut}");
                }
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn read_frame_takes_fed_bytes_before_the_stream() {
        let stream = frames(&[b"alpha", b"bravo"]);
        let mut dec = FrameDecoder::new();
        dec.feed(&stream[..7]);
        let mut src = Trickle::new(&stream[7..], 2);
        assert_eq!(dec.read_frame(&mut src).unwrap(), Some(b"alpha".to_vec()));
        assert_eq!(dec.read_frame(&mut src).unwrap(), Some(b"bravo".to_vec()));
        assert_eq!(dec.read_frame(&mut src).unwrap(), None);
        assert_eq!(dec.buffered(), 0);
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
            dec.feed(&frames(&[&payload]));
            assert_eq!(dec.next_frame().unwrap().unwrap().as_ref(), &payload[..]);
        }
        // Everything consumed: the buffer must have been reset, not grown
        // to 64 frames.
        assert_eq!(dec.buffered(), 0);
        assert!(dec.buf.capacity() < 16 * (FRAME_HEADER_BYTES + payload.len()));
    }

    #[test]
    fn a_frame_is_its_header_plus_its_payload() {
        for len in [0, 1, 3, 4096] {
            assert_eq!(frames(&[&vec![1u8; len]]).len(), FRAME_HEADER_BYTES + len);
        }
    }

    #[test]
    fn write_frame_writes_the_length_little_endian_then_the_payload() {
        let mut written = Vec::new();
        write_frame(&mut written, b"payload-bytes").unwrap();
        assert_eq!(written[..FRAME_HEADER_BYTES], 13u32.to_le_bytes());
        assert_eq!(&written[FRAME_HEADER_BYTES..], b"payload-bytes");
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
        let expected = frames(&[b"short-write-survivor"]);
        let mut dribble = Dribble(Vec::new());
        write_frame(&mut dribble, b"short-write-survivor").unwrap();
        assert_eq!(dribble.0, expected);

        let mut dec = FrameDecoder::new();
        dec.feed(&dribble.0);
        assert_eq!(
            dec.next_frame().unwrap().unwrap().as_ref(),
            b"short-write-survivor"
        );
    }
}
