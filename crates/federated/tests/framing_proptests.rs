//! Property-based tests for TCP frame reassembly.
//!
//! The transport's correctness rests on one invariant: however the
//! kernel fragments or coalesces the byte stream, [`FrameDecoder`]
//! yields exactly the payload sequence that was framed, in order. The
//! strategies here cover chunk sizes from 1 byte (every header split
//! position) up to 4096 bytes (several frames coalesced per read), with
//! payloads from empty to multi-KiB including real EVMS envelopes. Read
//! from a stream instead, one frame at a time into a buffer of its own
//! size, the decoder yields the same sequence under any short reads.

use evfad_federated::framing::{write_frame, FrameDecoder, FRAME_HEADER_BYTES};
use evfad_federated::wire::{self, Message, WireError};
use evfad_tensor::Matrix;
use proptest::prelude::*;

use bytes::BytesMut;

/// Splits `stream` into chunks whose sizes cycle through `cuts`
/// (clamped to 1..=4096), feeds them one at a time, and drains every
/// completed frame after each feed.
fn reassemble(stream: &[u8], cuts: &[usize]) -> Result<Vec<Vec<u8>>, WireError> {
    let mut dec = FrameDecoder::new();
    let mut out = Vec::new();
    let mut offset = 0;
    let mut i = 0;
    while offset < stream.len() {
        let take = cuts[i % cuts.len()]
            .clamp(1, 4096)
            .min(stream.len() - offset);
        i += 1;
        dec.feed(&stream[offset..offset + take]);
        offset += take;
        while let Some(frame) = dec.next_frame()? {
            out.push(frame.to_vec());
        }
    }
    assert_eq!(dec.buffered(), 0, "stream fully consumed");
    Ok(out)
}

/// `payloads` framed back to back.
fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for p in payloads {
        write_frame(&mut buf, p).expect("a Vec accepts every write");
    }
    buf
}

/// A stream whose `read` calls hand out at most `cuts[i]` bytes each,
/// cycling through `cuts`.
struct ShortReads<'a> {
    bytes: &'a [u8],
    cuts: &'a [usize],
    calls: usize,
}

impl std::io::Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.cuts[self.calls % self.cuts.len()]
            .min(buf.len())
            .min(self.bytes.len());
        self.calls += 1;
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `read_frame` over a stream that returns 1..=n bytes a call yields
    /// the payload sequence `feed` reassembles from the same bytes.
    #[test]
    fn short_reads_reassemble_what_feed_does(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 0..8),
        cuts in prop::collection::vec(1usize..=700, 1..12),
    ) {
        let buf = framed(&payloads);
        let fed = reassemble(&buf, &cuts).expect("well-formed stream");
        let mut stream = ShortReads { bytes: &buf, cuts: &cuts, calls: 0 };
        let mut dec = FrameDecoder::with_cap(600);
        let mut read = Vec::new();
        while let Some(frame) = dec.read_frame(&mut stream).expect("well-formed stream") {
            read.push(frame);
        }
        prop_assert_eq!(&read, &fed);
        prop_assert_eq!(read, payloads);
    }

    /// Arbitrary payload sequences survive arbitrary fragmentation:
    /// chunk sizes 1..=4096, including every possible mid-header split.
    #[test]
    fn random_fragmentation_reconstructs_the_exact_sequence(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..600), 0..8),
        cuts in prop::collection::vec(1usize..=4096, 1..12),
    ) {
        let buf = framed(&payloads);
        prop_assert_eq!(
            buf.len(),
            payloads.iter().map(|p| FRAME_HEADER_BYTES + p.len()).sum::<usize>()
        );
        let out = reassemble(&buf, &cuts).expect("well-formed stream");
        prop_assert_eq!(out, payloads);
    }

    /// Byte-at-a-time delivery — the worst case, hitting every split
    /// point inside every header — still reconstructs exactly.
    #[test]
    fn one_byte_chunks_hit_every_header_split(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..6),
    ) {
        let buf = framed(&payloads);
        let out = reassemble(&buf, &[1]).expect("well-formed stream");
        prop_assert_eq!(out, payloads);
    }

    /// Real protocol traffic: framed EVMS envelopes carrying EVFD blobs
    /// cross arbitrary fragmentation and decode back to the same
    /// message sequence.
    #[test]
    fn framed_envelopes_survive_fragmentation(
        rounds in prop::collection::vec(0u32..100, 1..5),
        cuts in prop::collection::vec(1usize..=4096, 1..8),
        dims in (1usize..4, 1usize..4),
    ) {
        let weights = vec![Matrix::from_vec(
            dims.0,
            dims.1,
            (0..dims.0 * dims.1).map(|i| i as f64 * 0.5 - 1.0).collect(),
        )];
        let global = wire::encode_weights(&weights);
        let msgs: Vec<Message> = rounds
            .iter()
            .map(|&round| Message::Broadcast { round, global: global.clone() })
            .collect();
        let mut stream = Vec::new();
        let mut scratch = BytesMut::new();
        for msg in &msgs {
            wire::encode_message(&mut scratch, msg);
            write_frame(&mut stream, &scratch).expect("a Vec accepts every write");
        }
        let out = reassemble(&stream, &cuts).expect("well-formed stream");
        let decoded: Vec<Message> = out
            .iter()
            .map(|payload| wire::decode_message(payload).expect("framed envelope"))
            .collect();
        prop_assert_eq!(decoded, msgs);
    }

    /// Malformed input never panics: random garbage either yields
    /// garbage-length frames (consumed quietly) or a typed oversize
    /// error — the decoder must survive both without panicking.
    #[test]
    fn garbage_streams_never_panic(
        garbage in prop::collection::vec(any::<u8>(), 0..2048),
        cuts in prop::collection::vec(1usize..=4096, 1..8),
    ) {
        let mut dec = FrameDecoder::new();
        let mut offset = 0;
        let mut i = 0;
        while offset < garbage.len() {
            let take = cuts[i % cuts.len()].min(garbage.len() - offset);
            i += 1;
            dec.feed(&garbage[offset..offset + take]);
            offset += take;
            loop {
                match dec.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(WireError::OversizedFrame { declared }) => {
                        // Poisoned stream: error is sticky, nothing was
                        // consumed, and the declared length really is
                        // over the bound.
                        prop_assert!(declared > evfad_federated::framing::MAX_FRAME_BYTES);
                        let sticky = matches!(
                            dec.next_frame(),
                            Err(WireError::OversizedFrame { .. })
                        );
                        prop_assert!(sticky);
                        return Ok(());
                    }
                    Err(other) => panic!("unexpected error {other:?}"),
                }
            }
        }
    }
}
