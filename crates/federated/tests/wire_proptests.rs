//! Property-based and table-driven tests for the binary wire formats.
//!
//! Property tests (EVFD / EVQ8), over random shapes including
//! degenerate `rows x 0` and `0 x cols` tensors:
//!
//! 1. encode → decode is lossless (bitwise for EVFD, and for EVQ8 the
//!    view decodes bitwise what `QuantizedUpdate::dequantize`, the
//!    reference, reconstructs);
//! 2. the O(1) `*_encoded_size` arithmetic equals the actual payload length
//!    — this is what makes metering-by-arithmetic exact;
//! 3. malformed inputs (every truncation point, corrupted magic) return a
//!    [`WireError`], never panic;
//! 4. an envelope decoded from a frame (`decode_frame`, blobs as windows of
//!    the frame) is the envelope decoded from a slice, and fails the same
//!    way at every cut.
//!
//! Hostile-input table (`mod hostile`): every decoder and zero-copy view
//! (the envelope read from a slice and from a frame) against every fixture
//! record of its format — prefixes, byte flips,
//! forced field values, appended bytes, structural corruption, and
//! declared counts the received bytes did not pay for, at the codec and
//! through a loopback `SocketServer`.

use bytes::Bytes;
use evfad_federated::compression::QuantizedUpdate;
use evfad_federated::wire::{self, BytesMut, Message, WireError};
use evfad_federated::{CompressionMode, Corruption, FaultKind};
use evfad_tensor::Matrix;
use proptest::prelude::*;

/// Random weight list: 1–4 tensors with rows, cols in `0..6` (degenerate
/// empty shapes included) and finite values.
fn weights_strategy() -> impl Strategy<Value = Vec<Matrix>> {
    prop::collection::vec(
        (
            0usize..6,
            0usize..6,
            prop::collection::vec(-1e6f64..1e6, 36),
        ),
        1..5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .map(|(rows, cols, vals)| Matrix::from_vec(rows, cols, vals[..rows * cols].to_vec()))
            .collect()
    })
}

/// The view's decode of an `EVQ8` payload into fresh matrices.
fn view_weights(payload: &[u8]) -> Result<Vec<Matrix>, WireError> {
    let mut out = Vec::new();
    wire::quantized_view(payload)?.weights_into(&mut out);
    Ok(out)
}

/// One message of every kind, its blobs carrying `weights`.
fn every_message_kind(weights: &[Matrix]) -> Vec<Message> {
    let evfd = wire::encode_weights(weights);
    let evq8 = wire::encode_quantized(&QuantizedUpdate::quantize(weights));
    vec![
        Message::Hello {
            client_id: "z105".into(),
        },
        Message::Welcome {
            epochs_per_round: 3,
            batch_size: 16,
            compression: CompressionMode::Quant8,
            retry_budget: 2,
            backoff_base_seconds: 0.5,
            init_global: evfd.clone(),
        },
        Message::Broadcast {
            round: 7,
            global: evfd.clone(),
        },
        Message::TrainRequest {
            round: 1,
            fault: Some(FaultKind::Corrupt {
                corruption: Corruption::SignFlip,
            }),
        },
        Message::Update {
            round: 7,
            client_id: "z108".into(),
            sample_count: 40,
            train_loss: 0.25,
            payload: evq8,
        },
        Message::Update {
            round: 7,
            client_id: "z102".into(),
            sample_count: 32,
            train_loss: 0.5,
            payload: evfd.clone(),
        },
        Message::Ack { round: 7 },
        Message::Done { global: evfd },
        Message::Abort {
            message: "round 7 starved".into(),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// EVFD: full-precision weights round-trip bitwise, and the O(1) size
    /// arithmetic matches the real payload length.
    #[test]
    fn evfd_round_trip_and_size(weights in weights_strategy()) {
        let payload = wire::encode_weights(&weights);
        prop_assert_eq!(payload.len(), wire::encoded_size(&weights));
        let decoded = wire::decode_weights(&payload).expect("round trip");
        prop_assert_eq!(decoded, weights);
    }

    /// EVFD: every strict prefix of a valid payload is an error, not a
    /// panic; so is a corrupted magic byte.
    #[test]
    fn evfd_rejects_malformed(weights in weights_strategy()) {
        let payload = wire::encode_weights(&weights).to_vec();
        for cut in 0..payload.len() {
            prop_assert!(wire::decode_weights(&payload[..cut]).is_err(), "cut {}", cut);
        }
        let mut bad = payload.clone();
        bad[0] ^= 0xFF;
        prop_assert!(wire::decode_weights(&bad).is_err());
    }

    /// EVQ8: the view decodes bitwise what the update dequantizes to, the
    /// size arithmetic is exact, and the decode stays within one
    /// quantization step of the original.
    #[test]
    fn evq8_round_trip_and_size(weights in weights_strategy()) {
        let q = QuantizedUpdate::quantize(&weights);
        let payload = wire::encode_quantized(&q);
        prop_assert_eq!(payload.len(), wire::quantized_encoded_size(&q));
        let restored = view_weights(&payload).expect("round trip");
        prop_assert_eq!(
            wire::encode_weights(&restored),
            wire::encode_weights(&q.dequantize())
        );
        // Values are drawn from (-1e6, 1e6), so the per-tensor range is at
        // most 2e6 and one 8-bit step is at most 2e6 / 255.
        let half_step = 2e6 / 255.0 / 2.0 + 1e-6;
        for (r, w) in restored.iter().zip(&weights) {
            prop_assert_eq!((r.rows(), r.cols()), (w.rows(), w.cols()));
            for (a, b) in r.as_slice().iter().zip(w.as_slice()) {
                prop_assert!((a - b).abs() <= half_step, "{} vs {}", a, b);
            }
        }
    }

    /// EVQ8: truncations and bad magic are errors, never panics.
    #[test]
    fn evq8_rejects_malformed(weights in weights_strategy()) {
        let q = QuantizedUpdate::quantize(&weights);
        let payload = wire::encode_quantized(&q).to_vec();
        for cut in 0..payload.len() {
            prop_assert!(view_weights(&payload[..cut]).is_err(), "cut {}", cut);
        }
        let mut bad = payload.clone();
        bad[2] ^= 0xFF;
        prop_assert!(view_weights(&bad).is_err());
    }

    /// Cross-format confusion: feeding one format's payload to another
    /// format's decoder is a clean error.
    #[test]
    fn magic_bytes_keep_formats_apart(weights in weights_strategy()) {
        let evfd = wire::encode_weights(&weights);
        prop_assert!(view_weights(&evfd).is_err());
        let q = wire::encode_quantized(&QuantizedUpdate::quantize(&weights));
        prop_assert!(wire::decode_weights(&q).is_err());
    }

    /// EVMS: a frame decoded in place, its blobs windows of the frame,
    /// gives the message the slice decode gives, for every message kind;
    /// and every cut of the frame fails with the slice decode's error.
    #[test]
    fn a_frame_decodes_as_its_slice_does(weights in weights_strategy()) {
        let mut buf = BytesMut::new();
        for msg in every_message_kind(&weights) {
            wire::encode_message(&mut buf, &msg);
            let frame = Bytes::from(buf.to_vec());
            prop_assert_eq!(wire::decode_frame(&frame), Ok(msg));
            for cut in 0..frame.len() {
                let slice = wire::decode_message(&frame[..cut]);
                prop_assert!(slice.is_err(), "cut {}", cut);
                prop_assert_eq!(wire::decode_frame(&frame.slice(..cut)), slice, "cut {}", cut);
            }
        }
    }
}

mod hostile {
    use evfad_federated::compression::QuantizedUpdate;
    use evfad_federated::framing::{write_frame, FrameDecoder};
    use evfad_federated::socket::SocketServerConfig;
    use evfad_federated::wire::{self, BytesMut, Message, WireError};
    use evfad_federated::{
        CompressionMode, Corruption, FaultKind, FederatedConfig, FederatedError, SocketServer,
    };
    use evfad_nn::forecaster_model;
    use evfad_tensor::Matrix;
    use std::io::Read;
    use std::net::{SocketAddr, TcpStream};

    /// Decodes a payload and re-encodes what came out, so one table can
    /// hold decoders of different output types and check that an accepted
    /// payload is exactly the bytes its content encodes to.
    type Codec = fn(&[u8]) -> Result<Vec<u8>, WireError>;

    struct Row {
        name: &'static str,
        format: &'static str,
        codec: Codec,
        fixtures: fn() -> Vec<Vec<u8>>,
    }

    const TABLE: [Row; 4] = [
        Row {
            name: "decode_weights",
            format: "EVFD",
            codec: |b| wire::decode_weights(b).map(|w| wire::encode_weights(&w).to_vec()),
            fixtures: evfd_fixtures,
        },
        Row {
            name: "quantized_view",
            format: "EVQ8",
            codec: reencode_quantized_view,
            fixtures: evq8_fixtures,
        },
        Row {
            name: "decode_message",
            format: "EVMS",
            codec: |b| {
                wire::decode_message(b).map(|m| {
                    let mut buf = BytesMut::new();
                    wire::encode_message(&mut buf, &m);
                    buf.to_vec()
                })
            },
            fixtures: evms_fixtures,
        },
        Row {
            name: "decode_frame",
            format: "EVMS",
            codec: |b| {
                wire::decode_frame(&bytes::Bytes::copy_from_slice(b)).map(|m| {
                    let mut buf = BytesMut::new();
                    wire::encode_message(&mut buf, &m);
                    buf.to_vec()
                })
            },
            fixtures: evms_fixtures,
        },
    ];

    fn header(magic: &[u8; 4], count: u32) -> Vec<u8> {
        let mut out = magic.to_vec();
        out.extend(wire::VERSION.to_le_bytes());
        out.extend(count.to_le_bytes());
        out
    }

    /// An `EVQ8` encoder written against the documented layout, fed from
    /// the view's accessors alone.
    fn reencode_quantized_view(payload: &[u8]) -> Result<Vec<u8>, WireError> {
        let view = wire::quantized_view(payload)?;
        let mut out = header(&wire::QUANT_MAGIC, view.tensor_count() as u32);
        for t in view.tensors() {
            let (rows, cols) = t.shape();
            out.extend((rows as u32).to_le_bytes());
            out.extend((cols as u32).to_le_bytes());
            out.extend(t.range().min.to_le_bytes());
            out.extend(t.range().step.to_le_bytes());
            out.extend((t.special_count() as u32).to_le_bytes());
            out.extend(t.codes());
            for (idx, value) in t.specials() {
                out.extend((idx as u32).to_le_bytes());
                out.extend(value.to_le_bytes());
            }
        }
        Ok(out)
    }

    fn weights() -> Vec<Matrix> {
        vec![
            Matrix::from_fn(3, 4, |i, j| (i as f64) - 0.37 * j as f64),
            Matrix::zeros(0, 5),
            Matrix::from_vec(1, 4, vec![1.0, -2.5, f64::MIN_POSITIVE, 1e300]),
        ]
    }

    /// [`weights`] with two adjacent non-finite values in the first tensor
    /// and one in the last: `EVQ8` specials.
    fn poisoned_weights() -> Vec<Matrix> {
        let mut w = weights();
        w[0].as_mut_slice()[0] = f64::NAN;
        w[0].as_mut_slice()[1] = f64::INFINITY;
        w[2].as_mut_slice()[2] = f64::NEG_INFINITY;
        w
    }

    fn evfd_fixtures() -> Vec<Vec<u8>> {
        vec![
            wire::encode_weights(&weights()).to_vec(),
            wire::encode_weights(&[]).to_vec(),
        ]
    }

    fn evq8_fixtures() -> Vec<Vec<u8>> {
        vec![
            wire::encode_quantized(&QuantizedUpdate::quantize(&poisoned_weights())).to_vec(),
            wire::encode_quantized(&QuantizedUpdate::quantize(&weights())).to_vec(),
        ]
    }

    fn evms_fixtures() -> Vec<Vec<u8>> {
        let global = wire::encode_weights(&weights());
        let messages = [
            Message::Hello {
                client_id: "z105".into(),
            },
            Message::Welcome {
                epochs_per_round: 10,
                batch_size: 32,
                compression: CompressionMode::None,
                retry_budget: 0,
                backoff_base_seconds: 0.0,
                init_global: global.clone(),
            },
            Message::Welcome {
                epochs_per_round: 3,
                batch_size: 16,
                compression: CompressionMode::Quant8,
                retry_budget: 5,
                backoff_base_seconds: 0.5,
                init_global: global.clone(),
            },
            Message::Broadcast {
                round: 2,
                global: global.clone(),
            },
            Message::TrainRequest {
                round: 0,
                fault: None,
            },
            Message::TrainRequest {
                round: 4,
                fault: Some(FaultKind::Corrupt {
                    corruption: Corruption::Scale { factor: -2.5 },
                }),
            },
            Message::TrainRequest {
                round: 5,
                fault: Some(FaultKind::Corrupt {
                    corruption: Corruption::NanFlood,
                }),
            },
            Message::Update {
                round: 3,
                client_id: "z108".into(),
                sample_count: 32,
                train_loss: 0.0123,
                payload: global.clone(),
            },
            Message::Ack { round: 3 },
            Message::Done { global },
            Message::Abort {
                message: "round 1 starved".into(),
            },
        ];
        let mut buf = BytesMut::new();
        messages
            .iter()
            .map(|m| {
                wire::encode_message(&mut buf, m);
                buf.to_vec()
            })
            .collect()
    }

    fn rows_of(format: &'static str) -> impl Iterator<Item = &'static Row> {
        TABLE.iter().filter(move |row| row.format == format)
    }

    /// Runs `check` over every (row, fixture of that row's format) pair.
    fn for_each_case(mut check: impl FnMut(&str, Codec, &[u8])) {
        for row in &TABLE {
            for (i, blob) in (row.fixtures)().iter().enumerate() {
                check(&format!("{} fixture {i}", row.name), row.codec, blob);
            }
        }
    }

    /// A mutated payload must decode to exactly the bytes it was, or fail
    /// with a typed error whose `needed` (if truncated) makes progress.
    fn assert_ok_or_typed(case: &str, codec: Codec, mutated: &[u8]) {
        match codec(mutated) {
            Ok(again) => assert_eq!(
                again, mutated,
                "{case}: accepted but re-encodes differently"
            ),
            Err(WireError::Truncated { needed }) => assert!(needed >= 1, "{case}: needed 0"),
            Err(_) => {}
        }
    }

    #[test]
    fn fixtures_decode_and_reencode_byte_identically() {
        for_each_case(|case, codec, blob| {
            assert_eq!(codec(blob).as_deref(), Ok(blob), "{case}");
        });
    }

    #[test]
    fn every_prefix_is_truncated_and_needed_walks_to_exact_completion() {
        for_each_case(|case, codec, blob| {
            for cut in 0..blob.len() {
                match codec(&blob[..cut]) {
                    Err(WireError::Truncated { needed }) => assert!(
                        needed >= 1 && cut + needed <= blob.len(),
                        "{case}: cut {cut} needed {needed} of {}",
                        blob.len()
                    ),
                    other => panic!("{case}: cut {cut} gave {other:?}"),
                }
            }
            // Extending by exactly `needed` each time lands on the full
            // record, never short of it and never past it.
            let mut have = 0;
            while let Err(WireError::Truncated { needed }) = codec(&blob[..have]) {
                have += needed;
            }
            assert_eq!(have, blob.len(), "{case}: walk stopped early");
        });
    }

    #[test]
    fn every_single_byte_flip_is_ok_or_a_typed_error() {
        for_each_case(|case, codec, blob| {
            let mut mutated = blob.to_vec();
            for at in 0..blob.len() {
                for mask in [0x01, 0x80, 0xFF] {
                    mutated[at] = blob[at] ^ mask;
                    assert_ok_or_typed(&format!("{case} byte {at} ^ {mask:#x}"), codec, &mutated);
                }
                mutated[at] = blob[at];
            }
        });
    }

    /// Forces every 1-, 2- and 4-byte window of the record to `0`, `1` and
    /// all-ones — a superset of "every length, count and tag field", found
    /// without the test knowing any layout.
    #[test]
    fn every_field_forced_to_zero_one_or_max_is_ok_or_a_typed_error() {
        for_each_case(|case, codec, blob| {
            for width in [1usize, 2, 4] {
                for at in 0..(blob.len() + 1).saturating_sub(width) {
                    for value in [0u32, 1, u32::MAX] {
                        let mut mutated = blob.to_vec();
                        mutated[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
                        assert_ok_or_typed(
                            &format!("{case} u{} at {at} = {value}", 8 * width),
                            codec,
                            &mutated,
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn appended_bytes_are_trailing_bytes() {
        for_each_case(|case, codec, blob| {
            for extra in [1usize, 7] {
                let mut padded = blob.to_vec();
                padded.resize(blob.len() + extra, 0xA5);
                assert_eq!(
                    codec(&padded),
                    Err(WireError::TrailingBytes { extra }),
                    "{case}"
                );
            }
            // A second copy of the record is surplus, not a next record.
            let doubled = [blob, blob].concat();
            assert_eq!(
                codec(&doubled),
                Err(WireError::TrailingBytes { extra: blob.len() }),
                "{case}"
            );
        });
    }

    #[test]
    fn another_formats_record_is_bad_magic() {
        for row in &TABLE {
            for other in &TABLE {
                if other.format == row.format {
                    continue;
                }
                for blob in (other.fixtures)() {
                    assert_eq!(
                        (row.codec)(&blob),
                        Err(WireError::BadMagic),
                        "{} fed a {} fixture",
                        row.name,
                        other.name
                    );
                }
            }
        }
    }

    /// Offset of the first tensor's first `(index, value)` entry in the
    /// poisoned `EVQ8` fixture (tensor 0 is 3×4 with entries at flat
    /// indices 0 and 1).
    const EVQ8_ENTRIES_AT: usize = 10 + 8 + 16 + 4 + 12;

    #[test]
    fn structural_corruption_is_rejected_by_decoders_and_views_alike() {
        let swap_entries = |blob: &mut [u8], at: usize| {
            let (a, b) = blob[at..at + 24].split_at_mut(12);
            a.swap_with_slice(b);
        };
        let put_u32 = |blob: &mut [u8], at: usize, v: u32| {
            blob[at..at + 4].copy_from_slice(&v.to_le_bytes());
        };
        type Corrupt<'a> = &'a dyn Fn(&mut [u8]);
        let rows: [(&str, Corrupt, &str); 4] = [
            (
                "EVQ8",
                &|b| swap_entries(b, EVQ8_ENTRIES_AT),
                "quantized special indices not strictly ascending",
            ),
            (
                "EVQ8",
                &|b| put_u32(b, EVQ8_ENTRIES_AT + 12, 0),
                "quantized special indices not strictly ascending",
            ),
            (
                "EVQ8",
                &|b| put_u32(b, EVQ8_ENTRIES_AT, 12),
                "quantized special index out of range",
            ),
            (
                "EVQ8",
                &|b| put_u32(b, EVQ8_ENTRIES_AT - 12 - 4, 13),
                "quantized special count exceeds tensor elements",
            ),
        ];
        for (format, corrupt, message) in rows {
            for row in rows_of(format) {
                let mut blob = (row.fixtures)().swap_remove(0);
                corrupt(&mut blob);
                assert_eq!(
                    (row.codec)(&blob),
                    Err(WireError::InvalidRecord(message)),
                    "{}",
                    row.name
                );
            }
        }
    }

    /// Whatever flipped or cut `EVQ8` record the view accepts, its decode
    /// into matrices writes exactly the values the view's accessors
    /// describe — every code on its tensor's range, every special at its
    /// index — without a panic.
    #[test]
    fn views_and_decoders_agree_on_every_mutation() {
        let check = |payload: &[u8]| {
            let Ok(view) = wire::quantized_view(payload) else {
                return;
            };
            let mut decoded = vec![Matrix::zeros(1, 1)];
            view.weights_into(&mut decoded);
            assert_eq!(decoded.len(), view.tensor_count());
            for (t, m) in view.tensors().zip(&decoded) {
                assert_eq!(t.shape(), m.shape());
                let mut want: Vec<f64> = t.codes().iter().map(|&c| t.range().decode(c)).collect();
                for (idx, value) in t.specials() {
                    want[idx] = value;
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(m.as_slice()), bits(&want));
            }
        };
        for blob in evq8_fixtures() {
            let mut mutated = blob.clone();
            for at in 0..blob.len() {
                check(&blob[..at]);
                for mask in [0x01, 0x80, 0xFF] {
                    mutated[at] = blob[at] ^ mask;
                    check(&mutated);
                }
                mutated[at] = blob[at];
            }
        }
    }

    /// `FederatedConfig::default()` as the retired `EVCF` record (version 2)
    /// encoded it, by hand.
    #[rustfmt::skip]
    const EVCF_V2_DEFAULT: [u8; 42] = [
        b'E', b'V', b'C', b'F', 2, 0,         // preamble, version 2
        5, 0, 0, 0, 10, 0, 0, 0, 32, 0, 0, 0, // rounds / epochs / batch
        0, 1, 0, 0, 0, 0,                     // FedAvg, parallel, threads 0
        0, 0, 0, 0, 0, 0, 0xF0, 0x3F,         // participation 1.0
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0,         // sampling seed, faults, compression
    ];

    /// The handshake reply of a server from before `EVCF` left the wire:
    /// tag 1, the whole config as an `EVCF` blob, then the initial global.
    /// Tag 1 stays unassigned, so a client refuses it by its tag and never
    /// reads config bytes as a schedule; the shared version stays 1.
    #[test]
    fn an_old_layout_welcome_is_unknown_tag_1() {
        let global = wire::encode_weights(&weights());
        let mut old = wire::MESSAGE_MAGIC.to_vec();
        old.extend(wire::VERSION.to_le_bytes());
        old.push(1);
        for blob in [&EVCF_V2_DEFAULT[..], &global[..]] {
            old.extend((blob.len() as u32).to_le_bytes());
            old.extend(blob);
        }
        assert_eq!(wire::decode_message(&old), Err(WireError::UnknownTag(1)));
        assert_eq!(wire::VERSION, 1);
    }

    /// A record header may claim any number of records; the decoder must
    /// refuse before sizing anything by a count the received bytes cannot
    /// hold. Run under a process that would die on a multi-gigabyte
    /// `Vec::with_capacity`, a typed error coming back is the assertion.
    #[test]
    fn a_declared_count_the_bytes_did_not_pay_for_is_truncated_before_allocating() {
        for count in [u32::MAX, 1 << 24] {
            let cases = [
                ("EVFD", header(&wire::MAGIC, count)),
                ("EVQ8", header(&wire::QUANT_MAGIC, count)),
            ];
            for (format, blob) in cases {
                for row in rows_of(format) {
                    let got = (row.codec)(&blob);
                    assert!(
                        matches!(got, Err(WireError::Truncated { needed }) if needed >= 1),
                        "{} claiming {count} records gave {got:?}",
                        row.name
                    );
                }
            }
        }
    }

    /// Blocks until the next `EVMS` message on `stream`.
    fn recv(stream: &mut TcpStream, decoder: &mut FrameDecoder) -> Message {
        let mut buf = [0u8; 4096];
        loop {
            if let Some(frame) = decoder.next_frame().expect("frame") {
                return wire::decode_message(&frame).expect("message");
            }
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "server hung up");
            decoder.feed(&buf[..n]);
        }
    }

    fn send(stream: &mut TcpStream, msg: &Message) {
        let mut buf = BytesMut::new();
        wire::encode_message(&mut buf, msg);
        write_frame(stream, &buf).expect("write");
    }

    /// A client that handshakes honestly, waits to be asked to train, and
    /// uploads `payload` as its update.
    fn upload_hostile_update(addr: SocketAddr, payload: Vec<u8>) {
        let mut control = TcpStream::connect(addr).expect("connect");
        let mut decoder = FrameDecoder::new();
        send(
            &mut control,
            &Message::Hello {
                client_id: "z102".into(),
            },
        );
        let round = loop {
            if let Message::TrainRequest { round, .. } = recv(&mut control, &mut decoder) {
                break round;
            }
        };
        let mut upload = TcpStream::connect(addr).expect("connect");
        send(
            &mut upload,
            &Message::Update {
                round,
                client_id: "z102".into(),
                sample_count: 8,
                train_loss: 0.5,
                payload: payload.into(),
            },
        );
        // Hold both connections open until the server has reacted.
        let _ = control.read(&mut [0u8; 64]);
    }

    #[test]
    fn a_hostile_update_over_a_socket_fails_the_run_not_the_process() {
        // Per mode: two headers claiming records they do not carry, then a
        // well-formed update of another architecture.
        let foreign = forecaster_model(5, 3).weights();
        let cases = [
            (
                CompressionMode::None,
                wire::MAGIC,
                wire::encode_weights(&foreign),
            ),
            (
                CompressionMode::Quant8,
                wire::QUANT_MAGIC,
                wire::encode_quantized(&QuantizedUpdate::quantize(&foreign)),
            ),
        ];
        for (compression, magic, foreign) in cases {
            let payloads = [
                (header(&magic, u32::MAX), "uplink payload"),
                (header(&magic, 1 << 24), "uplink payload"),
                (
                    foreign.to_vec(),
                    "has tensor shapes [(6, 20), (1, 20), (5, 10), (1, 10), (10, 1), (1, 1)], \
                     the model expects [(5, 16), (1, 16), (4, 10), (1, 10), (10, 1), (1, 1)]",
                ),
            ];
            for (i, (payload, expected)) in payloads.into_iter().enumerate() {
                let cfg = FederatedConfig {
                    rounds: 1,
                    epochs_per_round: 1,
                    compression,
                    ..FederatedConfig::default()
                };
                let mut server = SocketServer::bind(
                    ("127.0.0.1", 0),
                    forecaster_model(4, 3),
                    SocketServerConfig::new(cfg, vec!["z102".to_string()]),
                )
                .expect("bind");
                let addr = server.local_addr();
                let peer = std::thread::spawn(move || upload_hostile_update(addr, payload));
                let outcome = server.run();
                drop(server);
                peer.join().expect("peer thread");
                match outcome {
                    Err(FederatedError::Transport { message }) => assert!(
                        message.starts_with("uplink payload") && message.contains(expected),
                        "{compression} payload {i}: {message}"
                    ),
                    other => panic!("{compression} payload {i}: run gave {other:?}"),
                }
            }
        }
    }
}
