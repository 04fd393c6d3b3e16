//! Binary wire format for weight exchange — what actually crosses the
//! channel, simulated or TCP.
//!
//! Three little-endian records, each opened by a four-byte magic and the
//! `u16` [`VERSION`]: full-precision weights (`EVFD`), 8-bit-quantized
//! updates (`EVQ8`, see [`compression`](crate::compression)), and the
//! socket envelope (`EVMS`) that carries the other two verbatim. The
//! handshake's [`Message::Welcome`] hands a client the five schedule values
//! it acts on and nothing else of the server's configuration: no roster, no
//! sampling seed, no fault rules naming other clients. The weight formats
//! have exact O(1) size functions, so metering never serialises. Together
//! they complete the communication story of the paper's §II-C2 ("only
//! model parameters were exchanged").
//!
//! # Decoding
//!
//! Every byte a peer controls is read through one private cursor,
//! `Reader`: each read either yields exactly the bytes asked for or
//! returns [`WireError::Truncated`], a declared count is checked against
//! the bytes actually received before anything is allocated for it, and
//! `Reader::finish` rejects trailing bytes. A read past the end of the
//! payload is unrepresentable, so every decoder is total: a typed
//! [`WireError`], never a panic.
//!
//! Each record has one parser. `EVQ8` is validated only by its walker,
//! behind the zero-copy [`quantized_view`], which the fused
//! decode-into-fold reads; [`QuantizedPayloadView::weights_into`] is the
//! one decode into matrices, held to [`QuantizedUpdate::dequantize`] by
//! the tests. An envelope read from a frame ([`decode_frame`]) takes its
//! blobs as windows of the frame: an upload reaches the fold uncopied.

use crate::compression::{CompressionMode, QuantizedUpdate};
use crate::error::FederatedError;
use crate::faults::{Corruption, FaultKind};
use bytes::BufMut;
use bytes::Bytes;
use evfad_tensor::quant::QuantRange;
use evfad_tensor::Matrix;

pub use bytes::BytesMut;

/// Format magic for weight payloads (`"EVFD"`).
pub const MAGIC: [u8; 4] = *b"EVFD";

/// Format magic for 8-bit-quantized update payloads (`"EVQ8"`).
pub const QUANT_MAGIC: [u8; 4] = *b"EVQ8";

/// Current format version of every record. It cannot move:
/// [`weights_checksum`] hashes the `EVFD` header, so bumping it would change
/// every digest. A message layout retires by taking a new tag instead.
pub const VERSION: u16 = 1;

/// Error produced when decoding a weight payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload does not start with the expected magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Payload ended before the declared content. `needed` is the minimum
    /// number of *additional* bytes required for the decoder to make
    /// progress (complete the element it was reading) — a streaming caller
    /// can read at least that much more and retry. Always ≥ 1.
    Truncated {
        /// Additional bytes needed to make decoding progress.
        needed: usize,
    },
    /// A declared tensor shape is implausibly large (corrupt header).
    OversizedTensor {
        /// Declared rows.
        rows: u32,
        /// Declared cols.
        cols: u32,
    },
    /// An enum discriminant byte not defined by this format version.
    UnknownTag(u8),
    /// A structurally impossible declaration (count or index out of range):
    /// the record is corrupt, not truncated — more bytes will not help.
    InvalidRecord(&'static str),
    /// A frame header declared a length beyond the sanity bound.
    OversizedFrame {
        /// Declared frame payload length.
        declared: usize,
    },
    /// The record decoded cleanly but left unconsumed bytes behind. A
    /// record decoder never silently swallows a concatenated next frame —
    /// framing, not guessing, delimits records on a stream.
    TrailingBytes {
        /// Unconsumed bytes after the decoded record.
        extra: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "payload is not an EVFD weight blob"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated { needed } => {
                write!(f, "payload truncated ({needed} more bytes needed)")
            }
            WireError::OversizedTensor { rows, cols } => {
                write!(f, "tensor of {rows}x{cols} exceeds sanity bounds")
            }
            WireError::UnknownTag(tag) => write!(f, "unknown discriminant byte {tag:#04x}"),
            WireError::InvalidRecord(what) => write!(f, "corrupt record: {what}"),
            WireError::OversizedFrame { declared } => {
                write!(f, "frame of {declared} bytes exceeds the sanity bound")
            }
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} unconsumed bytes after the record")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted elements per tensor (64 MiB of f64) — a sanity bound
/// against corrupt headers, far above any model in this workspace.
const MAX_TENSOR_ELEMENTS: u64 = 8 * 1024 * 1024;

/// Maximum accepted embedded blob length (matches the frame sanity bound
/// in [`crate::framing`]): a corrupt length field fails fast instead of
/// asking the decoder for gigabytes.
const MAX_BLOB_BYTES: u32 = 256 << 20;

/// Bounds-checked cursor over a received payload — the only code in this
/// module that slices peer-controlled bytes.
///
/// Invariant: every read consumes exactly the bytes it returns or fails
/// with [`WireError::Truncated`] and consumes nothing; `needed` is then a
/// lower bound on the bytes still missing (never an overshoot) and at
/// least 1. Counts and lengths read from the payload only ever size an
/// allocation after [`Reader::seq`] / [`Reader::bytes`] has matched them
/// against the bytes present.
#[derive(Debug, Clone, Copy)]
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    fn truncated(&self, wanted: usize) -> WireError {
        WireError::Truncated {
            needed: wanted - self.buf.len(),
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self
            .buf
            .split_at_checked(n)
            .ok_or_else(|| self.truncated(n))?;
        self.buf = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.buf = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        self.array().map(u16::from_le_bytes)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        self.array().map(f64::from_le_bytes)
    }

    /// A presence / boolean byte: `0` or `1`, anything else is a tag this
    /// format version does not define.
    fn flag(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag(tag)),
        }
    }

    /// `n` consecutive little-endian `f64`s.
    fn f64s(&mut self, n: usize) -> Result<impl Iterator<Item = f64> + 'a, WireError> {
        let (chunks, _) = self.bytes(n.saturating_mul(8))?.as_chunks::<8>();
        Ok(chunks.iter().map(|c| f64::from_le_bytes(*c)))
    }

    /// A `u16`-length-prefixed UTF-8 string.
    fn short_str(&mut self) -> Result<String, WireError> {
        let len = usize::from(self.u16()?);
        String::from_utf8(self.bytes(len)?.to_vec())
            .map_err(|_| WireError::InvalidRecord("string is not UTF-8"))
    }

    /// A `u32`-length-prefixed embedded record, bounded by
    /// [`MAX_BLOB_BYTES`], as a window of `frame`: the bytes this reader
    /// was opened over.
    fn blob(&mut self, frame: &Bytes) -> Result<Bytes, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_BLOB_BYTES as usize {
            return Err(WireError::OversizedFrame { declared: len });
        }
        self.bytes(len)?;
        let end = frame.len() - self.buf.len();
        Ok(frame.slice(end - len..end))
    }

    /// The `magic | version: u16` preamble every record opens with.
    fn header(&mut self, magic: [u8; 4], version: u16) -> Result<(), WireError> {
        if self.array::<4>()? != magic {
            return Err(WireError::BadMagic);
        }
        match self.u16()? {
            v if v == version => Ok(()),
            v => Err(WireError::BadVersion(v)),
        }
    }

    /// Reads a `u32` record count and checks that the bytes behind it can
    /// hold that many records of at least `min_record_bytes` each. The
    /// count it returns is therefore bounded by the payload length: safe
    /// to loop over and to size an allocation with.
    fn seq(&mut self, min_record_bytes: usize) -> Result<usize, WireError> {
        let count = self.u32()? as usize;
        let floor = count.saturating_mul(min_record_bytes);
        if floor > self.buf.len() {
            return Err(self.truncated(floor));
        }
        Ok(count)
    }

    /// A tensor's `rows: u32, cols: u32` header; returns the shape and its
    /// element count, bounded by [`MAX_TENSOR_ELEMENTS`].
    fn shape(&mut self) -> Result<(usize, usize, usize), WireError> {
        let (rows, cols) = (self.u32()?, self.u32()?);
        let elements = u64::from(rows) * u64::from(cols);
        if elements > MAX_TENSOR_ELEMENTS {
            return Err(WireError::OversizedTensor { rows, cols });
        }
        Ok((rows as usize, cols as usize, elements as usize))
    }

    /// A region of `count` `(index: u32, value: f64)` entries whose
    /// indices are `< elements` and strictly ascending — the layout of the
    /// `EVQ8` specials.
    fn entries(&mut self, count: usize, elements: usize) -> Result<&'a [[u8; 12]], WireError> {
        let (region, _) = self.bytes(count.saturating_mul(12))?.as_chunks::<12>();
        let mut floor = 0usize;
        for rec in region {
            let idx = entry(rec).0 as usize;
            if idx >= elements {
                return Err(WireError::InvalidRecord(
                    "quantized special index out of range",
                ));
            }
            if idx < floor {
                return Err(WireError::InvalidRecord(
                    "quantized special indices not strictly ascending",
                ));
            }
            floor = idx + 1;
        }
        Ok(region)
    }

    /// Enforces that a record decoder consumed its input exactly: leftover
    /// bytes mean the caller handed us a concatenation, which only framing
    /// may delimit (see [`crate::framing`]).
    fn finish(self) -> Result<(), WireError> {
        match self.buf.len() {
            0 => Ok(()),
            extra => Err(WireError::TrailingBytes { extra }),
        }
    }
}

/// Splits one `(index: u32, value: f64)` entry.
fn entry(rec: &[u8; 12]) -> (u32, f64) {
    let [i0, i1, i2, i3, value @ ..] = *rec;
    (
        u32::from_le_bytes([i0, i1, i2, i3]),
        f64::from_le_bytes(value),
    )
}

/// Encodes a weight vector into the binary wire format.
///
/// # Examples
///
/// ```
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let weights = vec![Matrix::identity(3)];
/// let blob = wire::encode_weights(&weights);
/// let back = wire::decode_weights(&blob)?;
/// assert_eq!(back, weights);
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn encode_weights(weights: &[Matrix]) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_size(weights));
    encode_weights_into(&mut buf, weights);
    buf.freeze()
}

/// Encodes a weight vector into `buf`, clearing it first but keeping its
/// allocation — the zero-allocation broadcast path: the round loop encodes
/// the global model **once** per round into a reusable buffer and meters
/// every client by the same byte length.
pub fn encode_weights_into(buf: &mut BytesMut, weights: &[Matrix]) {
    buf.clear();
    put_weights(buf, weights);
}

/// Appends the `EVFD` record of `weights` to `buf`.
fn put_weights(buf: &mut BytesMut, weights: &[Matrix]) {
    buf.put_slice(&MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(weights.len() as u32);
    for m in weights {
        buf.put_u32_le(m.rows() as u32);
        buf.put_u32_le(m.cols() as u32);
        for &v in m.as_slice() {
            buf.put_f64_le(v);
        }
    }
}

/// Decodes a payload produced by [`encode_weights`].
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
pub fn decode_weights(payload: &[u8]) -> Result<Vec<Matrix>, WireError> {
    let mut r = Reader::new(payload);
    r.header(MAGIC, VERSION)?;
    let count = r.seq(8)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let (rows, cols, elements) = r.shape()?;
        out.push(Matrix::from_vec(rows, cols, r.f64s(elements)?.collect()));
    }
    r.finish()?;
    Ok(out)
}

/// Size in bytes [`encode_weights`] will produce for these weights.
///
/// Pure O(1)-per-tensor shape arithmetic — no allocation, no
/// serialisation; the round loop meters full-precision uplinks with this.
pub fn encoded_size(weights: &[Matrix]) -> usize {
    weights_size(weights.iter().map(Matrix::len))
}

/// [`encoded_size`] of a model whose tensors hold `lens` values each.
pub(crate) fn weights_size(lens: impl IntoIterator<Item = usize>) -> usize {
    10 + lens.into_iter().map(|n| 8 + n * 8).sum::<usize>()
}

/// Size of the largest `EVQ8` record a model whose tensors hold `lens`
/// values each can produce: every value a special, sent as a code *and*
/// an `(index, value)` entry. No encoding of such a model is larger.
pub(crate) fn quantized_max_size(lens: impl IntoIterator<Item = usize>) -> usize {
    10 + lens.into_iter().map(|n| 28 + 13 * n).sum::<usize>()
}

/// Encodes a quantized update into the `EVQ8` binary wire format: the
/// common header, then per tensor `rows, cols, min: f64, step: f64,
/// special_count: u32, codes: u8…, specials: (index: u32, value: f64)…`.
///
/// # Examples
///
/// ```
/// use evfad_federated::compression::QuantizedUpdate;
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let q = QuantizedUpdate::quantize(&[Matrix::identity(4)]);
/// let blob = wire::encode_quantized(&q);
/// let mut weights = Vec::new();
/// wire::quantized_view(&blob)?.weights_into(&mut weights);
/// assert_eq!(weights, q.dequantize());
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn encode_quantized(update: &QuantizedUpdate) -> Bytes {
    let mut buf = BytesMut::with_capacity(quantized_encoded_size(update));
    encode_quantized_into(&mut buf, update);
    buf.freeze()
}

/// Encodes a quantized update into `buf`, clearing it first but keeping
/// its allocation — the warm-round uplink path: the socket client and the
/// scale engine encode every round into a reusable buffer, so a steady
/// federation allocates nothing per update.
pub fn encode_quantized_into(buf: &mut BytesMut, update: &QuantizedUpdate) {
    buf.clear();
    buf.put_slice(&QUANT_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u32_le(update.tensors.len() as u32);
    for t in &update.tensors {
        buf.put_u32_le(t.rows as u32);
        buf.put_u32_le(t.cols as u32);
        buf.put_f64_le(t.min);
        buf.put_f64_le(t.step);
        buf.put_u32_le(t.special_idx.len() as u32);
        buf.put_slice(&t.codes);
        for (&i, &v) in t.special_idx.iter().zip(&t.special_val) {
            buf.put_u32_le(i);
            buf.put_f64_le(v);
        }
    }
}

/// Size in bytes [`encode_quantized`] will produce — O(1) per tensor.
pub fn quantized_encoded_size(update: &QuantizedUpdate) -> usize {
    10 + update.byte_size()
}

/// Validates an `EVQ8` payload structurally and returns a zero-copy view
/// over it — the fused decode-into-fold path.
///
/// Every structural check (header, shape bounds, special counts, index
/// ranges, strictly-ascending special indices, trailing bytes) runs *up
/// front*, before the caller touches any accumulator state: a corrupt
/// payload errors here, never half-way through a fold. The view then
/// iterates infallibly, decoding each coefficient on the fly — no
/// `Vec<Matrix>` materialization, no allocation at all.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed or truncated payload.
///
/// # Examples
///
/// ```
/// use evfad_federated::compression::QuantizedUpdate;
/// use evfad_federated::wire;
/// use evfad_tensor::Matrix;
///
/// let q = QuantizedUpdate::quantize(&[Matrix::identity(3)]);
/// let blob = wire::encode_quantized(&q);
/// let view = wire::quantized_view(&blob)?;
/// let decoded = q.dequantize();
/// for (t, m) in view.tensors().zip(&decoded) {
///     assert_eq!(t.shape(), m.shape());
///     // No specials here: every coefficient is its code on the range.
///     assert_eq!(t.special_count(), 0);
///     let values = t.codes().iter().map(|&c| t.range().decode(c));
///     assert!(values.zip(m.as_slice()).all(|(a, &b)| a == b));
/// }
/// # Ok::<(), evfad_federated::wire::WireError>(())
/// ```
pub fn quantized_view(payload: &[u8]) -> Result<QuantizedPayloadView<'_>, WireError> {
    let start = QuantWalker::open(payload)?;
    let mut walker = start;
    while walker.next_tensor()?.is_some() {}
    walker.reader.finish()?;
    Ok(QuantizedPayloadView { start })
}

/// A structurally validated `EVQ8` payload; see [`quantized_view`].
#[derive(Debug, Clone, Copy)]
pub struct QuantizedPayloadView<'a> {
    start: QuantWalker<'a>,
}

impl<'a> QuantizedPayloadView<'a> {
    /// Number of tensors in the payload.
    pub fn tensor_count(&self) -> usize {
        self.start.remaining
    }

    /// Decodes the tensors into `out`, overwriting a matrix of the right
    /// shape in place and replacing any other: each value is its code on
    /// its tensor's range, or the special record carrying its index —
    /// what [`QuantizedUpdate::dequantize`] reconstructs.
    pub fn weights_into(&self, out: &mut Vec<Matrix>) {
        out.truncate(self.tensor_count());
        for (i, t) in self.tensors().enumerate() {
            let (rows, cols) = t.shape();
            if i == out.len() {
                out.push(Matrix::zeros(rows, cols));
            } else if out[i].shape() != (rows, cols) {
                out[i] = Matrix::zeros(rows, cols);
            }
            let data = out[i].as_mut_slice();
            let range = t.range();
            for (slot, &code) in data.iter_mut().zip(t.codes()) {
                *slot = range.decode(code);
            }
            for (idx, value) in t.specials() {
                data[idx] = value;
            }
        }
    }

    /// Iterates over the tensors. Infallible: the payload was fully
    /// validated by [`quantized_view`].
    pub fn tensors(&self) -> impl ExactSizeIterator<Item = QuantizedTensorView<'a>> + '_ {
        // Unreachable `Err` and `None`: `start` is a copy of the walker
        // `quantized_view` already drove through its `remaining` tensors to
        // `Ok(None)` over these same immutable bytes, and `next_tensor`
        // reads nothing else, so this walk repeats that one step for step.
        // `wire_proptests::hostile` backs it: the `quantized_view` row
        // re-encodes only through this iterator, and
        // `views_and_decoders_agree_on_every_mutation` and
        // `every_field_forced_to_zero_one_or_max_is_ok_or_a_typed_error`
        // feed it every cut, flip and forced field without a panic.
        let mut walker = self.start;
        let next = move |_: usize| walker.next_tensor().ok().flatten().expect("validated");
        (0..self.start.remaining).map(next)
    }
}

/// One tensor of a validated `EVQ8` payload: shape, range, and the raw
/// codes/specials regions it decodes from on the fly.
#[derive(Debug, Clone, Copy)]
pub struct QuantizedTensorView<'a> {
    rows: usize,
    cols: usize,
    range: QuantRange,
    codes: &'a [u8],
    specials: &'a [[u8; 12]],
}

impl<'a> QuantizedTensorView<'a> {
    /// `(rows, cols)` of the tensor.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of non-finite side records carried verbatim.
    pub fn special_count(&self) -> usize {
        self.specials.len()
    }

    /// The quantization range every code in this tensor decodes against.
    pub fn range(&self) -> QuantRange {
        self.range
    }

    /// The raw row-major code bytes, one per coefficient.
    ///
    /// Together with [`Self::range`] and [`Self::specials`] this exposes
    /// the tensor in bulk form, so hot folds can run tight slice loops
    /// over the runs between specials instead of paying per-coefficient
    /// iterator state. Coefficient `i` is `range().decode(codes()[i])`
    /// unless a special record carries index `i`.
    pub fn codes(&self) -> &'a [u8] {
        self.codes
    }

    /// Iterates the `(flat index, value)` non-finite side records in the
    /// ascending index order the payload stores them in.
    pub fn specials(&self) -> impl ExactSizeIterator<Item = (usize, f64)> + 'a {
        self.specials.iter().map(|rec| {
            let (idx, value) = entry(rec);
            (idx as usize, value)
        })
    }
}

/// The one `EVQ8` parser: a cursor over the tensor records plus how many
/// are left. [`quantized_view`] runs it once to validate and keeps a copy
/// positioned at the first tensor.
#[derive(Debug, Clone, Copy)]
struct QuantWalker<'a> {
    reader: Reader<'a>,
    remaining: usize,
}

impl<'a> QuantWalker<'a> {
    fn open(payload: &'a [u8]) -> Result<Self, WireError> {
        let mut reader = Reader::new(payload);
        reader.header(QUANT_MAGIC, VERSION)?;
        let remaining = reader.seq(28)?;
        Ok(Self { reader, remaining })
    }

    fn next_tensor(&mut self) -> Result<Option<QuantizedTensorView<'a>>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let r = &mut self.reader;
        let (rows, cols, elements) = r.shape()?;
        let range = QuantRange {
            min: r.f64()?,
            step: r.f64()?,
        };
        let special_count = r.u32()? as usize;
        if special_count > elements {
            return Err(WireError::InvalidRecord(
                "quantized special count exceeds tensor elements",
            ));
        }
        Ok(Some(QuantizedTensorView {
            rows,
            cols,
            range,
            codes: r.bytes(elements)?,
            specials: r.entries(special_count, elements)?,
        }))
    }
}

/// FNV-1a checksum of the binary wire encoding of `weights`.
///
/// Bit-exact by construction ([`encode_weights`] stores raw f64 little-
/// endian bytes), so two weight vectors share a checksum iff every
/// coordinate is bit-identical — the property the golden regression
/// fixture (`tests/fixtures/golden_outcome.json`) pins across PRs.
pub fn weights_checksum(weights: &[Matrix]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in encode_weights(weights).iter() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// Fault-kind discriminants (`EVMS` train directives).
const TAG_DROP_OUT: u8 = 0;
const TAG_STRAGGLER: u8 = 1;
const TAG_CORRUPT: u8 = 2;
const TAG_TRANSIENT: u8 = 3;
// Corruption discriminants.
const TAG_NAN_FLOOD: u8 = 0;
const TAG_SIGN_FLIP: u8 = 1;
const TAG_SCALE: u8 = 2;

/// Appends the tagged binary encoding of one fault kind (the `EVMS`
/// envelope's train directive).
fn encode_fault_kind(buf: &mut BytesMut, fault: FaultKind) {
    match fault {
        FaultKind::DropOut => buf.put_u8(TAG_DROP_OUT),
        FaultKind::Straggler { delay_seconds } => {
            buf.put_u8(TAG_STRAGGLER);
            buf.put_f64_le(delay_seconds);
        }
        FaultKind::Corrupt { corruption } => {
            buf.put_u8(TAG_CORRUPT);
            match corruption {
                Corruption::NanFlood => buf.put_u8(TAG_NAN_FLOOD),
                Corruption::SignFlip => buf.put_u8(TAG_SIGN_FLIP),
                Corruption::Scale { factor } => {
                    buf.put_u8(TAG_SCALE);
                    buf.put_f64_le(factor);
                }
            }
        }
        FaultKind::Transient { failures } => {
            buf.put_u8(TAG_TRANSIENT);
            buf.put_u32_le(failures as u32);
        }
    }
}

/// Decodes one tagged fault kind (inverse of [`encode_fault_kind`]).
fn decode_fault_kind(r: &mut Reader<'_>) -> Result<FaultKind, WireError> {
    Ok(match r.u8()? {
        TAG_DROP_OUT => FaultKind::DropOut,
        TAG_STRAGGLER => FaultKind::Straggler {
            delay_seconds: r.f64()?,
        },
        TAG_CORRUPT => FaultKind::Corrupt {
            corruption: match r.u8()? {
                TAG_NAN_FLOOD => Corruption::NanFlood,
                TAG_SIGN_FLIP => Corruption::SignFlip,
                TAG_SCALE => Corruption::Scale { factor: r.f64()? },
                tag => return Err(WireError::UnknownTag(tag)),
            },
        },
        TAG_TRANSIENT => FaultKind::Transient {
            failures: r.u32()? as usize,
        },
        tag => return Err(WireError::UnknownTag(tag)),
    })
}

/// Format magic for socket envelope messages (`"EVMS"`).
pub const MESSAGE_MAGIC: [u8; 4] = *b"EVMS";

// Envelope message discriminants. 1 was the `Welcome` that carried the
// server's whole config as an `EVCF` record; it stays unassigned, so an old
// server's `Welcome` is `UnknownTag(1)`, never a misparse (DESIGN.md §6e).
const TAG_HELLO: u8 = 0;
const TAG_BROADCAST: u8 = 2;
const TAG_TRAIN_REQUEST: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_ACK: u8 = 5;
const TAG_DONE: u8 = 6;
const TAG_ABORT: u8 = 7;
const TAG_WELCOME: u8 = 8;
// Compression-mode discriminants (`Welcome`). 2 was `TopKDelta { k: u32 }`,
// retired on evidence and never to be reassigned.
const TAG_COMP_NONE: u8 = 0;
const TAG_COMP_QUANT8: u8 = 1;

/// One message of the socket protocol (`EVMS` envelope). The heavy fields
/// (`global`, `payload`) carry already-encoded `EVFD`/`EVQ8` records verbatim, so the envelope adds framing without re-encoding —
/// what the server meters is exactly `payload.len()`.
///
/// The round trip is driven by [`encode_message`]/[`decode_message`]; see
/// [`crate::socket`] for who sends what when.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: first message on the control connection.
    Hello {
        /// The connecting client's roster id.
        client_id: String,
    },
    /// Server → client: handshake reply carrying what a client reads of
    /// the run's schedule — how to train, how to encode its uplink, how to
    /// retry — and the shared initial global weights as an `EVFD` blob.
    Welcome {
        /// Local epochs per round.
        epochs_per_round: u32,
        /// Local mini-batch size.
        batch_size: u32,
        /// Uplink encoding.
        compression: CompressionMode,
        /// Upload retries after the first attempt (`0` without a fault
        /// plan).
        retry_budget: u32,
        /// First retry backoff in seconds (`0.0` without a fault plan).
        backoff_base_seconds: f64,
        /// `EVFD`-encoded initial global weights.
        init_global: Bytes,
    },
    /// Server → client: the per-round global model broadcast (`EVFD`).
    Broadcast {
        /// Zero-based round index.
        round: u32,
        /// `EVFD`-encoded global weights.
        global: Bytes,
    },
    /// Server → client: train this round, optionally under an injected
    /// fault the client must enact (corrupt before upload, delay, fail
    /// uploads). Sent only to sampled, non-dropped-out clients.
    TrainRequest {
        /// Zero-based round index.
        round: u32,
        /// Fault directive from the server's fault plan.
        fault: Option<FaultKind>,
    },
    /// Client → server: one upload attempt of a trained update. Sent on a
    /// fresh connection per attempt so a server-side nack is a real
    /// connection loss.
    Update {
        /// Zero-based round index.
        round: u32,
        /// Uploading client's roster id.
        client_id: String,
        /// Local sample count (FedAvg weighting).
        sample_count: u64,
        /// Final local training loss.
        train_loss: f64,
        /// The encoded update: `EVFD` or `EVQ8` per the run's
        /// [`crate::CompressionMode`].
        payload: Bytes,
    },
    /// Server → client: the upload attempt was accepted.
    Ack {
        /// Round being acknowledged.
        round: u32,
    },
    /// Server → client: the run finished; carries the final global
    /// weights (`EVFD`).
    Done {
        /// `EVFD`-encoded final global weights.
        global: Bytes,
    },
    /// Server → client: the run failed; carries the error message.
    Abort {
        /// Human-readable failure description.
        message: String,
    },
}

#[cfg(test)]
thread_local!(pub(crate) static ENVELOPES: std::cell::Cell<usize> = Default::default());

/// Clears `buf` and writes the envelope preamble and `tag`.
fn open(buf: &mut BytesMut, tag: u8) {
    #[cfg(test)]
    ENVELOPES.with(|n| n.set(n.get() + 1)); // Envelopes this thread encoded.
    buf.clear();
    buf.put_slice(&MESSAGE_MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u8(tag);
}

fn put_blob(buf: &mut BytesMut, blob: &[u8]) {
    buf.put_u32_le(blob.len() as u32);
    buf.put_slice(blob);
}

/// Refuses an id longer than the `u16` length prefix of its wire field
/// can carry — `put_short_str` would misframe it — as an invalid `field`.
pub(crate) fn check_id(field: &str, id: &str) -> Result<(), FederatedError> {
    if id.len() <= usize::from(u16::MAX) {
        return Ok(());
    }
    Err(FederatedError::InvalidConfig {
        field: field.to_string(),
        message: format!(
            "an id of {} bytes exceeds the wire's {}-byte limit",
            id.len(),
            u16::MAX
        ),
    })
}

fn put_short_str(buf: &mut BytesMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

/// Encodes one envelope message into `buf`, clearing it first but keeping
/// its allocation. Layout: `"EVMS" | version: u16 | tag: u8 | body`.
pub fn encode_message(buf: &mut BytesMut, msg: &Message) {
    match msg {
        Message::Hello { client_id } => {
            open(buf, TAG_HELLO);
            put_short_str(buf, client_id);
        }
        Message::Welcome {
            epochs_per_round,
            batch_size,
            compression,
            retry_budget,
            backoff_base_seconds,
            init_global,
        } => {
            open(buf, TAG_WELCOME);
            buf.put_u32_le(*epochs_per_round);
            buf.put_u32_le(*batch_size);
            buf.put_u8(match compression {
                CompressionMode::None => TAG_COMP_NONE,
                CompressionMode::Quant8 => TAG_COMP_QUANT8,
            });
            buf.put_u32_le(*retry_budget);
            buf.put_f64_le(*backoff_base_seconds);
            put_blob(buf, init_global);
        }
        Message::Broadcast { round, global } => {
            open(buf, TAG_BROADCAST);
            buf.put_u32_le(*round);
            put_blob(buf, global);
        }
        Message::TrainRequest { round, fault } => {
            open(buf, TAG_TRAIN_REQUEST);
            buf.put_u32_le(*round);
            match fault {
                None => buf.put_u8(0),
                Some(f) => {
                    buf.put_u8(1);
                    encode_fault_kind(buf, *f);
                }
            }
        }
        Message::Update {
            round,
            client_id,
            sample_count,
            train_loss,
            payload,
        } => {
            open(buf, TAG_UPDATE);
            buf.put_u32_le(*round);
            put_short_str(buf, client_id);
            buf.put_u64_le(*sample_count);
            buf.put_f64_le(*train_loss);
            put_blob(buf, payload);
        }
        Message::Ack { round } => {
            open(buf, TAG_ACK);
            buf.put_u32_le(*round);
        }
        Message::Done { global } => {
            open(buf, TAG_DONE);
            put_blob(buf, global);
        }
        Message::Abort { message } => {
            open(buf, TAG_ABORT);
            put_blob(buf, message.as_bytes());
        }
    }
}

/// Encodes the [`Message::Broadcast`] of `round`, or with no round the
/// [`Message::Done`], carrying `global`: the bytes [`encode_message`]
/// gives, with the `EVFD` record written in place.
pub(crate) fn encode_global(buf: &mut BytesMut, round: Option<u32>, global: &[Matrix]) {
    open(buf, round.map_or(TAG_DONE, |_| TAG_BROADCAST));
    if let Some(round) = round {
        buf.put_u32_le(round);
    }
    buf.put_u32_le(encoded_size(global) as u32);
    put_weights(buf, global);
}

/// Decodes one envelope message (inverse of [`encode_message`]) from a
/// copy of `payload`. Strict: one message exactly — a frame carries one
/// envelope, so trailing bytes are a protocol error, not a next message.
///
/// # Errors
///
/// Returns [`WireError`] on a malformed, truncated, unknown-tag, or
/// trailing-bytes payload. [`WireError::Truncated::needed`] names the
/// additional bytes required, so a streamed caller can keep reading.
pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
    decode_frame(&Bytes::copy_from_slice(payload))
}

/// [`decode_message`] in place: every blob is a window of `frame`.
///
/// # Errors
///
/// As [`decode_message`].
pub fn decode_frame(frame: &Bytes) -> Result<Message, WireError> {
    let mut r = Reader::new(frame);
    r.header(MESSAGE_MAGIC, VERSION)?;
    let msg = match r.u8()? {
        TAG_HELLO => Message::Hello {
            client_id: r.short_str()?,
        },
        // Struct fields evaluate in the order written, which is wire order.
        TAG_WELCOME => Message::Welcome {
            epochs_per_round: r.u32()?,
            batch_size: r.u32()?,
            compression: match r.u8()? {
                TAG_COMP_NONE => CompressionMode::None,
                TAG_COMP_QUANT8 => CompressionMode::Quant8,
                tag => return Err(WireError::UnknownTag(tag)),
            },
            retry_budget: r.u32()?,
            backoff_base_seconds: r.f64()?,
            init_global: r.blob(frame)?,
        },
        TAG_BROADCAST => Message::Broadcast {
            round: r.u32()?,
            global: r.blob(frame)?,
        },
        TAG_TRAIN_REQUEST => Message::TrainRequest {
            round: r.u32()?,
            fault: if r.flag()? {
                Some(decode_fault_kind(&mut r)?)
            } else {
                None
            },
        },
        TAG_UPDATE => Message::Update {
            round: r.u32()?,
            client_id: r.short_str()?,
            sample_count: r.u64()?,
            train_loss: r.f64()?,
            payload: r.blob(frame)?,
        },
        TAG_ACK => Message::Ack { round: r.u32()? },
        TAG_DONE => Message::Done {
            global: r.blob(frame)?,
        },
        TAG_ABORT => Message::Abort {
            message: String::from_utf8(r.blob(frame)?.to_vec())
                .map_err(|_| WireError::InvalidRecord("abort message is not UTF-8"))?,
        },
        tag => return Err(WireError::UnknownTag(tag)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_weights() -> Vec<Matrix> {
        vec![
            Matrix::from_fn(5, 7, |i, j| (i as f64) - 0.37 * j as f64),
            Matrix::from_vec(1, 4, vec![1.0, -2.5, f64::MIN_POSITIVE, 1e300]),
        ]
    }

    /// The view's decode of an `EVQ8` payload into fresh matrices.
    fn view_weights(payload: &[u8]) -> Result<Vec<Matrix>, WireError> {
        let mut out = Vec::new();
        quantized_view(payload)?.weights_into(&mut out);
        Ok(out)
    }

    /// Raw bits of `weights`: equality that holds for NaN too.
    fn bits(weights: &[Matrix]) -> Bytes {
        encode_weights(weights)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let w = sample_weights();
        let blob = encode_weights(&w);
        assert_eq!(decode_weights(&blob).unwrap(), w);
    }

    #[test]
    fn encoded_size_matches() {
        let w = sample_weights();
        assert_eq!(encode_weights(&w).len(), encoded_size(&w));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut blob = encode_weights(&sample_weights()).to_vec();
        blob[0] = b'X';
        assert_eq!(decode_weights(&blob), Err(WireError::BadMagic));
    }

    #[test]
    fn rejects_bad_version() {
        let mut blob = encode_weights(&sample_weights()).to_vec();
        blob[4] = 99;
        assert!(matches!(
            decode_weights(&blob),
            Err(WireError::BadVersion(_))
        ));
    }

    /// Decodes ever-longer prefixes of `blob`, extending each failed
    /// attempt by exactly the reported `needed` bytes, and asserts the
    /// walk lands precisely on a successful decode at `blob.len()` — the
    /// contract a streaming reader relies on: `needed` is never an
    /// overshoot and always makes progress.
    fn assert_needed_walk<T, F: Fn(&[u8]) -> Result<T, WireError>>(blob: &[u8], decode: F) {
        let mut have = 0usize;
        loop {
            match decode(&blob[..have]) {
                Ok(_) => {
                    assert_eq!(have, blob.len(), "decode succeeded before the full record");
                    return;
                }
                Err(WireError::Truncated { needed }) => {
                    assert!(needed >= 1, "needed must make progress at {have}");
                    assert!(
                        have + needed <= blob.len(),
                        "needed overshoots: {have} + {needed} > {}",
                        blob.len()
                    );
                    have += needed;
                }
                Err(other) => panic!("prefix of {have} bytes gave {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let blob = encode_weights(&sample_weights());
        for cut in 0..blob.len() {
            match decode_weights(&blob[..cut]) {
                Err(WireError::Truncated { needed }) => {
                    assert!(needed >= 1 && cut + needed <= blob.len(), "cut {cut}");
                }
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_needed_walks_to_exact_completion() {
        assert_needed_walk(&encode_weights(&sample_weights()), decode_weights);
        assert_needed_walk(&encode_weights(&[]), decode_weights);
        let q = QuantizedUpdate::quantize(&sample_weights());
        assert_needed_walk(&encode_quantized(&q), view_weights);
    }

    #[test]
    fn concatenated_records_are_never_silently_swallowed() {
        // Two records back to back: decoding the pair as one must fail
        // with the exact surplus, never return the first record as if the
        // second did not exist. Framing, not the record codec, splits a
        // stream.
        let one = encode_weights(&sample_weights());
        let mut two = one.to_vec();
        two.extend_from_slice(&one);
        assert_eq!(
            decode_weights(&two),
            Err(WireError::TrailingBytes { extra: one.len() })
        );
    }

    #[test]
    fn rejects_oversized_header() {
        let mut buf = bytes::BytesMut::new();
        buf.put_slice(&MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u32_le(1);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            decode_weights(&buf),
            Err(WireError::OversizedTensor { .. })
        ));
    }

    #[test]
    fn empty_weight_list_round_trips() {
        let blob = encode_weights(&[]);
        assert_eq!(decode_weights(&blob).unwrap(), Vec::<Matrix>::new());
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let w = vec![Matrix::from_fn(51, 200, |i, j| (i * j) as f64 * 1e-4)];
        let binary = encode_weights(&w).len();
        let json = serde_json::to_vec(&w).unwrap().len();
        assert!(binary < json, "binary {binary} vs json {json}");
    }

    #[test]
    fn checksum_is_sensitive_to_single_bit_flips() {
        let w = sample_weights();
        let base = weights_checksum(&w);
        assert_eq!(base, weights_checksum(&w), "deterministic");
        let mut flipped = w.clone();
        let v = flipped[0].as_slice()[0];
        flipped[0].as_mut_slice()[0] = f64::from_bits(v.to_bits() ^ 1);
        assert_ne!(base, weights_checksum(&flipped));
    }

    #[test]
    fn model_weights_survive_the_wire() {
        use evfad_nn::forecaster_model;
        let mut donor = forecaster_model(8, 3);
        let mut receiver = forecaster_model(8, 4);
        let blob = encode_weights(&donor.weights());
        receiver
            .set_weights(&decode_weights(&blob).unwrap())
            .expect("same shapes");
        let input = [Matrix::column_vector(&[0.1, -0.4, 0.7, 0.2])];
        assert_eq!(donor.predict(&input), receiver.predict(&input));
    }

    #[test]
    fn encode_into_reuses_the_buffer_and_matches_encode() {
        let w = sample_weights();
        let mut buf = BytesMut::with_capacity(encoded_size(&w));
        encode_weights_into(&mut buf, &w);
        assert_eq!(&buf[..], &encode_weights(&w)[..]);
        // A second encode into the same buffer replaces, not appends.
        encode_weights_into(&mut buf, &w);
        assert_eq!(buf.len(), encoded_size(&w));
    }

    #[test]
    fn quantized_round_trips_and_size_matches() {
        let q = QuantizedUpdate::quantize(&sample_weights());
        let blob = encode_quantized(&q);
        assert_eq!(blob.len(), quantized_encoded_size(&q));
        // The view decodes exactly what the update dequantizes to.
        assert_eq!(bits(&view_weights(&blob).unwrap()), bits(&q.dequantize()));
    }

    /// The frame caps of the socket transport rest on these two bounds.
    #[test]
    fn the_evq8_worst_case_is_an_all_special_update_and_bounds_evfd() {
        let w = sample_weights();
        let lens = || w.iter().map(Matrix::len);
        let specials: Vec<Matrix> = w
            .iter()
            .map(|m| Matrix::from_vec(m.rows(), m.cols(), vec![f64::NAN; m.len()]))
            .collect();
        let worst = quantized_max_size(lens());
        assert_eq!(
            worst,
            encode_quantized(&QuantizedUpdate::quantize(&specials)).len()
        );
        assert!(encode_quantized(&QuantizedUpdate::quantize(&w)).len() < worst);
        assert_eq!(weights_size(lens()), encoded_size(&w));
        assert!(encoded_size(&w) < worst);
    }

    /// Pinned byte fixture for the `EVQ8` blob: the quantize math now
    /// lives in the shared `evfad_tensor::quant` helper (also used by the
    /// int8 inference lane), and this fixture proves the refactor — and
    /// any future change to the shared fold — leaves the wire format
    /// byte-for-byte unchanged.
    #[test]
    fn quantized_encoding_matches_pinned_byte_fixture() {
        let w = vec![
            Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64 * 0.5 - 1.0),
            Matrix::from_rows(&[vec![4.25, f64::NAN, -0.75]]),
        ];
        let q = QuantizedUpdate::quantize(&w);
        let blob = encode_quantized(&q);
        let hex: String = blob.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                // magic "EVQ8", version 1, tensor count 2
                "45565138",
                "0100",
                "02000000",
                // tensor 0: 2x3, min -1.0, step 2.5/255, no specials,
                // codes 0,51,102,153,204,255
                "02000000",
                "03000000",
                "000000000000f0bf",
                "141414141414843f",
                "00000000",
                "00336699ccff",
                // tensor 1: 1x3, min -0.75, step 5/255, one special,
                // codes 255,0,0, special (idx 1, NaN)
                "01000000",
                "03000000",
                "000000000000e8bf",
                "141414141414943f",
                "01000000",
                "ff0000",
                "01000000",
                "000000000000f87f",
            )
        );
        // And the view decodes the fixture to the update's reconstruction.
        assert_eq!(bits(&view_weights(&blob).unwrap()), bits(&q.dequantize()));
    }

    #[test]
    fn quantized_with_nan_specials_round_trips() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[3] = f64::NAN;
        w[0].as_mut_slice()[9] = f64::INFINITY;
        let q = QuantizedUpdate::quantize(&w);
        let deq = view_weights(&encode_quantized(&q)).unwrap();
        assert!(deq[0].as_slice()[3].is_nan());
        assert_eq!(deq[0].as_slice()[9], f64::INFINITY);
    }

    #[test]
    fn compressed_formats_reject_each_others_magic() {
        let q = QuantizedUpdate::quantize(&sample_weights());
        let qblob = encode_quantized(&q);
        assert_eq!(decode_weights(&qblob), Err(WireError::BadMagic));
        let wblob = encode_weights(&sample_weights());
        assert_eq!(view_weights(&wblob), Err(WireError::BadMagic));
    }

    #[test]
    fn quantized_rejects_out_of_range_special_index() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[0] = f64::NAN;
        let q = QuantizedUpdate::quantize(&w);
        let mut blob = encode_quantized(&q).to_vec();
        // First tensor: header(10) + rows/cols(8) + min/step(16) +
        // special_count(4) + codes, then the first special index.
        let idx_at = 10 + 8 + 16 + 4 + q.tensors[0].codes.len();
        blob[idx_at..idx_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            view_weights(&blob),
            Err(WireError::InvalidRecord(_))
        ));
    }

    #[test]
    fn version_is_shared_across_formats() {
        let q = QuantizedUpdate::quantize(&sample_weights());
        let mut blob = encode_quantized(&q).to_vec();
        blob[4] = 77;
        assert!(matches!(
            view_weights(&blob),
            Err(WireError::BadVersion(77))
        ));
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                client_id: "z105".into(),
            },
            Message::Welcome {
                epochs_per_round: 10,
                batch_size: 32,
                compression: CompressionMode::Quant8,
                retry_budget: 2,
                backoff_base_seconds: 0.5,
                init_global: encode_weights(&sample_weights()),
            },
            Message::Broadcast {
                round: 2,
                global: encode_weights(&sample_weights()),
            },
            Message::TrainRequest {
                round: 0,
                fault: None,
            },
            Message::TrainRequest {
                round: 1,
                fault: Some(FaultKind::Transient { failures: 2 }),
            },
            Message::TrainRequest {
                round: 4,
                fault: Some(FaultKind::Corrupt {
                    corruption: Corruption::Scale { factor: -2.5 },
                }),
            },
            Message::Update {
                round: 3,
                client_id: "z108".into(),
                sample_count: 32,
                train_loss: 0.0123,
                payload: encode_weights(&sample_weights()),
            },
            Message::Ack { round: 3 },
            Message::Done {
                global: encode_weights(&sample_weights()),
            },
            Message::Abort {
                message: "round 1 starved".into(),
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        let mut buf = BytesMut::new();
        for msg in sample_messages() {
            encode_message(&mut buf, &msg);
            assert_eq!(decode_message(&buf).unwrap(), msg, "{msg:?}");
        }
    }

    #[test]
    fn broadcast_and_done_encode_as_their_messages_do() {
        let (w, mut direct, mut via) = (sample_weights(), BytesMut::new(), BytesMut::new());
        let global = encode_weights(&w);
        encode_global(&mut direct, Some(3), &w);
        encode_message(&mut via, &Message::Broadcast { round: 3, global });
        assert_eq!(direct, via);
        encode_global(&mut direct, None, &w);
        let global = encode_weights(&w);
        encode_message(&mut via, &Message::Done { global });
        assert_eq!(direct, via);
    }

    #[test]
    fn a_frame_decode_takes_its_blobs_as_windows_of_the_frame() {
        let mut buf = BytesMut::new();
        for msg in sample_messages() {
            encode_message(&mut buf, &msg);
            let frame = Bytes::from(buf.to_vec());
            let decoded = decode_frame(&frame).unwrap();
            assert_eq!(decoded, msg);
            let blob = match &decoded {
                Message::Welcome { init_global: b, .. }
                | Message::Broadcast { global: b, .. }
                | Message::Update { payload: b, .. }
                | Message::Done { global: b } => b,
                _ => continue,
            };
            let at = frame.len() - blob.len();
            assert_eq!(blob.as_ptr(), frame[at..].as_ptr(), "{msg:?}");
        }
    }

    #[test]
    fn every_message_split_at_every_offset_reports_needed_bytes() {
        let mut buf = BytesMut::new();
        for msg in sample_messages() {
            encode_message(&mut buf, &msg);
            let blob = buf.clone().freeze();
            for cut in 0..blob.len() {
                match decode_message(&blob[..cut]) {
                    Err(WireError::Truncated { needed }) => {
                        assert!(
                            needed >= 1 && cut + needed <= blob.len(),
                            "{msg:?} cut {cut} needed {needed}"
                        );
                    }
                    other => panic!("{msg:?} cut at {cut} gave {other:?}"),
                }
            }
            assert_needed_walk(&blob, decode_message);
        }
    }

    #[test]
    fn message_rejects_trailing_and_foreign_magic() {
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &Message::Ack { round: 1 });
        let mut padded = buf.to_vec();
        padded.push(0);
        assert_eq!(
            decode_message(&padded),
            Err(WireError::TrailingBytes { extra: 1 })
        );
        let weights = encode_weights(&sample_weights());
        assert_eq!(decode_message(&weights), Err(WireError::BadMagic));
        buf[4] = 9;
        assert!(matches!(
            decode_message(&buf),
            Err(WireError::BadVersion(9))
        ));
    }

    #[test]
    fn message_rejects_unknown_tags() {
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &Message::Ack { round: 1 });
        buf[6] = 200;
        assert_eq!(decode_message(&buf), Err(WireError::UnknownTag(200)));
    }

    /// An undefined fault-kind tag in a train directive is refused.
    #[test]
    fn fault_kind_rejects_unknown_tags() {
        let mut buf = BytesMut::new();
        encode_message(
            &mut buf,
            &Message::TrainRequest {
                round: 0,
                fault: Some(FaultKind::DropOut),
            },
        );
        let last = buf.len() - 1;
        assert_eq!(buf[last], TAG_DROP_OUT, "layout moved");
        buf[last] = 250;
        assert_eq!(decode_message(&buf), Err(WireError::UnknownTag(250)));
    }

    #[test]
    fn quantized_view_yields_exactly_the_dequantized_values() {
        let mut w = sample_weights();
        w[0].as_mut_slice()[3] = f64::NAN;
        w[0].as_mut_slice()[9] = f64::INFINITY;
        w[1].as_mut_slice()[2] = f64::NEG_INFINITY;
        let q = QuantizedUpdate::quantize(&w);
        let blob = encode_quantized(&q);
        let view = quantized_view(&blob).unwrap();
        let decoded = q.dequantize();
        assert_eq!(view.tensor_count(), decoded.len());
        for (t, m) in view.tensors().zip(&decoded) {
            assert_eq!(t.shape(), m.shape());
            assert_eq!(t.codes().len(), m.len());
            let mut values: Vec<f64> = t.codes().iter().map(|&c| t.range().decode(c)).collect();
            for (idx, value) in t.specials() {
                values[idx] = value;
            }
            for (a, &b) in values.iter().zip(m.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(view.tensors().map(|t| t.special_count()).sum::<usize>(), 3);
        // Decoding into matrices of the right shape overwrites them in
        // place; a missing, surplus or misshapen one is fixed up.
        let mut out = decoded.clone();
        let kept = out[0].as_slice().as_ptr();
        out[0].as_mut_slice().fill(7.0);
        view.weights_into(&mut out);
        assert_eq!(out[0].as_slice().as_ptr(), kept);
        assert_eq!(bits(&out), bits(&decoded));
        for mut out in [
            vec![],
            vec![Matrix::zeros(2, 2)],
            [&decoded[..], &decoded].concat(),
        ] {
            view.weights_into(&mut out);
            assert_eq!(bits(&out), bits(&decoded));
        }
    }

    /// The `Welcome` body is the five schedule values in a fixed 21-byte
    /// layout, then the initial global: nothing else of the server's
    /// configuration crosses.
    #[test]
    fn a_welcome_round_trips_with_exactly_its_schedule() {
        let init_global = encode_weights(&sample_weights());
        let welcome = Message::Welcome {
            epochs_per_round: 3,
            batch_size: 16,
            compression: CompressionMode::None,
            retry_budget: 5,
            backoff_base_seconds: 0.25,
            init_global: init_global.clone(),
        };
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &welcome);
        assert_eq!(decode_message(&buf), Ok(welcome));
        // Preamble 6, tag 1, epochs / batch 8, compression 1, retry 4,
        // backoff 8, blob length 4.
        assert_eq!(buf.len(), 6 + 1 + 21 + 4 + init_global.len());
        assert_eq!(buf[6], TAG_WELCOME);
        assert_eq!(&buf[buf.len() - init_global.len()..], &init_global[..]);
    }

    #[test]
    fn update_payload_crosses_the_envelope_verbatim() {
        // The envelope must not re-encode the inner record: the metered
        // bytes are exactly the payload the client produced.
        let inner = encode_weights(&sample_weights());
        let msg = Message::Update {
            round: 0,
            client_id: "z102".into(),
            sample_count: 7,
            train_loss: 1.5,
            payload: inner.clone(),
        };
        let mut buf = BytesMut::new();
        encode_message(&mut buf, &msg);
        match decode_message(&buf).unwrap() {
            Message::Update { payload, .. } => {
                assert_eq!(&payload[..], &inner[..]);
                assert_eq!(decode_weights(&payload).unwrap(), sample_weights());
            }
            other => panic!("decoded {other:?}"),
        }
    }
}
