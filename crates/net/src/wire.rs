//! The neutral wire format — the paper's *message translation* (§3.5).
//!
//! Participants agree only on this byte format ("an array of pairs of
//! parameters and values"), never on computation graphs. Encoding turns
//! backend-native parameters into the neutral format; decoding parses it into
//! the receiver's own representation. The format follows the principle of
//! information minimization: it carries names, shapes, and values — nothing
//! about architecture, training algorithm, or personalization operators.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! params  := u32 count, entry*
//! entry   := u16 name_len, name bytes (UTF-8), u8 ndim, u32 dim*, f32 value*
//! message := u32 sender, u32 receiver, u16 kind_tag, u64 round, f64 timestamp,
//!            u8 payload_tag, payload_body
//! ```

use crate::message::{Message, MessageKind, Payload, UpdateBody, UpdateRef};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fs_compress::{put_block, take_block, BlockCodecError, CompressedBlock};
use fs_tensor::model::Metrics;
use fs_tensor::{ParamMap, Tensor};
use std::fmt;
use std::sync::Arc;

/// Serialized size of the fixed message header
/// (sender + receiver + kind + round + timestamp).
pub const HEADER_LEN: usize = 4 + 4 + 2 + 8 + 8;

/// Errors raised while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A parameter name was not valid UTF-8.
    BadName,
    /// An unknown message-kind or payload tag was encountered.
    BadTag(u16),
    /// A declared shape does not match the number of values present.
    BadShape,
    /// A delta-encoded payload referenced a model version the receiver does
    /// not hold.
    MissingReference(u64),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "wire data truncated"),
            CodecError::BadName => write!(f, "parameter name is not valid UTF-8"),
            CodecError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            CodecError::BadShape => write!(f, "shape/value-count mismatch"),
            CodecError::MissingReference(v) => {
                write!(f, "delta payload references unavailable model version {v}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<BlockCodecError> for CodecError {
    fn from(e: BlockCodecError) -> Self {
        match e {
            BlockCodecError::Truncated => CodecError::Truncated,
            BlockCodecError::BadName => CodecError::BadName,
            BlockCodecError::BadTag(t) => CodecError::BadTag(t as u16),
            BlockCodecError::BadShape => CodecError::BadShape,
        }
    }
}

/// Exact serialized size of a [`ParamMap`] in the neutral format.
pub fn params_wire_len(params: &ParamMap) -> usize {
    4 + params
        .iter()
        .map(|(name, t)| 2 + name.len() + 1 + 4 * t.shape().len() + 4 * t.numel())
        .sum::<usize>()
}

/// Exact serialized size of a payload (tag byte + body), matching
/// [`encode_message`] byte for byte.
pub fn payload_wire_len(payload: &Payload) -> usize {
    1 + match payload {
        Payload::Empty => 0,
        Payload::Model { params, .. } => 8 + params_wire_len(params),
        Payload::Report { .. } => 16,
        Payload::Bytes(b) => 4 + b.len(),
        Payload::CompressedModel { block, .. } => 8 + block.encoded_len(),
        update => update.as_update().map_or(0, |u| update_wire_len(&u)),
    }
}

/// Body size of any update variant: the three counters, the constituent list
/// of a partial update, then the dense or compressed parameters.
fn update_wire_len(u: &UpdateRef<'_>) -> usize {
    24 + u.constituents.map_or(0, |ids| 4 + 4 * ids.len())
        + match u.body {
            UpdateBody::Dense(params) => params_wire_len(params),
            UpdateBody::Compressed(block) => block.encoded_len(),
        }
}

fn need(buf: &impl Buf, n: usize) -> Result<(), CodecError> {
    if buf.remaining() < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

/// Encodes a [`ParamMap`] into the neutral format.
pub fn encode_params(params: &ParamMap) -> Bytes {
    let mut buf = BytesMut::with_capacity(params.numel() * 4 + params.len() * 32 + 4);
    put_params(&mut buf, params);
    buf.freeze()
}

fn put_params(buf: &mut BytesMut, params: &ParamMap) {
    buf.put_u32_le(params.len() as u32);
    for (name, t) in params.iter() {
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name.as_bytes());
        buf.put_u8(t.shape().len() as u8);
        for &d in t.shape() {
            buf.put_u32_le(d as u32);
        }
        for &v in t.data() {
            buf.put_f32_le(v);
        }
    }
}

/// Decodes a [`ParamMap`] from the neutral format: the owned form of
/// [`decode_params_view`].
pub fn decode_params(buf: &[u8]) -> Result<ParamMap, CodecError> {
    Ok(decode_params_view(buf)?.to_params())
}

/// Iterates the `f32` values stored little-endian in `raw`
/// (`raw.len()` must be a multiple of 4; trailing bytes are ignored).
fn le_f32s(raw: &[u8]) -> impl Iterator<Item = f32> + '_ {
    raw.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Encodes a whole [`Message`] (header + payload) for transport.
pub fn encode_message(msg: &Message) -> Bytes {
    let mut buf = BytesMut::with_capacity(msg.payload_bytes() + 64);
    buf.put_u32_le(msg.sender);
    buf.put_u32_le(msg.receiver);
    buf.put_u16_le(msg.kind.tag());
    buf.put_u64_le(msg.round);
    buf.put_f64_le(msg.timestamp);
    match &msg.payload {
        Payload::Empty => buf.put_u8(0),
        Payload::Model { params, version } => {
            buf.put_u8(1);
            buf.put_u64_le(*version);
            put_params(&mut buf, params);
        }
        Payload::Report { metrics } => {
            buf.put_u8(3);
            buf.put_f32_le(metrics.loss);
            buf.put_f32_le(metrics.accuracy);
            buf.put_u64_le(metrics.n as u64);
        }
        Payload::Bytes(b) => {
            buf.put_u8(4);
            buf.put_u32_le(b.len() as u32);
            buf.put_slice(b);
        }
        Payload::CompressedModel { block, version } => {
            buf.put_u8(5);
            buf.put_u64_le(*version);
            put_block(&mut buf, block);
        }
        update => match update.as_update() {
            Some(u) => put_update(&mut buf, &u),
            None => debug_assert!(false, "{update:?} has no wire encoding"),
        },
    }
    buf.freeze()
}

/// Payload tag of an update, by what it carries. [`take_update`] reads the
/// same table backwards.
fn update_tag(dense: bool, partial: bool) -> u8 {
    match (dense, partial) {
        (true, false) => 2,
        (false, false) => 6,
        (true, true) => 7,
        (false, true) => 8,
    }
}

/// Writes any update variant: tag, the three counters, the constituent list
/// of a partial update, then the dense or compressed parameters.
fn put_update(buf: &mut BytesMut, u: &UpdateRef<'_>) {
    let dense = matches!(u.body, UpdateBody::Dense(_));
    buf.put_u8(update_tag(dense, u.constituents.is_some()));
    buf.put_u64_le(u.start_version);
    buf.put_u64_le(u.n_samples);
    buf.put_u64_le(u.n_steps);
    if let Some(ids) = u.constituents {
        buf.put_u32_le(ids.len() as u32);
        for &id in ids {
            buf.put_u32_le(id);
        }
    }
    match u.body {
        UpdateBody::Dense(params) => put_params(buf, params),
        UpdateBody::Compressed(block) => put_block(buf, block),
    }
}

fn take_constituents(buf: &mut &[u8]) -> Result<Vec<u32>, CodecError> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    need(buf, count.checked_mul(4).ok_or(CodecError::BadShape)?)?;
    let mut ids = Vec::with_capacity(count);
    for _ in 0..count {
        ids.push(buf.get_u32_le());
    }
    Ok(ids)
}

/// Decodes a whole [`Message`] from transport bytes: the owned form of
/// [`decode_message_view`].
pub fn decode_message(buf: &[u8]) -> Result<Message, CodecError> {
    Ok(decode_message_view(buf)?.to_message())
}

// ---------------------------------------------------------------------------
// The parser: zero-copy views
// ---------------------------------------------------------------------------
//
// The view decoders are the only code that reads the format. They keep
// tensor payloads as borrowed little-endian byte slices into the receive
// buffer, so a consumer that uses the values exactly once (a backend store
// refreshing its parameters in place) never copies them into fresh
// `Vec<f32>`s; a consumer that needs ownership materializes it with one
// `to_params` / `to_message` — which is all `decode_params` and
// `decode_message` are.
//
// Invariants:
// * A view borrows the receive buffer: it must be consumed before the buffer
//   is reused or freed (the borrow checker enforces this; no view type is
//   `'static`).
// * The wire layout gives no alignment guarantee, so views hold `&[u8]` and
//   decode `f32`s on the fly via `from_le_bytes` — never an unsafe cast to
//   `&[f32]`. Decoding a value from bytes is exact (same bits).
// * The whole-buffer entry points (`decode_params_view`,
//   `decode_message_view`) reject bytes left over after a complete
//   structure: a length-prefixed frame longer than its message is corrupt.

/// A tensor parsed without copying its values: the shape is owned (tiny),
/// the values remain little-endian bytes borrowed from the receive buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct TensorView<'a> {
    shape: Vec<usize>,
    /// `4 * numel` little-endian `f32` bytes.
    data: &'a [u8],
}

impl<'a> TensorView<'a> {
    /// The declared shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of values.
    pub fn numel(&self) -> usize {
        self.data.len() / 4
    }

    /// Iterates the values, decoding each `f32` from the wire bytes.
    pub fn values(&self) -> impl Iterator<Item = f32> + 'a {
        le_f32s(self.data)
    }

    /// Materializes an owned [`Tensor`] (the one copy, when the caller needs
    /// ownership after all).
    pub fn to_tensor(&self) -> Tensor {
        let mut data = Vec::with_capacity(self.numel());
        data.extend(self.values());
        Tensor::from_vec(self.shape.clone(), data)
    }
}

/// A [`ParamMap`] parsed without copying tensor values — the borrowed
/// counterpart of [`decode_params`]. Entry names are borrowed `&str`s and
/// values are [`TensorView`]s into the receive buffer.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParamsView<'a> {
    entries: Vec<(&'a str, TensorView<'a>)>,
}

impl<'a> ParamsView<'a> {
    /// Number of parameter entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in wire order (the encoder writes [`ParamMap`]
    /// entries in sorted-name order, so this matches `ParamMap::iter`).
    pub fn iter(&self) -> impl Iterator<Item = (&'a str, &TensorView<'a>)> {
        self.entries.iter().map(|(n, t)| (*n, t))
    }

    /// Materializes an owned [`ParamMap`].
    pub fn to_params(&self) -> ParamMap {
        let mut out = ParamMap::new();
        for (name, t) in &self.entries {
            out.insert_shared(Arc::from(*name), t.to_tensor());
        }
        out
    }
}

/// Parses the neutral format, keeping tensor values in the buffer. `buf`
/// must hold exactly one parameter map.
pub fn decode_params_view(mut buf: &[u8]) -> Result<ParamsView<'_>, CodecError> {
    let params = take_params_view(&mut buf)?;
    exhausted(buf)?;
    Ok(params)
}

/// Bytes left over after a complete structure mean the frame is corrupt.
fn exhausted(rest: &[u8]) -> Result<(), CodecError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(CodecError::BadShape)
    }
}

fn take_params_view<'a>(buf: &mut &'a [u8]) -> Result<ParamsView<'a>, CodecError> {
    need(buf, 4)?;
    let count = buf.get_u32_le() as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        need(buf, 2)?;
        let name_len = buf.get_u16_le() as usize;
        need(buf, name_len)?;
        let name = std::str::from_utf8(&buf[..name_len]).map_err(|_| CodecError::BadName)?;
        buf.advance(name_len);
        need(buf, 1)?;
        let ndim = buf.get_u8() as usize;
        need(buf, 4 * ndim)?;
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(buf.get_u32_le() as usize);
        }
        // checked product: a crafted frame must yield a decode error, not an
        // overflow panic or huge allocation
        let numel = shape
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or(CodecError::BadShape)?;
        let bytes = numel.checked_mul(4).ok_or(CodecError::BadShape)?;
        need(buf, bytes)?;
        let data = &buf[..bytes];
        buf.advance(bytes);
        entries.push((name, TensorView { shape, data }));
    }
    Ok(ParamsView { entries })
}

/// Borrowed counterpart of [`Payload`]: parameter-carrying variants hold
/// [`ParamsView`]s and raw byte payloads stay borrowed. Compressed blocks
/// are decoded owned — their encodings (packed quantized bytes, sparse
/// index/value lists) are already compact and are restructured during
/// decompression anyway.
#[derive(Clone, Debug, PartialEq)]
pub enum PayloadView<'a> {
    /// No payload.
    Empty,
    /// Full model broadcast.
    Model {
        /// Borrowed parameters.
        params: ParamsView<'a>,
        /// Model version.
        version: u64,
    },
    /// Any of the four update variants (see [`UpdateRef`] for the shape).
    Update {
        /// Borrowed dense parameters, or the decoded block.
        body: UpdateBody<ParamsView<'a>, CompressedBlock>,
        /// Version the work started from.
        start_version: u64,
        /// Sample count behind the update.
        n_samples: u64,
        /// Local step count.
        n_steps: u64,
        /// Contributing client ids of a partial update.
        constituents: Option<Vec<u32>>,
    },
    /// Evaluation metrics.
    Report {
        /// The metrics.
        metrics: Metrics,
    },
    /// Opaque bytes, borrowed from the buffer.
    Bytes(&'a [u8]),
    /// Compressed model broadcast.
    CompressedModel {
        /// The decoded block (owned; see type docs).
        block: CompressedBlock,
        /// Model version.
        version: u64,
    },
}

impl PayloadView<'_> {
    /// Materializes an owned [`Payload`].
    pub fn to_payload(&self) -> Payload {
        match self {
            PayloadView::Empty => Payload::Empty,
            PayloadView::Model { params, version } => Payload::Model {
                params: params.to_params(),
                version: *version,
            },
            PayloadView::Update {
                body,
                start_version,
                n_samples,
                n_steps,
                constituents,
            } => {
                let body = match body {
                    UpdateBody::Dense(params) => UpdateBody::Dense(params.to_params()),
                    UpdateBody::Compressed(block) => UpdateBody::Compressed(block.clone()),
                };
                let constituents = constituents.clone();
                Payload::from_update_body(body, *start_version, *n_samples, *n_steps, constituents)
            }
            PayloadView::Report { metrics } => Payload::Report { metrics: *metrics },
            PayloadView::Bytes(b) => Payload::Bytes(b.to_vec()),
            PayloadView::CompressedModel { block, version } => Payload::CompressedModel {
                block: block.clone(),
                version: *version,
            },
        }
    }
}

/// Borrowed counterpart of [`Message`]: the header is parsed eagerly (it is
/// 26 fixed bytes), the payload stays a view into the buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct MessageView<'a> {
    /// Sending participant.
    pub sender: u32,
    /// Receiving participant.
    pub receiver: u32,
    /// Message kind.
    pub kind: MessageKind,
    /// Round the message belongs to.
    pub round: u64,
    /// Sender-side timestamp.
    pub timestamp: f64,
    /// The borrowed payload.
    pub payload: PayloadView<'a>,
}

impl MessageView<'_> {
    /// Materializes an owned [`Message`].
    pub fn to_message(&self) -> Message {
        Message {
            sender: self.sender,
            receiver: self.receiver,
            kind: self.kind,
            round: self.round,
            timestamp: self.timestamp,
            payload: self.payload.to_payload(),
        }
    }
}

/// Parses the header and wraps the payload as a view, copying nothing but
/// shapes and names. `buf` must hold exactly one message.
pub fn decode_message_view(mut buf: &[u8]) -> Result<MessageView<'_>, CodecError> {
    need(&buf, HEADER_LEN + 1)?;
    let sender = buf.get_u32_le();
    let receiver = buf.get_u32_le();
    let kind_tag = buf.get_u16_le();
    let kind = MessageKind::from_tag(kind_tag).ok_or(CodecError::BadTag(kind_tag))?;
    let round = buf.get_u64_le();
    let timestamp = buf.get_f64_le();
    let payload_tag = buf.get_u8();
    let payload = match payload_tag {
        0 => PayloadView::Empty,
        1 => {
            need(&buf, 8)?;
            let version = buf.get_u64_le();
            let params = take_params_view(&mut buf)?;
            PayloadView::Model { params, version }
        }
        3 => {
            need(&buf, 16)?;
            let loss = buf.get_f32_le();
            let accuracy = buf.get_f32_le();
            let n = buf.get_u64_le() as usize;
            PayloadView::Report {
                metrics: Metrics { loss, accuracy, n },
            }
        }
        4 => {
            need(&buf, 4)?;
            let len = buf.get_u32_le() as usize;
            need(&buf, len)?;
            let b = &buf[..len];
            buf.advance(len);
            PayloadView::Bytes(b)
        }
        5 => {
            need(&buf, 8)?;
            let version = buf.get_u64_le();
            let block = take_block(&mut buf)?;
            PayloadView::CompressedModel { block, version }
        }
        2 | 6 | 7 | 8 => take_update(payload_tag, &mut buf)?,
        t => return Err(CodecError::BadTag(t as u16)),
    };
    exhausted(buf)?;
    Ok(MessageView {
        sender,
        receiver,
        kind,
        round,
        timestamp,
        payload,
    })
}

/// Reads the body [`put_update`] wrote under `tag`.
fn take_update<'a>(tag: u8, buf: &mut &'a [u8]) -> Result<PayloadView<'a>, CodecError> {
    let dense = tag == update_tag(true, false) || tag == update_tag(true, true);
    let partial = tag == update_tag(dense, true);
    need(buf, 24)?;
    let start_version = buf.get_u64_le();
    let n_samples = buf.get_u64_le();
    let n_steps = buf.get_u64_le();
    let constituents = partial.then(|| take_constituents(buf)).transpose()?;
    let body = if dense {
        UpdateBody::Dense(take_params_view(buf)?)
    } else {
        UpdateBody::Compressed(take_block(buf)?)
    };
    Ok(PayloadView::Update {
        body,
        start_version,
        n_samples,
        n_steps,
        constituents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_compress::{CompressedBlock, CompressedTensor, Encoding};

    fn sample_block() -> CompressedBlock {
        CompressedBlock {
            delta: true,
            ref_version: 11,
            tensors: vec![
                CompressedTensor {
                    name: "w".into(),
                    shape: vec![2, 2],
                    encoding: Encoding::Quantized {
                        bits: 8,
                        min: -1.0,
                        max: 1.0,
                        packed: vec![0, 128, 255, 64],
                    },
                },
                CompressedTensor {
                    name: "b".into(),
                    shape: vec![4],
                    encoding: Encoding::Sparse {
                        indices: vec![1, 3],
                        values: vec![0.5, -0.25],
                    },
                },
            ],
        }
    }

    fn sample_params() -> ParamMap {
        let mut p = ParamMap::new();
        p.insert(
            "fc.weight",
            Tensor::from_vec(vec![2, 3], vec![1.0, -2.0, 3.5, 0.0, 4.25, -1.5]),
        );
        p.insert("fc.bias", Tensor::from_vec(vec![3], vec![0.1, 0.2, 0.3]));
        p
    }

    #[test]
    fn params_roundtrip() {
        let p = sample_params();
        let bytes = encode_params(&p);
        let q = decode_params(&bytes).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn empty_params_roundtrip() {
        let p = ParamMap::new();
        assert_eq!(decode_params(&encode_params(&p)).unwrap(), p);
    }

    /// The corrupt-length table: every strict prefix of a valid encoding is
    /// `Truncated`, and a buffer longer than the structure it holds is
    /// `BadShape`.
    fn assert_only_the_exact_length_decodes(
        bytes: &[u8],
        decode: impl Fn(&[u8]) -> Result<(), CodecError>,
    ) {
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]).err(),
                Some(CodecError::Truncated),
                "cut={cut}"
            );
        }
        assert!(decode(bytes).is_ok());
        let mut longer = bytes.to_vec();
        longer.push(0);
        assert_eq!(decode(&longer).err(), Some(CodecError::BadShape));
    }

    #[test]
    fn params_of_any_other_length_are_rejected() {
        let bytes = encode_params(&sample_params());
        assert_only_the_exact_length_decodes(&bytes, |b| decode_params(b).map(drop));
        assert_only_the_exact_length_decodes(&bytes, |b| decode_params_view(b).map(drop));
    }

    /// One payload per wire tag 0–8.
    fn every_payload() -> Vec<Payload> {
        vec![
            Payload::Empty,
            Payload::Model {
                params: sample_params(),
                version: 9,
            },
            Payload::Update {
                params: sample_params(),
                start_version: 7,
                n_samples: 123,
                n_steps: 4,
            },
            Payload::Report {
                metrics: Metrics {
                    loss: 0.5,
                    accuracy: 0.9,
                    n: 42,
                },
            },
            Payload::Bytes(vec![1, 2, 3, 4, 5]),
            Payload::CompressedModel {
                block: sample_block(),
                version: 9,
            },
            Payload::CompressedUpdate {
                block: sample_block(),
                start_version: 7,
                n_samples: 123,
                n_steps: 4,
            },
            Payload::PartialUpdate {
                params: sample_params(),
                start_version: 6,
                n_samples: 246,
                n_steps: 4,
                constituents: vec![2, 5, 9],
            },
            Payload::CompressedPartialUpdate {
                block: sample_block(),
                start_version: 6,
                n_samples: 246,
                n_steps: 4,
                constituents: vec![1, 4],
            },
        ]
    }

    #[test]
    fn message_roundtrip_all_payloads() {
        for payload in every_payload() {
            let mut m = Message::new(3, 0, MessageKind::Updates, 5, payload);
            m.timestamp = 123.456;
            let bytes = encode_message(&m);
            let d = decode_message(&bytes).unwrap();
            assert_eq!(m, d);
            // payload_bytes must be the exact serialized size, not an estimate
            assert_eq!(bytes.len(), HEADER_LEN + m.payload_bytes());
            assert_eq!(bytes.len(), m.wire_bytes());
        }
    }

    #[test]
    fn messages_of_any_other_length_are_rejected() {
        for payload in every_payload() {
            let bytes = encode_message(&Message::new(1, 0, MessageKind::Updates, 2, payload));
            assert_only_the_exact_length_decodes(&bytes, |b| decode_message(b).map(drop));
            assert_only_the_exact_length_decodes(&bytes, |b| decode_message_view(b).map(drop));
        }
    }

    #[test]
    fn bad_kind_tag_rejected() {
        // construct the corrupt frame directly: header with kind tag 0x00FF
        // (unassigned) followed by an empty payload
        let mut raw = BytesMut::with_capacity(HEADER_LEN + 1);
        raw.put_u32_le(1); // sender
        raw.put_u32_le(0); // receiver
        raw.put_u16_le(0x00FF); // corrupt kind tag
        raw.put_u64_le(0); // round
        raw.put_f64_le(1.0); // timestamp
        raw.put_u8(0); // Payload::Empty
        assert!(matches!(decode_message(&raw), Err(CodecError::BadTag(_))));
    }

    #[test]
    fn format_carries_no_architecture_information() {
        // information minimization: the wire bytes contain names, shapes and
        // values only — two independently constructed identical models
        // produce byte-identical encodings.
        let a = encode_params(&sample_params());
        let b = encode_params(&sample_params());
        assert_eq!(a, b);
    }

    #[test]
    fn params_view_matches_owned_decode() {
        let p = sample_params();
        let bytes = encode_params(&p);
        let view = decode_params_view(&bytes).unwrap();
        assert_eq!(view.len(), p.len());
        assert_eq!(view.to_params(), p);
        // entries come out in the same (sorted-name) order as ParamMap::iter
        for ((vn, vt), (pn, pt)) in view.iter().zip(p.iter()) {
            assert_eq!(vn, pn);
            assert_eq!(vt.shape(), pt.shape());
            assert_eq!(vt.values().collect::<Vec<_>>(), pt.data());
        }
    }
}
