//! Property tests over the one wire parser: every payload kind and every
//! compression codec survives `encode → decode → encode` byte for byte, and
//! a buffer of any length other than the encoding's is rejected.
//!
//! The view parser is the only code that reads the format (`decode_message`
//! and `decode_params` are its owned forms), so there is no second decoder to
//! agree with; `wire_golden.rs` pins the bytes themselves. Round trips are
//! compared as re-encoded bytes — encoding is a bijection on decoded values
//! (each `f32` is written back as the same four little-endian bytes), so
//! byte-equal re-encodings mean bit-equal values even for NaN payloads, where
//! `PartialEq` would lie.

use fs_compress::{Compressor, DeltaEncode, Identity, TopK, UniformQuant};
use fs_net::wire::{
    decode_message, decode_message_view, decode_params, decode_params_view, encode_message,
    encode_params, CodecError,
};
use fs_net::{Message, MessageKind, Payload};
use fs_tensor::model::Metrics;
use fs_tensor::{ParamMap, Tensor};
use proptest::prelude::*;

/// A random tensor: up to 3 dims, values drawn from raw bit patterns so the
/// space includes NaN, infinities, subnormals, and negative zero.
fn tensor_strategy() -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(1usize..5, 0..3).prop_flat_map(|shape| {
        let numel = shape.iter().product::<usize>();
        proptest::collection::vec(any::<u32>(), numel).prop_map(move |bits| {
            Tensor::from_vec(
                shape.clone(),
                bits.into_iter().map(f32::from_bits).collect(),
            )
        })
    })
}

fn params_strategy() -> impl Strategy<Value = ParamMap> {
    proptest::collection::btree_map("[a-z]{1,8}(\\.[a-z]{1,8})?", tensor_strategy(), 0..5).prop_map(
        |m| {
            let mut p = ParamMap::new();
            for (name, t) in m {
                p.insert(name, t);
            }
            p
        },
    )
}

/// Finite-valued params for codec tests (quantization ranges over the data,
/// so NaN/inf inputs are out of the codecs' contract).
fn finite_params_strategy() -> impl Strategy<Value = ParamMap> {
    proptest::collection::btree_map(
        "[a-z]{1,8}",
        proptest::collection::vec(1usize..5, 1..3).prop_flat_map(|shape| {
            let numel = shape.iter().product::<usize>();
            proptest::collection::vec(-1e6f32..1e6f32, numel)
                .prop_map(move |data| Tensor::from_vec(shape.clone(), data))
        }),
        1..4,
    )
    .prop_map(|m| {
        let mut p = ParamMap::new();
        for (name, t) in m {
            p.insert(name, t);
        }
        p
    })
}

/// `encode → decode → encode` is the identity on bytes, through the view and
/// through its owned form.
fn assert_roundtrips(msg: &Message) {
    let bytes = encode_message(msg);
    let view = decode_message_view(&bytes).expect("view decode");
    assert_eq!(encode_message(&view.to_message()), bytes);
    let owned = decode_message(&bytes).expect("owned decode");
    assert_eq!(encode_message(&owned), bytes);
}

/// A strict prefix is `Truncated`; a buffer with bytes left over after the
/// complete structure is `BadShape`.
fn assert_wrong_length_rejected(
    bytes: &[u8],
    frac: f64,
    extra: u8,
    decode: impl Fn(&[u8]) -> Result<(), CodecError>,
) {
    let cut = ((bytes.len() as f64) * frac) as usize;
    assert_eq!(
        decode(&bytes[..cut]),
        Err(CodecError::Truncated),
        "cut={cut}"
    );
    let mut longer = bytes.to_vec();
    longer.push(extra);
    assert_eq!(decode(&longer), Err(CodecError::BadShape));
}

proptest! {
    /// Any parameter map re-encodes to the bytes it was decoded from,
    /// including non-finite values.
    #[test]
    fn params_roundtrip_to_the_same_bytes(p in params_strategy()) {
        let bytes = encode_params(&p);
        let view = decode_params_view(&bytes).unwrap();
        prop_assert_eq!(encode_params(&view.to_params()), bytes.clone());
        prop_assert_eq!(encode_params(&decode_params(&bytes).unwrap()), bytes);
    }

    /// Cutting the buffer anywhere, or appending to it, is an error.
    #[test]
    fn params_of_any_other_length_are_rejected(
        p in params_strategy(),
        frac in 0.0f64..1.0,
        extra in any::<u8>(),
    ) {
        let bytes = encode_params(&p);
        assert_wrong_length_rejected(&bytes, frac, extra, |b| decode_params_view(b).map(drop));
        assert_wrong_length_rejected(&bytes, frac, extra, |b| decode_params(b).map(drop));
    }

    /// Every uncompressed payload kind round-trips, and is rejected at any
    /// other length.
    #[test]
    fn plain_payloads_roundtrip_and_reject_other_lengths(
        p in params_strategy(),
        raw in proptest::collection::vec(any::<u8>(), 0..64),
        version in any::<u64>(),
        n_samples in any::<u64>(),
        n_steps in any::<u64>(),
        frac in 0.0f64..1.0,
        extra in any::<u8>(),
    ) {
        let payloads = vec![
            Payload::Empty,
            Payload::Model { params: p.clone(), version },
            Payload::Update {
                params: p.clone(),
                start_version: version,
                n_samples,
                n_steps,
            },
            Payload::Report {
                metrics: Metrics { loss: 0.25, accuracy: 0.75, n: 7 },
            },
            Payload::Bytes(raw),
            Payload::PartialUpdate {
                params: p,
                start_version: version,
                n_samples,
                n_steps,
                constituents: vec![1, 3, 5],
            },
        ];
        for payload in payloads {
            let mut m = Message::new(2, 0, MessageKind::Updates, 4, payload);
            m.timestamp = 9.5;
            assert_roundtrips(&m);
            let bytes = encode_message(&m);
            assert_wrong_length_rejected(&bytes, frac, extra, |b| decode_message_view(b).map(drop));
            assert_wrong_length_rejected(&bytes, frac, extra, |b| decode_message(b).map(drop));
        }
    }

    /// Every compressed payload kind × codec round-trips.
    #[test]
    fn compressed_payloads_roundtrip(p in finite_params_strategy()) {
        let codecs: Vec<Box<dyn Compressor>> = vec![
            Box::new(Identity),
            Box::new(UniformQuant::new(8)),
            Box::new(UniformQuant::new(4)),
            Box::new(TopK::new(0.5)),
            Box::new(DeltaEncode::new(Box::new(UniformQuant::new(8)))),
        ];
        for mut codec in codecs {
            codec.set_reference(&p, 3); // no-op for non-delta codecs
            let block = codec.compress(&p);
            let payloads = vec![
                Payload::CompressedModel { block: block.clone(), version: 3 },
                Payload::CompressedUpdate {
                    block: block.clone(),
                    start_version: 3,
                    n_samples: 17,
                    n_steps: 2,
                },
                Payload::CompressedPartialUpdate {
                    block,
                    start_version: 3,
                    n_samples: 17,
                    n_steps: 2,
                    constituents: vec![2, 4],
                },
            ];
            for payload in payloads {
                assert_roundtrips(&Message::new(1, 0, MessageKind::Updates, 3, payload));
            }
        }
    }
}
