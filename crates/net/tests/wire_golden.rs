//! Golden wire bytes: the neutral format pinned against bytes committed
//! here, not against a second implementation of itself.
//!
//! One message per payload tag 0–8, plus a `Custom` message kind and
//! non-finite tensor values. A change to the encoder or the parser that
//! moves a single byte — a reordered field, a different length prefix, a tag
//! renumbered — fails this file even when encoder and parser still agree
//! with each other.

use fs_compress::{CompressedBlock, CompressedTensor, Encoding};
use fs_net::wire::{decode_message, decode_message_view, encode_message};
use fs_net::{Message, MessageKind, Payload};
use fs_tensor::model::Metrics;
use fs_tensor::{ParamMap, Tensor};

fn params() -> ParamMap {
    let mut p = ParamMap::new();
    p.insert(
        "fc.weight",
        Tensor::from_vec(vec![2, 2], vec![1.0, -2.0, 0.5, 0.0]),
    );
    p.insert("fc.bias", Tensor::from_vec(vec![2], vec![0.25, -0.125]));
    p
}

/// NaN with a payload, both infinities and negative zero: the format carries
/// bit patterns, not numbers.
fn non_finite_params() -> ParamMap {
    let mut p = ParamMap::new();
    p.insert(
        "w",
        Tensor::from_vec(
            vec![4],
            vec![
                f32::from_bits(0x7fc0_1234),
                f32::INFINITY,
                f32::NEG_INFINITY,
                -0.0,
            ],
        ),
    );
    p
}

fn block() -> CompressedBlock {
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

fn message(
    sender: u32,
    receiver: u32,
    kind: MessageKind,
    round: u64,
    timestamp: f64,
    payload: Payload,
) -> Message {
    let mut m = Message::new(sender, receiver, kind, round, payload);
    m.timestamp = timestamp;
    m
}

/// `(label, message, hex of its encoding)`.
fn cases() -> Vec<(&'static str, Message, &'static str)> {
    vec![
        (
            "tag 0 empty",
            message(3, 0, MessageKind::JoinIn, 0, 0.0, Payload::Empty),
            "0300000000000000000000000000000000000000000000000000\
             00",
        ),
        (
            "tag 1 model",
            message(
                0,
                5,
                MessageKind::ModelParams,
                2,
                1.5,
                Payload::Model {
                    params: params(),
                    version: 9,
                },
            ),
            "000000000500000002000200000000000000000000000000f83f\
             01\
             090000000000000002000000070066632e6269617301020000000000803e0000\
             00be090066632e7765696768740202000000020000000000803f000000c00000\
             003f00000000",
        ),
        (
            "tag 2 update, non-finite values",
            message(
                7,
                0,
                MessageKind::Updates,
                4,
                123.456,
                Payload::Update {
                    params: non_finite_params(),
                    start_version: 3,
                    n_samples: 120,
                    n_steps: 8,
                },
            ),
            "07000000000000000300040000000000000077be9f1a2fdd5e40\
             02\
             0300000000000000780000000000000008000000000000000100000001007701\
             040000003412c07f0000807f000080ff00000080",
        ),
        (
            "tag 3 report",
            message(
                2,
                0,
                MessageKind::MetricsReport,
                6,
                2.25,
                Payload::Report {
                    metrics: Metrics {
                        loss: 0.5,
                        accuracy: 0.875,
                        n: 42,
                    },
                },
            ),
            "0200000000000000060006000000000000000000000000000240\
             03\
             0000003f0000603f2a00000000000000",
        ),
        (
            "tag 4 bytes, custom kind",
            message(
                1,
                4,
                MessageKind::Custom(7),
                1,
                0.125,
                Payload::Bytes(vec![0xde, 0xad, 0xbe, 0xef, 0x00]),
            ),
            "010000000400000007010100000000000000000000000000c03f\
             04\
             05000000deadbeef00",
        ),
        (
            "tag 5 compressed model",
            message(
                0,
                6,
                MessageKind::Finish,
                10,
                64.0,
                Payload::CompressedModel {
                    block: block(),
                    version: 12,
                },
            ),
            "000000000600000007000a000000000000000000000000005040\
             05\
             0c00000000000000010b00000000000000020000000100770202000000020000\
             000108000080bf0000803f0080ff400100620104000000020200000001000000\
             030000000000003f000080be",
        ),
        (
            "tag 6 compressed update",
            message(
                6,
                0,
                MessageKind::Updates,
                10,
                65.5,
                Payload::CompressedUpdate {
                    block: block(),
                    start_version: 11,
                    n_samples: 33,
                    n_steps: 2,
                },
            ),
            "060000000000000003000a000000000000000000000000605040\
             06\
             0b0000000000000021000000000000000200000000000000010b000000000000\
             00020000000100770202000000020000000108000080bf0000803f0080ff4001\
             00620104000000020200000001000000030000000000003f000080be",
        ),
        (
            "tag 7 partial update",
            message(
                9,
                0,
                MessageKind::Updates,
                5,
                7.75,
                Payload::PartialUpdate {
                    params: params(),
                    start_version: 4,
                    n_samples: 246,
                    n_steps: 4,
                    constituents: vec![2, 5, 9],
                },
            ),
            "0900000000000000030005000000000000000000000000001f40\
             07\
             0400000000000000f60000000000000004000000000000000300000002000000\
             050000000900000002000000070066632e6269617301020000000000803e0000\
             00be090066632e7765696768740202000000020000000000803f000000c00000\
             003f00000000",
        ),
        (
            "tag 8 compressed partial update",
            message(
                9,
                0,
                MessageKind::Updates,
                5,
                8.0,
                Payload::CompressedPartialUpdate {
                    block: block(),
                    start_version: 4,
                    n_samples: 246,
                    n_steps: 4,
                    constituents: vec![1, 4],
                },
            ),
            "0900000000000000030005000000000000000000000000002040\
             08\
             0400000000000000f60000000000000004000000000000000200000001000000\
             04000000010b0000000000000002000000010077020200000002000000010800\
             0080bf0000803f0080ff40010062010400000002020000000100000003000000\
             0000003f000080be",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn every_payload_tag_encodes_to_its_golden_bytes() {
    let cases = cases();
    let tags: Vec<u8> = cases
        .iter()
        .map(|(_, m, _)| encode_message(m)[fs_net::wire::HEADER_LEN])
        .collect();
    assert_eq!(tags, (0..=8).collect::<Vec<u8>>(), "one case per tag");
    for (label, msg, golden) in &cases {
        let golden = unhex(golden);
        assert_eq!(
            hex(&encode_message(msg)),
            hex(&golden),
            "{label}: encoding moved"
        );
    }
}

#[test]
fn golden_bytes_decode_to_the_message_and_back() {
    for (label, msg, golden) in cases() {
        let golden = unhex(golden);
        let owned = decode_message(&golden).expect(label);
        let viewed = decode_message_view(&golden).expect(label).to_message();
        // byte-equal re-encodings: exact even for the NaN case, where
        // `PartialEq` on the decoded values would lie
        assert_eq!(hex(&encode_message(&owned)), hex(&golden), "{label}");
        assert_eq!(hex(&encode_message(&viewed)), hex(&golden), "{label}");
        if !label.contains("non-finite") {
            assert_eq!(owned, msg, "{label}");
            assert_eq!(viewed, msg, "{label}");
        }
    }
}
