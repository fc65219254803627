//! Property-based tests over the workspace's core invariants.

use fedscope::compress::{
    decode_block, decompress, encode_block, CompressedBlock, CompressedTensor, Compressor,
    DeltaEncode, Encoding, Identity, TopK, UniformQuant,
};
use fedscope::net::wire::{decode_params, encode_params};
use fedscope::privacy::bignum::BigUint;
use fedscope::privacy::secret_sharing::{reconstruct, share};
use fedscope::tensor::{ParamMap, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_param_map() -> impl Strategy<Value = ParamMap> {
    prop::collection::btree_map(
        "[a-z]{1,8}(\\.[a-z]{1,8})?",
        prop::collection::vec(-1e6f32..1e6, 0..64),
        0..6,
    )
    .prop_map(|m| {
        m.into_iter()
            .map(|(k, v)| {
                let len = v.len();
                (k, Tensor::from_vec(vec![len], v))
            })
            .collect::<ParamMap>()
    })
}

/// Values a magnitude order can get wrong, drawn often: ±0, ±∞, NaN of
/// both signs and several payloads (quiet and signalling), subnormals.
const SPECIALS: [f32; 12] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -f32::NAN,
    f32::from_bits(0x7fc0_0001),
    f32::from_bits(0xffff_ffff),
    f32::from_bits(0x7f80_0001),
    f32::from_bits(0x0000_0001),
    f32::from_bits(0x8000_0001),
    f32::MIN_POSITIVE,
];

/// Any bit pattern, a special value, or a small integer (ties).
fn arb_f32() -> impl Strategy<Value = f32> {
    (0u8..3, any::<u32>()).prop_map(|(kind, bits)| match kind {
        0 => f32::from_bits(bits),
        1 => SPECIALS[bits as usize % SPECIALS.len()],
        _ => f32::from((bits % 7) as i8 - 3),
    })
}

/// `k = 1`, `k = numel`, or anything between.
fn arb_ratio() -> impl Strategy<Value = f32> {
    (0u8..3, 0.01f32..1.0).prop_map(|(kind, r)| match kind {
        0 => 1e-6,
        1 => 1.0,
        _ => r,
    })
}

const MAX_LEN: usize = 40;

/// A course of 1–5 rounds over tensors `a`, `b.w` and `c` (each may be
/// empty), plus a delta reference shaped like round one. A tensor keeps its
/// length from round to round except for a reshape one time in eight, so
/// residuals carry over and are sometimes reset. Only round one holds NaN:
/// Rust leaves the payload of `NaN + NaN` unspecified, so a NaN residual
/// meeting a NaN input could rank differently in two correct builds. The
/// reference is finite for the same reason (`∞ - ∞` is a NaN too).
fn arb_course() -> impl Strategy<Value = (Vec<ParamMap>, ParamMap)> {
    let pool = || prop::collection::vec(arb_f32(), 3 * MAX_LEN);
    (
        prop::collection::vec(0..MAX_LEN, 3),
        prop::collection::vec((prop::collection::vec(0u8..8, 3), pool()), 1..6),
        pool(),
    )
        .prop_map(|(base, rounds, reference_pool)| {
            let map = |lens: &[usize], pool: &[f32], keep: fn(f32) -> bool| {
                let mut p = ParamMap::new();
                for (j, name) in ["a", "b.w", "c"].into_iter().enumerate() {
                    let values = pool[j * MAX_LEN..j * MAX_LEN + lens[j]]
                        .iter()
                        .map(|&v| if keep(v) { v } else { 0.0 })
                        .collect();
                    p.insert(name, Tensor::from_vec(vec![lens[j]], values));
                }
                p
            };
            let course = rounds
                .iter()
                .enumerate()
                .map(|(r, (dice, pool))| {
                    let lens: Vec<usize> = (0..3)
                        .map(|j| match dice[j] {
                            0 => (base[j] + 7) % MAX_LEN,
                            _ => base[j],
                        })
                        .collect();
                    let keep: fn(f32) -> bool = if r == 0 { |_| true } else { |v| !v.is_nan() };
                    map(&lens, pool, keep)
                })
                .collect();
            (course, map(&base, &reference_pool, f32::is_finite))
        })
}

/// `TopK` before its O(n) selection, verbatim: every index fully sorted by
/// (magnitude desc, index asc). The oracle the selection must equal.
struct SortTopK {
    ratio: f32,
    residual: ParamMap,
}

impl SortTopK {
    fn compress(&mut self, params: &ParamMap) -> CompressedBlock {
        let mut tensors = Vec::new();
        for (name, t) in params.iter() {
            let mut compensated = t.data().to_vec();
            match self.residual.get(name) {
                Some(r) if r.shape() == t.shape() => {
                    for (c, &r) in compensated.iter_mut().zip(r.data()) {
                        *c += r;
                    }
                }
                _ => {}
            }
            let numel = compensated.len();
            let k = if numel == 0 {
                0
            } else {
                ((self.ratio * numel as f32).ceil() as usize).clamp(1, numel)
            };
            let mut order: Vec<u32> = (0..numel as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                let (ma, mb) = (compensated[a as usize].abs(), compensated[b as usize].abs());
                mb.total_cmp(&ma).then(a.cmp(&b))
            });
            let mut indices: Vec<u32> = order[..k].to_vec();
            indices.sort_unstable();
            let values: Vec<f32> = indices.iter().map(|&i| compensated[i as usize]).collect();
            let mut rest = compensated;
            for &i in &indices {
                rest[i as usize] = 0.0;
            }
            self.residual
                .insert(name, Tensor::from_vec(t.shape().to_vec(), rest));
            tensors.push(CompressedTensor {
                name: name.to_string(),
                shape: t.shape().to_vec(),
                encoding: Encoding::Sparse { indices, values },
            });
        }
        CompressedBlock::full(tensors)
    }
}

/// `DeltaEncode`'s difference as a fresh map, verbatim from before it was
/// refreshed in place: the oracle's delta.
fn oracle_delta(params: &ParamMap, reference: &ParamMap) -> ParamMap {
    let mut diff = ParamMap::new();
    for (name, t) in params.iter() {
        let mut values = t.data().to_vec();
        if let Some(base) = reference.get(name) {
            if base.shape() == t.shape() {
                for (v, &b) in values.iter_mut().zip(base.data()) {
                    *v -= b;
                }
            }
        }
        diff.insert(name, Tensor::from_vec(t.shape().to_vec(), values));
    }
    diff
}

/// Tensor name, shape, kept indices and the bits of the kept values.
type SparseBits = (String, Vec<usize>, Vec<u32>, Vec<u32>);

/// A sparse block in comparable form: values as bits, so NaN equals NaN
/// only when the payloads agree.
fn block_bits(block: &CompressedBlock) -> (bool, u64, Vec<SparseBits>) {
    let tensors = block
        .tensors
        .iter()
        .map(|t| match &t.encoding {
            Encoding::Sparse { indices, values } => (
                t.name.clone(),
                t.shape.clone(),
                indices.clone(),
                values.iter().map(|v| v.to_bits()).collect(),
            ),
            other => panic!("top-k emitted {other:?}"),
        })
        .collect();
    (block.delta, block.ref_version, tensors)
}

fn tensor_bits(t: Option<&Tensor>) -> Option<Vec<u32>> {
    t.map(|t| t.data().iter().map(|v| v.to_bits()).collect())
}

proptest! {
    #[test]
    fn topk_selection_equals_the_sort_oracle(case in arb_course(), ratio in arb_ratio()) {
        let (course, _) = case;
        let mut codec = TopK::new(ratio);
        let mut oracle = SortTopK { ratio, residual: ParamMap::new() };
        for params in &course {
            prop_assert_eq!(block_bits(&codec.compress(params)), block_bits(&oracle.compress(params)));
            for name in params.names() {
                prop_assert_eq!(tensor_bits(codec.residual(name)), tensor_bits(oracle.residual.get(name)));
            }
        }
    }

    #[test]
    fn delta_topk_equals_the_sort_oracle(case in arb_course(), ratio in arb_ratio()) {
        let (course, reference) = case;
        let mut codec = DeltaEncode::new(Box::new(TopK::new(ratio)));
        let mut oracle = SortTopK { ratio, residual: ParamMap::new() };
        for (round, params) in course.iter().enumerate() {
            // what a client does each round: the broadcast it trained from
            // becomes the reference
            codec.set_reference(&reference, round as u64);
            let mut want = oracle.compress(&oracle_delta(params, &reference));
            want.delta = true;
            want.ref_version = round as u64;
            prop_assert_eq!(block_bits(&codec.compress(params)), block_bits(&want));
        }
    }

    #[test]
    fn wire_codec_roundtrips_any_param_map(p in arb_param_map()) {
        let bytes = encode_params(&p);
        let q = decode_params(&bytes).expect("decode");
        prop_assert_eq!(p, q);
    }

    #[test]
    fn wire_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_params(&bytes); // must return Err, not panic
    }

    #[test]
    fn secret_shares_reconstruct(values in prop::collection::vec(-1e4f32..1e4, 1..64), n in 1usize..8, seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let shares = share(&values, n, &mut rng);
        let rec = reconstruct(&shares);
        for (a, b) in values.iter().zip(&rec) {
            prop_assert!((a - b).abs() < 1e-2, "{} vs {}", a, b);
        }
    }

    #[test]
    fn bignum_add_sub_roundtrip(a in any::<u64>(), b in any::<u64>()) {
        let x = BigUint::from_u64(a);
        let y = BigUint::from_u64(b);
        let sum = x.add(&y);
        prop_assert_eq!(sum.sub(&y), x);
    }

    #[test]
    fn bignum_div_rem_invariant(a in any::<u128>(), b in 1u64..) {
        // build a 128-bit value from the u128
        let hi = BigUint::from_u64((a >> 64) as u64).shl(64);
        let x = hi.add(&BigUint::from_u64(a as u64));
        let m = BigUint::from_u64(b);
        let (q, r) = x.div_rem(&m);
        prop_assert!(r < m);
        prop_assert_eq!(q.mul(&m).add(&r), x);
    }

    #[test]
    fn bignum_mod_pow_matches_u128(base in 0u64..1000, exp in 0u32..16, m in 2u64..65_536) {
        let mut expect: u128 = 1;
        for _ in 0..exp {
            expect = expect * base as u128 % m as u128;
        }
        let got = BigUint::from_u64(base)
            .mod_pow(&BigUint::from_u64(exp as u64), &BigUint::from_u64(m));
        prop_assert_eq!(got.to_u64(), Some(expect as u64));
    }

    #[test]
    fn param_map_add_scaled_linear(p in arb_param_map(), alpha in -10.0f32..10.0) {
        // p + alpha*0 == p, and (p + alpha*p) == (1+alpha)*p
        let zeros = p.zeros_like();
        let mut q = p.clone();
        q.add_scaled(alpha, &zeros);
        prop_assert_eq!(&q, &p);
        let mut r = p.clone();
        r.add_scaled(alpha, &p);
        let mut expect = p.clone();
        expect.scale(1.0 + alpha);
        for (k, t) in r.iter() {
            let e = expect.get(k).unwrap();
            for (x, y) in t.data().iter().zip(e.data()) {
                prop_assert!((x - y).abs() <= 1e-3 * x.abs().max(1.0), "{} vs {}", x, y);
            }
        }
    }

    #[test]
    fn clip_norm_bounds_hold(p in arb_param_map(), max in 0.1f32..100.0) {
        let mut q = p.clone();
        q.clip_norm(max);
        prop_assert!(q.norm() <= max * 1.001 || p.norm() <= max);
    }

    #[test]
    fn softmax_is_a_distribution(rows in 1usize..6, logits in prop::collection::vec(-30.0f32..30.0, 6..36)) {
        let cols = logits.len() / rows;
        prop_assume!(cols >= 1);
        let t = Tensor::from_vec(vec![rows, cols], logits[..rows * cols].to_vec());
        let p = fedscope::tensor::loss::softmax(&t);
        for r in 0..rows {
            let s: f32 = p.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn quant_roundtrip_error_bounded_by_step(p in arb_param_map()) {
        // uniform quantization must reconstruct every value to within one
        // quantization step: |x - dec(enc(x))| <= range / (2^bits - 1)
        for bits in [4u8, 8] {
            let block = UniformQuant::new(bits).compress(&p);
            let q = decompress(&block, None).expect("decompress");
            for (name, t) in p.iter() {
                let data = t.data();
                let min = data.iter().copied().fold(f32::INFINITY, f32::min);
                let max = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let step = (max - min) / ((1u32 << bits) - 1) as f32;
                let slack = step.abs() * 1e-3 + 1e-6;
                let rec = q.get(name).expect("same names");
                for (a, b) in data.iter().zip(rec.data()) {
                    prop_assert!((a - b).abs() <= step + slack,
                        "bits={} {}: |{} - {}| > step {}", bits, name, a, b, step);
                }
            }
        }
    }

    #[test]
    fn topk_keeps_exactly_the_largest_magnitudes(
        values in prop::collection::vec(-1e6f32..1e6, 1..64),
        ratio in 0.05f32..1.0,
    ) {
        let numel = values.len();
        let mut p = ParamMap::new();
        p.insert("t", Tensor::from_vec(vec![numel], values.clone()));
        // fresh compressor: no residual, so compensated == input
        let block = TopK::new(ratio).compress(&p);
        let k = ((ratio * numel as f32).ceil() as usize).clamp(1, numel);
        let Encoding::Sparse { indices, values: kept } = &block.tensors[0].encoding else {
            return Err(proptest::test_runner::TestCaseError::fail("expected sparse encoding"));
        };
        prop_assert_eq!(indices.len(), k);
        // every transmitted value is the original at its index...
        for (&i, &v) in indices.iter().zip(kept) {
            prop_assert_eq!(v, values[i as usize]);
        }
        // ...and no dropped coordinate beats a kept one
        let kept_min = kept.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        for (i, v) in values.iter().enumerate() {
            if !indices.contains(&(i as u32)) {
                prop_assert!(v.abs() <= kept_min,
                    "dropped |{}| at {} exceeds kept minimum {}", v, i, kept_min);
            }
        }
    }

    #[test]
    fn delta_identity_roundtrip_recovers_params(p in arb_param_map(), scale in -2.0f32..2.0) {
        // reference = scale * p: same names/shapes, different values
        let mut reference = p.clone();
        reference.scale(scale);
        let mut codec = DeltaEncode::new(Box::new(Identity));
        codec.set_reference(&reference, 5);
        let block = codec.compress(&p);
        let q = decompress(&block, Some(&reference)).expect("decompress");
        for (name, t) in p.iter() {
            let rec = q.get(name).expect("same names");
            for (a, b) in t.data().iter().zip(rec.data()) {
                // (x - r) + r is exact up to one rounding of the subtraction
                let tol = (a.abs() + scale.abs() * a.abs()) * f32::EPSILON * 4.0 + 1e-30;
                prop_assert!((a - b).abs() <= tol, "{}: {} vs {}", name, a, b);
            }
        }
    }

    #[test]
    fn compressed_block_codec_roundtrips(p in arb_param_map(), mode in 0u8..4) {
        let mut codec: Box<dyn Compressor> = match mode {
            0 => Box::new(Identity),
            1 => Box::new(UniformQuant::new(8)),
            2 => Box::new(UniformQuant::new(4)),
            _ => Box::new(TopK::new(0.3)),
        };
        let block = codec.compress(&p);
        let bytes = encode_block(&block);
        prop_assert_eq!(bytes.len(), block.encoded_len());
        let decoded = decode_block(&bytes).expect("well-formed block must decode");
        prop_assert_eq!(&decoded, &block);
    }

    #[test]
    fn compressed_block_decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_block(&bytes); // must return Err, not panic
    }

    #[test]
    fn staleness_weight_monotone(tau1 in 0u64..100, tau2 in 0u64..100, a in 0.01f32..3.0) {
        use fedscope::core::aggregator::staleness_weight;
        let (lo, hi) = if tau1 <= tau2 { (tau1, tau2) } else { (tau2, tau1) };
        prop_assert!(staleness_weight(hi, a) <= staleness_weight(lo, a));
        prop_assert!(staleness_weight(lo, a) <= 1.0);
    }
}
