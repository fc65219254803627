//! The [`Compressor`] trait and its four implementations.

use crate::block::{packed_len, CompressedBlock, CompressedTensor, Encoding};
use fs_tensor::{ParamMap, Tensor};
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// A pluggable parameter-compression strategy.
///
/// Compressors are stateful: error-feedback schemes accumulate residuals
/// across rounds, and delta encoders track the last reference model — hence
/// `&mut self`. All implementations are deterministic, so a course that seeds
/// everything else reproduces bit-identical compressed traffic.
pub trait Compressor: Send {
    /// Short identifier used in reports and benches.
    fn name(&self) -> &'static str;

    /// Compresses `params` for transmission.
    fn compress(&mut self, params: &ParamMap) -> CompressedBlock;

    /// Records the reference model (the last broadcast the sender received)
    /// for delta encoding. Non-delta compressors ignore it.
    fn set_reference(&mut self, _params: &ParamMap, _version: u64) {}

    /// Duplicates this codec *including its per-sender state* (error-feedback
    /// residuals, delta references). The parallel runner snapshots a client's
    /// codec through this before speculatively executing its handler, so a
    /// rolled-back speculation can restore the exact pre-dispatch state.
    fn clone_box(&self) -> Box<dyn Compressor>;
}

/// Errors raised while reconstructing parameters from a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecompressError {
    /// A delta block referenced a model version the receiver no longer holds.
    MissingReference(u64),
    /// A delta tensor has no counterpart in the reference model.
    UnknownName(String),
    /// A delta tensor's shape disagrees with the reference model's.
    ShapeMismatch(String),
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecompressError::MissingReference(v) => {
                write!(f, "delta block references unavailable model version {v}")
            }
            DecompressError::UnknownName(n) => {
                write!(f, "delta tensor {n} has no reference counterpart")
            }
            DecompressError::ShapeMismatch(n) => {
                write!(f, "delta tensor {n} disagrees with reference shape")
            }
        }
    }
}

impl std::error::Error for DecompressError {}

/// Decodes one tensor's values to a dense row-major vector.
fn expand(t: &CompressedTensor) -> Vec<f32> {
    let numel = t.numel();
    match &t.encoding {
        Encoding::Dense { values } => values.clone(),
        Encoding::Quantized {
            bits,
            min,
            max,
            packed,
        } => {
            let levels = ((1u32 << bits) - 1) as f32;
            let step = if levels > 0.0 {
                (max - min) / levels
            } else {
                0.0
            };
            let dequant = |level: u8| min + f32::from(level) * step;
            match bits {
                8 => packed[..numel].iter().map(|&l| dequant(l)).collect(),
                4 => packed
                    .iter()
                    .flat_map(|&b| [b & 0x0F, b >> 4])
                    .take(numel)
                    .map(dequant)
                    .collect(),
                _ => unreachable!("codec validated bits"),
            }
        }
        Encoding::Sparse { indices, values } => {
            let mut out = vec![0.0f32; numel];
            for (&i, &v) in indices.iter().zip(values) {
                out[i as usize] = v;
            }
            out
        }
    }
}

/// Reconstructs a [`ParamMap`] from a block.
///
/// `reference` must be `Some` (the model named by the block's `ref_version`)
/// when the block is a delta; it is ignored otherwise.
pub fn decompress(
    block: &CompressedBlock,
    reference: Option<&ParamMap>,
) -> Result<ParamMap, DecompressError> {
    let reference = if block.delta {
        Some(reference.ok_or(DecompressError::MissingReference(block.ref_version))?)
    } else {
        None
    };
    let mut out = ParamMap::new();
    for t in &block.tensors {
        let mut values = expand(t);
        if let Some(reference) = reference {
            let base = reference
                .get(&t.name)
                .ok_or_else(|| DecompressError::UnknownName(t.name.clone()))?;
            if base.shape() != &t.shape[..] {
                return Err(DecompressError::ShapeMismatch(t.name.clone()));
            }
            for (v, b) in values.iter_mut().zip(base.data()) {
                *v += b;
            }
        }
        let name = Arc::from(t.name.as_str());
        out.insert_shared(name, Tensor::from_vec(t.shape.clone(), values));
    }
    Ok(out)
}

/// No compression: dense f32 passthrough (the baseline codec).
#[derive(Clone, Debug, Default)]
pub struct Identity;

impl Compressor for Identity {
    fn name(&self) -> &'static str {
        "identity"
    }

    fn compress(&mut self, params: &ParamMap) -> CompressedBlock {
        CompressedBlock::full(
            params
                .iter()
                .map(|(name, t)| CompressedTensor {
                    name: name.to_string(),
                    shape: t.shape().to_vec(),
                    encoding: Encoding::Dense {
                        values: t.data().to_vec(),
                    },
                })
                .collect(),
        )
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(Identity)
    }
}

/// Uniform linear quantization with per-tensor min/max.
///
/// Each value maps to the nearest of `2^bits` evenly spaced levels spanning
/// `[min, max]`, so the reconstruction error is at most
/// `(max - min) / (2^bits - 1)` per value. A tensor with no such grid travels
/// [`Encoding::Dense`], exactly: one holding a NaN (which has no level) or
/// whose range is infinite (a ±∞, or finite extremes whose difference
/// overflows), which would decode every value to `0 × ∞ = NaN`.
#[derive(Clone, Debug)]
pub struct UniformQuant {
    bits: u8,
}

impl UniformQuant {
    /// Creates an `bits`-wide quantizer; only 4 and 8 are supported.
    pub fn new(bits: u8) -> Self {
        assert!(
            bits == 4 || bits == 8,
            "UniformQuant supports 4 or 8 bits, got {bits}"
        );
        Self { bits }
    }

    fn quantize(&self, t: &Tensor) -> Encoding {
        let data = t.data();
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for &v in data {
            min = min.min(v);
            max = max.max(v);
        }
        if data.is_empty() {
            (min, max) = (0.0, 0.0);
        }
        let range = max - min;
        if !range.is_finite() || !t.is_finite() {
            return Encoding::Dense {
                values: data.to_vec(),
            };
        }
        let levels = ((1u32 << self.bits) - 1) as f32;
        let inv_step = if range > 0.0 { levels / range } else { 0.0 };
        let mut packed = vec![0u8; packed_len(self.bits, data.len())];
        for (i, &v) in data.iter().enumerate() {
            let level = (((v - min) * inv_step).round() as u32).min(levels as u32) as u8;
            match self.bits {
                8 => packed[i] = level,
                4 => packed[i / 2] |= level << ((i % 2) * 4),
                _ => unreachable!("constructor validated bits"),
            }
        }
        Encoding::Quantized {
            bits: self.bits,
            min,
            max,
            packed,
        }
    }
}

impl Compressor for UniformQuant {
    fn name(&self) -> &'static str {
        match self.bits {
            8 => "quant8",
            _ => "quant4",
        }
    }

    fn compress(&mut self, params: &ParamMap) -> CompressedBlock {
        CompressedBlock::full(
            params
                .iter()
                .map(|(name, t)| CompressedTensor {
                    name: name.to_string(),
                    shape: t.shape().to_vec(),
                    encoding: self.quantize(t),
                })
                .collect(),
        )
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(self.clone())
    }
}

/// Top-k sparsification with error-feedback residuals.
///
/// Each round keeps the `ceil(ratio · numel)` largest-magnitude entries per
/// tensor; everything dropped is remembered in a residual and added back
/// before selection next round, so small coordinates eventually get through
/// instead of being silenced forever. Ties break deterministically by
/// (magnitude desc, index asc).
///
/// Selection is O(numel): one packed key per coordinate, a
/// `select_nth_unstable`, then a sort of the `k` kept indices only.
#[derive(Debug)]
pub struct TopK {
    ratio: f32,
    /// Per tensor: what earlier rounds dropped. Each call compensates into
    /// it in place and zeroes the kept coordinates.
    residual: ParamMap,
}

thread_local! {
    // Scratch the upload codecs refresh in place call after call. Kept per
    // thread, not per codec: a course holds one codec per client, and only
    // one call at a time on a thread uses these.
    static SELECT_KEYS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static DELTA_DIFF: RefCell<ParamMap> = RefCell::new(ParamMap::new());
}

impl TopK {
    /// Keeps a `ratio` fraction (in `(0, 1]`) of each tensor's entries.
    pub fn new(ratio: f32) -> Self {
        assert!(
            ratio > 0.0 && ratio <= 1.0,
            "TopK ratio must be in (0, 1], got {ratio}"
        );
        Self {
            ratio,
            residual: ParamMap::new(),
        }
    }

    /// The residual accumulated for `name` so far (test hook).
    pub fn residual(&self, name: &str) -> Option<&Tensor> {
        self.residual.get(name)
    }
}

/// The indices of the `k` largest-magnitude `values`, ascending, with ties
/// going to the lower index.
///
/// Each coordinate becomes one `u64` key: the inverted bits of `|v|` above,
/// the index below. A sign-cleared `f32`'s bits order exactly as
/// `f32::total_cmp` orders it (NaN above +∞, whatever its payload), so
/// ascending keys are (magnitude desc, index asc) — a strict total order,
/// hence the kept set is the one a full sort by that order would keep, on
/// every input.
fn top_k_indices(values: &[f32], k: usize) -> Vec<u32> {
    SELECT_KEYS.with_borrow_mut(|keys| {
        keys.clear();
        keys.extend(
            values
                .iter()
                .zip(0u32..)
                .map(|(v, i)| (u64::from(!v.abs().to_bits()) << 32) | u64::from(i)),
        );
        if k < keys.len() {
            keys.select_nth_unstable(k);
        }
        let mut indices: Vec<u32> = keys[..k].iter().map(|&key| key as u32).collect();
        indices.sort_unstable();
        indices
    })
}

impl Compressor for TopK {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn compress(&mut self, params: &ParamMap) -> CompressedBlock {
        let mut tensors = Vec::with_capacity(params.len());
        for (name, t) in params.iter() {
            // error feedback: compensate with what previous rounds dropped,
            // in the residual itself
            match self.residual.get_mut(name) {
                Some(r) if r.shape() == t.shape() => {
                    for (r, &v) in r.data_mut().iter_mut().zip(t.data()) {
                        *r += v;
                    }
                }
                _ => self.residual.insert(
                    name,
                    Tensor::from_vec(t.shape().to_vec(), t.data().to_vec()),
                ),
            }
            let compensated = self
                .residual
                .get_mut(name)
                .expect("residual entry written above")
                .data_mut();
            let numel = compensated.len();
            let k = if numel == 0 {
                0
            } else {
                ((self.ratio * numel as f32).ceil() as usize).clamp(1, numel)
            };
            let indices = top_k_indices(compensated, k);
            // residual = compensated - transmitted
            let values: Vec<f32> = indices
                .iter()
                .map(|&i| std::mem::replace(&mut compensated[i as usize], 0.0))
                .collect();
            tensors.push(CompressedTensor {
                name: name.to_string(),
                shape: t.shape().to_vec(),
                encoding: Encoding::Sparse { indices, values },
            });
        }
        CompressedBlock::full(tensors)
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(TopK {
            ratio: self.ratio,
            residual: self.residual.clone(),
        })
    }
}

/// Delta encoding against the last broadcast model, wrapping any inner
/// compressor (quantizing or sparsifying the *difference* compresses much
/// better than the raw weights, whose magnitudes dominate).
pub struct DeltaEncode {
    inner: Box<dyn Compressor>,
    reference: Option<(ParamMap, u64)>,
}

impl DeltaEncode {
    /// Wraps `inner`, which will see differences instead of raw parameters.
    pub fn new(inner: Box<dyn Compressor>) -> Self {
        Self {
            inner,
            reference: None,
        }
    }
}

impl Compressor for DeltaEncode {
    fn name(&self) -> &'static str {
        "delta"
    }

    fn compress(&mut self, params: &ParamMap) -> CompressedBlock {
        let Some((reference, version)) = &self.reference else {
            // no reference yet (first round): send the full model
            return self.inner.compress(params);
        };
        // `params - reference`, refreshed in place while the parameter
        // structure stays the same
        let mut diff = DELTA_DIFF.take();
        if !diff.same_structure(params) {
            diff = params.clone();
        }
        for ((name, t), (_, d)) in params.iter().zip(diff.iter_mut()) {
            let d = d.data_mut();
            match reference.get(name) {
                Some(base) if base.shape() == t.shape() => {
                    for ((d, &v), &b) in d.iter_mut().zip(t.data()).zip(base.data()) {
                        *d = v - b;
                    }
                }
                _ => d.copy_from_slice(t.data()),
            }
        }
        let mut block = self.inner.compress(&diff);
        DELTA_DIFF.set(diff);
        block.delta = true;
        block.ref_version = *version;
        block
    }

    fn set_reference(&mut self, params: &ParamMap, version: u64) {
        self.reference = Some((params.clone(), version));
        self.inner.set_reference(params, version);
    }

    fn clone_box(&self) -> Box<dyn Compressor> {
        Box::new(DeltaEncode {
            inner: self.inner.clone_box(),
            reference: self.reference.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_params(seed: u64) -> ParamMap {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = ParamMap::new();
        p.insert(
            "fc.weight",
            Tensor::from_vec(
                vec![4, 8],
                (0..32).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
            ),
        );
        p.insert(
            "fc.bias",
            Tensor::from_vec(
                vec![8],
                (0..8).map(|_| rng.gen_range(-0.5f32..0.5)).collect(),
            ),
        );
        p
    }

    #[test]
    fn identity_is_lossless() {
        let p = sample_params(1);
        let block = Identity.compress(&p);
        assert_eq!(decompress(&block, None).unwrap(), p);
    }

    #[test]
    fn quant_error_within_step_bound() {
        for bits in [4u8, 8] {
            let p = sample_params(2);
            let block = UniformQuant::new(bits).compress(&p);
            let q = decompress(&block, None).unwrap();
            for (name, t) in p.iter() {
                let data = t.data();
                let min = data.iter().copied().fold(f32::INFINITY, f32::min);
                let max = data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let bound = (max - min) / ((1u32 << bits) - 1) as f32;
                for (a, b) in data.iter().zip(q.get(name).unwrap().data()) {
                    assert!(
                        (a - b).abs() <= bound + 1e-6,
                        "bits={bits} {name}: |{a} - {b}| > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn quant_handles_constant_and_empty_tensors() {
        let mut p = ParamMap::new();
        p.insert("const", Tensor::from_vec(vec![3], vec![2.5, 2.5, 2.5]));
        p.insert("empty", Tensor::from_vec(vec![0], vec![]));
        let block = UniformQuant::new(8).compress(&p);
        let q = decompress(&block, None).unwrap();
        assert_eq!(q.get("const").unwrap().data(), &[2.5, 2.5, 2.5]);
        assert_eq!(q.get("empty").unwrap().data().len(), 0);
    }

    #[test]
    fn quant_sends_non_finite_tensors_dense() {
        let mut p = ParamMap::new();
        p.insert(
            "inf",
            Tensor::from_vec(vec![4], vec![0.5, -0.25, f32::INFINITY, 1.0]),
        );
        p.insert(
            "nan",
            Tensor::from_vec(vec![4], vec![0.5, -0.25, f32::NAN, 1.0]),
        );
        // finite, but max - min overflows to +∞
        p.insert("wide", Tensor::from_vec(vec![2], vec![-f32::MAX, f32::MAX]));
        p.insert("finite", Tensor::from_vec(vec![2], vec![0.5, -0.25]));
        for bits in [4u8, 8] {
            let block = UniformQuant::new(bits).compress(&p);
            let q = decompress(&block, None).unwrap();
            assert_eq!(
                q.get("inf").unwrap().data(),
                &[0.5, -0.25, f32::INFINITY, 1.0]
            );
            assert_eq!(q.get("wide").unwrap().data(), &[-f32::MAX, f32::MAX]);
            let nan = q.get("nan").unwrap().data();
            assert!(nan[2].is_nan(), "bits={bits}: NaN decoded as {}", nan[2]);
            assert_eq!([nan[0], nan[1], nan[3]], [0.5, -0.25, 1.0]);
            // a finite tensor beside them is still quantized
            let finite = block.tensors.iter().find(|t| t.name == "finite").unwrap();
            assert!(matches!(finite.encoding, Encoding::Quantized { .. }));
        }
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let mut p = ParamMap::new();
        p.insert(
            "t",
            Tensor::from_vec(vec![6], vec![0.1, -5.0, 0.2, 3.0, -0.3, 0.0]),
        );
        let mut c = TopK::new(0.34); // ceil(0.34 * 6) = 3
        let block = c.compress(&p);
        let q = decompress(&block, None).unwrap();
        assert_eq!(
            q.get("t").unwrap().data(),
            &[0.0, -5.0, 0.0, 3.0, -0.3, 0.0]
        );
    }

    #[test]
    #[expect(
        clippy::excessive_precision,
        reason = "1.2000001 is the exact f32 sum observed"
    )]
    fn topk_error_feedback_recovers_dropped_mass() {
        // a small coordinate must eventually be transmitted via the residual
        let mut p = ParamMap::new();
        p.insert("t", Tensor::from_vec(vec![2], vec![1.0, 0.4]));
        let mut c = TopK::new(0.5); // k = 1
        let b1 = c.compress(&p);
        let d1 = decompress(&b1, None).unwrap();
        assert_eq!(d1.get("t").unwrap().data(), &[1.0, 0.0]);
        assert_eq!(c.residual("t").unwrap().data(), &[0.0, 0.4]);
        let b2 = c.compress(&p);
        let d2 = decompress(&b2, None).unwrap();
        // compensated = [1.0, 0.8]: index 0 still wins, residual grows
        assert_eq!(d2.get("t").unwrap().data(), &[1.0, 0.0]);
        let b3 = c.compress(&p);
        let d3 = decompress(&b3, None).unwrap();
        // compensated = [1.0, 1.2]: the starved coordinate finally wins
        assert_eq!(d3.get("t").unwrap().data(), &[0.0, 1.2000001]);
    }

    #[test]
    fn topk_tie_break_is_deterministic() {
        let mut p = ParamMap::new();
        p.insert("t", Tensor::from_vec(vec![4], vec![1.0, -1.0, 1.0, -1.0]));
        let run = || {
            let mut c = TopK::new(0.5);
            let block = c.compress(&p);
            match &block.tensors[0].encoding {
                Encoding::Sparse { indices, .. } => indices.clone(),
                other => panic!("expected sparse, got {other:?}"),
            }
        };
        assert_eq!(run(), vec![0, 1]);
        assert_eq!(run(), run());
    }

    #[test]
    fn delta_identity_is_lossless() {
        let reference = sample_params(3);
        let current = sample_params(4);
        let mut c = DeltaEncode::new(Box::new(Identity));
        c.set_reference(&reference, 7);
        let block = c.compress(&current);
        assert!(block.delta);
        assert_eq!(block.ref_version, 7);
        let q = decompress(&block, Some(&reference)).unwrap();
        for (name, t) in current.iter() {
            for (a, b) in t.data().iter().zip(q.get(name).unwrap().data()) {
                assert!((a - b).abs() < 1e-6, "{name}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn delta_without_reference_sends_full_model() {
        let current = sample_params(5);
        let mut c = DeltaEncode::new(Box::new(Identity));
        let block = c.compress(&current);
        assert!(!block.delta);
        assert_eq!(decompress(&block, None).unwrap(), current);
    }

    #[test]
    fn delta_quant_tracks_current_model_closely() {
        let reference = sample_params(6);
        // current = reference + small update: the delta range is tiny, so
        // 8-bit quantization of the delta is far more precise than
        // quantizing the raw weights
        let mut current = reference.clone();
        let mut rng = StdRng::seed_from_u64(9);
        for (_, t) in current.iter_mut() {
            for v in t.data_mut() {
                *v += rng.gen_range(-0.01f32..0.01);
            }
        }
        let mut c = DeltaEncode::new(Box::new(UniformQuant::new(8)));
        c.set_reference(&reference, 1);
        let q = decompress(&c.compress(&current), Some(&reference)).unwrap();
        for (name, t) in current.iter() {
            for (a, b) in t.data().iter().zip(q.get(name).unwrap().data()) {
                assert!((a - b).abs() <= 0.02 / 255.0 + 1e-6, "{name}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn delta_missing_reference_is_an_error() {
        let mut c = DeltaEncode::new(Box::new(Identity));
        c.set_reference(&sample_params(7), 3);
        let block = c.compress(&sample_params(8));
        assert_eq!(
            decompress(&block, None),
            Err(DecompressError::MissingReference(3))
        );
    }
}
