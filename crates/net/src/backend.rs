//! Cross-backend parameter stores (§3.5).
//!
//! In the paper, some clients run PyTorch and others TensorFlow; each declares
//! its own computation graph and they interoperate only through message
//! translation. We reproduce the mechanism with two parameter stores that use
//! genuinely different native layouts:
//!
//! * [`RowMajorF32Store`] — "torch-like": row-major `f32`, the same layout as
//!   the neutral format;
//! * [`ColMajorF64Store`] — "tf-like": column-major `f64` matrices, so both
//!   the element order and the precision differ from the wire format.
//!
//! Both implement [`Backend`]; converting between them *must* go through
//! [`Backend::encode`] / [`Backend::decode`], exactly like the paper's
//! encoding/decoding procedures.

use crate::wire::{decode_params, decode_params_view, encode_params, CodecError};
use bytes::Bytes;
use fs_compress::{decompress, CompressedBlock, DecompressError};
use fs_tensor::{ParamMap, Tensor};
use std::collections::BTreeMap;

fn decompress_to_params(
    block: &CompressedBlock,
    reference: Option<&ParamMap>,
) -> Result<ParamMap, CodecError> {
    decompress(block, reference).map_err(|e| match e {
        DecompressError::MissingReference(v) => CodecError::MissingReference(v),
        DecompressError::UnknownName(_) => CodecError::BadName,
        DecompressError::ShapeMismatch(_) => CodecError::BadShape,
    })
}

/// A backend-native parameter store that can translate to/from the neutral
/// wire format.
pub trait Backend {
    /// Human-readable backend name (shows up in course logs).
    fn name(&self) -> &'static str;

    /// Encodes the native parameters into the neutral wire format.
    fn encode(&self) -> Bytes;

    /// Decodes neutral wire bytes into the native representation, replacing
    /// matching entries.
    fn decode(&mut self, wire: &[u8]) -> Result<(), CodecError>;

    /// Decodes a compressed payload block (dense, quantized, sparse, or a
    /// delta against `reference`) into the native representation. Every
    /// backend must accept every block variant — compression happens in the
    /// neutral format, so it is backend-agnostic by construction.
    fn decode_compressed(
        &mut self,
        block: &CompressedBlock,
        reference: Option<&ParamMap>,
    ) -> Result<(), CodecError>;
}

/// Row-major `f32` store ("torch-like") — native layout equals the wire
/// layout, so translation is a direct copy.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RowMajorF32Store {
    params: ParamMap,
}

impl RowMajorF32Store {
    /// Wraps an existing parameter map.
    pub fn new(params: ParamMap) -> Self {
        Self { params }
    }

    /// Native view.
    pub fn params(&self) -> &ParamMap {
        &self.params
    }
}

impl Backend for RowMajorF32Store {
    fn name(&self) -> &'static str {
        "row-major-f32"
    }

    fn encode(&self) -> Bytes {
        encode_params(&self.params)
    }

    fn decode(&mut self, wire: &[u8]) -> Result<(), CodecError> {
        // zero-copy fast path: wire bytes land directly in the existing
        // tensor storage when the structure matches (the steady state — a
        // store refreshed every round keeps the same names and shapes)
        let view = decode_params_view(wire)?;
        if !view.copy_into(&mut self.params) {
            self.params = view.to_params();
        }
        Ok(())
    }

    fn decode_compressed(
        &mut self,
        block: &CompressedBlock,
        reference: Option<&ParamMap>,
    ) -> Result<(), CodecError> {
        self.params = decompress_to_params(block, reference)?;
        Ok(())
    }
}

/// Column-major `f64` store ("tf-like").
///
/// 2-D tensors are kept transposed in `f64`; 1-D tensors are kept as `f64`
/// vectors. Translation therefore exercises both a layout permutation and a
/// precision conversion in each direction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColMajorF64Store {
    /// name -> (row-major shape, column-major f64 data)
    entries: BTreeMap<String, (Vec<usize>, Vec<f64>)>,
}

impl ColMajorF64Store {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn load(&mut self, params: &ParamMap) {
        self.entries.clear();
        for (name, t) in params.iter() {
            let data = if t.shape().len() == 2 {
                let (m, n) = (t.shape()[0], t.shape()[1]);
                let mut col = vec![0.0f64; m * n];
                for i in 0..m {
                    for j in 0..n {
                        col[j * m + i] = t.at(i, j) as f64;
                    }
                }
                col
            } else {
                t.data().iter().map(|&v| v as f64).collect()
            };
            self.entries
                .insert(name.to_string(), (t.shape().to_vec(), data));
        }
    }

    /// Converts the native store back to a row-major `f32` map.
    pub fn to_params(&self) -> ParamMap {
        let mut out = ParamMap::new();
        for (name, (shape, col)) in &self.entries {
            let data: Vec<f32> = if shape.len() == 2 {
                let (m, n) = (shape[0], shape[1]);
                let mut row = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..n {
                        row[i * n + j] = col[j * m + i] as f32;
                    }
                }
                row
            } else {
                col.iter().map(|&v| v as f32).collect()
            };
            out.insert(name.clone(), Tensor::from_vec(shape.clone(), data));
        }
        out
    }

    /// Direct access to a native (column-major) entry, for tests.
    pub fn native(&self, name: &str) -> Option<&(Vec<usize>, Vec<f64>)> {
        self.entries.get(name)
    }
}

impl Backend for ColMajorF64Store {
    fn name(&self) -> &'static str {
        "col-major-f64"
    }

    fn encode(&self) -> Bytes {
        encode_params(&self.to_params())
    }

    fn decode(&mut self, wire: &[u8]) -> Result<(), CodecError> {
        let params = decode_params(wire)?;
        self.load(&params);
        Ok(())
    }

    fn decode_compressed(
        &mut self,
        block: &CompressedBlock,
        reference: Option<&ParamMap>,
    ) -> Result<(), CodecError> {
        let params = decompress_to_params(block, reference)?;
        self.load(&params);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ParamMap {
        let mut p = ParamMap::new();
        p.insert(
            "w",
            Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
        );
        p.insert("b", Tensor::from_vec(vec![3], vec![0.1, 0.2, 0.3]));
        p
    }

    #[test]
    fn col_major_native_layout_differs() {
        let mut s = ColMajorF64Store::new();
        s.load(&sample());
        let (_, col) = s.native("w").unwrap();
        // row-major [1,2,3,4,5,6] -> col-major [1,4,2,5,3,6]
        assert_eq!(col, &vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn cross_backend_roundtrip_via_wire() {
        let torch = RowMajorF32Store::new(sample());
        let wire = torch.encode();
        let mut tf = ColMajorF64Store::new();
        tf.decode(&wire).unwrap();
        // tf -> wire -> torch again
        let wire2 = tf.encode();
        let mut torch2 = RowMajorF32Store::default();
        torch2.decode(&wire2).unwrap();
        assert_eq!(torch.params(), torch2.params());
    }

    #[test]
    fn names_identify_backends() {
        assert_ne!(
            RowMajorF32Store::default().name(),
            ColMajorF64Store::new().name()
        );
    }

    #[test]
    fn decode_error_propagates() {
        let mut tf = ColMajorF64Store::new();
        assert!(tf.decode(&[1, 2, 3]).is_err());
    }

    #[test]
    fn both_backends_decode_every_compressed_variant() {
        use fs_compress::{Compressor, DeltaEncode, Identity, TopK, UniformQuant};
        let p = sample();
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
            let reference = block.delta.then_some(&p);
            let mut torch = RowMajorF32Store::default();
            torch.decode_compressed(&block, reference).unwrap();
            let mut tf = ColMajorF64Store::new();
            tf.decode_compressed(&block, reference).unwrap();
            // both backends must reconstruct the same parameters, reachable
            // only through the neutral compressed format
            assert_eq!(
                torch.params(),
                &tf.to_params(),
                "backend disagreement under codec {}",
                codec.name()
            );
        }
    }

    #[test]
    fn delta_without_reference_reports_missing_version() {
        use fs_compress::{Compressor, DeltaEncode, Identity};
        let mut codec = DeltaEncode::new(Box::new(Identity));
        codec.set_reference(&sample(), 42);
        let block = codec.compress(&sample());
        let mut torch = RowMajorF32Store::default();
        assert_eq!(
            torch.decode_compressed(&block, None),
            Err(CodecError::MissingReference(42))
        );
    }
}
