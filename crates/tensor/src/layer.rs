//! Neural-network layers with manual analytic gradients.
//!
//! Each layer caches whatever it needs during `forward` and consumes the cache
//! in `backward`, accumulating parameter gradients internally. The caches and
//! every temporary of the layers a course trains (`Linear`, `Conv2d`, `Relu`,
//! `MaxPool2d`, `ReluMaxPool2d`, `Flatten`) come from the worker's [`scratch`]
//! pool and go back to it, so a layer at rest holds parameters and gradients
//! only. The layers here are exactly those needed by the paper's ModelZoo
//! subset used in the evaluation: `Linear`, `Conv2d` (the "ConvNet2" building
//! block), `Relu`, `MaxPool2d`, `ReluMaxPool2d` (the two in one pass),
//! `Flatten`, `Dropout`, and `BatchNorm1d` (FedBN personalizes batch-norm
//! parameters, §3.4.1).
//!
//! All gradients are checked against central finite differences in the crate's
//! integration tests.

use crate::tensor::kernels::{gemm, CONTINUE, OVERWRITE};
use crate::{init, scratch, ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::sync::Arc;

/// A differentiable network layer.
///
/// Parameters and their gradients are exposed through [`ParamMap`] collection
/// so FL code can address them by name (`"<layer>.<param>"`).
pub trait Layer: Send {
    /// Computes the layer output, caching intermediates for `backward`.
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Back-propagates `grad_out`, accumulating parameter gradients and
    /// returning the gradient with respect to the layer input.
    ///
    /// Must be called after a matching `forward` with `train = true`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Layer::backward`] for a caller that has no use for the input
    /// gradient (a model's first layer): parameter gradients accumulate
    /// exactly as in `backward`, and layers whose input gradient is separate
    /// work (`Linear`, `Conv2d`) skip it.
    fn backward_params(&mut self, grad_out: &Tensor) {
        scratch::give(self.backward(grad_out));
    }

    /// Copies this layer's parameters into `out` under `prefix`.
    fn collect_params(&self, prefix: &str, out: &mut ParamMap) {
        let _ = (prefix, out);
    }

    /// Copies this layer's accumulated gradients into `out` under `prefix`.
    fn collect_grads(&mut self, prefix: &str, out: &mut ParamMap) {
        self.for_each_trainable(&mut |leaf, _, g| out.insert(join(prefix, leaf), g.clone()));
    }

    /// Hands each trained tensor to `visit` with its accumulated gradient,
    /// as `(leaf, param, grad)` in leaf-name order: what an optimizer steps
    /// where it lives. Buffers (batch-norm running statistics) are not
    /// trained; parameter-free layers have nothing to visit.
    fn for_each_trainable(&mut self, visit: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        let _ = visit;
    }

    /// Loads this layer's parameters from `src` under `prefix`.
    ///
    /// Missing keys are left unchanged (this is what lets FedBN clients keep
    /// local batch-norm parameters while loading the shared global rest).
    fn load_params(&mut self, prefix: &str, src: &ParamMap) {
        let _ = (prefix, src);
    }

    /// Resets accumulated gradients to zero.
    fn zero_grad(&mut self) {}

    /// Names (relative to the layer) of non-trained buffers such as
    /// batch-norm running statistics.
    fn buffer_names(&self) -> Vec<&'static str> {
        Vec::new()
    }

    /// Deep copy as a boxed trait object.
    fn clone_layer(&self) -> Box<dyn Layer>;
}

/// Fully connected layer: `y = x W^T + b` with `x: [B, in]`, `W: [out, in]`.
pub struct Linear {
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    x_cache: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialized linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: init::kaiming_normal(&[out_dim, in_dim], in_dim, rng),
            b: Tensor::zeros(&[out_dim]),
            gw: Tensor::zeros(&[out_dim, in_dim]),
            gb: Tensor::zeros(&[out_dim]),
            x_cache: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[1]
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// `gw += grad_out^T x` and `gb += column sums`, consuming the cache.
    fn accumulate_grads(&mut self, grad_out: &Tensor) {
        let x = self
            .x_cache
            .take()
            .expect("Linear::backward without forward(train)");
        grad_out.matmul_tn_acc(&x, &mut self.gw);
        scratch::give(x);
        let gb = self.gb.data_mut();
        for row in grad_out.data().chunks_exact(gb.len()) {
            for (g, &v) in gb.iter_mut().zip(row) {
                *g += v;
            }
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "Linear expects [B, in]");
        assert_eq!(x.cols(), self.in_dim(), "Linear input dim");
        let mut y = scratch::take(&[x.rows(), self.out_dim()]);
        x.matmul_nt_into(&self.w, &mut y);
        let bias = self.b.data();
        for row in y.data_mut().chunks_exact_mut(bias.len()) {
            for (v, &bv) in row.iter_mut().zip(bias) {
                *v += bv;
            }
        }
        if train {
            self.x_cache = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.accumulate_grads(grad_out);
        // grad_in = grad_out W
        let mut grad_in = scratch::take(&[grad_out.rows(), self.in_dim()]);
        grad_out.matmul_into(&self.w, &mut grad_in);
        grad_in
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.accumulate_grads(grad_out);
    }

    fn collect_params(&self, prefix: &str, out: &mut ParamMap) {
        out.insert(format!("{prefix}.weight"), self.w.clone());
        out.insert(format!("{prefix}.bias"), self.b.clone());
    }

    fn for_each_trainable(&mut self, visit: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        visit("bias", &mut self.b, &self.gb);
        visit("weight", &mut self.w, &self.gw);
    }

    fn load_params(&mut self, prefix: &str, src: &ParamMap) {
        if let Some(w) = src.get_in(prefix, "weight") {
            assert_eq!(w.shape(), self.w.shape(), "Linear weight shape");
            self.w = w.clone();
        }
        if let Some(b) = src.get_in(prefix, "bias") {
            assert_eq!(b.shape(), self.b.shape(), "Linear bias shape");
            self.b = b.clone();
        }
    }

    fn zero_grad(&mut self) {
        self.gw.fill(0.0);
        self.gb.fill(0.0);
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Linear {
            w: self.w.clone(),
            b: self.b.clone(),
            gw: self.gw.clone(),
            gb: self.gb.clone(),
            x_cache: None,
        })
    }
}

/// The rectifier every layer here applies: `v` where `v > 0`, else `+0.0`
/// (so `−0.0` and NaN both give `+0.0`).
#[inline(always)]
fn relu(v: f32) -> f32 {
    if v > 0.0 {
        v
    } else {
        0.0
    }
}

/// Rectified linear unit, applied elementwise.
#[derive(Default)]
pub struct Relu {
    /// The output of the last training forward: `y > 0` exactly where the
    /// input was, so it doubles as the gradient mask.
    out: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut y = scratch::take(x.shape());
        for (o, &v) in y.data_mut().iter_mut().zip(x.data()) {
            *o = relu(v);
        }
        if train {
            self.out = Some(y.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let y = self
            .out
            .take()
            .expect("Relu::backward without forward(train)");
        let mut grad_in = scratch::take(grad_out.shape());
        for ((o, &g), &v) in grad_in
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(y.data())
        {
            *o = if v > 0.0 { g } else { 0.0 };
        }
        scratch::give(y);
        grad_in
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Relu::default())
    }
}

/// Flattens `[B, ...]` to `[B, prod(...)]`.
#[derive(Default)]
pub struct Flatten {
    /// The training input, kept for its shape (a storage-sharing clone).
    input: Option<Tensor>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let b = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        if train {
            self.input = Some(x.clone());
        }
        x.reshape(&[b, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .input
            .take()
            .expect("Flatten::backward without forward(train)");
        let grad_in = grad_out.reshape(x.shape());
        scratch::give(x);
        grad_in
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Flatten::default())
    }
}

/// Inverted dropout: at train time zeroes activations with probability `p`
/// and scales survivors by `1/(1-p)`; identity at eval time.
pub struct Dropout {
    p: f32,
    rng: StdRng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` and a private seeded RNG.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            return x.clone();
        }
        let keep = 1.0 - self.p;
        let mut mask = scratch::take(x.shape());
        for m in mask.data_mut() {
            *m = if self.rng.gen::<f32>() < self.p {
                0.0
            } else {
                1.0 / keep
            };
        }
        let mut y = scratch::take(x.shape());
        for ((o, &v), &m) in y.data_mut().iter_mut().zip(x.data()).zip(mask.data()) {
            *o = v * m;
        }
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let Some(mask) = self.mask.take() else {
            return grad_out.clone();
        };
        let mut grad_in = scratch::take(grad_out.shape());
        for ((o, &g), &m) in grad_in
            .data_mut()
            .iter_mut()
            .zip(grad_out.data())
            .zip(mask.data())
        {
            *o = g * m;
        }
        scratch::give(mask);
        grad_in
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Dropout {
            p: self.p,
            rng: self.rng.clone(),
            mask: None,
        })
    }
}

/// Batch normalization over the feature dimension of `[B, D]` inputs.
///
/// Holds learnable `gamma`/`beta` and running statistics (exposed as buffers
/// `running_mean` / `running_var`). FedBN (§3.4.1) keeps all four local.
pub struct BatchNorm1d {
    gamma: Tensor,
    beta: Tensor,
    g_gamma: Tensor,
    g_beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
}

impl BatchNorm1d {
    /// Creates a batch-norm layer over `dim` features.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Tensor::ones(&[dim]),
            beta: Tensor::zeros(&[dim]),
            g_gamma: Tensor::zeros(&[dim]),
            g_beta: Tensor::zeros(&[dim]),
            running_mean: Tensor::zeros(&[dim]),
            running_var: Tensor::ones(&[dim]),
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }
}

impl Layer for BatchNorm1d {
    #[expect(
        clippy::needless_range_loop,
        reason = "index loops read clearer in kernels"
    )]
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 2, "BatchNorm1d expects [B, D]");
        let (b, d) = (x.rows(), x.cols());
        assert_eq!(d, self.gamma.numel(), "BatchNorm1d dim");
        let mut out = Tensor::zeros(&[b, d]);
        if train {
            let mut mean = vec![0.0f32; d];
            let mut var = vec![0.0f32; d];
            for r in 0..b {
                for c in 0..d {
                    mean[c] += x.at(r, c);
                }
            }
            for m in &mut mean {
                *m /= b as f32;
            }
            for r in 0..b {
                for c in 0..d {
                    let diff = x.at(r, c) - mean[c];
                    var[c] += diff * diff;
                }
            }
            for v in &mut var {
                *v /= b as f32;
            }
            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            let mut x_hat = Tensor::zeros(&[b, d]);
            for r in 0..b {
                for c in 0..d {
                    let xh = (x.at(r, c) - mean[c]) * inv_std[c];
                    *x_hat.at_mut(r, c) = xh;
                    *out.at_mut(r, c) = self.gamma.data()[c] * xh + self.beta.data()[c];
                }
            }
            let m = self.momentum;
            for c in 0..d {
                self.running_mean.data_mut()[c] =
                    (1.0 - m) * self.running_mean.data()[c] + m * mean[c];
                self.running_var.data_mut()[c] =
                    (1.0 - m) * self.running_var.data()[c] + m * var[c];
            }
            self.cache = Some(BnCache { x_hat, inv_std });
        } else {
            for r in 0..b {
                for c in 0..d {
                    let xh = (x.at(r, c) - self.running_mean.data()[c])
                        / (self.running_var.data()[c] + self.eps).sqrt();
                    *out.at_mut(r, c) = self.gamma.data()[c] * xh + self.beta.data()[c];
                }
            }
        }
        out
    }

    #[expect(
        clippy::needless_range_loop,
        reason = "index loops read clearer in kernels"
    )]
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let BnCache { x_hat, inv_std } = self
            .cache
            .take()
            .expect("BatchNorm1d::backward without forward(train)");
        let (b, d) = (grad_out.rows(), grad_out.cols());
        let bf = b as f32;
        let mut grad_in = Tensor::zeros(&[b, d]);
        for c in 0..d {
            let mut sum_g = 0.0f32;
            let mut sum_gx = 0.0f32;
            for r in 0..b {
                let g = grad_out.at(r, c);
                sum_g += g;
                sum_gx += g * x_hat.at(r, c);
            }
            self.g_beta.data_mut()[c] += sum_g;
            self.g_gamma.data_mut()[c] += sum_gx;
            let gamma = self.gamma.data()[c];
            for r in 0..b {
                let g = grad_out.at(r, c);
                // standard batch-norm backward:
                // dx = gamma * inv_std / B * (B*g - sum_g - x_hat * sum_gx)
                *grad_in.at_mut(r, c) =
                    gamma * inv_std[c] / bf * (bf * g - sum_g - x_hat.at(r, c) * sum_gx);
            }
        }
        grad_in
    }

    fn collect_params(&self, prefix: &str, out: &mut ParamMap) {
        out.insert(format!("{prefix}.gamma"), self.gamma.clone());
        out.insert(format!("{prefix}.beta"), self.beta.clone());
        out.insert(format!("{prefix}.running_mean"), self.running_mean.clone());
        out.insert(format!("{prefix}.running_var"), self.running_var.clone());
    }

    fn for_each_trainable(&mut self, visit: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        visit("beta", &mut self.beta, &self.g_beta);
        visit("gamma", &mut self.gamma, &self.g_gamma);
    }

    fn load_params(&mut self, prefix: &str, src: &ParamMap) {
        for (leaf, slot) in [
            ("gamma", &mut self.gamma),
            ("beta", &mut self.beta),
            ("running_mean", &mut self.running_mean),
            ("running_var", &mut self.running_var),
        ] {
            if let Some(t) = src.get_in(prefix, leaf) {
                *slot = t.clone();
            }
        }
    }

    fn zero_grad(&mut self) {
        self.g_gamma.fill(0.0);
        self.g_beta.fill(0.0);
    }

    fn buffer_names(&self) -> Vec<&'static str> {
        vec!["running_mean", "running_var"]
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(BatchNorm1d {
            gamma: self.gamma.clone(),
            beta: self.beta.clone(),
            g_gamma: self.g_gamma.clone(),
            g_beta: self.g_beta.clone(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            momentum: self.momentum,
            eps: self.eps,
            cache: None,
        })
    }
}

/// The geometry of one convolution call: everything the lowering needs.
///
/// The lowering works on a zero-bordered copy of the image, `[C, H + 2·pad,
/// W + 2·pad]`, so every tap of every output position reads (or, folding
/// back, writes) a real cell and the row loops have no edge cases.
#[derive(Clone, Copy)]
struct ConvGeom {
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
}

/// Runs `$body` with `$ow` bound to the output width as a compile-time
/// constant for the widths small images have (a row copy or add is then a
/// vector move, not a `memcpy` call per four floats), else as the runtime
/// value — the same loop either way.
macro_rules! with_const_width {
    ($width:expr, |$ow:ident| $body:expr) => {
        match $width {
            4 => {
                let $ow = 4;
                $body
            }
            8 => {
                let $ow = 8;
                $body
            }
            $ow => $body,
        }
    };
}

impl ConvGeom {
    /// Elements of the zero-bordered image.
    fn padded_len(&self) -> usize {
        self.c * (self.h + 2 * self.pad) * (self.w + 2 * self.pad)
    }

    /// Copies one `[C, H, W]` image into the interior of `xp`, whose border
    /// the caller has zeroed.
    fn pad_image(&self, img: &[f32], xp: &mut [f32]) {
        let (hp, wp) = (self.h + 2 * self.pad, self.w + 2 * self.pad);
        with_const_width!(self.w, |w| {
            for (plane, padded) in img
                .chunks_exact(self.h * w)
                .zip(xp.chunks_exact_mut(hp * wp))
            {
                let interior = padded[self.pad * wp..].chunks_exact_mut(wp);
                for (row, padded_row) in plane.chunks_exact(w).zip(interior) {
                    padded_row[self.pad..self.pad + w].copy_from_slice(row);
                }
            }
        })
    }

    /// Unfolds the zero-bordered image `xp` into `cols [C·K·K, OH·OW]`,
    /// writing every element.
    fn im2col(&self, xp: &[f32], cols: &mut [f32]) {
        let ConvGeom { c, k, oh, .. } = *self;
        let (hp, wp) = (self.h + 2 * self.pad, self.w + 2 * self.pad);
        with_const_width!(self.ow, |ow| {
            let mut rows = cols.chunks_exact_mut(ow);
            for ci in 0..c {
                for ky in 0..k {
                    for kx in 0..k {
                        for oy in 0..oh {
                            let at = (ci * hp + oy + ky) * wp + kx;
                            let row = rows.next().expect("cols holds C*K*K*OH rows");
                            row.copy_from_slice(&xp[at..at + ow]);
                        }
                    }
                }
            }
        })
    }

    /// Folds `gcols [C·K·K, OH·OW]` back onto one `[C, H, W]` image,
    /// overwriting it, through a zero-bordered tile.
    ///
    /// An input pixel receives one contribution per tap; they must be added
    /// in increasing `(oy, ox)`. With `oy = iy - ky + pad` that is
    /// *descending* `(ky, kx)`, which is how the taps are walked here — an
    /// ascending walk would silently change the sums.
    fn col2im(&self, gcols: &[f32], img: &mut [f32]) {
        if (self.k, self.pad, self.w, self.ow) == (3, 1, 4, 4) {
            return self.col2im_in_registers::<3, 1, 4, 4>(gcols, img);
        }
        let ConvGeom { c, k, oh, .. } = *self;
        let (hp, wp) = (self.h + 2 * self.pad, self.w + 2 * self.pad);
        let mut tile = scratch::take(&[self.padded_len()]);
        let gp = tile.data_mut();
        gp.fill(0.0);
        with_const_width!(self.ow, |ow| {
            for ci in 0..c {
                for ky in (0..k).rev() {
                    for kx in (0..k).rev() {
                        let f = (ci * k + ky) * k + kx;
                        for oy in 0..oh {
                            let at = (ci * hp + oy + ky) * wp + kx;
                            let src = &gcols[(f * oh + oy) * ow..(f * oh + oy + 1) * ow];
                            for (d, &g) in gp[at..at + ow].iter_mut().zip(src) {
                                *d += g;
                            }
                        }
                    }
                }
            }
        });
        // what landed on the border belongs to no pixel
        with_const_width!(self.w, |w| {
            for (plane, padded) in img
                .chunks_exact_mut(self.h * w)
                .zip(gp.chunks_exact(hp * wp))
            {
                let interior = padded[self.pad * wp..].chunks_exact(wp);
                for (row, padded_row) in plane.chunks_exact_mut(w).zip(interior) {
                    row.copy_from_slice(&padded_row[self.pad..self.pad + w]);
                }
            }
        });
        scratch::give(tile);
    }

    /// [`ConvGeom::col2im`] for the 3x3, pad-1 kernel on `convnet2`'s second
    /// layer (width 4), with every bound but the row count known at compile
    /// time: each image row is summed in registers, tap by tap in the same
    /// descending order, and stored once — no bordered tile to clear, fold
    /// into and copy out of.
    fn col2im_in_registers<const K: usize, const PAD: usize, const W: usize, const OW: usize>(
        &self,
        gcols: &[f32],
        img: &mut [f32],
    ) {
        let mut rows = img.chunks_exact_mut(W);
        for ci in 0..self.c {
            for iy in 0..self.h {
                let mut acc = [0.0f32; W];
                for ky in (0..K).rev() {
                    let oy = iy + PAD;
                    if oy < ky || oy - ky >= self.oh {
                        continue;
                    }
                    for kx in (0..K).rev() {
                        let at = (((ci * K + ky) * K + kx) * self.oh + oy - ky) * OW;
                        let src: &[f32; OW] = gcols[at..at + OW].try_into().expect("one row");
                        for (ix, a) in acc.iter_mut().enumerate() {
                            if ix + PAD >= kx && ix + PAD - kx < OW {
                                *a += src[ix + PAD - kx];
                            }
                        }
                    }
                }
                rows.next()
                    .expect("the image holds C*H rows")
                    .copy_from_slice(&acc);
            }
        }
    }
}

/// 2-D convolution over `[B, C, H, W]` inputs.
///
/// Stride is fixed at 1; `pad` zero-pads symmetrically.
///
/// One lowering serves every pass: an image is unfolded to the
/// feature-major matrix `cols[f, p]` (`f = (ci, ky, kx)`, `p = (oy, ox)`),
/// `[C·K·K, OH·OW]`. Forward is `W [OC, C·K·K] x cols`, which *is* the
/// image's `[OC, OH, OW]` block of the NCHW output; the weight gradient is
/// `cols x g^T` with the `k` chain running on across images; the input
/// gradient is `W^T x g` folded back by `ConvGeom::col2im`. The
/// accumulation orders these fix are part of the determinism contract
/// (DESIGN.md, "training step").
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    k: usize,
    pad: usize,
    /// Kernel flattened to `[out_ch, in_ch * k * k]`.
    w: Tensor,
    b: Tensor,
    gw: Tensor,
    gb: Tensor,
    /// The training batch's lowering, `[B, C·K·K, OH·OW]`, and the input's
    /// `(H, W)`: `backward` reads the columns forward already built.
    cache: Option<(Tensor, usize, usize)>,
}

/// `gt [P, OC] = g [OC, P]ᵀ`, and `gb[o] += g[o, p]` over increasing `p` —
/// the bias gradient's order — in the same pass. `convnet2`'s channel
/// counts keep the bias row in registers across the pass.
fn transpose_fold_bias(g: &[f32], p: usize, gt: &mut [f32], gb: &mut [f32]) {
    match gb.len() {
        8 => transpose_fold_bias_const::<8>(g, p, gt, gb),
        16 => transpose_fold_bias_const::<16>(g, p, gt, gb),
        oc => {
            for (pi, row) in gt.chunks_exact_mut(oc).enumerate() {
                for (o, (t, acc)) in row.iter_mut().zip(gb.iter_mut()).enumerate() {
                    *t = g[o * p + pi];
                    *acc += *t;
                }
            }
        }
    }
}

/// [`transpose_fold_bias`] for `OC` output channels.
fn transpose_fold_bias_const<const OC: usize>(g: &[f32], p: usize, gt: &mut [f32], gb: &mut [f32]) {
    let rows: [&[f32]; OC] = std::array::from_fn(|o| &g[o * p..(o + 1) * p]);
    let mut acc: [f32; OC] = gb.try_into().expect("one bias per output channel");
    for (pi, row) in gt.chunks_exact_mut(OC).take(p).enumerate() {
        for o in 0..OC {
            row[o] = rows[o][pi];
            acc[o] += row[o];
        }
    }
    gb.copy_from_slice(&acc);
}

impl Conv2d {
    /// Creates a `k x k` convolution from `in_ch` to `out_ch` channels with
    /// zero padding `pad` and stride 1.
    pub fn new(in_ch: usize, out_ch: usize, k: usize, pad: usize, rng: &mut impl Rng) -> Self {
        let fan_in = in_ch * k * k;
        Self {
            in_ch,
            out_ch,
            k,
            pad,
            w: init::kaiming_normal(&[out_ch, fan_in], fan_in, rng),
            b: Tensor::zeros(&[out_ch]),
            gw: Tensor::zeros(&[out_ch, fan_in]),
            gb: Tensor::zeros(&[out_ch]),
            cache: None,
        }
    }

    /// Output spatial size for an `h x w` input.
    ///
    /// # Panics
    /// Panics with a named error when the kernel exceeds the padded input
    /// (instead of a bare usize underflow).
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h + 2 * self.pad + 1 > self.k && w + 2 * self.pad + 1 > self.k,
            "Conv2d kernel {}x{} does not fit {}x{} input with padding {}",
            self.k,
            self.k,
            h,
            w,
            self.pad
        );
        (h + 2 * self.pad + 1 - self.k, w + 2 * self.pad + 1 - self.k)
    }

    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        let (oh, ow) = self.out_hw(h, w);
        ConvGeom {
            c: self.in_ch,
            h,
            w,
            k: self.k,
            pad: self.pad,
            oh,
            ow,
        }
    }

    /// Shared backward pass; the input gradient (one more product and the
    /// fold per image) is computed only when `want_input`.
    fn backprop(&mut self, grad_out: &Tensor, want_input: bool) -> Option<Tensor> {
        let (cols, h, w) = self
            .cache
            .take()
            .expect("Conv2d::backward without forward(train)");
        let geom = self.geom(h, w);
        let (bsz, c) = (cols.shape()[0], self.in_ch);
        let (oc, fan_in, p) = (self.out_ch, c * self.k * self.k, geom.oh * geom.ow);
        assert_eq!(
            grad_out.shape(),
            &[bsz, oc, geom.oh, geom.ow],
            "Conv2d grad shape"
        );
        let mut gt = scratch::take(&[p, oc]);
        // gw^T as one chain per element over every (b, oy, ox), from +0.0
        let mut gwt = scratch::take(&[fan_in, oc]);
        gwt.fill(0.0);
        // the input gradient and the column gradient its fold reads
        let mut input_side =
            want_input.then(|| (scratch::take(&[bsz, c, h, w]), scratch::take(&[fan_in, p])));
        let images = grad_out.data().chunks_exact(oc * p);
        let lowerings = cols.data().chunks_exact(fan_in * p);
        for (bi, (g, lowered)) in images.zip(lowerings).enumerate() {
            // g^T [P, OC]: the rhs of the weight-gradient product
            transpose_fold_bias(g, p, gt.data_mut(), self.gb.data_mut());
            gemm::<false, CONTINUE>(lowered, gt.data(), gwt.data_mut(), fan_in, p, oc);
            if let Some((grad_in, gcols)) = input_side.as_mut() {
                // gcols [F, P] = W^T g, each element over increasing oc
                gemm::<true, OVERWRITE>(self.w.data(), g, gcols.data_mut(), fan_in, oc, p);
                let img = &mut grad_in.data_mut()[bi * c * h * w..(bi + 1) * c * h * w];
                geom.col2im(gcols.data(), img);
            }
        }
        // the finished chains are added to the gradient once
        for (o, gw_row) in self.gw.data_mut().chunks_exact_mut(fan_in).enumerate() {
            for (f, gv) in gw_row.iter_mut().enumerate() {
                *gv += gwt.data()[f * oc + o];
            }
        }
        for t in [cols, gt, gwt] {
            scratch::give(t);
        }
        input_side.map(|(grad_in, gcols)| {
            scratch::give(gcols);
            grad_in
        })
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 4, "Conv2d expects [B, C, H, W]");
        assert_eq!(x.shape()[1], self.in_ch, "Conv2d input channels");
        let (bsz, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let geom = self.geom(h, w);
        let (oc, fan_in, p) = (self.out_ch, c * self.k * self.k, geom.oh * geom.ow);
        let mut y = scratch::take(&[bsz, oc, geom.oh, geom.ow]);
        // training keeps every image's columns for backward (in place of any
        // a backward never consumed); eval refills one
        if train {
            if let Some((stale, _, _)) = self.cache.take() {
                scratch::give(stale);
            }
        }
        let mut cols = scratch::take(&[if train { bsz } else { 1 }, fan_in, p]);
        let mut xp = scratch::take(&[geom.padded_len()]);
        xp.fill(0.0);
        let images = x.data().chunks_exact(c * h * w);
        for (bi, (img, y_img)) in images
            .zip(y.data_mut().chunks_exact_mut(oc * p))
            .enumerate()
        {
            let tile = if train { bi } else { 0 };
            let lowered = &mut cols.data_mut()[tile * fan_in * p..(tile + 1) * fan_in * p];
            geom.pad_image(img, xp.data_mut());
            geom.im2col(xp.data(), lowered);
            // y[oc, p] = sum over increasing f of w[oc, f] * cols[f, p], + bias
            gemm::<false, OVERWRITE>(self.w.data(), lowered, y_img, oc, fan_in, p);
            for (row, &bv) in y_img.chunks_exact_mut(p).zip(self.b.data()) {
                for v in row {
                    *v += bv;
                }
            }
        }
        scratch::give(xp);
        if train {
            self.cache = Some((cols, h, w));
        } else {
            scratch::give(cols);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, true)
            .expect("input gradient was requested")
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backprop(grad_out, false);
    }

    fn collect_params(&self, prefix: &str, out: &mut ParamMap) {
        out.insert(format!("{prefix}.weight"), self.w.clone());
        out.insert(format!("{prefix}.bias"), self.b.clone());
    }

    fn for_each_trainable(&mut self, visit: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        visit("bias", &mut self.b, &self.gb);
        visit("weight", &mut self.w, &self.gw);
    }

    fn load_params(&mut self, prefix: &str, src: &ParamMap) {
        if let Some(w) = src.get_in(prefix, "weight") {
            assert_eq!(w.shape(), self.w.shape(), "Conv2d weight shape");
            self.w = w.clone();
        }
        if let Some(b) = src.get_in(prefix, "bias") {
            assert_eq!(b.shape(), self.b.shape(), "Conv2d bias shape");
            self.b = b.clone();
        }
    }

    fn zero_grad(&mut self) {
        self.gw.fill(0.0);
        self.gb.fill(0.0);
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Conv2d {
            in_ch: self.in_ch,
            out_ch: self.out_ch,
            k: self.k,
            pad: self.pad,
            w: self.w.clone(),
            b: self.b.clone(),
            gw: self.gw.clone(),
            gb: self.gb.clone(),
            cache: None,
        })
    }
}

/// 2x2 max pooling with stride 2 over `[B, C, H, W]`.
///
/// Odd trailing rows/columns are dropped (floor semantics, as in PyTorch).
pub type MaxPool2d = MaxPool<false>;

/// ReLU followed by 2x2/stride-2 max pooling, in one pass over `[B, C, H, W]`.
///
/// Bit for bit the composition [`Relu`] then [`MaxPool2d`], values and
/// input gradient: ReLU is monotone and sends every non-positive value (and
/// NaN) to the same `+0.0`, so the first largest cell of a window is the
/// first largest cell after ReLU, the pooled value is the rectified maximum,
/// and a window whose maximum is not positive passes no gradient. The
/// rectifier then touches one value per window instead of four, and there is
/// no activation tensor to write, cache and mask.
pub type ReluMaxPool2d = MaxPool<true>;

/// The pooling layer behind [`MaxPool2d`] (`RELU = false`) and
/// [`ReluMaxPool2d`] (`RELU = true`).
#[derive(Default)]
pub struct MaxPool<const RELU: bool> {
    /// The training input's shape and, per output, its window's winner
    /// (see [`MaxPool::scan`]): `backward` routes without searching again.
    cache: Option<([usize; 4], Tensor)>,
}

/// A window that routes no gradient (its rectified maximum is `+0.0`).
const NO_WINNER: f32 = -1.0;

impl<const RELU: bool> MaxPool<RELU> {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pools every 2x2 window of `x` into `y`, in output order, and records
    /// its winner in `winners`: the first of the window's largest cells, as
    /// its offset `2·dy + dx`. The scan is `>` against a running best that
    /// starts at −∞ and at the first cell, so NaN never wins and a window
    /// with no cell above −∞ goes to its first cell. Under `RELU` the value
    /// is rectified and a window whose value is `+0.0` has [`NO_WINNER`].
    fn scan(x: &Tensor, y: &mut [f32], winners: &mut [f32]) {
        let (h, w) = (x.shape()[2], x.shape()[3]);
        if h < 2 || w < 2 {
            return; // no window
        }
        let mut outputs = y
            .chunks_exact_mut(w / 2)
            .zip(winners.chunks_exact_mut(w / 2));
        with_const_width!(w, |w| {
            for plane in x.data().chunks_exact(h * w) {
                // `chunks_exact` drops an odd last row here and an odd last column below
                for pair in plane.chunks_exact(2 * w) {
                    let (top, bottom) = pair.split_at(w);
                    let (y_row, win_row) = outputs.next().expect("an output row per row pair");
                    let windows = top.chunks_exact(2).zip(bottom.chunks_exact(2));
                    for ((t, b), (v, win)) in windows.zip(y_row.iter_mut().zip(win_row)) {
                        let (mut best, mut winner) = (f32::NEG_INFINITY, 0.0);
                        for (offset, cell) in [t[0], t[1], b[0], b[1]].into_iter().enumerate() {
                            if cell > best {
                                best = cell;
                                winner = offset as f32;
                            }
                        }
                        *v = if RELU { relu(best) } else { best };
                        *win = if !RELU || *v > 0.0 { winner } else { NO_WINNER };
                    }
                }
            }
        })
    }

    /// Writes every cell of every window of `grad_in` (`[B, C, H, W]`): the
    /// winner of output `o` gets `+0.0 + grad_out[o]` — what adding into a
    /// zeroed cell gives — and the other three `+0.0`. Cells of an odd last
    /// row or column belong to no window and are left as they are.
    fn route(winners: &[f32], grad_out: &[f32], grad_in: &mut Tensor) {
        let (h, w) = (grad_in.shape()[2], grad_in.shape()[3]);
        if h < 2 || w < 2 {
            return; // no window
        }
        let mut outputs = winners
            .chunks_exact(w / 2)
            .zip(grad_out.chunks_exact(w / 2));
        with_const_width!(w, |w| {
            for plane in grad_in.data_mut().chunks_exact_mut(h * w) {
                for pair in plane.chunks_exact_mut(2 * w) {
                    let (top, bottom) = pair.split_at_mut(w);
                    let (win_row, g_row) = outputs.next().expect("an output row per row pair");
                    let windows = top.chunks_exact_mut(2).zip(bottom.chunks_exact_mut(2));
                    for ((t, b), (&winner, &g)) in windows.zip(win_row.iter().zip(g_row)) {
                        let routed = |offset: f32| if winner == offset { 0.0 + g } else { 0.0 };
                        [t[0], t[1], b[0], b[1]] =
                            [routed(0.0), routed(1.0), routed(2.0), routed(3.0)];
                    }
                }
            }
        })
    }
}

impl<const RELU: bool> Layer for MaxPool<RELU> {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        assert_eq!(x.shape().len(), 4, "MaxPool2d expects [B, C, H, W]");
        let (b, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
        let mut y = scratch::take(&[b, c, h / 2, w / 2]);
        if train {
            if let Some((_, stale)) = self.cache.take() {
                scratch::give(stale);
            }
        }
        let mut winners = scratch::take(&[b, c, h / 2, w / 2]);
        Self::scan(x, y.data_mut(), winners.data_mut());
        if train {
            self.cache = Some(([b, c, h, w], winners));
        } else {
            scratch::give(winners);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (in_shape, winners) = self
            .cache
            .take()
            .expect("MaxPool2d::backward without forward(train)");
        assert_eq!(grad_out.shape(), winners.shape(), "MaxPool2d grad shape");
        let mut grad_in = scratch::take(&in_shape);
        if in_shape[2] % 2 == 1 || in_shape[3] % 2 == 1 {
            grad_in.fill(0.0); // for the cells no window covers
        }
        Self::route(winners.data(), grad_out.data(), &mut grad_in);
        scratch::give(winners);
        grad_in
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self::default())
    }
}

impl Sequential {
    /// Back-propagates through every layer; the first layer's input
    /// gradient is computed only when `want_input`.
    fn backprop(&mut self, grad_out: &Tensor, want_input: bool) -> Option<Tensor> {
        let mut cur: Option<Tensor> = None;
        for (idx, (_, layer)) in self.layers.iter_mut().enumerate().rev() {
            let g = cur.as_ref().unwrap_or(grad_out);
            let next = if idx > 0 || want_input {
                Some(layer.backward(g))
            } else {
                layer.backward_params(g);
                None
            };
            if let Some(done) = std::mem::replace(&mut cur, next) {
                scratch::give(done);
            }
        }
        cur
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for (_, layer) in &mut self.layers {
            let next = layer.forward(cur.as_ref().unwrap_or(x), train);
            if let Some(done) = cur.replace(next) {
                scratch::give(done);
            }
        }
        cur.unwrap_or_else(|| x.clone())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backprop(grad_out, true)
            .unwrap_or_else(|| grad_out.clone())
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        if let Some(unused) = self.backprop(grad_out, false) {
            scratch::give(unused);
        }
    }

    fn collect_params(&self, prefix: &str, out: &mut ParamMap) {
        for (name, layer) in &self.layers {
            layer.collect_params(&join(prefix, name), out);
        }
    }

    /// Walks the layers in name order, handing out `"<layer>.<leaf>"`
    /// names kept since [`Sequential::push`], so the walk builds no key.
    fn for_each_trainable(&mut self, visit: &mut dyn FnMut(&str, &mut Tensor, &Tensor)) {
        let mut keys = self.walk.keys.iter();
        for &i in &self.walk.layers {
            self.layers[i].1.for_each_trainable(&mut |_, p, g| {
                visit(keys.next().expect("a key per trained tensor"), p, g);
            });
        }
    }

    fn load_params(&mut self, prefix: &str, src: &ParamMap) {
        for (name, layer) in &mut self.layers {
            layer.load_params(&join(prefix, name), src);
        }
    }

    fn zero_grad(&mut self) {
        for (_, layer) in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone_net())
    }
}

/// An ordered, named composition of layers.
pub struct Sequential {
    layers: Vec<(String, Box<dyn Layer>)>,
    /// Fixed by the layer names, so clones share it.
    walk: Arc<Walk>,
}

/// The order an optimizer walks a [`Sequential`]'s trained tensors in.
#[derive(Default)]
struct Walk {
    /// Layer indices sorted by name: the order the layers' parameter names
    /// sort in.
    layers: Vec<usize>,
    /// `"<layer>.<leaf>"` of every trained tensor, in name order.
    keys: Vec<String>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self {
            layers: Vec::new(),
            walk: Arc::default(),
        }
    }

    /// Appends a named layer; names become parameter-key prefixes.
    ///
    /// # Panics
    /// Panics if the trained tensors' names would not sort layer by layer:
    /// two layers with parameters under one name, or a name that embeds `.`
    /// so that another layer's keys fall between its own.
    pub fn push(&mut self, name: impl Into<String>, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push((name.into(), layer));
        let name_key = |i: usize| self.layers[i].0.bytes().chain([b'.']);
        let mut order: Vec<usize> = (0..self.layers.len()).collect();
        order.sort_by(|&a, &b| name_key(a).cmp(name_key(b)));
        let mut keys = Vec::new();
        for &i in &order {
            let (name, layer) = &mut self.layers[i];
            layer.for_each_trainable(&mut |leaf, _, _| keys.push(format!("{name}.{leaf}")));
        }
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "parameter names must sort layer by layer: {keys:?}"
        );
        self.walk = Arc::new(Walk {
            layers: order,
            keys,
        });
        self
    }

    /// Buffer keys (fully prefixed) across all layers.
    pub fn buffer_keys(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, layer) in &self.layers {
            for b in layer.buffer_names() {
                out.push(format!("{name}.{b}"));
            }
        }
        out
    }

    /// Deep copy.
    pub fn clone_net(&self) -> Sequential {
        Sequential {
            layers: self
                .layers
                .iter()
                .map(|(n, l)| (n.clone(), l.clone_layer()))
                .collect(),
            walk: Arc::clone(&self.walk),
        }
    }
}

/// `prefix.name`, borrowing `name` for a top-level network so walking it
/// (every evaluation loads parameters) allocates nothing.
fn join<'a>(prefix: &str, name: &'a str) -> Cow<'a, str> {
    if prefix.is_empty() {
        Cow::Borrowed(name)
    } else {
        Cow::Owned(format!("{prefix}.{name}"))
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_known() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut l = Linear::new(2, 1, &mut rng);
        l.w = Tensor::from_vec(vec![1, 2], vec![2.0, 3.0]);
        l.b = Tensor::from_vec(vec![1], vec![1.0]);
        let x = Tensor::from_vec(vec![1, 2], vec![4.0, 5.0]);
        let y = l.forward(&x, false);
        assert_eq!(y.data(), &[2.0 * 4.0 + 3.0 * 5.0 + 1.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = r.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = r.backward(&Tensor::ones(&[1, 4]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec(vec![1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.forward(&x, false), x);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 9);
        let x = Tensor::ones(&[1, 10_000]);
        let y = d.forward(&x, true);
        // E[y] = 1; empirical mean should be close.
        assert!((y.mean() - 1.0).abs() < 0.05, "mean {}", y.mean());
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 3.0, 2.0]);
        let mut p = MaxPool2d::new();
        let y = p.forward(&x, true);
        assert_eq!(y.data(), &[5.0]);
        let g = p.backward(&Tensor::ones(&[1, 1, 1, 1]));
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_routes_a_window_without_a_max_to_its_own_first_cell() {
        // no cell of these windows beats the running best's −∞ start, so
        // each window's gradient belongs at its own first cell, not at
        // element 0 of the batch
        for fill in [f32::NEG_INFINITY, f32::NAN] {
            let mut p = MaxPool2d::new();
            let y = p.forward(&Tensor::full(&[1, 2, 4, 4], fill), true);
            assert!(y.data().iter().all(|&v| v == f32::NEG_INFINITY));
            let g = p.backward(&Tensor::ones(&[1, 2, 2, 2]));
            for (i, &v) in g.data().iter().enumerate() {
                let (row, col) = (i / 4 % 4, i % 4);
                let first_cell = row % 2 == 0 && col % 2 == 0;
                assert_eq!(v, if first_cell { 1.0 } else { 0.0 }, "{fill} at {i}");
            }
        }
    }

    #[test]
    fn conv_shapes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new(2, 4, 3, 1, &mut rng);
        let x = Tensor::zeros(&[2, 2, 8, 8]);
        let y = c.forward(&x, false);
        assert_eq!(y.shape(), &[2, 4, 8, 8]);
        let c2 = Conv2d::new(1, 1, 3, 0, &mut rng);
        assert_eq!(c2.out_hw(8, 8), (6, 6));
    }

    #[test]
    fn conv_known_values() {
        // 1x1 input channel, 2x2 kernel of ones, no padding: output = window sums.
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Conv2d::new(1, 1, 2, 0, &mut rng);
        c.w = Tensor::ones(&[1, 4]);
        c.b = Tensor::zeros(&[1]);
        let x = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let y = c.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn batchnorm_normalizes_batch() {
        let mut bn = BatchNorm1d::new(2);
        let x = Tensor::from_vec(vec![4, 2], vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let y = bn.forward(&x, true);
        // each column should have ~zero mean, ~unit variance
        for c in 0..2 {
            let col: Vec<f32> = (0..4).map(|r| y.at(r, c)).collect();
            let mean: f32 = col.iter().sum::<f32>() / 4.0;
            let var: f32 = col.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn batchnorm_running_stats_move_toward_batch() {
        let mut bn = BatchNorm1d::new(1);
        let x = Tensor::from_vec(vec![2, 1], vec![10.0, 20.0]);
        for _ in 0..200 {
            let _ = bn.forward(&x, true);
        }
        assert!((bn.running_mean.data()[0] - 15.0).abs() < 0.5);
    }

    #[test]
    fn sequential_collect_and_load_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Sequential::new();
        net.push("fc1", Box::new(Linear::new(4, 3, &mut rng)));
        net.push("act", Box::new(Relu::new()));
        net.push("fc2", Box::new(Linear::new(3, 2, &mut rng)));
        let mut p = ParamMap::new();
        net.collect_params("", &mut p);
        assert_eq!(p.len(), 4);
        assert!(p.contains("fc1.weight"));
        let zeros = p.zeros_like();
        net.load_params("", &zeros);
        let mut p2 = ParamMap::new();
        net.collect_params("", &mut p2);
        assert_eq!(p2, zeros);
    }

    #[test]
    fn buffer_keys_report_bn_stats() {
        let mut net = Sequential::new();
        net.push("bn1", Box::new(BatchNorm1d::new(3)));
        assert_eq!(
            net.buffer_keys(),
            vec!["bn1.running_mean", "bn1.running_var"]
        );
    }
}
