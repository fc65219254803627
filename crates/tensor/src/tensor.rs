//! A dense, row-major `f32` tensor.
//!
//! The tensor is deliberately minimal: it supports exactly the operations the
//! layers in [`crate::layer`] need, with shapes checked at call time (a shape
//! mismatch in an FL course is always a programming error, so the methods
//! panic rather than return `Result`).
//!
//! Storage is copy-on-write: the backing buffer lives behind an [`Arc`], so
//! `Clone` is O(1) (a refcount bump) and the first mutation of a shared
//! tensor pays the copy. This is what makes speculation snapshots and
//! broadcast payload clones cheap — a cloned model only copies the tensors
//! that are actually written. A `ParamMap` clone also shares its keys
//! (`Arc<str>`), so it costs one allocation, its entry vector. What the
//! sharing still costs is the copy-on-write check on every write and, on
//! the first step after a model is loaded, the copy of each tensor it
//! shares with the map it was loaded from.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Dimensions stored inline up to rank 4 (every shape a course produces), so
/// cloning, reshaping or recycling a tensor never allocates for its shape;
/// higher ranks (the wire format allows them) spill to the heap.
#[derive(Clone, PartialEq)]
enum Shape {
    /// `dims[..rank]` are the dimensions; the unused tail stays zero so the
    /// derived `PartialEq` compares shapes, not leftovers.
    Inline {
        dims: [usize; 4],
        rank: u8,
    },
    Heap(Vec<usize>),
}

impl Shape {
    fn new(dims: &[usize]) -> Self {
        if dims.len() <= 4 {
            let mut inline = [0usize; 4];
            inline[..dims.len()].copy_from_slice(dims);
            Shape::Inline {
                dims: inline,
                rank: dims.len() as u8,
            }
        } else {
            Shape::Heap(dims.to_vec())
        }
    }
}

impl Deref for Shape {
    type Target = [usize];

    #[inline]
    fn deref(&self) -> &[usize] {
        match self {
            Shape::Inline { dims, rank } => &dims[..*rank as usize],
            Shape::Heap(v) => v,
        }
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.deref().fmt(f)
    }
}

/// Dense row-major tensor of `f32` values with copy-on-write storage.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Arc<Vec<f32>>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, .. {} values])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

impl Tensor {
    /// Creates a tensor from a shape and backing data.
    ///
    /// # Panics
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            data.len(),
            "shape {:?} implies {} elements, got {}",
            shape,
            numel,
            data.len()
        );
        Self {
            shape: Shape::new(&shape),
            data: Arc::new(data),
        }
    }

    /// All-zeros tensor of the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: Shape::new(shape),
            data: Arc::new(vec![0.0; numel]),
        }
    }

    /// All-`v` tensor of the given shape.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let numel = shape.iter().product();
        Self {
            shape: Shape::new(shape),
            data: Arc::new(vec![v; numel]),
        }
    }

    /// All-ones tensor of the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// A zero tensor with the same shape as `self`.
    pub fn zeros_like(&self) -> Self {
        Self::zeros(&self.shape)
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Immutable view of the backing data (row-major).
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the backing data (row-major).
    ///
    /// Copy-on-write: if the storage is shared with another tensor this
    /// clones the buffer first, so the returned slice is always unique.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// `true` when `self` and `other` share the same backing buffer (a
    /// copy-on-write clone that has not yet diverged).
    #[inline]
    pub fn shares_storage(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of rows of a 2-D tensor.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a 2-D tensor");
        self.shape[0]
    }

    /// Number of columns of a 2-D tensor.
    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a 2-D tensor");
        self.shape[1]
    }

    /// Element of a 2-D tensor at `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Mutable element of a 2-D tensor at `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut f32 {
        debug_assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        &mut Arc::make_mut(&mut self.data)[r * cols + c]
    }

    /// Returns a tensor with the same data but a new shape.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Self {
        let numel: usize = shape.iter().product();
        assert_eq!(
            numel,
            self.data.len(),
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        Self {
            shape: Shape::new(shape),
            // shares storage with `self`: reshape is free until either side
            // is written
            data: Arc::clone(&self.data),
        }
    }

    /// Matrix product of two 2-D tensors: `[m,k] x [k,n] -> [m,n]`.
    ///
    /// Backed by the register-blocked kernel (see [`Tensor::matmul_into`]);
    /// numerically bit-identical to [`Tensor::matmul_naive`] for finite
    /// inputs, since every output element accumulates its products in the
    /// same strict increasing-`k` order with a single accumulator.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// Reference kernel: the original cache-friendly i-k-j triple loop with
    /// a zero-skip. Kept as the baseline the criterion benches and the kernel
    /// proptests compare the blocked kernel against.
    pub fn matmul_naive(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dims: {:?} x {:?}",
            self.shape, rhs.shape
        );
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o_row = &mut out[i * n..(i + 1) * n];
            for (kk, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &rhs.data[kk * n..(kk + 1) * n];
                for (o, &b) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor {
            shape: Shape::new(&[m, n]),
            data: Arc::new(out),
        }
    }

    /// `out = self x rhs`, reusing `out`'s allocation when its element count
    /// already matches (`out` is reshaped; the hot training loop hits the
    /// no-allocation path every step).
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(
            k, k2,
            "matmul inner dims: {:?} x {:?}",
            self.shape, rhs.shape
        );
        out.reset_to(&[m, n]);
        kernels::gemm::<false, { kernels::OVERWRITE }>(
            &self.data,
            &rhs.data,
            out.data_mut(),
            m,
            k,
            n,
        );
    }

    /// Transposed-RHS fast path: `self [m,k] x rhs^T` where `rhs` is stored
    /// `[n,k]` — the layout of `Linear` weights, so the forward pass never
    /// materializes `w.t()` as a fresh tensor.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(&[0]);
        self.matmul_nt_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_nt`] writing into `out`. A product with fewer rows
    /// than one tile band reads `rhs` where it lies; a taller one stages
    /// `rhs^T` in worker scratch for the tiles. Both give the tile's bits.
    pub fn matmul_nt_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "matmul_nt lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul_nt rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_nt inner dims: {:?} x {:?}^T",
            self.shape, rhs.shape
        );
        if m < kernels::MR {
            // a transpose would cost as much as the few rows' arithmetic
            out.reset_to(&[m, n]);
            kernels::gemm_nt_thin(&self.data, &rhs.data, out.data_mut(), m, k, n);
            return;
        }
        // stage rhs^T once; the transpose is O(k·n) against O(m·k·n) math
        let mut staged = crate::scratch::take(&[k, n]);
        kernels::transpose(&rhs.data, n, k, staged.data_mut());
        out.reset_to(&[m, n]);
        kernels::gemm::<false, { kernels::OVERWRITE }>(
            &self.data,
            staged.data(),
            out.data_mut(),
            m,
            k,
            n,
        );
        crate::scratch::give(staged);
    }

    /// Transposed-LHS accumulating product: `out += self^T x rhs` where
    /// `self` is stored `[k,m]`. This is the gradient-of-weights shape
    /// (`gw += grad_out^T x input`) and accumulates directly into the grad
    /// buffer — no temporary, no transpose copy.
    pub fn matmul_tn_acc(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape.len(), 2, "matmul_tn lhs must be 2-D");
        assert_eq!(rhs.shape.len(), 2, "matmul_tn rhs must be 2-D");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(
            k, k2,
            "matmul_tn inner dims: {:?}^T x {:?}",
            self.shape, rhs.shape
        );
        assert_eq!(*out.shape, [m, n], "matmul_tn_acc out shape");
        kernels::gemm::<true, { kernels::ADD_AFTER }>(
            &self.data,
            &rhs.data,
            out.data_mut(),
            m,
            k,
            n,
        );
    }

    /// Transpose of a 2-D tensor.
    pub fn t(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "t() requires a 2-D tensor");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        kernels::transpose(&self.data, m, n, &mut out);
        Tensor {
            shape: Shape::new(&[n, m]),
            data: Arc::new(out),
        }
    }

    /// Elementwise sum; shapes must match exactly.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a + b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(data),
        }
    }

    /// Elementwise difference; shapes must match exactly.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a - b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(data),
        }
    }

    /// Elementwise (Hadamard) product; shapes must match exactly.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape, rhs.shape, "mul shape mismatch");
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .collect();
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(data),
        }
    }

    /// `self += alpha * rhs` in place; shapes must match exactly.
    pub fn add_scaled(&mut self, alpha: f32, rhs: &Tensor) {
        assert_eq!(self.shape, rhs.shape, "add_scaled shape mismatch");
        for (a, b) in self.data_mut().iter_mut().zip(rhs.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Fused accumulate: `self += alpha * (u - g)` in place, without
    /// materializing the difference tensor. Per coordinate this performs
    /// exactly `self[i] += alpha * (u[i] - g[i])` — the same two floating
    /// point operations, in the same order, as the materialize-then-
    /// [`add_scaled`] form it replaces, so the result is bit-identical
    /// (rustc does not contract to hardware FMA).
    ///
    /// This is the aggregation hot-path kernel: the accumulator `self` is
    /// preallocated and reused across rounds, and the borrowed `u`/`g`
    /// operands may be wire views or shared CoW buffers.
    ///
    /// [`add_scaled`]: Tensor::add_scaled
    pub fn acc_scaled_diff(&mut self, alpha: f32, u: &Tensor, g: &Tensor) {
        assert_eq!(self.shape, u.shape, "acc_scaled_diff shape mismatch (u)");
        assert_eq!(self.shape, g.shape, "acc_scaled_diff shape mismatch (g)");
        kernels::acc_scaled_diff(self.data_mut(), alpha, &u.data, &g.data);
    }

    /// Sets every element to `v` in place without touching the allocation —
    /// the accumulator-reset operation (`scale(0.0)` would turn NaN into
    /// NaN, not zero, so it cannot be used to clear a buffer).
    pub fn fill(&mut self, v: f32) {
        self.data_mut().fill(v);
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f32) {
        for v in self.data_mut() {
            *v *= alpha;
        }
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: Arc::new(self.data.iter().map(|&v| f(v)).collect()),
        }
    }

    /// Copies `src`'s contents into `self`; shapes must match exactly.
    pub fn copy_from(&mut self, src: &Tensor) {
        assert_eq!(self.shape, src.shape, "copy_from shape mismatch");
        if Arc::ptr_eq(&self.data, &src.data) {
            return; // already the same buffer — copying would be a no-op
        }
        self.data_mut().copy_from_slice(&src.data);
    }

    /// Reshapes in place to `shape`, resizing the backing buffer. Contents
    /// are unspecified afterwards; kernels writing every element call this
    /// to reuse the allocation across steps.
    pub(crate) fn reset_to(&mut self, shape: &[usize]) {
        let numel = shape.iter().product();
        if *self.shape != *shape {
            self.shape = Shape::new(shape);
        }
        match Arc::get_mut(&mut self.data) {
            Some(v) => v.resize(numel, 0.0),
            // shared buffer: the caller overwrites every element anyway, so
            // allocate fresh instead of cloning contents via make_mut
            None => self.data = Arc::new(vec![0.0; numel]),
        }
    }

    /// `true` when no other tensor shares this one's backing buffer.
    pub(crate) fn is_unique(&mut self) -> bool {
        Arc::get_mut(&mut self.data).is_some()
    }

    /// Allocated element capacity of the backing buffer.
    pub(crate) fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Fills the backing buffer with NaN up to its capacity (see
    /// [`crate::scratch::poison`]).
    pub(crate) fn poison(&mut self) {
        let v = Arc::make_mut(&mut self.data);
        v.clear();
        v.resize(v.capacity(), f32::NAN);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Inner product of the flattened tensors; shapes must match exactly.
    pub fn dot(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.shape, rhs.shape, "dot shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Euclidean (Frobenius) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Squared Euclidean distance to `rhs`.
    pub fn sq_dist(&self, rhs: &Tensor) -> f32 {
        assert_eq!(self.shape, rhs.shape, "sq_dist shape mismatch");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Row `r` of a 2-D tensor as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        &self.data[r * n..(r + 1) * n]
    }

    /// Stacks 1-D row slices into a 2-D tensor `[rows.len(), width]`.
    ///
    /// # Panics
    /// Panics if any row's length differs from `width`.
    pub fn stack_rows(rows: &[&[f32]], width: usize) -> Tensor {
        let mut data = Vec::with_capacity(rows.len() * width);
        for r in rows {
            assert_eq!(r.len(), width, "stack_rows width mismatch");
            data.extend_from_slice(r);
        }
        Tensor {
            shape: Shape::new(&[rows.len(), width]),
            data: Arc::new(data),
        }
    }

    /// Argmax index of each row of a 2-D tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2);
        let n = self.shape[1];
        self.data
            .chunks_exact(n)
            .map(|row| {
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate().skip(1) {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// `true` when every element is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Register-blocked matmul micro-kernels.
///
/// Every kernel computes each output element with a *single accumulator in
/// strict increasing-`k` order* — the same order as the naive i-k-j loop —
/// so for finite inputs the results are bit-identical to
/// [`Tensor::matmul_naive`] (dropping the naive kernel's `a == 0.0` skip is
/// also exact: the accumulator starts at `+0.0` and can never become `-0.0`
/// under round-to-nearest, so adding a signed-zero product is the
/// identity). The speed comes purely from blocking: an `R x W` tile of
/// accumulators lives in registers across the whole `k` loop, so `out` is
/// touched once per tile instead of once per `k` step, and the compiler
/// vectorizes the constant-width column loop.
///
/// Tiles are shape-complete: any `m` is covered by 4-row bands plus one
/// 1–3-row band, any `n` by 16-wide tiles plus an 8/4/2/1-wide remainder, and
/// every one of those is the same monomorphised constant-bound loop — there
/// is no dynamic-width branch for a ragged shape to fall into.
pub(crate) mod kernels {
    /// Accumulator tile rows (distinct output rows per full tile).
    pub(crate) const MR: usize = 4;
    /// Accumulator tile columns. At `MR x NR = 4 x 16` the tile is 8 AVX2
    /// (4 AVX-512) registers, leaving room for the broadcast multipliers —
    /// the whole accumulator state lives in the register file across the
    /// `k` loop.
    const NR: usize = 16;

    /// Tile mode: accumulators start at `+0.0` and overwrite `out`.
    pub(crate) const OVERWRITE: u8 = 0;
    /// Tile mode: accumulators start at `+0.0` and are added to `out` once
    /// (`out += a x b`, the product rounded before the add).
    pub(crate) const ADD_AFTER: u8 = 1;
    /// Tile mode: accumulators start from `out` and overwrite it, so the
    /// `k` chain of a previous call continues unbroken — a product split
    /// along `k` into several calls gives the bits of the unsplit product.
    pub(crate) const CONTINUE: u8 = 2;

    /// `out (mode)= a x b` with `b` stored `[k,n]`, `out` `[m,n]`, and `a`
    /// stored `[m,k]` (`TA = false`) or `[k,m]` (`TA = true`).
    pub(crate) fn gemm<const TA: bool, const MODE: u8>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert_eq!(a.len(), m * k, "gemm lhs length");
        assert_eq!(b.len(), k * n, "gemm rhs length");
        assert_eq!(out.len(), m * n, "gemm out length");
        // The wide paths are the same Rust code monomorphized with wider
        // vector features enabled; lanes are independent accumulators, so
        // the result is bitwise the same on every path.
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f") {
                // SAFETY: the avx512f feature was just detected at runtime
                unsafe { gemm_avx512::<TA, MODE>(a, b, out, m, k, n) };
                return;
            }
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 feature was just detected at runtime
                unsafe { gemm_avx2::<TA, MODE>(a, b, out, m, k, n) };
                return;
            }
        }
        gemm_impl::<TA, MODE>(a, b, out, m, k, n);
    }

    /// # Safety
    /// The CPU must support `avx512f`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_avx512<const TA: bool, const MODE: u8>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_impl::<TA, MODE>(a, b, out, m, k, n);
    }

    /// # Safety
    /// The CPU must support `avx2`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn gemm_avx2<const TA: bool, const MODE: u8>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        gemm_impl::<TA, MODE>(a, b, out, m, k, n);
    }

    /// The portable kernel every dispatched path monomorphises.
    #[inline(always)]
    pub(super) fn gemm_impl<const TA: bool, const MODE: u8>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut i = 0;
        while i + MR <= m {
            band::<MR, TA, MODE>(a, b, out, i, m, k, n);
            i += MR;
        }
        match m - i {
            3 => band::<3, TA, MODE>(a, b, out, i, m, k, n),
            2 => band::<2, TA, MODE>(a, b, out, i, m, k, n),
            1 => band::<1, TA, MODE>(a, b, out, i, m, k, n),
            _ => {}
        }
    }

    /// Rows `i..i + R` of `out`: full-width tiles, then the constant-width
    /// remainder tiles (`n mod 16` in binary).
    #[inline(always)]
    fn band<const R: usize, const TA: bool, const MODE: u8>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut j = 0;
        while j + NR <= n {
            tile::<R, NR, TA, MODE>(a, b, out, i, j, m, k, n);
            j += NR;
        }
        if n - j >= 8 {
            tile::<R, 8, TA, MODE>(a, b, out, i, j, m, k, n);
            j += 8;
        }
        if n - j >= 4 {
            tile::<R, 4, TA, MODE>(a, b, out, i, j, m, k, n);
            j += 4;
        }
        if n - j >= 2 {
            tile::<R, 2, TA, MODE>(a, b, out, i, j, m, k, n);
            j += 2;
        }
        if n - j >= 1 {
            tile::<R, 1, TA, MODE>(a, b, out, i, j, m, k, n);
        }
    }

    /// One `R x W` accumulator tile at `(i, j)`: every bound is a
    /// compile-time constant, one accumulator per output element, products
    /// added in strictly increasing `k`.
    #[inline(always)]
    #[expect(
        clippy::too_many_arguments,
        reason = "an inlined kernel: operands, output, tile origin and the three extents"
    )]
    fn tile<const R: usize, const W: usize, const TA: bool, const MODE: u8>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        i: usize,
        j: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let mut acc = [[0.0f32; W]; R];
        if MODE == CONTINUE {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r.copy_from_slice(&out[(i + r) * n + j..(i + r) * n + j + W]);
            }
        }
        // hoisted row slices of a row-major lhs (unused when transposed)
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| {
            if TA {
                &a[..0]
            } else {
                &a[(i + r) * k..(i + r + 1) * k]
            }
        });
        for kk in 0..k {
            let b_row = &b[kk * n + j..kk * n + j + W];
            let mut av = [0.0f32; R];
            if TA {
                // a transposed lhs is contiguous across the tile's rows
                av.copy_from_slice(&a[kk * m + i..kk * m + i + R]);
            } else {
                for (v, row) in av.iter_mut().zip(&a_rows) {
                    *v = row[kk];
                }
            }
            for c in 0..W {
                let bv = b_row[c];
                for r in 0..R {
                    acc[r][c] += av[r] * bv;
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            let o_row = &mut out[(i + r) * n + j..(i + r) * n + j + W];
            if MODE == ADD_AFTER {
                for (o, &v) in o_row.iter_mut().zip(acc_r) {
                    *o += v;
                }
            } else {
                o_row.copy_from_slice(acc_r);
            }
        }
    }

    /// `out = a x bᵀ` with `a` stored `[m,k]` and `b` stored `[n,k]`, for
    /// `m < MR`: no `bᵀ` is staged. Each output is one chain from `+0.0`
    /// adding `a[i,kk]·b[j,kk]` in increasing `kk`, the tile's order, so the
    /// bits are those of `gemm` over an explicit transpose; the chains of
    /// up to four columns run side by side.
    pub(crate) fn gemm_nt_thin(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert_eq!(a.len(), m * k, "gemm_nt lhs length");
        assert_eq!(b.len(), n * k, "gemm_nt rhs length");
        assert_eq!(out.len(), m * n, "gemm_nt out length");
        match m {
            0 => {}
            1 => thin_band::<1>(a, b, out, k, n),
            2 => thin_band::<2>(a, b, out, k, n),
            3 => thin_band::<3>(a, b, out, k, n),
            _ => panic!("gemm_nt_thin: {m} rows fill a band"),
        }
    }

    /// All `R` rows of a thin product: four-column groups, then two, then one.
    #[inline(always)]
    fn thin_band<const R: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
        let mut j = 0;
        while j + 4 <= n {
            thin_tile::<R, 4>(a, b, out, j, k, n);
            j += 4;
        }
        if n - j >= 2 {
            thin_tile::<R, 2>(a, b, out, j, k, n);
            j += 2;
        }
        if n - j >= 1 {
            thin_tile::<R, 1>(a, b, out, j, k, n);
        }
    }

    /// Columns `j..j + W` of a thin product, one accumulator per output.
    #[inline(always)]
    fn thin_tile<const R: usize, const W: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        j: usize,
        k: usize,
        n: usize,
    ) {
        let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
        let b_rows: [&[f32]; W] = std::array::from_fn(|c| &b[(j + c) * k..(j + c + 1) * k]);
        let mut acc = [[0.0f32; W]; R];
        for kk in 0..k {
            for (acc_r, a_row) in acc.iter_mut().zip(&a_rows) {
                for (v, b_row) in acc_r.iter_mut().zip(&b_rows) {
                    *v += a_row[kk] * b_row[kk];
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out[r * n + j..r * n + j + W].copy_from_slice(acc_r);
        }
    }

    /// `dst [cols, rows] = src [rows, cols]` transposed, every element written.
    pub(crate) fn transpose(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
        assert_eq!(src.len(), rows * cols, "transpose src length");
        assert_eq!(dst.len(), rows * cols, "transpose dst length");
        for r in 0..rows {
            for (c, &v) in src[r * cols..(r + 1) * cols].iter().enumerate() {
                dst[c * rows + r] = v;
            }
        }
    }

    /// Fused aggregation accumulate: `dst[i] += alpha * (u[i] - g[i])`.
    ///
    /// Same dispatch scheme as the matmul kernels: the wide paths are the
    /// identical Rust loop monomorphized with wider vector features, and
    /// every lane is an independent per-coordinate accumulator, so all paths
    /// are bitwise identical to the scalar loop (and to the two-step
    /// `sub` + `add_scaled` form — rustc does not contract `a + b * c` into
    /// hardware FMA).
    pub(super) fn acc_scaled_diff(dst: &mut [f32], alpha: f32, u: &[f32], g: &[f32]) {
        debug_assert_eq!(dst.len(), u.len());
        debug_assert_eq!(dst.len(), g.len());
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx512f") {
                // SAFETY: the avx512f feature was just detected at runtime
                unsafe { acc_scaled_diff_avx512(dst, alpha, u, g) };
                return;
            }
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: the avx2 feature was just detected at runtime
                unsafe { acc_scaled_diff_avx2(dst, alpha, u, g) };
                return;
            }
        }
        acc_scaled_diff_impl(dst, alpha, u, g);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn acc_scaled_diff_avx512(dst: &mut [f32], alpha: f32, u: &[f32], g: &[f32]) {
        acc_scaled_diff_impl(dst, alpha, u, g);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn acc_scaled_diff_avx2(dst: &mut [f32], alpha: f32, u: &[f32], g: &[f32]) {
        acc_scaled_diff_impl(dst, alpha, u, g);
    }

    #[inline(always)]
    fn acc_scaled_diff_impl(dst: &mut [f32], alpha: f32, u: &[f32], g: &[f32]) {
        // chunked so the compiler sees constant-width inner loops it can
        // vectorize; remainder handled scalar. Per-coordinate math is
        // independent, so chunking cannot change any bit.
        const W: usize = 16;
        let mut d_it = dst.chunks_exact_mut(W);
        let mut u_it = u.chunks_exact(W);
        let mut g_it = g.chunks_exact(W);
        for ((d, uu), gg) in (&mut d_it).zip(&mut u_it).zip(&mut g_it) {
            for c in 0..W {
                d[c] += alpha * (uu[c] - gg[c]);
            }
        }
        for ((d, uu), gg) in d_it
            .into_remainder()
            .iter_mut()
            .zip(u_it.remainder())
            .zip(g_it.remainder())
        {
            *d += alpha * (uu - gg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.numel(), 6);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_shape_mismatch_panics() {
        let _ = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![2, 2], vec![3.0, -1.0, 2.0, 5.0]);
        let eye = Tensor::from_vec(vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&eye).data(), a.data());
        assert_eq!(eye.matmul(&a).data(), a.data());
    }

    #[test]
    fn transpose_involution() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().shape(), &[3, 2]);
        assert_eq!(a.t().at(2, 1), 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]);
        assert_eq!(a.add(&b).data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.dot(&b), 32.0);
    }

    #[test]
    fn add_scaled_and_scale() {
        let mut a = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        let b = Tensor::from_vec(vec![2], vec![10.0, 20.0]);
        a.add_scaled(0.5, &b);
        assert_eq!(a.data(), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12.0, 24.0]);
    }

    #[test]
    fn reductions() {
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.mean(), 2.5);
        assert!((a.norm() - 30.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let a = Tensor::from_vec(vec![2, 3], vec![0.1, 0.9, 0.5, 2.0, 2.0, 1.0]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn stack_rows_builds_matrix() {
        let r0 = [1.0f32, 2.0];
        let r1 = [3.0f32, 4.0];
        let t = Tensor::stack_rows(&[&r0, &r1], 2);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn finite_check() {
        let t = Tensor::from_vec(vec![2], vec![1.0, 2.0]);
        assert!(t.is_finite());
        let t = Tensor::from_vec(vec![2], vec![1.0, f32::NAN]);
        assert!(!t.is_finite());
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = a.reshape(&[3, 2]);
        assert_eq!(b.shape(), &[3, 2]);
        assert_eq!(b.data(), a.data());
    }

    /// Deterministic pseudo-random matrix (no RNG dep in this crate).
    fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // map to [-1, 1), with exact zeros sprinkled in to exercise
                // the naive kernel's zero-skip branch
                let v = ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0;
                if (s >> 20).is_multiple_of(17) {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        Tensor::from_vec(vec![rows, cols], data)
    }

    /// Like [`lcg_matrix`], laced with the values whose handling an
    /// accumulation order decides: ±0, ±∞, NaNs of several payloads and
    /// signs, and subnormals, each rare enough that most products stay
    /// finite.
    fn special_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let data = (0..rows * cols)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let low = (s >> 11) as u32;
                match (s >> 33) % 256 {
                    0..=3 => 0.0,
                    4..=7 => -0.0,
                    8 => f32::INFINITY,
                    9 => f32::NEG_INFINITY,
                    10 => f32::from_bits(0x7fc0_0000 | (low & 0x3f_ffff)),
                    11 => f32::from_bits(0xff80_0001 | (low & 0x3f_ffff)),
                    12..=19 => f32::from_bits((low & 0x8000_0000) | (low & 0x7f_ffff).max(1)),
                    _ => ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0,
                }
            })
            .collect();
        Tensor::from_vec(vec![rows, cols], data)
    }

    /// `out[i,j]` as one chain over increasing `k` from `+0.0`, no blocking,
    /// no zero-skip: the order every kernel must reproduce.
    fn reference_product(a: &Tensor, b: &Tensor) -> Vec<f32> {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.at(i, kk) * b.at(kk, j);
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (x, y)) in got.iter().zip(want).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} ({x} vs {y})");
        }
    }

    proptest::proptest! {
        /// Every remainder height (1..=3 rows past a 4-row band) and width
        /// (any `n mod 16`) of every public kernel equals the reference chain
        /// and `matmul_naive`, bit for bit.
        #[test]
        fn kernels_match_the_reference_chain_for_every_tile_shape(
            m in 1usize..41,
            k in 1usize..41,
            n in 1usize..41,
            seed in 0u64..1_000_000,
        ) {
            let a = lcg_matrix(m, k, seed);
            let b = lcg_matrix(k, n, seed ^ 0x5bd1);
            let want = reference_product(&a, &b);
            assert_same_bits(a.matmul_naive(&b).data(), &want, "matmul_naive");

            // wrong-shaped, NaN-filled output: every element must be written
            let mut out = Tensor::full(&[3, 2], f32::NAN);
            a.matmul_into(&b, &mut out);
            assert_same_bits(out.data(), &want, "matmul_into");

            let mut out = Tensor::full(&[m, n], f32::NAN);
            a.matmul_nt_into(&b.t(), &mut out);
            assert_same_bits(out.data(), &want, "matmul_nt_into");

            let base = lcg_matrix(m, n, seed ^ 0x77);
            let mut acc = base.clone();
            a.t().matmul_tn_acc(&b, &mut acc);
            let two_step: Vec<f32> = base.data().iter().zip(&want).map(|(o, c)| o + c).collect();
            assert_same_bits(acc.data(), &two_step, "matmul_tn_acc");
        }

        /// `matmul_nt_into` below one band (`m` ≤ 3 reads `rhs` in place) and
        /// above it (`m` = 4, 5 stage `rhsᵀ` for the tiles) equals `matmul`
        /// over an explicit `rhs.t()`, bit for bit, on operands laced with
        /// special values. NaN results are compared for NaN-ness only: Rust
        /// leaves NaN payloads unspecified.
        #[test]
        fn matmul_nt_on_either_side_of_the_band_equals_the_transposed_product(
            m in 1usize..6,
            k in 1usize..41,
            n in 1usize..41,
            seed in 0u64..u64::MAX,
        ) {
            let a = special_matrix(m, k, seed);
            let w = special_matrix(n, k, seed ^ 0x5bd1);
            let want = a.matmul(&w.t());
            let mut out = Tensor::full(&[2, 7], f32::NAN);
            a.matmul_nt_into(&w, &mut out);
            proptest::prop_assert!(out.shape() == want.shape());
            for (i, (x, y)) in out.data().iter().zip(want.data()).enumerate() {
                proptest::prop_assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "{m}x{k}x{n}, element {i}: {x} vs {y}"
                );
            }
        }

        /// The portable kernel and whichever wide path this CPU dispatches to
        /// agree in every mode and for both lhs layouts.
        #[test]
        fn scalar_kernel_equals_dispatched_kernel(
            m in 1usize..41,
            k in 1usize..41,
            n in 1usize..41,
            seed in 0u64..1_000_000,
        ) {
            use kernels::{gemm, gemm_impl, ADD_AFTER, CONTINUE, OVERWRITE};
            let a = lcg_matrix(m, k, seed);
            let at = a.t();
            let b = lcg_matrix(k, n, seed ^ 0x5bd1);
            let start = lcg_matrix(m, n, seed ^ 0x77);
            macro_rules! both {
                ($ta:literal, $mode:expr, $lhs:expr) => {{
                    let (mut wide, mut scalar) = (start.clone(), start.clone());
                    gemm::<$ta, { $mode }>($lhs.data(), b.data(), wide.data_mut(), m, k, n);
                    gemm_impl::<$ta, { $mode }>($lhs.data(), b.data(), scalar.data_mut(), m, k, n);
                    assert_same_bits(wide.data(), scalar.data(), "dispatched vs scalar");
                    wide
                }};
            }
            let want = reference_product(&a, &b);
            for out in [both!(false, OVERWRITE, a), both!(true, OVERWRITE, at)] {
                assert_same_bits(out.data(), &want, "overwrite");
            }
            let added: Vec<f32> = start.data().iter().zip(&want).map(|(o, c)| o + c).collect();
            for out in [both!(false, ADD_AFTER, a), both!(true, ADD_AFTER, at)] {
                assert_same_bits(out.data(), &added, "add-after");
            }
            both!(false, CONTINUE, a);
            both!(true, CONTINUE, at);
        }

        /// A product split along `k` into two `CONTINUE` calls on a zeroed
        /// output has the bits of the unsplit product: the chain is not
        /// broken at the seam.
        #[test]
        fn continue_mode_carries_the_chain_across_calls(
            m in 1usize..21,
            k in 2usize..41,
            n in 1usize..21,
            cut in 1usize..40,
            seed in 0u64..1_000_000,
        ) {
            use kernels::{gemm, CONTINUE};
            let cut = cut.min(k - 1);
            let at = lcg_matrix(k, m, seed); // lhs stored [k, m]: rows split cleanly
            let b = lcg_matrix(k, n, seed ^ 0x5bd1);
            let mut out = vec![0.0f32; m * n];
            gemm::<true, CONTINUE>(&at.data()[..cut * m], &b.data()[..cut * n], &mut out, m, cut, n);
            gemm::<true, CONTINUE>(&at.data()[cut * m..], &b.data()[cut * n..], &mut out, m, k - cut, n);
            assert_same_bits(&out, &reference_product(&at.t(), &b), "split chain");
        }
    }

    #[test]
    fn every_remainder_height_and_width_matches_the_reference() {
        // exhaustive over the tile grid (the proptests above sample it)
        for k in [1usize, 9, 33] {
            for m in 1..=40 {
                for n in 1..=40 {
                    let a = lcg_matrix(m, k, (m * 41 + n) as u64);
                    let b = lcg_matrix(k, n, (k * 7 + 3) as u64);
                    let what = format!("{m}x{k}x{n}");
                    assert_same_bits(a.matmul(&b).data(), &reference_product(&a, &b), &what);
                }
            }
        }
    }

    #[test]
    fn shapes_beyond_rank_four_round_trip() {
        let t = Tensor::zeros(&[2, 1, 3, 1, 2]);
        assert_eq!(t.shape(), &[2, 1, 3, 1, 2]);
        assert_eq!(t.clone(), t);
        assert_eq!(t.reshape(&[3, 4]).shape(), &[3, 4]);
        assert_ne!(Tensor::zeros(&[2, 2]), Tensor::zeros(&[4]));
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive() {
        // dims straddle the MR=4 / NR=16 tile boundaries
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 16),
            (5, 9, 17),
            (16, 33, 20),
            (13, 64, 31),
        ] {
            let a = lcg_matrix(m, k, (m * 1000 + n) as u64);
            let b = lcg_matrix(k, n, (k * 7 + 3) as u64);
            let blocked = a.matmul(&b);
            let naive = a.matmul_naive(&b);
            assert_eq!(blocked.shape(), naive.shape());
            for (x, y) in blocked.data().iter().zip(naive.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n} diverged");
            }
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = lcg_matrix(6, 10, 1);
        let b = lcg_matrix(9, 10, 2); // [n, k] layout
        let fast = a.matmul_nt(&b);
        let reference = a.matmul_naive(&b.t());
        assert_eq!(fast.shape(), &[6, 9]);
        for (x, y) in fast.data().iter().zip(reference.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_tn_acc_matches_two_step_form() {
        let a = lcg_matrix(10, 6, 3); // [k, m]
        let b = lcg_matrix(10, 9, 4); // [k, n]
        let mut acc = lcg_matrix(6, 9, 5);
        let mut reference = acc.clone();
        a.matmul_tn_acc(&b, &mut acc);
        reference.add_scaled(1.0, &a.t().matmul_naive(&b));
        for (x, y) in acc.data().iter().zip(reference.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn matmul_into_reuses_and_reshapes() {
        let a = lcg_matrix(4, 5, 6);
        let b = lcg_matrix(5, 3, 7);
        let mut out = Tensor::zeros(&[2, 2]); // wrong shape: must be fixed up
        a.matmul_into(&b, &mut out);
        assert_eq!(out.shape(), &[4, 3]);
        assert_eq!(out.data(), a.matmul_naive(&b).data());
        // second call reuses the now-correct allocation
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), a.matmul_naive(&b).data());
    }

    #[test]
    fn copy_from_copies() {
        let a = lcg_matrix(3, 4, 9);
        let mut b = Tensor::zeros(&[3, 4]);
        b.copy_from(&a);
        assert_eq!(b.data(), a.data());
    }

    #[test]
    #[should_panic(expected = "copy_from shape mismatch")]
    fn copy_from_rejects_shape_mismatch() {
        let mut b = Tensor::zeros(&[3, 4]);
        b.copy_from(&Tensor::zeros(&[4, 3]));
    }

    #[test]
    fn clone_shares_storage_until_written() {
        let a = lcg_matrix(4, 4, 10);
        let mut b = a.clone();
        assert!(a.shares_storage(&b), "clone must be a CoW alias");
        let snapshot = a.clone();
        b.data_mut()[0] += 1.0;
        assert!(!a.shares_storage(&b), "first write must detach the buffer");
        assert_eq!(a.data(), snapshot.data(), "original must be untouched");
        assert_eq!(b.data()[0], a.data()[0] + 1.0);
    }

    #[test]
    fn reshape_shares_storage() {
        let a = lcg_matrix(2, 6, 11);
        let b = a.reshape(&[3, 4]);
        assert!(a.shares_storage(&b));
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn copy_from_aliased_buffer_is_noop() {
        let a = lcg_matrix(3, 3, 12);
        let mut b = a.clone();
        b.copy_from(&a);
        assert!(a.shares_storage(&b));
        assert_eq!(b.data(), a.data());
    }

    #[test]
    fn fill_resets_without_nan_leak() {
        let mut a = Tensor::from_vec(vec![3], vec![1.0, f32::NAN, -2.0]);
        a.fill(0.0);
        assert_eq!(a.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn acc_scaled_diff_is_bit_identical_to_two_step_form() {
        // lengths straddle the W=16 chunk boundary to exercise the remainder
        for &len in &[1usize, 15, 16, 17, 64, 257] {
            let u = lcg_matrix(1, len, len as u64 + 100);
            let g = lcg_matrix(1, len, len as u64 + 200);
            let base = lcg_matrix(1, len, len as u64 + 300);
            let alpha = 0.37f32;

            let mut fused = base.clone();
            fused.acc_scaled_diff(alpha, &u, &g);

            let mut two_step = base.clone();
            let d = u.sub(&g);
            two_step.add_scaled(alpha, &d);

            for (x, y) in fused.data().iter().zip(two_step.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "len={len} diverged");
            }
        }
    }

    #[test]
    fn acc_scaled_diff_with_aliased_accumulator_detaches() {
        let g = lcg_matrix(1, 20, 42);
        let u = lcg_matrix(1, 20, 43);
        // accumulator starts as a CoW alias of g — the write must detach it
        let mut acc = g.clone();
        acc.acc_scaled_diff(1.0, &u, &g);
        assert!(!acc.shares_storage(&g));
        for (a, (uu, gg)) in acc.data().iter().zip(u.data().iter().zip(g.data())) {
            assert_eq!(a.to_bits(), (gg + (uu - gg)).to_bits());
        }
    }
}
