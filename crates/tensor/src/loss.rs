//! Loss functions with analytic gradients with respect to the logits.

use crate::{scratch, Tensor};

/// The loss a model trains with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LossKind {
    /// Softmax + cross-entropy over class logits (classification).
    SoftmaxCrossEntropy,
    /// Mean squared error against real-valued targets (regression).
    Mse,
}

/// Training target: class indices or real values.
#[derive(Clone, Debug)]
pub enum Target {
    /// One class index per example.
    Classes(Vec<usize>),
    /// One real value per example (shape `[B]` or `[B, 1]`).
    Values(Vec<f32>),
}

impl Target {
    /// Number of examples in the target.
    pub fn len(&self) -> usize {
        match self {
            Target::Classes(c) => c.len(),
            Target::Values(v) => v.len(),
        }
    }

    /// `true` when there are no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Row-wise softmax of `[B, C]` logits (numerically stabilized).
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut out = Tensor::zeros(logits.shape());
    softmax_into(logits, &mut out);
    out
}

/// [`softmax`] writing every element of the same-shaped `out`.
fn softmax_into(logits: &Tensor, out: &mut Tensor) {
    assert_eq!(logits.shape().len(), 2);
    let c = logits.cols();
    for (row, o_row) in logits
        .data()
        .chunks_exact(c)
        .zip(out.data_mut().chunks_exact_mut(c))
    {
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for (o, &v) in o_row.iter_mut().zip(row) {
            let e = (v - max).exp();
            *o = e;
            sum += e;
        }
        for o in o_row {
            *o /= sum;
        }
    }
}

/// Mean softmax cross-entropy loss and its gradient w.r.t. the logits.
///
/// Returns `(loss, dL/dlogits)` with the gradient already divided by the batch
/// size, so optimizers see the mean-loss gradient. The gradient tensor comes
/// from worker scratch.
pub fn softmax_cross_entropy(logits: &Tensor, classes: &[usize]) -> (f32, Tensor) {
    let (b, c) = (logits.rows(), logits.cols());
    assert_eq!(b, classes.len(), "batch/target length mismatch");
    // the probabilities become the gradient in place
    let mut grad = scratch::take(logits.shape());
    softmax_into(logits, &mut grad);
    let mut loss = 0.0f32;
    let inv_b = 1.0 / b as f32;
    for (row, &y) in grad.data_mut().chunks_exact_mut(c).zip(classes) {
        assert!(y < c, "class index {y} out of range {c}");
        loss -= (row[y].max(1e-12)).ln();
        row[y] -= 1.0;
    }
    grad.scale(inv_b);
    (loss * inv_b, grad)
}

/// The loss of [`softmax_cross_entropy`] without its gradient, with the
/// same bits: each row's exponentials are summed in the same order, and the
/// target's probability is its own exponential over that sum.
pub fn cross_entropy_loss(logits: &Tensor, classes: &[usize]) -> f32 {
    let (b, c) = (logits.rows(), logits.cols());
    assert_eq!(b, classes.len(), "batch/target length mismatch");
    let mut loss = 0.0f32;
    for (row, &y) in logits.data().chunks_exact(c).zip(classes) {
        assert!(y < c, "class index {y} out of range {c}");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let (mut sum, mut target) = (0.0f32, 0.0f32);
        for (j, &v) in row.iter().enumerate() {
            let e = (v - max).exp();
            if j == y {
                target = e;
            }
            sum += e;
        }
        loss -= (target / sum).max(1e-12).ln();
    }
    loss * (1.0 / b as f32)
}

/// The loss of [`mse`] without its gradient, with the same bits.
pub fn mse_loss(preds: &Tensor, values: &[f32]) -> f32 {
    let b = preds.shape()[0];
    assert_eq!(b, values.len(), "batch/target length mismatch");
    assert_eq!(preds.numel(), b, "mse expects one prediction per example");
    let loss: f32 = preds.data().iter().zip(values).fold(0.0, |sum, (&p, &v)| {
        let diff = p - v;
        sum + diff * diff
    });
    loss * (1.0 / b as f32)
}

/// Mean squared error and its gradient w.r.t. the predictions.
///
/// `preds` must be `[B, 1]` or `[B]`; `values.len()` must equal `B`. The
/// gradient tensor comes from worker scratch.
pub fn mse(preds: &Tensor, values: &[f32]) -> (f32, Tensor) {
    let b = preds.shape()[0];
    assert_eq!(b, values.len(), "batch/target length mismatch");
    assert_eq!(preds.numel(), b, "mse expects one prediction per example");
    let mut loss = 0.0f32;
    let mut grad = scratch::take(preds.shape());
    let inv_b = 1.0 / b as f32;
    for ((g, &p), &v) in grad.data_mut().iter_mut().zip(preds.data()).zip(values) {
        let diff = p - v;
        loss += diff * diff;
        *g = 2.0 * diff * inv_b;
    }
    (loss * inv_b, grad)
}

/// Classification accuracy of `[B, C]` logits against class labels.
pub fn accuracy(logits: &Tensor, classes: &[usize]) -> f32 {
    if classes.is_empty() {
        return 0.0;
    }
    let pred = logits.argmax_rows();
    let correct = pred.iter().zip(classes).filter(|(p, y)| p == y).count();
    correct as f32 / classes.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let l = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let p = softmax(&l);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let l = Tensor::from_vec(vec![1, 2], vec![1000.0, 1001.0]);
        let p = softmax(&l);
        assert!(p.is_finite());
        assert!(p.at(0, 1) > p.at(0, 0));
    }

    #[test]
    fn ce_uniform_logits_is_log_c() {
        let l = Tensor::zeros(&[4, 10]);
        let (loss, _) = softmax_cross_entropy(&l, &[0, 1, 2, 3]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn ce_gradient_matches_finite_difference() {
        let l = Tensor::from_vec(vec![2, 3], vec![0.3, -0.1, 0.7, 1.0, 0.0, -1.0]);
        let y = vec![2usize, 0];
        let (_, grad) = softmax_cross_entropy(&l, &y);
        let eps = 1e-3f32;
        for i in 0..l.numel() {
            let mut lp = l.clone();
            lp.data_mut()[i] += eps;
            let mut lm = l.clone();
            lm.data_mut()[i] -= eps;
            let (fp, _) = softmax_cross_entropy(&lp, &y);
            let (fm, _) = softmax_cross_entropy(&lm, &y);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad.data()[i]).abs() < 1e-3,
                "index {i}: fd {fd} vs analytic {}",
                grad.data()[i]
            );
        }
    }

    #[test]
    fn mse_known_value_and_grad() {
        let p = Tensor::from_vec(vec![2, 1], vec![1.0, 3.0]);
        let (loss, grad) = mse(&p, &[0.0, 1.0]);
        // ((1)^2 + (2)^2)/2 = 2.5
        assert!((loss - 2.5).abs() < 1e-6);
        assert_eq!(grad.data(), &[1.0, 2.0]);
    }

    #[test]
    fn accuracy_counts_matches() {
        let l = Tensor::from_vec(vec![3, 2], vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]);
        assert!((accuracy(&l, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&l, &[]), 0.0);
    }
}
