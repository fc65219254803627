//! `Model::evaluate` takes its loss without a gradient tensor
//! (`cross_entropy_loss`, `mse_loss`). Those must give the bits of the
//! gradient forms a training step reports (`softmax_cross_entropy`, `mse`),
//! on any logits — signed zeros, infinities and NaNs included, since an
//! exploding client model reaches the evaluator as it is.
//!
//! A NaN loss is compared by NaN-ness only: Rust leaves NaN payloads
//! unspecified.

use fs_tensor::loss::{cross_entropy_loss, mse, mse_loss, softmax_cross_entropy, Target};
use fs_tensor::model::{logistic_regression, Model};
use fs_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Mostly ordinary values, with every special value common enough to meet
/// another in one row. The ordinary ones are close enough that a row's
/// exponentials round differently when summed in another order. The vendored
/// proptest has no `prop_oneof`, so a selector picks the kind.
fn value() -> impl Strategy<Value = f32> {
    (0u8..16, -4.0f32..4.0).prop_map(|(kind, v)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => f32::INFINITY,
        3 => f32::NEG_INFINITY,
        4 => f32::NAN,
        5 => 1e-30,
        _ => v,
    })
}

/// `(rows, cols, values, classes)` of one batch of logits.
fn batch() -> impl Strategy<Value = (usize, usize, Vec<f32>, Vec<usize>)> {
    (1usize..6, 1usize..12).prop_flat_map(|(b, c)| {
        (
            Just(b),
            Just(c),
            prop::collection::vec(value(), b * c),
            prop::collection::vec(0..c, b),
        )
    })
}

/// Equal bits, or both NaN.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

proptest! {
    #[test]
    fn cross_entropy_loss_has_the_gradient_forms_bits(case in batch()) {
        let (b, c, values, classes) = case;
        let logits = Tensor::from_vec(vec![b, c], values);
        let (want, _) = softmax_cross_entropy(&logits, &classes);
        let got = cross_entropy_loss(&logits, &classes);
        prop_assert!(same(got, want), "{got} vs {want} on {:?}", logits.data());
    }

    #[test]
    fn mse_loss_has_the_gradient_forms_bits(values in prop::collection::vec((value(), value()), 1..9)) {
        let preds = Tensor::from_vec(
            vec![values.len(), 1],
            values.iter().map(|&(p, _)| p).collect(),
        );
        let targets: Vec<f32> = values.iter().map(|&(_, v)| v).collect();
        let (want, _) = mse(&preds, &targets);
        let got = mse_loss(&preds, &targets);
        prop_assert!(same(got, want), "{got} vs {want} on {values:?}");
    }
}

#[test]
fn evaluate_reports_the_gradient_forms_loss() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut model = logistic_regression(4, 3, &mut rng);
    let x = Tensor::from_vec(
        vec![3, 4],
        vec![
            0.5, -1.0, 2.0, 0.0, 1e3, -1e3, 0.25, -0.0, 3.0, 3.0, -3.0, 1.5,
        ],
    );
    let classes = vec![2, 0, 1];
    let logits = model.predict(&x);
    let (want, _) = softmax_cross_entropy(&logits, &classes);
    let metrics = model.evaluate(&x, &Target::Classes(classes));
    assert_eq!(metrics.loss.to_bits(), want.to_bits());
    assert_eq!(metrics.n, 3);
}
