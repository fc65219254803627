//! `Model::set_params(partial)` means "load these names, keep the rest" for
//! every model in the workspace. The trainer's `incorporate`, the central
//! evaluator and the lazy store's private-parameter restore rely on it: each
//! used to spell the same thing as `get_params` + `merge_from` +
//! `set_params`, and this test is what lets them not.

use fedscope::personalize::fedem::MixtureModel;
use fedscope::tensor::loss::LossKind;
use fedscope::tensor::model::{convnet2, logistic_regression, mlp, mlp_bn, Gcn, Model};
use fedscope::tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn every_model(rng: &mut StdRng) -> Vec<(&'static str, Box<dyn Model>)> {
    vec![
        ("lr", Box::new(logistic_regression(6, 3, rng))),
        ("mlp", Box::new(mlp(&[6, 5, 3], rng))),
        ("convnet2", Box::new(convnet2(1, 8, 8, 3, 0.2, rng))),
        ("mlp_bn", Box::new(mlp_bn(&[6, 5, 3], rng))),
        (
            "gcn",
            Box::new(Gcn::new(4, 3, 5, 2, LossKind::SoftmaxCrossEntropy, rng)),
        ),
        (
            "mixture",
            Box::new(MixtureModel::new(vec![
                Box::new(mlp_bn(&[6, 4, 3], rng)),
                Box::new(logistic_regression(6, 3, rng)),
            ])),
        ),
    ]
}

fn assert_same_bits(got: &ParamMap, want: &ParamMap, what: &str) {
    assert!(got.names().eq(want.names()), "{what}: key sets differ");
    for ((k, x), (_, y)) in got.iter().zip(want.iter()) {
        assert_eq!(x.shape(), y.shape(), "{what}: {k} shape");
        for (a, b) in x.data().iter().zip(y.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {k}");
        }
    }
}

#[test]
fn set_params_of_a_partial_map_equals_get_merge_set() {
    let mut rng = StdRng::seed_from_u64(11);
    for (name, model) in every_model(&mut rng) {
        let full = model.get_params();
        let keys: Vec<String> = full.names().map(str::to_string).collect();
        // nothing, everything, each key alone, and random subsets
        let mut subsets: Vec<Vec<bool>> = vec![vec![false; keys.len()], vec![true; keys.len()]];
        subsets.extend((0..keys.len()).map(|i| (0..keys.len()).map(|j| i == j).collect()));
        subsets.extend((0..8).map(|_| keys.iter().map(|_| rng.gen_range(0..2) == 1).collect()));
        for subset in subsets {
            let mut partial = ParamMap::new();
            for (k, _) in keys.iter().zip(&subset).filter(|(_, &take)| take) {
                let shape = full.get(k).unwrap().shape().to_vec();
                let n = shape.iter().product();
                let data = (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
                partial.insert(k.clone(), Tensor::from_vec(shape, data));
            }
            // a name the model does not have is ignored either way
            partial.insert("nobody.weight", Tensor::ones(&[2]));

            let mut direct = model.clone_model();
            direct.set_params(&partial);

            let mut three_call = model.clone_model();
            let mut merged = three_call.get_params();
            merged.merge_from(&partial);
            three_call.set_params(&merged);

            let what = format!("{name} {subset:?}");
            let got = direct.get_params();
            assert_same_bits(&got, &three_call.get_params(), &what);
            // and it did load: the named keys carry the new values, the
            // others the old ones
            for (k, &take) in keys.iter().zip(&subset) {
                let want = if take { &partial } else { &full };
                assert_eq!(got.get(k), want.get(k), "{what}: {k}");
            }
        }
    }
}
