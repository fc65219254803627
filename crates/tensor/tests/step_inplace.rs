//! `NetModel::train_step`, which steps each layer's own parameters with the
//! layer's own gradients, ≡ the default `Model::train_step` (`loss_grad`,
//! then `Sgd::step` over a `get_params` copy, then `set_params`) ≡ the
//! tensor-at-a-time optimizer the fused per-coordinate rule replaced, bit for
//! bit — losses, parameters and momentum state, over every stage of the rule
//! and every feed-forward architecture.
//!
//! The first two routes share `Sgd::update`, so on their own they would
//! agree on a wrong rule too. `reference_step` is the third: the optimizer
//! as it stood before the fusion, written with whole-tensor operations. A
//! reordered stage in the shared rule (decay after the proximal term, clip
//! before it) rounds differently and fails here. The clip norm sums the
//! tensors in name order; `deep_mlp`'s ten linear layers (`fc1, fc10, fc2,
//! …`) and `mlp_bn`'s `bn1` before `fc1` are where that differs from layer
//! order.

use fs_tensor::loss::Target;
use fs_tensor::model::{convnet2, logistic_regression, mlp, mlp_bn, Model, NetModel};
use fs_tensor::optim::{Sgd, SgdConfig};
use fs_tensor::{ParamMap, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CLASSES: usize = 3;

/// The five architectures, with the input shape each one takes.
fn model(arch: u8, rng: &mut StdRng) -> (NetModel, Vec<usize>) {
    match arch {
        0 => (logistic_regression(6, CLASSES, rng), vec![6]),
        1 => (mlp(&[6, 5, CLASSES], rng), vec![6]),
        2 => (convnet2(1, 8, 8, CLASSES, 0.0, rng), vec![1, 8, 8]),
        3 => (mlp_bn(&[6, 5, CLASSES], rng), vec![6]),
        _ => (deep_mlp(rng), vec![6]),
    }
}

/// Ten linear layers, `fc1` … `fc10`: name order puts `fc10` second.
fn deep_mlp(rng: &mut StdRng) -> NetModel {
    let mut dims = vec![6; 10];
    dims.push(CLASSES);
    mlp(&dims, rng)
}

/// A model that keeps the default `Model::train_step`: the map route.
struct ViaMap(Box<dyn Model>);

impl Model for ViaMap {
    fn get_params(&self) -> ParamMap {
        self.0.get_params()
    }

    fn set_params(&mut self, src: &ParamMap) {
        self.0.set_params(src);
    }

    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.0.predict(x)
    }

    fn loss_grad(&mut self, x: &Tensor, y: &Target) -> (f32, ParamMap) {
        self.0.loss_grad(x, y)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(ViaMap(self.0.clone_model()))
    }
}

/// {plain, momentum, weight decay, prox, clip, all together}.
fn config(kind: u8, rng: &mut StdRng) -> SgdConfig {
    let mut cfg = SgdConfig::with_lr(rng.gen_range(0.01f32..0.5));
    let all = kind == 5;
    if kind == 1 || all {
        cfg.momentum = rng.gen_range(0.1f32..0.95);
    }
    if kind == 2 || all {
        cfg.weight_decay = rng.gen_range(1e-4f32..0.1);
    }
    if kind == 3 || all {
        cfg.prox_mu = rng.gen_range(0.01f32..1.0);
    }
    if kind == 4 || all {
        // small enough to bite on most steps, large enough to miss some
        cfg.max_grad_norm = Some(rng.gen_range(0.05f32..2.0));
    }
    cfg
}

fn random_like(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    )
}

fn batch(input: &[usize], rng: &mut StdRng) -> (Tensor, Target) {
    let b = rng.gen_range(2..5usize);
    let mut shape = vec![b];
    shape.extend_from_slice(input);
    let y = (0..b).map(|_| rng.gen_range(0..CLASSES)).collect();
    (random_like(&shape, rng), Target::Classes(y))
}

/// The optimizer before the per-coordinate fusion: a scratch copy of the
/// gradient, transformed one whole tensor at a time.
fn reference_step(
    cfg: &SgdConfig,
    velocity: &mut Option<ParamMap>,
    params: &mut ParamMap,
    grads: &ParamMap,
    anchor: Option<&ParamMap>,
) {
    let mut eff = grads.clone();
    if cfg.weight_decay != 0.0 {
        for (k, g) in eff.iter_mut() {
            if let Some(p) = params.get(k) {
                g.add_scaled(cfg.weight_decay, p);
            }
        }
    }
    if cfg.prox_mu != 0.0 {
        if let Some(anchor) = anchor {
            for (k, g) in eff.iter_mut() {
                if let (Some(p), Some(a)) = (params.get(k), anchor.get(k)) {
                    let mut diff = p.clone();
                    diff.add_scaled(-1.0, a);
                    g.add_scaled(cfg.prox_mu, &diff);
                }
            }
        }
    }
    if let Some(max) = cfg.max_grad_norm {
        eff.clip_norm(max);
    }
    if cfg.momentum != 0.0 {
        let vel = velocity.get_or_insert_with(|| eff.zeros_like());
        for (k, g) in eff.iter_mut() {
            let v = vel.get_mut(k).expect("velocity key");
            v.scale(cfg.momentum);
            v.add_scaled(1.0, g);
            *g = v.clone();
        }
    }
    for (k, g) in eff.iter() {
        if let Some(p) = params.get_mut(k) {
            p.add_scaled(-cfg.lr, g);
        }
    }
}

fn same_bits(got: &ParamMap, want: &ParamMap, what: &str) -> Result<(), String> {
    if !got.names().eq(want.names()) {
        return Err(format!("{what}: key sets differ"));
    }
    for ((k, x), (_, y)) in got.iter().zip(want.iter()) {
        let same = x.shape() == y.shape()
            && x.data()
                .iter()
                .zip(y.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(format!("{what}: {k} diverged"));
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn in_place_step_equals_the_map_route_and_the_unfused_reference(
        arch in 0u8..5,
        kind in 0u8..6,
        steps in 1usize..=5,
        partial_anchor in 0u8..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (template, input) = model(arch, &mut rng);
        let cfg = config(kind, &mut rng);
        // the proximal anchor: every key, or (as under FedBN + FedProx) only
        // the shared ones
        let mut anchor = ParamMap::new();
        for (k, t) in template.get_params().iter() {
            if partial_anchor == 0 || !k.starts_with("bn") {
                anchor.insert(k, random_like(t.shape(), &mut rng));
            }
        }
        let anchor = Some(&anchor);

        let mut in_place = template.clone_model();
        let mut via_map = ViaMap(template.clone_model());
        let mut unfused = template.clone_model();
        let (mut opt_a, mut opt_b) = (Sgd::new(cfg), Sgd::new(cfg));
        let mut vel_c = None;
        for step in 0..steps {
            let (x, y) = batch(&input, &mut rng);

            let loss_a = in_place.train_step(&mut opt_a, &x, &y, anchor);
            let loss_b = via_map.train_step(&mut opt_b, &x, &y, anchor);

            let (loss_c, gc) = unfused.loss_grad(&x, &y);
            let mut params = unfused.get_params();
            reference_step(&cfg, &mut vel_c, &mut params, &gc, anchor);
            unfused.set_params(&params);

            prop_assert!(
                loss_a.to_bits() == loss_b.to_bits() && loss_a.to_bits() == loss_c.to_bits(),
                "step {step}: losses {loss_a} / {loss_b} / {loss_c}"
            );

            let got = in_place.get_params();
            if let Err(e) = same_bits(&got, &via_map.get_params(), "in place vs map route") {
                prop_assert!(false, "step {step}, {cfg:?}: {e}");
            }
            if let Err(e) = same_bits(&got, &unfused.get_params(), "in place vs unfused") {
                prop_assert!(false, "step {step}, {cfg:?}: {e}");
            }
        }
        match (opt_a.velocity(), opt_b.velocity(), vel_c.as_ref()) {
            (None, None, None) => prop_assert!(cfg.momentum == 0.0),
            (Some(a), Some(b), Some(c)) => {
                if let Err(e) = same_bits(a, b, "velocity, in place vs map route")
                    .and_then(|()| same_bits(a, c, "velocity, in place vs unfused"))
                {
                    prop_assert!(false, "{cfg:?}: {e}");
                }
            }
            _ => prop_assert!(false, "momentum state exists on some routes only"),
        }
    }
}

#[test]
fn in_place_step_leaves_buffers_and_unnamed_gradients_alone() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut m = mlp_bn(&[6, 5, CLASSES], &mut rng);
    let (x, y) = batch(&[6], &mut rng);
    let cfg = SgdConfig {
        momentum: 0.9,
        max_grad_norm: Some(0.1),
        ..SgdConfig::with_lr(0.1)
    };
    let before = m.get_params();
    // the training forward moves the running statistics; the step must not
    let mut forward_only = m.clone_model();
    let (_, mut grads) = forward_only.loss_grad(&x, &y);
    let moved = forward_only.get_params();
    m.train_step(&mut Sgd::new(cfg), &x, &y, None);
    let after = m.get_params();
    for key in m.buffer_keys() {
        assert_ne!(moved.get(&key), before.get(&key), "{key}: forward left it");
        assert_eq!(after.get(&key), moved.get(&key), "{key} was stepped");
    }
    assert_ne!(after.get("fc1.weight"), before.get("fc1.weight"));
    // the map route ignores a gradient for a name the parameters lack
    grads.insert("ghost.weight", Tensor::ones(&[2]));
    let mut opt = Sgd::new(cfg);
    let mut params = moved.clone();
    opt.step(&mut params, &grads, None);
    assert!(!opt.velocity().unwrap().contains("ghost.weight"));
}
