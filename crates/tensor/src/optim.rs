//! Optimizers.
//!
//! * [`Sgd`] — the client-side optimizer. Supports momentum, weight decay,
//!   gradient clipping, and a **proximal term** toward an anchor parameter
//!   set: `grad += mu * (theta - anchor)`. The proximal form is what FedProx,
//!   Ditto, and pFedMe all reduce to, so the personalization crate reuses it.
//! * [`ServerOpt`] — the server-side optimizer family used by FedOpt
//!   (Reddi et al.): the aggregated client delta is treated as a
//!   pseudo-gradient and applied with SGD, Adam, or Yogi.

use crate::{ParamMap, Tensor};

/// Configuration for client-side SGD.
#[derive(Clone, Copy, Debug)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight decay added to the gradient.
    pub weight_decay: f32,
    /// Proximal coefficient `mu`; 0 disables the proximal term.
    pub prox_mu: f32,
    /// Optional global gradient-norm clip.
    pub max_grad_norm: Option<f32>,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            lr: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            prox_mu: 0.0,
            max_grad_norm: None,
        }
    }
}

impl SgdConfig {
    /// Plain SGD with the given learning rate.
    pub fn with_lr(lr: f32) -> Self {
        Self {
            lr,
            ..Self::default()
        }
    }
}

/// Stochastic gradient descent over name-addressed parameters.
#[derive(Clone, Debug)]
pub struct Sgd {
    cfg: SgdConfig,
    velocity: Option<ParamMap>,
}

impl Sgd {
    /// Creates an optimizer with the given configuration.
    pub fn new(cfg: SgdConfig) -> Self {
        Self {
            cfg,
            velocity: None,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.cfg
    }

    /// Replaces the configuration (e.g. when FedEx re-specifies client
    /// hyperparameters mid-course); momentum state is kept.
    pub fn set_config(&mut self, cfg: SgdConfig) {
        self.cfg = cfg;
    }

    /// The momentum buffers, once a step with momentum has run.
    pub fn velocity(&self) -> Option<&ParamMap> {
        self.velocity.as_ref()
    }

    /// Performs one SGD step on `params` given `grads`.
    ///
    /// `anchor`, when present, adds the proximal term
    /// `prox_mu * (params - anchor)` to the gradient *before* momentum.
    /// Only names present in both `grads` and `params` are updated, so
    /// buffers (batch-norm running statistics) are never touched.
    ///
    /// This is the map route of `Sgd::step_each`: a network stepped where it
    /// lives ([`Model::train_step`](crate::model::Model::train_step)) and a
    /// [`ParamMap`] copy of it run the same walk and per-tensor rule, so the
    /// two agree bit for bit.
    pub fn step(&mut self, params: &mut ParamMap, grads: &ParamMap, anchor: Option<&ParamMap>) {
        self.step_each(anchor, |visit| {
            for (k, g) in grads.iter() {
                if let Some(p) = params.get_mut(k) {
                    visit(k, p, g);
                }
            }
        });
    }

    /// One SGD step over the tensors `walk` hands out: `walk(visit)` calls
    /// `visit(name, param, grad)` once per trained tensor, in name order,
    /// and is called twice when a clip norm is set. The velocity and the
    /// proximal anchor of a tensor are looked up by its name.
    pub(crate) fn step_each(
        &mut self,
        anchor: Option<&ParamMap>,
        mut walk: impl FnMut(&mut dyn FnMut(&str, &mut Tensor, &Tensor)),
    ) {
        let cfg = self.cfg;
        let anchor = anchor.filter(|_| cfg.prox_mu != 0.0);
        // the clip factor needs the norm of the whole effective gradient
        // before any parameter moves: a read-only pass, tensors in name order
        let clip = cfg.max_grad_norm.and_then(|max| {
            let mut sum = 0.0f32;
            walk(&mut |k, p, g| {
                let n = Self::effective_norm(&cfg, p, g, anchor.and_then(|a| a.get(k)));
                sum += n * n;
            });
            let norm = sum.sqrt();
            (norm > max && norm > 0.0).then(|| max / norm)
        });
        let velocity = &mut self.velocity;
        walk(&mut |k, p, g| {
            let v = (cfg.momentum != 0.0).then(|| {
                let vel = velocity.get_or_insert_with(ParamMap::new);
                if !vel.contains(k) {
                    vel.insert(k, g.zeros_like());
                }
                vel.get_mut(k).expect("inserted above")
            });
            Self::update(&cfg, clip, p, g, anchor.and_then(|a| a.get(k)), v);
        });
    }

    /// The per-tensor update rule. Per coordinate, in this order:
    /// `e = g`; weight decay `e += wd·p`; proximal term `e += mu·(p − a)`;
    /// clip `e *= clip`; momentum `v = v·m + e, e = v`; then `p += −lr·e`.
    /// Each stage runs only when configured, and each is the floating-point
    /// operation the tensor-at-a-time form performs (whose `p + (−1)·a` and
    /// `v + 1·e` are `p − a` and `v + e` exactly), so fusing them moves no
    /// bit (rustc does not contract to FMA).
    fn update(
        cfg: &SgdConfig,
        clip: Option<f32>,
        p: &mut Tensor,
        g: &Tensor,
        a: Option<&Tensor>,
        v: Option<&mut Tensor>,
    ) {
        let (g, a) = operands(p, g, a);
        let mut v = v.map(|v| {
            assert_eq!(v.shape(), p.shape(), "sgd: velocity shape");
            v.data_mut()
        });
        for (i, p) in p.data_mut().iter_mut().enumerate() {
            let mut e = effective(cfg, g[i], *p, a.map(|a| a[i]));
            if let Some(s) = clip {
                e *= s;
            }
            if let Some(v) = v.as_deref_mut() {
                v[i] *= cfg.momentum;
                v[i] += e;
                e = v[i];
            }
            *p += -cfg.lr * e;
        }
    }

    /// Euclidean norm of one tensor's effective gradient, nothing written.
    fn effective_norm(cfg: &SgdConfig, p: &Tensor, g: &Tensor, a: Option<&Tensor>) -> f32 {
        let (g, a) = operands(p, g, a);
        p.data()
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let e = effective(cfg, g[i], p, a.map(|a| a[i]));
                e * e
            })
            .sum::<f32>()
            .sqrt()
    }
}

/// The gradient and anchor of `p` as slices, shapes checked against it.
fn operands<'a>(
    p: &Tensor,
    g: &'a Tensor,
    a: Option<&'a Tensor>,
) -> (&'a [f32], Option<&'a [f32]>) {
    assert_eq!(g.shape(), p.shape(), "sgd: gradient shape");
    let a = a.map(|a| {
        assert_eq!(a.shape(), p.shape(), "sgd: anchor shape");
        a.data()
    });
    (g.data(), a)
}

/// One coordinate's gradient after weight decay and the proximal term:
/// `(g + wd·p) + mu·(p − a)`, each term only when configured (`a` is `None`
/// unless a proximal anchor applies).
#[inline]
fn effective(cfg: &SgdConfig, g: f32, p: f32, a: Option<f32>) -> f32 {
    let mut e = g;
    if cfg.weight_decay != 0.0 {
        e += cfg.weight_decay * p;
    }
    if let Some(a) = a {
        e += cfg.prox_mu * (p - a);
    }
    e
}

/// Server-side optimizer family for FedOpt.
#[derive(Clone, Debug)]
pub enum ServerOpt {
    /// `theta += lr * delta` — plain FedAvg when `lr = 1`.
    Sgd {
        /// Server learning rate.
        lr: f32,
    },
    /// FedAdam: adaptive moments on the pseudo-gradient.
    Adam {
        /// Server learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Adaptivity epsilon.
        eps: f32,
        /// First-moment state (lazily initialized).
        m: Option<ParamMap>,
        /// Second-moment state (lazily initialized).
        v: Option<ParamMap>,
    },
    /// FedYogi: like Adam but with a sign-controlled second-moment update,
    /// which is less aggressive when gradients are sparse/heterogeneous.
    Yogi {
        /// Server learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Adaptivity epsilon.
        eps: f32,
        /// First-moment state (lazily initialized).
        m: Option<ParamMap>,
        /// Second-moment state (lazily initialized).
        v: Option<ParamMap>,
    },
}

impl ServerOpt {
    /// FedAvg-compatible server SGD with `lr = 1`.
    pub fn fedavg() -> Self {
        ServerOpt::Sgd { lr: 1.0 }
    }

    /// FedAdam with standard betas.
    pub fn adam(lr: f32) -> Self {
        ServerOpt::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
            m: None,
            v: None,
        }
    }

    /// FedYogi with standard betas.
    pub fn yogi(lr: f32) -> Self {
        ServerOpt::Yogi {
            lr,
            beta1: 0.9,
            beta2: 0.99,
            eps: 1e-3,
            m: None,
            v: None,
        }
    }

    /// Applies the aggregated client delta to the global model.
    pub fn apply(&mut self, global: &mut ParamMap, delta: &ParamMap) {
        match self {
            ServerOpt::Sgd { lr } => {
                global.add_scaled(*lr, delta);
            }
            ServerOpt::Adam {
                lr,
                beta1,
                beta2,
                eps,
                m,
                v,
            } => {
                let m = m.get_or_insert_with(|| delta.zeros_like());
                let v = v.get_or_insert_with(|| delta.zeros_like());
                for (k, d) in delta.iter() {
                    let mk = m.get_mut(k).expect("adam m key");
                    mk.scale(*beta1);
                    mk.add_scaled(1.0 - *beta1, d);
                    let vk = v.get_mut(k).expect("adam v key");
                    for (vv, dd) in vk.data_mut().iter_mut().zip(d.data()) {
                        *vv = *beta2 * *vv + (1.0 - *beta2) * dd * dd;
                    }
                }
                for (k, g) in global.iter_mut() {
                    if let (Some(mk), Some(vk)) = (m.get(k), v.get(k)) {
                        for ((p, mm), vv) in g.data_mut().iter_mut().zip(mk.data()).zip(vk.data()) {
                            *p += *lr * mm / (vv.sqrt() + *eps);
                        }
                    }
                }
            }
            ServerOpt::Yogi {
                lr,
                beta1,
                beta2,
                eps,
                m,
                v,
            } => {
                let m = m.get_or_insert_with(|| delta.zeros_like());
                let v = v.get_or_insert_with(|| delta.zeros_like());
                for (k, d) in delta.iter() {
                    let mk = m.get_mut(k).expect("yogi m key");
                    mk.scale(*beta1);
                    mk.add_scaled(1.0 - *beta1, d);
                    let vk = v.get_mut(k).expect("yogi v key");
                    for (vv, dd) in vk.data_mut().iter_mut().zip(d.data()) {
                        let d2 = dd * dd;
                        *vv -= (1.0 - *beta2) * d2 * (*vv - d2).signum();
                    }
                }
                for (k, g) in global.iter_mut() {
                    if let (Some(mk), Some(vk)) = (m.get(k), v.get(k)) {
                        for ((p, mm), vv) in g.data_mut().iter_mut().zip(mk.data()).zip(vk.data()) {
                            *p += *lr * mm / (vv.abs().sqrt() + *eps);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn p(v: &[f32]) -> ParamMap {
        let mut m = ParamMap::new();
        m.insert("w", Tensor::from_vec(vec![v.len()], v.to_vec()));
        m
    }

    #[test]
    fn plain_sgd_step() {
        let mut opt = Sgd::new(SgdConfig::with_lr(0.1));
        let mut params = p(&[1.0, 2.0]);
        let grads = p(&[10.0, -10.0]);
        opt.step(&mut params, &grads, None);
        assert_eq!(params.get("w").unwrap().data(), &[0.0, 3.0]);
    }

    #[test]
    fn momentum_accumulates() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            momentum: 0.5,
            ..Default::default()
        });
        let mut params = p(&[0.0]);
        let grads = p(&[1.0]);
        opt.step(&mut params, &grads, None); // v=1, p=-1
        opt.step(&mut params, &grads, None); // v=1.5, p=-2.5
        assert!((params.get("w").unwrap().data()[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_params() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            weight_decay: 1.0,
            ..Default::default()
        });
        let mut params = p(&[1.0]);
        let grads = p(&[0.0]);
        opt.step(&mut params, &grads, None);
        assert!((params.get("w").unwrap().data()[0] - 0.9).abs() < 1e-6);
    }

    #[test]
    fn proximal_pulls_toward_anchor() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 0.1,
            prox_mu: 1.0,
            ..Default::default()
        });
        let mut params = p(&[2.0]);
        let grads = p(&[0.0]);
        let anchor = p(&[0.0]);
        opt.step(&mut params, &grads, Some(&anchor));
        // grad_eff = 1.0 * (2 - 0) = 2 -> p = 2 - 0.2
        assert!((params.get("w").unwrap().data()[0] - 1.8).abs() < 1e-6);
    }

    #[test]
    fn grad_clipping_caps_step() {
        let mut opt = Sgd::new(SgdConfig {
            lr: 1.0,
            max_grad_norm: Some(1.0),
            ..Default::default()
        });
        let mut params = p(&[0.0, 0.0]);
        let grads = p(&[30.0, 40.0]); // norm 50 -> clipped to 1
        opt.step(&mut params, &grads, None);
        let w = params.get("w").unwrap();
        assert!((w.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn fedavg_server_is_plain_add() {
        let mut opt = ServerOpt::fedavg();
        let mut global = p(&[1.0]);
        let delta = p(&[0.5]);
        opt.apply(&mut global, &delta);
        assert_eq!(global.get("w").unwrap().data(), &[1.5]);
    }

    #[test]
    fn adam_moves_in_delta_direction() {
        let mut opt = ServerOpt::adam(0.1);
        let mut global = p(&[0.0]);
        let delta = p(&[1.0]);
        for _ in 0..5 {
            opt.apply(&mut global, &delta);
        }
        assert!(global.get("w").unwrap().data()[0] > 0.0);
    }

    #[test]
    fn yogi_moves_in_delta_direction() {
        let mut opt = ServerOpt::yogi(0.1);
        let mut global = p(&[0.0]);
        let delta = p(&[-1.0]);
        for _ in 0..5 {
            opt.apply(&mut global, &delta);
        }
        assert!(global.get("w").unwrap().data()[0] < 0.0);
    }

    #[test]
    fn sgd_ignores_buffer_keys_missing_from_grads() {
        let mut opt = Sgd::new(SgdConfig::with_lr(0.1));
        let mut params = p(&[1.0]);
        params.insert("bn.running_mean", Tensor::from_vec(vec![1], vec![5.0]));
        let grads = p(&[1.0]);
        opt.step(&mut params, &grads, None);
        assert_eq!(params.get("bn.running_mean").unwrap().data(), &[5.0]);
    }
}
