//! Optimizers.
//!
//! * [`Sgd`] — the client-side optimizer. Supports momentum, weight decay,
//!   gradient clipping, and a **proximal term** toward an anchor parameter
//!   set: `grad += mu * (theta - anchor)`. The proximal form is what FedProx,
//!   Ditto, and pFedMe all reduce to, so the personalization crate reuses it.
//! * [`ServerOpt`] — the server-side optimizer family used by FedOpt
//!   (Reddi et al.): the aggregated client delta is treated as a
//!   pseudo-gradient and applied with SGD, Adam, or Yogi.

use crate::ParamMap;

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

/// Stochastic gradient descent over a [`ParamMap`].
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

    /// Performs one SGD step on `params` given `grads`.
    ///
    /// `anchor`, when present, adds the proximal term
    /// `prox_mu * (params - anchor)` to the gradient *before* momentum.
    /// Only keys present in `grads` are updated, so buffers (batch-norm
    /// running statistics) are never touched.
    pub fn step(&mut self, params: &mut ParamMap, grads: &ParamMap, anchor: Option<&ParamMap>) {
        let cfg = self.cfg;
        // Gradient transforms (decay / proximal / clip) need a scratch copy;
        // the common training configuration needs none, so the hot paths
        // below apply `grads` (or the velocity) directly — no per-step
        // allocation, and numerically identical to the scratch-copy route.
        let needs_scratch = cfg.weight_decay != 0.0
            || (cfg.prox_mu != 0.0 && anchor.is_some())
            || cfg.max_grad_norm.is_some();
        if !needs_scratch {
            if cfg.momentum == 0.0 {
                for (k, g) in grads.iter() {
                    if let Some(p) = params.get_mut(k) {
                        p.add_scaled(-cfg.lr, g);
                    }
                }
            } else {
                let vel = self.velocity.get_or_insert_with(|| grads.zeros_like());
                // ensure velocity covers all grad keys
                for (k, g) in grads.iter() {
                    if !vel.contains(k) {
                        vel.insert(k.to_string(), g.zeros_like());
                    }
                }
                for (k, g) in grads.iter() {
                    let v = vel.get_mut(k).expect("velocity key");
                    v.scale(cfg.momentum);
                    v.add_scaled(1.0, g);
                    if let Some(p) = params.get_mut(k) {
                        p.add_scaled(-cfg.lr, v);
                    }
                }
            }
            return;
        }
        let mut eff = grads.clone();
        if self.cfg.weight_decay != 0.0 {
            for (k, g) in eff.iter_mut() {
                if let Some(p) = params.get(k) {
                    g.add_scaled(self.cfg.weight_decay, p);
                }
            }
        }
        if self.cfg.prox_mu != 0.0 {
            if let Some(anchor) = anchor {
                for (k, g) in eff.iter_mut() {
                    if let (Some(p), Some(a)) = (params.get(k), anchor.get(k)) {
                        let mut diff = p.clone();
                        diff.add_scaled(-1.0, a);
                        g.add_scaled(self.cfg.prox_mu, &diff);
                    }
                }
            }
        }
        if let Some(max) = self.cfg.max_grad_norm {
            eff.clip_norm(max);
        }
        if self.cfg.momentum != 0.0 {
            let vel = self.velocity.get_or_insert_with(|| eff.zeros_like());
            // ensure velocity covers all grad keys (e.g. after key-set change)
            for (k, g) in eff.iter() {
                if !vel.contains(k) {
                    vel.insert(k.to_string(), g.zeros_like());
                }
            }
            for (k, g) in eff.iter_mut() {
                let v = vel.get_mut(k).expect("velocity key");
                v.scale(self.cfg.momentum);
                v.add_scaled(1.0, g);
                *g = v.clone();
            }
        }
        for (k, g) in eff.iter() {
            if let Some(p) = params.get_mut(k) {
                p.add_scaled(-self.cfg.lr, g);
            }
        }
    }
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
