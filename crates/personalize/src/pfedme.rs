//! pFedMe: personalization with Moreau envelopes.
//!
//! Each outer step solves (approximately, with `k_inner` proximal SGD steps)
//! the personalized problem `theta* = argmin f_i(theta) + lambda/2 ||theta -
//! w||^2` around the local copy `w` of the global model, then moves the local
//! copy toward the personalized solution: `w <- w - eta * lambda * (w -
//! theta*)`. The client shares `w`; `theta*` is its personal model.

use fs_core::trainer::{eval_split, sgd_pass, LocalUpdate, ShareFilter, TrainConfig, Trainer};
use fs_data::ClientSplit;
use fs_tensor::model::{Metrics, Model};
use fs_tensor::optim::{Sgd, SgdConfig};
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pFedMe trainer.
pub struct PFedMeTrainer {
    /// Personal model `theta` (also used to evaluate).
    personal: Box<dyn Model>,
    /// Local copy of the global iterate `w`.
    w: ParamMap,
    data: ClientSplit,
    cfg: TrainConfig,
    /// Moreau-envelope regularization strength.
    pub lambda: f32,
    /// Outer learning rate on `w`.
    pub outer_lr: f32,
    /// Inner proximal SGD steps per outer step.
    pub k_inner: usize,
    share: ShareFilter,
    inner_opt: Sgd,
    rng: StdRng,
}

impl PFedMeTrainer {
    /// Creates a pFedMe trainer.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per pFedMe hyper-parameter, as the paper states them"
    )]
    pub fn new(
        model: Box<dyn Model>,
        data: ClientSplit,
        cfg: TrainConfig,
        lambda: f32,
        outer_lr: f32,
        k_inner: usize,
        share: ShareFilter,
        seed: u64,
    ) -> Self {
        let w = model.get_params();
        let inner_cfg = SgdConfig {
            prox_mu: lambda,
            ..cfg.sgd
        };
        Self {
            personal: model,
            w,
            data,
            cfg,
            lambda,
            outer_lr,
            k_inner: k_inner.max(1),
            share,
            inner_opt: Sgd::new(inner_cfg),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The personal model parameters `theta`.
    pub fn personal_params(&self) -> ParamMap {
        self.personal.get_params()
    }
}

impl Trainer for PFedMeTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        // only the local iterate absorbs the global model; the personal model
        // survives (it is re-derived from `w` by the inner solve during
        // training, and must persist for end-of-course evaluation)
        self.w.merge_from(global);
    }

    fn local_train(&mut self, global: &ParamMap, _round: u64) -> LocalUpdate {
        self.incorporate(global);
        // the personal model warm-starts each round from the local iterate
        self.personal.set_params(&self.w);
        let mut examples = 0usize;
        for _ in 0..self.cfg.local_steps {
            // inner: approximately solve argmin f(theta) + lambda/2 ||theta-w||^2
            let (_, drawn) = sgd_pass(
                self.personal.as_mut(),
                &mut self.inner_opt,
                &self.data.train,
                self.k_inner,
                self.cfg.batch_size,
                Some(&self.w),
                &mut self.rng,
            );
            examples += drawn;
            // outer: w <- w - eta * lambda * (w - theta)
            let theta = self.personal.get_params();
            let mut diff = self.w.clone();
            diff.add_scaled(-1.0, &theta.filter(|k| diff.contains(k)));
            self.w.add_scaled(-self.outer_lr * self.lambda, &diff);
        }
        let share = self.share.clone();
        LocalUpdate {
            params: self.w.filter(|k| share(k)),
            n_samples: self.data.train.len() as u64,
            n_steps: (self.cfg.local_steps * self.k_inner) as u64,
            examples_processed: examples,
        }
    }

    fn evaluate_val(&mut self) -> Metrics {
        eval_split(self.personal.as_mut(), &self.data.val)
    }

    fn evaluate_test(&mut self) -> Metrics {
        eval_split(self.personal.as_mut(), &self.data.test)
    }

    fn num_train_samples(&self) -> usize {
        self.data.train.len()
    }

    fn set_sgd_config(&mut self, cfg: SgdConfig) {
        self.cfg.sgd = cfg;
        self.inner_opt.set_config(SgdConfig {
            prox_mu: self.lambda,
            ..cfg
        });
    }

    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        Some(Box::new(Self {
            personal: self.personal.clone_model(),
            w: self.w.clone(),
            data: self.data.clone(),
            cfg: self.cfg.clone(),
            lambda: self.lambda,
            outer_lr: self.outer_lr,
            k_inner: self.k_inner,
            share: self.share.clone(),
            inner_opt: self.inner_opt.clone(),
            rng: self.rng.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_core::trainer::share_all;
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_tensor::model::logistic_regression;

    fn setup(lambda: f32) -> PFedMeTrainer {
        let d = twitter_like(&TwitterConfig {
            num_clients: 1,
            per_client: 30,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let model = logistic_regression(d.input_dim(), 2, &mut rng);
        PFedMeTrainer::new(
            Box::new(model),
            d.clients[0].clone(),
            TrainConfig {
                local_steps: 3,
                batch_size: 4,
                sgd: SgdConfig::with_lr(0.3),
            },
            lambda,
            1.0,
            5,
            share_all(),
            7,
        )
    }

    #[test]
    fn outer_iterate_moves_toward_personal() {
        let mut t = setup(2.0);
        let global = t.w.clone();
        let up = t.local_train(&global, 0);
        // w moved away from the received global
        assert!(up.params.sq_dist(&global) > 0.0);
        // personal and w remain close-ish under the proximal pull
        let theta = t.personal_params();
        assert!(theta.sq_dist(&t.w) < theta.sq_dist(&global) + 1.0);
    }

    #[test]
    fn step_accounting() {
        let mut t = setup(2.0);
        let global = t.w.clone();
        let up = t.local_train(&global, 0);
        assert_eq!(up.n_steps, 15); // 3 outer x 5 inner
        assert!(up.examples_processed > 0);
    }

    #[test]
    fn personal_model_fits_local_data() {
        let mut t = setup(0.5);
        let global = t.w.clone();
        let before = t.evaluate_test();
        for r in 0..20 {
            t.local_train(&global, r);
        }
        let after = t.evaluate_test();
        assert!(
            after.loss < before.loss,
            "personalization failed: {} -> {}",
            before.loss,
            after.loss
        );
    }
}
