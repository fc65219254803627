//! Ditto: fair and robust personalization through a proximal personal model.
//!
//! Each client keeps two models: the *global-track* model, trained exactly
//! like FedAvg and shared with the server, and a *personal* model, trained on
//! the same data with an extra proximal pull `lambda/2 * ||v - w_global||^2`
//! toward the received global parameters. Evaluation uses the personal model;
//! the paper notes Ditto costs extra local computation but no extra
//! communication (§5.3.2).

use fs_core::trainer::{eval_split, sgd_pass, LocalUpdate, ShareFilter, TrainConfig, Trainer};
use fs_data::ClientSplit;
use fs_tensor::model::{Metrics, Model};
use fs_tensor::optim::{Sgd, SgdConfig};
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Ditto trainer.
pub struct DittoTrainer {
    global_track: Box<dyn Model>,
    personal: Box<dyn Model>,
    data: ClientSplit,
    cfg: TrainConfig,
    /// Proximal strength pulling the personal model toward the global.
    pub lambda: f32,
    share: ShareFilter,
    opt_global: Sgd,
    opt_personal: Sgd,
    rng: StdRng,
}

impl DittoTrainer {
    /// Creates a Ditto trainer; `model` seeds both the global-track and the
    /// personal model.
    pub fn new(
        model: Box<dyn Model>,
        data: ClientSplit,
        cfg: TrainConfig,
        lambda: f32,
        share: ShareFilter,
        seed: u64,
    ) -> Self {
        let personal = model.clone_model();
        let opt_global = Sgd::new(cfg.sgd);
        let personal_cfg = SgdConfig {
            prox_mu: lambda,
            ..cfg.sgd
        };
        let opt_personal = Sgd::new(personal_cfg);
        Self {
            global_track: model,
            personal,
            data,
            cfg,
            lambda,
            share,
            opt_global,
            opt_personal,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Trainer for DittoTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        self.global_track.set_params(global);
    }

    fn local_train(&mut self, global: &ParamMap, _round: u64) -> LocalUpdate {
        self.incorporate(global);
        // (1) global-track update: plain local SGD, shared with the server;
        // (2) personal update: proximal pull toward the *received* global
        let mut drawn = 0;
        for (model, opt, anchor) in [
            (&mut self.global_track, &mut self.opt_global, None),
            (&mut self.personal, &mut self.opt_personal, Some(global)),
        ] {
            let (_, examples) = sgd_pass(
                model.as_mut(),
                opt,
                &self.data.train,
                self.cfg.local_steps,
                self.cfg.batch_size,
                anchor,
                &mut self.rng,
            );
            drawn += examples;
        }
        let share = self.share.clone();
        LocalUpdate {
            params: self.global_track.get_params().filter(|k| share(k)),
            n_samples: self.data.train.len() as u64,
            n_steps: self.cfg.local_steps as u64,
            // Ditto doubles local computation: both passes are charged
            examples_processed: drawn,
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
        self.opt_global.set_config(cfg);
        self.opt_personal.set_config(SgdConfig {
            prox_mu: self.lambda,
            ..cfg
        });
    }

    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        Some(Box::new(Self {
            global_track: self.global_track.clone_model(),
            personal: self.personal.clone_model(),
            data: self.data.clone(),
            cfg: self.cfg.clone(),
            lambda: self.lambda,
            share: self.share.clone(),
            opt_global: self.opt_global.clone(),
            opt_personal: self.opt_personal.clone(),
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

    fn setup() -> DittoTrainer {
        let d = twitter_like(&TwitterConfig {
            num_clients: 2,
            per_client: 30,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let model = logistic_regression(d.input_dim(), 2, &mut rng);
        DittoTrainer::new(
            Box::new(model),
            d.clients[0].clone(),
            TrainConfig {
                local_steps: 6,
                batch_size: 4,
                sgd: SgdConfig::with_lr(0.5),
            },
            0.5,
            share_all(),
            3,
        )
    }

    #[test]
    fn shares_global_track_not_personal() {
        let mut t = setup();
        let global = t.global_track.get_params();
        let personal_before = t.personal.get_params();
        let up = t.local_train(&global, 0);
        // personal model changed but is not what was shared
        let personal_after = t.personal.get_params();
        assert_ne!(personal_before, personal_after);
        assert_ne!(up.params, personal_after);
    }

    #[test]
    fn reports_double_compute() {
        let mut t = setup();
        let global = t.global_track.get_params();
        let up = t.local_train(&global, 0);
        assert_eq!(up.examples_processed, 2 * 6 * 4);
    }

    #[test]
    fn a_split_shorter_than_a_batch_is_charged_for_what_it_holds() {
        let d = twitter_like(&TwitterConfig {
            num_clients: 1,
            per_client: 30,
            ..Default::default()
        });
        let mut split = d.clients[0].clone();
        split.train = split.train.batch(&[0, 1, 2]);
        let model = logistic_regression(d.input_dim(), 2, &mut StdRng::seed_from_u64(0));
        let cfg = TrainConfig {
            local_steps: 2,
            batch_size: 8,
            sgd: SgdConfig::with_lr(0.5),
        };
        let mut t = DittoTrainer::new(Box::new(model), split, cfg, 0.5, share_all(), 3);
        let global = t.global_track.get_params();
        // two passes of two steps, each step drawing the three examples
        assert_eq!(t.local_train(&global, 0).examples_processed, 2 * 2 * 3);
    }

    #[test]
    fn personal_model_stays_near_global_with_large_lambda() {
        let d = twitter_like(&TwitterConfig {
            num_clients: 1,
            per_client: 30,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let model = logistic_regression(d.input_dim(), 2, &mut rng);
        let mut strong = DittoTrainer::new(
            model.clone_model(),
            d.clients[0].clone(),
            TrainConfig {
                local_steps: 10,
                batch_size: 4,
                sgd: SgdConfig::with_lr(0.1),
            },
            2.0,
            share_all(),
            3,
        );
        let mut weak = DittoTrainer::new(
            Box::new(model),
            d.clients[0].clone(),
            TrainConfig {
                local_steps: 10,
                batch_size: 4,
                sgd: SgdConfig::with_lr(0.1),
            },
            0.0,
            share_all(),
            3,
        );
        let global = strong.global_track.get_params();
        strong.local_train(&global, 0);
        weak.local_train(&global, 0);
        let d_strong = strong.personal.get_params().sq_dist(&global);
        let d_weak = weak.personal.get_params().sq_dist(&global);
        assert!(
            d_strong < d_weak,
            "lambda=50 drift {d_strong} should be below lambda=0 drift {d_weak}"
        );
    }

    #[test]
    fn evaluate_uses_personal_model() {
        let mut t = setup();
        let global = t.global_track.get_params();
        for r in 0..5 {
            t.local_train(&global, r);
        }
        let m = t.evaluate_test();
        assert!(m.n > 0);
    }
}
