//! FedEx — federated hyperparameter tuning inside the FL course (§4.3).
//!
//! Traditional HPO treats a whole FL course as the black box; FedEx instead
//! explores *client-wise* configurations concurrently in a single round:
//! every sampled client draws a candidate configuration from a shared policy,
//! re-specifies its local optimizer (Figure 8), trains, and reports how much
//! its validation loss improved; the policy is updated by exponentiated
//! gradient. Wrapping FedEx with RS or SHA (the FedHPO-B protocol) lets the
//! wrapper handle server-side hyperparameters while FedEx fine-tunes
//! client-side ones.

use fs_core::config::FlConfig;
use fs_core::course::TrainerFactory;
use fs_core::trainer::{share_all, LocalTrainer, LocalUpdate, TrainConfig, Trainer};
use fs_tensor::model::Metrics;
use fs_tensor::optim::SgdConfig;
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// The exponentiated-gradient policy over candidate configurations.
#[derive(Clone, Debug)]
pub struct FedExPolicy {
    arms: Vec<SgdConfig>,
    logits: Vec<f64>,
    /// Exponentiated-gradient step size.
    pub eta: f64,
}

impl FedExPolicy {
    /// Creates a uniform policy over `arms`.
    pub fn new(arms: Vec<SgdConfig>, eta: f64) -> Self {
        assert!(!arms.is_empty(), "need at least one arm");
        let n = arms.len();
        Self {
            arms,
            logits: vec![0.0; n],
            eta,
        }
    }

    /// Standard arm grid around a base configuration: learning-rate
    /// multipliers {0.5, 0.7, 1, 1.4, 2} (a half-decade each way — wide
    /// enough to adapt, mild enough not to destabilize averaging).
    pub fn lr_grid(base: SgdConfig, eta: f64) -> Self {
        let arms = [0.5f32, 0.707, 1.0, 1.414, 2.0]
            .iter()
            .map(|&m| SgdConfig {
                lr: base.lr * m,
                ..base
            })
            .collect();
        Self::new(arms, eta)
    }

    /// Current sampling probabilities (softmax of the logits).
    pub fn probabilities(&self) -> Vec<f64> {
        let max = self
            .logits
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = self.logits.iter().map(|l| (l - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Samples an arm index and its configuration.
    pub fn sample(&self, rng: &mut impl Rng) -> (usize, SgdConfig) {
        let p = self.probabilities();
        let mut u: f64 = rng.gen();
        for (i, &pi) in p.iter().enumerate() {
            if u < pi {
                return (i, self.arms[i]);
            }
            u -= pi;
        }
        (self.arms.len() - 1, self.arms[self.arms.len() - 1])
    }

    /// Exponentiated-gradient update: `advantage` is the client's validation
    /// improvement (positive = the arm helped).
    pub fn update(&mut self, arm: usize, advantage: f64) {
        let p = self.probabilities();
        // importance-weighted gradient on the played arm
        self.logits[arm] += self.eta * advantage / p[arm].max(1e-6);
        // keep logits bounded for numerical sanity
        let max = self
            .logits
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        for l in &mut self.logits {
            *l -= max;
        }
    }
}

/// A trainer wrapper that re-specifies its configuration from the shared
/// policy every round and feeds back the observed advantage.
pub struct FedExTrainer {
    inner: LocalTrainer,
    policy: Arc<Mutex<FedExPolicy>>,
    rng: StdRng,
}

impl FedExTrainer {
    /// Wraps a trainer with a shared policy.
    pub fn new(inner: LocalTrainer, policy: Arc<Mutex<FedExPolicy>>, seed: u64) -> Self {
        Self {
            inner,
            policy,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Trainer for FedExTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        self.inner.incorporate(global);
    }

    fn local_train(&mut self, global: &ParamMap, round: u64) -> LocalUpdate {
        let (arm, cfg) = {
            let policy = self.policy.lock().expect("policy lock");
            policy.sample(&mut self.rng)
        };
        self.inner.set_sgd_config(cfg);
        self.inner.incorporate(global);
        let before = self.inner.evaluate_val();
        let update = self.inner.local_train(global, round);
        let after = self.inner.evaluate_val();
        if before.n > 0 {
            let advantage = (before.loss - after.loss) as f64;
            self.policy
                .lock()
                .expect("policy lock")
                .update(arm, advantage);
        }
        update
    }

    fn evaluate_val(&mut self) -> Metrics {
        self.inner.evaluate_val()
    }

    fn evaluate_test(&mut self) -> Metrics {
        self.inner.evaluate_test()
    }

    fn num_train_samples(&self) -> usize {
        self.inner.num_train_samples()
    }

    fn set_sgd_config(&mut self, cfg: SgdConfig) {
        self.inner.set_sgd_config(cfg);
    }
}

/// Builds FedEx-wrapped trainer factories for [`crate::objective::FlObjective`].
///
/// One shared policy is created per trial (lazily, from the trial's course
/// configuration), so a wrapper like RS or SHA restarts exploration for each
/// configuration it proposes.
#[derive(Clone)]
pub struct FedExHook {
    /// Exponentiated-gradient step size.
    pub eta: f64,
    /// Observable handle to the most recent trial's policy.
    pub last_policy: Arc<Mutex<Option<Arc<Mutex<FedExPolicy>>>>>,
}

impl FedExHook {
    /// Creates a hook.
    pub fn new(eta: f64) -> Self {
        Self {
            eta,
            last_policy: Arc::new(Mutex::new(None)),
        }
    }

    /// Builds the per-trial trainer factory.
    pub fn make_trainer_factory(&self) -> TrainerFactory {
        let eta = self.eta;
        let slot: Arc<Mutex<Option<Arc<Mutex<FedExPolicy>>>>> = Arc::new(Mutex::new(None));
        *self.last_policy.lock().expect("hook lock") = None;
        let observer = self.last_policy.clone();
        Box::new(move |i, model, split, cfg: &FlConfig| {
            let policy = {
                let mut slot = slot.lock().expect("slot lock");
                slot.get_or_insert_with(|| {
                    let p = Arc::new(Mutex::new(FedExPolicy::lr_grid(cfg.sgd, eta)));
                    // distinct mutexes (slot vs observer) always taken in this
                    // order; no reverse path exists
                    *observer.lock().expect("hook lock") = Some(p.clone());
                    p
                })
                .clone()
            };
            let inner = LocalTrainer::new(
                model,
                split,
                TrainConfig {
                    local_steps: cfg.local_steps,
                    batch_size: cfg.batch_size,
                    sgd: cfg.sgd,
                },
                share_all(),
                cfg.seed ^ (i as u64 + 1),
            );
            Box::new(FedExTrainer::new(
                inner,
                policy,
                cfg.seed ^ (0xfede ^ i as u64),
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_probabilities_normalized() {
        let p = FedExPolicy::lr_grid(SgdConfig::with_lr(0.1), 0.5);
        let probs = p.probabilities();
        assert_eq!(probs.len(), 5);
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(probs.iter().all(|&v| (v - 0.2).abs() < 1e-9));
    }

    #[test]
    fn positive_advantage_raises_arm_probability() {
        let mut p = FedExPolicy::lr_grid(SgdConfig::with_lr(0.1), 0.5);
        for _ in 0..10 {
            p.update(2, 1.0);
        }
        let probs = p.probabilities();
        assert!(probs[2] > 0.5, "reinforced arm at {probs:?}");
    }

    #[test]
    fn negative_advantage_suppresses_arm() {
        let mut p = FedExPolicy::lr_grid(SgdConfig::with_lr(0.1), 0.5);
        for _ in 0..10 {
            p.update(4, -1.0);
        }
        let probs = p.probabilities();
        assert!(probs[4] < 0.1, "suppressed arm at {probs:?}");
    }

    #[test]
    fn sampling_follows_distribution() {
        let mut p = FedExPolicy::new(vec![SgdConfig::with_lr(0.1), SgdConfig::with_lr(1.0)], 0.5);
        p.logits = vec![5.0, 0.0];
        let mut rng = StdRng::seed_from_u64(0);
        let mut first = 0;
        for _ in 0..100 {
            if p.sample(&mut rng).0 == 0 {
                first += 1;
            }
        }
        assert!(first > 90, "arm 0 sampled only {first}/100");
    }

    #[test]
    fn fedex_course_adapts_client_configs() {
        use crate::objective::{FlObjective, Objective};
        use fs_data::synth::{twitter_like, TwitterConfig};
        use fs_tensor::model::{logistic_regression, Model};

        let data = twitter_like(&TwitterConfig {
            num_clients: 10,
            per_client: 20,
            ..Default::default()
        });
        let dim = data.input_dim();
        let base = FlConfig {
            concurrency: 6,
            sgd: SgdConfig::with_lr(0.05),
            ..Default::default()
        };
        let hook = FedExHook::new(0.2);
        let mut obj = FlObjective::new(
            data,
            Arc::new(move |rng: &mut StdRng| {
                Box::new(logistic_regression(dim, 2, rng)) as Box<dyn Model>
            }),
            base,
        );
        obj.trainer_hook = Some(hook.clone());
        let cfg = crate::space::Config::new();
        let (result, _) = obj.run(&cfg, 8, None);
        assert!(result.val_loss.is_finite());
        // the policy was created and updated during the course
        let policy = hook
            .last_policy
            .lock()
            .unwrap()
            .clone()
            .expect("policy created");
        let probs = policy.lock().unwrap().probabilities();
        let uniform = probs.iter().all(|&v| (v - 0.2).abs() < 1e-9);
        assert!(!uniform, "policy never updated: {probs:?}");
    }
}
