//! The malicious-client participant plug-in (Figure 7).
//!
//! "Users can conveniently choose some of the participants to become
//! malicious clients via configuring, and attack algorithms can be added to
//! their own trainers." [`MaliciousTrainer`] wraps a benign trainer: it
//! poisons the local dataset once (data-poisoning backdoors) and/or
//! manipulates every outgoing update (model-poisoning), while behaving like
//! any other client at the message level — invisible to the server.

use crate::backdoor::{poison_dataset, Trigger};
use fs_core::trainer::{LocalTrainer, LocalUpdate, Trainer};
use fs_tensor::model::Metrics;
use fs_tensor::optim::SgdConfig;
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scales a malicious update for model replacement: given the current global
/// parameters and the attacker's desired parameters, returns the update to
/// submit so that after weighted averaging with `n_participants` equal-weight
/// updates the global lands (approximately) on the desired model
/// (`theta_mal = global + n * delta`).
fn model_replacement(global: &ParamMap, desired: &ParamMap, n_participants: usize) -> ParamMap {
    let boost = n_participants.max(1) as f32;
    let mut delta = desired.sub(global);
    delta.scale(boost);
    let mut out = global.clone();
    out.add_scaled(1.0, &delta);
    out
}

/// What the malicious client does.
#[derive(Clone, Debug)]
pub enum AttackMode {
    /// Stamp a trigger on a fraction of local data and relabel to the target
    /// class (BadNets / DBA fragment).
    DataPoison {
        /// The trigger (or DBA fragment) to stamp.
        trigger: Trigger,
        /// Attacker's target class.
        target_class: usize,
        /// Fraction of local training data to poison.
        fraction: f32,
    },
    /// Scale the trained update for model replacement.
    ModelReplacement {
        /// Expected number of equally-weighted participants per aggregation.
        n_participants: usize,
    },
}

/// A trainer wrapper that turns a benign client into an attacker.
pub struct MaliciousTrainer {
    inner: LocalTrainer,
    mode: AttackMode,
    poisoned: bool,
    rng: StdRng,
}

impl MaliciousTrainer {
    /// Wraps `inner` with the given attack mode.
    pub fn new(inner: LocalTrainer, mode: AttackMode, seed: u64) -> Self {
        Self {
            inner,
            mode,
            poisoned: false,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn ensure_poisoned(&mut self) {
        if self.poisoned {
            return;
        }
        if let AttackMode::DataPoison {
            trigger,
            target_class,
            fraction,
        } = self.mode.clone()
        {
            poison_dataset(
                &mut self.inner.data_mut().train,
                &trigger,
                target_class,
                fraction,
                &mut self.rng,
            );
        }
        self.poisoned = true;
    }
}

impl Trainer for MaliciousTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        self.inner.incorporate(global);
    }

    fn local_train(&mut self, global: &ParamMap, round: u64) -> LocalUpdate {
        self.ensure_poisoned();
        let mut update = self.inner.local_train(global, round);
        if let AttackMode::ModelReplacement { n_participants } = self.mode {
            update.params = model_replacement(global, &update.params, n_participants);
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

    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        Some(Box::new(Self {
            inner: self.inner.clone(),
            mode: self.mode.clone(),
            poisoned: self.poisoned,
            rng: self.rng.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backdoor::attack_success_rate;
    use fs_core::aggregator::{Aggregator, FedAvg, ReceivedUpdate};
    use fs_core::config::FlConfig;
    use fs_core::course::CourseBuilder;
    use fs_core::trainer::{share_all, TrainConfig};
    use fs_data::synth::{cifar_like, ImageConfig};
    use fs_tensor::model::{convnet2, Model};
    use fs_tensor::Tensor;

    fn p(v: &[f32]) -> ParamMap {
        let mut m = ParamMap::new();
        m.insert("w", Tensor::from_vec(vec![v.len()], v.to_vec()));
        m
    }

    #[test]
    fn replacement_survives_averaging() {
        let global = p(&[0.0, 0.0]);
        let desired = p(&[1.0, -1.0]);
        let n = 5;
        let mal = model_replacement(&global, &desired, n);
        // aggregate the boosted update with n-1 benign no-op updates
        let mut agg = FedAvg::new(0.0);
        let mut updates: Vec<ReceivedUpdate> = (0..n - 1)
            .map(|i| ReceivedUpdate {
                client: i as u32 + 1,
                params: global.clone(),
                staleness: 0,
                n_samples: 10,
                n_steps: 4,
            })
            .collect();
        updates.push(ReceivedUpdate {
            client: 99,
            params: mal,
            staleness: 0,
            n_samples: 10,
            n_steps: 4,
        });
        let next = agg.aggregate(&global, &updates);
        let w = next.get("w").unwrap();
        assert!((w.data()[0] - 1.0).abs() < 1e-5, "got {:?}", w.data());
        assert!((w.data()[1] + 1.0).abs() < 1e-5);
    }

    /// Runs a small FL course with `n_malicious` backdooring clients and
    /// returns (clean accuracy, attack success rate).
    fn run_backdoor_course(n_malicious: usize) -> (f32, f32) {
        let cfg_img = ImageConfig {
            num_clients: 8,
            per_client: 40,
            img: 8,
            num_classes: 4,
            seed: 21,
            ..Default::default()
        };
        let data = cifar_like(&cfg_img, None);
        let clean_test = data.clients[7].test.clone();
        let cfg = FlConfig {
            total_rounds: 15,
            concurrency: 8,
            local_steps: 8,
            batch_size: 8,
            sgd: SgdConfig::with_lr(0.2),
            ..Default::default()
        };
        let mut runner = CourseBuilder::new(
            data,
            Box::new(|rng| Box::new(convnet2(1, 8, 16, 4, 0.0, rng))),
            cfg,
        )
        .trainer_factory(Box::new(move |i, model, split, cfg| {
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
            if i < n_malicious {
                Box::new(MaliciousTrainer::new(
                    inner,
                    AttackMode::DataPoison {
                        trigger: Trigger::corner(),
                        target_class: 0,
                        fraction: 0.5,
                    },
                    cfg.seed ^ 0xbad ^ i as u64,
                ))
            } else {
                Box::new(inner)
            }
        }))
        .build();
        runner.run();
        // evaluate the final global model
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = convnet2(1, 8, 16, 4, 0.0, &mut rng);
        let mut p = model.get_params();
        p.merge_from(&runner.server.state.global);
        model.set_params(&p);
        let clean = model.evaluate(&clean_test.x, &clean_test.y).accuracy;
        let asr = attack_success_rate(&mut model, &clean_test, &Trigger::corner(), 0);
        (clean, asr)
    }

    #[test]
    fn backdoor_raises_asr_without_destroying_accuracy() {
        let (clean_benign, asr_benign) = run_backdoor_course(0);
        let (clean_attacked, asr_attacked) = run_backdoor_course(3);
        assert!(
            asr_attacked > asr_benign + 0.2,
            "backdoor had no effect: benign asr {asr_benign}, attacked {asr_attacked}"
        );
        assert!(
            clean_attacked > clean_benign - 0.35,
            "attack destroyed clean accuracy: {clean_benign} -> {clean_attacked}"
        );
    }
}
