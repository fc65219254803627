//! FedEM: federated multi-task learning under a mixture of distributions.
//!
//! Every client models its local distribution as a mixture of `K` shared
//! component models with *private* mixture weights `pi`. Training alternates
//! an E-step (posterior responsibilities of the components for the local
//! data) and an M-step (responsibility-weighted gradient steps on every
//! component). All `K` components are federated — parameter names are
//! prefixed `comp<k>.` — while `pi` never leaves the client.

use fs_core::trainer::{eval_split, sgd_pass, LocalUpdate, ShareFilter, TrainConfig, Trainer};
use fs_data::ClientSplit;
use fs_tensor::loss::Target;
use fs_tensor::model::{Metrics, Model};
use fs_tensor::optim::Sgd;
use fs_tensor::optim::SgdConfig;
use fs_tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A mixture of `K` component models with component weights.
///
/// Implements [`Model`]: `predict` returns the log of the mixture
/// probability (so accuracy and cross-entropy work unchanged), and
/// `loss_grad` performs one batch-EM gradient computation (responsibilities
/// from the current weights, responsibility-weighted component gradients).
pub struct MixtureModel {
    components: Vec<Box<dyn Model>>,
    /// Mixture weights `pi` (kept local in FL courses).
    pub weights: Vec<f32>,
}

impl MixtureModel {
    /// Builds a mixture from component models (weights start uniform).
    pub fn new(components: Vec<Box<dyn Model>>) -> Self {
        assert!(
            !components.is_empty(),
            "mixture needs at least one component"
        );
        let k = components.len();
        Self {
            components,
            weights: vec![1.0 / k as f32; k],
        }
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    fn prefix(k: usize, name: &str) -> String {
        format!("comp{k}.{name}")
    }

    /// Duplicates the mixture, keeping the concrete type (unlike
    /// [`Model::clone_model`], which erases it behind `Box<dyn Model>`).
    pub fn clone_mixture(&self) -> MixtureModel {
        MixtureModel {
            components: self.components.iter().map(|c| c.clone_model()).collect(),
            weights: self.weights.clone(),
        }
    }

    /// Per-component mean losses on a batch (no gradients).
    pub fn component_losses(&mut self, x: &Tensor, y: &Target) -> Vec<f32> {
        self.components
            .iter_mut()
            .map(|c| c.evaluate(x, y).loss)
            .collect()
    }

    /// Posterior responsibilities `gamma_k ∝ pi_k * exp(-n * loss_k)`:
    /// the mean loss scaled back to the data log-likelihood, so more local
    /// evidence sharpens the posterior (as in the exact E-step).
    pub fn responsibilities(&mut self, x: &Tensor, y: &Target) -> Vec<f32> {
        let losses = self.component_losses(x, y);
        let n = y.len() as f32;
        let min = losses.iter().cloned().fold(f32::INFINITY, f32::min);
        let mut g: Vec<f32> = losses
            .iter()
            .zip(&self.weights)
            .map(|(&l, &w)| w.max(1e-6) * (-(l - min) * n).exp())
            .collect();
        let s: f32 = g.iter().sum();
        for v in &mut g {
            *v /= s.max(1e-12);
        }
        g
    }
}

impl Model for MixtureModel {
    fn get_params(&self) -> ParamMap {
        let mut out = ParamMap::new();
        for (k, c) in self.components.iter().enumerate() {
            for (name, t) in c.get_params().iter() {
                out.insert(Self::prefix(k, name), t.clone());
            }
        }
        out
    }

    fn set_params(&mut self, src: &ParamMap) {
        for (k, c) in self.components.iter_mut().enumerate() {
            let pre = format!("comp{k}.");
            let sub: ParamMap = src
                .iter()
                .filter(|(n, _)| n.starts_with(&pre))
                .map(|(n, t)| (n[pre.len()..].to_string(), t.clone()))
                .collect();
            if !sub.is_empty() {
                c.set_params(&sub);
            }
        }
    }

    fn predict(&mut self, x: &Tensor) -> Tensor {
        let b = x.shape()[0];
        let mut mix: Option<Tensor> = None;
        for (c, &w) in self.components.iter_mut().zip(&self.weights) {
            let logits = c.predict(x);
            let probs = fs_tensor::loss::softmax(&logits);
            match &mut mix {
                Some(m) => m.add_scaled(w, &probs),
                None => {
                    let mut m = probs;
                    m.scale(w);
                    mix = Some(m);
                }
            }
        }
        let mix = mix.expect("at least one component");
        let _ = b;
        mix.map(|p| p.max(1e-12).ln())
    }

    fn loss_grad(&mut self, x: &Tensor, y: &Target) -> (f32, ParamMap) {
        let gamma = self.responsibilities(x, y);
        let mut out = ParamMap::new();
        let mut loss = 0.0f32;
        for (k, (c, &g)) in self.components.iter_mut().zip(&gamma).enumerate() {
            let (l, grads) = c.loss_grad(x, y);
            loss += g * l;
            for (name, t) in grads.iter() {
                let mut t = t.clone();
                t.scale(g);
                out.insert(Self::prefix(k, name), t);
            }
        }
        (loss, out)
    }

    fn buffer_keys(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (k, c) in self.components.iter().enumerate() {
            for b in c.buffer_keys() {
                out.push(Self::prefix(k, &b));
            }
        }
        out
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone_mixture())
    }
}

/// The FedEM trainer: batch EM over a shared [`MixtureModel`] with private
/// mixture weights.
pub struct FedEmTrainer {
    mixture: MixtureModel,
    data: ClientSplit,
    cfg: TrainConfig,
    /// Smoothing factor when updating `pi` from new responsibilities.
    pub pi_momentum: f32,
    share: ShareFilter,
    opt: Sgd,
    rng: StdRng,
}

impl FedEmTrainer {
    /// Creates a FedEM trainer over an existing mixture.
    pub fn new(
        mixture: MixtureModel,
        data: ClientSplit,
        cfg: TrainConfig,
        share: ShareFilter,
        seed: u64,
    ) -> Self {
        let opt = Sgd::new(cfg.sgd);
        Self {
            mixture,
            data,
            cfg,
            pi_momentum: 0.5,
            share,
            opt,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The client's private mixture weights.
    pub fn pi(&self) -> &[f32] {
        &self.mixture.weights
    }
}

impl Trainer for FedEmTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        self.mixture.set_params(global);
    }

    fn local_train(&mut self, global: &ParamMap, _round: u64) -> LocalUpdate {
        self.incorporate(global);
        // E-step on the full training split: update private pi
        if !self.data.train.is_empty() {
            let gamma = self
                .mixture
                .responsibilities(&self.data.train.x, &self.data.train.y);
            let m = self.pi_momentum;
            for (w, g) in self.mixture.weights.iter_mut().zip(&gamma) {
                *w = m * *w + (1.0 - m) * g;
            }
            let s: f32 = self.mixture.weights.iter().sum();
            for w in &mut self.mixture.weights {
                *w /= s.max(1e-12);
            }
        }
        // M-step: responsibility-weighted SGD on all components
        let (_, drawn) = sgd_pass(
            &mut self.mixture,
            &mut self.opt,
            &self.data.train,
            self.cfg.local_steps,
            self.cfg.batch_size,
            None,
            &mut self.rng,
        );
        let share = self.share.clone();
        let k = self.mixture.num_components();
        LocalUpdate {
            params: self.mixture.get_params().filter(|n| share(n)),
            n_samples: self.data.train.len() as u64,
            n_steps: self.cfg.local_steps as u64,
            // every component trains on every batch
            examples_processed: k * drawn,
        }
    }

    fn evaluate_val(&mut self) -> Metrics {
        eval_split(&mut self.mixture, &self.data.val)
    }

    fn evaluate_test(&mut self) -> Metrics {
        eval_split(&mut self.mixture, &self.data.test)
    }

    fn num_train_samples(&self) -> usize {
        self.data.train.len()
    }

    fn set_sgd_config(&mut self, cfg: SgdConfig) {
        self.cfg.sgd = cfg;
        self.opt.set_config(cfg);
    }

    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        Some(Box::new(Self {
            mixture: self.mixture.clone_mixture(),
            data: self.data.clone(),
            cfg: self.cfg.clone(),
            pi_momentum: self.pi_momentum,
            share: self.share.clone(),
            opt: self.opt.clone(),
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

    fn mixture(k: usize, dim: usize) -> MixtureModel {
        let mut rng = StdRng::seed_from_u64(5);
        let comps: Vec<Box<dyn Model>> = (0..k)
            .map(|_| Box::new(logistic_regression(dim, 2, &mut rng)) as Box<dyn Model>)
            .collect();
        MixtureModel::new(comps)
    }

    #[test]
    fn param_names_are_component_prefixed() {
        let m = mixture(2, 4);
        let p = m.get_params();
        assert!(p.contains("comp0.fc.weight"));
        assert!(p.contains("comp1.fc.bias"));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn set_params_routes_by_prefix() {
        let mut m = mixture(2, 4);
        let mut p = m.get_params();
        let zeroed = p.get("comp1.fc.weight").unwrap().zeros_like();
        p.insert("comp1.fc.weight", zeroed);
        m.set_params(&p);
        let q = m.get_params();
        assert_eq!(q.get("comp1.fc.weight").unwrap().sum(), 0.0);
        assert_ne!(q.get("comp0.fc.weight").unwrap().sum(), 0.0);
    }

    #[test]
    fn responsibilities_sum_to_one_and_favour_better_component() {
        let d = twitter_like(&TwitterConfig {
            num_clients: 1,
            per_client: 30,
            ..Default::default()
        });
        let mut m = mixture(2, d.input_dim());
        // train component 0 on this client's data so it clearly wins
        let train = &d.clients[0].train;
        for _ in 0..30 {
            let (_, g) = m.components[0].loss_grad(&train.x, &train.y);
            let mut p = m.components[0].get_params();
            p.add_scaled(-0.5, &g);
            m.components[0].set_params(&p);
        }
        let gamma = m.responsibilities(&train.x, &train.y);
        assert!((gamma.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(gamma[0] > 0.8, "trained component not favoured: {gamma:?}");
    }

    #[test]
    fn trainer_adapts_pi_toward_better_component() {
        let d = twitter_like(&TwitterConfig {
            num_clients: 1,
            per_client: 40,
            ..Default::default()
        });
        let m = mixture(2, d.input_dim());
        let mut t = FedEmTrainer::new(
            m,
            d.clients[0].clone(),
            TrainConfig {
                local_steps: 6,
                batch_size: 8,
                sgd: SgdConfig::with_lr(0.5),
            },
            share_all(),
            11,
        );
        let global = t.mixture.get_params();
        for r in 0..10 {
            t.local_train(&global, r);
        }
        let pi = t.pi().to_vec();
        assert!((pi.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        // the mixture should do something useful
        let metrics = t.evaluate_test();
        assert!(metrics.n > 0);
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
        let cfg = TrainConfig {
            local_steps: 2,
            batch_size: 8,
            sgd: SgdConfig::with_lr(0.5),
        };
        let mut t = FedEmTrainer::new(mixture(2, d.input_dim()), split, cfg, share_all(), 11);
        let global = t.mixture.get_params();
        // two components, two steps, each step drawing the three examples
        assert_eq!(t.local_train(&global, 0).examples_processed, 2 * 2 * 3);
    }

    #[test]
    fn fedem_beats_single_model_under_cluster_structure() {
        // Two client clusters with *opposite* labeling functions: a single
        // shared model cannot satisfy both (it averages to chance), while a
        // 2-component mixture assigns one component per cluster. This is the
        // regime FedEM is built for (Marfoq et al.'s mixture assumption).
        use fs_core::config::FlConfig;
        use fs_core::course::CourseBuilder;
        use fs_tensor::optim::SgdConfig;

        let mut data = twitter_like(&TwitterConfig {
            num_clients: 8,
            per_client: 40,
            words_per_text: 24,
            seed: 7,
            ..Default::default()
        });
        // flip labels for the second half of the clients (cluster B)
        for c in data.clients.iter_mut().skip(4) {
            for part in [&mut c.train, &mut c.val, &mut c.test] {
                if let fs_tensor::loss::Target::Classes(labels) = &mut part.y {
                    for l in labels.iter_mut() {
                        *l = 1 - *l;
                    }
                }
            }
        }
        let dim = data.input_dim();
        let cfg = FlConfig {
            total_rounds: 25,
            concurrency: 8,
            local_steps: 6,
            batch_size: 8,
            sgd: SgdConfig::with_lr(0.5),
            seed: 31,
            ..Default::default()
        };
        let mean_acc = |runner: &fs_core::StandaloneRunner| -> f32 {
            let accs: Vec<f32> = runner
                .server
                .state
                .client_reports
                .values()
                .map(|m| m.accuracy)
                .collect();
            accs.iter().sum::<f32>() / accs.len() as f32
        };
        // single shared model (FedAvg)
        let mut fedavg = CourseBuilder::new(
            data.clone(),
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)) as Box<dyn Model>),
            cfg.clone(),
        )
        .no_central_eval()
        .build();
        fedavg.run();
        let fedavg_acc = mean_acc(&fedavg);

        // FedEM with K = 2
        let mixture_factory = move |rng: &mut StdRng| -> Box<dyn Model> {
            let comps: Vec<Box<dyn Model>> = (0..2)
                .map(|_| Box::new(logistic_regression(dim, 2, rng)) as Box<dyn Model>)
                .collect();
            Box::new(MixtureModel::new(comps))
        };
        let mut fedem = CourseBuilder::new(data, Box::new(mixture_factory), cfg)
            .no_central_eval()
            .trainer_factory(Box::new(move |i, model, split, cfg| {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 999);
                let comps: Vec<Box<dyn Model>> = (0..2)
                    .map(|_| Box::new(logistic_regression(dim, 2, &mut rng)) as Box<dyn Model>)
                    .collect();
                let mut mixture = MixtureModel::new(comps);
                mixture.set_params(&model.get_params());
                Box::new(FedEmTrainer::new(
                    mixture,
                    split,
                    TrainConfig {
                        local_steps: cfg.local_steps,
                        batch_size: cfg.batch_size,
                        sgd: cfg.sgd,
                    },
                    share_all(),
                    cfg.seed ^ (i as u64 + 1),
                ))
            }))
            .build();
        fedem.run();
        let fedem_acc = mean_acc(&fedem);
        assert!(
            fedem_acc > fedavg_acc + 0.15,
            "FedEM ({fedem_acc}) must clearly beat FedAvg ({fedavg_acc}) on clustered clients"
        );
    }

    #[test]
    fn mixture_predict_is_valid_distribution() {
        let d = twitter_like(&TwitterConfig {
            num_clients: 1,
            per_client: 10,
            ..Default::default()
        });
        let mut m = mixture(3, d.input_dim());
        let x = &d.clients[0].train.x;
        let logp = m.predict(x);
        for r in 0..logp.rows() {
            let s: f32 = logp.row(r).iter().map(|v| v.exp()).sum();
            assert!((s - 1.0).abs() < 1e-3, "row {r} sums to {s}");
        }
    }
}
