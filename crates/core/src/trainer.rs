//! The client-side `Trainer` abstraction (§3.1, §3.6).
//!
//! The trainer encapsulates all training detail — loss, optimizer, steps,
//! personalization — entirely decoupled from the client's message behaviour.
//! "A Trainer can be implemented as if a machine learning model is trained on
//! the local data owned by a client."

use fs_data::{ClientData, ClientSplit};
use fs_tensor::loss::Target;
use fs_tensor::model::{Metrics, Model};
use fs_tensor::optim::{Sgd, SgdConfig};
use fs_tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::Arc;

/// Predicate over parameter names deciding what a client shares.
///
/// Vanilla FedAvg shares everything; FedBN shares everything but `bn*` keys;
/// multi-goal courses share only the consensus set.
pub type ShareFilter = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// A share filter that shares every parameter.
pub fn share_all() -> ShareFilter {
    Arc::new(|_| true)
}

/// A share filter excluding names whose first path segment starts with the
/// given prefix (e.g. `"bn"` implements FedBN).
pub fn share_except_prefix(prefix: &'static str) -> ShareFilter {
    Arc::new(move |name| !name.starts_with(prefix))
}

/// The result of one local training pass.
#[derive(Clone, Debug)]
pub struct LocalUpdate {
    /// The (shared part of the) updated parameters.
    pub params: ParamMap,
    /// Training-set size (FedAvg weight).
    pub n_samples: u64,
    /// Local SGD steps actually taken.
    pub n_steps: u64,
    /// Training examples processed (each drawn example once per pass that
    /// trains on it), which drives the device compute-time model.
    pub examples_processed: usize,
}

/// Local training behaviour of a client.
pub trait Trainer: Send {
    /// Incorporates the (shared part of the) global model into the local
    /// model without training — the *decoding + loading* step.
    fn incorporate(&mut self, global: &ParamMap);

    /// Incorporates `global`, trains locally, and returns the update to send.
    fn local_train(&mut self, global: &ParamMap, round: u64) -> LocalUpdate;

    /// Evaluates the local (possibly personalized) model on the local
    /// validation split.
    fn evaluate_val(&mut self) -> Metrics;

    /// Evaluates the local (possibly personalized) model on the local test
    /// split.
    fn evaluate_test(&mut self) -> Metrics;

    /// Local training-set size.
    fn num_train_samples(&self) -> usize;

    /// Re-specifies the local optimizer configuration (used by FedEx, §4.3).
    fn set_sgd_config(&mut self, cfg: SgdConfig) {
        let _ = cfg;
    }

    /// Attempts to duplicate this trainer — model, data, optimizer state, and
    /// RNG stream included — so the parallel runner can snapshot a client
    /// before speculatively executing its handler on a worker thread.
    ///
    /// The default returns `None`, which marks the trainer non-speculatable:
    /// its client always runs serially at the delivery point (correct, just
    /// not parallel). Trainers holding state shared with other participants
    /// (e.g. FedEx's policy behind an `Arc<Mutex<_>>`) must keep the default,
    /// because restoring a clone cannot undo effects on shared state.
    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        None
    }

    /// Downcasts this trainer into a [`LocalTrainer`] by value, consuming the
    /// box. The client store uses this to dismantle an on-demand client
    /// when it goes dormant — recycling the model tensors through a pool and
    /// keeping only the tiny resumable state (optimizer, RNG) — so only
    /// `LocalTrainer`-backed clients can be built on demand.
    ///
    /// The default returns `None` (not a `LocalTrainer`).
    fn into_local(self: Box<Self>) -> Option<LocalTrainer> {
        None
    }
}

/// Configuration of the standard local training loop.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Local SGD steps per round (the paper's `Q`).
    pub local_steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Optimizer settings (lr, momentum, weight decay, proximal mu, clip).
    pub sgd: SgdConfig,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            local_steps: 4,
            batch_size: 20,
            sgd: SgdConfig::with_lr(0.1),
        }
    }
}

/// The index permutation and the batch a training pass draws into.
type PassBuffers = (Vec<usize>, ClientData);

thread_local! {
    // Kept per worker thread, not per pass: the passes a thread runs one
    // after another (one per client activation) draw into the same buffers,
    // so a warmed pass allocates nothing for its batches.
    static PASS_BUFFERS: RefCell<Option<PassBuffers>> = const { RefCell::new(None) };
}

/// One pass of local SGD, the loop every trainer shares: up to `steps`
/// minibatches of `batch_size` drawn from `train` into the calling thread's
/// pass buffers, each one [`Model::train_step`] with an optional proximal
/// `anchor`. Once the thread has drawn a batch of this shape, the draws
/// allocate nothing. Stops at the first empty batch. Returns the loss summed
/// over the steps taken and the examples actually drawn.
pub fn sgd_pass(
    model: &mut dyn Model,
    opt: &mut Sgd,
    train: &ClientData,
    steps: usize,
    batch_size: usize,
    anchor: Option<&ParamMap>,
    rng: &mut StdRng,
) -> (f32, usize) {
    let (mut loss, mut drawn) = (0.0f32, 0usize);
    // taken out for the pass, so a pass nested in a model's step finds none
    // and draws into its own
    let (mut idx, mut batch) = PASS_BUFFERS
        .with_borrow_mut(Option::take)
        .unwrap_or_else(|| (Vec::new(), ClientData::empty(&[])));
    for _ in 0..steps {
        train.sample_batch_into(batch_size, rng, &mut idx, &mut batch);
        if batch.is_empty() {
            break;
        }
        loss += model.train_step(opt, &batch.x, &batch.y, anchor);
        drawn += batch.len();
    }
    PASS_BUFFERS.set(Some((idx, batch)));
    (loss, drawn)
}

/// Evaluates `model` on one split of the local data; an empty split scores
/// [`Metrics::default`].
pub fn eval_split(model: &mut dyn Model, split: &ClientData) -> Metrics {
    if split.is_empty() {
        return Metrics::default();
    }
    model.evaluate(&split.x, &split.y)
}

/// The standard trainer: plain local SGD on the client's model, sharing the
/// keys selected by the [`ShareFilter`]. When `sgd.prox_mu > 0` the received
/// global model is used as the proximal anchor (FedProx).
pub struct LocalTrainer {
    /// Recycled through the client store's pool while its client is
    /// dormant.
    pub(crate) model: Box<dyn Model>,
    data: ClientSplit,
    cfg: TrainConfig,
    share: ShareFilter,
    /// Kept by the client store while its client is dormant.
    pub(crate) opt: Sgd,
    /// Kept by the client store while its client is dormant, mid-stream.
    pub(crate) rng: StdRng,
}

impl Clone for LocalTrainer {
    fn clone(&self) -> Self {
        Self {
            model: self.model.clone_model(),
            data: self.data.clone(),
            cfg: self.cfg.clone(),
            share: self.share.clone(),
            opt: self.opt.clone(),
            rng: self.rng.clone(),
        }
    }
}

impl LocalTrainer {
    /// Creates a trainer owning `model` and `data`.
    pub fn new(
        model: Box<dyn Model>,
        data: ClientSplit,
        cfg: TrainConfig,
        share: ShareFilter,
        seed: u64,
    ) -> Self {
        let opt = Sgd::new(cfg.sgd);
        Self {
            model,
            data,
            cfg,
            share,
            opt,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Read access to the local model (for inspection in tests/attacks).
    pub fn model(&self) -> &dyn Model {
        self.model.as_ref()
    }

    /// The local dataset.
    pub fn data(&self) -> &ClientSplit {
        &self.data
    }

    /// Mutable access to the local dataset (attack simulation poisons
    /// training data in place).
    pub fn data_mut(&mut self) -> &mut ClientSplit {
        &mut self.data
    }
}

impl Trainer for LocalTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        // names absent from `global` keep their local values
        self.model.set_params(global);
    }

    fn local_train(&mut self, global: &ParamMap, _round: u64) -> LocalUpdate {
        self.incorporate(global);
        let anchor = (self.cfg.sgd.prox_mu > 0.0).then_some(global);
        let steps = self.cfg.local_steps;
        let (_, drawn) = sgd_pass(
            self.model.as_mut(),
            &mut self.opt,
            &self.data.train,
            steps,
            self.cfg.batch_size,
            anchor,
            &mut self.rng,
        );
        let mut params = self.model.get_params();
        params.retain(|k| (self.share)(k));
        LocalUpdate {
            params,
            n_samples: self.data.train.len() as u64,
            n_steps: steps as u64,
            examples_processed: drawn,
        }
    }

    fn evaluate_val(&mut self) -> Metrics {
        eval_split(self.model.as_mut(), &self.data.val)
    }

    fn evaluate_test(&mut self) -> Metrics {
        eval_split(self.model.as_mut(), &self.data.test)
    }

    fn num_train_samples(&self) -> usize {
        self.data.train.len()
    }

    fn set_sgd_config(&mut self, cfg: SgdConfig) {
        self.cfg.sgd = cfg;
        self.opt.set_config(cfg);
    }

    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        Some(Box::new(self.clone()))
    }

    fn into_local(self: Box<Self>) -> Option<LocalTrainer> {
        Some(*self)
    }
}

/// Builds a pooled evaluation set from every client's split (used by the
/// central global-model evaluator).
pub fn pooled_test_set(dataset: &fs_data::FedDataset, max_per_client: usize) -> (Tensor, Target) {
    let mut xs: Vec<f32> = Vec::new();
    let mut classes: Vec<usize> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    let mut is_classes = true;
    let mut n = 0usize;
    for c in &dataset.clients {
        let take = c.test.len().min(max_per_client);
        if take == 0 {
            continue;
        }
        let idx: Vec<usize> = (0..take).collect();
        let b = c.test.batch(&idx);
        xs.extend_from_slice(b.x.data());
        match b.y {
            Target::Classes(cl) => classes.extend(cl),
            Target::Values(v) => {
                is_classes = false;
                values.extend(v);
            }
        }
        n += take;
    }
    let mut shape = vec![n];
    shape.extend_from_slice(&dataset.feature_shape);
    let x = Tensor::from_vec(shape, xs);
    let y = if is_classes {
        Target::Classes(classes)
    } else {
        Target::Values(values)
    };
    (x, y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_tensor::model::logistic_regression;

    fn make_trainer() -> LocalTrainer {
        let d = twitter_like(&TwitterConfig {
            num_clients: 3,
            per_client: 20,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let model = logistic_regression(d.input_dim(), 2, &mut rng);
        LocalTrainer::new(
            Box::new(model),
            d.clients[0].clone(),
            TrainConfig {
                local_steps: 8,
                batch_size: 4,
                sgd: SgdConfig::with_lr(0.5),
            },
            share_all(),
            1,
        )
    }

    #[test]
    fn local_train_reduces_loss() {
        let mut t = make_trainer();
        let global = t.model().get_params();
        let before = t.evaluate_val();
        for r in 0..10 {
            let up = t.local_train(&global, r);
            assert_eq!(up.n_steps, 8);
            assert!(!up.params.is_empty());
        }
        // note: we trained from `global` each time but kept drifting back;
        // loss on train data should still drop vs the random init
        let after = t.evaluate_val();
        assert!(after.loss <= before.loss + 0.5);
    }

    #[test]
    fn compute_is_charged_for_the_examples_drawn() {
        let mut t = make_trainer();
        let global = t.model().get_params();
        // 8 steps of batch 4 from a non-empty split
        assert_eq!(t.local_train(&global, 0).examples_processed, 32);
        // an empty train split draws nothing, so it costs no compute
        let feature_shape = t.data().train.x.shape()[1..].to_vec();
        t.data_mut().train = ClientData::empty(&feature_shape);
        let up = t.local_train(&global, 1);
        assert_eq!(up.examples_processed, 0);
        assert_eq!(up.n_samples, 0);
    }

    #[test]
    fn share_filter_restricts_update_keys() {
        let d = twitter_like(&TwitterConfig {
            num_clients: 1,
            per_client: 20,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let model = logistic_regression(d.input_dim(), 2, &mut rng);
        let mut t = LocalTrainer::new(
            Box::new(model),
            d.clients[0].clone(),
            TrainConfig::default(),
            Arc::new(|k: &str| k.ends_with("weight")),
            1,
        );
        let global = t.model().get_params();
        let up = t.local_train(&global, 0);
        assert!(up.params.contains("fc.weight"));
        assert!(!up.params.contains("fc.bias"));
    }

    #[test]
    fn incorporate_overwrites_shared_keys_only() {
        let mut t = make_trainer();
        let mut global = ParamMap::new();
        global.insert(
            "fc.weight",
            t.model()
                .get_params()
                .get("fc.weight")
                .unwrap()
                .zeros_like(),
        );
        t.incorporate(&global);
        let p = t.model().get_params();
        assert_eq!(p.get("fc.weight").unwrap().sum(), 0.0);
        // bias untouched (still whatever init gave — likely zeros too, so
        // check instead that the key still exists)
        assert!(p.contains("fc.bias"));
    }

    #[test]
    fn share_except_prefix_excludes_bn() {
        let f = share_except_prefix("bn");
        assert!(f("fc1.weight"));
        assert!(!f("bn1.gamma"));
    }

    #[test]
    fn speculation_snapshot_is_copy_on_write() {
        let t = make_trainer();
        // cloning a trainer (the snapshot taken before every speculative
        // dispatch) must not copy model tensors — CoW storage is shared
        // until someone writes
        let snap = t.clone();
        let live = t.model().get_params();
        let snapped = snap.model().get_params();
        let (wl, ws) = (
            live.get("fc.weight").unwrap(),
            snapped.get("fc.weight").unwrap(),
        );
        assert!(
            wl.shares_storage(ws),
            "snapshot copied model tensors; snapshot cost scales with model size again"
        );
        // training the live trainer detaches its tensors; the snapshot keeps
        // the pre-training values (the rollback image stays intact)
        let before: Vec<f32> = ws.data().to_vec();
        let mut live_t = t;
        live_t.local_train(&live, 0);
        assert_eq!(
            snap.model().get_params().get("fc.weight").unwrap().data(),
            &before[..]
        );
    }

    #[test]
    fn pooled_test_set_concatenates() {
        let d = twitter_like(&TwitterConfig {
            num_clients: 4,
            per_client: 10,
            ..Default::default()
        });
        let (x, y) = pooled_test_set(&d, 2);
        assert_eq!(x.shape()[0], y.len());
        assert!(x.shape()[0] <= 8);
        assert!(x.shape()[0] > 0);
    }
}
