//! After one warm step, a local SGD pass performs no heap allocation inside
//! the model's `loss_grad_into` — forward, loss, backward and the gradient
//! hand-off all run on recycled worker scratch.
//!
//! What `run_sgd` allocates *around* that call is left as it was and is
//! excluded here by construction (the counter is armed only inside the
//! model): the sampled batch (`fs-data`), the `get_params` map with its key
//! strings, the copy-on-write parameter buffers `Sgd::step` detaches, and
//! `set_params`. The benchmark prices all of it at under 2 µs per step.
//!
//! This file holds one test on purpose: the counter is process-wide.

use fs_core::trainer::{share_all, LocalTrainer, TrainConfig};
use fs_data::synth::{femnist_like, twitter_like, ImageConfig, TwitterConfig};
use fs_data::ClientSplit;
use fs_tensor::loss::Target;
use fs_tensor::model::{convnet2, logistic_regression, Model};
use fs_tensor::optim::SgdConfig;
use fs_tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Counts allocations (and reallocations) made while the calling thread has
/// armed it.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter touches
// only an atomic and a const-initialised thread-local `Cell`, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: same contract as the caller's
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Delegates to the wrapped model, counting the allocations of each
/// `loss_grad_into` call.
struct Counted {
    inner: Box<dyn Model>,
    per_call: Arc<Mutex<Vec<usize>>>,
}

impl Model for Counted {
    fn get_params(&self) -> ParamMap {
        self.inner.get_params()
    }

    fn set_params(&mut self, src: &ParamMap) {
        self.inner.set_params(src);
    }

    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.inner.predict(x)
    }

    fn loss_grad(&mut self, x: &Tensor, y: &Target) -> (f32, ParamMap) {
        self.inner.loss_grad(x, y)
    }

    fn loss_grad_into(&mut self, x: &Tensor, y: &Target, grads: &mut ParamMap) -> f32 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        ARMED.with(|a| a.set(true));
        let loss = self.inner.loss_grad_into(x, y, grads);
        ARMED.with(|a| a.set(false));
        let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
        self.per_call.lock().expect("no panic holds it").push(made);
        loss
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(Counted {
            inner: self.inner.clone_model(),
            per_call: Arc::clone(&self.per_call),
        })
    }
}

/// Allocations inside each `loss_grad_into` of one six-step `run_sgd`.
fn allocations_per_step(model: Box<dyn Model>, data: ClientSplit, batch_size: usize) -> Vec<usize> {
    let per_call = Arc::new(Mutex::new(Vec::new()));
    let counted = Counted {
        inner: model,
        per_call: Arc::clone(&per_call),
    };
    let cfg = TrainConfig {
        local_steps: 6,
        batch_size,
        sgd: SgdConfig::with_lr(0.25),
    };
    let mut trainer = LocalTrainer::new(Box::new(counted), data, cfg, share_all(), 3);
    let loss = trainer.run_sgd(6, None);
    assert!(loss.is_finite());
    let calls = per_call.lock().expect("no panic holds it").clone();
    assert_eq!(calls.len(), 6, "one loss_grad_into per step");
    calls
}

#[test]
fn steps_after_the_first_allocate_nothing_inside_loss_grad() {
    let mut rng = StdRng::seed_from_u64(1);

    // the benchmark's CNN step: convnet2(1, 8, 32, 10), batch 20
    let images = femnist_like(&ImageConfig {
        num_clients: 2,
        ..Default::default()
    });
    let cnn = convnet2(1, 8, 32, 10, 0.0, &mut rng);
    let calls = allocations_per_step(Box::new(cnn), images.clients[0].clone(), 20);
    assert!(
        calls[0] > 0,
        "the counter saw nothing on the warm step: {calls:?}"
    );
    assert_eq!(calls[1..], [0; 5], "convnet2 steps allocated: {calls:?}");

    // with dropout: the mask is scratch too
    let cnn = convnet2(1, 8, 32, 10, 0.3, &mut rng);
    let calls = allocations_per_step(Box::new(cnn), images.clients[1].clone(), 20);
    assert_eq!(
        calls[1..],
        [0; 5],
        "convnet2+dropout steps allocated: {calls:?}"
    );

    // the logistic-regression step of the twitter and scale courses
    let tweets = twitter_like(&TwitterConfig {
        num_clients: 2,
        per_client: 20,
        ..Default::default()
    });
    let lr = logistic_regression(tweets.input_dim(), 2, &mut rng);
    let calls = allocations_per_step(Box::new(lr), tweets.clients[0].clone(), 4);
    assert_eq!(
        calls[1..],
        [0; 5],
        "logistic-regression steps allocated: {calls:?}"
    );
}
