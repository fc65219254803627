//! After one warm step, a step of `sgd_pass` performs no heap allocation:
//! the batch draw (into the index and batch buffers the pass reuses) and
//! `Model::train_step` (forward, loss and backward on recycled worker
//! scratch, then the optimizer writing the network's own tensors with the
//! layers' own gradients, momentum buffers included). The counter is armed
//! around the whole pass.
//!
//! The same counter prices the server's busy/idle bookkeeping against an id
//! off the wire: a join from `u32::MAX - 1` must cost a set entry, not a
//! bitmap sized by the id.
//!
//! And it keeps the update path's allocation ledger on the `twitter_async`
//! shapes (the 122-parameter logistic regression):
//! - a warmed `LocalTrainer::local_train` draws its batches into the
//!   worker's pass buffers and names its update map with the names the
//!   network built once, so what is left is the copy-on-write of the two
//!   tensors the first step writes and the update map itself;
//! - a model's `ParamMap` clones in one allocation, whatever its entry
//!   count: the keys are shared;
//! - a warmed `Updates` dispatch: the candidate scan and the draw reuse one
//!   buffer, the contributors are a borrowed slice and the one-client
//!   broadcast is a plain send, so what is left is the update's and the
//!   broadcast's model copies and the aggregations;
//! - a `Finish` to an on-demand client that was never dispatched builds no
//!   client (no handler registry, no codec, no dismantling), only a trainer
//!   over a pooled model and the client's data split.
//!
//! The counters are per thread, so the tests here do not see each other.

use fs_core::aggregator::FedAvg;
use fs_core::course::CourseBuilder;
use fs_core::sampler::Sampler;
use fs_core::trainer::{sgd_pass, share_all, LocalTrainer, TrainConfig, Trainer};
use fs_core::{AggregationRule, BroadcastManner, Ctx, FlConfig, Server};
use fs_data::synth::{femnist_like, twitter_like, ImageConfig, TwitterConfig};
use fs_data::ClientSplit;
use fs_net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use fs_sim::VirtualTime;
use fs_tensor::loss::Target;
use fs_tensor::model::{convnet2, logistic_regression, Model};
use fs_tensor::optim::{Sgd, SgdConfig};
use fs_tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the allocations (and reallocations) the calling thread makes while
/// it has armed it, and the bytes they asked for.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if ARMED.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        BYTES.with(|n| n.set(n.get() + bytes));
    }
}

/// Runs `call` with the counter armed; returns its result, the allocations
/// it made and the bytes they requested.
fn counting<R>(call: impl FnOnce() -> R) -> (R, usize, usize) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    ARMED.with(|a| a.set(true));
    let out = call();
    ARMED.with(|a| a.set(false));
    (
        out,
        ALLOCATIONS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// const-initialised thread-local `Cell`s, which allocate nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Delegates to the wrapped model, noting the thread's allocation count as
/// each `train_step` starts.
struct Marked {
    inner: Box<dyn Model>,
    /// Reserved up front, so noting a mark allocates nothing.
    marks: Vec<usize>,
}

impl Model for Marked {
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

    fn train_step(
        &mut self,
        opt: &mut Sgd,
        x: &Tensor,
        y: &Target,
        anchor: Option<&ParamMap>,
    ) -> f32 {
        self.marks.push(ALLOCATIONS.with(Cell::get));
        self.inner.train_step(opt, x, y, anchor)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(Marked {
            inner: self.inner.clone_model(),
            marks: Vec::with_capacity(self.marks.capacity()),
        })
    }
}

/// Allocations of each step of one six-step `sgd_pass`, the counter armed
/// around the whole pass: step `i` runs from its `train_step` to the next
/// one (so it includes the next batch draw), the last to the pass's end.
/// The first batch draw, which sizes the pass's buffers, precedes step 0.
fn allocations_per_step(
    model: Box<dyn Model>,
    data: ClientSplit,
    batch_size: usize,
    momentum: f32,
) -> Vec<usize> {
    const STEPS: usize = 6;
    let mut marked = Marked {
        inner: model,
        marks: Vec::with_capacity(STEPS),
    };
    let mut opt = Sgd::new(SgdConfig {
        momentum,
        ..SgdConfig::with_lr(0.25)
    });
    let mut rng = StdRng::seed_from_u64(3);
    let ((loss, drawn), _, _) = counting(|| {
        sgd_pass(
            &mut marked,
            &mut opt,
            &data.train,
            STEPS,
            batch_size,
            None,
            &mut rng,
        )
    });
    let end = ALLOCATIONS.with(Cell::get);
    assert!(loss.is_finite());
    assert_eq!(drawn, STEPS * batch_size.min(data.train.len()));
    let mut marks = marked.marks;
    assert_eq!(marks.len(), STEPS, "one train_step per step");
    marks.push(end);
    marks.windows(2).map(|w| w[1] - w[0]).collect()
}

#[test]
fn sgd_pass_steps_after_the_first_allocate_nothing() {
    let mut rng = StdRng::seed_from_u64(1);
    let images = femnist_like(&ImageConfig {
        num_clients: 2,
        ..Default::default()
    });
    let tweets = twitter_like(&TwitterConfig {
        num_clients: 2,
        per_client: 20,
        ..Default::default()
    });
    for momentum in [0.0, 0.9] {
        // the benchmark's CNN step: convnet2(1, 8, 32, 10), batch 20
        let cnn = convnet2(1, 8, 32, 10, 0.0, &mut rng);
        let steps = allocations_per_step(Box::new(cnn), images.clients[0].clone(), 20, momentum);
        assert!(
            steps[0] > 0,
            "the counter saw nothing on the warm step: {steps:?}"
        );
        assert_eq!(
            steps[1..],
            [0; 5],
            "convnet2 steps allocated (momentum {momentum}): {steps:?}"
        );

        // with dropout: the mask is scratch too
        let cnn = convnet2(1, 8, 32, 10, 0.3, &mut rng);
        let steps = allocations_per_step(Box::new(cnn), images.clients[1].clone(), 20, momentum);
        assert_eq!(
            steps[1..],
            [0; 5],
            "convnet2+dropout steps allocated (momentum {momentum}): {steps:?}"
        );

        // the logistic-regression step of the twitter and scale courses
        let lr = logistic_regression(tweets.input_dim(), 2, &mut rng);
        let steps = allocations_per_step(Box::new(lr), tweets.clients[0].clone(), 4, momentum);
        assert_eq!(
            steps[1..],
            [0; 5],
            "logistic-regression steps allocated (momentum {momentum}): {steps:?}"
        );
    }
}

#[test]
fn a_join_from_a_huge_id_is_sampled_without_sizing_anything_by_the_id() {
    let hostile: ParticipantId = u32::MAX - 1;
    let cfg = FlConfig {
        concurrency: 3,
        total_rounds: 5,
        ..Default::default()
    };
    let mut global = ParamMap::new();
    global.insert("w", Tensor::zeros(&[2]));
    let mut server = Server::new(
        cfg,
        global,
        3,
        Box::new(FedAvg::new(0.0)),
        Sampler::Uniform,
        None,
    );
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    let ((), _, bytes) = counting(|| {
        for id in [1, hostile, 2] {
            let join = Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
            server.handle(&join, &mut ctx);
        }
    });
    // the third join started the round: everyone is sampled, busy and
    // outstanding, the stranger included
    assert_eq!(server.state.roster, vec![1, hostile, 2]);
    assert!(server.state.busy.contains(&hostile));
    assert!(server.state.outstanding.contains(&hostile));
    assert!(ctx
        .take_messages()
        .iter()
        .any(|o| o.msg.kind == MessageKind::ModelParams && o.msg.receiver == hostile));
    assert!(
        bytes < 1 << 20,
        "joining and sampling id {hostile} allocated {bytes} bytes"
    );
}

#[test]
fn a_warmed_local_train_on_the_twitter_shapes_allocates_at_most_five_times() {
    // the framework bench's `local_train_lr122`: Q = 4, batch 2
    let data = twitter_like(&TwitterConfig {
        num_clients: 4,
        vocab: 60,
        per_client: 10,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(7);
    let model = logistic_regression(data.input_dim(), 2, &mut rng);
    let global = model.get_params();
    assert_eq!(global.numel(), 122);
    let cfg = TrainConfig {
        local_steps: 4,
        batch_size: 2,
        sgd: SgdConfig::with_lr(0.3),
    };
    let mut trainer = LocalTrainer::new(
        Box::new(model),
        data.clients[0].clone(),
        cfg,
        share_all(),
        7,
    );
    for _ in 0..3 {
        trainer.local_train(&global, 0);
    }
    for _ in 0..5 {
        let (update, allocations, _) = counting(|| trainer.local_train(&global, 0));
        assert_eq!(update.n_steps, 4);
        // the weight's and the bias's copy-on-write (buffer and `Arc`
        // each), and the update map
        assert!(
            allocations <= 5,
            "a warmed local_train allocated {allocations} times"
        );
    }
}

#[test]
fn cloning_a_models_param_map_allocates_once() {
    let mut rng = StdRng::seed_from_u64(5);
    let models: [(&str, Box<dyn Model>); 2] = [
        ("lr122", Box::new(logistic_regression(60, 2, &mut rng))),
        ("convnet2", Box::new(convnet2(1, 8, 32, 10, 0.0, &mut rng))),
    ];
    for (name, model) in models {
        let params = model.get_params();
        let (copy, allocations, _) = counting(|| params.clone());
        assert_eq!(copy, params);
        assert!(
            allocations <= 1,
            "cloning the {name} map ({} entries) allocated {allocations} times",
            params.len()
        );
    }
}

#[test]
fn a_warmed_updates_dispatch_allocates_at_most_2_6_times() {
    const USERS: ParticipantId = 120;
    const WARM: usize = 80;
    const COUNTED: usize = 160;
    let mut rng = StdRng::seed_from_u64(7);
    let global = logistic_regression(60, 2, &mut rng).get_params();
    assert_eq!(global.numel(), 122);
    let cfg = FlConfig {
        concurrency: 40,
        total_rounds: u64::MAX,
        rule: AggregationRule::GoalAchieved { goal: 16 },
        broadcast: BroadcastManner::AfterReceiving,
        staleness_tolerance: u64::MAX,
        ..Default::default()
    };
    let mut server = Server::new(
        cfg,
        global.clone(),
        USERS as usize,
        Box::new(FedAvg::new(0.0)),
        Sampler::Uniform,
        None,
    );
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    for id in 1..=USERS {
        let join = Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
        server.handle(&join, &mut ctx);
    }
    let replies: Vec<Message> = (1..=USERS)
        .map(|id| {
            let update = Payload::Update {
                params: global.clone(),
                start_version: 0,
                n_samples: 10,
                n_steps: 4,
            };
            Message::new(id, SERVER_ID, MessageKind::Updates, 0, update)
        })
        .collect();
    // the oldest busy client replies; every reply hands the model on
    let reply = |server: &mut Server, ctx: &mut Ctx| {
        ctx.reset(VirtualTime::ZERO);
        let replying = server.state.busy.iter().next().expect("40 clients busy");
        server.handle(&replies[replying as usize - 1], ctx);
        assert_eq!(server.state.busy.len(), 40);
    };
    for _ in 0..WARM {
        reply(&mut server, &mut ctx);
    }
    let ((), allocations, _) = counting(|| {
        for _ in 0..COUNTED {
            reply(&mut server, &mut ctx);
        }
    });
    assert_eq!(server.state.version as usize, (WARM + COUNTED) / 16);
    let mean = allocations as f64 / COUNTED as f64;
    assert!(
        mean <= 2.6,
        "a warmed Updates dispatch allocated {mean} times on average"
    );
}

#[test]
fn a_finish_to_a_never_dispatched_on_demand_client_allocates_at_most_four_times() {
    let data = Arc::new(twitter_like(&TwitterConfig {
        num_clients: 4,
        vocab: 60,
        per_client: 10,
        ..Default::default()
    }));
    let dim = data.input_dim();
    let mut runner = CourseBuilder::from_dataset(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        FlConfig::default(),
    )
    .build();
    let global = runner.server.state.global.clone();
    assert_eq!(global.numel(), 122);
    let finish = |id: ParticipantId| {
        let params = global.clone();
        Message::new(
            SERVER_ID,
            id,
            MessageKind::Finish,
            3,
            Payload::Model { params, version: 3 },
        )
    };
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    // client 1 leaves a model in the store's pool and sizes the outbox
    assert!(runner
        .clients
        .dispatch(&finish(1), &mut ctx, &runner.server));
    ctx.reset(VirtualTime::ZERO);
    let msg = finish(2);
    let (handled, allocations, _) =
        counting(|| runner.clients.dispatch(&msg, &mut ctx, &runner.server));
    assert!(handled);
    let sent = ctx.take_messages();
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].msg.kind, MessageKind::MetricsReport);
    assert!(
        allocations <= 4,
        "a Finish to a never-dispatched client allocated {allocations} times"
    );
}
