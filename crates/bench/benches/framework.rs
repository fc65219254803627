//! Criterion: what the framework spends per update where the model is tiny —
//! the two per-update paths of the `twitter_async` course, outside a course.
//!
//! `server_updates_dispatch` is one `Updates` message through the server's
//! handler on that course's shapes (120-client roster, 40 busy,
//! after-receiving broadcast, goal 16): bookkeeping, scheduler, the idle scan
//! and sampler draw that hand the model to one idle client, and every 16th
//! call an aggregation. The context is reset between calls, as the runner
//! resets the one it reuses.
//!
//! `sample_idle_120` prices the idle scan and the draw on their own, on the
//! same shapes (roster in join order, 40 busy, one pick), in two arms:
//! `before` is the copying path (filter into a fresh `Vec`, copy it into the
//! sampler's pool, shuffle), `after` the server's (`IdSet::absent_into` its
//! one candidate buffer, draw in it). The setup asserts both arms make the same picks. The
//! course's `sampler.sample_ns` probe times the draw alone, on a copy.
//!
//! `local_train_lr122` is `LocalTrainer::local_train` on the 122-parameter
//! logistic regression, Q = 4, batch 2: incorporate, four sampled batches,
//! four `train_step`s, and the update map.
//!
//! `param_map_clone_drop` clones a model's `ParamMap` and drops the clone —
//! what every update and broadcast copy costs the framework besides the
//! tensors it shares — on the 122-parameter map (`lr122`, 2 entries) and on
//! `convnet2`'s at the `femnist` shapes (`convnet2`, 8 entries).

use criterion::{criterion_group, criterion_main, Criterion};
use fs_core::aggregator::FedAvg;
use fs_core::sampler::Sampler;
use fs_core::trainer::{share_all, LocalTrainer, TrainConfig, Trainer};
use fs_core::{AggregationRule, BroadcastManner, Ctx, FlConfig, IdSet, Server};
use fs_data::synth::{twitter_like, TwitterConfig};
use fs_net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use fs_sim::VirtualTime;
use fs_tensor::model::{convnet2, logistic_regression, Model};
use fs_tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

const USERS: usize = 120;
const VOCAB: usize = 60;
const CONCURRENCY: usize = 40;

fn bench_server_dispatch(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let global = logistic_regression(VOCAB, 2, &mut rng).get_params();
    let cfg = FlConfig {
        concurrency: CONCURRENCY,
        total_rounds: u64::MAX,
        rule: AggregationRule::GoalAchieved { goal: 16 },
        broadcast: BroadcastManner::AfterReceiving,
        staleness_tolerance: u64::MAX,
        ..Default::default()
    };
    let mut server = Server::new(
        cfg,
        global.clone(),
        USERS,
        Box::new(FedAvg::new(0.0)),
        Sampler::Uniform,
        None,
    );
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    let message =
        |sender: ParticipantId, kind, payload| Message::new(sender, SERVER_ID, kind, 0, payload);
    for id in 1..=USERS as ParticipantId {
        server.handle(&message(id, MessageKind::JoinIn, Payload::Empty), &mut ctx);
    }
    assert_eq!(server.state.busy.len(), CONCURRENCY);
    // one reply per client, built once: the handler borrows it
    let replies: Vec<Message> = (1..=USERS as ParticipantId)
        .map(|id| {
            let update = Payload::Update {
                params: global.clone(),
                start_version: 0,
                n_samples: 10,
                n_steps: 4,
            };
            message(id, MessageKind::Updates, update)
        })
        .collect();
    c.bench_function("framework/server_updates_dispatch", |b| {
        b.iter(|| {
            ctx.reset(VirtualTime::ZERO);
            let replying = server.state.busy.iter().next().expect("40 clients busy");
            server.handle(black_box(&replies[replying as usize - 1]), &mut ctx);
            assert_eq!(server.state.busy.len(), CONCURRENCY);
        })
    });
}

/// The idle clients of `roster`, as the server found them before it kept a
/// candidate buffer: filtered into a fresh `Vec`.
fn idle_copy(roster: &[ParticipantId], busy: &IdSet) -> Vec<ParticipantId> {
    roster
        .iter()
        .copied()
        .filter(|c| !busy.contains(c))
        .collect()
}

fn bench_sample_idle(c: &mut Criterion) {
    // join order is not id order: every 7th id, wrapping
    let roster: Vec<ParticipantId> = (0..USERS as ParticipantId)
        .map(|i| i * 7 % USERS as ParticipantId + 1)
        .collect();
    // busy as a course leaves it: 40 clients drawn at random, not a pattern
    // a branch predictor could learn
    let mut drawn = roster.clone();
    drawn.shuffle(&mut StdRng::seed_from_u64(11));
    let mut busy = IdSet::new();
    for &id in &drawn[..CONCURRENCY] {
        busy.insert(id);
    }
    assert_eq!(busy.len(), CONCURRENCY);
    let mut sampler = Sampler::Uniform;
    let mut pool = Vec::new();
    let (mut before_rng, mut after_rng) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
    for _ in 0..64 {
        let before = sampler.sample(&idle_copy(&roster, &busy), 1, &mut before_rng);
        busy.absent_into(&roster, &mut pool);
        sampler.sample_in_place(&mut pool, 1, &mut after_rng);
        assert_eq!(before, pool, "the arms drew different picks");
    }
    let mut group = c.benchmark_group("framework/sample_idle_120");
    group.bench_function("before", |b| {
        b.iter(|| {
            let idle = idle_copy(black_box(&roster), &busy);
            black_box(sampler.sample(&idle, 1, &mut before_rng))
        })
    });
    group.bench_function("after", |b| {
        b.iter(|| {
            busy.absent_into(black_box(&roster), &mut pool);
            sampler.sample_in_place(&mut pool, 1, &mut after_rng);
            black_box(&pool);
        })
    });
    group.finish();
}

fn bench_local_train(c: &mut Criterion) {
    let data = twitter_like(&TwitterConfig {
        num_clients: USERS,
        vocab: VOCAB,
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
    c.bench_function("framework/local_train_lr122", |b| {
        b.iter(|| trainer.local_train(black_box(&global), 0))
    });
}

fn bench_param_map_clone_drop(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let maps = [
        (
            "lr122",
            logistic_regression(VOCAB, 2, &mut rng).get_params(),
        ),
        (
            "convnet2",
            convnet2(1, 8, 32, 10, 0.0, &mut rng).get_params(),
        ),
    ];
    let mut group = c.benchmark_group("framework/param_map_clone_drop");
    for (name, params) in &maps {
        group.bench_function(*name, |b| b.iter(|| drop(black_box(params.clone()))));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_server_dispatch,
    bench_sample_idle,
    bench_local_train,
    bench_param_map_clone_drop
);
criterion_main!(benches);
