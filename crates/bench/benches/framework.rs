//! Criterion: what the framework spends per update where the model is tiny —
//! the two per-update paths of the `twitter_async` course, outside a course.
//!
//! `server_updates_dispatch` is one `Updates` message through the server's
//! handler on that course's shapes (120-client roster, 40 busy,
//! after-receiving broadcast, goal 16): bookkeeping, scheduler, the idle scan
//! and sampler draw that hand the model to one idle client, and every 16th
//! call an aggregation. The course's `sampler.sample_ns` probe times the
//! draw alone; the idle scan is priced here.
//!
//! `local_train_lr122` is `LocalTrainer::local_train` on the 122-parameter
//! logistic regression, Q = 4, batch 2: incorporate, four sampled batches,
//! four `train_step`s, and the update map.

use criterion::{criterion_group, criterion_main, Criterion};
use fs_core::aggregator::FedAvg;
use fs_core::sampler::Sampler;
use fs_core::trainer::{share_all, LocalTrainer, TrainConfig, Trainer};
use fs_core::{AggregationRule, BroadcastManner, Ctx, FlConfig, Server};
use fs_data::synth::{twitter_like, TwitterConfig};
use fs_net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use fs_sim::VirtualTime;
use fs_tensor::model::{logistic_regression, Model};
use fs_tensor::optim::SgdConfig;
use rand::rngs::StdRng;
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
            ctx.outbox.clear();
            let replying = server.state.busy.iter().next().expect("40 clients busy");
            server.handle(black_box(&replies[replying as usize - 1]), &mut ctx);
            assert_eq!(server.state.busy.len(), CONCURRENCY);
        })
    });
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

criterion_group!(benches, bench_server_dispatch, bench_local_train);
criterion_main!(benches);
