//! Absolute pins for the personalization plug-ins running as whole courses.
//!
//! Ditto, pFedMe, FedEM and FedBN have only ever run inside their own unit
//! tests and the `exp_*` binaries; nothing pinned what they compute. Each
//! cell below is a short course whose full observable surface — the
//! `CourseReport`, the monitor stream (so the virtual compute charged for
//! every `examples_processed`) and every client's final `evaluate_test` —
//! is folded into one FNV-1a fingerprint, committed on the code that still
//! spelled each trainer's SGD loop by hand. A refactor of those loops must
//! reproduce every bit, at `parallelism` 1 and 2 alike.
//!
//! Every client owns at least `batch_size` training examples, so a pass
//! draws exactly `steps × batch_size` examples whatever the trainer reports
//! for a short split.
//!
//! To re-capture (only legitimate when intentionally changing what a trainer
//! computes): `SCHED_EQ_CAPTURE=1 cargo test --test personalize_pins -- --nocapture`.

mod common;

use common::{check, extract, fold_course, Fnv};
use fedscope::core::config::{BroadcastManner, FlConfig, SamplerKind};
use fedscope::core::course::{CourseBuilder, ModelFactory, TrainerFactory};
use fedscope::core::trainer::{share_all, TrainConfig};
use fedscope::data::synth::{femnist_like, twitter_like, ImageConfig, TwitterConfig};
use fedscope::data::FedDataset;
use fedscope::monitor::{MonitorHandle, RecordingMonitor};
use fedscope::personalize::fedbn::fedbn_share_filter;
use fedscope::personalize::{DittoTrainer, FedEmTrainer, MixtureModel, PFedMeTrainer};
use fedscope::tensor::model::{logistic_regression, mlp_bn, Model};
use fedscope::tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};

const GOLDEN_PERSONALIZE: &[(&str, u64)] = &[
    ("ditto/twitter/sync", 0x21f8be63b9c37f77),
    ("fedbn/femnist/sync", 0xbdcc426cddf33e18),
    ("fedem/twitter/sync", 0x81a2337d1d638d8d),
    ("pfedme/twitter/async_goal", 0xd3a411dbb9edde7b),
];

const BATCH: usize = 8;

fn twitter() -> FedDataset {
    twitter_like(&TwitterConfig {
        num_clients: 10,
        per_client: 24,
        vocab: 40,
        words_per_text: 10,
        seed: 41,
    })
}

fn femnist() -> FedDataset {
    femnist_like(&ImageConfig {
        num_clients: 8,
        num_classes: 4,
        img: 6,
        per_client: 24,
        noise: 0.3,
        size_skew: 0.0,
        seed: 41,
    })
    .flattened()
}

fn base_cfg(parallelism: usize) -> FlConfig {
    FlConfig {
        total_rounds: 4,
        concurrency: 5,
        local_steps: 3,
        batch_size: BATCH,
        sgd: SgdConfig {
            momentum: 0.5,
            ..SgdConfig::with_lr(0.2)
        },
        seed: 23,
        parallelism,
        ..Default::default()
    }
}

fn train_cfg(cfg: &FlConfig) -> TrainConfig {
    TrainConfig {
        local_steps: cfg.local_steps,
        batch_size: cfg.batch_size,
        sgd: cfg.sgd,
    }
}

fn lr_factory(dim: usize) -> ModelFactory {
    Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)))
}

fn mixture_of(k: usize, dim: usize, rng: &mut StdRng) -> MixtureModel {
    MixtureModel::new(
        (0..k)
            .map(|_| Box::new(logistic_regression(dim, 2, rng)) as Box<dyn Model>)
            .collect(),
    )
}

/// Runs the course and folds report, monitor stream and every client's final
/// test metrics into one fingerprint.
fn run_cell(
    data: FedDataset,
    factory: ModelFactory,
    cfg: FlConfig,
    customize: impl FnOnce(CourseBuilder) -> CourseBuilder,
) -> u64 {
    for c in &data.clients {
        assert!(
            c.train.len() >= cfg.batch_size,
            "a client owns {} < batch_size training examples",
            c.train.len()
        );
    }
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let mut runner = customize(CourseBuilder::new(data, factory, cfg))
        .build()
        .with_monitor(MonitorHandle::from_shared(monitor.clone()));
    let report = runner.run();
    assert_eq!(report.rounds, 4, "the course completes");
    let finals: Vec<_> = runner
        .clients
        .values_mut()
        .map(|c| (c.state.id, c.state.trainer.evaluate_test()))
        .collect();
    drop(runner);
    let mut h = Fnv::new();
    fold_course(&mut h, &report, &extract(monitor));
    for (id, m) in finals {
        h.field(
            "final_test",
            &format!("{id}:{}:{}:{}", m.loss.to_bits(), m.accuracy.to_bits(), m.n),
        );
    }
    h.finish()
}

/// One cell at `parallelism` 1 and 2: equal to each other and to the pin.
fn pin(label: &str, cell: impl Fn(usize) -> u64) {
    let serial = cell(1);
    assert_eq!(
        serial,
        cell(2),
        "{label}: parallelism 2 diverged from serial"
    );
    check(label, serial, GOLDEN_PERSONALIZE);
}

fn ditto_factory() -> TrainerFactory {
    Box::new(|i, model, split, cfg| {
        Box::new(DittoTrainer::new(
            model,
            split,
            train_cfg(cfg),
            0.5,
            share_all(),
            cfg.seed ^ (i as u64 + 1),
        ))
    })
}

#[test]
fn ditto_course_matches_pin() {
    pin("ditto/twitter/sync", |p| {
        let data = twitter();
        let dim = data.input_dim();
        run_cell(data, lr_factory(dim), base_cfg(p), |b| {
            b.trainer_factory(ditto_factory())
        })
    });
}

#[test]
fn pfedme_course_matches_pin() {
    pin("pfedme/twitter/async_goal", |p| {
        let data = twitter();
        let dim = data.input_dim();
        let cfg = base_cfg(p).async_goal(3, BroadcastManner::AfterReceiving, SamplerKind::Uniform);
        run_cell(data, lr_factory(dim), cfg, |b| {
            b.trainer_factory(Box::new(|i, model, split, cfg| {
                Box::new(PFedMeTrainer::new(
                    model,
                    split,
                    train_cfg(cfg),
                    2.0,
                    0.5,
                    3,
                    share_all(),
                    cfg.seed ^ (i as u64 + 1),
                ))
            }))
        })
    });
}

#[test]
fn fedem_course_matches_pin() {
    pin("fedem/twitter/sync", |p| {
        let data = twitter();
        let dim = data.input_dim();
        let factory: ModelFactory = Box::new(move |rng| Box::new(mixture_of(2, dim, rng)));
        run_cell(data, factory, base_cfg(p), |b| {
            b.trainer_factory(Box::new(move |i, model, split, cfg| {
                let mut mixture = mixture_of(2, dim, &mut StdRng::seed_from_u64(cfg.seed ^ 999));
                mixture.set_params(&model.get_params());
                Box::new(FedEmTrainer::new(
                    mixture,
                    split,
                    train_cfg(cfg),
                    share_all(),
                    cfg.seed ^ (i as u64 + 1),
                ))
            }))
        })
    });
}

#[test]
fn fedbn_course_matches_pin() {
    pin("fedbn/femnist/sync", |p| {
        let data = femnist();
        let dim = data.input_dim();
        let factory: ModelFactory = Box::new(move |rng| Box::new(mlp_bn(&[dim, 12, 4], rng)));
        run_cell(data, factory, base_cfg(p), |b| {
            b.share_filter(fedbn_share_filter())
        })
    });
}
