//! Forces the one way a speculation is undone, and shows the other way is
//! gone, instead of hoping a grid happens to reach them.
//!
//! At `parallelism > 1` the runner starts a client's handler when the server
//! *emits* a message, predicting that nothing else reaches the client before
//! that delivery pops.
//!
//! * **recall** — an earlier delivery reaches the client first and falsifies
//!   the prediction. A server handler here sends a `ModelParams` and then an
//!   empty `EvalRequest` to the same client in one dispatch; the one-byte
//!   request overtakes the model on every link, so every such speculation
//!   has to be undone, leaving the course bit-identical to the serial run;
//! * **crash** — a broadcast a device crash eats. Whether it is lost is a
//!   function of (seed, receiver, delivery time), known when the delivery is
//!   scheduled, so the runner never starts training on it: a trainer double
//!   counts exactly as many `local_train` calls at `parallelism` 2 as at 1.
//!   (While the crash was drawn at the pop, doomed deliveries were trained
//!   and then rolled back, and the parallel count was higher.)
//!
//! Both run over the eager and the lazy client store and compare the report
//! and the whole monitor stream at `parallelism` 1 vs 2.

mod common;

use fedscope::core::config::{BroadcastManner, FlConfig, SamplerKind};
use fedscope::core::course::{CourseBuilder, ModelFactory};
use fedscope::core::ctx::{Ctx, Intent};
use fedscope::core::event::{Condition, Event};
use fedscope::core::runner::CourseReport;
use fedscope::core::server::{Server, ServerState};
use fedscope::core::trainer::{share_all, LocalTrainer, LocalUpdate, TrainConfig, Trainer};
use fedscope::core::Runner;
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::data::FedDataset;
use fedscope::monitor::{MonitorHandle, RecordingMonitor};
use fedscope::net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use fedscope::scale::ScaleCourseBuilder;
use fedscope::sim::FleetConfig;
use fedscope::tensor::model::{logistic_regression, Metrics};
use fedscope::tensor::optim::SgdConfig;
use fedscope::tensor::ParamMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const CLIENTS: usize = 30;

/// The operator hook's condition: "chase what was just sent".
const CHASE: Condition = Condition::Custom(1);
/// Virtual seconds between two chases.
const CHASE_EVERY_SECS: f64 = 0.05;
/// Timer-driven chases per course.
const CHASES: u32 = 40;

fn dataset() -> FedDataset {
    twitter_like(&TwitterConfig {
        num_clients: CLIENTS,
        per_client: 6,
        vocab: 60,
        seed: 21,
        ..Default::default()
    })
}

fn factory(dim: usize) -> ModelFactory {
    Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)))
}

fn base_cfg(parallelism: usize) -> FlConfig {
    FlConfig {
        total_rounds: 5,
        concurrency: 8,
        local_steps: 4,
        batch_size: 4,
        sgd: SgdConfig::with_lr(0.3),
        seed: 11,
        parallelism,
        ..Default::default()
    }
}

fn fleet(cfg: &FlConfig, crash_prob: f64) -> FleetConfig {
    FleetConfig {
        num_clients: CLIENTS,
        speed_sigma: 1.0,
        crash_prob,
        seed: cfg.seed ^ 0xf1ee,
        ..Default::default()
    }
}

/// What a course lets an observer see: its report, its monitor stream, and
/// how many rounds each client ended up having trained (a crashed client is
/// never sampled again, so training it shows nowhere else).
type Observed = (CourseReport, RecordingMonitor, Vec<u64>);

/// Runs `runner` (after `prepare` customized it) under a recording monitor.
fn observe(mut runner: Runner, prepare: fn(&mut Server)) -> Observed {
    prepare(&mut runner.server);
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let mut runner = runner.with_monitor(MonitorHandle::from_shared(monitor.clone()));
    let report = runner.run();
    let ids = runner.clients.ids();
    let trained = ids
        .into_iter()
        .map(|id| {
            let client = runner.clients.take(id);
            client
                .expect("every client is back in its store")
                .state
                .rounds_trained
        })
        .collect();
    drop(runner);
    (report, common::extract(monitor), trained)
}

fn eager(cfg: FlConfig, crash_prob: f64, prepare: fn(&mut Server)) -> Observed {
    let data = dataset();
    let dim = data.input_dim();
    let fleet = fleet(&cfg, crash_prob);
    observe(
        CourseBuilder::new(data, factory(dim), cfg)
            .fleet_config(fleet)
            .build(),
        prepare,
    )
}

fn lazy(cfg: FlConfig, crash_prob: f64, prepare: fn(&mut Server)) -> Observed {
    let data = Arc::new(dataset());
    let dim = data.input_dim();
    let fleet = fleet(&cfg, crash_prob);
    observe(
        ScaleCourseBuilder::from_dataset(data, factory(dim), cfg)
            .fleet_config(fleet)
            .build(),
        prepare,
    )
}

/// The same report, counters, round records and span sequence, and the
/// same rounds trained per client left behind, on either store: a finished
/// on-demand client keeps its count.
fn assert_same_course(label: &str, serial: &Observed, parallel: &Observed) {
    assert_eq!(serial.0, parallel.0, "{label}: CourseReport diverged");
    assert_eq!(
        serial.1.counters(),
        parallel.1.counters(),
        "{label}: monitor counters diverged"
    );
    assert_eq!(
        serial.1.rounds(),
        parallel.1.rounds(),
        "{label}: round records diverged"
    );
    assert_eq!(
        serial.1.spans(),
        parallel.1.spans(),
        "{label}: span sequences diverged"
    );
    assert_eq!(
        serial.2, parallel.2,
        "{label}: per-client rounds_trained diverged"
    );
}

fn eval_request(to: ParticipantId, round: u64) -> Message {
    Message::new(
        SERVER_ID,
        to,
        MessageKind::EvalRequest,
        round,
        Payload::Empty,
    )
}

/// Installs the chasing operator hook on `server`.
///
/// * `register_client` is the default join handler, which additionally
///   raises [`CHASE`] right behind `all_joined_in` — so the chase runs in the
///   same dispatch as the first round's broadcast, after it.
/// * `chase` sends an empty `EvalRequest` after every `ModelParams` the
///   dispatch has broadcast so far (the batched-broadcast path), and, when
///   fired by its own timer, over-selects one idle client the way
///   `broadcast_to` would and chases that individual send too.
fn install_chase(server: &mut Server) {
    server.registry_mut().register(
        Event::Message(MessageKind::JoinIn),
        "register_client_then_chase",
        vec![
            Event::Message(MessageKind::IdAssignment),
            Event::Condition(Condition::AllJoinedIn),
            Event::Condition(CHASE),
        ],
        Box::new(|state: &mut ServerState, msg: &Message, ctx: &mut Ctx| {
            if state.roster_index.insert(msg.sender) {
                state.roster.push(msg.sender);
            }
            ctx.send(Message::new(
                SERVER_ID,
                msg.sender,
                MessageKind::IdAssignment,
                0,
                Payload::Empty,
            ));
            if state.roster.len() >= state.expected_clients && state.ledger.models_sent == 0 {
                ctx.raise(Condition::AllJoinedIn);
                ctx.raise(CHASE);
            }
        }),
    );
    let mut chases_left = CHASES;
    server.registry_mut().register(
        Event::Condition(CHASE),
        "chase",
        vec![
            Event::Message(MessageKind::ModelParams),
            Event::Message(MessageKind::EvalRequest),
            Event::Condition(CHASE),
        ],
        Box::new(
            move |state: &mut ServerState, _msg: &Message, ctx: &mut Ctx| {
                if state.done || chases_left == 0 {
                    return;
                }
                chases_left -= 1;
                let broadcast_to: Vec<ParticipantId> = ctx
                    .outbox
                    .iter()
                    .filter_map(|intent| match intent {
                        Intent::Broadcast(b) if b.kind == MessageKind::ModelParams => Some(b),
                        _ => None,
                    })
                    .flat_map(|b| b.targets.iter().copied())
                    .collect();
                if broadcast_to.is_empty() {
                    let idle = state
                        .roster
                        .iter()
                        .copied()
                        .find(|c| !state.busy.contains(c));
                    if let Some(c) = idle {
                        state.busy.insert(c);
                        state.outstanding.insert(c);
                        state.ledger.models_sent += 1;
                        let payload = Payload::Model {
                            params: state.global.clone(),
                            version: state.version,
                        };
                        ctx.send(Message::new(
                            SERVER_ID,
                            c,
                            MessageKind::ModelParams,
                            state.round,
                            payload,
                        ));
                        ctx.send(eval_request(c, state.round));
                    }
                }
                for c in broadcast_to {
                    ctx.send(eval_request(c, state.round));
                }
                ctx.arm_timer(CHASE_EVERY_SECS, CHASE, state.round);
            },
        ),
    );
}

/// How many `eval_request` dispatches overtook a `model_para` dispatch that
/// was sent before them: per client track, an `eval_request` span directly
/// followed by a `model_para` span. (The request is always sent second.)
fn overtakes(mon: &RecordingMonitor) -> usize {
    let mut last: std::collections::BTreeMap<u32, &str> = std::collections::BTreeMap::new();
    let mut n = 0;
    for s in mon.spans().iter().filter(|s| s.cat == "dispatch") {
        if s.name == "model_para" && last.get(&s.track).copied() == Some("eval_request") {
            n += 1;
        }
        last.insert(s.track, s.name.as_str());
    }
    n
}

#[test]
fn an_overtaking_message_recalls_the_speculation_on_both_stores() {
    let cfg = |parallelism| {
        base_cfg(parallelism).async_goal(5, BroadcastManner::AfterAggregating, SamplerKind::Uniform)
    };
    let serial = eager(cfg(1), 0.0, install_chase);
    assert_eq!(serial.0.rounds, 5, "the chased course completes");
    assert!(
        overtakes(&serial.1) >= 12,
        "only {} requests overtook their model: the test is vacuous",
        overtakes(&serial.1)
    );
    assert_same_course("eager/2", &serial, &eager(cfg(2), 0.0, install_chase));
    let lazy_serial = lazy(cfg(1), 0.0, install_chase);
    assert_same_course("lazy/1", &serial, &lazy_serial);
    assert_same_course("lazy/2", &lazy_serial, &lazy(cfg(2), 0.0, install_chase));
}

/// A [`LocalTrainer`] that counts its `local_train` calls in a cell every
/// clone of it shares — outside the snapshot, so training that is later
/// rolled back still counts.
struct CountingTrainer {
    inner: LocalTrainer,
    calls: Arc<AtomicUsize>,
}

impl Trainer for CountingTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        self.inner.incorporate(global);
    }
    fn local_train(&mut self, global: &ParamMap, round: u64) -> LocalUpdate {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.local_train(global, round)
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
    fn try_clone(&self) -> Option<Box<dyn Trainer>> {
        Some(Box::new(CountingTrainer {
            inner: self.inner.clone(),
            calls: self.calls.clone(),
        }))
    }
}

/// `local_train` calls made by the whole eager course, undone ones included.
fn local_train_calls(cfg: FlConfig, crash_prob: f64) -> (CourseReport, usize) {
    let data = dataset();
    let dim = data.input_dim();
    let fleet = fleet(&cfg, crash_prob);
    let calls = Arc::new(AtomicUsize::new(0));
    let counted = calls.clone();
    let mut runner = CourseBuilder::new(data, factory(dim), cfg)
        .fleet_config(fleet)
        .trainer_factory(Box::new(move |i, model, split, cfg| {
            let train = TrainConfig {
                local_steps: cfg.local_steps,
                batch_size: cfg.batch_size,
                sgd: cfg.sgd,
            };
            Box::new(CountingTrainer {
                inner: LocalTrainer::new(model, split, train, share_all(), cfg.seed ^ i as u64),
                calls: counted.clone(),
            })
        }))
        .build();
    let report = runner.run();
    (report, calls.load(Ordering::Relaxed))
}

#[test]
fn a_delivery_lost_to_a_crash_is_never_trained_on_either_store() {
    let cfg = |parallelism| {
        base_cfg(parallelism).async_time(
            60.0,
            2,
            BroadcastManner::AfterReceiving,
            SamplerKind::Uniform,
        )
    };
    let untouched: fn(&mut Server) = |_| {};
    let serial = eager(cfg(1), 0.2, untouched);
    assert!(
        serial.0.crashed_deliveries >= 5,
        "only {} deliveries crashed: the test is vacuous",
        serial.0.crashed_deliveries
    );
    assert_same_course("eager/2", &serial, &eager(cfg(2), 0.2, untouched));
    let lazy_serial = lazy(cfg(1), 0.2, untouched);
    assert_same_course("lazy/1", &serial, &lazy_serial);
    assert_same_course("lazy/2", &lazy_serial, &lazy(cfg(2), 0.2, untouched));

    // nothing overtakes on this course, so a crash was the only thing that
    // could have undone a speculation: the parallel run trains exactly the
    // deliveries the serial run trains, and no doomed one
    let (report, calls) = local_train_calls(cfg(1), 0.2);
    assert!(report.crashed_deliveries >= 5 && calls > 0);
    let (parallel_report, parallel_calls) = local_train_calls(cfg(2), 0.2);
    assert_eq!(report, parallel_report);
    assert_eq!(
        calls, parallel_calls,
        "parallelism 2 started training it then had to undo"
    );
}
