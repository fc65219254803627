//! The one file that names `fs_*` types.
//!
//! Everything the benchmark knows about the program is here, and it is only
//! public API: the course entry points (`CourseBuilder::new(..).build()
//! .run()`, `ScaleCourseBuilder::synthetic(..).build().run()`,
//! `run_distributed_with`, `run_distributed_tcp_with`, `distributed_report`),
//! the `fs_monitor::Monitor` trait (implemented by [`WallMonitor`]), and the
//! per-layer functions the probes time in isolation. A refactor of the
//! program that keeps those alive keeps the benchmark compiling.

use crate::trace::{WallTrace, BENCH_TRACK};
use crate::workloads::{Codec, Dataset, ModelKind, Runner, Strategy, Workload};
use fs_compress::{decompress, Compressor, Identity};
use fs_core::aggregator::{Aggregator, FedAvg};
use fs_core::config::{
    AggregationRule, BroadcastManner, CodecSpec, CompressionConfig, FlConfig, SamplerKind,
};
use fs_core::course::{CourseBuilder, ModelFactory};
use fs_core::distributed::{
    distributed_report, run_distributed_tcp_with, run_distributed_with, BusRunOptions,
    TcpRunOptions,
};
use fs_core::eval::GlobalEvaluator;
use fs_core::sampler::Sampler;
use fs_core::trainer::{pooled_test_set, share_all, LocalTrainer, TrainConfig, Trainer};
use fs_core::{Client, CourseReport, ReceivedUpdate, Server, StandaloneRunner};
use fs_data::synth::{femnist_like, twitter_like, ImageConfig, TwitterConfig};
use fs_data::{ClientData, ClientSplit, FedDataset};
use fs_exec::WorkerPool;
use fs_monitor::{Monitor, MonitorHandle, RecordingMonitor, TrackId};
use fs_net::bus::Bus;
use fs_net::tcp::{TcpHub, TcpPeer};
use fs_net::wire::{decode_message_view, encode_message, params_wire_len};
use fs_net::{Message, MessageKind, Payload, SERVER_ID};
use fs_scale::{ScaleCourseBuilder, ScaleRunner};
use fs_sim::{FleetConfig, IndexedEventQueue, VirtualTime};
use fs_tensor::loss::Target;
use fs_tensor::model::{convnet2, logistic_regression, Metrics};
use fs_tensor::optim::{Sgd, SgdConfig};
use fs_tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The twitter corpus stays pinned at the seed whose topic pair is separable
/// (as in `fs-bench`); `--seed` still drives its fleet and course.
const TWITTER_CORPUS_SEED: u64 = 21;
/// Wall budget handed to the distributed runners; a course takes < 2 s.
const DISTRIBUTED_BUDGET: Duration = Duration::from_secs(60);

// ---------------------------------------------------------------------------
// data, model, configuration

/// A workload's generated input.
pub enum Data {
    Fed(FedDataset),
    /// Per-client splits generated on demand from `(seed, index)`.
    Lazy {
        seed: u64,
        clients: usize,
        dim: usize,
        classes: usize,
        per_client: usize,
    },
}

/// Deterministic split of lazy client `idx`: Gaussian-ish clusters around
/// per-class feature bumps (the `exp_scale` generator).
fn lazy_split(seed: u64, idx: usize, dim: usize, classes: usize, per_client: usize) -> ClientSplit {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0xda7a ^ (idx as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
    let mut xs = Vec::with_capacity(per_client * dim);
    let mut ys = Vec::with_capacity(per_client);
    for _ in 0..per_client {
        let c = rng.gen_range(0..classes);
        for d in 0..dim {
            let center: f32 = if d % classes == c { 2.0 } else { 0.0 };
            xs.push(center + rng.gen_range(-0.5f32..0.5));
        }
        ys.push(c);
    }
    let all = ClientData {
        x: Tensor::from_vec(vec![per_client, dim], xs),
        y: Target::Classes(ys),
    };
    ClientSplit::from_fractions(&all, 8.0 / 12.0, 2.0 / 12.0)
}

/// Generates the workload's dataset from `seed`.
pub fn gen_data(w: &Workload, seed: u64) -> Data {
    match w.dataset {
        Dataset::Femnist {
            clients,
            per_client,
            img,
        } => Data::Fed(femnist_like(&ImageConfig {
            num_clients: clients,
            num_classes: 10,
            img,
            per_client,
            noise: 0.35,
            size_skew: 0.0,
            seed,
        })),
        Dataset::Twitter {
            users,
            vocab,
            per_user,
        } => Data::Fed(twitter_like(&TwitterConfig {
            num_clients: users,
            vocab,
            words_per_text: 12,
            per_client: per_user,
            seed: TWITTER_CORPUS_SEED,
        })),
        Dataset::Lazy {
            clients,
            dim,
            classes,
            per_client,
        } => Data::Lazy {
            seed,
            clients,
            dim,
            classes,
            per_client,
        },
    }
}

impl Data {
    /// `(per-example feature shape, classes)`.
    fn shape(&self) -> (Vec<usize>, usize) {
        match self {
            Data::Fed(d) => (d.feature_shape.clone(), d.num_classes),
            Data::Lazy { dim, classes, .. } => (vec![*dim], *classes),
        }
    }

    /// The first `n` clients as a materialized dataset (all of a `Fed`).
    fn materialized(&self, n: usize) -> FedDataset {
        match self {
            Data::Fed(d) => d.clone(),
            Data::Lazy {
                seed,
                clients,
                dim,
                classes,
                per_client,
            } => FedDataset {
                clients: (0..n.min(*clients))
                    .map(|i| lazy_split(*seed, i, *dim, *classes, *per_client))
                    .collect(),
                feature_shape: vec![*dim],
                num_classes: *classes,
                name: "lazy".to_string(),
            },
        }
    }
}

fn model_factory(kind: ModelKind, feature_shape: &[usize], classes: usize) -> ModelFactory {
    match kind {
        ModelKind::ConvNet2 { hidden } => {
            let (ch, img) = (feature_shape[0], feature_shape[2]);
            Box::new(move |rng| Box::new(convnet2(ch, img, hidden, classes, 0.0, rng)))
        }
        ModelKind::LogReg => {
            let dim: usize = feature_shape.iter().product();
            Box::new(move |rng| Box::new(logistic_regression(dim, classes, rng)))
        }
    }
}

fn compression(codec: Codec) -> CompressionConfig {
    match codec {
        Codec::Dense => CompressionConfig::default(),
        Codec::TopKDelta { ratio } => CompressionConfig {
            upload: Some(CodecSpec::TopK { ratio }),
            upload_delta: true,
            download: Some(CodecSpec::UniformQuant { bits: 8 }),
        },
    }
}

fn fl_config(w: &Workload, seed: u64, rounds: u64, parallelism: usize) -> FlConfig {
    let base = FlConfig {
        total_rounds: rounds,
        concurrency: w.concurrency,
        local_steps: w.local_steps,
        batch_size: w.batch_size,
        sgd: SgdConfig::with_lr(w.lr),
        eval_every: 1,
        compression: compression(w.codec),
        seed,
        parallelism,
        // an update dropped as stale would be a failed operation; the async
        // course keeps every update (staleness still discounts its weight)
        staleness_tolerance: u64::MAX,
        ..Default::default()
    };
    match w.strategy {
        Strategy::Sync => FlConfig {
            rule: AggregationRule::AllReceived,
            ..base
        },
        Strategy::AsyncGoal { goal } => {
            base.async_goal(goal, BroadcastManner::AfterReceiving, SamplerKind::Uniform)
        }
    }
}

fn fleet_config(clients: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        num_clients: clients,
        speed_sigma: 1.5,
        seed: seed ^ 0xf1ee,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// courses

/// A built course, ready to run once.
pub struct Course {
    inner: Inner,
    /// Encoded size of one broadcast plus one update message, for the
    /// distributed runners whose report carries no byte totals.
    msg_bytes_per_update: u64,
}

enum Inner {
    Legacy(Box<StandaloneRunner>),
    Scale(Box<ScaleRunner>),
    Distributed {
        server: Box<Server>,
        clients: Vec<Client>,
        tcp: bool,
    },
}

fn legacy_runner(
    w: &Workload,
    data: FedDataset,
    seed: u64,
    rounds: u64,
    parallelism: usize,
) -> StandaloneRunner {
    let factory = model_factory(w.model, &data.feature_shape, data.num_classes);
    let fleet = fleet_config(data.num_clients(), seed);
    let cfg = fl_config(w, seed, rounds, parallelism);
    let builder = CourseBuilder::new(data, factory, cfg).fleet_config(fleet);
    if w.central_eval {
        builder.build()
    } else {
        builder.no_central_eval().build()
    }
}

/// Builds the workload's course over `data` (the `build()` half of set-up).
pub fn build_course(w: &Workload, data: Data, seed: u64) -> Course {
    let rounds = w.rounds;
    let inner = match (w.runner, data) {
        (Runner::Legacy { parallelism }, Data::Fed(d)) => {
            Inner::Legacy(Box::new(legacy_runner(w, d, seed, rounds, parallelism)))
        }
        (Runner::Bus | Runner::Tcp, Data::Fed(d)) => {
            let runner = legacy_runner(w, d, seed, rounds, 1);
            Inner::Distributed {
                server: Box::new(runner.server),
                clients: runner.clients.into_values().collect(),
                tcp: w.runner == Runner::Tcp,
            }
        }
        (
            Runner::Scale,
            Data::Lazy {
                seed: data_seed,
                clients,
                dim,
                classes,
                per_client,
            },
        ) => Inner::Scale(Box::new(
            ScaleCourseBuilder::synthetic(
                clients,
                Arc::new(move |i| lazy_split(data_seed, i, dim, classes, per_client)),
                model_factory(w.model, &[dim], classes),
                fl_config(w, seed, rounds, 1),
            )
            .fleet_config(fleet_config(clients, seed))
            .build(),
        )),
        (runner, _) => panic!("workload {}: {runner:?} cannot take this dataset", w.name),
    };
    let msg_bytes_per_update = match &inner {
        Inner::Distributed { server, .. } => {
            let (down, up) = course_messages(w.codec, &server.state.global);
            (encode_message(&down).len() + encode_message(&up).len()) as u64
        }
        _ => 0,
    };
    Course {
        inner,
        msg_bytes_per_update,
    }
}

/// What a finished course reported, reduced to wall-free facts.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub rounds: u64,
    /// Updates the server received.
    pub total_updates: u64,
    pub dropped_updates: u64,
    pub crashed_deliveries: u64,
    /// Payload bytes both ways (the report's totals; for the distributed
    /// runners, encoded message sizes times the updates).
    pub wire_bytes: u64,
    /// Best global accuracy and last global loss, when the server evaluates.
    pub best_accuracy: Option<f32>,
    pub last_loss: Option<f32>,
    /// Clients whose final report reached the server (distributed only).
    pub client_reports: Option<usize>,
    /// Events the scale runner processed (it is the one runner that counts).
    pub events: Option<u64>,
    /// FNV-1a over every wall-free field of the report.
    pub fingerprint: u64,
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fingerprint(r: &CourseReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        r.rounds,
        r.total_updates,
        r.dropped_updates,
        r.stale_drops,
        r.crashed_deliveries,
        r.remedial_count,
        r.uploaded_bytes,
        r.downloaded_bytes,
        r.final_time_secs.to_bits(),
    ] {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    fnv1a(&mut h, r.finish_reason.as_bytes());
    for e in &r.history {
        fnv1a(&mut h, &e.round.to_le_bytes());
        fnv1a(&mut h, &e.time_secs.to_bits().to_le_bytes());
        fnv1a(&mut h, &e.metrics.loss.to_bits().to_le_bytes());
        fnv1a(&mut h, &e.metrics.accuracy.to_bits().to_le_bytes());
        fnv1a(&mut h, &(e.metrics.n as u64).to_le_bytes());
    }
    h
}

fn outcome(r: &CourseReport) -> Outcome {
    Outcome {
        rounds: r.rounds,
        total_updates: r.total_updates,
        dropped_updates: r.dropped_updates,
        crashed_deliveries: r.crashed_deliveries,
        wire_bytes: r.total_bytes(),
        best_accuracy: (!r.history.is_empty()).then(|| r.best_accuracy()),
        last_loss: r.history.last().map(|e| e.metrics.loss),
        client_reports: None,
        events: None,
        fingerprint: fingerprint(r),
    }
}

impl Course {
    fn run_with(self, monitor: MonitorHandle) -> Result<Outcome, String> {
        match self.inner {
            Inner::Legacy(runner) => {
                let mut runner = runner.with_monitor(monitor);
                Ok(outcome(&runner.run()))
            }
            Inner::Scale(runner) => {
                let mut runner = runner.with_monitor(monitor);
                let report = runner.run();
                Ok(Outcome {
                    events: Some(runner.events_processed()),
                    ..outcome(&report)
                })
            }
            Inner::Distributed {
                server,
                clients,
                tcp,
            } => {
                let server = if tcp {
                    let opts = TcpRunOptions {
                        monitor,
                        ..Default::default()
                    };
                    run_distributed_tcp_with(*server, clients, DISTRIBUTED_BUDGET, opts)
                } else {
                    let opts = BusRunOptions {
                        monitor,
                        ..Default::default()
                    };
                    run_distributed_with(*server, clients, DISTRIBUTED_BUDGET, opts)
                }
                .map_err(|e| e.to_string())?;
                let report = distributed_report(&server);
                Ok(Outcome {
                    wire_bytes: self.msg_bytes_per_update * report.total_updates,
                    client_reports: Some(server.state.client_reports.len()),
                    ..outcome(&report)
                })
            }
        }
    }

    /// Runs the course with observability off (the null handle).
    pub fn run(self) -> Result<Outcome, String> {
        self.run_with(MonitorHandle::null())
    }

    /// Runs the course with the program's own `RecordingMonitor` attached.
    pub fn run_recording(self) -> Result<Outcome, String> {
        self.run_with(MonitorHandle::new(RecordingMonitor::new()))
    }

    /// Runs the course under a [`WallMonitor`], enclosed in one `course`
    /// span on the benchmark's track, and returns the trace.
    pub fn run_traced(self) -> (Result<Outcome, String>, WallTrace) {
        let shared = Arc::new(Mutex::new(WallMonitor(WallTrace::new())));
        with_trace(&shared, |t| t.enter(BENCH_TRACK, "course", "benchmark"));
        let result = self.run_with(MonitorHandle::from_shared(shared.clone()));
        with_trace(&shared, |t| t.exit(BENCH_TRACK));
        let mut trace = WallTrace::new();
        with_trace(&shared, |t| std::mem::swap(t, &mut trace));
        (result, trace)
    }
}

fn with_trace(shared: &Arc<Mutex<WallMonitor>>, f: impl FnOnce(&mut WallTrace)) {
    f(&mut shared.lock().unwrap_or_else(PoisonError::into_inner).0);
}

/// Stamps the wall clock on everything a runner tells its monitor.
pub struct WallMonitor(pub WallTrace);

impl Monitor for WallMonitor {
    fn enter(&mut self, track: TrackId, name: &'static str, cat: &'static str, _: VirtualTime) {
        self.0.enter(track, name, cat);
    }
    fn exit(&mut self, track: TrackId, _: VirtualTime) {
        self.0.exit(track);
    }
    fn span(&mut self, _: TrackId, _: &'static str, _: &'static str, _: VirtualTime, _: f64) {
        // a charged virtual-time interval: it has no wall extent
    }
    fn add(&mut self, counter: &'static str, delta: u64) {
        self.0.add(counter, delta);
    }
    fn round(&mut self, _: u64, _: VirtualTime, _: &Metrics) {
        self.0.round();
    }
}

// ---------------------------------------------------------------------------
// per-layer probes

/// The broadcast and the update message of one client activation, encoded
/// the way the course's codec configuration sends them.
fn course_messages(codec: Codec, params: &ParamMap) -> (Message, Message) {
    let cfg = compression(codec);
    let down = match cfg.build_download() {
        Some(mut c) => Payload::CompressedModel {
            block: c.compress(params),
            version: 1,
        },
        None => Payload::Model {
            params: params.clone(),
            version: 1,
        },
    };
    let up = match cfg.build_upload() {
        Some(mut c) => {
            c.set_reference(params, 1);
            Payload::CompressedUpdate {
                block: c.compress(params),
                start_version: 1,
                n_samples: 20,
                n_steps: 4,
            }
        }
        None => Payload::Update {
            params: params.clone(),
            start_version: 1,
            n_samples: 20,
            n_steps: 4,
        },
    };
    (
        Message::new(SERVER_ID, 1, MessageKind::ModelParams, 1, down),
        Message::new(1, SERVER_ID, MessageKind::Updates, 1, up),
    )
}

/// Median nanoseconds of one call of `f`, and the calls timed.
///
/// Calls are timed in batches long enough (≥ 20 µs) that reading the clock
/// does not show: at least 25 batches and 200 calls after a warm-up (a smoke
/// probe only has to run: 3 batches, 10 calls).
fn time_ns(smoke: bool, mut f: impl FnMut()) -> (f64, usize) {
    let (min_calls, min_batches): (usize, usize) = if smoke { (10, 3) } else { (200, 25) };
    f();
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as f64;
    let batch = ((20_000.0 / once).ceil() as usize).clamp(1, 8192);
    for _ in 0..batch.min(32) {
        f();
    }
    let batches = min_batches.max(min_calls.div_ceil(batch));
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    (crate::stats::median(&per_call), batches * batch)
}

/// One per-layer measurement.
pub struct ProbeValue {
    pub name: &'static str,
    pub value: f64,
    /// Calls (or samples) behind the value; 1 for derived values.
    pub n: usize,
}

/// Times each layer's public functions in isolation on the workload's exact
/// shapes (same model, batch, updates per aggregation, codec).
pub fn run_probes(w: &Workload, seed: u64, smoke: bool) -> Vec<ProbeValue> {
    let mut out: Vec<ProbeValue> = Vec::new();
    let mut put = |name: &'static str, (value, n): (f64, usize)| {
        out.push(ProbeValue { name, value, n });
        value
    };
    let generated = gen_data(w, seed);
    let (shape, classes) = generated.shape();
    // the dataset, or the first `2 x concurrency` lazy clients of it
    let data = generated.materialized(2 * w.concurrency);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9706e);
    let mut model = model_factory(w.model, &shape, classes)(&mut rng);
    let split = data.clients[0].clone();
    let params = model.get_params();
    let batch = split.train.sample_batch(w.batch_size, &mut rng);
    let batch_len = batch.len() as f64;
    let sgd_cfg = SgdConfig::with_lr(w.lr);

    // fs-data
    let sample = put(
        "data.sample_batch_ns",
        time_ns(smoke, || {
            black_box(split.train.sample_batch(w.batch_size, &mut rng));
        }),
    );

    // fs-tensor, on one training batch
    let forward = put(
        "tensor.forward_ns",
        time_ns(smoke, || {
            black_box(model.predict(black_box(&batch.x)));
        }),
    );
    let loss_grad = put(
        "tensor.loss_grad_ns",
        time_ns(smoke, || {
            black_box(model.loss_grad(black_box(&batch.x), &batch.y));
        }),
    );
    put("tensor.backward_ns", ((loss_grad - forward).max(0.0), 1));
    let (_, grads) = model.loss_grad(&batch.x, &batch.y);
    let mut sgd = Sgd::new(sgd_cfg);
    let mut stepped = params.clone();
    let step = put(
        "tensor.sgd_step_ns",
        time_ns(smoke, || {
            sgd.step(&mut stepped, black_box(&grads), None);
        }),
    );
    let roundtrip = put(
        "tensor.params_roundtrip_ns",
        time_ns(smoke, || {
            let p = model.get_params();
            model.set_params(black_box(&p));
        }),
    );
    let step_total = sample + loss_grad + step + roundtrip;
    put(
        "tensor.train_samples_per_s",
        (batch_len / (step_total / 1e9), 1),
    );
    let mat = |r: usize, c: usize, rng: &mut StdRng| {
        Tensor::from_vec(
            vec![r, c],
            (0..r * c).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        )
    };
    let (a, b) = (mat(128, 256, &mut rng), mat(256, 128, &mut rng));
    put(
        "tensor.matmul_128x256x128_ns",
        time_ns(smoke, || {
            black_box(black_box(&a).matmul(black_box(&b)));
        }),
    );

    // fs-core trainer
    let mut trainer = LocalTrainer::new(
        model.clone_model(),
        split.clone(),
        TrainConfig {
            local_steps: w.local_steps,
            batch_size: w.batch_size,
            sgd: sgd_cfg,
        },
        share_all(),
        seed,
    );
    let local_train = put(
        "trainer.local_train_ns",
        time_ns(smoke, || {
            black_box(trainer.local_train(black_box(&params), 1));
        }),
    );
    put(
        "trainer.step_overhead_share",
        (1.0 - w.local_steps as f64 * step_total / local_train, 1),
    );

    // fs-core aggregator / evaluator / sampler
    let k = w.updates_per_round() as usize;
    let updates: Vec<ReceivedUpdate> = (0..k)
        .map(|i| {
            let mut p = params.clone();
            p.scale(1.0 + i as f32 * 1e-3);
            ReceivedUpdate {
                client: i as u32 + 1,
                params: p,
                staleness: (i % 3) as u64,
                n_samples: 20,
                n_steps: w.local_steps as u64,
            }
        })
        .collect();
    let mut fedavg = FedAvg::new(0.5);
    let aggregate = put(
        "agg.aggregate_ns",
        time_ns(smoke, || {
            black_box(fedavg.aggregate(black_box(&params), black_box(&updates)));
        }),
    );
    put(
        "agg.gbytes_per_s",
        ((k * params.numel() * 4) as f64 / aggregate, 1),
    );
    let (eval_x, eval_y) = pooled_test_set(&data, 20);
    let mut evaluator = GlobalEvaluator::new(model.clone_model(), eval_x, eval_y);
    put(
        "eval.global_ns",
        time_ns(smoke, || {
            black_box(evaluator.eval(black_box(&params)));
        }),
    );
    let idle: Vec<u32> = (1..=w.num_clients() as u32).collect();
    let mut sampler = Sampler::Uniform;
    put(
        "sampler.sample_ns",
        time_ns(smoke, || {
            black_box(sampler.sample(black_box(&idle), w.concurrency, &mut rng));
        }),
    );

    // fs-compress: the upload codec (the identity codec on dense courses)
    let mut codec: Box<dyn Compressor> = compression(w.codec)
        .build_upload()
        .unwrap_or_else(|| Box::new(Identity));
    codec.set_reference(&params, 1);
    let trained = &updates[k - 1].params;
    put(
        "compress.encode_ns",
        time_ns(smoke, || {
            black_box(codec.compress(black_box(trained)));
        }),
    );
    let block = codec.compress(trained);
    put(
        "compress.decode_ns",
        time_ns(smoke, || {
            black_box(decompress(black_box(&block), Some(&params)).expect("decompress"));
        }),
    );
    put(
        "compress.ratio",
        (
            params_wire_len(&params) as f64 / block.encoded_len() as f64,
            1,
        ),
    );

    // fs-net wire + bus
    let (down, up) = course_messages(w.codec, &params);
    put(
        "wire.encode_msg_ns",
        time_ns(smoke, || {
            black_box(encode_message(black_box(&down)));
        }),
    );
    let up_bytes = encode_message(&up);
    put(
        "wire.decode_view_ns",
        time_ns(smoke, || {
            black_box(decode_message_view(black_box(&up_bytes)).expect("decode view"));
        }),
    );
    put(
        "wire.bytes_per_model_msg",
        (encode_message(&down).len() as f64, 1),
    );
    let mut bus = Bus::new();
    let mailbox = bus.register(1);
    put(
        "bus.send_recv_ns",
        time_ns(smoke, || {
            bus.send(black_box(&down)).expect("bus send");
            black_box(mailbox.recv().expect("bus recv"));
        }),
    );
    tcp_probes(&down, smoke, &mut put);

    // fs-sim event queue: pop the earliest event, push one later, at the
    // course's depth and at 100k pending events
    for (name, depth) in [
        ("sim.queue_push_pop_ns", w.concurrency),
        ("sim.queue_push_pop_100k_ns", 100_000),
    ] {
        let mut queue: IndexedEventQueue<u32> = IndexedEventQueue::new();
        for i in 0..depth {
            queue.push(VirtualTime::from_secs(rng.gen_range(0.0..10.0)), i as u32);
        }
        put(
            name,
            time_ns(smoke, || {
                let (at, _, item) = queue.pop().expect("queue holds depth events");
                let later = at.as_secs() + rng.gen_range(0.0..10.0);
                queue.push(VirtualTime::from_secs(later), item);
            }),
        );
    }

    // fs-exec: dispatch + ordered join of no-op jobs on 2 workers
    let pool = WorkerPool::new(2);
    let (batch_ns, n) = time_ns(smoke, || {
        black_box(pool.run_ordered((0..64u64).collect(), |i| i));
    });
    put("exec.run_ordered_ns_per_job", (batch_ns / 64.0, n * 64));
    drop(pool);

    // fs-monitor: the program's RecordingMonitor behind its handle
    let handle = MonitorHandle::new(RecordingMonitor::new());
    put(
        "monitor.record_span_ns",
        time_ns(smoke, || {
            handle.enter(1, "probe", "dispatch", VirtualTime::ZERO);
            handle.exit(1, VirtualTime::ZERO);
        }),
    );
    let sharded = MonitorHandle::new(RecordingMonitor::new()).sharded();
    put(
        "monitor.counter_add_ns",
        time_ns(smoke, || {
            sharded.add(fs_monitor::counters::MESSAGES_DELIVERED, 1);
        }),
    );
    sharded.flush_counters();
    out
}

/// A model-size frame echoed peer → hub → peer on loopback, and 1 MiB frames
/// one way. The hub end runs on its own thread; both ends are closed and the
/// thread joined before this returns.
fn tcp_probes(
    model_msg: &Message,
    smoke: bool,
    put: &mut impl FnMut(&'static str, (f64, usize)) -> f64,
) {
    const PEER: u32 = 1;
    let pending = TcpHub::bind("127.0.0.1:0").expect("bind loopback");
    let addr = pending.local_addr().expect("hub address");
    // the hub registers a connection on its first frame; echo until Finish
    let hub_thread = std::thread::spawn(move || {
        let hub = pending.accept(1).expect("peer joins");
        loop {
            let msg = hub.recv().expect("hub recv");
            match msg.kind {
                MessageKind::Finish => return,
                MessageKind::ModelParams => {
                    let mut echo = msg;
                    echo.receiver = PEER;
                    hub.send(&echo).expect("hub send");
                }
                // bulk frames are acknowledged once, by the closing echo
                _ => {}
            }
        }
    });
    let mut peer = TcpPeer::connect(addr).expect("connect loopback");
    let join = Message::new(PEER, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
    peer.send(&join).expect("join");
    let mut ping = model_msg.clone();
    ping.sender = PEER;
    ping.receiver = SERVER_ID;

    // round trips, one at a time: 200 of them, or as many as fit in 0.7 s
    // (at HEAD a round trip is 88 ms; a fixed transport gets all 200)
    let (cap, floor) = if smoke {
        (Duration::ZERO, 3)
    } else {
        (Duration::from_millis(700), 5)
    };
    let mut rtts_us = Vec::new();
    let started = Instant::now();
    while rtts_us.len() < 200 && (rtts_us.len() < floor || started.elapsed() < cap) {
        let t = Instant::now();
        peer.send(&ping).expect("peer send");
        black_box(peer.recv().expect("peer recv"));
        rtts_us.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    let warm = &rtts_us[1..];
    put(
        "tcp.frame_rtt_us_p50",
        (crate::stats::percentile(warm, 50.0), warm.len()),
    );
    put(
        "tcp.frame_rtt_us_p95",
        (crate::stats::percentile(warm, 95.0), warm.len()),
    );

    // throughput: 1 MiB frames one way, closed by one echoed frame
    let bulk = Message::new(
        PEER,
        SERVER_ID,
        MessageKind::Custom(0),
        0,
        Payload::Bytes(vec![0x5a; 1 << 20]),
    );
    let frames = if smoke { 2usize } else { 24 };
    let t = Instant::now();
    for _ in 0..frames {
        peer.send(&bulk).expect("bulk send");
    }
    peer.send(&ping).expect("closing ping");
    black_box(peer.recv().expect("closing echo"));
    let mbytes = (frames << 20) as f64 / 1e6;
    put(
        "tcp.frame_mbytes_per_s",
        (mbytes / t.elapsed().as_secs_f64(), frames),
    );

    let finish = Message::new(PEER, SERVER_ID, MessageKind::Finish, 0, Payload::Empty);
    peer.send(&finish).expect("finish");
    hub_thread.join().expect("hub thread");
    peer.shutdown();
}

// ---------------------------------------------------------------------------
// fixed reference courses (the same on every workload)

/// Wall and CPU seconds of `f`.
fn wall_cpu<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let (t, c) = (Instant::now(), crate::sys::cpu_seconds());
    let out = f();
    (
        out,
        t.elapsed().as_secs_f64(),
        crate::sys::cpu_seconds() - c,
    )
}

/// `femnist_sync` at half its length on the legacy runner, alternating
/// `parallelism` 1 and 2 three times: `(par_speedup, cpu_inflation)` from the
/// medians. Run it before the probes: the gain is sensitive to what earlier
/// work left in the allocator (after the large-batch evaluator probe the
/// same parallel course has been seen at 0.9x of serial).
pub fn exec_reference(seed: u64, smoke: bool) -> (f64, f64) {
    let w = crate::workloads::find("femnist_sync").expect("femnist_sync is a workload");
    let (rounds, pairs) = if smoke {
        (1, 1)
    } else {
        ((w.rounds / 2).max(2), 3)
    };
    let run = |parallelism: usize| {
        let Data::Fed(data) = gen_data(w, seed) else {
            unreachable!("femnist is a materialized dataset")
        };
        let mut runner = legacy_runner(w, data, seed, rounds, parallelism);
        let (report, wall, cpu) = wall_cpu(|| runner.run());
        (fingerprint(&report), wall, cpu)
    };
    let (mut walls, mut cpus) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    let reference = run(1).0; // warm-up
    for _ in 0..pairs {
        for (i, parallelism) in [1, 2].into_iter().enumerate() {
            let (fp, wall, cpu) = run(parallelism);
            assert_eq!(fp, reference, "parallel course diverged from serial");
            walls[i].push(wall);
            cpus[i].push(cpu);
        }
    }
    let median = crate::stats::median;
    (
        median(&walls[0]) / median(&walls[1]),
        median(&cpus[1]) / median(&cpus[0]).max(1e-9),
    )
}

/// A 20 000-lazy-client, 10-round course on the scale runner:
/// `(clients_per_s, events_per_s)`.
pub fn scale_reference(seed: u64, smoke: bool) -> (f64, f64) {
    let w = crate::workloads::find("scale_lr").expect("scale_lr is a workload");
    let clients = if smoke { 1_000 } else { 20_000 };
    let small = Workload {
        dataset: Dataset::Lazy {
            clients,
            dim: 64,
            classes: 10,
            per_client: 12,
        },
        rounds: if smoke { 2 } else { 10 },
        ..*w
    };
    let course = build_course(&small, gen_data(&small, seed), seed);
    let (result, wall, _) = wall_cpu(|| course.run());
    let outcome = result.expect("scale reference course");
    (
        clients as f64 / wall,
        outcome.events.unwrap_or(0) as f64 / wall,
    )
}
