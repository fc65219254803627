//! Equivalence suite for the fs-scale lazy client store: a course run over
//! it must produce a **bit-identical** [`CourseReport`] to the same course
//! over the eager store on every overlapping scale — same strategy, same
//! codec, same fleet, same seed. The comparison goes beyond the report:
//! the fs-monitor streams (counters, round records, span sequences) must
//! match event-for-event, the monitor's byte counters must reconcile with
//! the sim-charged totals in both runners, and every client's final report
//! (the metrics its `Finish` computed, which no `CourseReport` field holds)
//! must carry the same bits.
//!
//! Equality between the two stores alone would not notice a change that
//! moved both sides together, so `GOLDEN_STORE` also pins each store's
//! absolute fingerprint (report + monitor stream, FNV-1a) on every cell of
//! the 100-client strategy × codec grid, captured before the two stores
//! were folded into one. Re-capture (only legitimate when intentionally
//! changing course behaviour):
//! `SCHED_EQ_CAPTURE=1 cargo test --test scale_equivalence -- --nocapture`.

use fedscope::core::config::{
    BroadcastManner, CodecSpec, CompressionConfig, FlConfig, SamplerKind,
};
use fedscope::core::course::CourseBuilder;
use fedscope::core::runner::CourseReport;
use fedscope::core::Runner;
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::data::FedDataset;
use fedscope::monitor::{counters, MonitorHandle, RecordingMonitor};
use fedscope::net::ParticipantId;
use fedscope::scale::ScaleCourseBuilder;
use fedscope::sim::FleetConfig;
use fedscope::tensor::model::{logistic_regression, Metrics};
use fedscope::tensor::optim::SgdConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

mod common;
use common::{check, fingerprint};

/// Deterministic dataset: both runners regenerate it from the same config,
/// so neither sees the other's copy.
fn dataset(num_clients: usize, seed: u64) -> FedDataset {
    twitter_like(&TwitterConfig {
        num_clients,
        per_client: 6,
        vocab: 60,
        seed,
        ..Default::default()
    })
}

/// A finished run: its report, its monitor stream and the server's final
/// per-client reports.
type Run = (
    CourseReport,
    RecordingMonitor,
    BTreeMap<ParticipantId, Metrics>,
);

fn extract(monitor: Arc<Mutex<RecordingMonitor>>) -> RecordingMonitor {
    Arc::try_unwrap(monitor)
        .map_err(|_| "runner kept a monitor handle")
        .unwrap()
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

fn run_legacy(
    num_clients: usize,
    data_seed: u64,
    cfg: FlConfig,
    fleet_cfg: Option<FleetConfig>,
) -> Run {
    let data = dataset(num_clients, data_seed);
    let dim = data.input_dim();
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let mut builder = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    );
    if let Some(fc) = fleet_cfg {
        builder = builder.fleet_config(fc);
    }
    let mut runner = builder
        .build()
        .with_monitor(MonitorHandle::from_shared(monitor.clone()));
    let report = runner.run();
    let client_reports = runner.server.state.client_reports.clone();
    drop(runner);
    (report, extract(monitor), client_reports)
}

fn run_scale(
    num_clients: usize,
    data_seed: u64,
    cfg: FlConfig,
    fleet_cfg: Option<FleetConfig>,
) -> Run {
    let data = Arc::new(dataset(num_clients, data_seed));
    let dim = data.input_dim();
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let mut builder = ScaleCourseBuilder::from_dataset(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    );
    if let Some(fc) = fleet_cfg {
        builder = builder.fleet_config(fc);
    }
    let mut runner = builder
        .build()
        .with_monitor(MonitorHandle::from_shared(monitor.clone()));
    let report = runner.run();
    let client_reports = runner.server.state.client_reports.clone();
    drop(runner);
    (report, extract(monitor), client_reports)
}

/// Runs one (config, fleet) cell through both runners and asserts the full
/// equivalence contract: report, counters, round records, span sequence, and
/// byte-counter reconciliation against the sim-charged totals. Returns the
/// eager and the lazy run's fingerprints.
fn assert_equivalent(
    label: &str,
    num_clients: usize,
    cfg: FlConfig,
    fleet_cfg: Option<FleetConfig>,
) -> (u64, u64) {
    let (legacy_report, legacy_mon, legacy_finals) =
        run_legacy(num_clients, 21, cfg.clone(), fleet_cfg.clone());
    let (scale_report, scale_mon, scale_finals) = run_scale(num_clients, 21, cfg, fleet_cfg);

    assert_eq!(
        legacy_report, scale_report,
        "{label}: CourseReport diverged at {num_clients} clients"
    );
    assert_eq!(
        legacy_mon.counters(),
        scale_mon.counters(),
        "{label}: monitor counters diverged at {num_clients} clients"
    );
    assert_eq!(
        legacy_mon.rounds(),
        scale_mon.rounds(),
        "{label}: round records diverged at {num_clients} clients"
    );
    assert_eq!(
        legacy_mon.spans().len(),
        scale_mon.spans().len(),
        "{label}: span counts diverged at {num_clients} clients"
    );
    assert_eq!(
        legacy_mon.spans(),
        scale_mon.spans(),
        "{label}: span sequences diverged at {num_clients} clients"
    );

    // byte counters reconcile with the sim-charged totals in *both* runners
    for (who, report, mon) in [
        ("legacy", &legacy_report, &legacy_mon),
        ("scale", &scale_report, &scale_mon),
    ] {
        assert_eq!(
            mon.counter(counters::UPLOADED_BYTES),
            report.uploaded_bytes,
            "{label}/{who}: uploaded bytes do not reconcile"
        );
        assert_eq!(
            mon.counter(counters::DOWNLOADED_BYTES),
            report.downloaded_bytes,
            "{label}/{who}: downloaded bytes do not reconcile"
        );
    }
    scale_mon.validate_nesting().unwrap();
    assert_same_final_reports(label, num_clients, &legacy_finals, &scale_finals);
    (
        fingerprint(&legacy_report, &legacy_mon),
        fingerprint(&scale_report, &scale_mon),
    )
}

/// Every client reported its final metrics in both runs, with the same
/// bits of `loss` and `accuracy` and the same `n`.
fn assert_same_final_reports(
    label: &str,
    num_clients: usize,
    legacy: &BTreeMap<ParticipantId, Metrics>,
    scale: &BTreeMap<ParticipantId, Metrics>,
) {
    let bits =
        |reports: &BTreeMap<ParticipantId, Metrics>| -> Vec<(ParticipantId, u32, u32, usize)> {
            reports
                .iter()
                .map(|(&id, m)| (id, m.loss.to_bits(), m.accuracy.to_bits(), m.n))
                .collect()
        };
    assert_eq!(
        legacy.keys().copied().collect::<Vec<_>>(),
        (1..=num_clients as ParticipantId).collect::<Vec<_>>(),
        "{label}: not every client sent its final report"
    );
    assert_eq!(
        bits(legacy),
        bits(scale),
        "{label}: per-client final reports diverged at {num_clients} clients"
    );
}

fn base_cfg(rounds: u64) -> FlConfig {
    FlConfig {
        total_rounds: rounds,
        concurrency: 10,
        local_steps: 4,
        batch_size: 4,
        sgd: SgdConfig::with_lr(0.3),
        seed: 11,
        ..Default::default()
    }
}

/// The strategy axis of the grid: one synchronous and two asynchronous
/// aggregation regimes, exercising both broadcast manners and all three
/// sampler kinds.
fn strategy_grid() -> Vec<(&'static str, FlConfig)> {
    vec![
        ("sync_vanilla", base_cfg(4).sync_vanilla()),
        (
            "async_goal",
            base_cfg(6).async_goal(
                5,
                BroadcastManner::AfterReceiving,
                SamplerKind::Responsiveness,
            ),
        ),
        (
            "async_time",
            base_cfg(6).async_time(
                60.0,
                2,
                BroadcastManner::AfterAggregating,
                SamplerKind::Group,
            ),
        ),
    ]
}

/// The codec axis of the grid: no compression, 8-bit quantization, top-k
/// with delta encoding on the uplink, and a downlink codec.
fn codec_grid() -> Vec<(&'static str, CompressionConfig)> {
    vec![
        ("plain", CompressionConfig::default()),
        (
            "quant8",
            CompressionConfig {
                upload: Some(CodecSpec::UniformQuant { bits: 8 }),
                upload_delta: false,
                download: None,
            },
        ),
        (
            "topk_delta",
            CompressionConfig {
                upload: Some(CodecSpec::TopK { ratio: 0.25 }),
                upload_delta: true,
                download: None,
            },
        ),
        (
            "downlink",
            CompressionConfig {
                upload: Some(CodecSpec::Identity),
                upload_delta: false,
                download: Some(CodecSpec::UniformQuant { bits: 8 }),
            },
        ),
    ]
}

/// Absolute fingerprints of the 100-client grid, per store, captured while
/// the eager and the lazy store were still separate types.
const GOLDEN_STORE: &[(&str, u64)] = &[
    ("sync_vanilla/plain/eager", 0xa5b5564ee4bf67a5),
    ("sync_vanilla/plain/lazy", 0xa5b5564ee4bf67a5),
    ("sync_vanilla/quant8/eager", 0xf93d593cf2090463),
    ("sync_vanilla/quant8/lazy", 0xf93d593cf2090463),
    ("sync_vanilla/topk_delta/eager", 0x45ba2f5635328a4f),
    ("sync_vanilla/topk_delta/lazy", 0x45ba2f5635328a4f),
    ("sync_vanilla/downlink/eager", 0xd0f28789d1fe963a),
    ("sync_vanilla/downlink/lazy", 0xd0f28789d1fe963a),
    ("async_goal/plain/eager", 0x9e9434f01a1b857d),
    ("async_goal/plain/lazy", 0x9e9434f01a1b857d),
    ("async_goal/quant8/eager", 0xe07976e09db8973f),
    ("async_goal/quant8/lazy", 0xe07976e09db8973f),
    ("async_goal/topk_delta/eager", 0x917313fa72d7a27f),
    ("async_goal/topk_delta/lazy", 0x917313fa72d7a27f),
    ("async_goal/downlink/eager", 0x27afdae5520e63da),
    ("async_goal/downlink/lazy", 0x27afdae5520e63da),
    ("async_time/plain/eager", 0x0543295fd21c6cb0),
    ("async_time/plain/lazy", 0x0543295fd21c6cb0),
    ("async_time/quant8/eager", 0xa5d003f928db67ac),
    ("async_time/quant8/lazy", 0xa5d003f928db67ac),
    ("async_time/topk_delta/eager", 0xb50dbaab564351f8),
    ("async_time/topk_delta/lazy", 0xb50dbaab564351f8),
    ("async_time/downlink/eager", 0x107024bec22337b1),
    ("async_time/downlink/lazy", 0x107024bec22337b1),
];

#[test]
fn strategy_codec_grid_bit_identical_at_100_clients() {
    for (sname, strat_cfg) in strategy_grid() {
        for (cname, compression) in codec_grid() {
            let cfg = FlConfig {
                compression,
                ..strat_cfg.clone()
            };
            let label = format!("{sname}/{cname}");
            let (eager, lazy) = assert_equivalent(&label, 100, cfg, None);
            check(&format!("{label}/eager"), eager, GOLDEN_STORE);
            check(&format!("{label}/lazy"), lazy, GOLDEN_STORE);
        }
    }
}

#[test]
fn strategy_grid_bit_identical_at_1000_clients() {
    // the full codec axis is covered at 100 clients; at 1,000 the point is
    // that laziness changes nothing, so one codec per strategy suffices
    let codecs = codec_grid();
    for (i, (sname, strat_cfg)) in strategy_grid().into_iter().enumerate() {
        let (cname, compression) = &codecs[i % codecs.len()];
        let cfg = FlConfig {
            concurrency: 25,
            compression: *compression,
            ..strat_cfg
        };
        assert_equivalent(&format!("{sname}/{cname}@1000"), 1000, cfg, None);
    }
}

#[test]
fn crash_faults_replay_identically() {
    // a crashing fleet exercises the crash-RNG draw order, which is the most
    // fragile part of the determinism contract: one missed or extra draw
    // desynchronizes every later delivery
    let cfg = base_cfg(6).async_time(
        60.0,
        2,
        BroadcastManner::AfterReceiving,
        SamplerKind::Uniform,
    );
    let fleet_cfg = FleetConfig {
        num_clients: 100,
        crash_prob: 0.15,
        seed: cfg.seed ^ 0xf1ee,
        ..Default::default()
    };
    let (report, _, _) = run_scale(100, 21, cfg.clone(), Some(fleet_cfg.clone()));
    assert!(
        report.crashed_deliveries > 0,
        "crash cell is vacuous: no deliveries crashed"
    );
    assert_equivalent("crash/plain", 100, cfg, Some(fleet_cfg));
}

/// Runs a course capped at `cap` events and reports what it left behind:
/// the report plus every client's `rounds_trained`.
fn run_capped(runner: Runner, cap: u64) -> (CourseReport, Vec<u64>) {
    let mut runner = runner.with_max_events(cap);
    let report = runner.run();
    if report.finish_reason.starts_with("event cap") {
        assert_eq!(
            runner.events_processed(),
            cap,
            "a capped run handles exactly `cap` events and counts those"
        );
    }
    let trained = runner
        .clients
        .ids()
        .into_iter()
        .map(|id| {
            let client = runner
                .clients
                .take(id)
                .expect("every client is back in its store");
            client.state.rounds_trained
        })
        .collect();
    (report, trained)
}

#[test]
fn event_cap_rolls_back_in_flight_speculation_on_both_stores() {
    // at parallelism 4 every broadcast starts its whole cohort training at
    // send time; a cap that breaks the loop between a broadcast and its
    // deliveries leaves those speculations in flight, and they must be
    // rolled back so the clients match a serial run that never got there
    let n = 30;
    let fleet_cfg = |cfg: &FlConfig| FleetConfig {
        num_clients: n,
        speed_sigma: 1.0,
        seed: cfg.seed ^ 0xf1ee,
        ..Default::default()
    };
    let factory = |dim: usize| -> fedscope::core::course::ModelFactory {
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)))
    };
    let eager = |parallelism: usize, cap: u64| {
        let cfg = FlConfig {
            parallelism,
            ..base_cfg(4)
        };
        let data = dataset(n, 21);
        let dim = data.input_dim();
        let fleet = fleet_cfg(&cfg);
        run_capped(
            CourseBuilder::new(data, factory(dim), cfg)
                .fleet_config(fleet)
                .build(),
            cap,
        )
    };
    let lazy = |parallelism: usize, cap: u64| {
        let cfg = FlConfig {
            parallelism,
            ..base_cfg(4)
        };
        let data = Arc::new(dataset(n, 21));
        let dim = data.input_dim();
        let fleet = fleet_cfg(&cfg);
        run_capped(
            ScaleCourseBuilder::from_dataset(data, factory(dim), cfg)
                .fleet_config(fleet)
                .build(),
            cap,
        )
    };
    let (uncapped, _) = eager(1, u64::MAX);
    assert_eq!(uncapped.rounds, 4, "the uncapped course completes");
    let mut saw_partial_round = false;
    // caps from just after the join wave through the first rounds, so some
    // land between a broadcast and its cohort's deliveries
    for cap in (2 * n as u64..2 * n as u64 + 60).step_by(3) {
        let serial = eager(1, cap);
        assert_eq!(serial.0.finish_reason, format!("event cap {cap} reached"));
        saw_partial_round |= serial.1.iter().any(|&t| t > 0) && serial.0.rounds < 4;
        for (label, run) in [
            ("eager/4", eager(4, cap)),
            ("lazy/1", lazy(1, cap)),
            ("lazy/4", lazy(4, cap)),
        ] {
            assert_eq!(serial.0, run.0, "{label}: report diverged at cap {cap}");
            assert_eq!(
                serial.1, run.1,
                "{label}: per-client rounds_trained diverged at cap {cap}"
            );
        }
    }
    assert!(
        saw_partial_round,
        "no cap landed mid-course: test is vacuous"
    );
}

proptest! {
    /// Property: for any seed and sampler kind, the two runners agree
    /// bit-for-bit. Small course so the case count stays cheap; the grids
    /// above cover the 100/1,000-client scales.
    #[test]
    fn any_sampler_seed_is_equivalent(
        seed in 0u64..1_000,
        sampler_ix in 0usize..3,
        goal in 2usize..5,
    ) {
        let sampler = [
            SamplerKind::Uniform,
            SamplerKind::Responsiveness,
            SamplerKind::Group,
        ][sampler_ix];
        let cfg = FlConfig {
            total_rounds: 3,
            concurrency: 6,
            local_steps: 2,
            batch_size: 4,
            sgd: SgdConfig::with_lr(0.3),
            seed,
            ..Default::default()
        }
        .async_goal(goal, BroadcastManner::AfterAggregating, sampler);
        let (legacy_report, legacy_mon, legacy_finals) =
            run_legacy(20, seed ^ 0x5eed, cfg.clone(), None);
        let (scale_report, scale_mon, scale_finals) = run_scale(20, seed ^ 0x5eed, cfg, None);
        prop_assert_eq!(&legacy_report, &scale_report);
        prop_assert_eq!(legacy_mon.counters(), scale_mon.counters());
        prop_assert_eq!(legacy_mon.spans(), scale_mon.spans());
        assert_same_final_reports("any_sampler_seed", 20, &legacy_finals, &scale_finals);
    }
}
