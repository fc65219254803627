//! Scheduler-equivalence suite: every move of the aggregation regimes
//! (`all_received` / `goal_achieved` / `time_up`, then buffered and tiered)
//! — out of inline match arms in `server.rs`, behind a `Scheduler` trait
//! object, and (PR 25) back to one `match` on `AggregationRule` per decision
//! with no policy object at all — must be **bit-identical** to the
//! pre-refactor inline logic.
//!
//! The proof is a golden-fingerprint pin: every cell of the
//! strategy × workload grid below was run against the pre-refactor server
//! loop and its full observable surface — every `CourseReport` field, the
//! monitor counter bank, the round records, and the complete virtual-time
//! span stream — was folded into an FNV-1a fingerprint. The constants in
//! `GOLDEN_*` are those pre-refactor fingerprints, committed before the
//! refactor landed; the suite re-runs the cells through the rule's
//! decisions and asserts the fingerprints still match, at `parallelism` 1
//! *and* 4 (speculative execution must not change a single bit either).
//!
//! Distributed courses run on wall-clock threads, so message arrival order
//! (and with it float summation order) is not reproducible; for the bus and
//! TCP backends the suite pins the deterministic surface instead: rounds,
//! finish reason, the effective-handler log (names *and* declared emit
//! lists — the part of the dispatch surface the refactor rewires),
//! registry warnings, and conformance violations.
//!
//! To re-capture (only legitimate when intentionally changing pre-refactor
//! behaviour): `SCHED_EQ_CAPTURE=1 cargo test --test scheduler_equivalence -- --nocapture`.

use fedscope::core::config::{BroadcastManner, FlConfig, SamplerKind};
use fedscope::core::course::CourseBuilder;
use fedscope::core::distributed::{
    distributed_report, run_distributed_tcp_with, run_distributed_with, BusRunOptions,
    TcpRunOptions,
};
use fedscope::core::runner::CourseReport;
use fedscope::data::synth::{femnist_like, twitter_like, ImageConfig, TwitterConfig};
use fedscope::data::FedDataset;
use fedscope::monitor::{MonitorHandle, RecordingMonitor};
use fedscope::sim::FleetConfig;
use fedscope::tensor::model::{convnet2, logistic_regression};
use fedscope::tensor::optim::SgdConfig;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::{check, extract, fingerprint, Fnv};

/// The deterministic surface of a distributed (wall-clock) course.
fn fingerprint_distributed(report: &CourseReport) -> u64 {
    let mut h = Fnv::new();
    h.field("rounds", &report.rounds.to_string());
    h.field("finish", &report.finish_reason);
    for hh in &report.effective_handlers {
        h.field("handler", hh);
    }
    for w in &report.registry_warnings {
        h.field("warn", w);
    }
    for v in &report.conformance_violations {
        h.field("violation", v);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// the grid
// ---------------------------------------------------------------------------

enum Wl {
    Twitter,
    Femnist,
}

fn dataset(wl: &Wl) -> FedDataset {
    match wl {
        Wl::Twitter => twitter_like(&TwitterConfig {
            num_clients: 14,
            per_client: 8,
            vocab: 40,
            words_per_text: 10,
            seed: 33,
        }),
        Wl::Femnist => femnist_like(&ImageConfig {
            num_clients: 12,
            num_classes: 4,
            img: 6,
            per_client: 10,
            noise: 0.3,
            size_skew: 0.0,
            seed: 33,
        }),
    }
}

fn build_runner(
    wl: &Wl,
    cfg: FlConfig,
    crash_prob: f64,
) -> (
    fedscope::core::StandaloneRunner,
    Arc<Mutex<RecordingMonitor>>,
) {
    let data = dataset(wl);
    let factory: fedscope::core::course::ModelFactory = match wl {
        Wl::Twitter => {
            let dim = data.input_dim();
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)))
        }
        Wl::Femnist => {
            let img = data.feature_shape[2];
            let classes = data.num_classes;
            Box::new(move |rng| Box::new(convnet2(1, img, 16, classes, 0.0, rng)))
        }
    };
    let num_clients = data.num_clients();
    let fleet = FleetConfig {
        num_clients,
        speed_sigma: 1.2,
        crash_prob,
        seed: cfg.seed ^ 0xf1ee,
        ..Default::default()
    };
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let runner = CourseBuilder::new(data, factory, cfg)
        .fleet_config(fleet)
        .build()
        .with_monitor(MonitorHandle::from_shared(monitor.clone()));
    (runner, monitor)
}

fn base_cfg(wl: &Wl) -> FlConfig {
    FlConfig {
        total_rounds: 3,
        concurrency: 4,
        local_steps: 2,
        batch_size: 4,
        sgd: SgdConfig::with_lr(0.25),
        seed: 17,
        ..Default::default()
    }
    .tap_wl(wl)
}

trait Tap {
    fn tap_wl(self, wl: &Wl) -> Self;
}
impl Tap for FlConfig {
    fn tap_wl(mut self, wl: &Wl) -> Self {
        if matches!(wl, Wl::Femnist) {
            self.batch_size = 5;
        }
        self
    }
}

/// Strategy axis: the three legacy regimes across both broadcast manners
/// and all three samplers (sync_os is `goal_achieved` under the hood, so
/// the goal trigger is pinned under both manners).
fn strategy_grid(wl: &Wl) -> Vec<(&'static str, FlConfig)> {
    vec![
        ("sync", base_cfg(wl).sync_vanilla()),
        ("sync_os", base_cfg(wl).sync_over_selection(0.3)),
        (
            "goal_ar",
            base_cfg(wl).async_goal(
                3,
                BroadcastManner::AfterReceiving,
                SamplerKind::Responsiveness,
            ),
        ),
        (
            "time_aa",
            base_cfg(wl).async_time(
                2.0,
                2,
                BroadcastManner::AfterAggregating,
                SamplerKind::Group,
            ),
        ),
        (
            "time_ar",
            base_cfg(wl).async_time(
                1.0,
                1,
                BroadcastManner::AfterReceiving,
                SamplerKind::Uniform,
            ),
        ),
    ]
}

fn run_cell(wl: &Wl, cfg: FlConfig, crash_prob: f64) -> u64 {
    let (mut runner, monitor) = build_runner(wl, cfg, crash_prob);
    let report = runner.run();
    drop(runner);
    fingerprint(&report, &extract(monitor))
}

// ---------------------------------------------------------------------------
// golden fingerprints (captured against the pre-refactor inline server loop)
// ---------------------------------------------------------------------------

const GOLDEN_STANDALONE: &[(&str, u64)] = &[
    ("twitter/sync", 0xdc257cdb5f5c0506),
    ("twitter/sync_os", 0xa9a43bffd2eaa8cc),
    ("twitter/goal_ar", 0x2d8fceb7e84e1c58),
    ("twitter/time_aa", 0x7e4db19dad473db6),
    ("twitter/time_ar", 0x9a5e5eedd63b5dbc),
    ("femnist/sync", 0xd2f0853d09176f89),
    ("femnist/sync_os", 0x79a0db543944f262),
    ("femnist/goal_ar", 0x9f365c5df983f056),
    ("femnist/time_aa", 0x41d6781ba7146097),
    ("femnist/time_ar", 0x1b4d40e61b57694e),
    // remedial-heavy: crashing deliveries force the time_up remedial measure.
    // Re-pinned once (was 0x7a9bbec540cb9f6f) when the crash outcome became a
    // function of (seed, receiver, delivery time) instead of a draw from a
    // stream consumed in pop order — the only cell on a crashing fleet
    ("twitter/time_remedial", 0x222817a1c7b14442),
    // the two modes selected outside `rule` at pin time (captured on the
    // commit before they were folded into `AggregationRule`)
    ("twitter/buffered:3", 0x581b44529b0a4970),
    ("twitter/tiered:2", 0x11c13c54bb1a8aa5),
    ("femnist/buffered:3", 0x11f4276bb44296d7),
    ("femnist/tiered:2", 0xd34efc10cfb5c92b),
];

const GOLDEN_DISTRIBUTED: &[(&str, u64)] = &[
    ("bus/sync", 0xdbb4ae202db78438),
    ("bus/goal", 0xa69a2b7f70373320),
    ("tcp/sync", 0xdbb4ae202db78438),
    ("tcp/goal", 0xa69a2b7f70373320),
];

// ---------------------------------------------------------------------------
// tests
// ---------------------------------------------------------------------------

#[test]
fn standalone_grid_matches_pre_refactor_pin() {
    for wl in [Wl::Twitter, Wl::Femnist] {
        let wname = match wl {
            Wl::Twitter => "twitter",
            Wl::Femnist => "femnist",
        };
        for (sname, cfg) in strategy_grid(&wl) {
            let label = format!("{wname}/{sname}");
            let fp1 = run_cell(&wl, cfg.clone(), 0.0);
            check(&label, fp1, GOLDEN_STANDALONE);
            // parallel speculation must not change a bit either
            let cfg4 = FlConfig {
                parallelism: 4,
                ..cfg
            };
            let fp4 = run_cell(&wl, cfg4, 0.0);
            assert_eq!(fp4, fp1, "{label}: --threads 4 diverged from --threads 1");
        }
    }
}

#[test]
fn remedial_heavy_course_matches_pre_refactor_pin() {
    // a high crash probability starves time_up rounds below min_feedback, so
    // the remedial measure (resample + budget extension) fires repeatedly;
    // this pins the remedial path's full byte/counter stream
    let cfg = base_cfg(&Wl::Twitter).async_time(
        0.8,
        3,
        BroadcastManner::AfterAggregating,
        SamplerKind::Uniform,
    );
    let (mut runner, monitor) = build_runner(&Wl::Twitter, cfg.clone(), 0.35);
    let report = runner.run();
    drop(runner);
    assert!(
        report.remedial_count > 0,
        "cell is vacuous: no remedial rounds fired"
    );
    let fp1 = fingerprint(&report, &extract(monitor));
    check("twitter/time_remedial", fp1, GOLDEN_STANDALONE);
    let cfg4 = FlConfig {
        parallelism: 4,
        ..cfg
    };
    let fp4 = run_cell(&Wl::Twitter, cfg4, 0.35);
    assert_eq!(fp4, fp1, "remedial cell: --threads 4 diverged");
}

fn run_distributed_cell(tcp: bool, cfg: FlConfig) -> (u64, usize, u64, u64) {
    let data = dataset(&Wl::Twitter);
    let dim = data.input_dim();
    let runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();
    let server = runner.server;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let budget = Duration::from_secs(120);
    let server = if tcp {
        run_distributed_tcp_with(server, clients, budget, TcpRunOptions::default())
            .expect("tcp run")
    } else {
        run_distributed_with(server, clients, budget, BusRunOptions::default()).expect("bus run")
    };
    let report = distributed_report(&server);
    (
        fingerprint_distributed(&report),
        server.state.client_reports.len(),
        report.total_updates,
        report.dropped_updates,
    )
}

/// The two new modes ride the same server loop: quick courses complete, the
/// scheduler gauges move, the report + monitor stream match their absolute
/// pins, and the serial/parallel bit-identicality the legacy modes enjoy
/// carries over.
#[test]
fn new_scheduler_modes_complete_and_are_deterministic() {
    for (wname, wl) in [("twitter", Wl::Twitter), ("femnist", Wl::Femnist)] {
        // buffered-async (FedBuff): aggregate every 3 buffered updates with
        // staleness-discounted weights
        let cfg = FlConfig {
            staleness_tolerance: 8,
            ..base_cfg(&wl)
        }
        .buffered_async(3);
        let (mut runner, monitor) = build_runner(&wl, cfg.clone(), 0.0);
        let report = runner.run();
        drop(runner);
        let mon = extract(monitor);
        assert_eq!(report.rounds, 3, "buffered course must hit the round limit");
        assert!(
            mon.counter("sched.buffer_occupancy") >= report.rounds,
            "buffer-occupancy gauge must move on every aggregation"
        );
        let fp1 = fingerprint(&report, &mon);
        check(&format!("{wname}/buffered:3"), fp1, GOLDEN_STANDALONE);
        let fp4 = run_cell(
            &wl,
            FlConfig {
                parallelism: 4,
                ..cfg
            },
            0.0,
        );
        assert_eq!(fp4, fp1, "buffered: --threads 4 diverged");

        // tiered semi-async: seeded speed tiers, sync within, async across
        let cfg = FlConfig {
            staleness_tolerance: 8,
            ..base_cfg(&wl)
        }
        .tiered(2);
        let (mut runner, monitor) = build_runner(&wl, cfg.clone(), 0.0);
        let report = runner.run();
        drop(runner);
        let mon = extract(monitor);
        assert_eq!(report.rounds, 3, "tiered course must hit the round limit");
        assert!(
            mon.counter("sched.tier_merges") > 0,
            "tier-merge gauge must move"
        );
        let fp1 = fingerprint(&report, &mon);
        check(&format!("{wname}/tiered:2"), fp1, GOLDEN_STANDALONE);
        let fp4 = run_cell(
            &wl,
            FlConfig {
                parallelism: 4,
                ..cfg
            },
            0.0,
        );
        assert_eq!(fp4, fp1, "tiered: --threads 4 diverged");
    }
}

/// Timer-free rules are legal on the wall-clock transports; the same rule
/// decisions drive the distributed server loop.
#[test]
fn new_scheduler_modes_run_distributed() {
    let cfg = FlConfig {
        staleness_tolerance: 8,
        ..base_cfg(&Wl::Twitter)
    }
    .buffered_async(3);
    let data = dataset(&Wl::Twitter);
    let dim = data.input_dim();
    let runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();
    let server = runner.server;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = run_distributed_with(
        server,
        clients,
        Duration::from_secs(120),
        BusRunOptions::default(),
    )
    .expect("buffered bus run");
    let report = distributed_report(&server);
    assert_eq!(report.rounds, 3, "buffered distributed course completes");
    assert!(report
        .effective_handlers
        .iter()
        .any(|h| h.contains("buffer_full")));
}

#[test]
fn distributed_backends_match_pre_refactor_pin() {
    let sync = base_cfg(&Wl::Twitter).sync_vanilla();
    let goal = base_cfg(&Wl::Twitter).async_goal(
        3,
        BroadcastManner::AfterAggregating,
        SamplerKind::Uniform,
    );
    for (backend, tcp) in [("bus", false), ("tcp", true)] {
        let (fp, reports, total, dropped) = run_distributed_cell(tcp, sync.clone());
        check(&format!("{backend}/sync"), fp, GOLDEN_DISTRIBUTED);
        assert_eq!(reports, 14, "{backend}/sync: client reports");
        // sync rounds wait for the full cohort, so the update count is
        // deterministic even on wall-clock transports
        assert_eq!(total, 3 * 4, "{backend}/sync: total updates");
        assert_eq!(dropped, 0, "{backend}/sync: dropped updates");

        let (fp, reports, _, dropped) = run_distributed_cell(tcp, goal.clone());
        check(&format!("{backend}/goal"), fp, GOLDEN_DISTRIBUTED);
        assert_eq!(reports, 14, "{backend}/goal: client reports");
        assert_eq!(dropped, 0, "{backend}/goal: dropped updates");
    }
}
