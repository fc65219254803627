//! The determinism contract of the parallel client-execution engine:
//! running the same seeded course with `parallelism > 1` must produce a
//! [`CourseReport`] bit-identical to the serial run — same accuracy
//! history, same virtual-time accounting, same byte totals, same RNG
//! consumption — for every strategy × workload pair, and every monitor
//! observation must reconcile exactly as well.
//!
//! These tests drive the *speculative* execution path end to end: with
//! `parallelism = 2` the runner snapshots clients, runs their handlers on
//! pool workers at enqueue time, and adopts (or rolls back) the results at
//! the exact virtual-time positions the serial simulator would have used.

use fs_bench::strategies::Strategy;
use fs_bench::workloads::{cifar, femnist, twitter, Workload};
use fs_core::config::{CodecSpec, CompressionConfig, FlConfig};
use fs_core::runner::CourseReport;
use fs_monitor::{MonitorHandle, RecordingMonitor};
use fs_net::Topology;
use fs_scale::ScaleCourseBuilder;
use proptest::prelude::*;
use std::sync::{Arc, Mutex, PoisonError};

/// How a grid cell's course is assembled: which client slots and topology the
/// one virtual-time loop runs over.
#[derive(Clone, Copy, Debug)]
enum Via {
    /// Eager clients, star routing — `Workload::build`.
    Eager,
    /// The fs-scale lazy store over the same dataset.
    Lazy,
    /// Eager clients routed over a 2-tier hierarchy by the runner itself.
    Hier,
}

fn configure(wl: &Workload, strat: Strategy, rounds: u64, parallelism: usize) -> FlConfig {
    let mut cfg = strat.configure(wl);
    cfg.target_accuracy = None;
    cfg.total_rounds = rounds;
    cfg.parallelism = parallelism;
    cfg
}

/// Runs one seeded course at the given parallelism.
fn run_course(wl: &Workload, strat: Strategy, rounds: u64, parallelism: usize) -> CourseReport {
    run_course_via(Via::Eager, wl, strat, rounds, parallelism)
}

fn run_course_via(
    via: Via,
    wl: &Workload,
    strat: Strategy,
    rounds: u64,
    parallelism: usize,
) -> CourseReport {
    let mut cfg = configure(wl, strat, rounds, parallelism);
    match via {
        Via::Eager => wl.build(cfg).run(),
        Via::Lazy => ScaleCourseBuilder::from_dataset(
            Arc::new(wl.dataset.clone()),
            (wl.model_factory_builder)(&wl.dataset),
            cfg,
        )
        .fleet_config(wl.fleet_cfg.clone())
        .build()
        .run(),
        Via::Hier => {
            cfg.topology = Topology::Hierarchical {
                tiers: 2,
                fanout: 8,
            };
            let mut runner = wl.build(cfg);
            let report = runner.try_run().expect("hier course");
            assert!(runner.topo_report().is_some(), "the course ran routed");
            report
        }
    }
}

/// The acceptance bar: every strategy × workload pair, serial vs parallel —
/// plus one lazy-store and one hierarchical cell, which run on the same loop
/// and must honour `parallelism` just the same.
#[test]
fn every_strategy_workload_pair_is_parallel_deterministic() {
    let seed = 11;
    for (i, wl) in [femnist(seed), cifar(seed), twitter(seed)]
        .iter()
        .enumerate()
    {
        let mut grid: Vec<(Via, Strategy, usize)> = Strategy::all()
            .into_iter()
            .map(|strat| (Via::Eager, strat, 2))
            .collect();
        if i == 0 {
            grid.push((Via::Lazy, Strategy::GoalAggrUnif, 4));
            grid.push((Via::Hier, Strategy::SyncVanilla, 4));
        }
        for (via, strat, threads) in grid {
            let serial = run_course_via(via, wl, strat, 2, 1);
            let parallel = run_course_via(via, wl, strat, 2, threads);
            assert_eq!(
                serial,
                parallel,
                "{} / {} / {via:?}: parallel run diverged from serial",
                wl.name,
                strat.label()
            );
        }
    }
}

/// Stateful compression (error-feedback residuals + delta references) is
/// part of the client snapshot; a rolled-back speculation must not leak
/// codec state into later rounds.
#[test]
fn parallel_determinism_holds_with_stateful_compression() {
    let wl = femnist(5);
    let mut cfg = Strategy::GoalReceUnif.configure(&wl);
    cfg.target_accuracy = None;
    cfg.total_rounds = 4;
    cfg.compression = CompressionConfig {
        upload: Some(CodecSpec::TopK { ratio: 0.25 }),
        upload_delta: true,
        download: Some(CodecSpec::UniformQuant { bits: 8 }),
    };
    let serial = {
        let mut c = cfg.clone();
        c.parallelism = 1;
        wl.build(c).run()
    };
    let parallel = {
        let mut c = cfg;
        c.parallelism = 2;
        wl.build(c).run()
    };
    assert_eq!(serial, parallel, "stateful codecs broke determinism");
}

/// `parallelism = 0` (auto: all cores) must also match serial exactly.
#[test]
fn auto_parallelism_matches_serial() {
    let wl = twitter(3);
    let serial = run_course(&wl, Strategy::SyncVanilla, 3, 1);
    let auto = run_course(&wl, Strategy::SyncVanilla, 3, 0);
    assert_eq!(serial, auto, "parallelism = 0 diverged from serial");
}

/// Monitor reconciliation: every counter, every virtual-time span, and
/// every round record must be identical under parallel execution — the
/// per-client observations replayed from worker buffers land in the same
/// order and with the same values the serial dispatch produces.
#[test]
fn monitor_observations_reconcile_under_parallel_execution() {
    let wl = femnist(7);
    let observe = |parallelism: usize| {
        let mut cfg = Strategy::GoalAggrUnif.configure(&wl);
        cfg.target_accuracy = None;
        cfg.total_rounds = 3;
        cfg.parallelism = parallelism;
        let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
        let report = wl
            .build(cfg)
            .with_monitor(MonitorHandle::from_shared(monitor.clone()))
            .run();
        let mon = Arc::try_unwrap(monitor)
            .unwrap_or_else(|_| panic!("monitor still shared after run"))
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        (report, mon)
    };
    let (serial_report, serial_mon) = observe(1);
    let (parallel_report, parallel_mon) = observe(2);

    assert_eq!(serial_report, parallel_report);
    assert_eq!(
        serial_mon.counters(),
        parallel_mon.counters(),
        "counter totals diverged under parallel execution"
    );
    assert_eq!(
        serial_mon.rounds(),
        parallel_mon.rounds(),
        "round records diverged under parallel execution"
    );
    assert_eq!(
        serial_mon.spans(),
        parallel_mon.spans(),
        "virtual-time spans diverged under parallel execution"
    );
    parallel_mon
        .validate_nesting()
        .expect("replayed per-client spans stay well-nested");
    assert_eq!(parallel_mon.unbalanced_exits(), 0);

    // the byte counters must still reconcile against the sim-charged totals
    assert_eq!(
        parallel_mon.counter(fs_monitor::counters::UPLOADED_BYTES),
        parallel_report.uploaded_bytes
    );
    assert_eq!(
        parallel_mon.counter(fs_monitor::counters::DOWNLOADED_BYTES),
        parallel_report.downloaded_bytes
    );
}

proptest! {
    /// Randomized sweep over (seed, rounds, strategy, workload): serial and
    /// parallel runs of the same seeded course are always identical. Each
    /// case runs two full (tiny) courses, so the shape space is kept small.
    /// Invoked through the `#[test]` wrapper below, which bounds the default
    /// case count (each case costs two course runs).
    fn random_courses_property(
        seed in 0u64..1000,
        rounds in 1u64..3,
        strat_idx in 0usize..Strategy::all().len(),
        wl_idx in 0usize..3,
        threads in 2usize..5,
    ) {
        let wl = match wl_idx {
            0 => femnist(seed),
            1 => cifar(seed),
            _ => twitter(seed),
        };
        let strat = Strategy::all()[strat_idx];
        let serial = run_course(&wl, strat, rounds, 1);
        let parallel = run_course(&wl, strat, rounds, threads);
        prop_assert_eq!(serial, parallel);
    }
}

#[test]
fn serial_equals_parallel_for_random_courses() {
    // default to a CI-sized sweep; PROPTEST_CASES still overrides
    if std::env::var_os("PROPTEST_CASES").is_none() {
        std::env::set_var("PROPTEST_CASES", "12");
    }
    random_courses_property();
}
