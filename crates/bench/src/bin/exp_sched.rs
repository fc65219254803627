//! **Scheduler harness** — the scheduler-mode × workload grid behind
//! `BENCH_sched.json`.
//!
//! Every cell runs the same seeded standalone course under one execution
//! mode, i.e. one `AggregationRule`: the three legacy regimes
//! (`sync` = all_received, `goal` = goal_achieved, `time` = time_up) plus
//! the two later modes — FedBuff-style buffered
//! async (`buffered:K`, aggregate every K buffered updates with
//! staleness-discounted weights) and tiered semi-async (`tiered:T`, seeded
//! speed tiers aggregating synchronously within a tier and merging
//! asynchronously across tiers). Per cell the snapshot records rounds/sec,
//! virtual time to the workload's target accuracy, byte totals, and the
//! staleness distribution of every aggregated update (mean/p50/p90) plus
//! the staleness-gate drop count.
//!
//! Two contracts are checked by the `--validate` CI gate (see
//! `fs_bench::snapshot::SchedRow`):
//!
//! * **fresh sync** — the synchronous baseline must aggregate only
//!   staleness-zero updates (any recorded staleness means the scheduler
//!   refactor broke the legacy semantics);
//! * **new modes present** — the grid must contain a completed `buffered`
//!   and `tiered` row, because demonstrating them is the point.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_sched                  # full grid
//! cargo run -p fs-bench --release --bin exp_sched -- --quick      # CI grid
//! cargo run -p fs-bench --release --bin exp_sched -- --validate   # gate only
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::render_table;
use fs_bench::snapshot::{validate_file, SchedRow, Snapshot};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::{workload_by_name, Workload};
use fs_core::config::FlConfig;
use std::time::Instant;

const BENCH_PATH: &str = "BENCH_sched.json";

#[derive(Clone, Copy)]
enum SchedMode {
    /// Legacy `all_received` (vanilla synchronous FedAvg).
    Sync,
    /// Legacy `goal_achieved` + after-aggregating + uniform sampling.
    Goal,
    /// Legacy `time_up` + after-aggregating + uniform sampling.
    Time,
    /// Buffered async: aggregate every K buffered updates.
    Buffered(usize),
    /// Tiered semi-async: T seeded speed tiers.
    Tiered(usize),
}

impl SchedMode {
    fn label(self) -> String {
        match self {
            SchedMode::Sync => "sync".to_string(),
            SchedMode::Goal => "goal".to_string(),
            SchedMode::Time => "time".to_string(),
            SchedMode::Buffered(k) => format!("buffered:{k}"),
            SchedMode::Tiered(t) => format!("tiered:{t}"),
        }
    }

    /// The cell's configuration, with `rounds` scaled so total client work
    /// stays comparable across modes (async rounds fold fewer updates).
    fn configure(self, wl: &Workload, rounds: u64) -> FlConfig {
        let mut cfg = match self {
            SchedMode::Sync => Strategy::SyncVanilla.configure(wl),
            SchedMode::Goal => Strategy::GoalAggrUnif.configure(wl),
            SchedMode::Time => Strategy::TimeAggrUnif.configure(wl),
            SchedMode::Buffered(k) => wl.base_cfg.clone().buffered_async(k, 0.5),
            SchedMode::Tiered(t) => wl.base_cfg.clone().tiered(t),
        };
        let concurrency = cfg.concurrency as u64;
        cfg.total_rounds = match self {
            SchedMode::Sync => rounds,
            // one legacy async round folds `goal` updates instead of a
            // full cohort — same scaling the strategy grid uses
            SchedMode::Goal | SchedMode::Time => {
                rounds * concurrency / (wl.aggregation_goal as u64).max(1)
            }
            SchedMode::Buffered(k) => rounds * concurrency / (k as u64).max(1),
            // one tiered round merges a single tier, so a full sweep of
            // the cohort takes T rounds
            SchedMode::Tiered(t) => rounds * t as u64,
        };
        cfg.target_accuracy = None;
        cfg
    }
}

/// Mean / p50 / p90 of the per-update staleness log.
fn staleness_stats(log: &[u64]) -> (f64, u64, u64) {
    if log.is_empty() {
        return (0.0, 0, 0);
    }
    let mut sorted = log.to_vec();
    sorted.sort_unstable();
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    let pct = |p: f64| sorted[(((sorted.len() - 1) as f64) * p).round() as usize];
    (mean, pct(0.50), pct(0.90))
}

fn main() {
    let args = ExpArgs::parse();

    // --validate: CI gate mode — parse the existing snapshot and exit
    if args.has_flag("validate") {
        validate_file::<SchedRow>(BENCH_PATH);
        return;
    }

    let seed = args.seed_or(7);
    let quick = args.quick;
    let rounds = args.rounds_or(if quick { 2 } else { 20 });
    let workload_names = args.workloads_or(if quick {
        &["femnist"]
    } else {
        &["femnist", "twitter"]
    });

    let mut snapshot = Snapshot::<SchedRow>::new("exp_sched");
    let mut table: Vec<Vec<String>> = Vec::new();

    for wl_name in &workload_names {
        let wl = workload_by_name(wl_name, seed);
        let modes = [
            SchedMode::Sync,
            SchedMode::Goal,
            SchedMode::Time,
            SchedMode::Buffered((wl.aggregation_goal / 2).max(2)),
            SchedMode::Tiered(2),
        ];
        for mode in modes {
            let mut cfg = mode.configure(&wl, rounds);
            cfg.parallelism = args.threads_or(1);
            let mut runner = wl.build(cfg);
            let start = Instant::now();
            let report = runner.run();
            let wall = start.elapsed().as_secs_f64().max(1e-9);
            let ledger = &runner.server.state.ledger;
            let (mean, p50, p90) = staleness_stats(&ledger.staleness_log);
            let row = SchedRow {
                workload: wl_name.clone(),
                scheduler: mode.label(),
                rounds: report.rounds,
                rounds_per_sec: report.rounds as f64 / wall,
                virtual_secs_to_target: report.time_to_accuracy(wl.target_accuracy).unwrap_or(-1.0),
                target_accuracy: f64::from(wl.target_accuracy),
                best_accuracy: f64::from(report.best_accuracy()),
                final_virtual_secs: report.final_time_secs,
                uploaded_bytes: report.uploaded_bytes,
                downloaded_bytes: report.downloaded_bytes,
                updates_aggregated: ledger.staleness_log.len() as u64,
                stale_drops: report.stale_drops,
                staleness_mean: mean,
                staleness_p50: p50,
                staleness_p90: p90,
            };
            eprintln!(
                "  {wl_name:<8} {:<12} {} rounds ({:.1}/s), acc {:.3}, \
                 staleness mean {:.2} p90 {}, {} stale drops",
                row.scheduler,
                row.rounds,
                row.rounds_per_sec,
                row.best_accuracy,
                row.staleness_mean,
                row.staleness_p90,
                row.stale_drops,
            );
            table.push(vec![
                row.workload.clone(),
                row.scheduler.clone(),
                row.rounds.to_string(),
                format!("{:.3}", row.best_accuracy),
                if row.virtual_secs_to_target >= 0.0 {
                    format!("{:.0}s", row.virtual_secs_to_target)
                } else {
                    "—".to_string()
                },
                format!("{:.2}", row.staleness_mean),
                format!("{}/{}", row.staleness_p50, row.staleness_p90),
                row.stale_drops.to_string(),
                row.uploaded_bytes.to_string(),
            ]);
            snapshot.rows.push(row);
        }
    }

    println!("\nexp_sched grid (seed {seed}, {rounds} sync-equivalent rounds)\n");
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "scheduler",
                "rounds",
                "best acc",
                "t(target)",
                "stale mean",
                "p50/p90",
                "stale drops",
                "uploaded",
            ],
            &table,
        )
    );

    snapshot.store(BENCH_PATH).expect("write BENCH_sched.json");
    println!("wrote {BENCH_PATH}: {} rows", snapshot.rows.len());
}
