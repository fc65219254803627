//! **Scheduler harness** — the scheduler-mode × workload grid behind
//! `results/sched.json`.
//!
//! Every cell runs the same seeded standalone course under one execution
//! mode, i.e. one `AggregationRule`: the three legacy regimes
//! (`sync` = all_received, `goal` = goal_achieved, `time` = time_up) plus
//! the two later modes — FedBuff-style buffered
//! async (`buffered:K`, aggregate every K buffered updates with
//! staleness-discounted weights) and tiered semi-async (`tiered:T`, seeded
//! speed tiers aggregating synchronously within a tier and merging
//! asynchronously across tiers). Per cell the file records virtual time to
//! the workload's target accuracy, byte totals, and the staleness
//! distribution of every aggregated update (mean/p50/p90) plus the
//! staleness-gate drop count; rounds/sec (wall clock) is printed only.
//!
//! Three claims close the run:
//!
//! * **fresh sync** — the synchronous baseline aggregates only
//!   staleness-zero updates (any recorded staleness means the legacy
//!   semantics broke);
//! * **new modes present** — the grid holds a `buffered` and a `tiered`
//!   row, because demonstrating them is the point;
//! * **complete** — every cell runs all the rounds it was configured for.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_sched
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, percentile, render_table, write_json, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::{workload_by_name, Workload};
use fs_core::config::FlConfig;
use serde::Serialize;
use std::time::Instant;

/// One scheduler-mode × workload cell of `results/sched.json`.
#[derive(Serialize)]
struct Row {
    workload: String,
    /// Scheduler mode in CLI syntax (`"sync"`, `"goal"`, `"time"`,
    /// `"buffered:4"`, `"tiered:2"`).
    scheduler: String,
    rounds: u64,
    /// Virtual seconds when the target accuracy was first reached
    /// (negative when the target was never reached).
    virtual_secs_to_target: f64,
    target_accuracy: f64,
    best_accuracy: f64,
    final_virtual_secs: f64,
    uploaded_bytes: u64,
    downloaded_bytes: u64,
    /// Updates folded into aggregations over the whole course.
    updates_aggregated: u64,
    /// Updates rejected by the staleness gate.
    stale_drops: u64,
    staleness_mean: f64,
    staleness_p50: u64,
    staleness_p90: u64,
}

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
            SchedMode::Buffered(k) => wl.base_cfg.clone().buffered_async(k),
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
    let mut sorted = log.to_vec();
    sorted.sort_unstable();
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len().max(1) as f64;
    (mean, percentile(&sorted, 0.50), percentile(&sorted, 0.90))
}

fn main() {
    let args = ExpArgs::parse();
    let seed = args.seed_or(7);
    let rounds = args.rounds_or(20);
    let workload_names = args.workloads_or(&["femnist", "twitter"]);

    let mut rows: Vec<Row> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut complete = true;

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
            let configured = cfg.total_rounds;
            let mut runner = wl.build(cfg);
            let start = Instant::now();
            let report = runner.run();
            let rounds_per_sec = report.rounds as f64 / start.elapsed().as_secs_f64().max(1e-9);
            complete &= report.rounds == configured;
            let ledger = &runner.server.state.ledger;
            let (mean, p50, p90) = staleness_stats(&ledger.staleness_log);
            let row = Row {
                workload: wl_name.clone(),
                scheduler: mode.label(),
                rounds: report.rounds,
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
            table.push(vec![
                row.workload.clone(),
                row.scheduler.clone(),
                row.rounds.to_string(),
                format!("{rounds_per_sec:.1}"),
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
            rows.push(row);
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
                "rounds/s",
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

    let path = write_json("sched", &rows).expect("write results");
    println!("wrote {path}: {} rows", rows.len());

    let has = |prefix: &str| rows.iter().any(|r| r.scheduler.starts_with(prefix));
    check_claims(&[
        Claim::new(
            "sched: the sync rows aggregate only fresh updates (zero staleness)",
            rows.iter()
                .filter(|r| r.scheduler == "sync")
                .all(|r| r.staleness_mean == 0.0 && r.staleness_p90 == 0),
        ),
        Claim::new(
            "sched: buffered and tiered rows are present",
            has("buffered") && has("tiered"),
        ),
        Claim::new("sched: every cell completes its rounds", complete),
    ]);
}
