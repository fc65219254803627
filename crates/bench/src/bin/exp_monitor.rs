//! **fs-monitor harness** — runs the strategy × workload grid with a
//! recording monitor attached and emits every observability artifact:
//!
//! * `results/monitor_rounds.jsonl` — one JSON object per evaluated round,
//!   tagged with its grid cell;
//! * `results/monitor_summary.csv` — every counter of every cell
//!   (`workload,strategy,counter,value`);
//! * `results/trace_monitor.json` — Chrome trace-event JSON of the first
//!   cell, loadable in `chrome://tracing` / Perfetto;
//! * `BENCH_monitor.json` (repo root) — the bench snapshot: rounds/sec
//!   wall-clock, virtual time to target accuracy, bytes on wire.
//!
//! Every cell also cross-checks the monitor's byte counters against the
//! runner's sim-charged totals — they must match exactly.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_monitor                # full grid
//! cargo run -p fs-bench --release --bin exp_monitor -- --quick    # CI grid
//! cargo run -p fs-bench --release --bin exp_monitor -- --validate # gate only
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::render_table;
use fs_bench::snapshot::{validate_file, BenchRow, Snapshot};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::workload_by_name;
use fs_monitor::trace::{chrome_trace_json, validate_chrome_trace};
use fs_monitor::{counters, MonitorHandle, RecordingMonitor};
use serde::Serialize;
use std::fs;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

const BENCH_PATH: &str = "BENCH_monitor.json";

fn main() {
    let args = ExpArgs::parse();

    // --validate: CI gate mode — parse the existing snapshot and exit
    if args.has_flag("validate") {
        validate_file::<BenchRow>(BENCH_PATH);
        return;
    }

    let seed = args.seed_or(7);
    let quick = args.quick;
    let workload_names = if quick {
        args.workloads_or(&["femnist"])
    } else {
        args.workloads_or(&["femnist", "cifar", "twitter"])
    };
    let strategies = if quick {
        args.strategies_or(vec![Strategy::SyncVanilla, Strategy::GoalAggrUnif])
    } else {
        args.strategies_or(Strategy::table1())
    };
    let rounds = args.rounds_or(if quick { 8 } else { 40 });

    fs::create_dir_all("results").expect("create results/");
    let mut jsonl = fs::File::create("results/monitor_rounds.jsonl").expect("create jsonl");
    let mut csv = fs::File::create("results/monitor_summary.csv").expect("create csv");
    writeln!(csv, "workload,strategy,counter,value").expect("write csv header");

    let mut snapshot = Snapshot::<BenchRow>::new("exp_monitor");
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut first_trace: Option<String> = None;

    for wl_name in &workload_names {
        let wl = workload_by_name(wl_name, seed);
        for &strat in &strategies {
            let mut cfg = strat.configure(&wl);
            cfg.target_accuracy = None;
            cfg.parallelism = args.threads_or(1);
            cfg.total_rounds = if strat.is_async() {
                rounds * (cfg.concurrency as u64) / (wl.aggregation_goal as u64).max(1)
            } else {
                rounds
            };
            let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
            let mut runner = wl
                .build(cfg)
                .with_monitor(MonitorHandle::from_shared(monitor.clone()));
            let report = runner.run();
            let mon = monitor.lock().unwrap_or_else(PoisonError::into_inner);

            // reconciliation: monitor byte counters must equal the
            // sim-charged totals, by construction
            assert_eq!(
                mon.counter(counters::UPLOADED_BYTES),
                report.uploaded_bytes,
                "{wl_name}/{}: uploaded bytes disagree",
                strat.label()
            );
            assert_eq!(
                mon.counter(counters::DOWNLOADED_BYTES),
                report.downloaded_bytes,
                "{wl_name}/{}: downloaded bytes disagree",
                strat.label()
            );
            mon.validate_nesting().unwrap_or_else(|e| {
                panic!("{wl_name}/{}: spans not well-nested: {e}", strat.label())
            });

            for r in mon.rounds() {
                let mut v = Serialize::to_value(r);
                if let serde::Value::Object(entries) = &mut v {
                    entries.insert(
                        0,
                        ("workload".into(), serde::Value::String(wl_name.clone())),
                    );
                    entries.insert(
                        1,
                        (
                            "strategy".into(),
                            serde::Value::String(strat.label().into()),
                        ),
                    );
                }
                let line = serde_json::to_string(&v).expect("serialize round line");
                writeln!(jsonl, "{line}").expect("write jsonl");
            }
            for (name, value) in mon.counters() {
                writeln!(csv, "{wl_name},{},{name},{value}", strat.label()).expect("write csv");
            }
            if first_trace.is_none() {
                first_trace = Some(chrome_trace_json(&mon));
            }

            let wall = mon.wall_secs().max(1e-9);
            let row = BenchRow {
                workload: wl_name.clone(),
                strategy: strat.label().to_string(),
                compressor: "none".to_string(),
                rounds: report.rounds,
                rounds_per_sec: report.rounds as f64 / wall,
                virtual_secs_to_target: report.time_to_accuracy(wl.target_accuracy).unwrap_or(-1.0),
                target_accuracy: f64::from(wl.target_accuracy),
                best_accuracy: f64::from(report.best_accuracy()),
                uploaded_bytes: report.uploaded_bytes,
                downloaded_bytes: report.downloaded_bytes,
                final_virtual_secs: report.final_time_secs,
            };
            table.push(vec![
                row.workload.clone(),
                row.strategy.clone(),
                row.rounds.to_string(),
                format!("{:.1}", row.rounds_per_sec),
                format!("{:.3}", row.best_accuracy),
                if row.virtual_secs_to_target >= 0.0 {
                    format!("{:.0}s", row.virtual_secs_to_target)
                } else {
                    "—".to_string()
                },
                row.uploaded_bytes.to_string(),
                row.downloaded_bytes.to_string(),
            ]);
            eprintln!(
                "  {wl_name:<8} {:<16} {} rounds, {:.1} rounds/s wall, best acc {:.3}",
                strat.label(),
                row.rounds,
                row.rounds_per_sec,
                row.best_accuracy
            );
            snapshot.rows.push(row);
        }
    }

    let trace = first_trace.expect("at least one grid cell ran");
    let n_events = validate_chrome_trace(&trace).expect("trace must validate");
    fs::write("results/trace_monitor.json", &trace).expect("write trace");

    snapshot.store(BENCH_PATH).expect("write bench snapshot");

    println!("\nexp_monitor grid (seed {seed}, {rounds} sync-equivalent rounds)\n");
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "strategy",
                "rounds",
                "rounds/s",
                "best acc",
                "t(target)",
                "up bytes",
                "down bytes"
            ],
            &table
        )
    );
    println!("wrote results/monitor_rounds.jsonl");
    println!("wrote results/monitor_summary.csv");
    println!("wrote results/trace_monitor.json ({n_events} events)");
    println!("wrote {BENCH_PATH} ({} rows)", snapshot.rows.len());
}
