//! **fs-monitor harness** — runs the strategy × workload grid with a
//! recording monitor attached and emits every observability artifact:
//!
//! * `results/monitor_rounds.jsonl` — one JSON object per evaluated round,
//!   tagged with its grid cell;
//! * `results/monitor_summary.csv` — every counter of every cell
//!   (`workload,strategy,counter,value`);
//! * `results/trace_monitor.json` — Chrome trace-event JSON of the first
//!   cell, loadable in `chrome://tracing` / Perfetto;
//! * `results/monitor.json` — one row per cell: virtual time to target
//!   accuracy, best accuracy, bytes on wire. The wall-clock rate
//!   (rounds/sec) is printed in the table only, so the file is a pure
//!   function of the code.
//!
//! Two claims close the run: every cell's monitor byte counters equal the
//! runner's sim-charged totals exactly, and every cell's dispatch spans are
//! well-nested.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_monitor
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::workload_by_name;
use fs_monitor::trace::{chrome_trace_json, validate_chrome_trace};
use fs_monitor::{counters, MonitorHandle, RecordingMonitor};
use serde::Serialize;
use std::fs;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// One strategy × workload cell of `results/monitor.json`.
#[derive(Serialize)]
struct Row {
    workload: String,
    strategy: String,
    compressor: String,
    rounds: u64,
    /// Virtual seconds when the target accuracy was first reached
    /// (negative when the target was never reached).
    virtual_secs_to_target: f64,
    target_accuracy: f64,
    best_accuracy: f64,
    uploaded_bytes: u64,
    downloaded_bytes: u64,
    final_virtual_secs: f64,
}

fn main() {
    let args = ExpArgs::parse();
    let seed = args.seed_or(7);
    let workload_names = args.workloads_or(&["femnist", "cifar", "twitter"]);
    let strategies = args.strategies_or(Strategy::table1());
    let rounds = args.rounds_or(40);

    fs::create_dir_all("results").expect("create results/");
    let mut jsonl = fs::File::create("results/monitor_rounds.jsonl").expect("create jsonl");
    let mut csv = fs::File::create("results/monitor_summary.csv").expect("create csv");
    writeln!(csv, "workload,strategy,counter,value").expect("write csv header");

    let mut rows: Vec<Row> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut first_trace: Option<String> = None;
    let (mut reconciled, mut nested) = (true, true);

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
            reconciled &= mon.counter(counters::UPLOADED_BYTES) == report.uploaded_bytes
                && mon.counter(counters::DOWNLOADED_BYTES) == report.downloaded_bytes;
            let nesting = mon.validate_nesting();
            if let Err(e) = &nesting {
                eprintln!("  {wl_name}/{}: spans not well-nested: {e}", strat.label());
            }
            nested &= nesting.is_ok();

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

            let rounds_per_sec = report.rounds as f64 / mon.wall_secs().max(1e-9);
            let row = Row {
                workload: wl_name.clone(),
                strategy: strat.label().to_string(),
                compressor: "none".to_string(),
                rounds: report.rounds,
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
                format!("{rounds_per_sec:.1}"),
                format!("{:.3}", row.best_accuracy),
                if row.virtual_secs_to_target >= 0.0 {
                    format!("{:.0}s", row.virtual_secs_to_target)
                } else {
                    "—".to_string()
                },
                row.uploaded_bytes.to_string(),
                row.downloaded_bytes.to_string(),
            ]);
            rows.push(row);
        }
    }

    let trace = first_trace.expect("at least one grid cell ran");
    let n_events = validate_chrome_trace(&trace).expect("trace must validate");
    fs::write("results/trace_monitor.json", &trace).expect("write trace");
    let path = write_json("monitor", &rows).expect("write results");

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
    println!("wrote {path} ({} rows)", rows.len());

    check_claims(&[
        Claim::new(
            "monitor: every cell's byte counters equal the sim-charged totals",
            reconciled,
        ),
        Claim::new(
            "monitor: every cell's dispatch spans are well-nested",
            nested,
        ),
    ]);
}
