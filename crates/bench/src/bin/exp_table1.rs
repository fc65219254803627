//! **Table 1** — synchronous vs asynchronous training strategies: virtual
//! time (hours) to reach the target test accuracy on the three benchmark
//! datasets, with the speedup factor over `Sync-vanilla`.
//!
//! Paper's shape: `Sync-OS` ≈ 2.1–2.5× faster than vanilla; asynchronous
//! strategies ≈ 5–19× faster, with `Goal-Aggr-Group` the best on FEMNIST and
//! `Time-Aggr-Unif` the best on Twitter.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_table1 -- [--seed N] [--workloads a,b]
//! ```
//!
//! `--topology hier:TxF` re-runs the table over that topology (a lossless
//! hierarchy reproduces the star's numbers bit for bit). `--topology
//! gossip:D` is refused with exit 2: gossip has no server and ignores the
//! strategy (`FSV055`), so every strategy would run the same serverless
//! course and the strategy claims could not hold.
//!
//! Claims (EXPERIMENTS.md): per dataset, 1 < Sync-OS's speedup < every
//! async speedup; Goal-Aggr-Group is the best strategy on FEMNIST.

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::{workload_by_name, Workload};
use fs_net::Topology;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    dataset: String,
    target_accuracy: f32,
    strategy: String,
    hours_to_target: Option<f64>,
    speedup_vs_sync: Option<f64>,
    rounds: u64,
    dropped_updates: u64,
}

fn run_workload(wl: &Workload, threads: usize, topology: Topology, rows: &mut Vec<Row>) {
    let mut sync_hours: Option<f64> = None;
    for strat in Strategy::table1() {
        let mut cfg = strat.configure(wl);
        cfg.target_accuracy = Some(wl.target_accuracy);
        cfg.parallelism = threads;
        cfg.topology = topology;
        let report = wl
            .build(cfg)
            .try_run()
            .unwrap_or_else(|e| panic!("{} under {topology}: {e}", wl.name));
        let hours = report
            .time_to_accuracy(wl.target_accuracy)
            .map(|s| s / 3600.0);
        if strat == Strategy::SyncVanilla {
            sync_hours = hours;
        }
        let speedup = match (sync_hours, hours) {
            (Some(s), Some(h)) if h > 0.0 => Some(s / h),
            _ => None,
        };
        eprintln!(
            "  {} / {}: {:?} h (rounds {})",
            wl.name,
            strat.label(),
            hours,
            report.rounds
        );
        rows.push(Row {
            dataset: wl.name.to_string(),
            target_accuracy: wl.target_accuracy,
            strategy: strat.label().to_string(),
            hours_to_target: hours,
            speedup_vs_sync: speedup,
            rounds: report.rounds,
            dropped_updates: report.dropped_updates,
        });
    }
}

fn main() {
    let args = ExpArgs::parse();
    let seed = args.seed_or(7);
    let topology = args.topology_or(Topology::Star);
    if matches!(topology, Topology::Gossip { .. }) {
        eprintln!("error: Table 1 compares server strategies; gossip has no server to run them");
        std::process::exit(2);
    }
    let mut rows = Vec::new();
    for name in args.workloads_or(&["femnist", "cifar", "twitter"]) {
        let wl = workload_by_name(&name, seed);
        eprintln!("== {} (target {:.0}%)", wl.name, wl.target_accuracy * 100.0);
        run_workload(&wl, args.threads_or(1), topology, &mut rows);
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.clone(),
                format!("{:.0}%", r.target_accuracy * 100.0),
                r.strategy.clone(),
                r.hours_to_target.map_or("—".into(), |h| format!("{h:.3}")),
                r.speedup_vs_sync.map_or("—".into(), |s| format!("{s:.2}x")),
                r.rounds.to_string(),
                r.dropped_updates.to_string(),
            ]
        })
        .collect();
    println!("\nTable 1 — virtual time (hours) to target accuracy\n");
    println!(
        "{}",
        render_table(
            &["dataset", "target", "strategy", "hours", "speedup", "rounds", "dropped"],
            &table
        )
    );
    let path = write_json("table1", &rows).expect("write results");
    println!("wrote {path}");

    // speedups in `Strategy::table1()` order: vanilla, OS, then the four
    // async strategies with Goal-Aggr-Group last; a strategy that never
    // reaches the target has no speedup, and 0 fails every comparison
    let mut claims = Vec::new();
    for per_dataset in rows.chunks(Strategy::table1().len()) {
        let dataset = &per_dataset[0].dataset;
        let speedup: Vec<f64> = per_dataset
            .iter()
            .map(|r| r.speedup_vs_sync.unwrap_or(0.0))
            .collect();
        let (os, group) = (speedup[1], speedup[5]);
        claims.push(Claim::new(
            format!("Table 1: {dataset}: 1 < Sync-OS speedup < every async speedup"),
            1.0 < os && speedup[2..].iter().all(|&a| os < a),
        ));
        if dataset == "FEMNIST-like" {
            claims.push(Claim::new(
                "Table 1: FEMNIST-like: Goal-Aggr-Group is the best strategy",
                speedup[..5].iter().all(|&s| s < group),
            ));
        }
    }
    check_claims(&claims);
}
