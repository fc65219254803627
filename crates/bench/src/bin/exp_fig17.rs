//! **Figure 17** (Appendix I) — the extended asynchronous strategy family on
//! all three benchmark datasets: learning curves and time-to-target summary.
//!
//! Paper's shape: every asynchronous variant beats the synchronous baselines;
//! no single sampler dominates ("no free lunch" — the effectiveness of
//! sampling strategies is case-dependent).
//!
//! Claims (EXPERIMENTS.md): every async variant beats both sync baselines on
//! every dataset, and no strategy is strictly best on all three.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig17 -- [--seed N] [--strategies a,b]
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::{cifar, femnist, twitter};
use serde::Serialize;

#[derive(Serialize)]
struct CurveSet {
    dataset: String,
    strategy: String,
    points: Vec<(f64, f32)>,
    hours_to_target: Option<f64>,
}

fn main() {
    let args = ExpArgs::parse();
    let seed = args.seed_or(7);
    let strategies = args.strategies_or(Strategy::fig17());
    let mut all = Vec::new();
    let mut rows = Vec::new();
    for wl in [femnist(seed), cifar(seed), twitter(seed)] {
        for &strat in &strategies {
            let mut cfg = strat.configure(&wl);
            cfg.target_accuracy = Some(wl.target_accuracy);
            cfg.parallelism = args.threads_or(1);
            let mut runner = wl.build(cfg);
            let report = runner.run();
            let hours = report
                .time_to_accuracy(wl.target_accuracy)
                .map(|s| s / 3600.0);
            eprintln!("  {} / {}: {:?} h", wl.name, strat.label(), hours);
            rows.push(vec![
                wl.name.to_string(),
                strat.label().to_string(),
                hours.map_or("—".into(), |h| format!("{h:.4}")),
            ]);
            all.push(CurveSet {
                dataset: wl.name.to_string(),
                strategy: strat.label().to_string(),
                points: report
                    .history
                    .iter()
                    .map(|r| (r.time_secs, r.metrics.accuracy))
                    .collect(),
                hours_to_target: hours,
            });
        }
    }
    println!("\nFigure 17 — extended async strategy family, time to target (hours)\n");
    println!("{}", render_table(&["dataset", "strategy", "hours"], &rows));
    let path = write_json("fig17", &all).expect("write results");
    println!("wrote {path}");

    // hours per (dataset, strategy); a course that misses its target takes
    // forever
    let hours: Vec<Vec<f64>> = all
        .chunks(strategies.len())
        .map(|c| {
            c.iter()
                .map(|c| c.hours_to_target.unwrap_or(f64::INFINITY))
                .collect()
        })
        .collect();
    let is_async: Vec<bool> = strategies.iter().map(|s| s.is_async()).collect();
    let async_beats_sync = hours.iter().all(|h| {
        (0..h.len()).all(|a| !is_async[a] || (0..h.len()).all(|s| is_async[s] || h[a] < h[s]))
    });
    // the strategy strictly faster than every other on one dataset, if any
    let winners: Vec<Option<usize>> = hours
        .iter()
        .map(|h| (0..h.len()).find(|&w| (0..h.len()).all(|o| o == w || h[w] < h[o])))
        .collect();
    let one_winner = winners[0].is_some() && winners.iter().all(|w| *w == winners[0]);
    check_claims(&[
        Claim::new(
            "Fig 17: every async variant beats both sync baselines on every dataset",
            async_beats_sync,
        ),
        Claim::new(
            "Fig 17: no strategy is strictly best on all three datasets",
            !one_winner,
        ),
    ]);
}
