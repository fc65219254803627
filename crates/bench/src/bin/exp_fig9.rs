//! **Figure 9** — learning curves (global test accuracy vs virtual time) for
//! synchronous vs asynchronous strategies on the CIFAR-like dataset.
//!
//! Paper's shape: asynchronous curves sit clearly above the synchronous ones
//! for most of the course (a long-lived gap), converging to similar accuracy.
//!
//! Claim (EXPERIMENTS.md): at 8% of the sync course's virtual duration every
//! async strategy is more accurate than Sync-vanilla.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig9 -- [--seed N] [--rounds N]
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, write_json, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::cifar;
use serde::Serialize;

#[derive(Serialize)]
struct Curve {
    strategy: String,
    points: Vec<(f64, f32)>, // (virtual seconds, accuracy)
}

fn main() {
    let args = ExpArgs::parse();
    let wl = cifar(args.seed_or(7));
    let strategies = [
        Strategy::SyncVanilla,
        Strategy::SyncOverSelection,
        Strategy::GoalAggrUnif,
        Strategy::GoalReceUnif,
        Strategy::TimeAggrUnif,
    ];
    let mut curves = Vec::new();
    for strat in strategies {
        let mut cfg = strat.configure(&wl);
        cfg.target_accuracy = None;
        cfg.parallelism = args.threads_or(1);
        let sync_rounds = args.rounds_or(50);
        cfg.total_rounds = if strat.is_async() {
            sync_rounds * 3
        } else {
            sync_rounds
        };
        let mut runner = wl.build(cfg);
        let report = runner.run();
        let points: Vec<(f64, f32)> = report
            .history
            .iter()
            .map(|r| (r.time_secs, r.metrics.accuracy))
            .collect();
        println!("{}:", strat.label());
        for &(t, a) in points.iter().step_by((points.len() / 8).max(1)) {
            println!("  t={t:>8.1}s acc={a:.3}");
        }
        curves.push(Curve {
            strategy: strat.label().to_string(),
            points,
        });
    }
    // the paper's headline observation: a noticeable accuracy gap at equal
    // virtual time for a long stretch of training
    let probe_time = curves[0].points.last().map(|p| p.0 * 0.08).unwrap_or(100.0);
    let acc_at = |c: &Curve| {
        c.points
            .iter()
            .take_while(|p| p.0 <= probe_time)
            .last()
            .map(|p| p.1)
            .unwrap_or(0.0)
    };
    println!("\naccuracy at t={probe_time:.0}s (8% of the sync course):");
    for c in &curves {
        println!("  {:<18} {:.3}", c.strategy, acc_at(c));
    }
    let path = write_json("fig9", &curves).expect("write results");
    println!("wrote {path}");

    let sync = acc_at(&curves[0]);
    check_claims(&[Claim::new(
        "Fig 9: every async strategy beats Sync-vanilla at 8% of the sync course",
        strategies
            .iter()
            .zip(&curves)
            .filter(|(s, _)| s.is_async())
            .all(|(_, c)| acc_at(c) > sync),
    )]);
}
