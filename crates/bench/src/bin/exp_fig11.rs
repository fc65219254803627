//! **Figure 11** — staleness distributions of aggregated updates under
//! different asynchronous strategies.
//!
//! Paper's shape: the *after-aggregating* broadcast manner produces lower
//! staleness than *after-receiving* (comparing `Goal-Aggr-Unif` with
//! `Goal-Rece-Unif`), because after-receiving keeps slow clients training on
//! models that age while they work.
//!
//! Claim (EXPERIMENTS.md): Goal-Aggr-Unif's mean staleness < Goal-Rece-Unif's.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig11
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{ascii_histogram, check_claims, percentile, write_json, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::femnist;
use serde::Serialize;

#[derive(Serialize)]
struct StalenessDist {
    strategy: String,
    histogram: Vec<usize>,
    mean: f64,
    p95: u64,
}

fn main() {
    ExpArgs::parse_none();
    let wl = femnist(7);
    let strategies = [
        Strategy::GoalAggrUnif,
        Strategy::GoalReceUnif,
        Strategy::TimeAggrUnif,
        Strategy::GoalAggrGroup,
    ];
    let mut dists = Vec::new();
    for strat in strategies {
        let mut cfg = strat.configure(&wl);
        cfg.target_accuracy = None;
        cfg.total_rounds = 120;
        let mut runner = wl.build(cfg);
        runner.run();
        let mut log = runner.server.state.ledger.staleness_log.clone();
        log.sort_unstable();
        let max = *log.last().unwrap_or(&0) as usize;
        let mut hist = vec![0usize; max + 1];
        for &s in &log {
            hist[s as usize] += 1;
        }
        let mean = log.iter().sum::<u64>() as f64 / log.len().max(1) as f64;
        let p95 = percentile(&log, 0.95);
        println!("\n{} — staleness of aggregated updates", strat.label());
        let buckets: Vec<(String, usize)> = hist
            .iter()
            .enumerate()
            .map(|(i, &c)| (i.to_string(), c))
            .collect();
        println!("{}", ascii_histogram(&buckets, 40));
        println!("mean = {mean:.2}, p95 = {p95}");
        dists.push(StalenessDist {
            strategy: strat.label().to_string(),
            histogram: hist,
            mean,
            p95,
        });
    }
    let mean_of = |label: &str| {
        dists
            .iter()
            .find(|d| d.strategy == label)
            .map(|d| d.mean)
            .unwrap_or(0.0)
    };
    println!(
        "\nafter-aggregating mean staleness {:.2} vs after-receiving {:.2} (paper: Aggr < Rece)",
        mean_of("Goal-Aggr-Unif"),
        mean_of("Goal-Rece-Unif"),
    );
    let path = write_json("fig11", &dists).expect("write results");
    println!("wrote {path}");

    check_claims(&[Claim::new(
        "Fig 11: Goal-Aggr-Unif's mean staleness < Goal-Rece-Unif's",
        mean_of("Goal-Aggr-Unif") < mean_of("Goal-Rece-Unif"),
    )]);
}
