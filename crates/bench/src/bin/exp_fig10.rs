//! **Figure 10** — distribution of per-client *effective aggregation counts*
//! on the FEMNIST-like dataset.
//!
//! Paper's shape: under `Sync-OS` some clients **never** contribute
//! (`Pr[count = 0] > 0` — the perpetual victims of over-selection), while
//! vanilla sync and the asynchronous strategies produce concentrated
//! distributions with no starved clients.
//!
//! Claims (EXPERIMENTS.md): Sync-OS starves at least as many clients as
//! Sync-vanilla, and async (Goal-Aggr-Unif) starves none.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig10
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{ascii_histogram, check_claims, write_json, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::femnist;
use serde::Serialize;

#[derive(Serialize)]
struct Dist {
    strategy: String,
    /// count histogram: index = effective aggregation count bucket
    histogram: Vec<usize>,
    fraction_starved: f64,
}

fn main() {
    ExpArgs::parse_none();
    // a larger fleet than Table 1 so that each client is sampled only a
    // handful of times (the paper samples 130 of 3,597 writers) — this is
    // what exposes over-selection's perpetual victims
    let mut wl = femnist(7);
    wl.dataset = fs_data::synth::femnist_like(&fs_data::synth::ImageConfig {
        num_clients: 150,
        num_classes: 10,
        img: 8,
        per_client: 20,
        noise: 0.35,
        size_skew: 0.0,
        seed: 7,
    });
    // moderate heterogeneity: over-selection victims are the bottom ~quarter
    // of each *sample* (not an extreme tail), while async staleness stays
    // within the tolerance — exactly the paper's operating point
    wl.fleet_cfg.num_clients = 150;
    wl.fleet_cfg.speed_sigma = 1.0;
    wl.base_cfg.concurrency = 25;
    wl.aggregation_goal = 12;
    let n_clients = wl.dataset.num_clients();
    let strategies = [
        Strategy::SyncVanilla,
        Strategy::SyncOverSelection,
        Strategy::GoalAggrUnif,
    ];
    let mut dists = Vec::new();
    for strat in strategies {
        let mut cfg = strat.configure(&wl);
        cfg.target_accuracy = None;
        cfg.total_rounds = if strat.is_async() { 100 } else { 40 };
        let mut runner = wl.build(cfg);
        runner.run();
        let counts: Vec<u64> = (1..=n_clients as u32)
            .map(|c| {
                runner
                    .server
                    .state
                    .ledger
                    .agg_count
                    .get(&c)
                    .copied()
                    .unwrap_or(0)
            })
            .collect();
        let max = *counts.iter().max().unwrap_or(&0) as usize;
        let mut hist = vec![0usize; max + 1];
        for &c in &counts {
            hist[c as usize] += 1;
        }
        let starved = counts.iter().filter(|&&c| c == 0).count() as f64 / n_clients as f64;
        println!(
            "\n{} — effective aggregation count per client",
            strat.label()
        );
        let buckets: Vec<(String, usize)> = hist
            .iter()
            .enumerate()
            .map(|(i, &c)| (i.to_string(), c))
            .collect();
        println!("{}", ascii_histogram(&buckets, 40));
        println!("Pr[count = 0] = {starved:.3}");
        dists.push(Dist {
            strategy: strat.label().to_string(),
            histogram: hist,
            fraction_starved: starved,
        });
    }
    let starved = |label: &str| {
        dists
            .iter()
            .find(|d| d.strategy == label)
            .map(|d| d.fraction_starved)
            .unwrap_or(0.0)
    };
    println!(
        "\nSync-OS starves {:.1}% of clients; vanilla {:.1}%; async {:.1}%",
        100.0 * starved("Sync-OS"),
        100.0 * starved("Sync-vanilla"),
        100.0 * starved("Goal-Aggr-Unif"),
    );
    let path = write_json("fig10", &dists).expect("write results");
    println!("wrote {path}");

    check_claims(&[
        Claim::new(
            "Fig 10: Sync-OS starves at least as many clients as Sync-vanilla",
            starved("Sync-OS") >= starved("Sync-vanilla"),
        ),
        Claim::new(
            "Fig 10: async (Goal-Aggr-Unif) starves no client",
            starved("Goal-Aggr-Unif") == 0.0,
        ),
    ]);
}
