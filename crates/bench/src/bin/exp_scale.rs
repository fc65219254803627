//! **Scale harness** — the persisted throughput baseline for million-client
//! courses.
//!
//! Sweeps client counts (default 10k → 1M, 100 rounds each) over a
//! femnist-style synthetic workload generated *on demand* — the data for a
//! client exists only while that client is materialized, which is the whole
//! point of building clients on demand. Each sweep point records wall-clock time,
//! events processed, `clients/sec`, `events/sec`, and the process peak RSS,
//! written to `results/scale.json` — the one results file that is wall
//! clock by nature. Whether the runner got slower is the course benchmark's
//! `scale_lr` workload, measured against the parent commit on the same host.
//!
//! Two claims close the run: every sweep point completes its rounds, and
//! peak RSS stays within [`MEM_BUDGET_MB`] — the acceptance bar for "a
//! million clients fit in memory".
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_scale
//! cargo run -p fs-bench --release --bin exp_scale -- --clients 10000,250k,1m
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_bench::sys::{peak_rss, peak_rss_mb};
use fs_core::config::FlConfig;
use fs_core::CourseBuilder;
use fs_data::{ClientData, ClientSplit};
use fs_tensor::loss::Target;
use fs_tensor::model::logistic_regression;
use fs_tensor::optim::SgdConfig;
use fs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Peak-RSS budget of the whole sweep, in MiB.
const MEM_BUDGET_MB: f64 = 4096.0;
/// Feature dimension of the synthetic femnist-style workload.
const DIM: usize = 64;
/// Class count of the synthetic workload.
const CLASSES: usize = 10;
/// Examples per client (8 train / 2 val / 2 test).
const PER_CLIENT: usize = 12;

/// Deterministic femnist-style split for client index `idx`: Gaussian-ish
/// clusters around per-class feature bumps, derived purely from
/// `(seed, idx)` so every materialization of the same client sees the same
/// data.
fn synth_split(seed: u64, idx: usize) -> ClientSplit {
    let mut rng =
        StdRng::seed_from_u64(seed ^ 0xda7a ^ (idx as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15));
    let mut xs = Vec::with_capacity(PER_CLIENT * DIM);
    let mut ys = Vec::with_capacity(PER_CLIENT);
    for _ in 0..PER_CLIENT {
        let c = rng.gen_range(0..CLASSES);
        for d in 0..DIM {
            let center: f32 = if d % CLASSES == c { 2.0 } else { 0.0 };
            xs.push(center + rng.gen_range(-0.5f32..0.5));
        }
        ys.push(c);
    }
    let all = ClientData {
        x: Tensor::from_vec(vec![PER_CLIENT, DIM], xs),
        y: Target::Classes(ys),
    };
    ClientSplit::from_fractions(&all, 8.0 / 12.0, 2.0 / 12.0)
}

/// One client-count sweep point of `results/scale.json`.
#[derive(Serialize)]
struct Row {
    clients: u64,
    rounds: u64,
    /// Simulation events processed (deliveries, batch members, timers).
    events: u64,
    /// Wall-clock seconds for the full course.
    wall_secs: f64,
    /// `clients / wall_secs` — the headline scale metric.
    clients_per_sec: f64,
    /// `events / wall_secs` — event-heap throughput.
    events_per_sec: f64,
    /// Peak resident set size in bytes (`VmHWM`), or 0 when the platform
    /// does not expose it. Measured once per process, so rows report the
    /// high-water mark *up to and including* their run.
    peak_rss_bytes: u64,
}

fn main() {
    let args = ExpArgs::parse();
    let seed = args.seed_or(7);
    let rounds = args.rounds_or(100);
    let clients_list = args.clients_or(&[10_000, 100_000, 1_000_000]);

    let mut rows: Vec<Row> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();

    for &n in &clients_list {
        let n_usize = n as usize;
        let cfg = FlConfig {
            total_rounds: rounds,
            concurrency: 100.min(n_usize),
            local_steps: 4,
            batch_size: 8,
            sgd: SgdConfig::with_lr(0.1),
            seed,
            ..Default::default()
        };
        let data_seed = seed;
        let mut runner = CourseBuilder::synthetic(
            n_usize,
            Arc::new(move |i| synth_split(data_seed, i)),
            Box::new(move |rng| Box::new(logistic_regression(DIM, CLASSES, rng))),
            cfg,
        )
        .build();
        let start = Instant::now();
        let report = runner.run();
        let wall_secs = start.elapsed().as_secs_f64();
        let events = runner.events_processed();
        let clients_per_sec = n as f64 / wall_secs;
        let events_per_sec = events as f64 / wall_secs;
        let rss = peak_rss().unwrap_or(0);
        let rss_label = peak_rss_mb().map_or_else(|| "n/a".to_string(), |mb| format!("{mb:.0}"));
        eprintln!(
            "  {n} clients x {rounds} rounds: {wall_secs:.2} s wall, {events} events \
             ({clients_per_sec:.0} clients/sec, {events_per_sec:.0} events/sec), \
             peak RSS {rss_label} MB"
        );
        table.push(vec![
            n.to_string(),
            rounds.to_string(),
            format!("{wall_secs:.2}"),
            format!("{clients_per_sec:.0}"),
            format!("{events_per_sec:.0}"),
            rss_label,
        ]);
        rows.push(Row {
            clients: n,
            rounds: report.rounds,
            events,
            wall_secs,
            clients_per_sec,
            events_per_sec,
            peak_rss_bytes: rss,
        });
    }

    println!(
        "{}",
        render_table(
            &[
                "clients",
                "rounds",
                "wall s",
                "clients/sec",
                "events/sec",
                "peak RSS MB"
            ],
            &table
        )
    );

    let path = write_json("scale", &rows).expect("write results");
    println!("wrote {path}: {} rows", rows.len());

    check_claims(&[
        Claim::new(
            "scale: every sweep point completes its rounds",
            rows.iter().all(|r| r.rounds == rounds),
        ),
        // the high-water mark only rises, so one read after the sweep covers
        // every point; a platform without `VmHWM` has nothing to check
        Claim::new(
            format!("scale: peak RSS stays within {MEM_BUDGET_MB} MiB"),
            peak_rss_mb().is_none_or(|mb| mb <= MEM_BUDGET_MB),
        ),
    ]);
}
