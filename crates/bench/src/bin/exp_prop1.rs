//! **Proposition 1** (§3.3.3) — empirical validation of the asynchronous
//! convergence bound.
//!
//! The proposition states, for an L-smooth µ-strongly-convex objective with
//! `0 < µQη < 1`:
//!
//! ```text
//! E[F(θ_T) − F*] ≤ (1 − µQη)^T E[F(θ_0) − F*]
//!                + (3LQη/µ)(σl²+σg²+C) [ ηQL(τ_max²+1) + 1/2 ]
//! ```
//!
//! i.e. (a) geometric convergence toward (b) an error floor that grows with
//! the maximum staleness τ_max. We run asynchronous FedAvg-style updates
//! (Eq. 5: clients take Q local SGD steps from a staled iterate) on a
//! strongly-convex quadratic federation and verify both parts: a log-linear
//! early phase and a floor monotone in τ_max.
//!
//! Claims (EXPERIMENTS.md): the error floor rises monotonically with τ_max,
//! and the synchronous run's equal-span gap ratios are both < 1.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_prop1
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::Serialize;

const DIM: usize = 8;
const M_CLIENTS: usize = 10;
const Q: usize = 4;
const ETA: f64 = 0.02;

/// Client i's objective: F_i(θ) = 1/2 (θ − b_i)ᵀ A_i (θ − b_i), with A_i
/// diagonal positive — µ-strongly convex and L-smooth by construction.
struct Client {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Client {
    /// Stochastic gradient at θ: exact gradient plus Gaussian noise (σl).
    fn grad(&self, theta: &[f64], rng: &mut StdRng) -> Vec<f64> {
        let noise = Normal::new(0.0, 0.05).expect("valid");
        theta
            .iter()
            .zip(&self.a)
            .zip(&self.b)
            .map(|((&t, &a), &b)| a * (t - b) + noise.sample(rng))
            .collect()
    }
}

fn global_optimum(clients: &[Client]) -> Vec<f64> {
    // F = mean of quadratics: optimum solves (Σ A_i) θ = Σ A_i b_i
    (0..DIM)
        .map(|d| {
            let num: f64 = clients.iter().map(|c| c.a[d] * c.b[d]).sum();
            let den: f64 = clients.iter().map(|c| c.a[d]).sum();
            num / den
        })
        .collect()
}

fn objective(clients: &[Client], theta: &[f64]) -> f64 {
    clients
        .iter()
        .map(|c| {
            0.5 * theta
                .iter()
                .zip(&c.a)
                .zip(&c.b)
                .map(|((&t, &a), &b)| a * (t - b) * (t - b))
                .sum::<f64>()
        })
        .sum::<f64>()
        / clients.len() as f64
}

/// Runs T rounds of Eq. (5): every round, each participating client starts
/// from the iterate that is `τ ~ U{0..τ_max}` versions old, takes Q SGD
/// steps, and the server averages the deltas.
fn run_async(clients: &[Client], tau_max: usize, t_rounds: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut theta = vec![0.0f64; DIM];
    let mut history: Vec<Vec<f64>> = vec![theta.clone()];
    let mut gaps = Vec::with_capacity(t_rounds);
    let f_star = objective(clients, &global_optimum(clients));
    for _ in 0..t_rounds {
        let mut delta = vec![0.0f64; DIM];
        for c in clients {
            // staled start iterate
            let tau = if tau_max == 0 {
                0
            } else {
                rng.gen_range(0..=tau_max)
            };
            let idx = history.len().saturating_sub(1 + tau);
            let mut local = history[idx].clone();
            for _ in 0..Q {
                let g = c.grad(&local, &mut rng);
                for (l, gi) in local.iter_mut().zip(&g) {
                    *l -= ETA * gi;
                }
            }
            let start = &history[idx];
            for ((d, l), s) in delta.iter_mut().zip(&local).zip(start) {
                *d += (l - s) / M_CLIENTS as f64;
            }
        }
        for (t, d) in theta.iter_mut().zip(&delta) {
            *t += d;
        }
        history.push(theta.clone());
        if history.len() > 64 {
            history.remove(0);
        }
        gaps.push(objective(clients, &theta) - f_star);
    }
    gaps
}

#[derive(Serialize)]
struct Prop1Result {
    tau_max: usize,
    final_gap: f64,
    /// gap at a quarter of the course — used for the geometric-phase check
    quarter_gap: f64,
    gaps: Vec<f64>,
}

fn main() {
    ExpArgs::parse_none();
    let mut rng = StdRng::seed_from_u64(3);
    let clients: Vec<Client> = (0..M_CLIENTS)
        .map(|_| Client {
            a: (0..DIM).map(|_| 0.5 + rng.gen::<f64>()).collect(), // µ ≥ 0.5, L ≤ 1.5
            b: (0..DIM).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect(),
        })
        .collect();
    let t_rounds = 400;
    let mut results = Vec::new();
    for tau_max in [0usize, 4, 16, 48] {
        // average the floor over a few seeds for stability
        let mut final_gap = 0.0;
        let mut quarter_gap = 0.0;
        let mut gaps = Vec::new();
        let seeds = 5;
        for s in 0..seeds {
            let g = run_async(&clients, tau_max, t_rounds, 100 + s);
            final_gap += g[t_rounds - 50..].iter().sum::<f64>() / 50.0 / seeds as f64;
            quarter_gap += g[t_rounds / 4] / seeds as f64;
            if s == 0 {
                gaps = g;
            }
        }
        eprintln!("  tau_max={tau_max}: floor {final_gap:.6}, quarter {quarter_gap:.6}");
        results.push(Prop1Result {
            tau_max,
            final_gap,
            quarter_gap,
            gaps,
        });
    }
    println!(
        "\nProposition 1 — error floor vs maximum staleness (µQη = {:.3} < 1)\n",
        0.5 * Q as f64 * ETA
    );
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.tau_max.to_string(),
                format!("{:.6}", r.quarter_gap),
                format!("{:.6}", r.final_gap),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["tau_max", "gap @ T/4", "floor (last 50 rounds)"], &rows)
    );
    // geometric phase: the synchronous run's early gaps decay log-linearly
    let sync = &results[0].gaps;
    let ratio1 = sync[40] / sync[20];
    let ratio2 = sync[60] / sync[40];
    println!(
        "geometric-decay check (sync): gap ratios over equal spans {:.3} vs {:.3}",
        ratio1, ratio2
    );
    let path = write_json("prop1", &results).expect("write results");
    println!("wrote {path}");

    check_claims(&[
        Claim::new(
            "Prop 1: the error floor rises monotonically with tau_max",
            results.windows(2).all(|w| w[0].final_gap < w[1].final_gap),
        ),
        Claim::new(
            "Prop 1: the sync run's equal-span gap ratios are < 1",
            ratio1 < 1.0 && ratio2 < 1.0,
        ),
    ]);
}
