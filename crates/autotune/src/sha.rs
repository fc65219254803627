//! Successive halving (SHA) — multi-fidelity HPO.
//!
//! SHA evaluates many configurations at a small budget, keeps the best
//! `1/eta` fraction, and resumes the survivors *from their checkpoints* at a
//! larger budget (the checkpoint mechanism of §4.3).

use crate::objective::{Checkpoint, Objective, TrialResult};
use crate::rs::{BestSeen, SearchOutcome};
use crate::space::{Config, SearchSpace};
use rand::Rng;

/// Runs successive halving.
///
/// * `n_initial` — configurations sampled at the first rung;
/// * `rung_budget` — rounds added at every rung;
/// * `eta` — the keep fraction denominator (keep `ceil(n/eta)` per rung).
pub fn successive_halving(
    space: &SearchSpace,
    objective: &mut dyn Objective,
    n_initial: usize,
    rung_budget: u64,
    eta: usize,
    rng: &mut impl Rng,
) -> SearchOutcome {
    assert!(n_initial >= 1 && eta >= 2, "need n >= 1 and eta >= 2");
    let mut population: Vec<(Config, Option<Checkpoint>, TrialResult)> = (0..n_initial)
        .map(|_| {
            (
                space.sample(rng),
                None,
                TrialResult {
                    val_loss: f64::INFINITY,
                    test_accuracy: 0.0,
                    cost: 0,
                },
            )
        })
        .collect();
    let mut trace: Vec<BestSeen> = Vec::new();
    let mut spent = 0u64;
    let mut best_seen = f64::INFINITY;
    while !population.is_empty() {
        // evaluate every member at this rung, resuming from its checkpoint
        for (cfg, ck, result) in &mut population {
            let (r, new_ck) = objective.run(cfg, rung_budget, ck.as_ref());
            spent += r.cost;
            best_seen = best_seen.min(r.val_loss);
            *result = r;
            *ck = Some(new_ck);
            trace.push(BestSeen {
                cumulative_cost: spent,
                best_val_loss: best_seen,
            });
        }
        if population.len() == 1 {
            break;
        }
        // keep the best ceil(n/eta)
        population.sort_by(|a, b| a.2.val_loss.partial_cmp(&b.2.val_loss).expect("finite"));
        let keep = population.len().div_ceil(eta);
        population.truncate(keep);
    }
    let (best_config, _, best_result) = population.into_iter().next().expect("non-empty");
    SearchOutcome {
        best_config,
        best_result,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::QuadraticObjective;
    use crate::space::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::new().with(
            "lr",
            Param::Float {
                lo: 0.01,
                hi: 1.0,
                log: false,
            },
        )
    }

    #[test]
    fn sha_converges_to_one_survivor() {
        let mut obj = QuadraticObjective;
        let mut rng = StdRng::seed_from_u64(0);
        let out = successive_halving(&space(), &mut obj, 16, 3, 2, &mut rng);
        assert!(
            (out.best_config["lr"] - 0.3).abs() < 0.25,
            "best {}",
            out.best_config["lr"]
        );
        // survivors got more budget than first-rung losers
        assert!(out.best_result.cost > 0);
    }

    #[test]
    fn sha_spends_less_than_full_random_search() {
        // 16 configs, 4 rungs of 3 rounds: SHA spends (16+8+4+2+1)*3 < 16*12
        let mut obj = QuadraticObjective;
        let mut rng = StdRng::seed_from_u64(1);
        let out = successive_halving(&space(), &mut obj, 16, 3, 2, &mut rng);
        let total = out.trace.last().unwrap().cumulative_cost;
        assert!(total < 16 * 12, "sha spent {total}");
    }
}
