//! **Figure 14** — auto-tuning: best-seen validation loss over budget for
//! RS, SHA, and their FedEx-wrapped variants on the FEMNIST-like dataset.
//!
//! Paper's shape: the FedEx-wrapped methods' best-seen validation losses
//! decrease *more slowly* than their wrappers (worse regret), yet the
//! searched configurations reach *better* final test accuracy — fine-grained
//! client-wise exploration pays off at evaluation time.
//!
//! Claims (EXPERIMENTS.md): RS+FedEx's best-seen validation loss is worse
//! than RS's (the slower-regret signature). Each FedEx variant reaching a
//! better final test accuracy than its wrapper is expected-partial: it does
//! not reproduce here, and the run fails if it starts to.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig14
//! ```

use fs_autotune::objective::{FlObjective, Objective};
use fs_autotune::rs::random_search;
use fs_autotune::sha::successive_halving;
use fs_autotune::space::{Param, SearchSpace};
use fs_autotune::FedExHook;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_core::config::FlConfig;
use fs_data::synth::{femnist_like, ImageConfig};
use fs_tensor::model::{mlp, Model};
use fs_tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct MethodTrace {
    method: String,
    /// (cumulative rounds, best-seen validation loss)
    trace: Vec<(u64, f64)>,
    best_val_loss: f64,
    /// Test accuracy of the best configuration re-trained at full budget.
    final_test_accuracy: f64,
}

fn make_objective(with_fedex: bool) -> FlObjective {
    let data = femnist_like(&ImageConfig {
        num_clients: 30,
        num_classes: 10,
        img: 8,
        per_client: 24,
        noise: 0.9,
        size_skew: 0.9,
        seed: 41,
    })
    .flattened();
    let dim = data.input_dim();
    let classes = data.num_classes;
    let base = FlConfig {
        concurrency: 20,
        local_steps: 4,
        batch_size: 16,
        sgd: SgdConfig::with_lr(0.1),
        seed: 41,
        ..Default::default()
    };
    let mut obj = FlObjective::new(
        data,
        Arc::new(move |rng: &mut StdRng| Box::new(mlp(&[dim, 32, classes], rng)) as Box<dyn Model>),
        base,
    );
    if with_fedex {
        obj.trainer_hook = Some(FedExHook::new(0.2));
    }
    obj
}

fn main() {
    let space = SearchSpace::new()
        .with(
            "lr",
            Param::Float {
                lo: 0.005,
                hi: 1.5,
                log: true,
            },
        )
        .with("local_steps", Param::Int { lo: 1, hi: 8 });
    let full_budget = 25u64;
    let mut results: Vec<MethodTrace> = Vec::new();

    let methods: Vec<(&str, bool, bool)> = vec![
        ("RS", false, false),
        ("SHA", true, false),
        ("RS+FedEx", false, true),
        ("SHA+FedEx", true, true),
    ];
    for (name, use_sha, use_fedex) in methods {
        let mut obj = make_objective(use_fedex);
        let mut rng = StdRng::seed_from_u64(5);
        let outcome = if use_sha {
            successive_halving(&space, &mut obj, 12, 4, 2, &mut rng)
        } else {
            random_search(&space, &mut obj, 12, 10, &mut rng)
        };
        // re-train the searched configuration at full budget for the legend's
        // test accuracy
        let (final_result, _) = obj.run(&outcome.best_config, full_budget, None);
        let trace: Vec<(u64, f64)> = outcome
            .trace
            .iter()
            .map(|p| (p.cumulative_cost, p.best_val_loss))
            .collect();
        eprintln!(
            "  {name}: best val loss {:.4}, final test acc {:.4} (lr={:.3}, steps={})",
            outcome.best_result.val_loss,
            final_result.test_accuracy,
            outcome.best_config["lr"],
            outcome.best_config["local_steps"],
        );
        results.push(MethodTrace {
            method: name.to_string(),
            trace,
            best_val_loss: outcome.best_result.val_loss,
            final_test_accuracy: final_result.test_accuracy,
        });
    }

    println!("\nFigure 14 — HPO methods on FEMNIST-like FedAvg\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                format!("{:.4}", r.best_val_loss),
                format!("{:.4}", r.final_test_accuracy),
                r.trace.last().map_or("0".into(), |p| p.0.to_string()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["method", "best val loss", "final test acc", "rounds spent"],
            &rows
        )
    );
    let path = write_json("fig14", &results).expect("write results");
    println!("wrote {path}");

    let [rs, sha, rs_fedex, sha_fedex] = &results[..] else {
        unreachable!("four methods ran")
    };
    check_claims(&[
        Claim::new(
            "Fig 14: RS+FedEx's best-seen validation loss is worse than RS's",
            rs_fedex.best_val_loss > rs.best_val_loss,
        ),
        Claim::partial(
            "Fig 14: each FedEx variant beats its wrapper's final test accuracy",
            rs_fedex.final_test_accuracy > rs.final_test_accuracy
                && sha_fedex.final_test_accuracy > sha.final_test_accuracy,
        ),
    ]);
}
