//! Auto-tuning (§4.3): successive halving over an FL course's
//! hyperparameters, then FedEx adapting client-wise learning rates inside
//! the rounds.
//!
//! ```text
//! cargo run --release --example autotune
//! ```

use fedscope::autotune::objective::{FlObjective, Objective};
use fedscope::autotune::sha::successive_halving;
use fedscope::autotune::space::{Param, SearchSpace};
use fedscope::autotune::FedExHook;
use fedscope::core::config::FlConfig;
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::tensor::model::{logistic_regression, Model};
use fedscope::tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let data = twitter_like(&TwitterConfig {
        num_clients: 40,
        per_client: 16,
        ..Default::default()
    });
    let dim = data.input_dim();
    let base = FlConfig {
        concurrency: 20,
        batch_size: 4,
        sgd: SgdConfig::with_lr(0.1),
        seed: 6,
        ..Default::default()
    };
    let space = SearchSpace::new()
        .with(
            "lr",
            Param::Float {
                lo: 0.01,
                hi: 2.0,
                log: true,
            },
        )
        .with("local_steps", Param::Int { lo: 1, hi: 8 });

    // successive halving: 8 configurations, rungs of 3 rounds, keep half
    let mut obj = FlObjective::new(
        data.clone(),
        Arc::new(move |rng: &mut StdRng| {
            Box::new(logistic_regression(dim, 2, rng)) as Box<dyn Model>
        }),
        base.clone(),
    );
    let mut rng = StdRng::seed_from_u64(1);
    let outcome = successive_halving(&space, &mut obj, 8, 3, 2, &mut rng);
    println!(
        "SHA best config: lr={:.3}, local_steps={} -> val loss {:.4}",
        outcome.best_config["lr"], outcome.best_config["local_steps"], outcome.best_result.val_loss
    );
    println!("best-seen trace (rounds spent -> best val loss):");
    for p in outcome.trace.iter().step_by(4) {
        println!("  {:>4} -> {:.4}", p.cumulative_cost, p.best_val_loss);
    }

    // FedEx: client-wise exploration inside the rounds of one course
    let hook = FedExHook::new(0.2);
    let mut obj = FlObjective::new(
        data,
        Arc::new(move |rng: &mut StdRng| {
            Box::new(logistic_regression(dim, 2, rng)) as Box<dyn Model>
        }),
        base,
    );
    obj.trainer_hook = Some(hook.clone());
    let (result, _) = obj.run(&outcome.best_config, 15, None);
    println!(
        "\nFedEx run: val loss {:.4}, test acc {:.4}",
        result.val_loss, result.test_accuracy
    );
    let policy = hook.last_policy.lock().unwrap().clone();
    if let Some(policy) = policy {
        // the binding above clones the Arc out of the guard; no lock is held
        // here
        let probs = policy.lock().unwrap().probabilities();
        println!("FedEx arm probabilities after the course: {probs:?}");
    }
}
