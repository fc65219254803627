//! **Robustness matrix** (§3.6 "Robustness Against Malicious Participants")
//! — not a numbered figure in the paper, but the paper ships Byzantine fault
//! tolerance as a first-class feature, so this harness quantifies it: every
//! provided aggregation rule against every provided model-poisoning attack.
//!
//! Expected shape: plain FedAvg collapses under boosted attacks; Krum,
//! coordinate-median, trimmed-mean, and norm-bounding all hold the line, at
//! a small cost in clean accuracy.
//!
//! Claim (EXPERIMENTS.md): under model replacement, FedAvg's accuracy is
//! below every robust rule's.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_byzantine
//! ```

use fs_attack::backdoor::label_flip;
use fs_attack::malicious::{AttackMode, MaliciousTrainer};
use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_core::aggregator::{Aggregator, CoordinateMedian, FedAvg, Krum, NormBounded, TrimmedMean};
use fs_core::config::FlConfig;
use fs_core::course::CourseBuilder;
use fs_core::trainer::{share_all, LocalTrainer, TrainConfig};
use fs_data::synth::{twitter_like, TwitterConfig};
use fs_tensor::model::{logistic_regression, Model};
use fs_tensor::optim::SgdConfig;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    aggregator: String,
    attack: String,
    accuracy: f32,
}

fn make_aggregator(name: &str) -> Box<dyn Aggregator> {
    match name {
        "fedavg" => Box::new(FedAvg::new(0.0)),
        "multi-krum" => Box::new(Krum::multi(2, 6)),
        "median" => Box::new(CoordinateMedian),
        "trimmed-mean" => Box::new(TrimmedMean { trim: 0.2 }),
        "norm-bounded" => Box::new(NormBounded::new(2.0, Box::new(FedAvg::new(0.0)))),
        other => panic!("unknown aggregator {other}"),
    }
}

/// Runs a 12-client course where clients 0 and 1 run `attack`; returns the
/// final global test accuracy.
fn run(agg_name: &str, attack: &str) -> f32 {
    let data = twitter_like(&TwitterConfig {
        num_clients: 12,
        per_client: 80,
        seed: 7,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 40,
        concurrency: 12,
        local_steps: 6,
        batch_size: 4,
        sgd: SgdConfig::with_lr(0.5),
        eval_every: 5,
        seed: 7,
        ..Default::default()
    };
    let attack = attack.to_string();
    let mut runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)) as Box<dyn Model>),
        cfg,
    )
    .aggregator(make_aggregator(agg_name))
    .trainer_factory(Box::new(move |i, model, mut split, cfg| {
        let malicious = i < 2 && attack != "none";
        if malicious {
            // all attacks train on flipped labels (swap 0 <-> 1)
            label_flip(&mut split.train, 1, 2);
            label_flip(&mut split.train, 0, 1);
            label_flip(&mut split.train, 2, 0);
        }
        let inner = LocalTrainer::new(
            model,
            split,
            TrainConfig {
                local_steps: cfg.local_steps,
                batch_size: cfg.batch_size,
                sgd: cfg.sgd,
            },
            share_all(),
            cfg.seed ^ (i as u64 + 1),
        );
        if malicious && attack == "replacement" {
            Box::new(MaliciousTrainer::new(
                inner,
                AttackMode::ModelReplacement { n_participants: 12 },
                cfg.seed ^ (0xbad + i as u64),
            ))
        } else {
            Box::new(inner)
        }
    }))
    .build();
    let report = runner.run();
    report
        .history
        .last()
        .map(|r| r.metrics.accuracy)
        .unwrap_or(0.0)
}

fn main() {
    ExpArgs::parse_none();
    let aggregators = [
        "fedavg",
        "multi-krum",
        "median",
        "trimmed-mean",
        "norm-bounded",
    ];
    let attacks = ["none", "label-flip", "replacement"];
    let mut cells = Vec::new();
    for agg in aggregators {
        for attack in attacks {
            let acc = run(agg, attack);
            eprintln!("  {agg} vs {attack}: {acc:.4}");
            cells.push(Cell {
                aggregator: agg.into(),
                attack: attack.into(),
                accuracy: acc,
            });
        }
    }
    println!("\nRobustness matrix — final accuracy, 2/12 malicious clients\n");
    let rows: Vec<Vec<String>> = aggregators
        .iter()
        .map(|agg| {
            let mut row = vec![agg.to_string()];
            for attack in attacks {
                let c = cells
                    .iter()
                    .find(|c| c.aggregator == *agg && c.attack == attack)
                    .expect("cell");
                row.push(format!("{:.4}", c.accuracy));
            }
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["aggregator", "no attack", "label-flip", "replacement"],
            &rows
        )
    );
    let path = write_json("byzantine", &cells).expect("write results");
    println!("wrote {path}");

    let (fedavg, robust): (Vec<&Cell>, Vec<&Cell>) = cells
        .iter()
        .filter(|c| c.attack == "replacement")
        .partition(|c| c.aggregator == "fedavg");
    check_claims(&[Claim::new(
        "Byzantine: FedAvg under model replacement is below every robust rule",
        robust.iter().all(|c| fedavg[0].accuracy < c.accuracy),
    )]);
}
