//! **Table 4** (Appendix G) — accuracy on CIFAR-like data under IID vs
//! non-IID (Dirichlet α) splits for FedAvg, FedBN, and Ditto.
//!
//! Paper's shape: FedAvg is competitive under IID but *degrades* as α shrinks
//! (more label skew); FedBN and Ditto *improve* as skew rises, overtaking
//! FedAvg on every non-IID split.
//!
//! Claims (EXPERIMENTS.md): under IID FedAvg is best and FedBN worst, and
//! FedBN's accuracy rises monotonically with skew (IID → α=0.2).
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_table4
//! ```

use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_core::config::FlConfig;
use fs_core::course::CourseBuilder;
use fs_core::trainer::{share_all, TrainConfig};
use fs_data::synth::{cifar_like, ImageConfig};
use fs_data::FedDataset;
use fs_personalize::fedbn::fedbn_share_filter;
use fs_personalize::DittoTrainer;
use fs_tensor::model::{mlp_bn, Metrics, Model};
use fs_tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use serde::Serialize;

#[derive(Serialize)]
struct Cell {
    method: String,
    split: String,
    accuracy: f32,
}

fn dataset(alpha: Option<f64>) -> FedDataset {
    cifar_like(
        &ImageConfig {
            num_clients: 30,
            num_classes: 10,
            img: 8,
            per_client: 40,
            noise: 1.1,
            size_skew: 0.0,
            seed: 23,
        },
        alpha,
    )
    .flattened()
}

fn cfg() -> FlConfig {
    FlConfig {
        total_rounds: 40,
        concurrency: 30,
        local_steps: 6,
        batch_size: 16,
        sgd: SgdConfig::with_lr(0.15),
        eval_every: 10,
        seed: 23,
        ..Default::default()
    }
}

/// Size-weighted mean of client-side final test accuracies.
fn weighted_accuracy(runner: &fs_core::StandaloneRunner) -> f32 {
    let reports: Vec<Metrics> = runner
        .server
        .state
        .client_reports
        .values()
        .copied()
        .collect();
    Metrics::weighted_merge(&reports).accuracy
}

fn run_method(method: &str, data: &FedDataset) -> f32 {
    let dim = data.input_dim();
    let classes = data.num_classes;
    let factory =
        move |rng: &mut StdRng| -> Box<dyn Model> { Box::new(mlp_bn(&[dim, 48, classes], rng)) };
    let mut builder = CourseBuilder::new(data.clone(), Box::new(factory), cfg());
    builder = match method {
        "FedAvg" => builder,
        "FedBN" => builder.share_filter(fedbn_share_filter()),
        "Ditto" => builder.trainer_factory(Box::new(|i, model, split, cfg| {
            Box::new(DittoTrainer::new(
                model,
                split,
                TrainConfig {
                    local_steps: cfg.local_steps,
                    batch_size: cfg.batch_size,
                    sgd: cfg.sgd,
                },
                0.5,
                share_all(),
                cfg.seed ^ (i as u64 + 1),
            ))
        })),
        other => panic!("unknown method {other}"),
    };
    let mut runner = builder.build();
    runner.run();
    weighted_accuracy(&runner)
}

fn main() {
    let splits: Vec<(String, Option<f64>)> = vec![
        ("IID".into(), None),
        ("alpha=1.0".into(), Some(1.0)),
        ("alpha=0.5".into(), Some(0.5)),
        ("alpha=0.2".into(), Some(0.2)),
    ];
    let methods = ["FedAvg", "FedBN", "Ditto"];
    let mut cells = Vec::new();
    for (split_name, alpha) in &splits {
        let data = dataset(*alpha);
        for method in methods {
            let acc = run_method(method, &data);
            eprintln!("  {method} / {split_name}: {acc:.4}");
            cells.push(Cell {
                method: method.into(),
                split: split_name.clone(),
                accuracy: acc,
            });
        }
    }
    println!("\nTable 4 — accuracy on CIFAR-like, IID vs Dirichlet splits\n");
    let rows: Vec<Vec<String>> = methods
        .iter()
        .map(|m| {
            let mut row = vec![m.to_string()];
            for (split_name, _) in &splits {
                let c = cells
                    .iter()
                    .find(|c| &c.method == m && &c.split == split_name)
                    .expect("cell");
                row.push(format!("{:.4}", c.accuracy));
            }
            row
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["method", "IID", "alpha=1.0", "alpha=0.5", "alpha=0.2"],
            &rows
        )
    );
    let path = write_json("table4", &cells).expect("write results");
    println!("wrote {path}");

    // one accuracy per split, IID first
    let by_split = |method: &str| -> Vec<f32> {
        cells
            .iter()
            .filter(|c| c.method == method)
            .map(|c| c.accuracy)
            .collect()
    };
    let (fedavg, fedbn, ditto) = (by_split("FedAvg"), by_split("FedBN"), by_split("Ditto"));
    check_claims(&[
        Claim::new(
            "Table 4: FedAvg is best under IID",
            fedavg[0] > fedbn[0] && fedavg[0] > ditto[0],
        ),
        Claim::new(
            "Table 4: FedBN is worst under IID",
            fedbn[0] < fedavg[0] && fedbn[0] < ditto[0],
        ),
        Claim::new(
            "Table 4: FedBN's accuracy rises monotonically with skew",
            fedbn.windows(2).all(|w| w[0] < w[1]),
        ),
    ]);
}
