//! **Figure 12** — client-wise test accuracy of personalized FL algorithms
//! vs vanilla FedAvg on the FEMNIST-like dataset (writer feature skew).
//!
//! Paper's shape: FedBN / FedEM / pFedMe / Ditto all raise both the average
//! accuracy and the bottom-quantile accuracy over FedAvg, and shrink the
//! standard deviation σ across clients.
//!
//! Claims (EXPERIMENTS.md): FedBN, Ditto and pFedMe each beat FedAvg on mean
//! and q10 accuracy. FedEM doing the same is expected-partial: it does not
//! reproduce here, and the run fails if it starts to.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig12
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_core::config::FlConfig;
use fs_core::course::CourseBuilder;
use fs_core::trainer::{share_all, TrainConfig};
use fs_data::synth::{femnist_like, ImageConfig};
use fs_data::FedDataset;
use fs_personalize::fedbn::fedbn_share_filter;
use fs_personalize::{DittoTrainer, FedEmTrainer, MixtureModel, PFedMeTrainer};
use fs_tensor::model::{mlp_bn, Model};
use fs_tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct MethodResult {
    method: String,
    client_accuracies: Vec<f32>,
    mean: f32,
    std: f32,
    q10: f32,
}

fn dataset() -> FedDataset {
    femnist_like(&ImageConfig {
        num_clients: 30,
        num_classes: 10,
        img: 8,
        per_client: 60,
        noise: 0.45,
        size_skew: 0.0,
        seed: 11,
    })
    .flattened()
}

fn base_cfg() -> FlConfig {
    FlConfig {
        total_rounds: 40,
        concurrency: 30,
        local_steps: 6,
        batch_size: 16,
        sgd: SgdConfig::with_lr(0.15),
        eval_every: 5,
        seed: 11,
        ..Default::default()
    }
}

fn summarize(method: &str, accs: Vec<f32>) -> MethodResult {
    let n = accs.len() as f32;
    let mean = accs.iter().sum::<f32>() / n;
    let var = accs.iter().map(|a| (a - mean) * (a - mean)).sum::<f32>() / n;
    let mut sorted = accs.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let q10 = sorted[(sorted.len() as f32 * 0.1) as usize];
    MethodResult {
        method: method.to_string(),
        client_accuracies: accs,
        mean,
        std: var.sqrt(),
        q10,
    }
}

fn client_accs(runner: &fs_core::StandaloneRunner) -> Vec<f32> {
    let reports = runner.server.state.client_reports.values();
    reports.map(|m| m.accuracy).collect()
}

fn main() {
    ExpArgs::parse_none();
    let data = dataset();
    let dim = data.input_dim();
    let hidden = 48;
    let classes = data.num_classes;
    let mlp_factory = move |rng: &mut StdRng| -> Box<dyn Model> {
        Box::new(mlp_bn(&[dim, hidden, classes], rng))
    };
    let mut results = Vec::new();

    // FedAvg: everything shared, clients evaluate the global model
    let mut runner = CourseBuilder::new(data.clone(), Box::new(mlp_factory), base_cfg()).build();
    runner.run();
    results.push(summarize("FedAvg", client_accs(&runner)));

    // FedBN: bn.* stays local
    let mut runner = CourseBuilder::new(data.clone(), Box::new(mlp_factory), base_cfg())
        .share_filter(fedbn_share_filter())
        .build();
    runner.run();
    results.push(summarize("FedBN", client_accs(&runner)));

    // Ditto: personal model with proximal pull
    let mut runner = CourseBuilder::new(data.clone(), Box::new(mlp_factory), base_cfg())
        .trainer_factory(Box::new(|i, model, split, cfg| {
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
        }))
        .build();
    runner.run();
    results.push(summarize("Ditto", client_accs(&runner)));

    // pFedMe: Moreau-envelope personalization
    let mut runner = CourseBuilder::new(data.clone(), Box::new(mlp_factory), base_cfg())
        .trainer_factory(Box::new(|i, model, split, cfg| {
            Box::new(PFedMeTrainer::new(
                model,
                split,
                TrainConfig {
                    local_steps: 3,
                    batch_size: cfg.batch_size,
                    sgd: cfg.sgd,
                },
                1.0,
                1.0,
                6,
                share_all(),
                cfg.seed ^ (i as u64 + 1),
            ))
        }))
        .build();
    runner.run();
    results.push(summarize("pFedMe", client_accs(&runner)));

    // FedEM: mixture of two shared components, private mixture weights
    let mixture_factory = move |rng: &mut StdRng| -> Box<dyn Model> {
        let comps: Vec<Box<dyn Model>> = (0..2)
            .map(|_| Box::new(mlp_bn(&[dim, hidden, classes], rng)) as Box<dyn Model>)
            .collect();
        Box::new(MixtureModel::new(comps))
    };
    let mut runner = CourseBuilder::new(data.clone(), Box::new(mixture_factory), base_cfg())
        .trainer_factory(Box::new(move |i, model, split, cfg| {
            // rebuild the mixture from the template's parameters
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 999);
            let comps: Vec<Box<dyn Model>> = (0..2)
                .map(|_| Box::new(mlp_bn(&[dim, hidden, classes], &mut rng)) as Box<dyn Model>)
                .collect();
            let mut mixture = MixtureModel::new(comps);
            mixture.set_params(&model.get_params());
            Box::new(FedEmTrainer::new(
                mixture,
                split,
                TrainConfig {
                    local_steps: cfg.local_steps,
                    batch_size: cfg.batch_size,
                    // responsibilities scale gradients by gamma <= 1, so the
                    // mixture needs a higher raw learning rate
                    sgd: SgdConfig {
                        lr: cfg.sgd.lr * 2.0,
                        ..cfg.sgd
                    },
                },
                share_all(),
                cfg.seed ^ (i as u64 + 1),
            ))
        }))
        .build();
    runner.run();
    results.push(summarize("FedEM", client_accs(&runner)));

    println!("\nFigure 12 — client-wise test accuracy (FEMNIST-like)\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.method.clone(),
                format!("{:.3}", r.mean),
                format!("{:.3}", r.q10),
                format!("{:.3}", r.std),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["method", "mean acc", "q10 acc", "sigma"], &rows)
    );
    let path = write_json("fig12", &results).expect("write results");
    println!("wrote {path}");

    let (fedavg, personalized) = results.split_first().expect("FedAvg ran");
    let claims: Vec<Claim> = personalized
        .iter()
        .map(|r| {
            let name = format!("Fig 12: {} beats FedAvg on mean and q10", r.method);
            let holds = r.mean > fedavg.mean && r.q10 > fedavg.q10;
            match r.method.as_str() {
                "FedEM" => Claim::partial(name, holds),
                _ => Claim::new(name, holds),
            }
        })
        .collect();
    check_claims(&claims);
}
