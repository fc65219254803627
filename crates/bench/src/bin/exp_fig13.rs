//! **Figure 13** — privacy protection vs model utility, and the DLG attack.
//!
//! Left side (paper): as the fraction of clients injecting Gaussian noise
//! into their returned updates grows 0% → 100%, global test accuracy
//! degrades gradually (84% → 65% in the paper). Right side: the DLG gradient
//! inversion recovers clean clients' training examples almost exactly, while
//! reconstructions from noisy clients are destroyed.
//!
//! Claims (EXPERIMENTS.md): accuracy falls monotonically as the noisy
//! fraction grows, and the clean client's DLG reconstruction MSE is below the
//! DP-noised client's.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig13
//! ```

use fs_attack::dlg::{invert_linear_gradients, reconstruction_mse};
use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_core::config::FlConfig;
use fs_core::course::CourseBuilder;
use fs_core::trainer::{share_all, LocalTrainer, LocalUpdate, TrainConfig, Trainer};
use fs_data::synth::{femnist_like, ImageConfig};
use fs_data::FedDataset;
use fs_privacy::dp::{gaussian_mechanism, DpConfig};
use fs_tensor::loss::Target;
use fs_tensor::model::{logistic_regression, Metrics, Model};
use fs_tensor::optim::SgdConfig;
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// DP behavior plug-in (paper Figure 6): clip + noise the outgoing update.
struct DpTrainer {
    inner: LocalTrainer,
    dp: DpConfig,
    rng: StdRng,
}

impl Trainer for DpTrainer {
    fn incorporate(&mut self, global: &ParamMap) {
        self.inner.incorporate(global);
    }

    fn local_train(&mut self, global: &ParamMap, round: u64) -> LocalUpdate {
        let mut update = self.inner.local_train(global, round);
        // noise the *delta* so clipping scales sensibly, then re-add
        let mut delta = update
            .params
            .sub(&global.filter(|k| update.params.contains(k)));
        gaussian_mechanism(&mut delta, &self.dp, &mut self.rng);
        let mut noisy = global.filter(|k| update.params.contains(k));
        noisy.add_scaled(1.0, &delta);
        update.params = noisy;
        update
    }

    fn evaluate_val(&mut self) -> Metrics {
        self.inner.evaluate_val()
    }

    fn evaluate_test(&mut self) -> Metrics {
        self.inner.evaluate_test()
    }

    fn num_train_samples(&self) -> usize {
        self.inner.num_train_samples()
    }
}

#[derive(Serialize)]
struct UtilityPoint {
    noisy_fraction: f64,
    accuracy: f32,
}

#[derive(Serialize)]
struct DlgPoint {
    client_kind: String,
    reconstruction_mse: Option<f32>,
    label_recovered: Option<bool>,
}

#[derive(Serialize)]
struct Fig13 {
    utility: Vec<UtilityPoint>,
    dlg: Vec<DlgPoint>,
}

fn dataset() -> FedDataset {
    femnist_like(&ImageConfig {
        num_clients: 40,
        num_classes: 10,
        img: 8,
        per_client: 40,
        noise: 0.5,
        size_skew: 0.0,
        seed: 31,
    })
    .flattened()
}

fn run_course(noisy_fraction: f64, data: &FedDataset) -> f32 {
    let dim = data.input_dim();
    let classes = data.num_classes;
    let n_noisy = ((data.num_clients() as f64) * noisy_fraction).round() as usize;
    let cfg = FlConfig {
        total_rounds: 30,
        concurrency: 40,
        local_steps: 6,
        batch_size: 16,
        sgd: SgdConfig::with_lr(0.2),
        eval_every: 5,
        seed: 31,
        ..Default::default()
    };
    let dp = DpConfig {
        clip_norm: 1.0,
        sigma: 0.4,
    };
    let mut runner = CourseBuilder::new(
        data.clone(),
        Box::new(move |rng| Box::new(logistic_regression(dim, classes, rng))),
        cfg,
    )
    .trainer_factory(Box::new(move |i, model, split, cfg| {
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
        if i < n_noisy {
            Box::new(DpTrainer {
                inner,
                dp,
                rng: StdRng::seed_from_u64(cfg.seed ^ (0xd9 + i as u64)),
            })
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

fn dlg_attack(data: &FedDataset) -> Vec<DlgPoint> {
    // single-example gradients from a trained global-ish model; the attacker
    // observes either the raw gradient (clean client) or a DP-noised one
    let dim = data.input_dim();
    let classes = data.num_classes;
    let mut rng = StdRng::seed_from_u64(99);
    let mut model = logistic_regression(dim, classes, &mut rng);
    let example = data.clients[0].train.batch(&[0]);
    let label = match &example.y {
        Target::Classes(c) => c[0],
        _ => unreachable!(),
    };
    let (_, grads) = model.loss_grad(&example.x, &example.y);
    let mut out = Vec::new();
    // clean client: exact inversion
    let rec = invert_linear_gradients(&grads, "fc");
    out.push(DlgPoint {
        client_kind: "clean".into(),
        reconstruction_mse: rec
            .as_ref()
            .map(|r| reconstruction_mse(r, &example.x.reshape(&[dim]))),
        label_recovered: rec.as_ref().map(|r| r.label == label),
    });
    // noisy client: DP on the gradient defeats the inversion
    let mut noisy = grads.clone();
    gaussian_mechanism(
        &mut noisy,
        &DpConfig {
            clip_norm: 1.0,
            sigma: 0.05,
        },
        &mut StdRng::seed_from_u64(7),
    );
    let rec = invert_linear_gradients(&noisy, "fc");
    out.push(DlgPoint {
        client_kind: "dp-noised".into(),
        reconstruction_mse: rec
            .as_ref()
            .map(|r| reconstruction_mse(r, &example.x.reshape(&[dim]))),
        label_recovered: rec.as_ref().map(|r| r.label == label),
    });
    out
}

fn main() {
    ExpArgs::parse_none();
    let data = dataset();
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut utility = Vec::new();
    for &f in &fractions {
        let acc = run_course(f, &data);
        eprintln!("  noisy fraction {f}: accuracy {acc:.4}");
        utility.push(UtilityPoint {
            noisy_fraction: f,
            accuracy: acc,
        });
    }
    println!("\nFigure 13 (left) — accuracy vs fraction of DP-noised clients\n");
    let rows: Vec<Vec<String>> = utility
        .iter()
        .map(|u| {
            vec![
                format!("{:.0}%", u.noisy_fraction * 100.0),
                format!("{:.4}", u.accuracy),
            ]
        })
        .collect();
    println!("{}", render_table(&["noisy clients", "accuracy"], &rows));

    let dlg = dlg_attack(&data);
    println!("Figure 13 (right) — DLG reconstruction quality\n");
    let rows: Vec<Vec<String>> = dlg
        .iter()
        .map(|d| {
            vec![
                d.client_kind.clone(),
                d.reconstruction_mse
                    .map_or("failed".into(), |m| format!("{m:.6}")),
                d.label_recovered.map_or("—".into(), |b| b.to_string()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["client", "recon MSE", "label recovered"], &rows)
    );
    let fig = Fig13 { utility, dlg };
    let path = write_json("fig13", &fig).expect("write results");
    println!("wrote {path}");

    // DLG ran on the clean client first, then on the DP-noised one
    let (clean, noised) = (fig.dlg[0].reconstruction_mse, fig.dlg[1].reconstruction_mse);
    check_claims(&[
        Claim::new(
            "Fig 13: accuracy falls monotonically as the noisy fraction grows",
            fig.utility
                .windows(2)
                .all(|w| w[1].accuracy < w[0].accuracy),
        ),
        Claim::new(
            "Fig 13: clean DLG reconstruction MSE < DP-noised",
            matches!((clean, noised), (Some(c), Some(n)) if c < n),
        ),
    ]);
}
