//! **Figures 18–20** (Appendix I) — sampling strategies on unbiased vs
//! *biased* CIFAR-like splits.
//!
//! Figures 18/19 show the data distributions across responsiveness clusters:
//! independent (unbiased) vs rare labels owned only by slow clients
//! (bias-CIFAR). Figure 20 shows that on the unbiased split all samplers
//! perform similarly, while on bias-CIFAR compensating samplers
//! (inverse-responsiveness, group) clearly beat uniform sampling — slow
//! clients own the rare labels, and uniform sampling lets their staled
//! contributions be discounted away.
//!
//! Claims (EXPERIMENTS.md): on bias-CIFAR, responsiveness and group sampling
//! each beat uniform on rare-label accuracy. "All three tie within noise" on
//! the unbiased split gives no number, so it stays prose.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_fig18_20
//! ```

use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_core::config::{BroadcastManner, FlConfig, SamplerKind};
use fs_core::course::CourseBuilder;
use fs_core::sampler::Sampler;
use fs_data::synth::{cifar_like, cifar_like_biased, ImageConfig};
use fs_data::FedDataset;
use fs_sim::{DeviceProfile, Fleet};
use fs_tensor::model::{logistic_regression, Model};
use fs_tensor::optim::SgdConfig;
use serde::Serialize;

const N_CLIENTS: usize = 60;
const SLOW_START: usize = 40; // clients 41.. are slow
const RARE: [usize; 2] = [8, 9];

#[derive(Serialize)]
struct Outcome {
    split: String,
    sampler: String,
    overall_accuracy: f32,
    rare_label_accuracy: f32,
}

fn img_cfg() -> ImageConfig {
    ImageConfig {
        num_clients: N_CLIENTS,
        num_classes: 10,
        img: 8,
        per_client: 40,
        noise: 0.8,
        size_skew: 0.0,
        seed: 51,
    }
}

/// Two-tier fleet: fast clients (group 0) and 10x-slower clients (group 1),
/// aligned with the bias split's slow set.
fn fleet() -> Fleet {
    let profiles: Vec<DeviceProfile> = (0..N_CLIENTS)
        .map(|i| {
            let slow = i >= SLOW_START;
            DeviceProfile {
                compute_speed: if slow { 6.0 } else { 60.0 },
                bandwidth: if slow { 10_000.0 } else { 100_000.0 },
                crash_prob: 0.0,
                group: usize::from(slow),
            }
        })
        .collect();
    Fleet::from_profiles(profiles)
}

/// Rare-label accuracy of the final global model on a pooled rare-only set.
fn rare_label_accuracy(runner: &mut fs_core::StandaloneRunner, data: &FedDataset) -> f32 {
    use fs_tensor::loss::Target;
    let mut xs: Vec<f32> = Vec::new();
    let mut ys = Vec::new();
    let dim = data.input_dim();
    for c in &data.clients {
        if let Target::Classes(labels) = &c.test.y {
            for (i, &y) in labels.iter().enumerate() {
                if RARE.contains(&y) {
                    let b = c.test.batch(&[i]);
                    xs.extend_from_slice(b.x.data());
                    ys.push(y);
                }
            }
        }
    }
    if ys.is_empty() {
        return 0.0;
    }
    let x = fs_tensor::Tensor::from_vec(vec![ys.len(), dim], xs);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    use rand::SeedableRng;
    let mut model = logistic_regression(dim, data.num_classes, &mut rng);
    let mut p = model.get_params();
    p.merge_from(&runner.server.state.global);
    model.set_params(&p);
    model.evaluate(&x, &Target::Classes(ys)).accuracy
}

fn run(data: &FedDataset, sampler: &str) -> (f32, f32) {
    let dim = data.input_dim();
    let classes = data.num_classes;
    let cfg = FlConfig {
        total_rounds: 120,
        concurrency: 20,
        local_steps: 4,
        batch_size: 16,
        sgd: SgdConfig::with_lr(0.25),
        eval_every: 10,
        staleness_tolerance: 20,
        staleness_discount: 1.0,
        seed: 51,
        ..Default::default()
    }
    .async_goal(8, BroadcastManner::AfterAggregating, SamplerKind::Uniform);
    let fleet = fleet();
    let mut builder = CourseBuilder::new(
        data.clone(),
        Box::new(move |rng| Box::new(logistic_regression(dim, classes, rng)) as Box<dyn Model>),
        cfg,
    )
    .fleet(fleet.clone());
    builder = match sampler {
        "uniform" => builder,
        "responsiveness" => {
            // compensating: sample slow clients *more* (inverse speed), so
            // their rare-label data keeps entering the aggregation
            let speeds = fleet.response_speeds(64, 4000);
            let inv: Vec<f64> = speeds.iter().map(|s| 1.0 / s.max(1e-9)).collect();
            builder.sampler(Sampler::Responsiveness { speeds: inv })
        }
        "group" => {
            let groups = (0..fleet.num_groups())
                .map(|g| fleet.group_members(g))
                .collect();
            builder.sampler(Sampler::group(groups))
        }
        other => panic!("unknown sampler {other}"),
    };
    let mut runner = builder.build();
    let report = runner.run();
    let overall = report
        .history
        .last()
        .map(|r| r.metrics.accuracy)
        .unwrap_or(0.0);
    let rare = rare_label_accuracy(&mut runner, data);
    (overall, rare)
}

fn main() {
    let unbiased = cifar_like(&img_cfg(), Some(0.5)).flattened();
    let biased = cifar_like_biased(&img_cfg(), &RARE, SLOW_START).flattened();

    // Figures 18/19: label mass owned by the slow cluster
    for (name, data) in [("unbiased", &unbiased), ("bias-CIFAR", &biased)] {
        let mut fast = vec![0usize; 10];
        let mut slow = vec![0usize; 10];
        for (i, c) in data.clients.iter().enumerate() {
            let h = c.train.label_histogram(10);
            let dst = if i >= SLOW_START {
                &mut slow
            } else {
                &mut fast
            };
            for (d, v) in dst.iter_mut().zip(&h) {
                *d += v;
            }
        }
        println!(
            "{name}: rare-label examples fast={} slow={}",
            fast[8] + fast[9],
            slow[8] + slow[9]
        );
    }

    let mut outcomes = Vec::new();
    for (split, data) in [("unbiased", &unbiased), ("bias-CIFAR", &biased)] {
        for sampler in ["uniform", "responsiveness", "group"] {
            let (overall, rare) = run(data, sampler);
            eprintln!("  {split} / {sampler}: overall {overall:.4}, rare {rare:.4}");
            outcomes.push(Outcome {
                split: split.into(),
                sampler: sampler.into(),
                overall_accuracy: overall,
                rare_label_accuracy: rare,
            });
        }
    }
    println!("\nFigure 20 — sampling strategies, unbiased vs bias-CIFAR\n");
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.split.clone(),
                o.sampler.clone(),
                format!("{:.4}", o.overall_accuracy),
                format!("{:.4}", o.rare_label_accuracy),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["split", "sampler", "overall acc", "rare-label acc"],
            &rows
        )
    );
    let path = write_json("fig18_20", &outcomes).expect("write results");
    println!("wrote {path}");

    // bias-CIFAR's uniform, responsiveness and group cells, in that order
    let rare: Vec<f32> = outcomes[3..]
        .iter()
        .map(|o| o.rare_label_accuracy)
        .collect();
    check_claims(&[
        Claim::new(
            "Figs 18-20: on bias-CIFAR, responsiveness beats uniform on rare-label accuracy",
            rare[1] > rare[0],
        ),
        Claim::new(
            "Figs 18-20: on bias-CIFAR, group beats uniform on rare-label accuracy",
            rare[2] > rare[0],
        ),
    ]);
}
