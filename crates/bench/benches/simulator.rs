//! Criterion: full-course event throughput of the standalone runner, and
//! the fleet set-up a 100 000-client course pays before its first event.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fs_core::config::FlConfig;
use fs_core::course::CourseBuilder;
use fs_data::synth::{twitter_like, TwitterConfig};
use fs_sim::{Fleet, FleetConfig};
use fs_tensor::model::logistic_regression;
use fs_tensor::optim::SgdConfig;

fn bench_course(c: &mut Criterion) {
    let mut group = c.benchmark_group("standalone_runner");
    group.sample_size(10);
    for clients in [20usize, 60] {
        let data = twitter_like(&TwitterConfig {
            num_clients: clients,
            per_client: 10,
            ..Default::default()
        });
        let dim = data.input_dim();
        group.bench_with_input(
            BenchmarkId::new("sync_course_10_rounds", clients),
            &data,
            |b, data| {
                b.iter(|| {
                    let cfg = FlConfig {
                        total_rounds: 10,
                        concurrency: clients / 2,
                        local_steps: 2,
                        batch_size: 4,
                        sgd: SgdConfig::with_lr(0.3),
                        ..Default::default()
                    };
                    let mut runner = CourseBuilder::new(
                        data.clone(),
                        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
                        cfg,
                    )
                    .build();
                    runner.run()
                })
            },
        );
    }
    group.finish();
}

/// `Fleet::generate` for the `scale_lr` benchmark's fleet: 100 000
/// log-normal devices ranked into four responsiveness groups.
fn bench_fleet_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(20);
    let cfg = FleetConfig {
        num_clients: 100_000,
        speed_sigma: 1.5,
        seed: 7 ^ 0xf1ee,
        ..Default::default()
    };
    group.bench_function("fleet_generate_100k", |b| b.iter(|| Fleet::generate(&cfg)));
    group.finish();
}

criterion_group!(benches, bench_course, bench_fleet_generate);
criterion_main!(benches);
