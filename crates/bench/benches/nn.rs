//! Criterion: forward/backward cost of the evaluation models.

use criterion::{criterion_group, criterion_main, Criterion};
use fs_tensor::loss::Target;
use fs_tensor::model::{convnet2, logistic_regression, mlp, Model};
use fs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random inputs: a constant image makes every max-pool window a tie and
/// every ReLU mask uniform, which is not what a course feeds the model.
fn random_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec(
        shape.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

fn bench_models(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("models");

    let mut logreg = logistic_regression(64, 10, &mut rng);
    let x = random_tensor(&[20, 64], &mut rng);
    let y = Target::Classes((0..20).map(|i| i % 10).collect());
    group.bench_function("logreg_loss_grad_b20", |b| {
        b.iter(|| logreg.loss_grad(std::hint::black_box(&x), std::hint::black_box(&y)))
    });

    let mut net = mlp(&[64, 48, 10], &mut rng);
    group.bench_function("mlp_loss_grad_b20", |b| {
        b.iter(|| net.loss_grad(std::hint::black_box(&x), std::hint::black_box(&y)))
    });

    let mut conv = convnet2(1, 8, 32, 10, 0.0, &mut rng);
    let xi = random_tensor(&[20, 1, 8, 8], &mut rng);
    group.bench_function("convnet2_loss_grad_b20", |b| {
        b.iter(|| conv.loss_grad(std::hint::black_box(&xi), std::hint::black_box(&y)))
    });
    group.bench_function("convnet2_predict_b20", |b| {
        b.iter(|| conv.predict(std::hint::black_box(&xi)))
    });
    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
