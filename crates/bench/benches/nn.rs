//! Criterion: forward/backward cost of the evaluation models, and of each
//! layer of `convnet2` on `femnist_sync`'s shapes (batch 20 of 1x8x8 images),
//! so a change to one layer of the training step is measured on its own.
//!
//! `layers/<layer>/forward` is an eval-mode forward; `forward_backward` is a
//! training forward and the backward pass the model runs for that layer
//! (parameter gradients only for `conv1`, the model's first layer). The
//! backward half is the difference of the two.

use criterion::{criterion_group, criterion_main, Criterion};
use fs_tensor::layer::{Conv2d, Layer, Linear, Relu, ReluMaxPool2d, Sequential};
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

/// Stands before the timed layer: hands the input on as a shared clone and
/// takes the layer's input gradient, so the enclosing [`Sequential`] recycles
/// that gradient into the scratch pool as it does inside a model.
struct Source;

impl Layer for Source {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        Tensor::zeros(&[0])
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Source)
    }
}

/// Stands after the timed layer: takes its output (which the enclosing
/// [`Sequential`] then recycles) and starts the backward pass from a fixed
/// gradient of the output's shape.
struct Sink {
    grad: Tensor,
}

impl Layer for Sink {
    fn forward(&mut self, _x: &Tensor, _train: bool) -> Tensor {
        Tensor::zeros(&[0])
    }

    fn backward(&mut self, _grad_out: &Tensor) -> Tensor {
        self.grad.clone()
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Sink {
            grad: self.grad.clone(),
        })
    }
}

/// Times `layers` (run in order, as in the model) on input `x`, starting
/// the backward pass from `grad`; `first` marks the model's first layer,
/// which is asked for parameter gradients only.
fn bench_layer(
    c: &mut Criterion,
    name: &str,
    layers: Vec<Box<dyn Layer>>,
    x: &Tensor,
    grad: Tensor,
    first: bool,
) {
    let mut net = Sequential::new();
    if !first {
        net.push("source", Box::new(Source));
    }
    for (i, layer) in layers.into_iter().enumerate() {
        net.push(format!("l{i}"), layer);
    }
    net.push("sink", Box::new(Sink { grad }));
    let none = Tensor::zeros(&[0]);
    let mut group = c.benchmark_group("layers");
    group.bench_function(&format!("{name}/forward")[..], |b| {
        b.iter(|| net.forward(std::hint::black_box(x), false))
    });
    group.bench_function(&format!("{name}/forward_backward")[..], |b| {
        b.iter(|| {
            net.forward(std::hint::black_box(x), true);
            if first {
                net.backward_params(&none);
            } else {
                net.backward(&none);
            }
        })
    });
    group.finish();
}

/// `convnet2(1, 8, 32, 10)` layer by layer at batch 20, in model order.
fn bench_convnet2_layers(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let b = 20;
    // (name, the layers in model order, input shape, output shape)
    type Case = (&'static str, Vec<Box<dyn Layer>>, Vec<usize>, Vec<usize>);
    let cases: Vec<Case> = vec![
        (
            "conv1",
            vec![Box::new(Conv2d::new(1, 8, 3, 1, &mut rng))],
            vec![b, 1, 8, 8],
            vec![b, 8, 8, 8],
        ),
        (
            "relu_pool1",
            vec![Box::new(ReluMaxPool2d::new())],
            vec![b, 8, 8, 8],
            vec![b, 8, 4, 4],
        ),
        (
            "conv2",
            vec![Box::new(Conv2d::new(8, 16, 3, 1, &mut rng))],
            vec![b, 8, 4, 4],
            vec![b, 16, 4, 4],
        ),
        (
            "relu_pool2",
            vec![Box::new(ReluMaxPool2d::new())],
            vec![b, 16, 4, 4],
            vec![b, 16, 2, 2],
        ),
        (
            "fc1_relu",
            vec![
                Box::new(Linear::new(64, 32, &mut rng)),
                Box::new(Relu::new()),
            ],
            vec![b, 64],
            vec![b, 32],
        ),
        (
            "fc2",
            vec![Box::new(Linear::new(32, 10, &mut rng))],
            vec![b, 32],
            vec![b, 10],
        ),
    ];
    for (i, (name, layers, input, output)) in cases.into_iter().enumerate() {
        let x = random_tensor(&input, &mut rng);
        let grad = random_tensor(&output, &mut rng);
        bench_layer(c, name, layers, &x, grad, i == 0);
    }
}

criterion_group!(benches, bench_models, bench_convnet2_layers);
criterion_main!(benches);
