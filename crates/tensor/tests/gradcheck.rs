//! Systematic gradient checking: every layer's analytic backward pass is
//! verified against central finite differences of a scalar objective, for
//! both input gradients and parameter gradients.

use fs_tensor::layer::{
    AvgPool2d, BatchNorm1d, Conv2d, Flatten, Layer, Linear, MaxPool2d, Relu, Sequential, Sigmoid,
    Tanh,
};
use fs_tensor::{ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scalar objective: weighted sum of outputs, so dL/dy is a fixed random
/// tensor and backward() gives dL/dx analytically.
struct Probe {
    weights: Tensor,
}

impl Probe {
    fn new(shape: &[usize], rng: &mut StdRng) -> Self {
        let numel: usize = shape.iter().product();
        let data = (0..numel).map(|_| rng.gen::<f32>() - 0.5).collect();
        Self {
            weights: Tensor::from_vec(shape.to_vec(), data),
        }
    }

    fn loss(&self, y: &Tensor) -> f32 {
        y.dot(&self.weights)
    }
}

/// Checks dL/dx of `layer` at `x` against finite differences.
fn check_input_grad(layer: &mut dyn Layer, x: &Tensor, tol: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let y = layer.forward(x, true);
    let probe = Probe::new(y.shape(), &mut rng);
    let analytic = layer.backward(&probe.weights);
    let eps = 1e-2f32;
    // probe a deterministic subset of coordinates
    let stride = (x.numel() / 24).max(1);
    for i in (0..x.numel()).step_by(stride) {
        let mut xp = x.clone();
        xp.data_mut()[i] += eps;
        let mut xm = x.clone();
        xm.data_mut()[i] -= eps;
        let fp = probe.loss(&layer.forward(&xp, true));
        let fm = probe.loss(&layer.forward(&xm, true));
        let fd = (fp - fm) / (2.0 * eps);
        let a = analytic.data()[i];
        assert!(
            (fd - a).abs() <= tol * (1.0 + fd.abs().max(a.abs())),
            "input grad [{i}]: finite-diff {fd} vs analytic {a}"
        );
    }
}

/// Checks dL/dtheta of `layer` at `x` against finite differences.
fn check_param_grads(layer: &mut dyn Layer, x: &Tensor, tol: f32, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    layer.zero_grad();
    let y = layer.forward(x, true);
    let probe = Probe::new(y.shape(), &mut rng);
    let _ = layer.backward(&probe.weights);
    let mut grads = ParamMap::new();
    layer.collect_grads("l", &mut grads);
    let mut params = ParamMap::new();
    layer.collect_params("l", &mut params);
    let eps = 1e-2f32;
    for (name, g) in grads.iter() {
        let stride = (g.numel() / 12).max(1);
        for i in (0..g.numel()).step_by(stride) {
            let mut pp = params.clone();
            pp.get_mut(name).unwrap().data_mut()[i] += eps;
            layer.load_params("l", &pp);
            let fp = probe.loss(&layer.forward(x, true));
            let mut pm = params.clone();
            pm.get_mut(name).unwrap().data_mut()[i] -= eps;
            layer.load_params("l", &pm);
            let fm = probe.loss(&layer.forward(x, true));
            let fd = (fp - fm) / (2.0 * eps);
            let a = g.data()[i];
            assert!(
                (fd - a).abs() <= tol * (1.0 + fd.abs().max(a.abs())),
                "{name}[{i}]: finite-diff {fd} vs analytic {a}"
            );
            layer.load_params("l", &params);
        }
    }
}

fn rand_input(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let numel: usize = shape.iter().product();
    let data = (0..numel).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
    Tensor::from_vec(shape.to_vec(), data)
}

#[test]
fn linear_gradcheck() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut l = Linear::new(6, 4, &mut rng);
    let x = rand_input(&[3, 6], 2);
    check_input_grad(&mut l, &x, 2e-2, 3);
    check_param_grads(&mut l, &x, 2e-2, 3);
}

#[test]
fn relu_gradcheck() {
    // offset inputs away from the kink at 0
    let mut x = rand_input(&[4, 5], 4);
    for v in x.data_mut() {
        if v.abs() < 0.1 {
            *v += 0.2;
        }
    }
    check_input_grad(&mut Relu::new(), &x, 2e-2, 5);
}

#[test]
fn tanh_gradcheck() {
    let x = rand_input(&[4, 5], 6);
    check_input_grad(&mut Tanh::new(), &x, 2e-2, 7);
}

#[test]
fn sigmoid_gradcheck() {
    let x = rand_input(&[4, 5], 8);
    check_input_grad(&mut Sigmoid::new(), &x, 2e-2, 9);
}

#[test]
fn conv2d_gradcheck() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut l = Conv2d::new(2, 3, 3, 1, &mut rng);
    let x = rand_input(&[2, 2, 5, 5], 11);
    check_input_grad(&mut l, &x, 3e-2, 12);
    check_param_grads(&mut l, &x, 3e-2, 12);
}

#[test]
fn conv2d_gradcheck_across_kernels_paddings_and_shapes() {
    // the grid `step_bits.rs` pins bit for bit, checked here against finite
    // differences: kernel sizes, paddings, H != W, batch and channel counts
    // that hit every remainder tile and both row-loop widths
    let images = [(5usize, 8usize), (7, 4), (6, 9)];
    let channels = [(1usize, 8usize), (3, 3), (8, 16), (16, 1)];
    let mut case = 0u64;
    for k in [1usize, 3, 5] {
        for pad in [0usize, 1, 2] {
            for &b in &[1usize, 3, 20] {
                case += 1;
                let (h, w) = images[case as usize % images.len()];
                let (in_ch, out_ch) = channels[case as usize % channels.len()];
                if h + 2 * pad < k || w + 2 * pad < k {
                    continue;
                }
                let mut rng = StdRng::seed_from_u64(100 + case);
                let mut l = Conv2d::new(in_ch, out_ch, k, pad, &mut rng);
                let x = rand_input(&[b, in_ch, h, w], 200 + case);
                check_input_grad(&mut l, &x, 3e-2, 300 + case);
                check_param_grads(&mut l, &x, 3e-2, 300 + case);
            }
        }
    }
}

#[test]
fn avgpool_gradcheck() {
    let x = rand_input(&[2, 2, 6, 6], 13);
    check_input_grad(&mut AvgPool2d::new(), &x, 2e-2, 14);
}

#[test]
fn maxpool_gradcheck() {
    // spread values so the argmax is stable under the probe epsilon
    let mut x = rand_input(&[1, 1, 6, 6], 16);
    for (i, v) in x.data_mut().iter_mut().enumerate() {
        *v += i as f32 * 0.3;
    }
    check_input_grad(&mut MaxPool2d::new(), &x, 2e-2, 16);
}

#[test]
fn batchnorm_gradcheck() {
    let mut l = BatchNorm1d::new(4);
    let x = rand_input(&[6, 4], 17);
    // batch-norm's forward is batch-coupled: finite differences on one input
    // coordinate move the batch statistics too, and the analytic backward
    // accounts for that — this check verifies exactly that coupling
    check_input_grad(&mut l, &x, 4e-2, 18);
    check_param_grads(&mut l, &x, 4e-2, 18);
}

#[test]
fn sequential_chain_gradcheck() {
    let mut rng = StdRng::seed_from_u64(19);
    let mut net = Sequential::new();
    net.push("conv", Box::new(Conv2d::new(1, 2, 3, 1, &mut rng)));
    net.push("act", Box::new(Tanh::new()));
    net.push("pool", Box::new(AvgPool2d::new()));
    net.push("flat", Box::new(Flatten::new()));
    net.push("fc", Box::new(Linear::new(2 * 3 * 3, 3, &mut rng)));
    let x = rand_input(&[2, 1, 6, 6], 20);
    check_input_grad(&mut net, &x, 4e-2, 21);
    check_param_grads(&mut net, &x, 4e-2, 21);
}
