//! Bit-identity of the training step at layer level, so a change to the
//! convolution lowering, the kernels or the scratch pool is caught here and
//! not first by a course fingerprint.
//!
//! The reference convolution and window scan below are written straight from
//! the accumulation orders and tie rule the determinism contract fixes
//! (DESIGN.md, "training step"), and the fused ReLU + max-pool layer is held
//! to the two layers it replaces; every comparison is on `f32::to_bits`.

use fs_tensor::layer::{
    Conv2d, Flatten, Layer, Linear, MaxPool2d, Relu, ReluMaxPool2d, Sequential,
};
use fs_tensor::loss::{softmax_cross_entropy, LossKind, Target};
use fs_tensor::model::{convnet2, logistic_regression, mlp, Model, NetModel};
use fs_tensor::optim::{Sgd, SgdConfig};
use fs_tensor::{scratch, ParamMap, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    // exact zeros of both signs sprinkled in: a skipped or reordered zero
    // term must not show
    let data = (0..n)
        .map(|_| match rng.gen_range(0..22) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect();
    Tensor::from_vec(shape.to_vec(), data)
}

/// Mostly the values a pooling window can disagree about: ties, both zeros,
/// NaN and both infinities.
fn special_tensor(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let palette = [
        -0.0,
        0.0,
        f32::NAN,
        f32::NEG_INFINITY,
        f32::INFINITY,
        0.5,
        -0.5,
    ];
    let data = (0..n)
        .map(|_| match rng.gen_range(0..palette.len() + 4) {
            i if i < palette.len() => palette[i],
            _ => rng.gen_range(-1.0f32..1.0),
        })
        .collect();
    Tensor::from_vec(shape.to_vec(), data)
}

/// Equal bits, where a NaN only has to meet a NaN: the payload of a NaN that
/// arithmetic produces is not something Rust's float semantics fix.
fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        if !(x.is_nan() && y.is_nan()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} ({x} vs {y})");
        }
    }
}

/// What a convolution must produce, in the orders the contract fixes.
struct DirectConv {
    y: Vec<f32>,
    gw: Vec<f32>,
    gb: Vec<f32>,
    gx: Vec<f32>,
}

#[expect(
    clippy::too_many_arguments,
    reason = "the reference takes every tensor and the geometry explicitly"
)]
fn direct_conv(
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    g: &Tensor,
    k: usize,
    pad: usize,
    oh: usize,
    ow: usize,
) -> DirectConv {
    let (b, c, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let oc = w.shape()[0];
    let fan_in = c * k * k;
    // the input value tap f = (ci, ky, kx) sees at output (oy, ox); padding is 0.0
    let tap = |bi: usize, f: usize, oy: usize, ox: usize| -> f32 {
        let (ci, ky, kx) = (f / (k * k), f / k % k, f % k);
        let (iy, ix) = (oy + ky, ox + kx);
        if iy < pad || ix < pad || iy - pad >= h || ix - pad >= wd {
            0.0
        } else {
            x.data()[((bi * c + ci) * h + iy - pad) * wd + ix - pad]
        }
    };
    let g_at =
        |bi: usize, o: usize, oy: usize, ox: usize| g.data()[((bi * oc + o) * oh + oy) * ow + ox];

    // forward: (sum over increasing f, from +0.0) + bias
    let mut y = vec![0.0f32; b * oc * oh * ow];
    for bi in 0..b {
        for o in 0..oc {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for f in 0..fan_in {
                        acc += tap(bi, f, oy, ox) * w.data()[o * fan_in + f];
                    }
                    y[((bi * oc + o) * oh + oy) * ow + ox] = acc + bias.data()[o];
                }
            }
        }
    }
    // gw: one chain over increasing (b, oy, ox), added to the zeroed grad once
    let mut gw = vec![0.0f32; oc * fan_in];
    for o in 0..oc {
        for f in 0..fan_in {
            let mut acc = 0.0f32;
            for bi in 0..b {
                for oy in 0..oh {
                    for ox in 0..ow {
                        acc += tap(bi, f, oy, ox) * g_at(bi, o, oy, ox);
                    }
                }
            }
            gw[o * fan_in + f] += acc;
        }
    }
    // gb: the same row order, straight into the zeroed grad
    let mut gb = vec![0.0f32; oc];
    for (o, gbv) in gb.iter_mut().enumerate() {
        for bi in 0..b {
            for oy in 0..oh {
                for ox in 0..ow {
                    *gbv += g_at(bi, o, oy, ox);
                }
            }
        }
    }
    // gx: each pixel adds its taps' column gradients (a chain over increasing
    // oc each) in increasing (oy, ox)
    let mut gx = vec![0.0f32; b * c * h * wd];
    for bi in 0..b {
        for ci in 0..c {
            for iy in 0..h {
                for ix in 0..wd {
                    let mut acc = 0.0f32;
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let (ky, kx) =
                                ((iy + pad).wrapping_sub(oy), (ix + pad).wrapping_sub(ox));
                            if ky >= k || kx >= k {
                                continue;
                            }
                            let f = (ci * k + ky) * k + kx;
                            let mut gcol = 0.0f32;
                            for o in 0..oc {
                                gcol += w.data()[o * fan_in + f] * g_at(bi, o, oy, ox);
                            }
                            acc += gcol;
                        }
                    }
                    gx[((bi * c + ci) * h + iy) * wd + ix] = acc;
                }
            }
        }
    }
    DirectConv { y, gw, gb, gx }
}

/// Forward, weight, bias and input gradients of one configuration against
/// the direct convolution; `backward_params` must leave the same parameter
/// gradients as `backward`.
fn check_conv(in_ch: usize, out_ch: usize, k: usize, pad: usize, b: usize, h: usize, w: usize) {
    check_conv_on(random_tensor, in_ch, out_ch, k, pad, b, h, w);
}

/// [`check_conv`] on an input drawn by `input`.
#[expect(
    clippy::too_many_arguments,
    reason = "check_conv's geometry plus the input generator"
)]
fn check_conv_on(
    input: fn(&[usize], &mut StdRng) -> Tensor,
    in_ch: usize,
    out_ch: usize,
    k: usize,
    pad: usize,
    b: usize,
    h: usize,
    w: usize,
) {
    let what = format!("in{in_ch} out{out_ch} k{k} pad{pad} b{b} {h}x{w}");
    let mut rng = StdRng::seed_from_u64((in_ch * 31 + out_ch * 7 + k * 3 + pad + b + h * w) as u64);
    let mut conv = Conv2d::new(in_ch, out_ch, k, pad, &mut rng);
    let bias = random_tensor(&[out_ch], &mut rng);
    let mut params = ParamMap::new();
    conv.collect_params("c", &mut params);
    params.insert("c.bias", bias.clone());
    conv.load_params("c", &params);
    let weight = params.get("c.weight").unwrap().clone();
    let (oh, ow) = conv.out_hw(h, w);
    let x = input(&[b, in_ch, h, w], &mut rng);
    let g = random_tensor(&[b, out_ch, oh, ow], &mut rng);
    let want = direct_conv(&x, &weight, &bias, &g, k, pad, oh, ow);

    assert_same_bits(
        conv.forward(&x, false).data(),
        &want.y,
        &format!("{what}: eval forward"),
    );
    let grads_of = |conv: &mut Conv2d| {
        let mut grads = ParamMap::new();
        conv.collect_grads("c", &mut grads);
        grads
    };
    conv.zero_grad();
    assert_same_bits(
        conv.forward(&x, true).data(),
        &want.y,
        &format!("{what}: forward"),
    );
    let gx = conv.backward(&g);
    assert_eq!(gx.shape(), x.shape());
    assert_same_bits(gx.data(), &want.gx, &format!("{what}: input grad"));
    let full = grads_of(&mut conv);
    assert_same_bits(
        full.get("c.weight").unwrap().data(),
        &want.gw,
        &format!("{what}: gw"),
    );
    assert_same_bits(
        full.get("c.bias").unwrap().data(),
        &want.gb,
        &format!("{what}: gb"),
    );

    conv.zero_grad();
    conv.forward(&x, true);
    // an eval forward in between leaves the training lowering in place
    conv.forward(&x, false);
    conv.backward_params(&g);
    let skipped = grads_of(&mut conv);
    assert_same_bits(
        skipped.get("c.weight").unwrap().data(),
        &want.gw,
        &format!("{what}: gw (no input grad)"),
    );
    assert_same_bits(
        skipped.get("c.bias").unwrap().data(),
        &want.gb,
        &format!("{what}: gb (no input grad)"),
    );
}

#[test]
fn conv2d_matches_direct_convolution_bit_for_bit() {
    // H != W; widths 4 and 8 take the constant-width row loops, 9 and 5 the
    // runtime-width ones
    let images = [(5usize, 8usize), (7, 4), (6, 9)];
    let mut checked = 0;
    for k in [1usize, 3, 5] {
        for pad in [0usize, 1, 2] {
            for (i, &b) in [1usize, 3, 20].iter().enumerate() {
                for (j, &in_ch) in [1usize, 3, 8, 16].iter().enumerate() {
                    // 8 and 16 take the bias fold's register arms, the rest
                    // its generic one
                    for (l, &out_ch) in [1usize, 3, 5, 8, 16].iter().enumerate() {
                        let (h, w) = images[(i + j + l + k + pad) % images.len()];
                        if h + 2 * pad < k || w + 2 * pad < k {
                            continue;
                        }
                        check_conv(in_ch, out_ch, k, pad, b, h, w);
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 400, "grid shrank to {checked} configurations");
    // the course's own shapes
    check_conv(1, 8, 3, 1, 20, 8, 8);
    check_conv(8, 16, 3, 1, 20, 4, 4);
    // NaN, infinities and ties in the input reach every output through the
    // same operations in the same order
    for out_ch in [3, 5, 8, 16] {
        check_conv_on(special_tensor, 2, out_ch, 3, 1, 2, 5, 4);
    }
}

/// What 2x2/stride-2 max pooling must produce: per window, in output order,
/// the first of its largest cells by `>` against a best that starts at −∞
/// and at the window's first cell; the gradient goes to that cell.
fn direct_max_pool(x: &Tensor, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
    let (planes, h, w) = (x.shape()[0] * x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oh, ow) = (h / 2, w / 2);
    let mut y = Vec::new();
    let mut gx = vec![0.0f32; x.numel()];
    for plane in 0..planes {
        for oy in 0..oh {
            for ox in 0..ow {
                let at = |dy: usize, dx: usize| (plane * h + 2 * oy + dy) * w + 2 * ox + dx;
                let (mut best, mut winner) = (f32::NEG_INFINITY, at(0, 0));
                for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    if x.data()[at(dy, dx)] > best {
                        best = x.data()[at(dy, dx)];
                        winner = at(dy, dx);
                    }
                }
                gx[winner] += g.data()[y.len()];
                y.push(best);
            }
        }
    }
    (y, gx)
}

/// Pooling shapes: even and odd sides (an odd last row or column belongs to
/// no window), the course's two widths, and inputs too small for a window.
const POOL_SHAPES: [(usize, usize, usize, usize); 10] = [
    (1, 1, 2, 2),
    (3, 4, 8, 8),
    (2, 3, 4, 4),
    (1, 2, 5, 7),
    (2, 1, 7, 5),
    (1, 3, 6, 3),
    (2, 2, 3, 3),
    (1, 1, 1, 4),
    (1, 2, 4, 1),
    (20, 8, 8, 8),
];

/// Eval output, training output and input gradient of `layer` on `x`; the
/// eval forward runs between the training forward and its backward, which
/// must not disturb what the training forward kept.
fn pool_pass(layer: &mut dyn Layer, x: &Tensor, g: &Tensor) -> [Tensor; 3] {
    let train = layer.forward(x, true);
    let eval = layer.forward(x, false);
    [eval, train, layer.backward(g)]
}

#[test]
fn max_pool_matches_the_direct_window_scan_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(17);
    for (b, c, h, w) in POOL_SHAPES {
        let what = format!("{b}x{c}x{h}x{w}");
        let x = special_tensor(&[b, c, h, w], &mut rng);
        let g = special_tensor(&[b, c, h / 2, w / 2], &mut rng);
        let (want_y, want_gx) = direct_max_pool(&x, &g);
        let [eval, train, gx] = pool_pass(&mut MaxPool2d::new(), &x, &g);
        assert_same_bits(eval.data(), &want_y, &format!("{what}: eval forward"));
        assert_same_bits(train.data(), &want_y, &format!("{what}: forward"));
        assert_eq!(gx.shape(), x.shape());
        assert_same_bits(gx.data(), &want_gx, &format!("{what}: input grad"));
    }
}

#[test]
fn relu_max_pool_matches_relu_then_max_pool_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(23);
    for (b, c, h, w) in POOL_SHAPES {
        let what = format!("{b}x{c}x{h}x{w}");
        let x = special_tensor(&[b, c, h, w], &mut rng);
        let g = special_tensor(&[b, c, h / 2, w / 2], &mut rng);
        let mut unfused = Sequential::new();
        unfused.push("act", Box::new(Relu::new()));
        unfused.push("pool", Box::new(MaxPool2d::new()));
        let want = pool_pass(&mut unfused, &x, &g);
        let got = pool_pass(&mut ReluMaxPool2d::new(), &x, &g);
        for ((got, want), part) in
            got.iter()
                .zip(&want)
                .zip(["eval forward", "forward", "input grad"])
        {
            assert_eq!(got.shape(), want.shape(), "{what}: {part} shape");
            assert_same_bits(got.data(), want.data(), &format!("{what}: {part}"));
        }
    }
}

#[test]
fn convnet2_equals_its_unfused_composition() {
    // the model's fused ReLU + pool layers against separate Relu and
    // MaxPool2d layers carrying the same parameters
    let mut rng = StdRng::seed_from_u64(29);
    let mut model = convnet2(1, 8, 32, 10, 0.0, &mut rng);
    let mut net = Sequential::new();
    net.push("conv1", Box::new(Conv2d::new(1, 8, 3, 1, &mut rng)));
    net.push("act1", Box::new(Relu::new()));
    net.push("pool1", Box::new(MaxPool2d::new()));
    net.push("conv2", Box::new(Conv2d::new(8, 16, 3, 1, &mut rng)));
    net.push("act2", Box::new(Relu::new()));
    net.push("pool2", Box::new(MaxPool2d::new()));
    net.push("flat", Box::new(Flatten::new()));
    net.push("fc1", Box::new(Linear::new(64, 32, &mut rng)));
    net.push("act3", Box::new(Relu::new()));
    net.push("fc2", Box::new(Linear::new(32, 10, &mut rng)));
    let mut unfused = NetModel::new(net, LossKind::SoftmaxCrossEntropy);
    unfused.set_params(&model.get_params());
    let x = random_tensor(&[20, 1, 8, 8], &mut rng);
    let y = Target::Classes((0..20).map(|i| i % 10).collect());
    for step in 0..3 {
        let (want_loss, want) = unfused.loss_grad(&x, &y);
        let (loss, grads) = model.loss_grad(&x, &y);
        assert_eq!(loss.to_bits(), want_loss.to_bits(), "step {step}: loss");
        assert_same_grads(&grads, &want, &format!("step {step}"));
        assert_same_bits(
            model.predict(&x).data(),
            unfused.predict(&x).data(),
            &format!("step {step}: predict"),
        );
        let mut params = model.get_params();
        params.add_scaled(-0.5, &grads);
        model.set_params(&params);
        unfused.set_params(&params);
    }
}

/// The gradients of the mean loss, the long way round: un-skipped
/// `Sequential::backward` on a copy of the model's network.
fn unskipped_grads(model: &NetModel, x: &Tensor, classes: &[usize]) -> (f32, ParamMap) {
    let mut net: Sequential = model.net().clone_net();
    net.zero_grad();
    let logits = net.forward(x, true);
    let (loss, grad_logits) = softmax_cross_entropy(&logits, classes);
    let grad_x = net.backward(&grad_logits);
    assert_eq!(grad_x.shape(), x.shape(), "backward still returns dL/dx");
    let mut grads = ParamMap::new();
    net.collect_grads("", &mut grads);
    (loss, grads)
}

fn assert_same_grads(got: &ParamMap, want: &ParamMap, what: &str) {
    assert_eq!(
        got.names().collect::<Vec<_>>(),
        want.names().collect::<Vec<_>>()
    );
    for (name, t) in want.iter() {
        assert_same_bits(
            got.get(name).unwrap().data(),
            t.data(),
            &format!("{what}: {name}"),
        );
    }
}

#[test]
fn loss_grad_without_the_input_gradient_equals_full_backward() {
    let mut rng = StdRng::seed_from_u64(11);
    let classes: Vec<usize> = (0..20).map(|i| i % 10).collect();
    let y = Target::Classes(classes.clone());
    let cases: Vec<(NetModel, Tensor)> = vec![
        (
            convnet2(1, 8, 32, 10, 0.0, &mut rng),
            random_tensor(&[20, 1, 8, 8], &mut rng),
        ),
        (
            logistic_regression(64, 10, &mut rng),
            random_tensor(&[20, 64], &mut rng),
        ),
        (
            mlp(&[30, 17, 10], &mut rng),
            random_tensor(&[20, 30], &mut rng),
        ),
    ];
    for (i, (mut model, x)) in cases.into_iter().enumerate() {
        let (want_loss, want) = unskipped_grads(&model, &x, &classes);
        let (loss, by_value) = model.loss_grad(&x, &y);
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        assert_same_grads(&by_value, &want, &format!("model {i}: loss_grad"));
        // the fused training step runs the same forward and backward
        let loss = model.train_step(&mut Sgd::new(SgdConfig::with_lr(0.1)), &x, &y, None);
        assert_eq!(loss.to_bits(), want_loss.to_bits(), "model {i}: train_step");
    }
}

/// Six training steps alternating between two models of different shapes on
/// the calling thread; returns every loss and gradient.
fn alternating_steps(poison_between_steps: bool) -> Vec<(u32, ParamMap)> {
    let mut rng = StdRng::seed_from_u64(5);
    let mut cnn = convnet2(1, 8, 32, 10, 0.25, &mut rng);
    let mut wide = convnet2(3, 12, 20, 7, 0.0, &mut rng);
    let x_cnn = random_tensor(&[20, 1, 8, 8], &mut rng);
    let x_wide = random_tensor(&[6, 3, 12, 12], &mut rng);
    let y_cnn = Target::Classes((0..20).map(|i| i % 10).collect());
    let y_wide = Target::Classes((0..6).map(|i| i % 7).collect());
    let mut out = Vec::new();
    for step in 0..6 {
        if poison_between_steps {
            scratch::poison();
        }
        let (model, x, y) = if step % 2 == 0 {
            (&mut cnn, &x_cnn, &y_cnn)
        } else {
            (&mut wide, &x_wide, &y_wide)
        };
        let (loss, grads) = model.loss_grad(x, y);
        let mut params = model.get_params();
        params.add_scaled(-0.1, &grads);
        model.set_params(&params);
        // an evaluation in between leaves differently-sized buffers behind
        let logits = model.predict(x);
        assert!(
            logits.is_finite(),
            "step {step}: prediction read poisoned scratch"
        );
        out.push((loss.to_bits(), grads));
    }
    out
}

#[test]
fn results_do_not_depend_on_scratch_contents() {
    // each run gets a thread, hence a scratch pool, of its own
    let clean = std::thread::spawn(|| alternating_steps(false))
        .join()
        .expect("clean run");
    let poisoned = std::thread::spawn(|| {
        let run = alternating_steps(true);
        eprintln!("pooled {}", scratch::pooled());
        scratch::poison();
        {
            let mut rng = StdRng::seed_from_u64(5);
            let mut conv = Conv2d::new(1, 8, 3, 1, &mut rng);
            let x = random_tensor(&[2, 1, 8, 8], &mut rng);
            let g = random_tensor(&[2, 8, 8, 8], &mut rng);
            conv.zero_grad();
            conv.forward(&x, true);
            conv.backward_params(&g);
            let mut grads = ParamMap::new();
            conv.collect_grads("c", &mut grads);
            eprintln!("conv alone after poison finite {}", grads.is_finite());
        }
        scratch::poison();
        {
            let mut rng = StdRng::seed_from_u64(5);
            let mut cnn = convnet2(1, 8, 32, 10, 0.25, &mut rng);
            let x = random_tensor(&[20, 1, 8, 8], &mut rng);
            let y = Target::Classes((0..20).map(|i| i % 10).collect());
            let (l, g) = cnn.loss_grad(&x, &y);
            eprintln!(
                "fresh model after poison: loss {l} finite {}",
                g.is_finite()
            );
        }
        let mut m = fs_tensor::layer::Relu::new();
        let y = m.forward(&Tensor::zeros(&[1152]), false);
        eprintln!("relu out {:?}", &y.data()[..4]);
        assert!(
            scratch::pooled() > 0,
            "nothing was pooled: the poison hit nothing"
        );
        run
    })
    .join()
    .expect("poisoned run");
    for (step, ((loss_a, grads_a), (loss_b, grads_b))) in clean.iter().zip(&poisoned).enumerate() {
        assert_eq!(loss_a, loss_b, "step {step}: loss");
        assert!(grads_a.is_finite());
        assert_same_grads(grads_b, grads_a, &format!("step {step}"));
    }
}

#[test]
fn a_model_at_rest_keeps_no_scratch() {
    // whatever a step took from the pool is back in it when the step returns
    std::thread::spawn(|| {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = convnet2(1, 8, 32, 10, 0.0, &mut rng);
        let x = random_tensor(&[20, 1, 8, 8], &mut rng);
        let y = Target::Classes((0..20).map(|i| i % 10).collect());
        let mut opt = Sgd::new(SgdConfig::with_lr(0.1));
        model.train_step(&mut opt, &x, &y, None);
        let after_warm_step = scratch::pooled();
        for _ in 0..3 {
            model.train_step(&mut opt, &x, &y, None);
            assert_eq!(
                scratch::pooled(),
                after_warm_step,
                "a step kept or leaked a buffer"
            );
        }
    })
    .join()
    .expect("step thread");
}

#[test]
#[should_panic(expected = "Conv2d bias shape")]
fn conv2d_rejects_a_mis_shaped_bias() {
    let mut rng = StdRng::seed_from_u64(0);
    let mut conv = Conv2d::new(2, 4, 3, 1, &mut rng);
    let mut params = ParamMap::new();
    // three values for four output channels: the bias add used to truncate
    params.insert("c.bias", Tensor::zeros(&[3]));
    conv.load_params("c", &params);
}
