//! The [`Model`] trait and the paper's evaluation architectures.
//!
//! The FL engine never sees layers — only models, addressed through named
//! parameters. The constructors here mirror the paper's ModelZoo subset used
//! in §5: logistic regression (Twitter sentiment), an MLP, the two-convolution
//! CNN ("ConvNet2", FEMNIST / CIFAR-10), an MLP with batch-norm (the FedBN
//! workhorse), and a dense GCN for the multi-goal graph scenarios (§3.4.2).

use crate::layer::{
    BatchNorm1d, Conv2d, Dropout, Flatten, Layer, Linear, Relu, ReluMaxPool2d, Sequential,
};
use crate::loss::{
    accuracy, cross_entropy_loss, mse, mse_loss, softmax_cross_entropy, LossKind, Target,
};
use crate::optim::Sgd;
use crate::{init, scratch, ParamMap, Tensor};
use rand::Rng;

/// Evaluation metrics for one dataset split.
#[derive(Clone, Copy, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Metrics {
    /// Mean loss over the split.
    pub loss: f32,
    /// Classification accuracy (0 for regression tasks).
    pub accuracy: f32,
    /// Number of evaluated examples.
    pub n: usize,
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loss={:.4} acc={:.4} n={}",
            self.loss, self.accuracy, self.n
        )
    }
}

impl Metrics {
    /// Size-weighted combination of per-client metrics.
    pub fn weighted_merge(parts: &[Metrics]) -> Metrics {
        let n: usize = parts.iter().map(|m| m.n).sum();
        if n == 0 {
            return Metrics::default();
        }
        let nf = n as f32;
        Metrics {
            loss: parts.iter().map(|m| m.loss * m.n as f32).sum::<f32>() / nf,
            accuracy: parts.iter().map(|m| m.accuracy * m.n as f32).sum::<f32>() / nf,
            n,
        }
    }
}

/// A trainable model exposing name-addressed parameters.
pub trait Model: Send {
    /// Snapshot of all parameters (including buffers).
    fn get_params(&self) -> ParamMap;

    /// Loads parameters by name; names absent from `src` keep their values.
    fn set_params(&mut self, src: &ParamMap);

    /// Eval-mode forward pass returning logits / predictions.
    fn predict(&mut self, x: &Tensor) -> Tensor;

    /// Train-mode forward + backward; returns the mean loss and the gradient
    /// of the mean loss with respect to every trainable parameter.
    fn loss_grad(&mut self, x: &Tensor, y: &Target) -> (f32, ParamMap);

    /// One training step on a batch: [`Model::loss_grad`], then `opt`
    /// stepping the parameters with that gradient (`anchor` is the proximal
    /// anchor, if any). Returns the mean loss.
    ///
    /// The default goes through [`ParamMap`] copies; a model that can hand
    /// out its own tensors and gradients ([`NetModel`]) is stepped where it
    /// lives, with the same bits and no copy.
    fn train_step(
        &mut self,
        opt: &mut Sgd,
        x: &Tensor,
        y: &Target,
        anchor: Option<&ParamMap>,
    ) -> f32 {
        let (loss, grads) = self.loss_grad(x, y);
        let mut params = self.get_params();
        opt.step(&mut params, &grads, anchor);
        self.set_params(&params);
        loss
    }

    /// Keys of non-trained buffers (e.g. batch-norm running statistics).
    fn buffer_keys(&self) -> Vec<String> {
        Vec::new()
    }

    /// Evaluates loss and accuracy on a split without computing gradients.
    fn evaluate(&mut self, x: &Tensor, y: &Target) -> Metrics {
        let logits = self.predict(x);
        let (loss, acc) = match y {
            Target::Classes(c) => (cross_entropy_loss(&logits, c), accuracy(&logits, c)),
            Target::Values(v) => (mse_loss(&logits, v), 0.0),
        };
        scratch::give(logits);
        Metrics {
            loss,
            accuracy: acc,
            n: y.len(),
        }
    }

    /// Deep copy as a boxed trait object.
    fn clone_model(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// A [`Sequential`] network paired with a loss — covers every feed-forward
/// architecture in the evaluation.
pub struct NetModel {
    net: Sequential,
    loss: LossKind,
}

impl NetModel {
    /// Wraps a network and a loss into a model.
    pub fn new(net: Sequential, loss: LossKind) -> Self {
        Self { net, loss }
    }

    /// The wrapped network (for inspection and layer-level tests).
    pub fn net(&self) -> &Sequential {
        &self.net
    }

    /// Train-mode forward, loss and backward: leaves the gradient of the
    /// mean loss in each layer's accumulators and returns the loss.
    fn forward_backward(&mut self, x: &Tensor, y: &Target) -> f32 {
        self.net.zero_grad();
        let logits = self.net.forward(x, true);
        let (loss, grad_logits) = match (self.loss, y) {
            (LossKind::SoftmaxCrossEntropy, Target::Classes(c)) => {
                softmax_cross_entropy(&logits, c)
            }
            (LossKind::Mse, Target::Values(v)) => mse(&logits, v),
            (kind, _) => panic!("loss {kind:?} incompatible with target type"),
        };
        scratch::give(logits);
        // nobody reads the gradient w.r.t. the batch: the first layer skips it
        self.net.backward_params(&grad_logits);
        scratch::give(grad_logits);
        loss
    }
}

impl Model for NetModel {
    fn get_params(&self) -> ParamMap {
        let mut p = ParamMap::new();
        self.net.collect_params("", &mut p);
        p
    }

    fn set_params(&mut self, src: &ParamMap) {
        self.net.load_params("", src);
    }

    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.net.forward(x, false)
    }

    fn loss_grad(&mut self, x: &Tensor, y: &Target) -> (f32, ParamMap) {
        let loss = self.forward_backward(x, y);
        let mut grads = ParamMap::new();
        self.net.collect_grads("", &mut grads);
        (loss, grads)
    }

    fn train_step(
        &mut self,
        opt: &mut Sgd,
        x: &Tensor,
        y: &Target,
        anchor: Option<&ParamMap>,
    ) -> f32 {
        let loss = self.forward_backward(x, y);
        opt.step_each(anchor, |visit| self.net.for_each_trainable(visit));
        loss
    }

    fn buffer_keys(&self) -> Vec<String> {
        self.net.buffer_keys()
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(NetModel {
            net: self.net.clone_net(),
            loss: self.loss,
        })
    }
}

/// Multinomial logistic regression: a single linear layer + softmax CE.
///
/// This is the paper's Twitter model (bag-of-words sentiment, §5.2).
pub fn logistic_regression(in_dim: usize, classes: usize, rng: &mut impl Rng) -> NetModel {
    let mut net = Sequential::new();
    net.push("fc", Box::new(Linear::new(in_dim, classes, rng)));
    NetModel::new(net, LossKind::SoftmaxCrossEntropy)
}

/// Multi-layer perceptron with ReLU activations.
pub fn mlp(dims: &[usize], rng: &mut impl Rng) -> NetModel {
    assert!(dims.len() >= 2, "mlp needs at least input and output dims");
    let mut net = Sequential::new();
    for (i, w) in dims.windows(2).enumerate() {
        net.push(
            format!("fc{}", i + 1),
            Box::new(Linear::new(w[0], w[1], rng)),
        );
        if i + 2 < dims.len() {
            net.push(format!("act{}", i + 1), Box::new(Relu::new()));
        }
    }
    NetModel::new(net, LossKind::SoftmaxCrossEntropy)
}

/// MLP with a batch-norm layer after each hidden linear layer.
///
/// FedBN keeps the `bn*.*` keys local; everything else is shared.
pub fn mlp_bn(dims: &[usize], rng: &mut impl Rng) -> NetModel {
    assert!(
        dims.len() >= 2,
        "mlp_bn needs at least input and output dims"
    );
    let mut net = Sequential::new();
    for (i, w) in dims.windows(2).enumerate() {
        net.push(
            format!("fc{}", i + 1),
            Box::new(Linear::new(w[0], w[1], rng)),
        );
        if i + 2 < dims.len() {
            net.push(format!("bn{}", i + 1), Box::new(BatchNorm1d::new(w[1])));
            net.push(format!("act{}", i + 1), Box::new(Relu::new()));
        }
    }
    NetModel::new(net, LossKind::SoftmaxCrossEntropy)
}

/// The paper's "ConvNet2": two 3x3 convolutions (each followed by ReLU and
/// 2x2 max-pooling), a hidden fully-connected layer with dropout, and a
/// classification head.
///
/// `img` is the square input side length, `in_ch` the channel count.
pub fn convnet2(
    in_ch: usize,
    img: usize,
    hidden: usize,
    classes: usize,
    dropout: f32,
    rng: &mut impl Rng,
) -> NetModel {
    let mut net = Sequential::new();
    net.push("conv1", Box::new(Conv2d::new(in_ch, 8, 3, 1, rng)));
    net.push("pool1", Box::new(ReluMaxPool2d::new()));
    net.push("conv2", Box::new(Conv2d::new(8, 16, 3, 1, rng)));
    net.push("pool2", Box::new(ReluMaxPool2d::new()));
    net.push("flat", Box::new(Flatten::new()));
    let side = img / 4;
    let feat = 16 * side * side;
    net.push("fc1", Box::new(Linear::new(feat, hidden, rng)));
    net.push("act3", Box::new(Relu::new()));
    if dropout > 0.0 {
        net.push("drop", Box::new(Dropout::new(dropout, rng.gen())));
    }
    net.push("fc2", Box::new(Linear::new(hidden, classes, rng)));
    NetModel::new(net, LossKind::SoftmaxCrossEntropy)
}

/// A two-layer graph convolutional network over *packed* fixed-size graphs.
///
/// Multi-goal FL (§3.4.2) federates research institutes owning different
/// molecular tasks; each example here is a graph with exactly `n` nodes and
/// `f` input features, packed row-major into a `[B, n*n + n*f]` tensor
/// (adjacency first, then features). The model computes
/// `readout(Â · relu(Â X W1) · W2)` followed by a task head, where `Â` is the
/// symmetric-normalized adjacency with self-loops.
///
/// Parameter names: `gconv1.weight`, `gconv2.weight` (the shared *consensus
/// set* in multi-goal courses) and `head.weight` / `head.bias` (private).
pub struct Gcn {
    n: usize,
    f: usize,
    hidden: usize,
    out: usize,
    w1: Tensor,
    w2: Tensor,
    head_w: Tensor,
    head_b: Tensor,
    loss: LossKind,
}

impl Gcn {
    /// Creates a GCN for `n`-node graphs with `f` input features.
    pub fn new(
        n: usize,
        f: usize,
        hidden: usize,
        out: usize,
        loss: LossKind,
        rng: &mut impl Rng,
    ) -> Self {
        Self {
            n,
            f,
            hidden,
            out,
            w1: init::xavier_uniform(&[f, hidden], f, hidden, rng),
            w2: init::xavier_uniform(&[hidden, hidden], hidden, hidden, rng),
            head_w: init::xavier_uniform(&[hidden, out], hidden, out, rng),
            head_b: Tensor::zeros(&[out]),
            loss,
        }
    }

    /// Packs an adjacency matrix and node features into one example row.
    pub fn pack(adj: &Tensor, feats: &Tensor) -> Vec<f32> {
        let mut row = Vec::with_capacity(adj.numel() + feats.numel());
        row.extend_from_slice(adj.data());
        row.extend_from_slice(feats.data());
        row
    }

    /// Input width expected by [`Model::predict`] for this configuration.
    pub fn input_width(&self) -> usize {
        self.n * self.n + self.n * self.f
    }

    #[expect(
        clippy::needless_range_loop,
        reason = "index loops read clearer in kernels"
    )]
    fn norm_adj(&self, packed: &[f32]) -> Tensor {
        let n = self.n;
        let mut a = Tensor::from_vec(vec![n, n], packed[..n * n].to_vec());
        for i in 0..n {
            *a.at_mut(i, i) = 1.0; // self-loops
        }
        let mut deg = vec![0.0f32; n];
        for i in 0..n {
            deg[i] = a.row(i).iter().sum::<f32>().max(1e-6);
        }
        for i in 0..n {
            for j in 0..n {
                *a.at_mut(i, j) /= (deg[i] * deg[j]).sqrt();
            }
        }
        a
    }

    fn feats(&self, packed: &[f32]) -> Tensor {
        let off = self.n * self.n;
        Tensor::from_vec(vec![self.n, self.f], packed[off..].to_vec())
    }

    /// Forward pass over a packed batch; returns per-graph intermediates when
    /// `keep` is set (used by backward).
    #[expect(
        clippy::type_complexity,
        clippy::needless_range_loop,
        reason = "the per-graph intermediates stay a private tuple; index loops read clearer in kernels"
    )]
    fn forward_batch(
        &self,
        x: &Tensor,
        keep: bool,
    ) -> (Tensor, Vec<(Tensor, Tensor, Tensor, Tensor, Tensor)>) {
        assert_eq!(x.cols(), self.input_width(), "Gcn packed input width");
        let b = x.rows();
        let mut logits = Tensor::zeros(&[b, self.out]);
        let mut caches = Vec::new();
        for bi in 0..b {
            let packed = x.row(bi);
            let a = self.norm_adj(packed);
            let feats = self.feats(packed);
            let ax = a.matmul(&feats); // [n, f]
            let z1 = ax.matmul(&self.w1); // [n, hidden]
            let h1 = z1.map(|v| v.max(0.0));
            let ah1 = a.matmul(&h1); // [n, hidden]
            let h2 = ah1.matmul(&self.w2); // [n, hidden]
                                           // mean readout over nodes -> [hidden]
            let mut pooled = vec![0.0f32; self.hidden];
            for r in 0..self.n {
                for c in 0..self.hidden {
                    pooled[c] += h2.at(r, c);
                }
            }
            for p in &mut pooled {
                *p /= self.n as f32;
            }
            let pooled_t = Tensor::from_vec(vec![1, self.hidden], pooled);
            let out_row = pooled_t.matmul(&self.head_w); // [1, out]
            for c in 0..self.out {
                *logits.at_mut(bi, c) = out_row.at(0, c) + self.head_b.data()[c];
            }
            if keep {
                caches.push((a, ax, z1, ah1, pooled_t));
            }
        }
        (logits, caches)
    }
}

impl Model for Gcn {
    fn get_params(&self) -> ParamMap {
        let mut p = ParamMap::new();
        p.insert("gconv1.weight", self.w1.clone());
        p.insert("gconv2.weight", self.w2.clone());
        p.insert("head.weight", self.head_w.clone());
        p.insert("head.bias", self.head_b.clone());
        p
    }

    fn set_params(&mut self, src: &ParamMap) {
        if let Some(t) = src.get("gconv1.weight") {
            self.w1 = t.clone();
        }
        if let Some(t) = src.get("gconv2.weight") {
            self.w2 = t.clone();
        }
        if let Some(t) = src.get("head.weight") {
            self.head_w = t.clone();
        }
        if let Some(t) = src.get("head.bias") {
            self.head_b = t.clone();
        }
    }

    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.forward_batch(x, false).0
    }

    fn loss_grad(&mut self, x: &Tensor, y: &Target) -> (f32, ParamMap) {
        let (logits, caches) = self.forward_batch(x, true);
        let (loss, grad_logits) = match (self.loss, y) {
            (LossKind::SoftmaxCrossEntropy, Target::Classes(c)) => {
                softmax_cross_entropy(&logits, c)
            }
            (LossKind::Mse, Target::Values(v)) => mse(&logits, v),
            (kind, _) => panic!("loss {kind:?} incompatible with target type"),
        };
        let b = x.rows();
        let mut gw1 = self.w1.zeros_like();
        let mut gw2 = self.w2.zeros_like();
        let mut ghw = self.head_w.zeros_like();
        let mut ghb = self.head_b.zeros_like();
        for (bi, (a, ax, z1, ah1, pooled)) in caches.into_iter().enumerate() {
            let go = Tensor::from_vec(vec![1, self.out], grad_logits.row(bi).to_vec());
            // head: out = pooled * head_w + head_b
            ghw.add_scaled(1.0, &pooled.t().matmul(&go));
            ghb.add_scaled(1.0, &go.reshape(&[self.out]));
            let gp = go.matmul(&self.head_w.t()); // [1, hidden]
                                                  // mean readout: each node row gets gp / n
            let mut gh2 = Tensor::zeros(&[self.n, self.hidden]);
            for r in 0..self.n {
                for c in 0..self.hidden {
                    *gh2.at_mut(r, c) = gp.at(0, c) / self.n as f32;
                }
            }
            // h2 = ah1 * w2
            gw2.add_scaled(1.0, &ah1.t().matmul(&gh2));
            let gah1 = gh2.matmul(&self.w2.t()); // [n, hidden]
                                                 // ah1 = a * h1, a symmetric normalized (a^T = a)
            let gh1 = a.t().matmul(&gah1);
            // h1 = relu(z1)
            let gz1_data: Vec<f32> = gh1
                .data()
                .iter()
                .zip(z1.data())
                .map(|(&g, &z)| if z > 0.0 { g } else { 0.0 })
                .collect();
            let gz1 = Tensor::from_vec(vec![self.n, self.hidden], gz1_data);
            // z1 = ax * w1
            gw1.add_scaled(1.0, &ax.t().matmul(&gz1));
        }
        let _ = b;
        let mut grads = ParamMap::new();
        grads.insert("gconv1.weight", gw1);
        grads.insert("gconv2.weight", gw2);
        grads.insert("head.weight", ghw);
        grads.insert("head.bias", ghb);
        (loss, grads)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(Gcn {
            n: self.n,
            f: self.f,
            hidden: self.hidden,
            out: self.out,
            w1: self.w1.clone(),
            w2: self.w2.clone(),
            head_w: self.head_w.clone(),
            head_b: self.head_b.clone(),
            loss: self.loss,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn logistic_param_names() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = logistic_regression(5, 3, &mut rng);
        let p = m.get_params();
        let names: Vec<_> = p.names().collect();
        assert_eq!(names, vec!["fc.bias", "fc.weight"]);
        assert_eq!(p.get("fc.weight").unwrap().shape(), &[3, 5]);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = mlp(&[4, 8, 3], &mut rng);
        let zeros = m.get_params().zeros_like();
        m.set_params(&zeros);
        assert_eq!(m.get_params(), zeros);
    }

    #[test]
    fn mlp_bn_reports_buffers() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = mlp_bn(&[4, 8, 3], &mut rng);
        assert_eq!(m.buffer_keys(), vec!["bn1.running_mean", "bn1.running_var"]);
    }

    #[test]
    fn convnet_trains_on_tiny_problem() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut m = convnet2(1, 8, 16, 2, 0.0, &mut rng);
        // two constant images, classes 0 and 1
        let mut x = Tensor::zeros(&[2, 1, 8, 8]);
        for i in 0..64 {
            x.data_mut()[64 + i] = 1.0;
        }
        let y = Target::Classes(vec![0, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            let (loss, grads) = m.loss_grad(&x, &y);
            let mut p = m.get_params();
            p.add_scaled(-0.5, &grads);
            m.set_params(&p);
            last = loss;
        }
        assert!(last < 0.2, "convnet failed to fit: loss {last}");
    }

    #[test]
    fn mlp_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = mlp(&[3, 4, 2], &mut rng);
        let x = Tensor::from_vec(vec![2, 3], vec![0.5, -0.2, 0.8, -1.0, 0.3, 0.1]);
        let y = Target::Classes(vec![1, 0]);
        let (_, grads) = m.loss_grad(&x, &y);
        let params = m.get_params();
        let eps = 1e-2f32;
        for (name, g) in grads.iter() {
            for i in 0..g.numel().min(6) {
                let mut pp = params.clone();
                pp.get_mut(name).unwrap().data_mut()[i] += eps;
                m.set_params(&pp);
                let (lp, _) = m.loss_grad(&x, &y);
                let mut pm = params.clone();
                pm.get_mut(name).unwrap().data_mut()[i] -= eps;
                m.set_params(&pm);
                let (lm, _) = m.loss_grad(&x, &y);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - g.data()[i]).abs() < 2e-2,
                    "{name}[{i}]: fd {fd} vs analytic {}",
                    g.data()[i]
                );
            }
        }
    }

    #[test]
    fn gcn_shapes_and_fit() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 4;
        let f = 3;
        let mut m = Gcn::new(n, f, 8, 2, LossKind::SoftmaxCrossEntropy, &mut rng);
        // two graphs: empty graph vs complete graph, distinct features
        let mut rows = Vec::new();
        for g in 0..2 {
            let mut adj = Tensor::zeros(&[n, n]);
            if g == 1 {
                for i in 0..n {
                    for j in 0..n {
                        if i != j {
                            *adj.at_mut(i, j) = 1.0;
                        }
                    }
                }
            }
            let feats = Tensor::full(&[n, f], g as f32);
            rows.push(Gcn::pack(&adj, &feats));
        }
        let width = m.input_width();
        let flat: Vec<f32> = rows.concat();
        let x = Tensor::from_vec(vec![2, width], flat);
        let y = Target::Classes(vec![0, 1]);
        let mut last = f32::INFINITY;
        for _ in 0..100 {
            let (loss, grads) = m.loss_grad(&x, &y);
            let mut p = m.get_params();
            p.add_scaled(-0.5, &grads);
            m.set_params(&p);
            last = loss;
        }
        assert!(last < 0.1, "gcn failed to fit: loss {last}");
    }

    #[test]
    fn gcn_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 3;
        let f = 2;
        let mut m = Gcn::new(n, f, 4, 2, LossKind::SoftmaxCrossEntropy, &mut rng);
        let mut adj = Tensor::zeros(&[n, n]);
        *adj.at_mut(0, 1) = 1.0;
        *adj.at_mut(1, 0) = 1.0;
        let feats = Tensor::from_vec(vec![n, f], vec![0.5, -0.3, 0.2, 0.8, -0.1, 0.4]);
        let row = Gcn::pack(&adj, &feats);
        let x = Tensor::from_vec(vec![1, m.input_width()], row);
        let y = Target::Classes(vec![1]);
        let (_, grads) = m.loss_grad(&x, &y);
        let params = m.get_params();
        let eps = 1e-2f32;
        for (name, g) in grads.iter() {
            for i in 0..g.numel().min(4) {
                let mut pp = params.clone();
                pp.get_mut(name).unwrap().data_mut()[i] += eps;
                m.set_params(&pp);
                let (lp, _) = m.loss_grad(&x, &y);
                let mut pm = params.clone();
                pm.get_mut(name).unwrap().data_mut()[i] -= eps;
                m.set_params(&pm);
                let (lm, _) = m.loss_grad(&x, &y);
                let fd = (lp - lm) / (2.0 * eps);
                assert!(
                    (fd - g.data()[i]).abs() < 2e-2,
                    "{name}[{i}]: fd {fd} vs analytic {}",
                    g.data()[i]
                );
            }
        }
        m.set_params(&params);
    }

    #[test]
    fn metrics_weighted_merge() {
        let a = Metrics {
            loss: 1.0,
            accuracy: 0.5,
            n: 10,
        };
        let b = Metrics {
            loss: 3.0,
            accuracy: 1.0,
            n: 30,
        };
        let m = Metrics::weighted_merge(&[a, b]);
        assert!((m.loss - 2.5).abs() < 1e-6);
        assert!((m.accuracy - 0.875).abs() < 1e-6);
        assert_eq!(m.n, 40);
        assert_eq!(Metrics::weighted_merge(&[]), Metrics::default());
    }

    #[test]
    fn metrics_serde_roundtrip_and_display() {
        use serde::{Deserialize, Serialize};
        let m = Metrics {
            loss: 0.25,
            accuracy: 0.875,
            n: 40,
        };
        let back = Metrics::from_value(&m.to_value()).unwrap();
        assert_eq!(back, m);
        assert_eq!(m.to_string(), "loss=0.2500 acc=0.8750 n=40");
    }
}
