//! `fs-tensor` — the machine-learning substrate for fedscope-rs.
//!
//! FederatedScope (VLDB 2023) runs on PyTorch/TensorFlow; mature Rust
//! equivalents do not exist, so this crate implements from scratch everything
//! the platform's `Trainer`s need:
//!
//! * [`Tensor`] — a dense, row-major `f32` tensor with the linear algebra the
//!   layers require (matmul, transpose, elementwise ops, reductions);
//! * [`layer`] — neural-network layers with **manual analytic gradients**
//!   (`Linear`, `Conv2d` via a per-image feature-major im2col, `BatchNorm1d`,
//!   `Relu`, `Dropout`, `MaxPool2d` and the fused `ReluMaxPool2d`,
//!   `Flatten`), composed by
//!   [`layer::Sequential`];
//! * [`scratch`] — the per-thread pool every temporary of a training step
//!   comes from and returns to, so a warm step allocates nothing and a model
//!   at rest holds parameters and gradients only;
//! * [`model`] — the [`model::Model`] trait plus the architectures used in the
//!   paper's evaluation: logistic regression (Twitter), a two-convolution CNN
//!   (FEMNIST / CIFAR-10, the paper's "ConvNet2"), an MLP, and a dense GCN for
//!   the multi-goal graph scenarios (§3.4.2);
//! * [`optim`] — client-side SGD with momentum / weight decay / proximal
//!   terms (FedProx, Ditto, pFedMe all need the proximal form) and the
//!   server-side optimizers used by FedOpt (SGD / Adam / Yogi);
//! * [`params`] — [`params::ParamMap`], the name-addressed parameter
//!   collection every FL message carries. Name-addressing is what makes
//!   personalization algorithms such as FedBN ("do not share `bn.*` keys")
//!   one-line filters.
//!
//! Every gradient in this crate is verified against finite differences in the
//! test suite.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod init;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod params;
pub mod scratch;
pub mod tensor;

pub use params::ParamMap;
pub use tensor::Tensor;
