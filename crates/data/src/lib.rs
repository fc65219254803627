//! `fs-data` — the DataZoo: synthetic federated datasets and partitioners.
//!
//! The paper's DataZoo (§5.1, Appendix C) packages FEMNIST, CelebA, CIFAR-10,
//! Shakespeare, Twitter, Reddit, and several graph datasets. Those corpora are
//! not available here, so this crate generates *synthetic* datasets with the
//! same structural heterogeneity, which is what the evaluation actually
//! exercises:
//!
//! * [`synth::femnist_like`] — writer-partitioned image classification where
//!   every client ("writer") applies its own style transform to shared class
//!   prototypes: **feature-skew** non-IID, like FEMNIST.
//! * [`synth::cifar_like`] — image classification partitioned across clients
//!   with a Dirichlet(α) label distribution: **label-skew** non-IID, like the
//!   paper's CIFAR-10 splits (§5.2, Appendix G).
//! * [`synth::twitter_like`] — sparse bag-of-words sentiment analysis with one
//!   tiny client per "user", like the paper's Twitter subset.
//! * [`synth::cifar_like_biased`] — the Appendix-I "bias-CIFAR" split where
//!   rare labels are owned only by slow clients, coupling data and system
//!   heterogeneity.
//! * [`graphs`] — synthetic fixed-size graph tasks for the multi-goal
//!   scenarios of §3.4.2 (different clients own classification vs regression
//!   goals over a shared graph encoder).
//! * [`text`] — Shakespeare-like next-character prediction (role-partitioned,
//!   style-skewed) and CelebA-like binary attributes, rounding out the
//!   DataZoo's LEAF coverage;
//! * [`partition`] — the reusable partitioners (IID, Dirichlet) behind the
//!   generators.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dataset;
pub mod graphs;
pub mod partition;
pub mod synth;
pub mod text;

pub use dataset::{ClientData, ClientSplit, FedDataset};
