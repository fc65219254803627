//! `fs-personalize` — personalized FL algorithms and multi-goal courses (§3.4).
//!
//! Heterogeneous local data makes one global model sub-optimal; the paper
//! ships several representative personalization algorithms, all of which are
//! *trainer-level* customizations in the event-driven architecture — the
//! server and message flow stay untouched, and a trainer states only what
//! differs (a second model, an anchor, mixture weights): the local-SGD pass
//! and the split evaluation are [`fs_core::trainer::sgd_pass`] and
//! [`fs_core::trainer::eval_split`]:
//!
//! * [`fedbn`] — FedBN (Li et al.): share everything except batch-norm
//!   parameters. A pure [`fs_core::trainer::ShareFilter`].
//! * [`ditto`] — Ditto (Li et al.): besides the shared global model, each
//!   client trains a personal model with a proximal pull toward the global.
//! * [`pfedme`] — pFedMe (Dinh et al.): Moreau-envelope personalization; the
//!   personal model solves an inner proximal problem, the outer iterate moves
//!   toward it.
//! * [`fedem`] — FedEM (Marfoq et al.): clients model their data as a mixture
//!   of `K` shared components with private mixture weights, updated by
//!   batch EM.
//! * [`multigoal`] — FL with multiple learning goals (§3.4.2): clients share a
//!   consensus subset of parameters (e.g. a graph encoder) while owning
//!   different heads, losses, and even task types.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ditto;
pub mod fedbn;
pub mod fedem;
pub mod multigoal;
pub mod pfedme;

pub use ditto::DittoTrainer;
pub use fedem::{FedEmTrainer, MixtureModel};
pub use pfedme::PFedMeTrainer;
