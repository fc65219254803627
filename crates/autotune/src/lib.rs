//! `fs-autotune` — the auto-tuning manager plug-in (§4.3).
//!
//! Hyperparameters drive FL performance, so FederatedScope ships an HPO
//! component with a unified, granularity-spanning interface:
//!
//! * [`space`] — search spaces (log/linear floats, ints, choices);
//! * [`objective`] — the budget-aware, checkpointable black-box objective
//!   wrapping an FL course;
//! * [`rs`] — random search (treats a *complete* course as the black box);
//! * [`sha`] — successive halving (*a few rounds* per evaluation, resuming
//!   survivors from checkpoints);
//! * [`fedex`] — FedEx, the Federated-HPO method exploring *client-wise*
//!   configurations concurrently within single rounds, composable under an
//!   RS or SHA wrapper (the Figure 14 protocol).

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod fedex;
pub mod objective;
pub mod rs;
pub mod sha;
pub mod space;

pub use fedex::{FedExHook, FedExPolicy};
pub use objective::{Checkpoint, FlObjective, Objective, TrialResult};
pub use rs::{random_search, SearchOutcome};
pub use sha::successive_halving;
pub use space::{Config, Param, SearchSpace};
