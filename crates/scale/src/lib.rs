//! # fs-scale — million-client simulation core
//!
//! The eager client store materializes every client up front: a model,
//! a dataset split, an optimizer, and a handler registry per client, held for
//! the whole course. That caps simulations around the tens of thousands of
//! clients. Million-client courses rest on two observations about federated
//! courses at scale:
//!
//! 1. **Almost every client is idle almost always.** Per round the server
//!    samples a small cohort; the rest of the fleet does nothing. An idle
//!    client needs no tensors — only the tiny resumable state (optimizer
//!    buffers, RNG stream, a few counters) that makes its *next* activation
//!    bit-identical to a world where it had stayed resident.
//! 2. **Most events are cohort-shaped.** A broadcast to `m` clients is one
//!    payload and `m` arrival times — not `m` owned messages.
//!
//! The second observation is built into `fs_core`'s one virtual-time loop
//! ([`fs_core::Runner`]): every course, eager or lazy, schedules a broadcast
//! as one heap entry re-armed member by member. This crate supplies the
//! first: [`store::LazyStore`], a [`fs_core::ClientStore`] in which idle
//! clients are O(1) slots and the dispatched client is materialized from a
//! [`store::ClientFactory`] (model tensors recycled through a pool). The
//! result runs 1,000,000-client courses in a memory footprint an eager store
//! would need for a few hundred, while producing **bit-identical**
//! [`fs_core::CourseReport`]s (and monitor streams) on scales where both
//! stores fit — the equivalence suite in `tests/scale_equivalence.rs` holds
//! that line.
//!
//! There is no switch to flip: a course gets the lazy store by being
//! assembled with [`course::ScaleCourseBuilder`], i.e. from a client-index
//! closure (the only form a million-client dataset can take) or a shared
//! dataset to index into.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod course;
pub mod store;

pub use course::{ScaleCourseBuilder, ScaleRunner};
pub use store::{ClientFactory, LazyStore};

use fs_core::trainer::{LocalUpdate, Trainer};
use fs_tensor::model::Metrics;
use fs_tensor::ParamMap;

/// A placeholder trainer for client shells that must never train: the
/// verification representative, and hibernating clients whose real trainer
/// has been dismantled into pooled parts.
pub struct NullTrainer;

impl Trainer for NullTrainer {
    fn incorporate(&mut self, _global: &ParamMap) {}

    fn local_train(&mut self, _global: &ParamMap, _round: u64) -> LocalUpdate {
        LocalUpdate {
            params: ParamMap::new(),
            n_samples: 0,
            n_steps: 0,
            examples_processed: 0,
        }
    }

    fn evaluate_val(&mut self) -> Metrics {
        Metrics::default()
    }

    fn evaluate_test(&mut self) -> Metrics {
        Metrics::default()
    }

    fn num_train_samples(&self) -> usize {
        0
    }
}
