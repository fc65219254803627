//! `fs-core` — the event-driven federated-learning engine.
//!
//! This crate is the Rust reproduction of FederatedScope's core (§3): an FL
//! course is framed as `<event, handler>` pairs held independently by each
//! participant. Two event classes exist — message-passing and
//! condition-checking — and every strategy in the paper is a choice of which
//! condition triggers aggregation (`all_received` / `goal_achieved` /
//! `time_up`), how models are re-broadcast (*after aggregating* / *after
//! receiving*), and how clients are sampled (uniform / responsiveness-aware /
//! grouped).
//!
//! Quick start:
//!
//! ```
//! use fs_core::config::FlConfig;
//! use fs_core::course::CourseBuilder;
//! use fs_data::synth::{twitter_like, TwitterConfig};
//! use fs_tensor::model::logistic_regression;
//!
//! let data = twitter_like(&TwitterConfig { num_clients: 8, ..Default::default() });
//! let dim = data.input_dim();
//! let cfg = FlConfig { total_rounds: 3, concurrency: 4, ..Default::default() };
//! let mut runner = CourseBuilder::new(
//!     data,
//!     Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
//!     cfg,
//! )
//! .build();
//! let report = runner.run();
//! assert_eq!(report.rounds, 3);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod aggregator;
pub mod client;
pub mod config;
pub mod course;
pub mod ctx;
pub mod distributed;
pub mod eval;
pub mod event;
pub mod idset;
pub mod lint;
pub mod registry;
pub mod runner;
pub mod sampler;
mod scheduler;
pub mod server;
pub mod store;
pub mod trainer;
pub mod transport;
mod tree;
pub mod verify;

pub use aggregator::{Aggregator, ReceivedUpdate};
pub use client::{Client, ClientState};
pub use config::{
    AggregationRule, BroadcastManner, CodecSpec, CompressionConfig, DropoutPolicy, FlConfig,
    SamplerKind,
};
pub use course::CourseBuilder;
pub use ctx::Ctx;
pub use event::{Condition, Event};
pub use idset::IdSet;
pub use lint::lint_config;
pub use runner::{CourseReport, Runner, StandaloneRunner, TopoReport};
pub use server::{Server, ServerState};
pub use store::ClientStore;
pub use trainer::{LocalTrainer, ShareFilter, TrainConfig, Trainer};
pub use verify::{course_ir, effective_handler_log, preflight, verify_assembled};
