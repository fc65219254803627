//! # fedscope
//!
//! A Rust reproduction of **FederatedScope** (VLDB 2023): a flexible,
//! event-driven federated-learning platform for heterogeneity.
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`tensor`] — ML substrate (tensors, layers, models, optimizers)
//! * [`data`] — DataZoo: synthetic federated datasets and partitioners
//! * [`net`] — messages, wire codec (message translation), backends
//! * [`compress`] — update compression: quantization, top-k sparsification
//!   with error feedback, and delta encoding
//! * [`sim`] — virtual time, device profiles, discrete-event queue
//! * [`monitor`] — observability: spans, counters, round metrics, Chrome
//!   trace / JSONL / CSV exporters
//! * [`verify`] — static course verification & config lints with structured
//!   `FSVnnn` diagnostics (§3.6, Appendix E)
//! * [`core`] — the event-driven FL engine (workers, events, handlers,
//!   aggregators, samplers, runners — which route star, hierarchical and
//!   serverless gossip courses, edge aggregation included — completeness
//!   checking)
//! * [`scale`] — the names million-client courses are assembled under
//!   (their on-demand client slots live in `core`'s one client store)
//! * [`personalize`] — FedBN / Ditto / pFedMe / FedEM and multi-goal FL
//! * [`privacy`] — the Gaussian DP mechanism, Paillier, secret sharing
//! * [`attack`] — privacy attacks (DLG, membership inference) and backdoors
//!   (BadNets, DBA, model replacement)
//! * [`autotune`] — HPO: random search, successive halving, FedEx
//!
//! See the `examples/` directory for runnable FL courses, and `crates/bench`
//! for the harness reproducing every table and figure of the paper.

pub use fs_attack as attack;
pub use fs_autotune as autotune;
pub use fs_compress as compress;
pub use fs_core as core;
pub use fs_data as data;
pub use fs_monitor as monitor;
pub use fs_net as net;
pub use fs_personalize as personalize;
pub use fs_privacy as privacy;
pub use fs_scale as scale;
pub use fs_sim as sim;
pub use fs_tensor as tensor;
pub use fs_verify as verify;
