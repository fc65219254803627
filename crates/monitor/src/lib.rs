//! `fs-monitor` — event-driven observability: spans, counters, round metrics.
//!
//! The paper's platform ships a Monitor that records per-round learning
//! metrics and system efficiency alongside the event-driven engine. This
//! crate is that layer for the Rust reproduction:
//!
//! * [`api::Monitor`] — the recording trait: well-nested spans per *track*
//!   (participant), named counters, and per-round learning metrics;
//! * [`api::MonitorHandle`] — the cheap, cloneable handle every hot path
//!   carries. The default handle is *null*: no allocation, no lock, every
//!   record call is a single `Option` test. Observability costs nothing
//!   until a recording monitor is attached;
//! * [`recording::RecordingMonitor`] — the in-memory implementation backing
//!   all exporters, with per-track span stacks that make well-nestedness a
//!   construction invariant rather than a convention;
//! * [`trace`] — Chrome trace-event JSON (loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev)) with one named track per
//!   participant.
//!
//! Counter *names* are centralized in [`counters`] so producers (fs-core's
//! runner, fs-net's TCP backend) and consumers (exporters, tests) agree on
//! the vocabulary. The byte counters are bumped at the exact points where
//! the simulator charges communication cost, so monitor totals reconcile
//! with sim-charged bytes by construction — the e2e suite asserts equality.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod api;
pub mod recording;
pub mod sharded;
pub mod trace;

pub use api::{counters, Monitor, MonitorHandle, TrackId, SERVER_TRACK};
pub use recording::{RecordingMonitor, RoundRecord, SpanRecord};
pub use sharded::ShardedCounters;
