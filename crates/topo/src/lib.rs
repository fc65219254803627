//! # fs-topo — hierarchical and gossip aggregation topologies over fs-net
//!
//! FederatedScope frames every exchange as messages between a server and its
//! clients — a *star*. Real cross-device deployments interpose regional
//! aggregators (cellular base stations, campus gateways) or drop the server
//! entirely and gossip peer-to-peer. The communication topology is one
//! config field, and this crate holds what a server cannot run:
//!
//! * [`fs_net::Topology`] on `FlConfig` describes the shape (`star`,
//!   `hier:<tiers>x<fanout>`, `gossip:<degree>`); [`fs_net::TopologyPlan`]
//!   realizes it deterministically from the course seed. Every server
//!   runner routes by it itself: `fs_core`'s virtual-time `Runner` runs a
//!   hierarchy through its own tree of edge aggregators (lossless relays,
//!   or partial merges re-encoded per hop, with per-tier [`TIER_LEVELS`]
//!   counters and a [`TopoReport`]), and `fs_core::distributed` relays one
//!   over threads. Neither needs this crate for a star or a hierarchy.
//! * [`gossip::GossipRunner`] — serverless peer-to-peer averaging with
//!   deterministic per-round neighbor sampling shared by every peer: the
//!   one shape a server runner refuses (`FSV057`).
//! * [`run_course_auto`] — runs any assembled course: gossip on the gossip
//!   runner, everything else on the course's own runner.
//! * [`distributed`] — gossip on real threads over `fs-core`'s distributed
//!   transports (bus and TCP).

// Library code must surface malformed input as typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod course;
pub mod distributed;
pub mod gossip;

pub use course::{run_course_auto, TopoRunError};
pub use distributed::run_gossip_distributed;
pub use fs_core::runner::TopoReport;
pub use fs_net::topology::{bytes_down_counter, bytes_up_counter, TIER_LEVELS};
pub use gossip::{GossipOutcome, GossipRunner};
