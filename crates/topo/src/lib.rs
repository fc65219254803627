//! # fs-topo — hierarchical and gossip aggregation topologies over fs-net
//!
//! FederatedScope frames every exchange as messages between a server and its
//! clients — a *star*. Real cross-device deployments interpose regional
//! aggregators (cellular base stations, campus gateways) or drop the server
//! entirely and gossip peer-to-peer. This crate makes the communication
//! topology a first-class, config-selected policy on top of the unchanged
//! `fs-core` participants:
//!
//! * [`fs_net::Topology`] on `FlConfig` describes the shape (`star`,
//!   `hier:<tiers>x<fanout>`, `gossip:<degree>`); [`fs_net::TopologyPlan`]
//!   realizes it deterministically from the course seed.
//! * [`edge::EdgeAggregator`] — the edge role. In **lossless** mode it relays
//!   each update upstream unchanged (so a hierarchy with the identity codec
//!   reproduces the star course bit for bit); in **partial** mode it
//!   sample-weight-merges its subtree's updates into one
//!   [`fs_net::Payload::PartialUpdate`] and re-encodes it with its own codec
//!   instance, so compression is applied — and charged — *per hop*.
//! * [`router::TreeRouter`] — the routing policy that turns `fs-core`'s one
//!   virtual-time loop into a hierarchical simulation. Leaf links (client ↔
//!   device radio) are charged by the loop exactly as in a star; backbone
//!   links (edge ↔ server datacenter fabric) are zero-latency but their
//!   encoded bytes are metered per tier ([`TIER_LEVELS`] counters +
//!   [`router::TopoReport`]).
//! * [`gossip::GossipRunner`] — serverless peer-to-peer averaging with
//!   deterministic per-round neighbor sampling shared by every peer.
//! * [`distributed`] — gossip on real threads over `fs-core`'s distributed
//!   transports (bus and TCP). The threaded star and hierarchy need nothing
//!   from this crate: `fs_core::distributed` routes by the course's
//!   [`fs_net::TopologyPlan`], edge relays and failover included.
//!
//! The star topology stays byte-for-byte what `fs-core` ships; everything
//! here is additive routing policy around it.

// Library code must surface malformed input as typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod course;
pub mod distributed;
pub mod edge;
pub mod gossip;
pub mod router;

pub use course::run_course_auto;
pub use distributed::run_gossip_distributed;
pub use edge::{EdgeAction, EdgeAggregator, EdgeError, EdgeMerge};
pub use fs_net::topology::{bytes_down_counter, bytes_up_counter, TIER_LEVELS};
pub use gossip::{GossipOutcome, GossipRunner};
pub use router::{TopoReport, TopoRunError, TopoRunner, TreeRouter};
