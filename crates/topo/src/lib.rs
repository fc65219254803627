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
//! * [`distributed`] — the same shapes on real threads over the in-process
//!   bus and real TCP sockets, including edge failover through the
//!   generation-stamped reconnect path.
//!
//! The star topology stays byte-for-byte what `fs-core` ships; everything
//! here is additive routing policy around it.

// Library code must surface malformed input as typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod course;
pub mod distributed;
pub mod edge;
pub mod gossip;
pub mod router;

pub use course::{run_course_auto, TopoCourse};
pub use distributed::{
    run_gossip_distributed, run_gossip_distributed_tcp, run_hier_distributed,
    run_hier_distributed_tcp, run_hier_distributed_tcp_with, run_hier_distributed_with,
};
pub use edge::{EdgeAction, EdgeAggregator, EdgeError, EdgeMerge};
pub use gossip::{GossipOutcome, GossipRunner};
pub use router::{TopoReport, TopoRunError, TopoRunner, TreeRouter};

/// Deepest tier that gets its own monitor counter; deeper links clamp here.
pub const TIER_LEVELS: usize = 4;

/// Per-tier upstream byte counters (`&'static str` as `fs-monitor` requires).
/// Index 0 is the root link (server ↔ top tier), matching
/// [`fs_net::TopologyPlan::link_level`] minus one.
const BYTES_UP: [&str; TIER_LEVELS] = [
    "topo.bytes_up.l1",
    "topo.bytes_up.l2",
    "topo.bytes_up.l3",
    "topo.bytes_up.l4",
];

/// Per-tier downstream byte counters.
const BYTES_DOWN: [&str; TIER_LEVELS] = [
    "topo.bytes_down.l1",
    "topo.bytes_down.l2",
    "topo.bytes_down.l3",
    "topo.bytes_down.l4",
];

/// Monitor counter name for upstream bytes on tier `level` (1-based; levels
/// past [`TIER_LEVELS`] clamp onto the deepest bucket).
pub fn bytes_up_counter(level: usize) -> &'static str {
    BYTES_UP[level.clamp(1, TIER_LEVELS) - 1]
}

/// Monitor counter name for downstream bytes on tier `level` (1-based).
pub fn bytes_down_counter(level: usize) -> &'static str {
    BYTES_DOWN[level.clamp(1, TIER_LEVELS) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_clamp() {
        assert_eq!(bytes_up_counter(1), "topo.bytes_up.l1");
        assert_eq!(bytes_up_counter(4), "topo.bytes_up.l4");
        assert_eq!(bytes_up_counter(9), "topo.bytes_up.l4");
        assert_eq!(bytes_down_counter(0), "topo.bytes_down.l1");
        assert_eq!(bytes_down_counter(2), "topo.bytes_down.l2");
    }
}
