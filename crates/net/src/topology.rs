//! Communication topologies — star, hierarchical, and gossip (§3.2's
//! exchange-pattern flexibility made a first-class, config-selected policy).
//!
//! A [`Topology`] *describes* how participants exchange information; a
//! [`TopologyPlan`] *realizes* it for a concrete client count, assigning
//! participants to tiers (hierarchical) or neighborhoods (gossip)
//! deterministically from the course seed. The plan is pure data: runners in
//! `fs-topo` interpret it, `fs-verify` lints it, and transports route by it.
//!
//! Id space: the server is [`SERVER_ID`] (0), clients are `1..=n`, and edge
//! aggregators are allocated from `n + 1` upward so they never collide with
//! client ids regardless of the fanout.

use crate::message::{ParticipantId, SERVER_ID};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// Seed-mixing constant for tier assignment (distinct from the trainer,
/// fleet, and fault streams so topology choices never perturb training).
const TIER_SEED_MIX: u64 = 0x70b0;
/// Per-(round, peer) mixing constant for gossip neighbor sampling.
const GOSSIP_SEED_MIX: u64 = 0x9055;

/// How participants are wired together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Topology {
    /// One server, N clients — every link terminates at the server.
    #[default]
    Star,
    /// Clients report to edge aggregators, which partially aggregate and
    /// forward upstream; `tiers` counts aggregation tiers *including* the
    /// root server (so `tiers: 2` = server + one edge layer), and `fanout`
    /// bounds the children per aggregator.
    Hierarchical {
        /// Aggregation tiers including the root server; must be ≥ 2.
        tiers: usize,
        /// Maximum children per aggregator; must be ≥ 1.
        fanout: usize,
    },
    /// Serverless peer-to-peer: each round every peer pushes its model to
    /// `degree` sampled neighbors and merges what it receives.
    Gossip {
        /// Out-neighbors sampled per peer per round; must be ≥ 1 and < N.
        degree: usize,
        /// Gossip rounds to run; `0` means "inherit the course round limit".
        rounds: usize,
    },
}

impl Topology {
    /// Parses the shared CLI syntax: `star`, `hier:<tiers>x<fanout>`,
    /// `gossip:<degree>` or `gossip:<degree>x<rounds>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("star") {
            return Ok(Topology::Star);
        }
        if let Some(rest) = s.strip_prefix("hier:") {
            let (t, f) = rest
                .split_once('x')
                .ok_or_else(|| format!("expected hier:<tiers>x<fanout>, got {s:?}"))?;
            let tiers: usize = t.parse().map_err(|_| format!("bad tier count {t:?}"))?;
            let fanout: usize = f.parse().map_err(|_| format!("bad fanout {f:?}"))?;
            if tiers == 0 || fanout == 0 {
                return Err(format!("tiers and fanout must be positive, got {s:?}"));
            }
            return Ok(Topology::Hierarchical { tiers, fanout });
        }
        if let Some(rest) = s.strip_prefix("gossip:") {
            let (d, r) = match rest.split_once('x') {
                Some((d, r)) => (
                    d,
                    r.parse::<usize>()
                        .map_err(|_| format!("bad gossip rounds {r:?}"))?,
                ),
                None => (rest, 0),
            };
            let degree: usize = d.parse().map_err(|_| format!("bad gossip degree {d:?}"))?;
            if degree == 0 {
                return Err(format!("gossip degree must be positive, got {s:?}"));
            }
            return Ok(Topology::Gossip { degree, rounds: r });
        }
        Err(format!(
            "unknown topology {s:?} (expected star, hier:<tiers>x<fanout>, or gossip:<degree>)"
        ))
    }

    /// `true` for the plain star topology.
    pub fn is_star(&self) -> bool {
        matches!(self, Topology::Star)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Star => write!(f, "star"),
            Topology::Hierarchical { tiers, fanout } => write!(f, "hier:{tiers}x{fanout}"),
            Topology::Gossip { degree, rounds: 0 } => write!(f, "gossip:{degree}"),
            Topology::Gossip { degree, rounds } => write!(f, "gossip:{degree}x{rounds}"),
        }
    }
}

/// Errors raised while realizing a [`Topology`] for a concrete course.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// The course has no clients to place.
    NoClients,
    /// Hierarchical tiers must be ≥ 2 (tier 1 *is* the star).
    TooFewTiers(usize),
    /// Aggregator fanout must be ≥ 1.
    ZeroFanout,
    /// Gossip degree must be ≥ 1.
    ZeroDegree,
    /// Gossip degree must leave at least one peer unsampled (`degree < n`).
    DegreeTooLarge {
        /// Requested out-degree.
        degree: usize,
        /// Number of peers in the course.
        n: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoClients => write!(f, "topology has no clients to place"),
            TopologyError::TooFewTiers(t) => {
                write!(f, "hierarchical topology needs >= 2 tiers, got {t}")
            }
            TopologyError::ZeroFanout => write!(f, "aggregator fanout must be >= 1"),
            TopologyError::ZeroDegree => write!(f, "gossip degree must be >= 1"),
            TopologyError::DegreeTooLarge { degree, n } => {
                write!(f, "gossip degree {degree} must be < peer count {n}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A realized topology: who parents whom, at which tier, for `n` clients.
///
/// For [`Topology::Gossip`] the parent/children maps are empty (there is no
/// server in the loop) and neighborhoods come from
/// [`TopologyPlan::neighbors`].
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyPlan {
    /// The topology this plan realizes.
    pub topology: Topology,
    /// Number of clients placed (ids `1..=num_clients`).
    pub num_clients: usize,
    /// Course seed the assignment was derived from.
    pub seed: u64,
    /// Upstream parent of every non-root participant (clients and edges).
    pub parent: BTreeMap<ParticipantId, ParticipantId>,
    /// Downstream children of the server and every edge aggregator.
    pub children: BTreeMap<ParticipantId, Vec<ParticipantId>>,
    /// All edge-aggregator ids, ascending (empty for star and gossip).
    pub edges: Vec<ParticipantId>,
    /// Hops below the root: server 0, top-tier edges 1, …, clients deepest.
    pub depth: BTreeMap<ParticipantId, usize>,
}

impl TopologyPlan {
    /// Realizes `topology` for `num_clients` clients, deterministically from
    /// `seed`. The same `(topology, num_clients, seed)` always yields the
    /// same assignment.
    pub fn build(topology: Topology, num_clients: usize, seed: u64) -> Result<Self, TopologyError> {
        if num_clients == 0 {
            return Err(TopologyError::NoClients);
        }
        let mut plan = TopologyPlan {
            topology,
            num_clients,
            seed,
            parent: BTreeMap::new(),
            children: BTreeMap::new(),
            edges: Vec::new(),
            depth: BTreeMap::new(),
        };
        match topology {
            Topology::Star => {
                let ids: Vec<ParticipantId> = (1..=num_clients as u32).collect();
                for &c in &ids {
                    plan.parent.insert(c, SERVER_ID);
                    plan.depth.insert(c, 1);
                }
                plan.children.insert(SERVER_ID, ids);
                plan.depth.insert(SERVER_ID, 0);
            }
            Topology::Hierarchical { tiers, fanout } => {
                if tiers < 2 {
                    return Err(TopologyError::TooFewTiers(tiers));
                }
                if fanout == 0 {
                    return Err(TopologyError::ZeroFanout);
                }
                plan.build_hierarchy(tiers, fanout);
            }
            Topology::Gossip { degree, .. } => {
                if degree == 0 {
                    return Err(TopologyError::ZeroDegree);
                }
                if degree >= num_clients {
                    return Err(TopologyError::DegreeTooLarge {
                        degree,
                        n: num_clients,
                    });
                }
                // neighborhoods are sampled per round by `neighbors`; the
                // plan itself carries no links
            }
        }
        Ok(plan)
    }

    /// Bottom-up layering: shuffle clients by the seeded stream, chunk into
    /// groups of `fanout` to form the deepest edge layer, then repeat on the
    /// freshly created edges until `tiers - 1` edge layers exist (the root
    /// server is the final tier). A layer that already fits the fanout is
    /// still parented upward, so the tier *count* is honored even when a
    /// single edge would suffice.
    fn build_hierarchy(&mut self, tiers: usize, fanout: usize) {
        let n = self.num_clients;
        let mut rng = StdRng::seed_from_u64(self.seed ^ TIER_SEED_MIX);
        let mut layer: Vec<ParticipantId> = (1..=n as u32).collect();
        layer.shuffle(&mut rng);
        let mut next_id = n as u32 + 1;
        for _ in 0..tiers - 1 {
            let mut uplayer = Vec::new();
            for group in layer.chunks(fanout) {
                let edge = next_id;
                next_id += 1;
                for &child in group {
                    self.parent.insert(child, edge);
                }
                self.children.insert(edge, group.to_vec());
                self.edges.push(edge);
                uplayer.push(edge);
            }
            layer = uplayer;
        }
        for &top in &layer {
            self.parent.insert(top, SERVER_ID);
        }
        self.children.insert(SERVER_ID, layer);
        self.edges.sort_unstable();
        // depths by walking parent chains (edges is small; O(h) per node)
        self.depth.insert(SERVER_ID, 0);
        let all: Vec<ParticipantId> = self.parent.keys().copied().collect();
        for id in all {
            let mut d = 0usize;
            let mut cur = id;
            while cur != SERVER_ID {
                d += 1;
                match self.parent.get(&cur) {
                    Some(&p) => cur = p,
                    // unreachable by construction; treat as a direct child
                    // of the root so depth stays finite
                    None => break,
                }
            }
            self.depth.insert(id, d);
        }
    }

    /// `true` when `id` is an edge aggregator in this plan.
    pub fn is_edge(&self, id: ParticipantId) -> bool {
        self.edges.binary_search(&id).is_ok()
    }

    /// Upstream parent of `id` (`None` for the server and for gossip plans).
    pub fn parent_of(&self, id: ParticipantId) -> Option<ParticipantId> {
        self.parent.get(&id).copied()
    }

    /// Direct children of `id` (empty for clients and gossip plans).
    pub fn children_of(&self, id: ParticipantId) -> &[ParticipantId] {
        self.children.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All *client* ids in the subtree rooted at `id` (clients map to
    /// themselves; useful for failover re-homing and partial-update audits).
    pub fn subtree_clients(&self, id: ParticipantId) -> Vec<ParticipantId> {
        if id != SERVER_ID && !self.is_edge(id) {
            return vec![id];
        }
        let mut out = Vec::new();
        let mut stack: Vec<ParticipantId> = self.children_of(id).to_vec();
        while let Some(node) = stack.pop() {
            if self.is_edge(node) {
                stack.extend_from_slice(self.children_of(node));
            } else {
                out.push(node);
            }
        }
        out.sort_unstable();
        out
    }

    /// The link level of the hop from `id` up to its parent: level 1 links
    /// terminate at the root server, the deepest level holds the
    /// client-device (leaf) links. Equals `depth(id)`.
    pub fn link_level(&self, id: ParticipantId) -> usize {
        self.depth.get(&id).copied().unwrap_or(1)
    }

    /// Number of link levels (= client depth; 1 for star, `tiers` for a
    /// hierarchy, 1 for gossip where every hop is peer-to-peer).
    pub fn levels(&self) -> usize {
        match self.topology {
            Topology::Star | Topology::Gossip { .. } => 1,
            Topology::Hierarchical { tiers, .. } => tiers,
        }
    }

    /// Deterministic gossip out-neighbors of `id` at `round`: `degree`
    /// distinct peers drawn without replacement from everyone else. Any
    /// participant can recompute any other's list from the shared seed, so
    /// synchronous rounds need no coordinator — a peer knows exactly which
    /// inbound models to await ([`TopologyPlan::inbound`]).
    pub fn neighbors(&self, round: u64, id: ParticipantId) -> Vec<ParticipantId> {
        let degree = match self.topology {
            Topology::Gossip { degree, .. } => degree,
            _ => return Vec::new(),
        };
        let n = self.num_clients as u32;
        let mut pool: Vec<ParticipantId> = (1..=n).filter(|&p| p != id).collect();
        let mix = self
            .seed
            .wrapping_add(GOSSIP_SEED_MIX)
            .wrapping_mul(0x9e3779b97f4a7c15)
            ^ round.wrapping_mul(0xd1b54a32d192ed03)
            ^ (id as u64).wrapping_mul(0x2545f4914f6cdd1d);
        let mut rng = StdRng::seed_from_u64(mix);
        // partial Fisher–Yates: the first `degree` slots are the sample
        let k = degree.min(pool.len());
        for i in 0..k {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }

    /// Peers whose round-`round` out-neighbor sets contain `id` — the models
    /// `id` must wait for before closing its synchronous gossip round.
    pub fn inbound(&self, round: u64, id: ParticipantId) -> Vec<ParticipantId> {
        if !matches!(self.topology, Topology::Gossip { .. }) {
            return Vec::new();
        }
        (1..=self.num_clients as u32)
            .filter(|&p| p != id && self.neighbors(round, p).contains(&id))
            .collect()
    }
}

/// Deepest tier that gets its own monitor counter; deeper links clamp here.
pub const TIER_LEVELS: usize = 4;

/// Per-tier upstream byte counters (`&'static str` as `fs-monitor` requires).
/// Index 0 is the root link (server ↔ top tier), matching
/// [`TopologyPlan::link_level`] minus one.
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
    fn parse_roundtrips_display() {
        for s in ["star", "hier:2x8", "hier:3x4", "gossip:3", "gossip:2x15"] {
            let t = Topology::parse(s).unwrap();
            assert_eq!(t.to_string(), s);
        }
        assert!(Topology::parse("ring").is_err());
        assert!(Topology::parse("hier:2").is_err());
        assert!(Topology::parse("gossip:x").is_err());
    }

    #[test]
    fn star_plan_links_everyone_to_server() {
        let p = TopologyPlan::build(Topology::Star, 5, 1).unwrap();
        assert!(p.edges.is_empty());
        for c in 1..=5u32 {
            assert_eq!(p.parent_of(c), Some(SERVER_ID));
            assert_eq!(p.link_level(c), 1);
        }
        assert_eq!(p.children_of(SERVER_ID).len(), 5);
        assert_eq!(p.levels(), 1);
    }

    #[test]
    fn two_tier_plan_shape() {
        let p = TopologyPlan::build(
            Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            },
            10,
            42,
        )
        .unwrap();
        // ceil(10/4) = 3 edges, ids 11..=13
        assert_eq!(p.edges, vec![11, 12, 13]);
        assert_eq!(p.children_of(SERVER_ID), &[11, 12, 13]);
        for c in 1..=10u32 {
            let e = p.parent_of(c).unwrap();
            assert!(p.is_edge(e));
            assert_eq!(p.parent_of(e), Some(SERVER_ID));
            assert_eq!(p.link_level(c), 2);
            assert_eq!(p.link_level(e), 1);
        }
        // every client appears in exactly one subtree
        let mut seen: Vec<u32> = p.edges.iter().flat_map(|&e| p.subtree_clients(e)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (1..=10u32).collect::<Vec<_>>());
        assert_eq!(
            p.subtree_clients(SERVER_ID),
            (1..=10u32).collect::<Vec<_>>()
        );
        assert_eq!(p.levels(), 2);
    }

    #[test]
    fn three_tier_plan_chains_edges() {
        let p = TopologyPlan::build(
            Topology::Hierarchical {
                tiers: 3,
                fanout: 3,
            },
            9,
            7,
        )
        .unwrap();
        // layer 1: ceil(9/3) = 3 edges; layer 2: ceil(3/3) = 1 edge
        assert_eq!(p.edges.len(), 4);
        assert_eq!(p.children_of(SERVER_ID).len(), 1);
        for c in 1..=9u32 {
            assert_eq!(p.link_level(c), 3);
        }
        assert_eq!(p.levels(), 3);
    }

    #[test]
    fn plan_is_deterministic_and_seed_sensitive() {
        let t = Topology::Hierarchical {
            tiers: 2,
            fanout: 5,
        };
        let a = TopologyPlan::build(t, 20, 42).unwrap();
        let b = TopologyPlan::build(t, 20, 42).unwrap();
        assert_eq!(a, b);
        let c = TopologyPlan::build(t, 20, 43).unwrap();
        assert_ne!(a.children, c.children, "different seed, different grouping");
    }

    #[test]
    fn invalid_topologies_rejected() {
        assert_eq!(
            TopologyPlan::build(Topology::Star, 0, 1),
            Err(TopologyError::NoClients)
        );
        assert_eq!(
            TopologyPlan::build(
                Topology::Hierarchical {
                    tiers: 1,
                    fanout: 2
                },
                4,
                1
            ),
            Err(TopologyError::TooFewTiers(1))
        );
        assert_eq!(
            TopologyPlan::build(
                Topology::Hierarchical {
                    tiers: 2,
                    fanout: 0
                },
                4,
                1
            ),
            Err(TopologyError::ZeroFanout)
        );
        assert_eq!(
            TopologyPlan::build(
                Topology::Gossip {
                    degree: 0,
                    rounds: 5
                },
                4,
                1
            ),
            Err(TopologyError::ZeroDegree)
        );
        assert_eq!(
            TopologyPlan::build(
                Topology::Gossip {
                    degree: 4,
                    rounds: 5
                },
                4,
                1
            ),
            Err(TopologyError::DegreeTooLarge { degree: 4, n: 4 })
        );
    }

    #[test]
    fn gossip_neighbors_are_deterministic_distinct_and_self_free() {
        let p = TopologyPlan::build(
            Topology::Gossip {
                degree: 3,
                rounds: 5,
            },
            10,
            42,
        )
        .unwrap();
        for round in 0..5u64 {
            for id in 1..=10u32 {
                let ns = p.neighbors(round, id);
                assert_eq!(ns, p.neighbors(round, id), "deterministic");
                assert_eq!(ns.len(), 3);
                assert!(!ns.contains(&id), "no self-loop");
                let mut uniq = ns.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), 3, "distinct neighbors");
            }
        }
        // rounds reshuffle neighborhoods
        let r0: Vec<_> = (1..=10u32).map(|id| p.neighbors(0, id)).collect();
        let r1: Vec<_> = (1..=10u32).map(|id| p.neighbors(1, id)).collect();
        assert_ne!(r0, r1);
    }

    #[test]
    fn gossip_inbound_inverts_neighbors() {
        let p = TopologyPlan::build(
            Topology::Gossip {
                degree: 2,
                rounds: 3,
            },
            8,
            7,
        )
        .unwrap();
        for round in 0..3u64 {
            for id in 1..=8u32 {
                for &peer in &p.inbound(round, id) {
                    assert!(p.neighbors(round, peer).contains(&id));
                }
                for &tgt in &p.neighbors(round, id) {
                    assert!(p.inbound(round, tgt).contains(&id));
                }
            }
        }
    }

    #[test]
    fn counter_names_clamp() {
        assert_eq!(bytes_up_counter(1), "topo.bytes_up.l1");
        assert_eq!(bytes_up_counter(4), "topo.bytes_up.l4");
        assert_eq!(bytes_up_counter(9), "topo.bytes_up.l4");
        assert_eq!(bytes_down_counter(0), "topo.bytes_down.l1");
        assert_eq!(bytes_down_counter(2), "topo.bytes_down.l2");
    }
}
