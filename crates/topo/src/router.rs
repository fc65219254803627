//! The tree router: the one virtual-time loop, routed over a hierarchy.
//!
//! `fs_core::Runner` charges every send and pops every delivery; a
//! [`TreeRouter`] installed as its [`Router`] adds the two things a tree of
//! edge aggregators changes:
//!
//! * **At send time** it meters the links the message will cross. Leaf links
//!   (client ↔ its device radio) are charged by the loop exactly as in a
//!   star — the receiver pays the download, the sender pays compute +
//!   upload, and the report's `uploaded_bytes` / `downloaded_bytes` count
//!   this leaf traffic. That is what makes a lossless hierarchy reproduce
//!   the star `CourseReport` bit for bit: every delivery pops at the star
//!   timestamp, in the star order, drawing the same crash RNG stream.
//!   Backbone links (edge ↔ edge, edge ↔ server) model datacenter fabric:
//!   zero latency, but every hop's *encoded* bytes are metered into per-tier
//!   monitor counters and the [`TopoReport`], so partial aggregation with a
//!   real codec shows its root-link savings honestly. The leaf tier of the
//!   [`TopoReport`] reconciles with the `CourseReport` totals by
//!   construction — the router is handed the same byte count the loop
//!   charges.
//! * **At delivery time** it walks a server-bound message up through its
//!   edge chain: lossless edges relay it, partial edges absorb it until their
//!   cohort completes and then substitute the merged, re-encoded partial.
//!
//! Because the router sees neither the queue nor the clock, everything the
//! loop offers — cohort batching, `FlConfig::parallelism` speculation, the
//! event cap — applies to hierarchical courses unchanged.

use crate::edge::{EdgeAction, EdgeAggregator, EdgeError, EdgeMerge};
use crate::{bytes_down_counter, bytes_up_counter};
use fs_core::config::{AggregationRule, CodecSpec, FlConfig};
use fs_core::runner::{Ascent, Router, Runner, StandaloneRunner};
use fs_monitor::MonitorHandle;
use fs_net::{Message, ParticipantId, Topology, TopologyError, TopologyPlan, SERVER_ID};
use fs_sim::VirtualTime;
use fs_verify::{verify_topology_plan, Diagnostic, VerifyReport};
use std::collections::BTreeMap;
use std::fmt;

/// Why a topology course could not run (or stopped mid-run).
#[derive(Debug)]
pub enum TopoRunError {
    /// The topology description itself is invalid for this course.
    Topology(TopologyError),
    /// The course was refused before it started: its preflight report holds
    /// an Error (a topology nothing routes is `FSV057`).
    Verification(Box<VerifyReport>),
    /// An edge aggregator failed to decode a constituent update.
    Edge(EdgeError),
    /// A distributed (threaded / socketed) topology course failed.
    Distributed(fs_core::distributed::DistributedError),
}

impl fmt::Display for TopoRunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopoRunError::Topology(e) => write!(f, "invalid topology: {e}"),
            TopoRunError::Verification(report) => {
                write!(f, "course rejected by static verification:\n{report}")
            }
            TopoRunError::Edge(e) => write!(f, "edge aggregation failed: {e}"),
            TopoRunError::Distributed(e) => write!(f, "distributed topology course failed: {e}"),
        }
    }
}

impl std::error::Error for TopoRunError {}

impl From<TopologyError> for TopoRunError {
    fn from(e: TopologyError) -> Self {
        TopoRunError::Topology(e)
    }
}

impl From<fs_core::distributed::DistributedError> for TopoRunError {
    fn from(e: fs_core::distributed::DistributedError) -> Self {
        TopoRunError::Distributed(e)
    }
}

impl From<EdgeError> for TopoRunError {
    fn from(e: EdgeError) -> Self {
        TopoRunError::Edge(e)
    }
}

/// Per-tier traffic totals of a finished topology course. Index `level - 1`
/// holds tier `level`; tier 1 is the root link (server ↔ top tier) and the
/// deepest tier is the leaf (client) link.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopoReport {
    /// Number of link levels in the tree (1 for a star).
    pub levels: usize,
    /// Encoded payload bytes crossing each tier toward the root.
    pub bytes_up: Vec<u64>,
    /// Encoded payload bytes crossing each tier toward the clients.
    pub bytes_down: Vec<u64>,
    /// Messages crossing each tier toward the root.
    pub msgs_up: Vec<u64>,
    /// Messages crossing each tier toward the clients.
    pub msgs_down: Vec<u64>,
    /// Edge aggregators in the plan.
    pub edge_count: usize,
}

impl TopoReport {
    /// Bytes crossing the root link (tier 1) toward the server.
    pub fn root_bytes_up(&self) -> u64 {
        self.bytes_up.first().copied().unwrap_or(0)
    }

    /// Bytes crossing the leaf (client) tier toward the server — reconciles
    /// with `CourseReport::uploaded_bytes` by construction.
    pub fn leaf_bytes_up(&self) -> u64 {
        self.bytes_up.last().copied().unwrap_or(0)
    }
}

/// The merge discipline a config implies: partial aggregation only pays off
/// (and only stays deadlock-free) with a real upload codec under
/// `all_received`; everything else relays losslessly.
fn auto_merge(cfg: &FlConfig) -> EdgeMerge {
    let compressing = !matches!(cfg.compression.upload, None | Some(CodecSpec::Identity));
    match cfg.rule {
        AggregationRule::AllReceived if compressing && !cfg.compression.upload_delta => {
            EdgeMerge::Partial
        }
        AggregationRule::AllReceived
        | AggregationRule::GoalAchieved { .. }
        | AggregationRule::TimeUp { .. }
        | AggregationRule::Buffered { .. }
        | AggregationRule::Tiered { .. } => EdgeMerge::Lossless,
    }
}

/// An assembled course routed over its configured hierarchy.
pub type TopoRunner = Runner<TreeRouter>;

/// Routes sends over a tree of edge aggregators and meters every tier.
pub struct TreeRouter {
    /// The realized topology.
    pub plan: TopologyPlan,
    edges: BTreeMap<ParticipantId, EdgeAggregator>,
    tally: TopoReport,
    /// The edge failure that stopped the course, if one did.
    error: Option<EdgeError>,
}

impl TreeRouter {
    /// A router over `plan`, with the merge discipline `cfg` implies: partial
    /// edges each own a codec instance (per-hop error feedback), lossless
    /// edges relay.
    pub fn new(plan: TopologyPlan, cfg: &FlConfig) -> Self {
        let merge = auto_merge(cfg);
        let upload_spec = match merge {
            EdgeMerge::Partial => cfg.compression.upload,
            EdgeMerge::Lossless => None,
        };
        let edges: BTreeMap<ParticipantId, EdgeAggregator> = plan
            .edges
            .iter()
            .map(|&id| {
                let codec = upload_spec.map(CodecSpec::build);
                (id, EdgeAggregator::from_plan(&plan, id, merge, codec))
            })
            .collect();
        let levels = plan.levels();
        Self {
            tally: TopoReport {
                levels,
                bytes_up: vec![0; levels],
                bytes_down: vec![0; levels],
                msgs_up: vec![0; levels],
                msgs_down: vec![0; levels],
                edge_count: edges.len(),
            },
            plan,
            edges,
            error: None,
        }
    }

    /// Per-tier traffic totals so far.
    pub fn report(&self) -> TopoReport {
        self.tally.clone()
    }

    /// The edge failure that stopped the course, if one did.
    pub fn take_error(&mut self) -> Option<EdgeError> {
        self.error.take()
    }

    fn tier(&self, level: usize) -> usize {
        level.clamp(1, self.tally.levels.max(1)) - 1
    }

    fn charge_up(&mut self, level: usize, bytes: u64, monitor: &MonitorHandle) {
        let idx = self.tier(level);
        self.tally.bytes_up[idx] += bytes;
        self.tally.msgs_up[idx] += 1;
        monitor.add(bytes_up_counter(level), bytes);
    }

    fn charge_down(&mut self, level: usize, bytes: u64, monitor: &MonitorHandle) {
        let idx = self.tier(level);
        self.tally.bytes_down[idx] += bytes;
        self.tally.msgs_down[idx] += 1;
        monitor.add(bytes_down_counter(level), bytes);
    }
}

impl Router for TreeRouter {
    fn routes(&self, topology: &Topology) -> bool {
        *topology == self.plan.topology
    }

    fn diagnostics(&self) -> Vec<Diagnostic> {
        verify_topology_plan(&self.plan).diagnostics
    }

    /// A server-bound send crosses its sender's own link now (the hops above
    /// are charged as the message ascends). Anything else charges every
    /// backbone + leaf link on the path down to the receiver and lets
    /// transited edges observe it (partial-cohort arming).
    fn on_send(
        &mut self,
        from: ParticipantId,
        msg: &Message,
        payload_bytes: u64,
        monitor: &MonitorHandle,
    ) {
        if msg.receiver == SERVER_ID {
            self.charge_up(self.plan.link_level(from), payload_bytes, monitor);
            return;
        }
        // transit order is root-first, but edges only observe, so walking the
        // chain bottom-up (receiver, parent, grandparent, ...) is equivalent
        // and avoids materializing the path
        let mut node = msg.receiver;
        loop {
            self.charge_down(self.plan.link_level(node), payload_bytes, monitor);
            if let Some(edge) = self.edges.get_mut(&node) {
                edge.on_downstream(msg);
            }
            match self.plan.parent_of(node) {
                Some(p) if p != SERVER_ID => node = p,
                _ => break,
            }
        }
    }

    /// Lossless edges relay the original message; partial edges absorb it
    /// until the cohort completes, then substitute the merged partial.
    /// Backbone hops are zero-latency, so whatever comes out the top keeps
    /// the pop timestamp.
    fn ascend(&mut self, at: VirtualTime, msg: &Message, monitor: &MonitorHandle) -> Ascent {
        let mut merged: Option<Message> = None;
        let mut hop = self.plan.parent_of(msg.sender).unwrap_or(SERVER_ID);
        while hop != SERVER_ID {
            let level = self.plan.link_level(hop);
            let next = self.plan.parent_of(hop).unwrap_or(SERVER_ID);
            // a hop missing from the edge table (hand-built plans) is
            // transparent
            if let Some(edge) = self.edges.get_mut(&hop) {
                let cur = merged.as_ref().unwrap_or(msg);
                match edge.on_upstream(cur) {
                    Ok(EdgeAction::Relay) => {
                        let bytes = cur.payload_bytes() as u64;
                        self.charge_up(level, bytes, monitor);
                    }
                    Ok(EdgeAction::Absorbed) => return Ascent::Absorbed,
                    Ok(EdgeAction::Flush(mut flushed)) => {
                        flushed.timestamp = at.as_secs();
                        self.charge_up(level, flushed.payload_bytes() as u64, monitor);
                        merged = Some(flushed);
                    }
                    Err(e) => {
                        let why = format!("edge aggregation failed: {e}");
                        self.error = Some(e);
                        return Ascent::Failed(why);
                    }
                }
            }
            hop = next;
        }
        merged.map_or(Ascent::Through, Ascent::Merged)
    }
}

/// Verifies a realized plan on its own — all the static checking a
/// serverless (gossip) course has.
pub(crate) fn check_plan(plan: &TopologyPlan) -> Result<(), TopoRunError> {
    fs_core::verify::gate(verify_topology_plan(plan)).map_err(TopoRunError::Verification)
}

/// Re-routes an assembled course over the hierarchy named in its config.
pub(crate) fn route(runner: StandaloneRunner) -> Result<TopoRunner, TopoRunError> {
    let cfg = &runner.server.state.cfg;
    let plan = TopologyPlan::build(cfg.topology, runner.clients.ids().len(), cfg.seed)?;
    let router = TreeRouter::new(plan, cfg);
    Ok(runner.with_router(router))
}

/// Runs a routed course. Unlike `Runner::run` this never panics: refusals
/// and edge failures come back as typed errors.
pub(crate) fn run_routed(
    runner: &mut TopoRunner,
) -> Result<(fs_core::CourseReport, TopoReport), TopoRunError> {
    let report = runner.try_run().map_err(TopoRunError::Verification)?;
    match runner.router.take_error() {
        Some(e) => Err(TopoRunError::Edge(e)),
        None => Ok((report, runner.router.report())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_core::config::{BroadcastManner, CompressionConfig, SamplerKind};

    /// Merging edges need `all_received`; every other rule relays. A
    /// buffered course used to merge here, because its unread `rule` field
    /// still held the `AllReceived` default.
    #[test]
    fn only_all_received_with_a_lossy_codec_merges() {
        let topk = FlConfig {
            compression: CompressionConfig {
                upload: Some(CodecSpec::TopK { ratio: 0.1 }),
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(auto_merge(&topk), EdgeMerge::Partial);
        assert_eq!(auto_merge(&FlConfig::default()), EdgeMerge::Lossless);
        let goal =
            topk.clone()
                .async_goal(3, BroadcastManner::AfterAggregating, SamplerKind::Uniform);
        for cfg in [goal, topk.clone().buffered_async(3, 0.5), topk.tiered(2)] {
            assert_eq!(auto_merge(&cfg), EdgeMerge::Lossless, "{:?}", cfg.rule);
        }
    }
}
