//! The tree router: the one virtual-time loop, routed over a hierarchy.
//!
//! [`crate::Runner`] holds one of these when `cfg.topology` is
//! `hier:<tiers>x<fanout>` and none for a star. It adds the two things a
//! tree of edge aggregators changes:
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
//!   edge chain. Each edge follows one of two merge disciplines:
//!   - **lossless** — every upstream message is relayed unchanged, so the
//!     root receives exactly the messages a star course would have
//!     delivered;
//!   - **partial** — the edge buffers its direct children's updates for the
//!     round and flushes **one** sample-weighted [`Payload::PartialUpdate`]
//!     upstream, re-encoded by the edge's own codec instance, so each
//!     backbone hop pays its own, genuinely compressed bytes.
//!     `constituents` preserves per-client bookkeeping at the root. Partial
//!     merging presumes the `all_received` rule: every broadcast the edge
//!     forwards marks that child as awaited, and the flush fires when the
//!     last awaited child reports back. Any other rule relays losslessly.
//!
//! The router sees neither the queue nor the clock, so everything the loop
//! offers — cohort batching, `FlConfig::parallelism` speculation, the event
//! cap — applies to hierarchical courses unchanged.

use crate::config::{AggregationRule, CodecSpec, FlConfig};
use crate::runner::TopoReport;
use fs_compress::Compressor;
use fs_monitor::MonitorHandle;
use fs_net::topology::{bytes_down_counter, bytes_up_counter};
use fs_net::{Message, MessageKind, ParticipantId, Payload, TopologyPlan, SERVER_ID};
use fs_sim::VirtualTime;
use fs_tensor::ParamMap;
use std::collections::{BTreeMap, BTreeSet};

/// What a server-bound message turned into on its way up the tree.
pub(crate) enum Ascent {
    /// It reaches the server unchanged.
    Through,
    /// An edge kept it (a partial cohort still filling).
    Absorbed,
    /// An edge substituted this message for it.
    Merged(Message),
}

/// Routes sends over a tree of edge aggregators and meters every tier.
pub(crate) struct TreeRouter {
    plan: TopologyPlan,
    edges: BTreeMap<ParticipantId, EdgeAggregator>,
    tally: TopoReport,
}

impl TreeRouter {
    /// A router over `plan`, with the merge discipline `cfg` implies:
    /// partial edges each own a codec instance (per-hop error feedback),
    /// lossless edges relay.
    pub(crate) fn new(plan: TopologyPlan, cfg: &FlConfig) -> Self {
        let upload_spec = merges(cfg).then_some(cfg.compression.upload).flatten();
        let edges: BTreeMap<ParticipantId, EdgeAggregator> = plan
            .edges
            .iter()
            .map(|&id| {
                let codec = upload_spec.map(CodecSpec::build);
                (id, EdgeAggregator::from_plan(&plan, id, codec))
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
        }
    }

    /// Per-tier traffic totals so far.
    pub(crate) fn report(&self) -> &TopoReport {
        &self.tally
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

    /// Observes one send from `from`, `payload_bytes` long, after the loop
    /// charged it. A server-bound send crosses its sender's own link now
    /// (the hops above are charged as the message ascends). Anything else
    /// charges every backbone + leaf link on the path down to the receiver
    /// and lets transited edges observe it (partial-cohort arming).
    pub(crate) fn on_send(
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

    /// Carries a server-bound message from its sender up to the server, at
    /// delivery time `at`. Lossless edges relay the original message;
    /// partial edges absorb it until the cohort completes, then substitute
    /// the merged partial. Backbone hops are zero-latency, so whatever comes
    /// out the top keeps the pop timestamp. An edge that cannot decode an
    /// update stops the course; the error is its finish reason.
    pub(crate) fn ascend(
        &mut self,
        at: VirtualTime,
        msg: &Message,
        monitor: &MonitorHandle,
    ) -> Result<Ascent, String> {
        let mut merged: Option<Message> = None;
        let mut hop = self.plan.parent_of(msg.sender).unwrap_or(SERVER_ID);
        while hop != SERVER_ID {
            let level = self.plan.link_level(hop);
            let next = self.plan.parent_of(hop).unwrap_or(SERVER_ID);
            // a hop missing from the edge table (hand-built plans) is
            // transparent
            if let Some(edge) = self.edges.get_mut(&hop) {
                let cur = merged.as_ref().unwrap_or(msg);
                let action = edge
                    .on_upstream(cur)
                    .map_err(|e| format!("edge aggregation failed: {e}"))?;
                match action {
                    EdgeAction::Relay => {
                        let bytes = cur.payload_bytes() as u64;
                        self.charge_up(level, bytes, monitor);
                    }
                    EdgeAction::Absorbed => return Ok(Ascent::Absorbed),
                    EdgeAction::Flush(mut flushed) => {
                        flushed.timestamp = at.as_secs();
                        self.charge_up(level, flushed.payload_bytes() as u64, monitor);
                        merged = Some(flushed);
                    }
                }
            }
            hop = next;
        }
        Ok(merged.map_or(Ascent::Through, Ascent::Merged))
    }
}

/// Whether `cfg`'s edges merge: partial aggregation only pays off (and only
/// stays deadlock-free) with a real upload codec under `all_received`;
/// everything else relays losslessly.
fn merges(cfg: &FlConfig) -> bool {
    let compressing = !matches!(cfg.compression.upload, None | Some(CodecSpec::Identity));
    match cfg.rule {
        AggregationRule::AllReceived => compressing && !cfg.compression.upload_delta,
        AggregationRule::GoalAchieved { .. }
        | AggregationRule::TimeUp { .. }
        | AggregationRule::Buffered { .. }
        | AggregationRule::Tiered { .. } => false,
    }
}

/// What an edge decided about one upstream message.
#[derive(Debug)]
enum EdgeAction {
    /// Forward the original message unchanged to the parent.
    Relay,
    /// The message was folded into the pending partial; nothing goes up yet.
    Absorbed,
    /// The round's cohort is complete: forward this merged message instead.
    Flush(Message),
}

/// One constituent update buffered for a partial merge.
struct Constituent {
    params: ParamMap,
    start_version: u64,
    n_samples: u64,
    n_steps: u64,
    clients: Vec<ParticipantId>,
}

/// The edge-aggregator state machine for one tree node.
struct EdgeAggregator {
    /// This edge's participant id.
    id: ParticipantId,
    /// Upstream re-encoder, `Some` exactly when the edge merges; each edge
    /// owns its instance so error feedback accumulates per hop, not
    /// globally.
    codec: Option<Box<dyn Compressor>>,
    /// Which direct child covers each client of the subtree.
    cover: BTreeMap<ParticipantId, ParticipantId>,
    /// Direct children whose update is still awaited this flush cycle.
    pending: BTreeSet<ParticipantId>,
    /// Buffered constituents awaiting the flush.
    acc: Vec<Constituent>,
    /// Round of the pending cohort (stamped on the flushed message).
    round: u64,
}

impl EdgeAggregator {
    /// Builds the edge for node `id` of `plan`: a partial merger
    /// re-encoding through `codec`, or a lossless relay when `codec` is
    /// `None`.
    fn from_plan(
        plan: &TopologyPlan,
        id: ParticipantId,
        codec: Option<Box<dyn Compressor>>,
    ) -> Self {
        let mut cover = BTreeMap::new();
        for &child in plan.children_of(id) {
            if plan.is_edge(child) {
                for c in plan.subtree_clients(child) {
                    cover.insert(c, child);
                }
            } else {
                cover.insert(child, child);
            }
        }
        Self {
            id,
            codec,
            cover,
            pending: BTreeSet::new(),
            acc: Vec::new(),
            round: 0,
        }
    }

    /// Observes a server → client message transiting downstream. Model
    /// broadcasts arm the partial cohort: the direct child covering the
    /// target is awaited until its update comes back.
    fn on_downstream(&mut self, msg: &Message) {
        if self.codec.is_some() && msg.kind == MessageKind::ModelParams {
            if let Some(&child) = self.cover.get(&msg.receiver) {
                self.pending.insert(child);
                self.round = msg.round;
            }
        }
    }

    /// Handles one upstream message from a direct child and decides its fate.
    ///
    /// Non-update traffic (join-ins, metric reports) always relays; update
    /// traffic relays in lossless mode and accumulates in partial mode,
    /// flushing the merged cohort when the last awaited child reports.
    fn on_upstream(&mut self, msg: &Message) -> Result<EdgeAction, String> {
        if self.codec.is_none() || msg.kind != MessageKind::Updates {
            return Ok(EdgeAction::Relay);
        }
        let constituent = self.decode(msg).map_err(|detail| {
            format!(
                "edge {} could not decode the update from {}: {detail}",
                self.id, msg.sender
            )
        })?;
        // a client update resolves its own pending slot; a partial from a
        // deeper edge resolves that edge's slot
        let direct = self.cover.get(&msg.sender).copied().unwrap_or(msg.sender);
        self.pending.remove(&direct);
        self.round = self.round.max(msg.round);
        self.acc.push(constituent);
        if self.pending.is_empty() {
            Ok(EdgeAction::Flush(self.flush()))
        } else {
            Ok(EdgeAction::Absorbed)
        }
    }

    fn decode(&self, msg: &Message) -> Result<Constituent, String> {
        let update = msg
            .payload
            .as_update()
            .ok_or_else(|| format!("unsupported Updates payload variant {:?}", msg.payload))?;
        // delta blocks need the sender's reference model, which the edge does
        // not track — fs-verify rejects `upload_delta` hierarchies up front
        // (FSV056)
        let params = update.to_params(|_| None).map_err(|e| e.to_string())?;
        Ok(Constituent {
            params,
            start_version: update.start_version,
            n_samples: update.n_samples,
            n_steps: update.n_steps,
            clients: update.contributors(&msg.sender).to_vec(),
        })
    }

    /// Merges the buffered cohort into one message addressed to the root.
    fn flush(&mut self) -> Message {
        let acc = std::mem::take(&mut self.acc);
        let total: u64 = acc.iter().map(|c| c.n_samples).sum();
        let mut merged = acc[0].params.zeros_like();
        for c in &acc {
            // degenerate zero-sample cohorts fall back to a uniform average
            let w = if total > 0 {
                c.n_samples as f32 / total as f32
            } else {
                1.0 / acc.len() as f32
            };
            merged.add_scaled(w, &c.params);
        }
        let start_version = acc.iter().map(|c| c.start_version).min().unwrap_or(0);
        let n_steps = acc.iter().map(|c| c.n_steps).max().unwrap_or(0);
        let mut constituents: Vec<ParticipantId> =
            acc.iter().flat_map(|c| c.clients.iter().copied()).collect();
        constituents.sort_unstable();
        constituents.dedup();
        let payload = Payload::update(
            merged,
            self.codec.as_deref_mut(),
            start_version,
            total,
            n_steps,
            Some(constituents),
        );
        Message::new(
            self.id,
            SERVER_ID,
            MessageKind::Updates,
            self.round,
            payload,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BroadcastManner, CompressionConfig, SamplerKind};
    use fs_net::Topology;
    use fs_tensor::Tensor;

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
        assert!(merges(&topk));
        assert!(!merges(&FlConfig::default()));
        let goal =
            topk.clone()
                .async_goal(3, BroadcastManner::AfterAggregating, SamplerKind::Uniform);
        for cfg in [goal, topk.clone().buffered_async(3), topk.tiered(2)] {
            assert!(!merges(&cfg), "{:?}", cfg.rule);
        }
    }

    fn params(v: f32) -> ParamMap {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![2], vec![v, v]));
        p
    }

    fn update(sender: ParticipantId, v: f32, n_samples: u64) -> Message {
        Message::new(
            sender,
            SERVER_ID,
            MessageKind::Updates,
            1,
            Payload::Update {
                params: params(v),
                start_version: 1,
                n_samples,
                n_steps: 4,
            },
        )
    }

    fn two_tier_edge(codec: Option<Box<dyn Compressor>>) -> (TopologyPlan, EdgeAggregator) {
        let plan = TopologyPlan::build(
            Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            },
            8,
            42,
        )
        .expect("valid plan");
        let id = plan.edges[0];
        let edge = EdgeAggregator::from_plan(&plan, id, codec);
        (plan, edge)
    }

    fn partial_edge() -> (TopologyPlan, EdgeAggregator) {
        two_tier_edge(Some(Box::new(fs_compress::Identity)))
    }

    #[test]
    fn lossless_relays_everything() {
        let (plan, mut edge) = two_tier_edge(None);
        let c = plan.subtree_clients(edge.id)[0];
        let action = edge.on_upstream(&update(c, 1.0, 10)).expect("decodes");
        assert!(matches!(action, EdgeAction::Relay));
        assert!(edge.acc.is_empty() && edge.pending.is_empty());
    }

    #[test]
    fn partial_waits_for_the_cohort_then_flushes_weighted() {
        let (plan, mut edge) = partial_edge();
        let subtree = plan.subtree_clients(edge.id);
        let (a, b) = (subtree[0], subtree[1]);
        for &c in &[a, b] {
            let bcast = Message::new(SERVER_ID, c, MessageKind::ModelParams, 1, Payload::Empty);
            edge.on_downstream(&bcast);
        }
        assert!(matches!(
            edge.on_upstream(&update(a, 0.0, 30)).expect("decodes"),
            EdgeAction::Absorbed
        ));
        let flushed = match edge.on_upstream(&update(b, 4.0, 10)).expect("decodes") {
            EdgeAction::Flush(m) => m,
            other => panic!("expected flush, got {other:?}"),
        };
        assert_eq!(flushed.sender, edge.id);
        assert_eq!(flushed.receiver, SERVER_ID);
        let update = flushed.payload.as_update().expect("an update");
        assert_eq!(update.n_samples, 40);
        assert_eq!(update.n_steps, 4);
        let mut both = [a, b];
        both.sort_unstable();
        assert_eq!(update.contributors(&edge.id), &both[..]);
        // 30/40 * 0.0 + 10/40 * 4.0 = 1.0
        let merged = update.to_params(|_| None).expect("decodes");
        let w = merged.get("w").expect("merged tensor");
        assert!((w.data()[0] - 1.0).abs() < 1e-6);
        assert!(edge.acc.is_empty() && edge.pending.is_empty());
    }

    #[test]
    fn non_update_traffic_relays_even_in_partial_mode() {
        let (plan, mut edge) = partial_edge();
        let c = plan.subtree_clients(edge.id)[0];
        let join = Message::new(c, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
        assert!(matches!(
            edge.on_upstream(&join).expect("no decode needed"),
            EdgeAction::Relay
        ));
    }

    #[test]
    fn partial_codec_reencodes_upstream() {
        let (plan, mut edge) = two_tier_edge(Some(Box::new(fs_compress::TopK::new(0.5))));
        let c = plan.subtree_clients(edge.id)[0];
        let bcast = Message::new(SERVER_ID, c, MessageKind::ModelParams, 1, Payload::Empty);
        edge.on_downstream(&bcast);
        let flushed = match edge.on_upstream(&update(c, 3.0, 10)).expect("decodes") {
            EdgeAction::Flush(m) => m,
            other => panic!("expected flush, got {other:?}"),
        };
        assert!(matches!(
            flushed.payload,
            Payload::CompressedPartialUpdate { .. }
        ));
    }
}
