//! The edge-aggregator role.
//!
//! An edge sits between a subtree of clients and the tier above it. Two merge
//! disciplines exist, and the choice decides what the root ever sees:
//!
//! * [`EdgeMerge::Lossless`] — every upstream message is relayed unchanged,
//!   one message per constituent update. The root receives exactly the
//!   messages a star course would have delivered, which is what makes the
//!   hierarchy-equals-star equivalence hold bit for bit.
//! * [`EdgeMerge::Partial`] — the edge buffers its direct children's updates
//!   for the round and flushes **one** sample-weighted
//!   [`Payload::PartialUpdate`] upstream (re-encoded by the edge's own codec
//!   instance when one is configured, so each backbone hop pays its own,
//!   genuinely compressed bytes). `constituents` preserves per-client
//!   bookkeeping at the root.
//!
//! Partial merging presumes the `all_received` aggregation rule: every
//! broadcast the edge forwards downstream marks that child as awaited, and
//! the flush fires when the last awaited child reports back. Other rules
//! (goal/time driven) aggregate on *partial* cohorts, where holding updates
//! back would deadlock the course — `fs-verify` flags those combinations
//! (`FSV054`) and the course builder falls back to lossless relaying.

use fs_compress::Compressor;
use fs_net::{Message, MessageKind, ParticipantId, Payload, TopologyPlan, SERVER_ID};
use fs_tensor::ParamMap;
use std::collections::{BTreeMap, BTreeSet};

/// How an edge treats its subtree's updates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EdgeMerge {
    /// Relay every update upstream unchanged (star-equivalent).
    #[default]
    Lossless,
    /// Merge the round's updates into one partial aggregate per flush.
    Partial,
}

/// A decode failure inside an edge (malformed or unsupported payload).
#[derive(Debug)]
pub enum EdgeError {
    /// A compressed constituent failed to decode.
    Decode {
        /// The edge that failed.
        edge: ParticipantId,
        /// The sender of the offending message.
        sender: ParticipantId,
        /// Decoder detail.
        detail: String,
    },
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::Decode {
                edge,
                sender,
                detail,
            } => write!(
                f,
                "edge {edge} could not decode the update from {sender}: {detail}"
            ),
        }
    }
}

impl std::error::Error for EdgeError {}

/// What an edge decided about one upstream message.
#[derive(Debug)]
pub enum EdgeAction {
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
pub struct EdgeAggregator {
    /// This edge's participant id.
    pub id: ParticipantId,
    /// The next hop upstream (another edge, or [`SERVER_ID`]).
    pub parent: ParticipantId,
    /// Merge discipline.
    pub merge: EdgeMerge,
    /// Direct children (clients or deeper edges), ascending.
    children: Vec<ParticipantId>,
    /// Which direct child covers each client of the subtree.
    cover: BTreeMap<ParticipantId, ParticipantId>,
    /// Upstream re-encoder (partial mode only); each edge owns its instance
    /// so error feedback accumulates per hop, not globally.
    codec: Option<Box<dyn Compressor>>,
    /// Direct children whose update is still awaited this flush cycle.
    pending: BTreeSet<ParticipantId>,
    /// Buffered constituents awaiting the flush.
    acc: Vec<Constituent>,
    /// Round of the pending cohort (stamped on the flushed message).
    round: u64,
}

impl EdgeAggregator {
    /// Builds the edge for node `id` of `plan`. `codec` is the upstream
    /// re-encoder used by partial merges (ignored in lossless mode).
    pub fn from_plan(
        plan: &TopologyPlan,
        id: ParticipantId,
        merge: EdgeMerge,
        codec: Option<Box<dyn Compressor>>,
    ) -> Self {
        let children = plan.children_of(id).to_vec();
        let mut cover = BTreeMap::new();
        for &child in &children {
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
            parent: plan.parent_of(id).unwrap_or(SERVER_ID),
            merge,
            children,
            cover,
            codec,
            pending: BTreeSet::new(),
            acc: Vec::new(),
            round: 0,
        }
    }

    /// Direct children of this edge, ascending.
    pub fn children(&self) -> &[ParticipantId] {
        &self.children
    }

    /// Clients anywhere beneath this edge, ascending.
    pub fn subtree(&self) -> Vec<ParticipantId> {
        self.cover.keys().copied().collect()
    }

    /// Observes a server → client message transiting downstream. Model
    /// broadcasts arm the partial cohort: the direct child covering the
    /// target is awaited until its update comes back.
    pub fn on_downstream(&mut self, msg: &Message) {
        if self.merge == EdgeMerge::Partial && msg.kind == MessageKind::ModelParams {
            if let Some(&child) = self.cover.get(&msg.receiver) {
                self.pending.insert(child);
                self.round = msg.round;
            }
        }
    }

    /// A client (or its covering subtree) is gone for good: stop awaiting it
    /// so the round's flush is not held hostage by a dead peer.
    pub fn retire(&mut self, client: ParticipantId) {
        if let Some(child) = self.cover.remove(&client) {
            // only un-await the direct child when nothing else hides behind it
            if child == client || !self.cover.values().any(|&c| c == child) {
                self.pending.remove(&child);
            }
        }
    }

    /// Handles one upstream message from a direct child and decides its fate.
    ///
    /// Non-update traffic (join-ins, metric reports) always relays; update
    /// traffic relays in lossless mode and accumulates in partial mode,
    /// flushing the merged cohort when the last awaited child reports.
    pub fn on_upstream(&mut self, msg: &Message) -> Result<EdgeAction, EdgeError> {
        if self.merge == EdgeMerge::Lossless || msg.kind != MessageKind::Updates {
            return Ok(EdgeAction::Relay);
        }
        let constituent = self.decode(msg)?;
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

    fn decode(&self, msg: &Message) -> Result<Constituent, EdgeError> {
        let fail = |detail: String| EdgeError::Decode {
            edge: self.id,
            sender: msg.sender,
            detail,
        };
        let update = msg.payload.as_update().ok_or_else(|| {
            fail(format!(
                "unsupported Updates payload variant {:?}",
                msg.payload
            ))
        })?;
        // delta blocks need the sender's reference model, which the edge does
        // not track — fs-verify rejects `upload_delta` hierarchies up front
        // (FSV056)
        let params = update
            .to_params(|_| None)
            .map_err(|e| fail(e.to_string()))?;
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
    use fs_net::Topology;
    use fs_tensor::Tensor;

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

    fn two_tier_edge(merge: EdgeMerge) -> (TopologyPlan, EdgeAggregator) {
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
        let edge = EdgeAggregator::from_plan(&plan, id, merge, None);
        (plan, edge)
    }

    #[test]
    fn lossless_relays_everything() {
        let (plan, mut edge) = two_tier_edge(EdgeMerge::Lossless);
        let c = plan.subtree_clients(edge.id)[0];
        let action = edge.on_upstream(&update(c, 1.0, 10)).expect("decodes");
        assert!(matches!(action, EdgeAction::Relay));
        assert!(edge.acc.is_empty() && edge.pending.is_empty());
    }

    #[test]
    fn partial_waits_for_the_cohort_then_flushes_weighted() {
        let (plan, mut edge) = two_tier_edge(EdgeMerge::Partial);
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
        match flushed.payload {
            Payload::PartialUpdate {
                params,
                n_samples,
                n_steps,
                constituents,
                ..
            } => {
                assert_eq!(n_samples, 40);
                assert_eq!(n_steps, 4);
                assert_eq!(constituents, {
                    let mut v = vec![a, b];
                    v.sort_unstable();
                    v
                });
                // 30/40 * 0.0 + 10/40 * 4.0 = 1.0
                let w = params.get("w").expect("merged tensor");
                assert!((w.data()[0] - 1.0).abs() < 1e-6);
            }
            other => panic!("expected partial update, got {other:?}"),
        }
        assert!(edge.acc.is_empty() && edge.pending.is_empty());
    }

    #[test]
    fn non_update_traffic_relays_even_in_partial_mode() {
        let (plan, mut edge) = two_tier_edge(EdgeMerge::Partial);
        let c = plan.subtree_clients(edge.id)[0];
        let join = Message::new(c, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
        assert!(matches!(
            edge.on_upstream(&join).expect("no decode needed"),
            EdgeAction::Relay
        ));
    }

    #[test]
    fn retiring_the_last_awaited_child_unblocks_the_flush() {
        let (plan, mut edge) = two_tier_edge(EdgeMerge::Partial);
        let subtree = plan.subtree_clients(edge.id);
        let (a, b) = (subtree[0], subtree[1]);
        for &c in &[a, b] {
            let bcast = Message::new(SERVER_ID, c, MessageKind::ModelParams, 1, Payload::Empty);
            edge.on_downstream(&bcast);
        }
        edge.retire(b);
        let action = edge.on_upstream(&update(a, 2.0, 10)).expect("decodes");
        assert!(matches!(action, EdgeAction::Flush(_)));
    }

    #[test]
    fn partial_codec_reencodes_upstream() {
        let (plan, id) = {
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
            (plan, id)
        };
        let mut edge = EdgeAggregator::from_plan(
            &plan,
            id,
            EdgeMerge::Partial,
            Some(Box::new(fs_compress::TopK::new(0.5))),
        );
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
