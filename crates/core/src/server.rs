//! The server worker.
//!
//! The server holds the global model, the aggregator and the sampler. The
//! default handlers implement every strategy of §3.3 — `all_received`
//! (vanilla sync), `goal_achieved` (FedBuff-style async and Sync-OS), and
//! `time_up` (budgeted async with remedial measures) — plus the
//! buffered-async and tiered semi-async modes, combined with the
//! *after-aggregating* / *after-receiving* broadcast manners and the
//! uniform / responsiveness / group samplers. The server itself contains no
//! per-regime logic: when aggregation fires, which buffered updates it
//! consumes and what a round timer means are asked of `cfg.rule`
//! (`scheduler.rs`), over a view of this state.
//!
//! # The step
//!
//! Both clocks reach the server through one portless step,
//! `Server::step` over a `LoopEvent`: a delivered message, a fired timer,
//! or what a driver learned about a participant (its link closed, its worker
//! died, a frame to it found no receiver, it rejoined). The step applies the
//! handlers, the dropout policy, the lost-report rule, re-arming and the
//! re-homing of a dead edge's subtree, and records every send, timer and
//! `REHOME` frame in the [`Ctx`]. It reads no clock and no port; the
//! virtual-time runner realizes the context on its event queue, the threaded
//! driver on its transport.

use crate::aggregator::{Aggregator, ReceivedUpdate};
use crate::config::{BroadcastManner, DropoutPolicy, FlConfig};
use crate::ctx::Ctx;
use crate::distributed::{rehome_msg, DistributedError};
use crate::eval::{EvalRecord, GlobalEvaluator};
use crate::event::{Condition, Event};
use crate::idset::IdSet;
use crate::registry::Registry;
use crate::sampler::Sampler;
use crate::scheduler::SchedulerObs;
use fs_compress::{CompressedBlock, Compressor};
use fs_monitor::MonitorHandle;
use fs_net::{Message, MessageKind, ParticipantId, Payload, TopologyPlan, SERVER_ID};
use fs_tensor::model::Metrics;
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};

/// What the server step consumes, under either clock. The message is owned
/// off a transport and borrowed off the virtual-time queue.
#[derive(Debug)]
pub(crate) enum LoopEvent<M = Message> {
    /// A message addressed to the server.
    Message(M),
    /// A timer the server armed fired: its condition and the round it was
    /// armed in.
    Timer(Condition, u64),
    /// `id`'s link to the server closed. It trails every frame that link
    /// handed the server directly (the transport's ordering guarantee).
    Closed(ParticipantId),
    /// `id`'s worker ended with its link dead for good.
    Died(ParticipantId),
    /// A frame the step sent to `id` found no receiver.
    Undeliverable(ParticipantId),
    /// `id` re-entered over a fresh link after an outage.
    Rejoined(ParticipantId),
}

/// Round/staleness bookkeeping, split out of the model-math server state.
///
/// The server's mutable state is sharded into independently owned sections:
/// the model section (`global`, version, history, broadcast cache — touched
/// by aggregation math), this ledger (counters and logs — bumped on every
/// received update), and the monitor stream (`ServerState::monitor`).
/// Handlers that only do bookkeeping never borrow the model section, so the
/// aggregation hot loop stays free of ledger writes and a multi-threaded
/// server can guard each section separately instead of serializing on one
/// lock.
#[derive(Debug, Default)]
pub struct RoundLedger {
    /// Per-client effective aggregation count (Fig. 10).
    pub agg_count: BTreeMap<ParticipantId, u64>,
    /// Staleness of every aggregated update (Fig. 11).
    pub staleness_log: Vec<u64>,
    /// Updates dropped for any reason (stale or unreconstructable).
    pub dropped_updates: u64,
    /// Subset of `dropped_updates` rejected specifically by the staleness
    /// gate (the remainder failed payload reconstruction).
    pub stale_drops: u64,
    /// Total updates received.
    pub total_updates: u64,
    /// Model broadcasts sent.
    pub models_sent: u64,
    /// Remedial-measure activations (time_up with insufficient feedback).
    pub remedial_count: u64,
    /// Updates received in the current synchronous round (incl. dropped).
    pub received_this_round: usize,
}

impl RoundLedger {
    /// Records one aggregation's worth of updates, returning the staleness
    /// sum for the monitor counter. Pure bookkeeping: runs before the
    /// aggregation math and touches none of its inputs.
    pub fn record_aggregation(&mut self, updates: &[ReceivedUpdate]) -> u64 {
        let mut staleness_sum = 0u64;
        for u in updates {
            *self.agg_count.entry(u.client).or_insert(0) += 1;
            self.staleness_log.push(u.staleness);
            staleness_sum += u.staleness;
        }
        staleness_sum
    }
}

/// Mutable server state shared by all handlers.
pub struct ServerState {
    /// Course configuration.
    pub cfg: FlConfig,
    /// The global model (shared-key subset in personalized/multi-goal runs).
    pub global: ParamMap,
    /// Global model version: bumps on every aggregation.
    pub version: u64,
    /// Completed aggregation rounds (equal to `version`).
    pub round: u64,
    /// Clients that have joined.
    pub roster: Vec<ParticipantId>,
    /// Index over `roster` for O(log n) membership checks: keeps join and
    /// rejoin handling from scanning the whole roster per message at scale.
    /// Invariant: contains exactly the ids in `roster`.
    pub roster_index: BTreeSet<ParticipantId>,
    /// Clients the course waits for before starting.
    pub expected_clients: usize,
    /// Clients currently training (sampled, not yet replied).
    pub busy: IdSet,
    /// Buffered usable updates for the next aggregation.
    pub buffer: Vec<ReceivedUpdate>,
    /// Clients sampled for the current synchronous round.
    pub outstanding: IdSet,
    /// The aggregation rule's executor.
    pub aggregator: Box<dyn Aggregator>,
    /// Client sampler.
    pub sampler: Sampler,
    /// Course RNG.
    pub rng: StdRng,
    /// Optional centralized evaluator.
    pub evaluator: Option<GlobalEvaluator>,
    /// Global learning curve.
    pub history: Vec<EvalRecord>,
    /// Round/staleness bookkeeping (its own state shard).
    pub ledger: RoundLedger,
    /// Why the course ended, once it has.
    pub finish_reason: Option<String>,
    /// Per-client final metrics reported at Finish.
    pub client_reports: BTreeMap<ParticipantId, Metrics>,
    /// Clients removed from the course after their connection died
    /// (distributed runners only; chronological).
    pub dropouts: Vec<ParticipantId>,
    /// Clients whose report can never arrive: lost, and not rejoined since.
    pub(crate) gone: BTreeSet<ParticipantId>,
    /// Edges gone for good, their subtrees re-homed.
    pub(crate) dead_edges: BTreeSet<ParticipantId>,
    /// The hierarchy a threaded course is routed over, along which a dead
    /// edge's subtree is re-homed; `None` when no driver needs one.
    pub(crate) plan: Option<TopologyPlan>,
    /// Successful client reconnections observed by the transport.
    pub reconnects: u64,
    /// Download codec: when set, broadcasts leave as
    /// `Payload::CompressedModel`.
    pub download_codec: Option<Box<dyn Compressor>>,
    /// Compressed broadcast for the current version, so one aggregation's
    /// fan-out encodes (and advances codec state) exactly once.
    pub broadcast_cache: Option<(u64, CompressedBlock)>,
    /// Past global models kept to reconstruct delta-encoded uploads, pruned
    /// to the staleness tolerance (anything older would be dropped anyway).
    pub global_history: BTreeMap<u64, ParamMap>,
    /// Whether `global_history` is maintained (only needed for delta uploads).
    pub track_history: bool,
    /// Whether the course has been terminated by the server.
    pub done: bool,
    /// Observability sink: null (free) unless the runner driving the course
    /// attached a monitor. The server's handlers record domain counters and
    /// round metrics through it; no client handler records anything.
    pub monitor: MonitorHandle,
    /// The candidate buffer every sample is drawn in: the idle clients, then
    /// the picks. Kept while the course runs, so a draw allocates nothing.
    idle: Vec<ParticipantId>,
}

impl ServerState {
    /// Refills `idle` with the clients not in `busy`, in roster (join)
    /// order. The order is contractual: the sampler's draw sequence is a
    /// function of it.
    fn fill_idle(&mut self) {
        self.busy.absent_into(&self.roster, &mut self.idle);
    }

    /// The view of this state that `cfg.rule` decides over.
    fn obs(&self) -> SchedulerObs<'_> {
        SchedulerObs {
            buffer: &self.buffer,
            busy: &self.busy,
            received_this_round: self.ledger.received_this_round,
            outstanding_empty: self.outstanding.is_empty(),
            roster_len: self.roster.len(),
            seed: self.cfg.seed,
        }
    }

    /// The broadcast payload for the current global model, compressed when a
    /// download codec is configured. The compressed block is cached per
    /// version so every recipient of one aggregation gets identical bytes.
    fn broadcast_payload(&mut self) -> Payload {
        match self.download_codec.as_mut() {
            Some(codec) => {
                let block = match &self.broadcast_cache {
                    Some((v, block)) if *v == self.version => block.clone(),
                    _ => {
                        let block = codec.compress(&self.global);
                        self.broadcast_cache = Some((self.version, block.clone()));
                        block
                    }
                };
                Payload::CompressedModel {
                    block,
                    version: self.version,
                }
            }
            None => Payload::Model {
                params: self.global.clone(),
                version: self.version,
            },
        }
    }

    /// Records the current global model for delta-upload reconstruction.
    fn record_history(&mut self) {
        if !self.track_history {
            return;
        }
        self.global_history
            .insert(self.version, self.global.clone());
        let oldest = self.version.saturating_sub(self.cfg.staleness_tolerance);
        self.global_history.retain(|&v, _| v >= oldest);
    }

    /// Broadcasts the current global model to `targets`, marking them busy.
    ///
    /// The payload is computed once (the per-version cache already made every
    /// copy identical) and handed to [`Ctx::broadcast`], which records one
    /// cohort-granular intent.
    fn broadcast_to(&mut self, targets: &[ParticipantId], ctx: &mut Ctx) {
        if targets.is_empty() {
            return;
        }
        for &c in targets {
            self.busy.insert(c);
            self.outstanding.insert(c);
        }
        let payload = self.broadcast_payload();
        ctx.broadcast(MessageKind::ModelParams, self.round, payload, targets);
        self.ledger.models_sent += targets.len() as u64;
    }

    /// Samples up to `k` idle clients and broadcasts the model to them.
    fn sample_and_broadcast(&mut self, k: usize, ctx: &mut Ctx) {
        if k == 0 {
            return;
        }
        self.fill_idle();
        self.sampler
            .sample_in_place(&mut self.idle, k, &mut self.rng);
        // lent out for the broadcast, which needs the rest of `self`
        let picks = std::mem::take(&mut self.idle);
        self.broadcast_to(&picks, ctx);
        self.idle = picks;
    }

    /// Refills concurrency to the configured target and re-arms the round
    /// timer when the rule is timer-driven.
    fn start_round(&mut self, ctx: &mut Ctx) {
        self.outstanding.clear();
        self.ledger.received_this_round = 0;
        let target = self.cfg.sample_target();
        // Pre-size the round's inbox: the buffer will hold at most one usable
        // update per sampled client before the next aggregation drains it.
        self.buffer
            .reserve(target.saturating_sub(self.buffer.len()));
        let need = target.saturating_sub(self.busy.len());
        self.sample_and_broadcast(need, ctx);
        if let Some(budget_secs) = self.cfg.rule.round_timer() {
            ctx.arm_timer(budget_secs, Condition::TimeUp, self.round);
        }
    }

    /// Removes a disconnected client from the course (§ fault model): it
    /// leaves the roster, the busy set, and the outstanding set, and the
    /// aggregation conditions are re-evaluated so the round completes with
    /// the survivors instead of waiting forever for the dead client.
    ///
    /// Transport-level notification — call through [`Server::notify_dropout`]
    /// so raised conditions are drained.
    pub fn drop_client(&mut self, id: ParticipantId, ctx: &mut Ctx) {
        let joining = self.ledger.models_sent == 0;
        let known = self.roster_index.remove(&id);
        // a not-yet-joined client may die while joins are still gathered,
        // but only once: off the roster and in `dropouts` means this death
        // is already counted (a rejoin would have put it back on the roster)
        if !known && (!joining || self.dropouts.contains(&id)) {
            return; // unknown, or already dropped
        }
        if known {
            // roster_index tracks roster, so the scan finds it; retain keeps
            // the same order either way
            self.roster.retain(|&c| c != id);
        }
        self.busy.remove(&id);
        self.outstanding.remove(&id);
        self.dropouts.push(id);
        self.monitor.add(fs_monitor::counters::DROPOUTS, 1);
        if joining {
            // a client lost before the course started is no longer awaited
            self.expected_clients = self.expected_clients.saturating_sub(1);
        }
        self.reevaluate_after_roster_change(ctx);
    }

    /// Re-admits a reconnected client. Any work in flight on its old
    /// connection is void (the frames are gone), so the client is treated as
    /// idle: cleared from busy/outstanding, re-added to the roster if it had
    /// been dropped, and the round conditions are re-evaluated so the course
    /// moves on; the client catches the next broadcast. After the course
    /// terminated there is no next broadcast — the `Finish` went to the
    /// connection that died — so the rejoiner is sent its own.
    ///
    /// Transport-level notification — call through [`Server::notify_rejoin`].
    pub fn rejoin_client(&mut self, id: ParticipantId, ctx: &mut Ctx) {
        self.reconnects += 1;
        self.monitor.add(fs_monitor::counters::RECONNECTS, 1);
        if self.roster_index.insert(id) {
            self.roster.push(id);
        }
        self.busy.remove(&id);
        self.outstanding.remove(&id);
        if self.done {
            self.send_finish(Some(id), ctx);
        }
        self.reevaluate_after_roster_change(ctx);
    }

    /// Ships the final global model as `Finish` — to the whole roster when
    /// the course terminates, to `only` one client when it rejoins afterwards.
    /// Compressed when a download codec is configured, like any other
    /// broadcast (the payload is built even for an empty roster so the codec
    /// cache advances the same way it always did). Runs once per course and
    /// once per late rejoiner: `cold` keeps it out of line, so the per-round
    /// broadcast path compiles as it did before this had a second caller
    /// (inlined, it cost `twitter_async` ≈ 3 % of `course_wall_s`).
    #[cold]
    fn send_finish(&mut self, only: Option<ParticipantId>, ctx: &mut Ctx) {
        let payload = self.broadcast_payload();
        let targets = match &only {
            Some(id) => std::slice::from_ref(id),
            None => &self.roster[..],
        };
        ctx.broadcast(MessageKind::Finish, self.round, payload, targets);
    }

    /// After the roster shrank (or a rejoined client was reset to idle),
    /// checks whether a condition the dead client was blocking now holds.
    fn reevaluate_after_roster_change(&mut self, ctx: &mut Ctx) {
        if self.done {
            return;
        }
        if self.roster.is_empty() {
            self.finish_reason = Some("all clients dropped out".to_string());
            ctx.raise(Condition::EarlyStop);
            return;
        }
        if self.ledger.models_sent == 0 {
            // still gathering joins: the shrunken expectation may now be met
            if self.roster.len() >= self.expected_clients {
                ctx.raise(Condition::AllJoinedIn);
            }
            return;
        }
        let obs = self.obs();
        match self.cfg.rule.aggregation_due(&obs) {
            Some(cond) => ctx.raise(cond),
            None if self.cfg.rule.restarts_round(&obs) => self.start_round(ctx),
            None => {}
        }
    }

    /// Performs federated aggregation on the buffer and advances the course.
    fn aggregate_and_continue(&mut self, ctx: &mut Ctx) {
        if self.done {
            return;
        }
        // the rule picks which buffered updates this aggregation consumes:
        // the whole buffer, or (tiered) the ready tier's, in buffer order,
        // the rest staying buffered
        let occupancy = self.buffer.len();
        let buffer = match self.cfg.rule.merge_tier(&self.obs()) {
            None => std::mem::take(&mut self.buffer),
            Some(in_tier) => {
                let (merged, rest) = std::mem::take(&mut self.buffer)
                    .into_iter()
                    .partition(|u| in_tier(u.client));
                self.buffer = rest;
                self.monitor.add(fs_monitor::counters::SCHED_TIER_MERGES, 1);
                merged
            }
        };
        let staleness_sum = self.ledger.record_aggregation(&buffer);
        self.monitor.add(fs_monitor::counters::AGGREGATIONS, 1);
        self.monitor.add(
            fs_monitor::counters::UPDATES_AGGREGATED,
            buffer.len() as u64,
        );
        self.monitor
            .add(fs_monitor::counters::STALENESS_SUM, staleness_sum);
        if self.cfg.rule.gauges() {
            self.monitor.add(
                fs_monitor::counters::SCHED_BUFFER_OCCUPANCY,
                occupancy as u64,
            );
        }
        self.global = self.aggregator.aggregate(&self.global, &buffer);
        self.version += 1;
        self.record_history();
        self.round += 1;
        self.ledger.received_this_round = 0;
        self.outstanding.clear();

        // centralized evaluation + stop checks
        if self.round.is_multiple_of(self.cfg.eval_every) {
            if let Some(ev) = self.evaluator.as_mut() {
                let metrics = ev.eval(&self.global);
                self.history.push(EvalRecord {
                    round: self.round,
                    time_secs: ctx.now.as_secs(),
                    metrics,
                });
                self.monitor.round(self.round, ctx.now, &metrics);
                if let Some(target) = self.cfg.target_accuracy {
                    if metrics.accuracy >= target {
                        self.finish_reason = Some(format!(
                            "target accuracy {target} reached at round {}",
                            self.round
                        ));
                        ctx.raise(Condition::EarlyStop);
                        return;
                    }
                }
            }
        }
        if self.round >= self.cfg.total_rounds {
            self.finish_reason = Some(format!("round limit {} reached", self.cfg.total_rounds));
            ctx.raise(Condition::EarlyStop);
            return;
        }
        match self.cfg.broadcast {
            BroadcastManner::AfterAggregating => self.start_round(ctx),
            BroadcastManner::AfterReceiving => {
                // concurrency is maintained per-receive; only top up shortfall
                let target = self.cfg.sample_target();
                let need = target.saturating_sub(self.busy.len());
                self.sample_and_broadcast(need, ctx);
                if let Some(budget_secs) = self.cfg.rule.round_timer() {
                    ctx.arm_timer(budget_secs, Condition::TimeUp, self.round);
                }
            }
        }
    }
}

/// A server participant: state + handler registry.
pub struct Server {
    /// Handler-visible state.
    pub state: ServerState,
    registry: Registry<ServerState>,
}

impl Server {
    /// Creates a server with default handlers for the configured strategy.
    pub fn new(
        cfg: FlConfig,
        global: ParamMap,
        expected_clients: usize,
        aggregator: Box<dyn Aggregator>,
        sampler: Sampler,
        evaluator: Option<GlobalEvaluator>,
    ) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        let download_codec = cfg.compression.build_download();
        let track_history = cfg.compression.upload.is_some() && cfg.compression.upload_delta;
        let state = ServerState {
            cfg,
            global,
            version: 0,
            round: 0,
            roster: Vec::new(),
            roster_index: BTreeSet::new(),
            expected_clients,
            busy: IdSet::new(),
            buffer: Vec::new(),
            outstanding: IdSet::new(),
            aggregator,
            sampler,
            rng,
            evaluator,
            history: Vec::new(),
            ledger: RoundLedger::default(),
            finish_reason: None,
            client_reports: BTreeMap::new(),
            dropouts: Vec::new(),
            gone: BTreeSet::new(),
            dead_edges: BTreeSet::new(),
            plan: None,
            reconnects: 0,
            download_codec,
            broadcast_cache: None,
            global_history: BTreeMap::new(),
            track_history,
            done: false,
            monitor: MonitorHandle::null(),
            idle: Vec::new(),
        };
        let mut s = Self {
            state,
            registry: Registry::new(),
        };
        s.state.record_history(); // version 0 is a valid delta reference
        s.install_default_handlers();
        s
    }

    /// Access to the handler registry for customization.
    pub fn registry_mut(&mut self) -> &mut Registry<ServerState> {
        &mut self.registry
    }

    /// The effective `<event, handler>` pairs (recorded in course logs).
    pub fn effective_handlers(&self) -> Vec<(Event, &str)> {
        self.registry.effective_handlers()
    }

    /// Registration-conflict warnings.
    pub fn warnings(&self) -> &[String] {
        self.registry.warnings()
    }

    /// Emit-conformance violations observed during dispatch.
    pub fn violations(&self) -> &[String] {
        self.registry.violations()
    }

    /// Handler specs for the static verifier.
    pub fn specs(&self) -> Vec<fs_verify::HandlerSpec> {
        self.registry.specs()
    }

    /// Dispatches a message event, then drains raised condition events.
    pub fn handle(&mut self, msg: &Message, ctx: &mut Ctx) {
        self.registry
            .dispatch(&mut self.state, Event::Message(msg.kind), msg, ctx);
        self.drain_conditions(msg, ctx);
    }

    /// Delivers a timer-raised condition event (e.g. `time_up`).
    pub fn handle_timer(&mut self, condition: Condition, round: u64, ctx: &mut Ctx) {
        let synthetic = Message::new(
            SERVER_ID,
            SERVER_ID,
            MessageKind::Custom(0xFFF),
            round,
            Payload::Empty,
        );
        self.registry.dispatch(
            &mut self.state,
            Event::Condition(condition),
            &synthetic,
            ctx,
        );
        self.drain_conditions(&synthetic, ctx);
    }

    /// Transport notification: `id`'s connection died and the dropout policy
    /// chose to continue with the survivors. Applies
    /// [`ServerState::drop_client`] and drains any condition it unblocked.
    pub fn notify_dropout(&mut self, id: ParticipantId, ctx: &mut Ctx) {
        self.state.drop_client(id, ctx);
        self.drain_notified(id, ctx);
    }

    /// Transport notification: `id` completed a rejoin handshake. Applies
    /// [`ServerState::rejoin_client`] and drains any condition it unblocked.
    pub fn notify_rejoin(&mut self, id: ParticipantId, ctx: &mut Ctx) {
        self.state.rejoin_client(id, ctx);
        self.drain_notified(id, ctx);
    }

    /// Drains the conditions a transport notification about `id` raised.
    fn drain_notified(&mut self, id: ParticipantId, ctx: &mut Ctx) {
        let kind = MessageKind::Custom(0xFFE);
        let synthetic = Message::new(id, SERVER_ID, kind, self.state.round, Payload::Empty);
        self.drain_conditions(&synthetic, ctx);
    }

    /// The server's one step, under either clock: applies `event`, recording
    /// every send, timer and `REHOME` frame in `ctx`. Fails only when the
    /// dropout policy forbids continuing without a lost client.
    pub(crate) fn step(
        &mut self,
        event: LoopEvent<impl Borrow<Message>>,
        ctx: &mut Ctx,
    ) -> Result<(), DistributedError> {
        let plan = self.state.plan.as_ref();
        let edge = |id| plan.is_some_and(|plan| plan.is_edge(id));
        match event {
            LoopEvent::Message(msg) => self.handle(msg.borrow(), ctx),
            LoopEvent::Timer(condition, round) => self.handle_timer(condition, round, ctx),
            LoopEvent::Died(id) if edge(id) => self.rehome(id, ctx),
            // an edge's link decides nothing by itself: the edge either
            // rejoins, or its worker dies and its subtree is re-homed
            LoopEvent::Closed(id) | LoopEvent::Undeliverable(id) if edge(id) => {}
            LoopEvent::Rejoined(id) if edge(id) => self.rearm_subtree(id, ctx),
            // after the finish a frame that found no receiver is merely
            // lost: the client's own `Closed` decides
            LoopEvent::Undeliverable(_) if self.state.done => {}
            // the lost-report rule (`distributed` module docs)
            LoopEvent::Closed(id) | LoopEvent::Died(id) | LoopEvent::Undeliverable(id) => {
                self.dropout(id, ctx)?;
            }
            LoopEvent::Rejoined(id) => {
                // the link is live again: await this client's report normally
                self.state.gone.remove(&id);
                self.notify_rejoin(id, ctx);
            }
        }
        Ok(())
    }

    /// The single dropout path: the first loss of `id` to be stepped applies
    /// the dropout policy. A client that has reported is never a dropout.
    fn dropout(&mut self, id: ParticipantId, ctx: &mut Ctx) -> Result<(), DistributedError> {
        let state = &mut self.state;
        if state.client_reports.contains_key(&id) || !state.gone.insert(id) {
            return Ok(());
        }
        let survivors = state.roster.len() - usize::from(state.roster_index.contains(&id));
        match state.cfg.dropout {
            DropoutPolicy::Survivors { min_survivors } if survivors >= min_survivors => {
                self.notify_dropout(id, ctx);
                Ok(())
            }
            _ => Err(DistributedError::PeerDisconnected(id)),
        }
    }

    /// Re-arms every client under `edge` still owing its report: work in
    /// flight through the edge is void.
    fn rearm_subtree(&mut self, edge: ParticipantId, ctx: &mut Ctx) {
        let Some(plan) = self.state.plan.as_ref() else {
            return;
        };
        for c in plan.subtree_clients(edge) {
            if !(self.state.gone.contains(&c) || self.state.client_reports.contains_key(&c)) {
                self.notify_rejoin(c, ctx);
            }
        }
    }

    /// An edge is gone for good: its direct children are told their new
    /// parent, the nearest live ancestor, and its subtree is re-armed so the
    /// round recovers.
    fn rehome(&mut self, dead: ParticipantId, ctx: &mut Ctx) {
        let state = &mut self.state;
        let Some(plan) = state.plan.as_ref() else {
            return;
        };
        if !state.dead_edges.insert(dead) {
            return;
        }
        let mut new_parent = plan.parent_of(dead).unwrap_or(SERVER_ID);
        while state.dead_edges.contains(&new_parent) {
            new_parent = plan.parent_of(new_parent).unwrap_or(SERVER_ID);
        }
        for &child in plan.children_of(dead) {
            // a freshly dead child is moot: its own death re-homes or drops it
            if !(state.dead_edges.contains(&child) || state.gone.contains(&child)) {
                ctx.send(rehome_msg(child, new_parent));
            }
        }
        self.rearm_subtree(dead, ctx);
    }

    fn drain_conditions(&mut self, msg: &Message, ctx: &mut Ctx) {
        while let Some(cond) = ctx.raised.pop_front() {
            self.registry
                .dispatch(&mut self.state, Event::Condition(cond), msg, ctx);
        }
        if self.state.done {
            ctx.finished = true;
        }
    }

    fn install_default_handlers(&mut self) {
        // the rule decides which condition (if any) triggers aggregation and
        // whether rounds are timer-driven; handler names and emit lists are
        // derived from that so the effective-handler log and the
        // completeness graph describe the actual course
        let trigger = self.state.cfg.rule.trigger();
        let timed = self.state.cfg.rule.round_timer().is_some();
        // receiving_join_in: register the client, assign its id, start when
        // everyone has joined.
        self.registry.register(
            Event::Message(MessageKind::JoinIn),
            "register_client",
            vec![
                Event::Message(MessageKind::IdAssignment),
                Event::Condition(Condition::AllJoinedIn),
            ],
            Box::new(|state, msg, ctx| {
                if state.roster_index.insert(msg.sender) {
                    state.roster.push(msg.sender);
                }
                ctx.send(Message::new(
                    SERVER_ID,
                    msg.sender,
                    MessageKind::IdAssignment,
                    0,
                    Payload::Empty,
                ));
                // a duplicate join-in after the course has started must not
                // re-raise all_joined_in (which would restart the round)
                if state.roster.len() >= state.expected_clients && state.ledger.models_sent == 0 {
                    ctx.raise(Condition::AllJoinedIn);
                }
            }),
        );

        // all_joined_in: kick off the first round.
        let mut start_emits = vec![Event::Message(MessageKind::ModelParams)];
        if timed {
            start_emits.push(Event::Condition(Condition::TimeUp));
        }
        self.registry.register(
            Event::Condition(Condition::AllJoinedIn),
            "start_training",
            start_emits,
            Box::new(|state, _msg, ctx| {
                state.start_round(ctx);
            }),
        );

        // receiving_updates: save the update, check the aggregation condition
        // (§3.2 Example 3.2), and in after-receiving manner immediately hand
        // the current model to a sampled idle client (§3.3.1 (iii)).
        let mut update_emits = vec![Event::Message(MessageKind::ModelParams)];
        if let Some(cond) = trigger {
            update_emits.push(Event::Condition(cond));
        }
        self.registry.register(
            Event::Message(MessageKind::Updates),
            "save_update_check_condition",
            update_emits,
            Box::new(|state, msg, ctx| {
                let Some(update) = msg.payload.as_update() else {
                    debug_assert!(false, "Updates carried {:?}", msg.payload);
                    return;
                };
                // `params` stays None when a delta upload's reference model
                // has been pruned from history — such an update is over-stale
                // by construction and falls through to the drop path below.
                let params = update.to_params(|v| state.global_history.get(&v)).ok();
                // per-client bookkeeping runs over the merged constituents so
                // rounds close on the same client set as the star course
                let contributors = update.contributors(&msg.sender);
                for c in contributors {
                    state.busy.remove(c);
                }
                if state.done {
                    return; // late update after termination
                }
                state.ledger.total_updates += contributors.len() as u64;
                state.monitor.add(
                    fs_monitor::counters::UPDATES_RECEIVED,
                    contributors.len() as u64,
                );
                // remove (not just test) so a duplicated or replayed reply
                // from the same client cannot be counted twice
                for c in contributors {
                    if state.outstanding.remove(c) {
                        state.ledger.received_this_round += 1;
                    }
                }
                let staleness = state.version.saturating_sub(update.start_version);
                match params {
                    Some(params) if staleness <= state.cfg.staleness_tolerance => {
                        state.buffer.push(ReceivedUpdate {
                            client: msg.sender,
                            params,
                            staleness,
                            n_samples: update.n_samples,
                            n_steps: update.n_steps,
                        });
                    }
                    _ => {
                        state.ledger.dropped_updates += contributors.len() as u64;
                        state.monitor.add(
                            fs_monitor::counters::UPDATES_DROPPED,
                            contributors.len() as u64,
                        );
                        // an in-tolerance update can only land here when its
                        // payload failed to reconstruct (pruned delta
                        // reference); everything else is a staleness drop
                        if staleness > state.cfg.staleness_tolerance {
                            state.ledger.stale_drops += contributors.len() as u64;
                            state.monitor.add(
                                fs_monitor::counters::UPDATES_DROPPED_STALE,
                                contributors.len() as u64,
                            );
                        }
                    }
                }
                let cond = state.cfg.rule.aggregation_due(&state.obs());
                let aggregating = cond.is_some();
                if let Some(cond) = cond {
                    ctx.raise(cond);
                }
                // after-receiving: hand the current model to one idle client —
                // unless this very update completes an aggregation, in which
                // case aggregate_and_continue tops concurrency up with the
                // *new* model instead of a guaranteed-stale copy of the old one
                if !state.done
                    && !aggregating
                    && state.cfg.broadcast == BroadcastManner::AfterReceiving
                {
                    state.sample_and_broadcast(1, ctx);
                }
            }),
        );

        // aggregation trigger: perform federated aggregation and push the
        // course forward. Only the rule's trigger condition is linked,
        // so the effective-handler log and the completeness graph describe
        // the actual course.
        let mut agg_emits = vec![
            Event::Message(MessageKind::ModelParams),
            Event::Condition(Condition::EarlyStop),
        ];
        if timed {
            agg_emits.push(Event::Condition(Condition::TimeUp));
        }
        if let Some(cond) = trigger {
            self.registry.register(
                Event::Condition(cond),
                "federated_aggregation",
                agg_emits.clone(),
                Box::new(move |state, _msg, ctx| {
                    state.aggregate_and_continue(ctx);
                }),
            );
        }

        // time_up: aggregate if enough feedback arrived, otherwise take the
        // remedial measure of extending the budget (§3.3.2).
        if timed {
            self.registry.register(
                Event::Condition(Condition::TimeUp),
                "time_up_aggregation",
                agg_emits,
                Box::new(|state, msg, ctx| {
                    if msg.round != state.round {
                        return; // stale timer from a finished round
                    }
                    if state.buffer.len() >= state.cfg.rule.min_feedback() {
                        state.aggregate_and_continue(ctx);
                    } else {
                        state.ledger.remedial_count += 1;
                        state.monitor.add(fs_monitor::counters::REMEDIAL, 1);
                        if state.ledger.remedial_count > 10_000 {
                            state.finish_reason =
                                Some("remedial limit exceeded (no client feedback)".to_string());
                            ctx.raise(Condition::EarlyStop);
                        } else {
                            // remedial measures (§3.3.2): sample additional
                            // clients (crashed ones never leave `busy`) and
                            // extend the time budget
                            let target = state.cfg.sample_target();
                            let need = target.saturating_sub(state.busy.len()).max(1);
                            state.sample_and_broadcast(need, ctx);
                            if let Some(budget_secs) = state.cfg.rule.round_timer() {
                                ctx.arm_timer(budget_secs, Condition::TimeUp, state.round);
                            }
                        }
                    }
                }),
            );
        }

        // early_stop: terminate the course, shipping the final global model.
        self.registry.register(
            Event::Condition(Condition::EarlyStop),
            "terminate",
            vec![Event::Message(MessageKind::Finish)],
            Box::new(|state, _msg, ctx| {
                if state.done {
                    return;
                }
                state.done = true;
                // nothing samples after the end: the roster-sized buffer
                // need not outlive the course into its final fan-out
                state.idle = Vec::new();
                if state.finish_reason.is_none() {
                    state.finish_reason = Some("early stop".to_string());
                }
                state.send_finish(None, ctx);
            }),
        );

        // receiving_metrics: record per-client reports.
        self.registry.register(
            Event::Message(MessageKind::MetricsReport),
            "record_metrics",
            vec![],
            Box::new(|state, msg, _ctx| {
                if let Payload::Report { metrics } = &msg.payload {
                    state.client_reports.insert(msg.sender, *metrics);
                }
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::FedAvg;
    use crate::config::AggregationRule;
    use fs_sim::VirtualTime;
    use fs_tensor::Tensor;

    fn global() -> ParamMap {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::zeros(&[2]));
        p
    }

    fn make_server(cfg: FlConfig, n: usize) -> Server {
        Server::new(
            cfg,
            global(),
            n,
            Box::new(FedAvg::new(0.0)),
            Sampler::Uniform,
            None,
        )
    }

    fn join_all(s: &mut Server, n: u32, ctx: &mut Ctx) {
        for id in 1..=n {
            let m = Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
            s.handle(&m, ctx);
        }
    }

    fn update_msg(id: u32, v: &[f32], start_version: u64) -> Message {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![v.len()], v.to_vec()));
        Message::new(
            id,
            SERVER_ID,
            MessageKind::Updates,
            0,
            Payload::Update {
                params: p,
                start_version,
                n_samples: 10,
                n_steps: 4,
            },
        )
    }

    #[test]
    fn join_in_assigns_and_starts_when_full() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 3);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 3, &mut ctx);
        // 3 id assignments + 2 model broadcasts (concurrency 2)
        let kinds: Vec<MessageKind> = ctx.take_messages().iter().map(|o| o.msg.kind).collect();
        assert_eq!(
            kinds
                .iter()
                .filter(|&&k| k == MessageKind::IdAssignment)
                .count(),
            3
        );
        assert_eq!(
            kinds
                .iter()
                .filter(|&&k| k == MessageKind::ModelParams)
                .count(),
            2
        );
        assert_eq!(s.state.busy.len(), 2);
    }

    #[test]
    fn idle_clients_come_in_join_order_not_id_order() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let joins = [70, 3, 64, 1, 200, 65, 2];
        let mut s = make_server(cfg, joins.len() + 1); // one short: no round yet
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        for id in joins {
            let m = Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
            s.handle(&m, &mut ctx);
        }
        s.state.fill_idle();
        assert_eq!(s.state.idle, joins, "nobody busy: the roster");
        for id in [64, 1, 2] {
            s.state.busy.insert(id);
        }
        s.state.fill_idle();
        assert_eq!(s.state.idle, [70, 3, 200, 65]);
        // the set itself iterates by id, whatever the insertion order
        assert_eq!(s.state.busy.iter().collect::<Vec<_>>(), [1, 2, 64]);
    }

    #[test]
    fn all_received_aggregates_and_rebroadcasts() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        ctx.outbox.clear();
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        assert_eq!(s.state.version, 0, "must wait for all");
        s.handle(&update_msg(2, &[3.0, 3.0], 0), &mut ctx);
        assert_eq!(s.state.version, 1);
        assert_eq!(s.state.global.get("w").unwrap().data(), &[2.0, 2.0]);
        // next round broadcast happened
        let models = ctx
            .take_messages()
            .iter()
            .filter(|o| o.msg.kind == MessageKind::ModelParams)
            .count();
        assert_eq!(models, 2);
    }

    #[test]
    fn goal_achieved_aggregates_early() {
        let cfg = FlConfig {
            concurrency: 3,
            total_rounds: 5,
            rule: AggregationRule::GoalAchieved { goal: 2 },
            ..Default::default()
        };
        let mut s = make_server(cfg, 3);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 3, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        assert_eq!(s.state.version, 0);
        s.handle(&update_msg(2, &[3.0, 3.0], 0), &mut ctx);
        assert_eq!(s.state.version, 1, "goal of 2 reached");
    }

    #[test]
    fn stale_updates_are_dropped_beyond_tolerance() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 100,
            rule: AggregationRule::GoalAchieved { goal: 1 },
            staleness_tolerance: 0,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx); // agg -> version 1
        assert_eq!(s.state.version, 1);
        // straggler started from version 0: staleness 1 > tolerance 0
        s.handle(&update_msg(2, &[9.0, 9.0], 0), &mut ctx);
        assert_eq!(s.state.ledger.dropped_updates, 1);
        assert!(s.state.buffer.is_empty());
    }

    #[test]
    fn stale_updates_kept_within_tolerance() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 100,
            rule: AggregationRule::GoalAchieved { goal: 2 },
            staleness_tolerance: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.state.version = 3; // pretend three aggregations happened
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx); // staleness 3
        assert_eq!(s.state.buffer.len(), 1);
        assert_eq!(s.state.buffer[0].staleness, 3);
    }

    #[test]
    fn time_up_with_feedback_aggregates() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            rule: AggregationRule::TimeUp {
                budget_secs: 60.0,
                min_feedback: 1,
            },
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        assert_eq!(ctx.timers.len(), 1, "round start arms the budget timer");
        s.handle(&update_msg(1, &[2.0, 2.0], 0), &mut ctx);
        assert_eq!(s.state.version, 0, "time_up not yet fired");
        let mut ctx2 = Ctx::at(VirtualTime::from_secs(60.0));
        s.handle_timer(Condition::TimeUp, 0, &mut ctx2);
        assert_eq!(s.state.version, 1);
    }

    #[test]
    fn time_up_without_feedback_takes_remedial_measure() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            rule: AggregationRule::TimeUp {
                budget_secs: 60.0,
                min_feedback: 1,
            },
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        let mut ctx2 = Ctx::at(VirtualTime::from_secs(60.0));
        s.handle_timer(Condition::TimeUp, 0, &mut ctx2);
        assert_eq!(s.state.version, 0);
        assert_eq!(s.state.ledger.remedial_count, 1);
        assert_eq!(ctx2.timers.len(), 1, "budget extended");
    }

    #[test]
    fn stale_timer_is_ignored() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            rule: AggregationRule::TimeUp {
                budget_secs: 60.0,
                min_feedback: 1,
            },
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.state.round = 3; // round moved on
        let mut ctx2 = Ctx::at(VirtualTime::from_secs(60.0));
        s.handle_timer(Condition::TimeUp, 0, &mut ctx2);
        assert_eq!(s.state.ledger.remedial_count, 0);
        assert_eq!(s.state.version, 0);
    }

    #[test]
    fn after_receiving_hands_model_to_idle_client() {
        let cfg = FlConfig {
            concurrency: 1,
            total_rounds: 100,
            rule: AggregationRule::GoalAchieved { goal: 5 },
            broadcast: BroadcastManner::AfterReceiving,
            ..Default::default()
        };
        let mut s = make_server(cfg, 3);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 3, &mut ctx);
        ctx.outbox.clear();
        // reply must come from the client actually sampled
        let sampled = s.state.busy.iter().next().expect("one client sampled");
        s.handle(&update_msg(sampled, &[1.0, 1.0], 0), &mut ctx);
        // no aggregation (goal 5), but exactly one new model handed out
        assert_eq!(s.state.version, 0);
        let models = ctx
            .take_messages()
            .iter()
            .filter(|o| o.msg.kind == MessageKind::ModelParams)
            .count();
        assert_eq!(models, 1);
        assert_eq!(s.state.busy.len(), 1, "concurrency maintained");
    }

    #[test]
    fn round_limit_terminates_with_finish() {
        let cfg = FlConfig {
            concurrency: 1,
            total_rounds: 1,
            ..Default::default()
        };
        let mut s = make_server(cfg, 1);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 1, &mut ctx);
        ctx.outbox.clear();
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        assert!(s.state.done);
        assert!(ctx.finished);
        let finishes = ctx
            .take_messages()
            .iter()
            .filter(|o| o.msg.kind == MessageKind::Finish)
            .count();
        assert_eq!(finishes, 1);
        assert!(s
            .state
            .finish_reason
            .as_deref()
            .unwrap()
            .contains("round limit"));
    }

    #[test]
    fn duplicate_join_in_does_not_restart_course() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        let outstanding_before = s.state.outstanding.clone();
        // a replayed join-in must not clear the round state
        let m = Message::new(1, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
        s.handle(&m, &mut ctx);
        assert_eq!(s.state.outstanding, outstanding_before);
        assert_eq!(s.state.roster.len(), 2);
    }

    #[test]
    fn duplicate_update_not_double_counted() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        // the same client replying twice must not satisfy all_received
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        assert_eq!(
            s.state.version, 0,
            "duplicate reply must not trigger aggregation"
        );
        s.handle(&update_msg(2, &[3.0, 3.0], 0), &mut ctx);
        assert_eq!(s.state.version, 1);
    }

    #[test]
    fn metrics_reports_recorded() {
        let cfg = FlConfig {
            concurrency: 1,
            total_rounds: 1,
            ..Default::default()
        };
        let mut s = make_server(cfg, 1);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        let m = Message::new(
            1,
            SERVER_ID,
            MessageKind::MetricsReport,
            0,
            Payload::Report {
                metrics: Metrics {
                    loss: 0.3,
                    accuracy: 0.8,
                    n: 10,
                },
            },
        );
        s.handle(&m, &mut ctx);
        assert_eq!(s.state.client_reports.len(), 1);
        assert!((s.state.client_reports[&1].accuracy - 0.8).abs() < 1e-6);
    }

    #[test]
    fn compressed_update_is_decompressed_before_aggregation() {
        let cfg = FlConfig {
            concurrency: 1,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 1);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 1, &mut ctx);
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![2], vec![4.0, -4.0]));
        let block = fs_compress::Identity.compress(&p);
        let m = Message::new(
            1,
            SERVER_ID,
            MessageKind::Updates,
            0,
            Payload::CompressedUpdate {
                block,
                start_version: 0,
                n_samples: 10,
                n_steps: 4,
            },
        );
        s.handle(&m, &mut ctx);
        assert_eq!(s.state.version, 1);
        assert_eq!(s.state.global.get("w").unwrap().data(), &[4.0, -4.0]);
    }

    #[test]
    fn delta_upload_reconstructed_from_history() {
        let cfg = FlConfig {
            concurrency: 1,
            total_rounds: 5,
            compression: crate::config::CompressionConfig {
                upload: Some(crate::config::CodecSpec::Identity),
                upload_delta: true,
                download: None,
            },
            ..Default::default()
        };
        let mut s = make_server(cfg, 1);
        assert!(s.state.track_history);
        assert!(s.state.global_history.contains_key(&0));
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 1, &mut ctx);
        // client-side: delta-encode an update of [5, 7] against global [0, 0]
        let mut codec = fs_compress::DeltaEncode::new(Box::new(fs_compress::Identity));
        codec.set_reference(&s.state.global, 0);
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![2], vec![5.0, 7.0]));
        let block = codec.compress(&p);
        assert!(block.delta);
        let m = Message::new(
            1,
            SERVER_ID,
            MessageKind::Updates,
            0,
            Payload::CompressedUpdate {
                block,
                start_version: 0,
                n_samples: 10,
                n_steps: 4,
            },
        );
        s.handle(&m, &mut ctx);
        assert_eq!(s.state.version, 1);
        assert_eq!(s.state.global.get("w").unwrap().data(), &[5.0, 7.0]);
        // history advanced to the new version and pruned nothing in-tolerance
        assert!(s.state.global_history.contains_key(&1));
    }

    #[test]
    fn delta_upload_with_pruned_reference_is_dropped() {
        let cfg = FlConfig {
            concurrency: 1,
            total_rounds: 100,
            rule: AggregationRule::GoalAchieved { goal: 1 },
            staleness_tolerance: 0,
            compression: crate::config::CompressionConfig {
                upload: Some(crate::config::CodecSpec::Identity),
                upload_delta: true,
                download: None,
            },
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx); // version -> 1, prunes v0
        assert_eq!(s.state.version, 1);
        assert!(!s.state.global_history.contains_key(&0));
        // straggler delta-encoded against the now-pruned version 0
        let mut codec = fs_compress::DeltaEncode::new(Box::new(fs_compress::Identity));
        codec.set_reference(&global(), 0);
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![2], vec![9.0, 9.0]));
        let m = Message::new(
            2,
            SERVER_ID,
            MessageKind::Updates,
            0,
            Payload::CompressedUpdate {
                block: codec.compress(&p),
                start_version: 0,
                n_samples: 10,
                n_steps: 4,
            },
        );
        s.handle(&m, &mut ctx);
        assert_eq!(s.state.ledger.dropped_updates, 1);
        assert_eq!(s.state.version, 1, "dropped update must not aggregate");
    }

    #[test]
    fn download_codec_broadcasts_compressed_models() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            compression: crate::config::CompressionConfig {
                upload: None,
                upload_delta: false,
                download: Some(crate::config::CodecSpec::UniformQuant { bits: 8 }),
            },
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        let blocks: Vec<_> = ctx
            .take_messages()
            .iter()
            .filter(|o| o.msg.kind == MessageKind::ModelParams)
            .map(|o| match &o.msg.payload {
                Payload::CompressedModel { block, version } => {
                    assert_eq!(*version, 0);
                    block.clone()
                }
                other => panic!("expected compressed broadcast, got {other:?}"),
            })
            .collect();
        assert_eq!(blocks.len(), 2);
        // the per-version cache guarantees identical bytes for every recipient
        assert_eq!(blocks[0], blocks[1]);
    }

    #[test]
    fn dropout_of_outstanding_client_completes_round_with_survivors() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        // client 1 replies; all_received still waits for client 2
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        assert_eq!(s.state.version, 0);
        // client 2 dies: the round must aggregate with client 1's update
        s.notify_dropout(2, &mut ctx);
        assert_eq!(s.state.version, 1, "survivors' round must complete");
        assert_eq!(s.state.dropouts, vec![2]);
        assert_eq!(s.state.roster, vec![1]);
    }

    #[test]
    fn dropout_of_whole_cohort_resamples_survivors() {
        let cfg = FlConfig {
            concurrency: 1,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        let sampled = s.state.busy.iter().next().expect("one sampled");
        let survivor = if sampled == 1 { 2 } else { 1 };
        ctx.outbox.clear();
        s.notify_dropout(sampled, &mut ctx);
        // no update was in: the round restarts on the surviving client
        assert_eq!(s.state.version, 0);
        assert!(s.state.busy.contains(&survivor));
        let models = ctx
            .take_messages()
            .iter()
            .filter(|o| o.msg.kind == MessageKind::ModelParams)
            .count();
        assert_eq!(models, 1, "survivor resampled");
    }

    #[test]
    fn dropout_of_every_client_terminates_course() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.notify_dropout(1, &mut ctx);
        s.notify_dropout(2, &mut ctx);
        assert!(s.state.done);
        assert!(s
            .state
            .finish_reason
            .as_deref()
            .unwrap()
            .contains("dropped out"));
    }

    #[test]
    fn dropout_before_start_shrinks_expected_set() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 3);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx); // third expected client never joins
        assert_eq!(s.state.ledger.models_sent, 0, "course waits for client 3");
        s.notify_dropout(3, &mut ctx);
        assert_eq!(s.state.expected_clients, 2);
        assert!(
            s.state.ledger.models_sent > 0,
            "course starts with the joiners"
        );
    }

    #[test]
    fn a_death_during_the_join_phase_is_counted_once() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 4);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        // two notifications for one death, before and after the join
        s.notify_dropout(3, &mut ctx);
        s.notify_dropout(3, &mut ctx);
        s.notify_dropout(1, &mut ctx);
        s.notify_dropout(1, &mut ctx);
        assert_eq!(s.state.dropouts, vec![3, 1]);
        assert_eq!(s.state.expected_clients, 2);
        assert_eq!(s.state.ledger.models_sent, 0, "client 4 is still awaited");
    }

    #[test]
    fn dropout_lowers_goal_to_what_survivors_can_reach() {
        let cfg = FlConfig {
            concurrency: 3,
            total_rounds: 5,
            rule: AggregationRule::GoalAchieved { goal: 3 },
            ..Default::default()
        };
        let mut s = make_server(cfg, 3);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 3, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        s.handle(&update_msg(2, &[1.0, 1.0], 0), &mut ctx);
        assert_eq!(s.state.version, 0, "goal 3 not reached");
        // client 3 dies: effective goal is now 2 and the buffer satisfies it
        s.notify_dropout(3, &mut ctx);
        assert_eq!(s.state.version, 1);
    }

    #[test]
    fn rejoin_voids_in_flight_work_and_readmits() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        // client 2's connection bounced: its in-flight update is gone, but it
        // rejoined fast enough that no dropout fired
        s.notify_rejoin(2, &mut ctx);
        assert_eq!(s.state.version, 1, "round completes without the bounce");
        assert_eq!(s.state.reconnects, 1);
        assert!(s.state.roster.contains(&2), "client 2 still in the course");
        assert!(s.state.dropouts.is_empty());
    }

    #[test]
    fn dropped_client_can_rejoin_the_roster() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        s.notify_dropout(2, &mut ctx);
        assert_eq!(s.state.roster, vec![1]);
        s.notify_rejoin(2, &mut ctx);
        assert_eq!(s.state.roster, vec![1, 2]);
        assert_eq!(s.state.dropouts, vec![2], "history keeps the dropout");
        assert_eq!(s.state.reconnects, 1);
    }

    #[test]
    fn buffered_async_aggregates_every_k_updates() {
        let cfg = FlConfig {
            concurrency: 4,
            total_rounds: 100,
            staleness_tolerance: 8,
            ..Default::default()
        }
        .buffered_async(2);
        let mut s = make_server(cfg, 4);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 4, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        assert_eq!(s.state.version, 0, "buffer below k");
        s.handle(&update_msg(2, &[3.0, 3.0], 0), &mut ctx);
        assert_eq!(s.state.version, 1, "k=2 buffered updates aggregate");
        assert!(s.state.buffer.is_empty(), "whole buffer consumed");
        // next pair triggers the next aggregation, regardless of rounds
        s.handle(&update_msg(3, &[1.0, 1.0], 1), &mut ctx);
        s.handle(&update_msg(4, &[3.0, 3.0], 1), &mut ctx);
        assert_eq!(s.state.version, 2);
    }

    #[test]
    fn tiered_merges_leave_other_tiers_buffered() {
        let cfg = FlConfig {
            concurrency: 4,
            total_rounds: 100,
            staleness_tolerance: 8,
            ..Default::default()
        }
        .tiered(2);
        let mut s = make_server(cfg, 4);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 4, &mut ctx);
        // all four clients sampled; group them by the rule's partition
        // (replies from one tier must not complete the other)
        let tier_of: Vec<(u32, String)> = (1..=4u32)
            .map(|id| {
                let tier = crate::scheduler::tier_of(id, 2, s.state.cfg.seed);
                (id, tier.to_string())
            })
            .collect();
        let (t0, t1): (Vec<_>, Vec<_>) = tier_of.iter().partition(|(_, t)| t == "0");
        if t0.is_empty() || t1.is_empty() {
            // degenerate partition for this seed: nothing to distinguish
            return;
        }
        // complete the smaller tier first
        let (first, rest) = if t0.len() <= t1.len() {
            (&t0, &t1)
        } else {
            (&t1, &t0)
        };
        let before = s.state.version;
        for (id, _) in first.iter() {
            s.handle(&update_msg(*id, &[1.0, 1.0], 0), &mut ctx);
        }
        assert!(
            s.state.version > before,
            "completed tier must merge on its own"
        );
        // the other tier's replies were not consumed by that merge
        for (id, _) in rest.iter() {
            s.handle(&update_msg(*id, &[3.0, 3.0], 0), &mut ctx);
        }
        assert!(s.state.version > before + 1, "second tier merges too");
    }

    #[test]
    fn stale_drop_subcount_tracks_staleness_gate() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 100,
            rule: AggregationRule::GoalAchieved { goal: 1 },
            staleness_tolerance: 0,
            ..Default::default()
        };
        let mut s = make_server(cfg, 2);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 2, &mut ctx);
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx); // agg -> version 1
                                                            // straggler: staleness 1 > tolerance 0 — a stale drop
        s.handle(&update_msg(2, &[9.0, 9.0], 0), &mut ctx);
        assert_eq!(s.state.ledger.dropped_updates, 1);
        assert_eq!(s.state.ledger.stale_drops, 1, "drop was a staleness drop");
    }

    #[test]
    fn over_selection_samples_extra_clients() {
        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            ..Default::default()
        }
        .sync_over_selection(0.5);
        let mut s = make_server(cfg, 4);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        join_all(&mut s, 4, &mut ctx);
        // 2 * 1.5 = 3 clients sampled
        assert_eq!(s.state.busy.len(), 3);
        // goal is concurrency = 2: two fast replies aggregate
        s.handle(&update_msg(1, &[1.0, 1.0], 0), &mut ctx);
        s.handle(&update_msg(2, &[1.0, 1.0], 0), &mut ctx);
        assert_eq!(s.state.version, 1);
    }
}
