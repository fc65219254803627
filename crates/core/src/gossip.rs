//! Serverless gossip averaging, on either clock.
//!
//! No server is in the loop: every peer trains on its own data and, each
//! gossip round, pushes its model to a deterministically sampled set of
//! neighbors ([`TopologyPlan::neighbors`]). Because the neighbor schedule is
//! a pure function of `(seed, round, peer)`, every peer can compute everyone
//! else's sends — which is what lets the rounds stay synchronous without any
//! coordinator: a peer merges once it holds its own update plus every inbound
//! model the schedule promises it ([`TopologyPlan::inbound`]).
//!
//! Both clocks run a `gossip:D` course from their ordinary entry points:
//! [`Runner::try_run`] runs the lockstep loop below under virtual time, and
//! the threaded driver ([`crate::distributed`]) spawns one [`gossip_worker`]
//! per peer and only collects each peer's final model. Either way the
//! course's totals land where a server course's do (the server's round,
//! learning curve, finish reason and update count), so its report is the
//! familiar one, with no effective handlers: none ran.
//!
//! Virtual time follows the standalone protocol: a peer's round cost is its
//! device's `compute + communication`; a merge waits for the slowest inbound
//! sender. Gossip sends no broadcast a device crash could lose, so a fleet's
//! `crash_prob` does not apply. Upload codecs apply per sender (one stateful
//! instance each, so error feedback accumulates exactly as in the star
//! course); the receiver merges the *decoded* — possibly lossy — models,
//! while every sender keeps its own lossless copy.
//!
//! Central evaluation is an observer, not a participant: every `eval_every`
//! rounds (on threads: once, at the end) the uniform average of all peer
//! models is scored on the pooled test set. Under virtual time a score that
//! reaches `target_accuracy` ends the course, as it ends a server course; on
//! threads the one score comes after the last round.

use crate::client::Client;
use crate::config::{CodecSpec, FlConfig};
use crate::ctx::Ctx;
use crate::distributed::{Course, DistributedError, Session, WorkerOutcome};
use crate::eval::EvalRecord;
use crate::runner::{Runner, TopoReport};
use crate::server::{LoopEvent, Server};
use crate::trainer::Trainer;
use crate::transport::{Link, Transport};
use crate::verify::{course_plan, gate, refusal};
use fs_compress::Compressor;
use fs_monitor::{counters, MonitorHandle};
use fs_net::topology::bytes_up_counter;
use fs_net::wire::payload_wire_len;
use fs_net::{Message, MessageKind, ParticipantId, Payload, SendOutcome, TopologyPlan, SERVER_ID};
use fs_sim::VirtualTime;
use fs_tensor::ParamMap;
use fs_verify::{verify_topology_plan, VerifyReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// What a completed gossip course gives as its finish reason.
const COMPLETE: &str = "gossip rounds complete";

/// One gossip participant: its trainer, model, codec, and local clock. Both
/// clocks drive this one peer (the threaded worker leaves the clock alone).
struct Peer {
    id: ParticipantId,
    trainer: Box<dyn Trainer>,
    model: ParamMap,
    codec: Option<Box<dyn Compressor>>,
    /// Local virtual clock, seconds.
    clock: f64,
}

/// What one peer shares in a round, as its neighbors hear it: the decoded —
/// possibly lossy — model and its weight.
struct Share {
    params: ParamMap,
    n_samples: u64,
}

impl Share {
    /// Decodes a shared update payload; `Ok(None)` for any other payload.
    fn decode(payload: &Payload) -> Result<Option<Share>, String> {
        let Some(update) = payload.as_update() else {
            return Ok(None);
        };
        let params = update.to_params(|_| None).map_err(|e| e.to_string())?;
        Ok(Some(Share {
            params,
            n_samples: update.n_samples,
        }))
    }
}

impl Peer {
    /// Trains one round on the peer's own model and encodes the result once —
    /// every neighbor hears the same radio-style broadcast. Returns the
    /// payload to share and the examples processed (the compute charge).
    fn train(&mut self, round: u64) -> (Payload, usize) {
        let update = self.trainer.local_train(&self.model, round);
        self.model = update.params;
        let payload = Payload::update(
            self.model.clone(),
            self.codec.as_deref_mut(),
            round,
            update.n_samples,
            update.n_steps,
            None,
        );
        (payload, update.examples_processed)
    }

    /// Sample-weighted merge of the own model with the shares of `inbound`
    /// (the senders the schedule promises, in schedule order); returns how
    /// many were folded in.
    fn merge(&mut self, inbound: &[ParticipantId], shares: &BTreeMap<ParticipantId, Share>) -> u64 {
        let heard: Vec<&Share> = inbound.iter().filter_map(|src| shares.get(src)).collect();
        let own_weight = self.trainer.num_train_samples() as u64;
        let total = own_weight + heard.iter().map(|s| s.n_samples).sum::<u64>();
        let weight_of = |n: u64| {
            if total > 0 {
                n as f32 / total as f32
            } else {
                1.0 / (1 + inbound.len()) as f32
            }
        };
        let mut merged = self.model.zeros_like();
        merged.add_scaled(weight_of(own_weight), &self.model);
        for share in &heard {
            merged.add_scaled(weight_of(share.n_samples), &share.params);
        }
        self.model = merged;
        heard.len() as u64
    }
}

/// The uniform average of the peers' models — the decentralized consensus a
/// central observer scores. `None` without peers.
fn consensus<'a>(models: impl ExactSizeIterator<Item = &'a ParamMap>) -> Option<ParamMap> {
    let w = 1.0 / models.len() as f32;
    let mut avg: Option<ParamMap> = None;
    for model in models {
        avg.get_or_insert_with(|| model.zeros_like())
            .add_scaled(w, model);
    }
    avg
}

/// A gossip course's plan over `n` peers, gated on its own findings: all
/// the static checking a serverless course has.
pub(crate) fn gossip_plan(cfg: &FlConfig, n: usize) -> Result<TopologyPlan, Box<VerifyReport>> {
    let plan = course_plan(cfg, n).map_err(refusal)?;
    gate(verify_topology_plan(&plan))?;
    Ok(plan)
}

/// The gossip rounds `cfg` asks for: the topology's own count, or the
/// course's `total_rounds` when that is 0.
fn gossip_rounds(cfg: &FlConfig) -> u64 {
    match cfg.topology {
        fs_net::Topology::Gossip { rounds, .. } if rounds > 0 => rounds as u64,
        _ => cfg.total_rounds,
    }
}

/// Dismantles clients into peers: each keeps its trainer, every peer starts
/// from the same initial global model.
fn peers(cfg: &FlConfig, global: &ParamMap, clients: impl Iterator<Item = Client>) -> Vec<Peer> {
    let upload = cfg.compression.upload;
    clients
        .map(|c| Peer {
            id: c.state.id,
            trainer: c.state.trainer,
            model: global.clone(),
            // delta encoding needs a reference model the receivers don't
            // track in a serverless course; gossip uses the plain codec
            codec: upload.map(CodecSpec::build),
            clock: 0.0,
        })
        .collect()
}

impl Runner {
    /// Runs a gossip course over `plan` under virtual time: train →
    /// exchange → merge, round-synchronous, over the runner's own clients,
    /// fleet, evaluator and monitor. Returns its one-level traffic report.
    /// The clients do not go back into the store: their trainers became
    /// the peers.
    pub(crate) fn run_gossip(&mut self, plan: &TopologyPlan) -> TopoReport {
        let cfg = &self.server.state.cfg;
        let (rounds, eval_every) = (gossip_rounds(cfg), cfg.eval_every);
        let target = cfg.target_accuracy;
        let clients = self.clients.ids().into_iter();
        let clients = clients.filter_map(|id| self.clients.take(id).map(|c| *c));
        let mut peers = peers(cfg, &self.server.state.global, clients);
        let mut msgs = 0u64;
        let mut finish = COMPLETE.to_string();
        'rounds: for r in 0..rounds {
            // 1. local training: every peer refines its own model and puts
            // it on the air; `sent_at` is when its radio finished
            let mut shares: BTreeMap<ParticipantId, Share> = BTreeMap::new();
            let mut sent_at: BTreeMap<ParticipantId, f64> = BTreeMap::new();
            for peer in peers.iter_mut() {
                let (payload, examples) = peer.train(r);
                let profile = self.fleet.profile(peer.id);
                let bytes = payload_wire_len(&payload);
                peer.clock += profile.compute_secs(examples);
                peer.clock += profile.comm_secs(bytes);
                sent_at.insert(peer.id, peer.clock);
                // what the neighbors actually hear: the decoded, possibly
                // lossy reconstruction (the model itself without a codec)
                match Share::decode(&payload) {
                    Ok(share) => shares.extend(share.map(|s| (peer.id, s))),
                    Err(detail) => {
                        finish = format!(
                            "peer {}'s shared update failed to decode: {detail}",
                            peer.id
                        );
                        break 'rounds;
                    }
                }
                let fanout = plan.neighbors(r, peer.id).len() as u64;
                let sent = bytes as u64 * fanout;
                self.uploaded_bytes += sent;
                msgs += fanout;
                self.monitor.add(counters::MESSAGES_SENT, fanout);
                self.monitor.add(counters::UPLOADED_BYTES, sent);
                self.monitor.add(bytes_up_counter(1), sent);
            }
            // 2. merge: each peer folds in exactly the inbound models the
            // shared schedule promises it, waiting for the slowest sender
            let state = &mut self.server.state;
            for peer in peers.iter_mut() {
                let inbound = plan.inbound(r, peer.id);
                let merged = peer.merge(&inbound, &shares);
                state.ledger.total_updates += merged;
                self.monitor.add(counters::MESSAGES_DELIVERED, merged);
                let arrivals = inbound.iter().filter_map(|src| sent_at.get(src));
                peer.clock = arrivals.fold(peer.clock, |at, &sent| at.max(sent));
            }
            // 3. central observation of the decentralized consensus
            state.round = r + 1;
            self.now = VirtualTime::from_secs(latest(&peers));
            let due = eval_every > 0 && state.round.is_multiple_of(eval_every);
            if let Some(ev) = state.evaluator.as_mut().filter(|_| due) {
                if let Some(avg) = consensus(peers.iter().map(|p| &p.model)) {
                    let metrics = ev.eval(&avg);
                    let (round, time_secs) = (state.round, self.now.as_secs());
                    state.history.push(EvalRecord {
                        round,
                        time_secs,
                        metrics,
                    });
                    self.monitor.round(round, self.now, &metrics);
                    // the server's stop check, on the consensus
                    if let Some(t) = target.filter(|&t| metrics.accuracy >= t) {
                        finish = format!("target accuracy {t} reached at round {round}");
                        break 'rounds;
                    }
                }
            }
        }
        self.server.state.finish_reason = Some(finish);
        TopoReport {
            levels: 1,
            bytes_up: vec![self.uploaded_bytes],
            bytes_down: vec![0],
            msgs_up: vec![msgs],
            msgs_down: vec![0],
            edge_count: 0,
        }
    }
}

/// The latest local clock: the course's virtual time so far.
fn latest(peers: &[Peer]) -> f64 {
    // max is order-independent for the finite clocks
    peers.iter().map(|p| p.clock).fold(0.0f64, f64::max)
}

/// The harness's side of a threaded gossip course: collect every peer's
/// final model.
struct Finals {
    expected: usize,
    models: BTreeMap<ParticipantId, ParamMap>,
}

impl Course for Finals {
    fn step(&mut self, event: LoopEvent, _ctx: &mut Ctx) -> Result<(), DistributedError> {
        match event {
            LoopEvent::Message(msg) => {
                if let Payload::Update { params, .. } = msg.payload {
                    self.models.insert(msg.sender, params);
                }
            }
            // `Closed` trails every frame the peer sent the harness, so a
            // missing final here is a real death
            LoopEvent::Closed(id) if !self.models.contains_key(&id) => {
                return Err(DistributedError::PeerDisconnected(id));
            }
            LoopEvent::Died(id) => return Err(DistributedError::PeerDisconnected(id)),
            _ => {}
        }
        Ok(())
    }

    fn complete(&self) -> bool {
        self.models.len() == self.expected
    }
}

/// Runs a gossip course on threads over `transport`: peers exchange models
/// directly; the harness only collects the final models, scores their
/// consensus once with the server's evaluator, and records the course in
/// the server's state.
///
/// Gossip has no dropout policy and no retransmission — a share lost to an
/// outage stalls its receiver for good — so a transport with a fault plan or
/// a reconnect policy is refused before any thread is spawned.
pub(crate) fn drive_gossip<T: Transport>(
    mut server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    transport: T,
) -> Result<Server, DistributedError> {
    if !transport.lossless() {
        let what = "gossip over a transport with fault injection or reconnect";
        return Err(DistributedError::Unsupported(what.to_string()));
    }
    let state = &mut server.state;
    let plan = Arc::new(gossip_plan(&state.cfg, clients.len())?);
    let rounds = gossip_rounds(&state.cfg);
    let ids: Vec<ParticipantId> = clients.iter().map(|c| c.state.id).collect();
    let mut session = Session::open(transport, &ids, wall_budget)?;
    let monitor = session.monitor.clone();
    for peer in peers(&state.cfg, &state.global, clients.into_iter()) {
        let (plan, monitor) = (Arc::clone(&plan), monitor.clone());
        session.spawn(peer.id, true, move |link| {
            gossip_worker(peer, &plan, rounds, link, monitor)
        })?;
    }
    let mut finals = Finals {
        expected: ids.len(),
        models: BTreeMap::new(),
    };
    session.run(&mut finals, &[])?;
    let due = state.cfg.eval_every > 0;
    if let Some(ev) = state.evaluator.as_mut().filter(|_| due) {
        if let Some(avg) = consensus(finals.models.values()) {
            let metrics = ev.eval(&avg);
            state.history.push(EvalRecord {
                round: rounds,
                time_secs: 0.0,
                metrics,
            });
            monitor.round(rounds, VirtualTime::ZERO, &metrics);
        }
    }
    state.round = rounds;
    state.ledger.total_updates = finals.models.len() as u64;
    state.finish_reason = Some(COMPLETE.to_string());
    Ok(server)
}

/// The final frame: the peer's model, shipped to the harness for the central
/// observation of the decentralized consensus.
fn final_report(peer: &Peer, rounds: u64) -> Message {
    let payload = Payload::Update {
        params: peer.model.clone(),
        start_version: rounds,
        n_samples: peer.trainer.num_train_samples() as u64,
        n_steps: 0,
    };
    Message::new(peer.id, SERVER_ID, MessageKind::Updates, rounds, payload)
}

/// One threaded peer: train, share with the round's neighbors, buffer
/// inbound shares by round until every one the schedule promises has arrived,
/// merge — then ship the final model.
fn gossip_worker(
    mut peer: Peer,
    plan: &TopologyPlan,
    rounds: u64,
    link: &mut dyn Link,
    monitor: MonitorHandle,
) -> Result<WorkerOutcome, DistributedError> {
    let mut buffer: BTreeMap<u64, BTreeMap<ParticipantId, Share>> = BTreeMap::new();
    for r in 0..rounds {
        let (payload, _examples) = peer.train(r);
        let neighbors = plan.neighbors(r, peer.id);
        let bytes = payload_wire_len(&payload) as u64;
        monitor.add(bytes_up_counter(1), bytes * neighbors.len() as u64);
        for nb in neighbors {
            // a neighbor past its last round provably no longer needs this
            // share: the link reports that frame `Dropped`
            let msg = Message::new(peer.id, nb, MessageKind::Updates, r, payload.clone());
            if link.send(&msg)? == SendOutcome::Disconnected {
                return Ok(WorkerOutcome::Disconnected);
            }
        }
        let inbound = plan.inbound(r, peer.id);
        let heard = |shares: Option<&BTreeMap<_, _>>| {
            inbound
                .iter()
                .all(|src| shares.is_some_and(|m| m.contains_key(src)))
        };
        while !heard(buffer.get(&r)) {
            let Some(msg) = link.recv()? else {
                return Ok(WorkerOutcome::Disconnected);
            };
            if msg.kind != MessageKind::Updates {
                continue;
            }
            if let Some(share) = Share::decode(&msg.payload).map_err(DistributedError::Codec)? {
                buffer
                    .entry(msg.round)
                    .or_default()
                    .insert(msg.sender, share);
            }
        }
        peer.merge(&inbound, &buffer.remove(&r).unwrap_or_default());
    }
    if link.send(&final_report(&peer, rounds))? == SendOutcome::Disconnected {
        return Ok(WorkerOutcome::Disconnected);
    }
    Ok(WorkerOutcome::Finished)
}
