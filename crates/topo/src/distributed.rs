//! Gossip on real threads: the serverless shape over the distributed seam.
//!
//! Star and hierarchical courses run through `fs_core::distributed` — one
//! server loop routed by the course's `TopologyPlan`. A gossip course has no
//! server, so it brings its own [`Course`]: peers exchange models directly
//! over the same [`Transport`]s (the bus delivers peer frames, the TCP port
//! forwards them), and the harness only collects each peer's final model for
//! one central evaluation of the consensus.

use crate::bytes_up_counter;
use crate::router::{check_plan, TopoRunError};
use fs_compress::Compressor;
use fs_core::distributed::{
    Course, DistributedError, Link, LoopEvent, ServerPort, Session, Transport, WorkerOutcome,
};
use fs_core::eval::EvalRecord;
use fs_core::runner::{CourseReport, StandaloneRunner};
use fs_core::trainer::Trainer;
use fs_monitor::MonitorHandle;
use fs_net::wire::payload_wire_len;
use fs_net::{Message, MessageKind, ParticipantId, Payload, SendOutcome, TopologyPlan, SERVER_ID};
use fs_sim::VirtualTime;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One gossip participant's threaded state: train, share, buffer, merge.
struct GossipPeer {
    id: ParticipantId,
    trainer: Box<dyn Trainer>,
    model: fs_tensor::ParamMap,
    codec: Option<Box<dyn Compressor>>,
    plan: Arc<TopologyPlan>,
    /// Inbound models buffered by round: sender → (params, n_samples).
    buffer: BTreeMap<u64, BTreeMap<ParticipantId, (fs_tensor::ParamMap, u64)>>,
}

impl GossipPeer {
    /// Trains one round and returns the payload to share plus the neighbor
    /// sample. Compressed payloads are decoded back locally so the sender
    /// buffers exactly what its neighbors will hear.
    fn train(&mut self, round: u64) -> (Payload, Vec<ParticipantId>) {
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
        (payload, self.plan.neighbors(round, self.id))
    }

    /// Buffers an inbound share (decoding a compressed one).
    fn absorb(&mut self, msg: Message) -> Result<(), String> {
        let Some(update) = msg.payload.as_update() else {
            return Ok(()); // not a model share — ignore
        };
        let params = update.to_params(|_| None).map_err(|e| e.to_string())?;
        let n_samples = update.n_samples;
        self.buffer
            .entry(msg.round)
            .or_default()
            .insert(msg.sender, (params, n_samples));
        Ok(())
    }

    /// Whether every share the schedule promises for `round` has arrived.
    fn ready(&self, round: u64) -> bool {
        let have = self.buffer.get(&round);
        self.plan
            .inbound(round, self.id)
            .iter()
            .all(|src| have.is_some_and(|m| m.contains_key(src)))
    }

    /// Sample-weighted merge of the own model with the round's inbound
    /// shares (the standalone gossip runner's arithmetic).
    fn merge(&mut self, round: u64) {
        let inbound = self.plan.inbound(round, self.id);
        let shares = self.buffer.remove(&round).unwrap_or_default();
        let own_weight = self.trainer.num_train_samples() as u64;
        let mut total = own_weight;
        for src in &inbound {
            if let Some((_, n)) = shares.get(src) {
                total += *n;
            }
        }
        let contributions = 1 + inbound.len();
        let weight_of = |n: u64| {
            if total > 0 {
                n as f32 / total as f32
            } else {
                1.0 / contributions as f32
            }
        };
        let mut merged = self.model.zeros_like();
        merged.add_scaled(weight_of(own_weight), &self.model);
        for src in &inbound {
            if let Some((params, n)) = shares.get(src) {
                merged.add_scaled(weight_of(*n), params);
            }
        }
        self.model = merged;
    }

    /// The final frame: the peer's model, shipped to the harness for the
    /// central observation of the decentralized consensus.
    fn final_report(&self, rounds: u64) -> Message {
        Message::new(
            self.id,
            SERVER_ID,
            MessageKind::Updates,
            rounds,
            Payload::Update {
                params: self.model.clone(),
                start_version: rounds,
                n_samples: self.trainer.num_train_samples() as u64,
                n_steps: 0,
            },
        )
    }
}

/// Shared post-run assembly: uniform-average the final models, score them
/// centrally once, and shape the familiar report.
fn gossip_report(
    finals: BTreeMap<ParticipantId, fs_tensor::ParamMap>,
    evaluator: &mut Option<fs_core::eval::GlobalEvaluator>,
    rounds: u64,
    eval_every: u64,
    monitor: &MonitorHandle,
) -> CourseReport {
    let n = finals.len();
    let mut history: Vec<EvalRecord> = Vec::new();
    if let Some(ev) = evaluator.as_mut() {
        if eval_every > 0 && n > 0 {
            let mut avg = None;
            let w = 1.0 / n as f32;
            for params in finals.values() {
                let acc = avg.get_or_insert_with(|| params.zeros_like());
                acc.add_scaled(w, params);
            }
            if let Some(avg) = avg {
                let metrics = ev.eval_at(rounds, &avg);
                history.push(EvalRecord {
                    round: rounds,
                    time_secs: 0.0,
                    metrics,
                });
                monitor.round(rounds, VirtualTime::ZERO, &metrics);
            }
        }
    }
    CourseReport {
        rounds,
        history,
        finish_reason: "gossip rounds complete".to_string(),
        total_updates: n as u64,
        ..Default::default()
    }
}

/// What [`gossip_parts`] extracts from a star course: the peers, the round
/// count, the eval cadence, and the server's evaluator.
type GossipParts = (
    Vec<GossipPeer>,
    u64,
    u64,
    Option<fs_core::eval::GlobalEvaluator>,
);

/// Dismantles an assembled star course into threaded gossip peers.
fn gossip_parts(runner: StandaloneRunner) -> Result<GossipParts, TopoRunError> {
    let server = runner.server;
    let clients = runner.clients;
    let cfg = server.state.cfg.clone();
    let plan = Arc::new(TopologyPlan::build(cfg.topology, clients.len(), cfg.seed)?);
    check_plan(cfg.verify, &plan)?;
    let rounds = match cfg.topology {
        fs_net::Topology::Gossip { rounds, .. } if rounds > 0 => rounds as u64,
        _ => cfg.total_rounds,
    };
    let global = server.state.global.clone();
    let upload = cfg.compression.upload;
    let peers = clients
        .into_values()
        .map(|c| GossipPeer {
            id: c.state.id,
            trainer: c.state.trainer,
            model: global.clone(),
            codec: upload.map(fs_core::config::CodecSpec::build),
            plan: Arc::clone(&plan),
            buffer: BTreeMap::new(),
        })
        .collect();
    Ok((peers, rounds, cfg.eval_every, server.state.evaluator))
}

/// The harness's side of a gossip course: collect every peer's final model.
struct Finals {
    expected: usize,
    models: BTreeMap<ParticipantId, fs_tensor::ParamMap>,
}

impl Course for Finals {
    fn step(
        &mut self,
        event: LoopEvent,
        _now: Instant,
        _port: &mut dyn ServerPort,
    ) -> Result<(), DistributedError> {
        match event {
            LoopEvent::Message(msg) => {
                if let Payload::Update { params, .. } = msg.payload {
                    self.models.insert(msg.sender, params);
                }
            }
            LoopEvent::Exit(id, outcome) => {
                if !outcome.settled(id)? {
                    return Err(DistributedError::PeerDisconnected(id));
                }
            }
            // `Closed` trails every frame the peer sent the harness, so a
            // missing final here is a real death
            LoopEvent::Closed(id) if !self.models.contains_key(&id) => {
                return Err(DistributedError::PeerDisconnected(id));
            }
            LoopEvent::Codec(detail) => return Err(DistributedError::Codec(detail)),
            LoopEvent::Closed(_) | LoopEvent::Rejoined(_) | LoopEvent::Idle => {}
        }
        Ok(())
    }

    fn complete(&self) -> bool {
        self.models.len() == self.expected
    }
}

/// Runs a serverless gossip course on threads over `transport` (pass
/// `BusRunOptions` or `TcpRunOptions`): peers exchange models directly; the
/// harness only collects the final models for one central evaluation.
///
/// Gossip has no dropout policy and no retransmission — a share lost to an
/// outage stalls its receiver for good — so a transport with a fault plan or
/// a reconnect policy is refused before any thread is spawned.
pub fn run_gossip_distributed<T: Transport>(
    runner: StandaloneRunner,
    wall_budget: Duration,
    transport: T,
) -> Result<CourseReport, TopoRunError> {
    if !transport.lossless() {
        let what = "gossip over a transport with fault injection or reconnect";
        return Err(DistributedError::Unsupported(what.to_string()).into());
    }
    let (peers, rounds, eval_every, mut evaluator) = gossip_parts(runner)?;
    let ids: Vec<ParticipantId> = peers.iter().map(|p| p.id).collect();
    let mut session = Session::open(transport, &ids, wall_budget)?;
    let monitor = session.monitor.clone();
    let mut finals = Finals {
        expected: peers.len(),
        models: BTreeMap::new(),
    };
    for peer in peers {
        let monitor = monitor.clone();
        session.spawn(peer.id, true, move |link| {
            gossip_worker(peer, rounds, link, monitor)
        })?;
    }
    session.run(&mut finals)?;
    Ok(gossip_report(
        finals.models,
        &mut evaluator,
        rounds,
        eval_every,
        &monitor,
    ))
}

fn gossip_worker(
    mut peer: GossipPeer,
    rounds: u64,
    link: &mut dyn Link,
    monitor: MonitorHandle,
) -> Result<WorkerOutcome, DistributedError> {
    for r in 0..rounds {
        let (payload, neighbors) = peer.train(r);
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
        while !peer.ready(r) {
            let Some(msg) = link.recv()? else {
                return Ok(WorkerOutcome::Disconnected);
            };
            if msg.kind == MessageKind::Updates {
                peer.absorb(msg).map_err(DistributedError::Codec)?;
            }
        }
        peer.merge(r);
    }
    if link.send(&peer.final_report(rounds))? == SendOutcome::Disconnected {
        return Ok(WorkerOutcome::Disconnected);
    }
    Ok(WorkerOutcome::Finished)
}
