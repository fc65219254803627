//! Serverless gossip averaging under virtual time.
//!
//! No server is in the loop: every peer trains on its own data and, each
//! gossip round, pushes its model to a deterministically sampled set of
//! neighbors ([`TopologyPlan::neighbors`]). Because the neighbor schedule is
//! a pure function of `(seed, round, peer)`, every peer can compute everyone
//! else's sends — which is what lets the rounds stay synchronous without any
//! coordinator: a peer merges once it holds its own update plus every inbound
//! model the schedule promises it ([`TopologyPlan::inbound`]).
//!
//! Virtual time follows the standalone protocol: a peer's round cost is its
//! device's `compute + communication`; a merge waits for the slowest inbound
//! sender. Upload codecs apply per sender (one stateful instance each, so
//! error feedback accumulates exactly as in the star course); the receiver
//! merges the *decoded* — possibly lossy — models, while every sender keeps
//! its own lossless copy.
//!
//! Central evaluation is an observer, not a participant: every `eval_every`
//! rounds the uniform average of all peer models is scored on the pooled
//! test set, producing the same learning-curve shape (`EvalRecord`) the
//! server-full runners emit.

use crate::bytes_up_counter;
use crate::router::{check_plan, TopoReport, TopoRunError};
use fs_compress::Compressor;
use fs_core::config::FlConfig;
use fs_core::eval::{EvalRecord, GlobalEvaluator};
use fs_core::runner::{CourseReport, StandaloneRunner};
use fs_core::trainer::Trainer;
use fs_monitor::{counters, MonitorHandle};
use fs_net::wire::payload_wire_len;
use fs_net::{ParticipantId, Payload, TopologyPlan};
use fs_sim::{Fleet, VirtualTime};
use fs_tensor::ParamMap;
use std::collections::BTreeMap;

/// One gossip participant: its trainer, model, codec, and local clock.
struct Peer {
    id: ParticipantId,
    trainer: Box<dyn Trainer>,
    model: ParamMap,
    codec: Option<Box<dyn Compressor>>,
    /// Local virtual clock, seconds.
    clock: f64,
}

/// What one peer shares in a round: its (possibly lossy) model and weight.
struct Share {
    params: ParamMap,
    n_samples: u64,
    /// When the sender's radio finished transmitting.
    sent_at: f64,
}

/// Outcome of a gossip course: the familiar report shape plus per-tier
/// traffic (gossip has a single tier — the peer radio links).
#[derive(Debug)]
pub struct GossipOutcome {
    /// Course summary; `uploaded_bytes` counts all peer-to-peer traffic.
    pub report: CourseReport,
    /// Traffic totals (one level).
    pub topo: TopoReport,
}

/// Runs a serverless gossip course under virtual time.
pub struct GossipRunner {
    /// The realized topology (carries degree and the neighbor schedule).
    pub plan: TopologyPlan,
    /// Device profiles.
    pub fleet: Fleet,
    cfg: FlConfig,
    peers: Vec<Peer>,
    evaluator: Option<GlobalEvaluator>,
    monitor: MonitorHandle,
    rounds: u64,
}

impl GossipRunner {
    /// Dismantles an assembled star course into gossip peers: each client
    /// keeps its trainer and device profile, every peer starts from the same
    /// initial global model, and the server contributes only its evaluator.
    pub fn from_standalone(runner: StandaloneRunner) -> Result<Self, TopoRunError> {
        let server = runner.server;
        let clients = runner.clients;
        let fleet = runner.fleet;
        let cfg = server.state.cfg.clone();
        let plan = TopologyPlan::build(cfg.topology, clients.len(), cfg.seed)?;
        let rounds = match cfg.topology {
            fs_net::Topology::Gossip { rounds, .. } if rounds > 0 => rounds as u64,
            _ => cfg.total_rounds,
        };
        let global = server.state.global.clone();
        let upload = cfg.compression.upload;
        let peers = clients
            .into_values()
            .map(|c| Peer {
                id: c.state.id,
                trainer: c.state.trainer,
                model: global.clone(),
                // delta encoding needs a reference model the receivers don't
                // track in a serverless course; gossip uses the plain codec
                codec: upload.map(fs_core::config::CodecSpec::build),
                clock: 0.0,
            })
            .collect();
        Ok(Self {
            plan,
            fleet,
            cfg,
            peers,
            evaluator: server.state.evaluator,
            monitor: MonitorHandle::null(),
            rounds,
        })
    }

    /// Attaches an observability sink.
    pub fn with_monitor(mut self, monitor: MonitorHandle) -> Self {
        self.monitor = monitor;
        self
    }

    /// Runs the gossip course: train → exchange → merge, round-synchronous.
    pub fn run(&mut self) -> Result<GossipOutcome, TopoRunError> {
        check_plan(self.cfg.verify, &self.plan)?;
        let mut history: Vec<EvalRecord> = Vec::new();
        let mut exchanges = 0u64;
        let mut uploaded_bytes = 0u64;
        let mut msgs = 0u64;
        for r in 0..self.rounds {
            // 1. local training: every peer refines its own model
            let mut shares: BTreeMap<ParticipantId, Share> = BTreeMap::new();
            for peer in self.peers.iter_mut() {
                let update = peer.trainer.local_train(&peer.model, r);
                let profile = self.fleet.profile(peer.id);
                peer.clock += profile.compute_secs(update.examples_processed);
                peer.model = update.params;
                // encode once per round; every neighbor hears the same
                // radio-style broadcast transmission
                let payload = Payload::update(
                    peer.model.clone(),
                    peer.codec.as_deref_mut(),
                    r,
                    update.n_samples,
                    update.n_steps,
                    None,
                );
                let bytes = payload_wire_len(&payload);
                // what the neighbors actually hear: the decoded, possibly
                // lossy reconstruction (the model itself without a codec)
                let shared = payload
                    .as_update()
                    .map_or_else(|| Ok(peer.model.clone()), |u| u.to_params(|_| None))
                    .map_err(|e| {
                        TopoRunError::Edge(crate::edge::EdgeError::Decode {
                            edge: peer.id,
                            sender: peer.id,
                            detail: e.to_string(),
                        })
                    })?;
                let fanout = self.plan.neighbors(r, peer.id).len() as u64;
                let comm = profile.comm_secs(bytes);
                let sent_at = peer.clock + comm;
                peer.clock = sent_at;
                uploaded_bytes += bytes as u64 * fanout;
                msgs += fanout;
                self.monitor.add(counters::MESSAGES_SENT, fanout);
                self.monitor
                    .add(counters::UPLOADED_BYTES, bytes as u64 * fanout);
                self.monitor.add(bytes_up_counter(1), bytes as u64 * fanout);
                shares.insert(
                    peer.id,
                    Share {
                        params: shared,
                        n_samples: update.n_samples,
                        sent_at,
                    },
                );
            }
            // 2. merge: each peer folds in exactly the inbound models the
            // shared schedule promises it, waiting for the slowest sender
            for peer in self.peers.iter_mut() {
                let inbound = self.plan.inbound(r, peer.id);
                let own_weight = peer.trainer.num_train_samples() as u64;
                let mut total = own_weight;
                let mut ready_at = peer.clock;
                for &src in &inbound {
                    if let Some(share) = shares.get(&src) {
                        total += share.n_samples;
                        ready_at = ready_at.max(share.sent_at);
                    }
                }
                let mut merged = peer.model.zeros_like();
                let contributions = 1 + inbound.len();
                let weight_of = |n: u64| {
                    if total > 0 {
                        n as f32 / total as f32
                    } else {
                        1.0 / contributions as f32
                    }
                };
                merged.add_scaled(weight_of(own_weight), &peer.model);
                for &src in &inbound {
                    if let Some(share) = shares.get(&src) {
                        merged.add_scaled(weight_of(share.n_samples), &share.params);
                        exchanges += 1;
                        self.monitor.add(counters::MESSAGES_DELIVERED, 1);
                    }
                }
                peer.model = merged;
                peer.clock = ready_at;
            }
            // 3. central observation of the decentralized consensus
            if let Some(ev) = self.evaluator.as_mut() {
                let round = r + 1;
                if self.cfg.eval_every > 0 && round % self.cfg.eval_every == 0 {
                    let mut avg = match self.peers.first() {
                        Some(p) => p.model.zeros_like(),
                        None => ParamMap::new(),
                    };
                    let w = 1.0 / self.peers.len().max(1) as f32;
                    for peer in &self.peers {
                        avg.add_scaled(w, &peer.model);
                    }
                    let metrics = ev.eval_at(round, &avg);
                    let time_secs = self
                        .peers
                        .iter()
                        .map(|p| p.clock)
                        // fsa::allow(FSA004, max is order-independent for the finite clocks)
                        .fold(0.0f64, f64::max);
                    history.push(EvalRecord {
                        round,
                        time_secs,
                        metrics,
                    });
                    self.monitor
                        .round(round, VirtualTime::from_secs(time_secs), &metrics);
                }
            }
        }
        // fsa::allow(FSA004, max is order-independent for the finite clocks)
        let final_time_secs = self.peers.iter().map(|p| p.clock).fold(0.0f64, f64::max);
        let report = CourseReport {
            final_time_secs,
            rounds: self.rounds,
            history,
            finish_reason: "gossip rounds complete".to_string(),
            total_updates: exchanges,
            uploaded_bytes,
            ..Default::default()
        };
        let topo = TopoReport {
            levels: 1,
            bytes_up: vec![uploaded_bytes],
            bytes_down: vec![0],
            msgs_up: vec![msgs],
            msgs_down: vec![0],
            edge_count: 0,
        };
        Ok(GossipOutcome { report, topo })
    }
}
