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
use crate::course::TopoRunError;
use fs_compress::Compressor;
use fs_core::config::FlConfig;
use fs_core::eval::{EvalRecord, GlobalEvaluator};
use fs_core::runner::{CourseReport, StandaloneRunner, TopoReport};
use fs_core::trainer::Trainer;
use fs_monitor::{counters, MonitorHandle};
use fs_net::wire::payload_wire_len;
use fs_net::{ParticipantId, Payload, TopologyPlan};
use fs_sim::{Fleet, VirtualTime};
use fs_tensor::ParamMap;
use fs_verify::verify_topology_plan;
use std::collections::BTreeMap;

/// One gossip participant: its trainer, model, codec, and local clock. Both
/// runners drive this one peer — virtual time here, real threads in
/// [`crate::distributed`] (which leaves the clock alone).
pub(crate) struct Peer {
    pub(crate) id: ParticipantId,
    pub(crate) trainer: Box<dyn Trainer>,
    pub(crate) model: ParamMap,
    codec: Option<Box<dyn Compressor>>,
    /// Local virtual clock, seconds.
    clock: f64,
}

/// What one peer shares in a round, as its neighbors hear it: the decoded —
/// possibly lossy — model and its weight.
pub(crate) struct Share {
    params: ParamMap,
    n_samples: u64,
}

impl Share {
    /// Decodes a shared update payload; `Ok(None)` for any other payload.
    pub(crate) fn decode(payload: &Payload) -> Result<Option<Share>, String> {
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
    pub(crate) fn train(&mut self, round: u64) -> (Payload, usize) {
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
    pub(crate) fn merge(
        &mut self,
        inbound: &[ParticipantId],
        shares: &BTreeMap<ParticipantId, Share>,
    ) -> u64 {
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
pub(crate) fn consensus<'a>(
    models: impl ExactSizeIterator<Item = &'a ParamMap>,
) -> Option<ParamMap> {
    let w = 1.0 / models.len() as f32;
    let mut avg: Option<ParamMap> = None;
    for model in models {
        avg.get_or_insert_with(|| model.zeros_like())
            .add_scaled(w, model);
    }
    avg
}

/// Verifies a realized plan on its own — all the static checking a
/// serverless (gossip) course has.
pub(crate) fn check_plan(plan: &TopologyPlan) -> Result<(), TopoRunError> {
    fs_core::verify::gate(verify_topology_plan(plan)).map_err(TopoRunError::Verification)
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

/// A gossip course: the peers a star course was dismantled into, run under
/// virtual time by [`GossipRunner::run`] or handed to the threaded runner.
pub struct GossipRunner {
    /// The realized topology (carries degree and the neighbor schedule).
    pub plan: TopologyPlan,
    /// Device profiles.
    pub fleet: Fleet,
    pub(crate) cfg: FlConfig,
    pub(crate) peers: Vec<Peer>,
    pub(crate) evaluator: Option<GlobalEvaluator>,
    monitor: MonitorHandle,
    pub(crate) rounds: u64,
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
        let plan = TopologyPlan::build(cfg.topology, clients.ids().len(), cfg.seed)?;
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
        check_plan(&self.plan)?;
        let mut history: Vec<EvalRecord> = Vec::new();
        let mut exchanges = 0u64;
        let mut uploaded_bytes = 0u64;
        let mut msgs = 0u64;
        for r in 0..self.rounds {
            // 1. local training: every peer refines its own model and puts
            // it on the air; `sent_at` is when its radio finished
            let mut shares: BTreeMap<ParticipantId, Share> = BTreeMap::new();
            let mut sent_at: BTreeMap<ParticipantId, f64> = BTreeMap::new();
            for peer in self.peers.iter_mut() {
                let (payload, examples) = peer.train(r);
                let profile = self.fleet.profile(peer.id);
                let bytes = payload_wire_len(&payload);
                peer.clock += profile.compute_secs(examples);
                peer.clock += profile.comm_secs(bytes);
                sent_at.insert(peer.id, peer.clock);
                // what the neighbors actually hear: the decoded, possibly
                // lossy reconstruction (the model itself without a codec)
                let share = Share::decode(&payload).map_err(|detail| TopoRunError::Decode {
                    peer: peer.id,
                    detail,
                })?;
                if let Some(share) = share {
                    shares.insert(peer.id, share);
                }
                let fanout = self.plan.neighbors(r, peer.id).len() as u64;
                uploaded_bytes += bytes as u64 * fanout;
                msgs += fanout;
                self.monitor.add(counters::MESSAGES_SENT, fanout);
                self.monitor
                    .add(counters::UPLOADED_BYTES, bytes as u64 * fanout);
                self.monitor.add(bytes_up_counter(1), bytes as u64 * fanout);
            }
            // 2. merge: each peer folds in exactly the inbound models the
            // shared schedule promises it, waiting for the slowest sender
            for peer in self.peers.iter_mut() {
                let inbound = self.plan.inbound(r, peer.id);
                let merged = peer.merge(&inbound, &shares);
                exchanges += merged;
                self.monitor.add(counters::MESSAGES_DELIVERED, merged);
                let arrivals = inbound.iter().filter_map(|src| sent_at.get(src));
                peer.clock = arrivals.fold(peer.clock, |at, &sent| at.max(sent));
            }
            // 3. central observation of the decentralized consensus
            let round = r + 1;
            let due = self.cfg.eval_every > 0 && round % self.cfg.eval_every == 0;
            if let Some(ev) = self.evaluator.as_mut().filter(|_| due) {
                if let Some(avg) = consensus(self.peers.iter().map(|p| &p.model)) {
                    let metrics = ev.eval(&avg);
                    let time_secs = latest(&self.peers);
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
        let report = CourseReport {
            final_time_secs: latest(&self.peers),
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

/// The latest local clock: the course's virtual time so far.
fn latest(peers: &[Peer]) -> f64 {
    // max is order-independent for the finite clocks
    peers.iter().map(|p| p.clock).fold(0.0f64, f64::max)
}
