//! Gossip on real threads: the serverless shape over the distributed seam.
//!
//! Star and hierarchical courses run through `fs_core::distributed` — one
//! server loop routed by the course's `TopologyPlan`. A gossip course has no
//! server, so it brings its own [`Course`]: peers exchange models directly
//! over the same [`Transport`]s (the bus delivers peer frames, the TCP port
//! forwards them), and the harness only collects each peer's final model for
//! one central evaluation of the consensus.

use crate::bytes_up_counter;
use crate::course::TopoRunError;
use crate::gossip::{check_plan, consensus, GossipRunner, Peer, Share};
use fs_core::distributed::{
    Course, DistributedError, Link, LoopEvent, ServerPort, Session, Transport, WorkerOutcome,
};
use fs_core::eval::{EvalRecord, GlobalEvaluator};
use fs_core::runner::{CourseReport, StandaloneRunner};
use fs_monitor::MonitorHandle;
use fs_net::wire::payload_wire_len;
use fs_net::{Message, MessageKind, ParticipantId, Payload, SendOutcome, TopologyPlan, SERVER_ID};
use fs_sim::VirtualTime;
use fs_tensor::ParamMap;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

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

/// Post-run assembly: score the consensus of the final models centrally,
/// once, and shape the familiar report.
fn gossip_report(
    finals: BTreeMap<ParticipantId, ParamMap>,
    evaluator: Option<GlobalEvaluator>,
    rounds: u64,
    eval_every: u64,
    monitor: &MonitorHandle,
) -> CourseReport {
    let mut history: Vec<EvalRecord> = Vec::new();
    if let Some(mut ev) = evaluator.filter(|_| eval_every > 0) {
        if let Some(avg) = consensus(finals.values()) {
            let metrics = ev.eval(&avg);
            history.push(EvalRecord {
                round: rounds,
                time_secs: 0.0,
                metrics,
            });
            monitor.round(rounds, VirtualTime::ZERO, &metrics);
        }
    }
    CourseReport {
        rounds,
        history,
        finish_reason: "gossip rounds complete".to_string(),
        total_updates: finals.len() as u64,
        ..Default::default()
    }
}

/// The harness's side of a gossip course: collect every peer's final model.
struct Finals {
    expected: usize,
    models: BTreeMap<ParticipantId, ParamMap>,
}

impl Course for Finals {
    fn step(
        &mut self,
        event: LoopEvent,
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
            LoopEvent::Closed(_) | LoopEvent::Rejoined(_) => {}
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
    let course = GossipRunner::from_standalone(runner)?;
    check_plan(&course.plan)?;
    let (rounds, plan) = (course.rounds, Arc::new(course.plan));
    let ids: Vec<ParticipantId> = course.peers.iter().map(|p| p.id).collect();
    let mut session = Session::open(transport, &ids, wall_budget)?;
    let monitor = session.monitor.clone();
    let mut finals = Finals {
        expected: ids.len(),
        models: BTreeMap::new(),
    };
    for peer in course.peers {
        let (plan, monitor) = (Arc::clone(&plan), monitor.clone());
        session.spawn(peer.id, true, move |link| {
            gossip_worker(peer, &plan, rounds, link, monitor)
        })?;
    }
    session.run(&mut finals)?;
    Ok(gossip_report(
        finals.models,
        course.evaluator,
        rounds,
        course.cfg.eval_every,
        &monitor,
    ))
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
