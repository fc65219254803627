//! Distributed topology courses: the same shapes on real threads.
//!
//! The standalone [`crate::router::TreeRouter`] charges virtual time and
//! per-hop encoded bytes; this module re-routes the *distributed* runners
//! (fs-core's threads-over-bus and threads-over-TCP) through the tree:
//!
//! * **Clients** run unchanged worker loops, but every message bound for
//!   `SERVER_ID` is re-addressed to the client's parent edge — the upload
//!   path genuinely climbs the tree hop by hop.
//! * **Edges** are relay threads: each upstream frame is forwarded to the
//!   edge's own parent (lossless relay — the server still sees every
//!   client's update individually, so aggregation semantics are exactly the
//!   star's). Partial edge aggregation is a virtual-time concern: the
//!   standalone runner performs it where per-hop byte charging is
//!   meaningful; the distributed runners exercise routing and failover.
//! * **Downloads** go point-to-point (server → client): with lossless
//!   relays an edge adds nothing to a broadcast, and real deployments
//!   routinely have asymmetric routes.
//!
//! # Failover
//!
//! Edge aggregators fail like clients do. On TCP an edge is a
//! [`ResilientPeer`]: when its link dies and a [`ReconnectPolicy`] is set,
//! it re-enters through the generation-stamped rejoin handshake and the
//! server re-arms its whole subtree ([`Server::notify_rejoin`] per subtree
//! client) — no client leaves the roster, so `DropoutPolicy` semantics are
//! preserved. When an edge is gone for good (no policy, or retries spent),
//! the server *re-homes* the orphan subtree: every direct child is told its
//! new parent with a [`REHOME`] control frame and each subtree client is
//! re-armed. Client dropouts themselves follow the configured
//! [`fs_core::config::DropoutPolicy`] exactly as in `fs-core`.
//!
//! [`ResilientPeer`]: fs_net::tcp::ResilientPeer
//! [`ReconnectPolicy`]: fs_net::tcp::ReconnectPolicy
//! [`Server::notify_rejoin`]: fs_core::server::Server::notify_rejoin

use crate::router::{check_plan, TopoRunError};
use crate::{bytes_down_counter, bytes_up_counter};
use fs_compress::{decompress, Compressor};
use fs_core::client::Client;
use fs_core::ctx::Ctx;
use fs_core::distributed::{
    apply_dropout, panic_detail, BusRunOptions, Completion, DistributedError, TcpRunOptions,
};
use fs_core::eval::EvalRecord;
use fs_core::runner::{CourseReport, StandaloneRunner};
use fs_core::server::Server;
use fs_core::trainer::Trainer;
use fs_monitor::MonitorHandle;
use fs_net::bus::{Bus, BusError, Mailbox};
use fs_net::fault::{FaultState, FaultyBus};
use fs_net::tcp::{HubEvent, ReconnectPolicy, ResilientPeer, TcpError, TcpHub};
use fs_net::wire::payload_wire_len;
use fs_net::{Message, MessageKind, ParticipantId, Payload, SendOutcome, TopologyPlan, SERVER_ID};
use fs_sim::VirtualTime;
use fs_verify::verify_topology_plan;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First frame an edge (or gossip peer) sends a TCP hub, so the connection
/// registers under its own id — relayed frames keep the *original* sender,
/// which must never re-key the connection.
pub const EDGE_HELLO: MessageKind = MessageKind::Custom(0x70);

/// Server → participant control frame: "your upstream parent is now the id
/// in the payload". Sent when an edge is gone for good.
pub const REHOME: MessageKind = MessageKind::Custom(0x71);

/// Server → edge control frame: the course is over, exit the relay loop.
pub const EDGE_SHUTDOWN: MessageKind = MessageKind::Custom(0x72);

/// How long an empty server mailbox must stay empty before a finished
/// worker's missing report is declared lost. Unlike the flat bus (where the
/// report is enqueued synchronously before the worker exits), a relayed
/// report can legitimately sit inside a live edge thread for a moment.
const RELAY_GRACE: Duration = Duration::from_millis(250);

fn rehome_msg(to: ParticipantId, new_parent: ParticipantId) -> Message {
    Message::new(
        SERVER_ID,
        to,
        REHOME,
        0,
        Payload::Bytes(new_parent.to_le_bytes().to_vec()),
    )
}

/// Decodes a [`REHOME`] frame's new-parent id; `None` for any other frame.
fn rehome_target(msg: &Message) -> Option<ParticipantId> {
    if msg.kind != REHOME {
        return None;
    }
    match &msg.payload {
        Payload::Bytes(b) if b.len() == 4 => {
            Some(ParticipantId::from_le_bytes([b[0], b[1], b[2], b[3]]))
        }
        _ => None,
    }
}

fn shutdown_msg(edge: ParticipantId) -> Message {
    Message::new(SERVER_ID, edge, EDGE_SHUTDOWN, 0, Payload::Empty)
}

/// Why a worker thread stopped (mirrors the fs-core distributed runner).
#[derive(Debug)]
enum WorkerOutcome {
    /// Clean end: a client received Finish, an edge received [`EDGE_SHUTDOWN`].
    Finished,
    /// Its (possibly fault-injected) link died for good.
    Disconnected,
    /// A handler panicked.
    Panicked(String),
    /// A transport operation failed terminally.
    Transport(String),
}

/// One worker's exit report, delivered on the control channel.
struct WorkerExit {
    id: ParticipantId,
    outcome: WorkerOutcome,
}

fn fold_outcome<E: std::fmt::Display>(
    result: std::thread::Result<Result<WorkerOutcome, E>>,
) -> WorkerOutcome {
    match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => WorkerOutcome::Transport(e.to_string()),
        Err(payload) => WorkerOutcome::Panicked(panic_detail(payload)),
    }
}

/// Realizes the configured topology and statically verifies the assembled
/// course together with the plan, before any thread is spawned.
fn verified_plan(server: &Server, clients: &[Client]) -> Result<TopologyPlan, TopoRunError> {
    let cfg = &server.state.cfg;
    let plan = TopologyPlan::build(cfg.topology, clients.len(), cfg.seed)?;
    fs_core::preflight(
        server,
        &fs_core::verify::singleton_groups(clients),
        verify_topology_plan(&plan).diagnostics,
    )
    .map_err(DistributedError::Verification)?;
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Hierarchical: bus backend
// ---------------------------------------------------------------------------

/// Runs a hierarchical course over threads and the in-process bus.
pub fn run_hier_distributed(
    server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
) -> Result<Server, TopoRunError> {
    run_hier_distributed_with(server, clients, wall_budget, BusRunOptions::default())
}

/// [`run_hier_distributed`] with fault injection and observability options.
pub fn run_hier_distributed_with(
    mut server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    opts: BusRunOptions,
) -> Result<Server, TopoRunError> {
    if server.state.cfg.scheduler_uses_timer() {
        return Err(DistributedError::UnsupportedRule("time_up").into());
    }
    let plan = verified_plan(&server, &clients)?;
    if plan.edges.is_empty() {
        // a star in disguise: the flat runner already does everything
        return fs_core::distributed::run_distributed_with(server, clients, wall_budget, opts)
            .map_err(Into::into);
    }
    let fault_plan = opts.faults.unwrap_or_default();
    let mut bus = Bus::new();
    let server_mb = bus.register(SERVER_ID);
    // register every mailbox BEFORE any thread clones the bus (clones
    // snapshot the sender map)
    let mailboxes: Vec<Mailbox> = clients.iter().map(|c| bus.register(c.state.id)).collect();
    let edge_mbs: Vec<(ParticipantId, Mailbox)> =
        plan.edges.iter().map(|&e| (e, bus.register(e))).collect();
    let (exit_tx, exit_rx) = crossbeam::channel::unbounded::<WorkerExit>();
    let mut handles = Vec::new();
    for (eid, mb) in edge_mbs {
        let parent = plan.parent_of(eid).unwrap_or(SERVER_ID);
        let level = plan.link_level(eid);
        let link = FaultyBus::new(bus.clone(), fault_plan.state_for(eid));
        let monitor = opts.monitor.clone();
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                edge_worker_bus(parent, mb, link, monitor, level)
            }));
            let _ = exit_tx.send(WorkerExit {
                id: eid,
                outcome: fold_outcome(result),
            });
        }));
    }
    for (client, mb) in clients.into_iter().zip(mailboxes) {
        let id = client.state.id;
        let parent = plan.parent_of(id).unwrap_or(SERVER_ID);
        let level = plan.link_level(id);
        let link = FaultyBus::new(bus.clone(), fault_plan.state_for(id));
        let monitor = opts.monitor.clone();
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                hier_client_worker_bus(client, mb, link, parent, monitor, level)
            }));
            let _ = exit_tx.send(WorkerExit {
                id,
                outcome: fold_outcome(result),
            });
        }));
    }
    drop(exit_tx);

    // fsa::allow(FSA002, distributed runtime wall budget; real threads are not on the virtual clock)
    let deadline = Instant::now() + wall_budget;
    let mut done = Completion::default();
    let mut finished_exits: BTreeSet<ParticipantId> = BTreeSet::new();
    let mut dead_edges: BTreeSet<ParticipantId> = BTreeSet::new();
    let mut lost_since: Option<Instant> = None;
    let result: Result<(), DistributedError> = loop {
        // worker exits first: a panic must surface even if traffic is queued
        let failure = loop {
            match exit_rx.try_recv() {
                Ok(exit) if plan.is_edge(exit.id) => match exit.outcome {
                    WorkerOutcome::Finished => {} // shutdown acknowledged
                    WorkerOutcome::Disconnected => {
                        if let Err(e) = rehome_subtree_bus(
                            &bus,
                            &plan,
                            &mut dead_edges,
                            exit.id,
                            &mut server,
                            &mut done,
                            &opts.monitor,
                        ) {
                            break Some(e);
                        }
                    }
                    WorkerOutcome::Panicked(detail) => {
                        break Some(DistributedError::ClientPanic {
                            id: exit.id,
                            detail,
                        });
                    }
                    WorkerOutcome::Transport(detail) => {
                        break Some(DistributedError::Codec(detail));
                    }
                },
                Ok(exit) => match exit.outcome {
                    WorkerOutcome::Finished => {
                        finished_exits.insert(exit.id);
                    }
                    WorkerOutcome::Disconnected => {
                        if done.gone.insert(exit.id) {
                            let mut ctx =
                                Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                            if let Err(e) = apply_dropout(&mut server, exit.id, &mut ctx) {
                                break Some(e);
                            }
                            if let Err(e) = ship_bus_ctx(
                                &bus,
                                &plan,
                                &dead_edges,
                                &mut server,
                                ctx,
                                &mut done,
                                &opts.monitor,
                            ) {
                                break Some(e);
                            }
                        }
                    }
                    WorkerOutcome::Panicked(detail) => {
                        break Some(DistributedError::ClientPanic {
                            id: exit.id,
                            detail,
                        });
                    }
                    WorkerOutcome::Transport(detail) => {
                        break Some(DistributedError::Codec(detail));
                    }
                },
                Err(_) => break None,
            }
        };
        if let Some(e) = failure {
            break Err(e);
        }
        if done.complete(&server) {
            break Ok(());
        }
        // fsa::allow(FSA002, measuring against the wall-clock deadline above)
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break Err(DistributedError::Timeout);
        }
        match server_mb.recv_timeout(remaining.min(Duration::from_millis(20))) {
            Ok(Some(msg)) => {
                lost_since = None;
                if msg.kind == EDGE_HELLO {
                    continue;
                }
                let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                server.handle(&msg, &mut ctx);
                if let Err(e) = ship_bus_ctx(
                    &bus,
                    &plan,
                    &dead_edges,
                    &mut server,
                    ctx,
                    &mut done,
                    &opts.monitor,
                ) {
                    break Err(e);
                }
            }
            Ok(None) => {
                // A finished worker's report may be fault-dropped — but with
                // relays in the path it can also be legitimately in flight
                // inside an edge thread, so only declare it lost after the
                // mailbox has stayed empty for a grace window.
                let lost: Vec<ParticipantId> = finished_exits
                    .iter()
                    .copied()
                    .filter(|id| {
                        !server.state.client_reports.contains_key(id) && !done.gone.contains(id)
                    })
                    .collect();
                if lost.is_empty() {
                    lost_since = None;
                    continue;
                }
                // fsa::allow(FSA002, relay grace window is wall-clock by nature)
                let since = *lost_since.get_or_insert_with(Instant::now);
                if since.elapsed() < RELAY_GRACE {
                    continue;
                }
                lost_since = None;
                let mut failed = None;
                for id in lost {
                    done.gone.insert(id);
                    let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                    if let Err(e) = apply_dropout(&mut server, id, &mut ctx) {
                        failed = Some(e);
                        break;
                    }
                    if let Err(e) = ship_bus_ctx(
                        &bus,
                        &plan,
                        &dead_edges,
                        &mut server,
                        ctx,
                        &mut done,
                        &opts.monitor,
                    ) {
                        failed = Some(e);
                        break;
                    }
                }
                if let Some(e) = failed {
                    break Err(e);
                }
            }
            Err(e) => break Err(e.into()),
        }
    };
    match result {
        Ok(()) => {
            // stop the relays, then join everyone
            for &e in &plan.edges {
                if !dead_edges.contains(&e) {
                    let _ = bus.send(&shutdown_msg(e));
                }
            }
            for h in handles {
                let _ = h.join();
            }
            Ok(server)
        }
        // error paths must not join: surviving workers may be blocked on
        // their mailboxes and would deadlock the teardown
        Err(e) => Err(e.into()),
    }
}

/// A client worker on the bus: identical to fs-core's, except messages bound
/// for the server are re-addressed to the client's current parent, and a
/// [`REHOME`] control frame swaps that parent mid-course.
fn hier_client_worker_bus(
    mut client: Client,
    mb: Mailbox,
    mut link: FaultyBus,
    mut parent: ParticipantId,
    monitor: MonitorHandle,
    leaf_level: usize,
) -> Result<WorkerOutcome, BusError> {
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    client.start(&mut ctx);
    let mut finished = ctx.finished;
    loop {
        for mut out in ctx.outbox {
            if out.msg.receiver == SERVER_ID {
                out.msg.receiver = parent;
            }
            monitor.add(
                bytes_up_counter(leaf_level),
                payload_wire_len(&out.msg.payload) as u64,
            );
            match link.send(&out.msg) {
                Ok(SendOutcome::Disconnected) => return Ok(WorkerOutcome::Disconnected),
                Ok(_) => {}
                // a dead relay drops the frame; the server re-homes this
                // client and re-broadcasts, so this is an outage, not an
                // error on our side
                Err(BusError::Disconnected(r)) | Err(BusError::UnknownReceiver(r))
                    if r != SERVER_ID => {}
                Err(e) => return Err(e),
            }
        }
        if finished {
            return Ok(WorkerOutcome::Finished);
        }
        let msg = mb.recv()?;
        if let Some(np) = rehome_target(&msg) {
            parent = np;
            ctx = Ctx::at(VirtualTime::ZERO);
            continue;
        }
        ctx = Ctx::at(VirtualTime::ZERO);
        client.handle(&msg, &mut ctx);
        finished = ctx.finished;
    }
}

/// An edge relay on the bus: forwards every upstream frame to its parent
/// unchanged (lossless), obeying [`REHOME`] / [`EDGE_SHUTDOWN`] control.
fn edge_worker_bus(
    mut parent: ParticipantId,
    mb: Mailbox,
    mut link: FaultyBus,
    monitor: MonitorHandle,
    level: usize,
) -> Result<WorkerOutcome, BusError> {
    loop {
        let msg = mb.recv()?;
        if msg.kind == EDGE_SHUTDOWN {
            return Ok(WorkerOutcome::Finished);
        }
        if let Some(np) = rehome_target(&msg) {
            parent = np;
            continue;
        }
        let mut fwd = msg;
        fwd.receiver = parent;
        monitor.add(
            bytes_up_counter(level),
            payload_wire_len(&fwd.payload) as u64,
        );
        match link.send(&fwd) {
            Ok(SendOutcome::Disconnected) => return Ok(WorkerOutcome::Disconnected),
            Ok(_) => {}
            // our parent edge died: the frame is lost in the outage; the
            // server will re-home us and re-arm the affected clients
            Err(BusError::Disconnected(r)) | Err(BusError::UnknownReceiver(r))
                if r != SERVER_ID => {}
            Err(e) => return Err(e),
        }
    }
}

/// An edge is gone for good: re-home its direct children onto the nearest
/// live ancestor and re-arm every subtree client so the round recovers.
fn rehome_subtree_bus(
    bus: &Bus,
    plan: &TopologyPlan,
    dead_edges: &mut BTreeSet<ParticipantId>,
    dead: ParticipantId,
    server: &mut Server,
    done: &mut Completion,
    monitor: &MonitorHandle,
) -> Result<(), DistributedError> {
    if !dead_edges.insert(dead) {
        return Ok(());
    }
    let mut new_parent = plan.parent_of(dead).unwrap_or(SERVER_ID);
    while new_parent != SERVER_ID && dead_edges.contains(&new_parent) {
        new_parent = plan.parent_of(new_parent).unwrap_or(SERVER_ID);
    }
    for &child in plan.children_of(dead) {
        if dead_edges.contains(&child) || done.gone.contains(&child) {
            continue;
        }
        // a freshly-dead child's mailbox error is moot — its own exit will
        // re-home or drop it in turn
        let _ = bus.send(&rehome_msg(child, new_parent));
    }
    for c in plan.subtree_clients(dead) {
        if done.gone.contains(&c) {
            continue;
        }
        let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, monitor.clone());
        server.notify_rejoin(c, &mut ctx);
        ship_bus_ctx(bus, plan, dead_edges, server, ctx, done, monitor)?;
    }
    Ok(())
}

/// Ships a server context over the bus (downloads go point-to-point). A send
/// that fails because the receiving client just died is routed through the
/// dropout policy; a send into a dead relay is a lost frame, not an error.
fn ship_bus_ctx(
    bus: &Bus,
    plan: &TopologyPlan,
    dead_edges: &BTreeSet<ParticipantId>,
    server: &mut Server,
    ctx: Ctx,
    done: &mut Completion,
    monitor: &MonitorHandle,
) -> Result<(), DistributedError> {
    debug_assert!(
        ctx.timers.is_empty(),
        "timers require the standalone runner"
    );
    done.finished |= ctx.finished;
    let mut pending = VecDeque::from(ctx.outbox);
    while let Some(out) = pending.pop_front() {
        let level = plan.link_level(out.msg.receiver);
        match bus.send(&out.msg) {
            Ok(()) => {
                monitor.add(
                    bytes_down_counter(level),
                    payload_wire_len(&out.msg.payload) as u64,
                );
            }
            Err(BusError::Disconnected(r)) | Err(BusError::UnknownReceiver(r))
                if r != SERVER_ID =>
            {
                if plan.is_edge(r) || dead_edges.contains(&r) {
                    continue; // dead relay: frame lost, re-homing handles it
                }
                if server.state.client_reports.contains_key(&r)
                    || done.gone.contains(&r)
                    || done.finished
                {
                    continue; // late send to a client that is already done
                }
                done.gone.insert(r);
                let mut dctx = Ctx::with_monitor(VirtualTime::ZERO, monitor.clone());
                apply_dropout(server, r, &mut dctx)?;
                done.finished |= dctx.finished;
                pending.extend(dctx.outbox);
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Hierarchical: TCP backend
// ---------------------------------------------------------------------------

/// Runs a hierarchical course over real TCP sockets on localhost.
pub fn run_hier_distributed_tcp(
    server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
) -> Result<Server, TopoRunError> {
    run_hier_distributed_tcp_with(server, clients, wall_budget, TcpRunOptions::default())
}

/// [`run_hier_distributed_tcp`] with an explicit address, fault injection,
/// reconnect policy, and observability options.
pub fn run_hier_distributed_tcp_with(
    mut server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    opts: TcpRunOptions,
) -> Result<Server, TopoRunError> {
    if server.state.cfg.scheduler_uses_timer() {
        return Err(DistributedError::UnsupportedRule("time_up").into());
    }
    let plan = verified_plan(&server, &clients)?;
    if plan.edges.is_empty() {
        return fs_core::distributed::run_distributed_tcp_with(server, clients, wall_budget, opts)
            .map_err(Into::into);
    }
    let bind_addr = opts
        .addr
        .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
    let pending_hub = TcpHub::bind(bind_addr)
        .map_err(tcp_to_bind)?
        .with_monitor(opts.monitor.clone());
    let addr = pending_hub.local_addr().map_err(tcp_to_bind)?;
    let fault_plan = opts.faults.unwrap_or_default();
    let n_participants = clients.len() + plan.edges.len();
    let (exit_tx, exit_rx) = crossbeam::channel::unbounded::<WorkerExit>();
    let mut handles = Vec::new();
    for &eid in &plan.edges {
        let parent = plan.parent_of(eid).unwrap_or(SERVER_ID);
        let level = plan.link_level(eid);
        let faults = fault_plan.state_for(eid);
        let reconnect = opts.reconnect;
        let monitor = opts.monitor.clone();
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                edge_worker_tcp(eid, parent, addr, faults, reconnect, monitor, level)
            }));
            let _ = exit_tx.send(WorkerExit {
                id: eid,
                outcome: fold_outcome(result),
            });
        }));
    }
    for client in clients {
        let id = client.state.id;
        let parent = plan.parent_of(id).unwrap_or(SERVER_ID);
        let level = plan.link_level(id);
        let faults = fault_plan.state_for(id);
        let reconnect = opts.reconnect;
        let monitor = opts.monitor.clone();
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                hier_client_worker_tcp(client, addr, faults, reconnect, parent, monitor, level)
            }));
            let _ = exit_tx.send(WorkerExit {
                id,
                outcome: fold_outcome(result),
            });
        }));
    }
    drop(exit_tx);

    // fsa::allow(FSA002, distributed runtime wall budget; real sockets are not on the virtual clock)
    let deadline = Instant::now() + wall_budget;
    let mut exits: BTreeMap<ParticipantId, WorkerOutcome> = BTreeMap::new();
    let hub =
        match pending_hub.accept_within(n_participants, wall_budget.min(Duration::from_secs(30))) {
            Ok(hub) => hub,
            Err(_) => {
                // a worker that died during connect explains the stalled accept
                while let Ok(exit) = exit_rx.try_recv() {
                    exits.insert(exit.id, exit.outcome);
                }
                for (id, outcome) in exits {
                    match outcome {
                        WorkerOutcome::Panicked(detail) => {
                            return Err(DistributedError::ClientPanic { id, detail }.into())
                        }
                        WorkerOutcome::Transport(detail) => {
                            return Err(DistributedError::Codec(detail).into())
                        }
                        WorkerOutcome::Disconnected => {
                            return Err(DistributedError::PeerDisconnected(id).into())
                        }
                        WorkerOutcome::Finished => {}
                    }
                }
                return Err(DistributedError::Timeout.into());
            }
        };

    let mut done = Completion::default();
    let mut dead_edges: BTreeSet<ParticipantId> = BTreeSet::new();
    // finished clients whose EOF beat their relayed report: the report is
    // normally still in flight through the edge, but a fault-injected
    // disconnect can have eaten it — each entry is a deadline after which
    // the report is declared lost and the dropout policy applies
    let mut lost_watch: BTreeMap<ParticipantId, Instant> = BTreeMap::new();
    let result: Result<(), DistributedError> = loop {
        let mut edge_failure: Option<DistributedError> = None;
        while let Ok(exit) = exit_rx.try_recv() {
            if plan.is_edge(exit.id) {
                // an edge worker only exits Disconnected when the link is
                // gone for good (no policy, or retries spent) — re-home
                if matches!(exit.outcome, WorkerOutcome::Disconnected)
                    && !done.finished
                    && edge_failure.is_none()
                {
                    if let Err(e) = rehome_subtree_tcp(
                        &hub,
                        &plan,
                        &mut dead_edges,
                        exit.id,
                        &mut server,
                        &mut done,
                        &opts.monitor,
                        &exits,
                    ) {
                        edge_failure = Some(e);
                    }
                }
            } else if matches!(exit.outcome, WorkerOutcome::Disconnected) {
                done.gone.insert(exit.id);
            }
            exits.insert(exit.id, exit.outcome);
        }
        if let Some(e) = edge_failure {
            break Err(e);
        }
        // panics take priority over whatever else is queued
        if let Some((id, detail)) = exits.iter().find_map(|(id, o)| match o {
            WorkerOutcome::Panicked(d) => Some((*id, d.clone())),
            _ => None,
        }) {
            break Err(DistributedError::ClientPanic { id, detail });
        }
        lost_watch.retain(|id, _| {
            !server.state.client_reports.contains_key(id) && !done.gone.contains(id)
        });
        // fsa::allow(FSA002, relay-grace deadline against real socket timing)
        let now = Instant::now();
        let overdue: Vec<ParticipantId> = lost_watch
            .iter()
            .filter(|&(_, deadline)| *deadline <= now)
            .map(|(&id, _)| id)
            .collect();
        let mut watch_failure: Option<DistributedError> = None;
        for id in overdue {
            lost_watch.remove(&id);
            done.gone.insert(id);
            let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
            if let Err(e) = apply_dropout(&mut server, id, &mut ctx) {
                watch_failure = Some(e);
                break;
            }
            let step = ship_hier_tcp_ctx(
                &hub,
                &plan,
                &mut server,
                ctx,
                &mut done,
                &opts.monitor,
                &exits,
            );
            if let Err(e) = step {
                watch_failure = Some(e);
                break;
            }
        }
        if let Some(e) = watch_failure {
            break Err(e);
        }
        if done.complete(&server) {
            break Ok(());
        }
        // fsa::allow(FSA002, measuring against the wall-clock deadline above)
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break Err(DistributedError::Timeout);
        }
        let event = match hub.recv_event_timeout(remaining.min(Duration::from_millis(20))) {
            Ok(Some(ev)) => ev,
            Ok(None) => continue,
            Err(_) => break Err(DistributedError::Timeout),
        };
        let step = match event {
            HubEvent::Message(msg) => {
                if msg.kind == EDGE_HELLO {
                    Ok(())
                } else if msg.receiver == SERVER_ID {
                    let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                    server.handle(&msg, &mut ctx);
                    ship_hier_tcp_ctx(
                        &hub,
                        &plan,
                        &mut server,
                        ctx,
                        &mut done,
                        &opts.monitor,
                        &exits,
                    )
                } else {
                    // transit frame: the hub is the switching fabric between
                    // tiers; a hop into a dead or reconnecting edge is a
                    // frame lost to the outage, recovered by re-arming
                    let _ = hub.send(&msg);
                    Ok(())
                }
            }
            HubEvent::Disconnected(id) => {
                if plan.is_edge(id) {
                    if opts.reconnect.is_some() {
                        Ok(()) // wait for Rejoined (or the worker's final exit)
                    } else {
                        rehome_subtree_tcp(
                            &hub,
                            &plan,
                            &mut dead_edges,
                            id,
                            &mut server,
                            &mut done,
                            &opts.monitor,
                            &exits,
                        )
                    }
                } else {
                    handle_client_disconnect_tcp(
                        &hub,
                        &plan,
                        &mut server,
                        id,
                        &mut done,
                        &opts.monitor,
                        &exit_rx,
                        &mut exits,
                        &mut lost_watch,
                    )
                }
            }
            HubEvent::Rejoined(id) => {
                if plan.is_edge(id) {
                    // the generation-stamped handshake swapped in a fresh
                    // link: re-arm the whole subtree so in-flight work lost
                    // to the outage is resampled
                    let mut step = Ok(());
                    for c in plan.subtree_clients(id) {
                        if done.gone.contains(&c) {
                            continue;
                        }
                        let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                        server.notify_rejoin(c, &mut ctx);
                        step = ship_hier_tcp_ctx(
                            &hub,
                            &plan,
                            &mut server,
                            ctx,
                            &mut done,
                            &opts.monitor,
                            &exits,
                        );
                        if step.is_err() {
                            break;
                        }
                    }
                    step
                } else {
                    done.gone.remove(&id);
                    let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                    server.notify_rejoin(id, &mut ctx);
                    ship_hier_tcp_ctx(
                        &hub,
                        &plan,
                        &mut server,
                        ctx,
                        &mut done,
                        &opts.monitor,
                        &exits,
                    )
                }
            }
            HubEvent::Codec(_, detail) => Err(DistributedError::Codec(detail)),
        };
        if let Err(e) = step {
            break Err(e);
        }
    };
    match result {
        Ok(()) => {
            // ask the relays to exit, then close the hub (which unblocks any
            // worker still mid-reconnect) and join everyone
            for &e in &plan.edges {
                if !dead_edges.contains(&e) {
                    let _ = hub.send(&shutdown_msg(e));
                }
            }
            drop(hub);
            for h in handles {
                let _ = h.join();
            }
            Ok(server)
        }
        Err(e) => Err(e.into()),
    }
}

/// A client worker over TCP: fs-core's loop plus parent re-addressing and
/// [`REHOME`] handling.
fn hier_client_worker_tcp(
    mut client: Client,
    addr: SocketAddr,
    faults: FaultState,
    reconnect: Option<ReconnectPolicy>,
    mut parent: ParticipantId,
    monitor: MonitorHandle,
    leaf_level: usize,
) -> Result<WorkerOutcome, TcpError> {
    let mut peer = ResilientPeer::connect(addr, client.state.id)?.with_faults(faults);
    if let Some(policy) = reconnect {
        peer = peer.with_reconnect(policy);
    }
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    client.start(&mut ctx);
    let mut finished = ctx.finished;
    loop {
        for mut out in ctx.outbox {
            if out.msg.receiver == SERVER_ID {
                out.msg.receiver = parent;
            }
            monitor.add(
                bytes_up_counter(leaf_level),
                payload_wire_len(&out.msg.payload) as u64,
            );
            if peer.send(&out.msg)? == SendOutcome::Disconnected && reconnect.is_none() {
                return Ok(WorkerOutcome::Disconnected);
            }
        }
        if finished {
            return Ok(WorkerOutcome::Finished);
        }
        let msg = match peer.recv() {
            Ok(m) => m,
            // link gone for good (no policy, or retries spent)
            Err(TcpError::Closed) | Err(TcpError::Io(_)) => return Ok(WorkerOutcome::Disconnected),
            Err(e) => return Err(e),
        };
        if let Some(np) = rehome_target(&msg) {
            parent = np;
            ctx = Ctx::at(VirtualTime::ZERO);
            continue;
        }
        ctx = Ctx::at(VirtualTime::ZERO);
        client.handle(&msg, &mut ctx);
        finished = ctx.finished;
    }
}

/// An edge relay over TCP. The first frame identifies the connection (the
/// hub keys connections by first sender); after that, every upstream frame
/// is forwarded to the current parent.
///
/// A fault-injected disconnect models the edge *process* crashing. With a
/// reconnect policy the crashed edge restarts: it comes back on a fresh,
/// healthy link through the generation-stamped rejoin handshake, and the
/// server re-arms its whole subtree. Without a policy the edge is gone for
/// good and the server re-homes the subtree instead.
fn edge_worker_tcp(
    id: ParticipantId,
    mut parent: ParticipantId,
    addr: SocketAddr,
    faults: FaultState,
    reconnect: Option<ReconnectPolicy>,
    monitor: MonitorHandle,
    level: usize,
) -> Result<WorkerOutcome, TcpError> {
    let mut peer = ResilientPeer::connect(addr, id)?.with_faults(faults);
    if let Some(policy) = reconnect {
        peer = peer.with_reconnect(policy);
    }
    let hello = Message::new(id, SERVER_ID, EDGE_HELLO, 0, Payload::Empty);
    if peer.send(&hello)? == SendOutcome::Disconnected {
        match reconnect {
            Some(policy) => peer = restart_edge(addr, id, policy)?,
            None => return Ok(WorkerOutcome::Disconnected),
        }
    }
    loop {
        let msg = match peer.recv() {
            Ok(m) => m,
            Err(TcpError::Closed) | Err(TcpError::Io(_)) => return Ok(WorkerOutcome::Disconnected),
            Err(e) => return Err(e),
        };
        if msg.kind == EDGE_SHUTDOWN {
            return Ok(WorkerOutcome::Finished);
        }
        if let Some(np) = rehome_target(&msg) {
            parent = np;
            continue;
        }
        let mut fwd = msg;
        fwd.receiver = parent;
        monitor.add(
            bytes_up_counter(level),
            payload_wire_len(&fwd.payload) as u64,
        );
        // an injected Disconnect loses this frame along with the process
        if peer.send(&fwd)? == SendOutcome::Disconnected {
            match reconnect {
                Some(policy) => peer = restart_edge(addr, id, policy)?,
                None => return Ok(WorkerOutcome::Disconnected),
            }
        }
    }
}

/// Restarts a crashed edge: a fresh, healthy connection whose first frame is
/// the rejoin handshake, so the hub swaps generations and the server sees
/// `HubEvent::Rejoined` for this edge.
fn restart_edge(
    addr: SocketAddr,
    id: ParticipantId,
    policy: ReconnectPolicy,
) -> Result<ResilientPeer, TcpError> {
    let mut peer = ResilientPeer::connect(addr, id)?.with_reconnect(policy);
    let rejoin = Message::new(id, SERVER_ID, MessageKind::Rejoin, 0, Payload::Empty);
    let _ = peer.send(&rejoin)?;
    Ok(peer)
}

/// TCP variant of [`rehome_subtree_bus`].
#[allow(clippy::too_many_arguments)]
fn rehome_subtree_tcp(
    hub: &TcpHub,
    plan: &TopologyPlan,
    dead_edges: &mut BTreeSet<ParticipantId>,
    dead: ParticipantId,
    server: &mut Server,
    done: &mut Completion,
    monitor: &MonitorHandle,
    exits: &BTreeMap<ParticipantId, WorkerOutcome>,
) -> Result<(), DistributedError> {
    if !dead_edges.insert(dead) {
        return Ok(());
    }
    let mut new_parent = plan.parent_of(dead).unwrap_or(SERVER_ID);
    while new_parent != SERVER_ID && dead_edges.contains(&new_parent) {
        new_parent = plan.parent_of(new_parent).unwrap_or(SERVER_ID);
    }
    for &child in plan.children_of(dead) {
        if dead_edges.contains(&child) || done.gone.contains(&child) {
            continue;
        }
        let _ = hub.send(&rehome_msg(child, new_parent));
    }
    for c in plan.subtree_clients(dead) {
        if done.gone.contains(&c) {
            continue;
        }
        let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, monitor.clone());
        server.notify_rejoin(c, &mut ctx);
        ship_hier_tcp_ctx(hub, plan, server, ctx, done, monitor, exits)?;
    }
    Ok(())
}

/// A hub-reported client disconnect: distinguish a clean exit, a panic
/// racing the event, and a genuine dropout (fs-core semantics).
#[allow(clippy::too_many_arguments)]
fn handle_client_disconnect_tcp(
    hub: &TcpHub,
    plan: &TopologyPlan,
    server: &mut Server,
    id: ParticipantId,
    done: &mut Completion,
    monitor: &MonitorHandle,
    exit_rx: &crossbeam::channel::Receiver<WorkerExit>,
    exits: &mut BTreeMap<ParticipantId, WorkerOutcome>,
    lost_watch: &mut BTreeMap<ParticipantId, Instant>,
) -> Result<(), DistributedError> {
    if server.state.client_reports.contains_key(&id) {
        return Ok(()); // finished client closing its socket — not a dropout
    }
    // brief grace window: if the socket died because the worker panicked, the
    // exit report is microseconds behind the EOF — prefer ClientPanic
    // fsa::allow(FSA002, wall-clock grace window for racing a socket EOF against the exit report)
    let grace = Instant::now() + Duration::from_millis(100);
    while !exits.contains_key(&id) {
        let left = grace.saturating_duration_since(Instant::now()); // fsa::allow(FSA002, same grace window)
        if left.is_zero() {
            break;
        }
        match exit_rx.recv_timeout(left) {
            Ok(exit) => {
                if !plan.is_edge(exit.id) && matches!(exit.outcome, WorkerOutcome::Disconnected) {
                    done.gone.insert(exit.id);
                }
                exits.insert(exit.id, exit.outcome);
            }
            Err(_) => break,
        }
    }
    match exits.get(&id) {
        Some(WorkerOutcome::Panicked(detail)) => {
            return Err(DistributedError::ClientPanic {
                id,
                detail: detail.clone(),
            });
        }
        // A Finished worker wrote its report before closing — but unlike the
        // flat runner, the report rides its *edge's* connection while the EOF
        // rides its own, so the hub can order the EOF first. Usually the
        // report is in flight through a live relay (a clean close), but a
        // fault-injected disconnect may have eaten it: arm a deadline, and
        // let the main loop declare the report lost if it never lands.
        Some(WorkerOutcome::Finished) => {
            // fsa::allow(FSA002, relay-grace deadline against real socket timing)
            let deadline = Instant::now() + RELAY_GRACE;
            lost_watch.entry(id).or_insert(deadline);
            return Ok(());
        }
        _ => {}
    }
    done.gone.insert(id);
    let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, monitor.clone());
    apply_dropout(server, id, &mut ctx)?;
    ship_hier_tcp_ctx(hub, plan, server, ctx, done, monitor, exits)
}

/// Ships a server context over the hub (downloads go point-to-point). Sends
/// into dead clients route through the dropout policy, as in fs-core.
fn ship_hier_tcp_ctx(
    hub: &TcpHub,
    plan: &TopologyPlan,
    server: &mut Server,
    ctx: Ctx,
    done: &mut Completion,
    monitor: &MonitorHandle,
    exits: &BTreeMap<ParticipantId, WorkerOutcome>,
) -> Result<(), DistributedError> {
    debug_assert!(
        ctx.timers.is_empty(),
        "timers require the standalone runner"
    );
    done.finished |= ctx.finished;
    let mut pending = VecDeque::from(ctx.outbox);
    while let Some(out) = pending.pop_front() {
        let level = plan.link_level(out.msg.receiver);
        match hub.send(&out.msg) {
            Ok(()) => {
                monitor.add(
                    bytes_down_counter(level),
                    payload_wire_len(&out.msg.payload) as u64,
                );
            }
            Err(TcpError::UnknownReceiver(_)) | Err(TcpError::Io(_))
                if out.msg.receiver != SERVER_ID =>
            {
                let rcv = out.msg.receiver;
                if plan.is_edge(rcv) {
                    continue; // dead or reconnecting relay: frame lost
                }
                if server.state.client_reports.contains_key(&rcv)
                    || exits.contains_key(&rcv)
                    || done.finished
                {
                    continue; // late send to a client that is already done
                }
                done.gone.insert(rcv);
                let mut dctx = Ctx::with_monitor(VirtualTime::ZERO, monitor.clone());
                apply_dropout(server, rcv, &mut dctx)?;
                done.finished |= dctx.finished;
                pending.extend(dctx.outbox);
            }
            Err(e) => {
                return Err(match e {
                    TcpError::Codec(c) => DistributedError::Codec(c.to_string()),
                    other => DistributedError::Codec(other.to_string()),
                })
            }
        }
    }
    Ok(())
}

fn tcp_to_bind(e: TcpError) -> TopoRunError {
    match e {
        TcpError::Io(io) => DistributedError::Bind(io).into(),
        other => DistributedError::Bind(std::io::Error::other(other.to_string())).into(),
    }
}

// ---------------------------------------------------------------------------
// Gossip: both backends
// ---------------------------------------------------------------------------

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
    fn train(&mut self, round: u64) -> Result<(Payload, Vec<ParticipantId>), String> {
        let update = self.trainer.local_train(&self.model, round);
        self.model = update.params;
        let payload = match self.codec.as_mut() {
            Some(codec) => {
                let block = codec.compress(&self.model);
                Payload::CompressedUpdate {
                    block,
                    start_version: round,
                    n_samples: update.n_samples,
                    n_steps: update.n_steps,
                }
            }
            None => Payload::Update {
                params: self.model.clone(),
                start_version: round,
                n_samples: update.n_samples,
                n_steps: update.n_steps,
            },
        };
        Ok((payload, self.plan.neighbors(round, self.id)))
    }

    /// Buffers an inbound share (decoding a compressed one).
    fn absorb(&mut self, msg: Message) -> Result<(), String> {
        let (params, n_samples) = match msg.payload {
            Payload::Update {
                params, n_samples, ..
            } => (params, n_samples),
            Payload::CompressedUpdate {
                block, n_samples, ..
            } => (
                decompress(&block, None).map_err(|e| e.to_string())?,
                n_samples,
            ),
            _ => return Ok(()), // not a model share — ignore
        };
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

/// What [`gossip_parts`] extracts from a star course: the peers, the realized
/// plan, the round count, the eval cadence, and the server's evaluator.
type GossipParts = (
    Vec<GossipPeer>,
    Arc<TopologyPlan>,
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
    Ok((peers, plan, rounds, cfg.eval_every, server.state.evaluator))
}

/// Runs a serverless gossip course on threads over the in-process bus: peers
/// exchange models directly; the harness only collects the final models for
/// one central evaluation.
pub fn run_gossip_distributed(
    runner: StandaloneRunner,
    wall_budget: Duration,
    monitor: MonitorHandle,
) -> Result<CourseReport, TopoRunError> {
    let (peers, _plan, rounds, eval_every, mut evaluator) = gossip_parts(runner)?;
    let n = peers.len();
    let mut bus = Bus::new();
    let server_mb = bus.register(SERVER_ID);
    let mailboxes: Vec<Mailbox> = peers.iter().map(|p| bus.register(p.id)).collect();
    let (exit_tx, exit_rx) = crossbeam::channel::unbounded::<WorkerExit>();
    let mut handles = Vec::new();
    for (peer, mb) in peers.into_iter().zip(mailboxes) {
        let id = peer.id;
        let bus = bus.clone();
        let mon = monitor.clone();
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                gossip_worker_bus(peer, rounds, mb, bus, mon)
            }));
            let _ = exit_tx.send(WorkerExit {
                id,
                outcome: fold_outcome(result),
            });
        }));
    }
    drop(exit_tx);

    // fsa::allow(FSA002, distributed runtime wall budget; real threads are not on the virtual clock)
    let deadline = Instant::now() + wall_budget;
    let mut finals: BTreeMap<ParticipantId, fs_tensor::ParamMap> = BTreeMap::new();
    let result: Result<(), DistributedError> = loop {
        let failure = loop {
            match exit_rx.try_recv() {
                Ok(exit) => match exit.outcome {
                    WorkerOutcome::Finished => {}
                    WorkerOutcome::Disconnected => {
                        break Some(DistributedError::PeerDisconnected(exit.id))
                    }
                    WorkerOutcome::Panicked(detail) => {
                        break Some(DistributedError::ClientPanic {
                            id: exit.id,
                            detail,
                        })
                    }
                    WorkerOutcome::Transport(detail) => {
                        break Some(DistributedError::Codec(detail))
                    }
                },
                Err(_) => break None,
            }
        };
        if let Some(e) = failure {
            break Err(e);
        }
        if finals.len() == n {
            break Ok(());
        }
        // fsa::allow(FSA002, measuring against the wall-clock deadline above)
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break Err(DistributedError::Timeout);
        }
        match server_mb.recv_timeout(remaining.min(Duration::from_millis(20))) {
            Ok(Some(msg)) => {
                if let Payload::Update { params, .. } = msg.payload {
                    finals.insert(msg.sender, params);
                }
            }
            Ok(None) => {}
            Err(e) => break Err(e.into()),
        }
    };
    match result {
        Ok(()) => {
            for h in handles {
                let _ = h.join();
            }
            Ok(gossip_report(
                finals,
                &mut evaluator,
                rounds,
                eval_every,
                &monitor,
            ))
        }
        Err(e) => Err(e.into()),
    }
}

fn gossip_worker_bus(
    mut peer: GossipPeer,
    rounds: u64,
    mb: Mailbox,
    bus: Bus,
    monitor: MonitorHandle,
) -> Result<WorkerOutcome, BusError> {
    for r in 0..rounds {
        let (payload, neighbors) = match peer.train(r) {
            Ok(x) => x,
            Err(detail) => return Ok(WorkerOutcome::Transport(detail)),
        };
        let bytes = payload_wire_len(&payload) as u64;
        monitor.add(bytes_up_counter(1), bytes * neighbors.len() as u64);
        for nb in neighbors {
            let msg = Message::new(peer.id, nb, MessageKind::Updates, r, payload.clone());
            match bus.send(&msg) {
                Ok(()) => {}
                // a peer past its last round has dropped its mailbox — it
                // provably no longer needs this share
                Err(BusError::Disconnected(_)) | Err(BusError::UnknownReceiver(_)) => {}
                Err(e) => return Err(e),
            }
        }
        while !peer.ready(r) {
            let msg = mb.recv()?;
            if msg.kind == MessageKind::Updates {
                if let Err(detail) = peer.absorb(msg) {
                    return Ok(WorkerOutcome::Transport(detail));
                }
            }
        }
        peer.merge(r);
    }
    bus.send(&peer.final_report(rounds))?;
    Ok(WorkerOutcome::Finished)
}

/// Runs a serverless gossip course over real TCP sockets: the harness owns
/// the hub purely as a switching fabric between peers.
pub fn run_gossip_distributed_tcp(
    runner: StandaloneRunner,
    wall_budget: Duration,
    monitor: MonitorHandle,
) -> Result<CourseReport, TopoRunError> {
    let (peers, _plan, rounds, eval_every, mut evaluator) = gossip_parts(runner)?;
    let n = peers.len();
    let pending_hub = TcpHub::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
        .map_err(tcp_to_bind)?
        .with_monitor(monitor.clone());
    let addr = pending_hub.local_addr().map_err(tcp_to_bind)?;
    let (exit_tx, exit_rx) = crossbeam::channel::unbounded::<WorkerExit>();
    let mut handles = Vec::new();
    for peer in peers {
        let id = peer.id;
        let mon = monitor.clone();
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(move || {
                gossip_worker_tcp(peer, rounds, addr, mon)
            }));
            let _ = exit_tx.send(WorkerExit {
                id,
                outcome: fold_outcome(result),
            });
        }));
    }
    drop(exit_tx);

    // fsa::allow(FSA002, distributed runtime wall budget; real sockets are not on the virtual clock)
    let deadline = Instant::now() + wall_budget;
    let mut exits: BTreeMap<ParticipantId, WorkerOutcome> = BTreeMap::new();
    let hub = match pending_hub.accept_within(n, wall_budget.min(Duration::from_secs(30))) {
        Ok(hub) => hub,
        Err(_) => {
            while let Ok(exit) = exit_rx.try_recv() {
                exits.insert(exit.id, exit.outcome);
            }
            for (id, outcome) in exits {
                match outcome {
                    WorkerOutcome::Panicked(detail) => {
                        return Err(DistributedError::ClientPanic { id, detail }.into())
                    }
                    WorkerOutcome::Transport(detail) => {
                        return Err(DistributedError::Codec(detail).into())
                    }
                    WorkerOutcome::Disconnected => {
                        return Err(DistributedError::PeerDisconnected(id).into())
                    }
                    WorkerOutcome::Finished => {}
                }
            }
            return Err(DistributedError::Timeout.into());
        }
    };
    let mut finals: BTreeMap<ParticipantId, fs_tensor::ParamMap> = BTreeMap::new();
    let result: Result<(), DistributedError> = loop {
        while let Ok(exit) = exit_rx.try_recv() {
            exits.insert(exit.id, exit.outcome);
        }
        if let Some((id, detail)) = exits.iter().find_map(|(id, o)| match o {
            WorkerOutcome::Panicked(d) => Some((*id, d.clone())),
            _ => None,
        }) {
            break Err(DistributedError::ClientPanic { id, detail });
        }
        if finals.len() == n {
            break Ok(());
        }
        // fsa::allow(FSA002, measuring against the wall-clock deadline above)
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break Err(DistributedError::Timeout);
        }
        let event = match hub.recv_event_timeout(remaining.min(Duration::from_millis(20))) {
            Ok(Some(ev)) => ev,
            Ok(None) => continue,
            Err(_) => break Err(DistributedError::Timeout),
        };
        match event {
            HubEvent::Message(msg) => {
                if msg.kind == EDGE_HELLO {
                    continue;
                }
                if msg.receiver == SERVER_ID {
                    if let Payload::Update { params, .. } = msg.payload {
                        finals.insert(msg.sender, params);
                    }
                } else {
                    // peer-to-peer transit: the hub is a dumb forwarding
                    // fabric; a failed hop targets a peer that already
                    // finished and provably no longer needs the share
                    let _ = hub.send(&msg);
                }
            }
            HubEvent::Disconnected(id) => {
                // the per-connection reader delivers a peer's final frame
                // before its EOF, so a missing final here is a real death
                if !finals.contains_key(&id)
                    && !matches!(exits.get(&id), Some(WorkerOutcome::Finished))
                {
                    break Err(DistributedError::PeerDisconnected(id));
                }
            }
            HubEvent::Rejoined(_) => {}
            HubEvent::Codec(_, detail) => break Err(DistributedError::Codec(detail)),
        }
    };
    match result {
        Ok(()) => {
            drop(hub);
            for h in handles {
                let _ = h.join();
            }
            Ok(gossip_report(
                finals,
                &mut evaluator,
                rounds,
                eval_every,
                &monitor,
            ))
        }
        Err(e) => Err(e.into()),
    }
}

fn gossip_worker_tcp(
    mut peer_state: GossipPeer,
    rounds: u64,
    addr: SocketAddr,
    monitor: MonitorHandle,
) -> Result<WorkerOutcome, TcpError> {
    let mut peer = ResilientPeer::connect(addr, peer_state.id)?;
    // identify immediately: the hub keys connections by first sender, and
    // waiting for round-0 training would stall the accept barrier
    let hello = Message::new(peer_state.id, SERVER_ID, EDGE_HELLO, 0, Payload::Empty);
    if peer.send(&hello)? == SendOutcome::Disconnected {
        return Ok(WorkerOutcome::Disconnected);
    }
    for r in 0..rounds {
        let (payload, neighbors) = match peer_state.train(r) {
            Ok(x) => x,
            Err(detail) => return Ok(WorkerOutcome::Transport(detail)),
        };
        let bytes = payload_wire_len(&payload) as u64;
        monitor.add(bytes_up_counter(1), bytes * neighbors.len() as u64);
        for nb in neighbors {
            let msg = Message::new(peer_state.id, nb, MessageKind::Updates, r, payload.clone());
            if peer.send(&msg)? == SendOutcome::Disconnected {
                return Ok(WorkerOutcome::Disconnected);
            }
        }
        while !peer_state.ready(r) {
            let msg = match peer.recv() {
                Ok(m) => m,
                Err(TcpError::Closed) | Err(TcpError::Io(_)) => {
                    return Ok(WorkerOutcome::Disconnected)
                }
                Err(e) => return Err(e),
            };
            if msg.kind == MessageKind::Updates {
                if let Err(detail) = peer_state.absorb(msg) {
                    return Ok(WorkerOutcome::Transport(detail));
                }
            }
        }
        peer_state.merge(r);
    }
    if peer.send(&peer_state.final_report(rounds))? == SendOutcome::Disconnected {
        return Ok(WorkerOutcome::Disconnected);
    }
    Ok(WorkerOutcome::Finished)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rehome_frame_roundtrips() {
        let msg = rehome_msg(7, 42);
        assert_eq!(rehome_target(&msg), Some(42));
        let other = Message::new(SERVER_ID, 7, MessageKind::Finish, 0, Payload::Empty);
        assert_eq!(rehome_target(&other), None);
    }

    #[test]
    fn control_kinds_are_distinct() {
        assert_ne!(EDGE_HELLO, REHOME);
        assert_ne!(REHOME, EDGE_SHUTDOWN);
        assert_ne!(EDGE_HELLO, EDGE_SHUTDOWN);
    }
}
