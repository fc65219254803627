//! The distributed runner: the same workers on real threads.
//!
//! Each participant runs on its own thread with a mailbox on the
//! [`fs_net::bus::Bus`] (or a real socket via [`fs_net::tcp`]); every message
//! crosses the transport as wire bytes, so the whole message-translation path
//! (§3.5) is exercised. Virtual time does not apply here — `time_up` courses
//! must use the standalone runner — but the `all_received` and
//! `goal_achieved` strategies run unchanged, demonstrating that worker
//! behaviour is transport-independent.
//!
//! # Fault tolerance
//!
//! Real cross-device clients are unreliable (§3.3.1): this runner survives
//! them. A client whose connection dies is handled per the configured
//! [`DropoutPolicy`] — either the course aborts with
//! [`DistributedError::PeerDisconnected`], or the client is removed from the
//! roster and the round completes with the survivors (the dropout is
//! recorded in the server state and the course report). TCP clients may come
//! back: a reconnect (capped exponential backoff + rejoin handshake) re-admits
//! them. Deterministic fault injection for tests and the `exp_faults` grid
//! comes from [`fs_net::FaultPlan`], threaded in through [`BusRunOptions`] /
//! [`TcpRunOptions`].
//!
//! Failures keep their identity: a bind failure, a codec failure, a client
//! panic, and a true wall-budget timeout each surface as their own
//! [`DistributedError`] variant instead of collapsing into `Timeout`.

use crate::client::Client;
use crate::config::DropoutPolicy;
use crate::ctx::Ctx;
use crate::server::Server;
use crate::verify::singleton_groups;
use fs_monitor::MonitorHandle;
use fs_net::bus::{Bus, BusError, Mailbox};
use fs_net::fault::{FaultPlan, FaultyBus, SendOutcome};
use fs_net::tcp::{HubEvent, ReconnectPolicy, ResilientPeer, TcpError, TcpHub};
use fs_net::{ParticipantId, SERVER_ID};
use fs_sim::VirtualTime;
use fs_verify::VerifyReport;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// Errors from a distributed run, one variant per failure class.
#[derive(Debug)]
pub enum DistributedError {
    /// The configured rule needs virtual time (e.g. `time_up`).
    UnsupportedRule(&'static str),
    /// The course failed static verification under
    /// [`fs_verify::VerifyMode::Enforce`].
    Verification(Box<VerifyReport>),
    /// A bus operation failed.
    Bus(BusError),
    /// The server could not bind its listening address.
    Bind(std::io::Error),
    /// A participant sent bytes the wire codec rejects.
    Codec(String),
    /// A client worker panicked.
    ClientPanic {
        /// The panicking client.
        id: ParticipantId,
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A client connection died and the dropout policy did not allow the
    /// course to continue.
    PeerDisconnected(ParticipantId),
    /// The course did not finish within the wall-clock budget.
    Timeout,
}

impl fmt::Display for DistributedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributedError::UnsupportedRule(r) => {
                write!(f, "rule {r} requires the standalone (virtual-time) runner")
            }
            DistributedError::Verification(report) => {
                write!(f, "course rejected by static verification:\n{report}")
            }
            DistributedError::Bus(e) => write!(f, "bus error: {e}"),
            DistributedError::Bind(e) => write!(f, "failed to bind server address: {e}"),
            DistributedError::Codec(e) => write!(f, "wire codec failure: {e}"),
            DistributedError::ClientPanic { id, detail } => {
                write!(f, "client {id} panicked: {detail}")
            }
            DistributedError::PeerDisconnected(id) => {
                write!(
                    f,
                    "client {id} disconnected and the dropout policy forbids continuing"
                )
            }
            DistributedError::Timeout => write!(f, "distributed course timed out"),
        }
    }
}

impl std::error::Error for DistributedError {}

impl From<Box<VerifyReport>> for DistributedError {
    fn from(report: Box<VerifyReport>) -> Self {
        DistributedError::Verification(report)
    }
}

impl From<BusError> for DistributedError {
    fn from(e: BusError) -> Self {
        match e {
            BusError::Codec(c) => DistributedError::Codec(c.to_string()),
            other => DistributedError::Bus(other),
        }
    }
}

/// Options for a bus-backed distributed run.
#[derive(Default)]
pub struct BusRunOptions {
    /// Fault injection applied to every client's sends.
    pub faults: Option<FaultPlan>,
    /// Observability sink for the server's handler contexts.
    pub monitor: MonitorHandle,
}

/// Options for a TCP-backed distributed run.
#[derive(Default)]
pub struct TcpRunOptions {
    /// Listening address; `None` binds an ephemeral localhost port.
    pub addr: Option<SocketAddr>,
    /// Fault injection applied to every client's socket sends.
    pub faults: Option<FaultPlan>,
    /// When set, clients survive outages: capped exponential backoff, then a
    /// rejoin handshake.
    pub reconnect: Option<ReconnectPolicy>,
    /// Observability sink (server contexts + hub wire counters).
    pub monitor: MonitorHandle,
}

/// Why a client worker thread stopped.
#[derive(Debug)]
enum ClientOutcome {
    /// Received Finish and reported metrics — the normal end.
    Finished,
    /// Its (possibly fault-injected) connection died for good.
    Disconnected,
    /// A handler panicked.
    Panicked(String),
    /// A transport operation failed terminally.
    Transport(String),
}

/// One worker's exit report, delivered on the control channel.
struct ClientExit {
    id: ParticipantId,
    outcome: ClientOutcome,
}

/// The message of a caught worker panic, when it was a string.
pub fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Shared server-loop bookkeeping: which clients are gone for good, and
/// whether the course can be declared complete.
#[derive(Default)]
pub struct Completion {
    /// The server terminated the course.
    pub finished: bool,
    /// Clients whose connection died terminally (their final report may be
    /// legitimately lost). Cleanly finished clients are NOT in here: their
    /// report is still in flight and must be awaited.
    pub gone: BTreeSet<ParticipantId>,
}

impl Completion {
    /// The course is complete when the server terminated it and every roster
    /// member has either reported metrics or provably disconnected (so its
    /// report can never arrive).
    pub fn complete(&self, server: &Server) -> bool {
        self.finished
            && server
                .state
                .roster
                .iter()
                .all(|id| server.state.client_reports.contains_key(id) || self.gone.contains(id))
    }
}

/// Applies the dropout policy for a dead client: `Ok(())` means the course
/// continues with the survivors (the server re-evaluated its conditions).
pub fn apply_dropout(
    server: &mut Server,
    id: ParticipantId,
    ctx: &mut Ctx,
) -> Result<(), DistributedError> {
    match server.state.cfg.dropout {
        DropoutPolicy::Fail => Err(DistributedError::PeerDisconnected(id)),
        DropoutPolicy::Survivors { min_survivors } => {
            let survivors = if server.state.roster_index.contains(&id) {
                server.state.roster.len() - 1
            } else {
                server.state.roster.len()
            };
            if survivors < min_survivors {
                return Err(DistributedError::PeerDisconnected(id));
            }
            server.notify_dropout(id, ctx);
            Ok(())
        }
    }
}

/// Runs a course over threads and the in-process bus, returning the server
/// (with its histories and client reports) once the course finishes.
pub fn run_distributed(
    server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
) -> Result<Server, DistributedError> {
    run_distributed_with(server, clients, wall_budget, BusRunOptions::default())
}

/// [`run_distributed`] with fault injection and observability options.
pub fn run_distributed_with(
    mut server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    mut opts: BusRunOptions,
) -> Result<Server, DistributedError> {
    if server.state.cfg.scheduler_uses_timer() {
        return Err(DistributedError::UnsupportedRule("time_up"));
    }
    // counter adds from the runner loop go to a lock-free sharded bank and
    // are folded into the monitor once, at the flush below — commutative
    // totals, so the deferred fold is observably identical
    opts.monitor = opts.monitor.sharded();
    // static verification, before any thread is spawned
    crate::verify::preflight(&server, &singleton_groups(&clients), Vec::new())?;
    let plan = opts.faults.unwrap_or_default();
    let mut bus = Bus::new();
    let server_mb = bus.register(SERVER_ID);
    // register every mailbox BEFORE any thread clones the bus: Bus clones
    // snapshot the sender map, so a clone taken mid-registration would
    // silently lack the later participants' mailboxes
    let mailboxes: Vec<Mailbox> = clients.iter().map(|c| bus.register(c.state.id)).collect();
    let (exit_tx, exit_rx) = crossbeam::channel::unbounded::<ClientExit>();
    let mut handles = Vec::new();
    for (mut client, mb) in clients.into_iter().zip(mailboxes) {
        let id = client.state.id;
        let mut link = FaultyBus::new(bus.clone(), plan.state_for(id));
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(
                move || -> Result<ClientOutcome, BusError> {
                    let mut ctx = Ctx::at(VirtualTime::ZERO);
                    client.start(&mut ctx);
                    let mut finished = ctx.finished;
                    loop {
                        for out in ctx.outbox {
                            if link.send(&out.msg)? == SendOutcome::Disconnected {
                                return Ok(ClientOutcome::Disconnected);
                            }
                        }
                        if finished {
                            return Ok(ClientOutcome::Finished);
                        }
                        let msg = mb.recv()?;
                        ctx = Ctx::at(VirtualTime::ZERO);
                        client.handle(&msg, &mut ctx);
                        finished = ctx.finished;
                    }
                },
            ));
            let outcome = match result {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => ClientOutcome::Transport(e.to_string()),
                Err(payload) => ClientOutcome::Panicked(panic_detail(payload)),
            };
            let _ = exit_tx.send(ClientExit { id, outcome });
        }));
    }
    drop(exit_tx);

    // fsa::allow(FSA002, distributed runtime wall budget; real threads and sockets are not on the virtual clock)
    let deadline = Instant::now() + wall_budget;
    let mut done = Completion::default();
    let mut finished_exits: BTreeSet<ParticipantId> = BTreeSet::new();
    let result = loop {
        // worker exits first: a panic must surface as ClientPanic even if a
        // message from another client is also waiting
        let exit = loop {
            match exit_rx.try_recv() {
                Ok(exit) => match exit.outcome {
                    ClientOutcome::Finished => {
                        finished_exits.insert(exit.id);
                    }
                    ClientOutcome::Disconnected => {
                        done.gone.insert(exit.id);
                        let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                        if let Err(e) = apply_dropout(&mut server, exit.id, &mut ctx) {
                            break Some(Err(e));
                        }
                        if let Err(e) = drain_server_ctx(&bus, ctx, &mut done) {
                            break Some(Err(e));
                        }
                    }
                    ClientOutcome::Panicked(detail) => {
                        break Some(Err(DistributedError::ClientPanic {
                            id: exit.id,
                            detail,
                        }));
                    }
                    ClientOutcome::Transport(detail) => {
                        break Some(Err(DistributedError::Codec(detail)));
                    }
                },
                Err(_) => break None,
            }
        };
        if let Some(res) = exit {
            break res;
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
                let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                server.handle(&msg, &mut ctx);
                if let Err(e) = drain_server_ctx(&bus, ctx, &mut done) {
                    break Err(e);
                }
            }
            Ok(None) => {
                // the bus enqueues synchronously, so a Finished worker's
                // report is already in our mailbox — or was fault-dropped.
                // An empty mailbox after its exit proves the latter.
                let lost: Vec<ParticipantId> = finished_exits
                    .iter()
                    .copied()
                    .filter(|id| {
                        !server.state.client_reports.contains_key(id) && !done.gone.contains(id)
                    })
                    .collect();
                let mut failed = None;
                for id in lost {
                    done.gone.insert(id);
                    let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                    if let Err(e) = apply_dropout(&mut server, id, &mut ctx) {
                        failed = Some(e);
                        break;
                    }
                    if let Err(e) = drain_server_ctx(&bus, ctx, &mut done) {
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
    // all counter producers are done (workers joined or abandoned): fold
    // the sharded bank into the monitor before anyone reads it back
    match result {
        Ok(()) => {
            for h in handles {
                let _ = h.join();
            }
            opts.monitor.flush_counters();
            Ok(server)
        }
        // error paths must not join: surviving workers may be blocked on
        // their mailboxes and would deadlock the teardown
        Err(e) => {
            opts.monitor.flush_counters();
            Err(e)
        }
    }
}

/// Ships a server context's outbox over the bus and folds its completion
/// flag into the tracker.
fn drain_server_ctx(bus: &Bus, ctx: Ctx, done: &mut Completion) -> Result<(), DistributedError> {
    debug_assert!(
        ctx.timers.is_empty(),
        "timers require the standalone runner"
    );
    for out in ctx.outbox {
        bus.send(&out.msg)?;
    }
    done.finished |= ctx.finished;
    Ok(())
}

/// Runs a course over real TCP sockets on localhost: the server binds an
/// ephemeral port, every client runs on its own thread with its own
/// connection, and all traffic crosses the kernel as length-prefixed wire
/// frames. Functionally equivalent to [`run_distributed`], but exercising the
/// `fs_net::tcp` transport end to end.
pub fn run_distributed_tcp(
    server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
) -> Result<Server, DistributedError> {
    run_distributed_tcp_with(server, clients, wall_budget, TcpRunOptions::default())
}

/// [`run_distributed_tcp`] with an explicit address, fault injection,
/// reconnect policy, and observability options.
pub fn run_distributed_tcp_with(
    mut server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    mut opts: TcpRunOptions,
) -> Result<Server, DistributedError> {
    if server.state.cfg.scheduler_uses_timer() {
        return Err(DistributedError::UnsupportedRule("time_up"));
    }
    // `wire.*` counters are bumped from every socket thread; route them to a
    // lock-free sharded bank so frame I/O never serializes on the monitor
    // mutex, and fold the totals back in at the flush below
    opts.monitor = opts.monitor.sharded();
    // static verification, before any thread is spawned
    crate::verify::preflight(&server, &singleton_groups(&clients), Vec::new())?;
    let bind_addr = opts
        .addr
        .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
    let pending = TcpHub::bind(bind_addr)
        .map_err(tcp_to_bind)?
        .with_monitor(opts.monitor.clone());
    let addr = pending.local_addr().map_err(tcp_to_bind)?;
    let plan = opts.faults.unwrap_or_default();
    let n_clients = clients.len();
    let (exit_tx, exit_rx) = crossbeam::channel::unbounded::<ClientExit>();
    let mut handles = Vec::new();
    for mut client in clients {
        let id = client.state.id;
        let faults = plan.state_for(id);
        let reconnect = opts.reconnect;
        let exit_tx = exit_tx.clone();
        handles.push(std::thread::spawn(move || {
            let result = std::panic::catch_unwind(AssertUnwindSafe(
                move || -> Result<ClientOutcome, TcpError> {
                    let mut peer = ResilientPeer::connect(addr, id)?.with_faults(faults);
                    if let Some(policy) = reconnect {
                        peer = peer.with_reconnect(policy);
                    }
                    let mut ctx = Ctx::at(VirtualTime::ZERO);
                    client.start(&mut ctx);
                    let mut finished = ctx.finished;
                    loop {
                        for out in ctx.outbox {
                            if peer.send(&out.msg)? == SendOutcome::Disconnected
                                && reconnect.is_none()
                            {
                                return Ok(ClientOutcome::Disconnected);
                            }
                        }
                        if finished {
                            return Ok(ClientOutcome::Finished);
                        }
                        let msg = match peer.recv() {
                            Ok(m) => m,
                            // link gone for good (no policy, or retries spent)
                            Err(TcpError::Closed) | Err(TcpError::Io(_)) => {
                                return Ok(ClientOutcome::Disconnected)
                            }
                            Err(e) => return Err(e),
                        };
                        ctx = Ctx::at(VirtualTime::ZERO);
                        client.handle(&msg, &mut ctx);
                        finished = ctx.finished;
                    }
                },
            ));
            let outcome = match result {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => ClientOutcome::Transport(e.to_string()),
                Err(payload) => ClientOutcome::Panicked(panic_detail(payload)),
            };
            let _ = exit_tx.send(ClientExit { id, outcome });
        }));
    }
    drop(exit_tx);

    // fsa::allow(FSA002, distributed runtime wall budget; real threads and sockets are not on the virtual clock)
    let deadline = Instant::now() + wall_budget;
    let mut exits: BTreeMap<ParticipantId, ClientOutcome> = BTreeMap::new();
    let hub = match pending.accept_within(n_clients, wall_budget.min(Duration::from_secs(30))) {
        Ok(hub) => hub,
        Err(_) => {
            // a worker that died during connect explains the stalled accept
            // better than a generic timeout does
            while let Ok(exit) = exit_rx.try_recv() {
                exits.insert(exit.id, exit.outcome);
            }
            for (id, outcome) in exits {
                match outcome {
                    ClientOutcome::Panicked(detail) => {
                        return Err(DistributedError::ClientPanic { id, detail })
                    }
                    ClientOutcome::Transport(detail) => {
                        return Err(DistributedError::Codec(detail))
                    }
                    ClientOutcome::Disconnected => {
                        return Err(DistributedError::PeerDisconnected(id))
                    }
                    ClientOutcome::Finished => {}
                }
            }
            return Err(DistributedError::Timeout);
        }
    };

    let mut done = Completion::default();
    let result = loop {
        while let Ok(exit) = exit_rx.try_recv() {
            if matches!(exit.outcome, ClientOutcome::Disconnected) {
                done.gone.insert(exit.id);
            }
            exits.insert(exit.id, exit.outcome);
        }
        // panics take priority over whatever else is queued
        if let Some((id, detail)) = exits.iter().find_map(|(id, o)| match o {
            ClientOutcome::Panicked(d) => Some((*id, d.clone())),
            _ => None,
        }) {
            break Err(DistributedError::ClientPanic { id, detail });
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
                let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                server.handle(&msg, &mut ctx);
                ship_tcp_ctx(&hub, &mut server, ctx, &mut done, &opts.monitor, &exits)
            }
            HubEvent::Disconnected(id) => handle_tcp_disconnect(
                &hub,
                &mut server,
                id,
                &mut done,
                &opts.monitor,
                &exit_rx,
                &mut exits,
            ),
            HubEvent::Rejoined(id) => {
                // the link is live again: await this client's report normally
                done.gone.remove(&id);
                let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, opts.monitor.clone());
                server.notify_rejoin(id, &mut ctx);
                ship_tcp_ctx(&hub, &mut server, ctx, &mut done, &opts.monitor, &exits)
            }
            HubEvent::Codec(_, detail) => Err(DistributedError::Codec(detail)),
        };
        if let Err(e) = step {
            break Err(e);
        }
    };
    // socket threads bump `wire.*` until the hub drops and workers join;
    // flush only after that, so the fold sees every frame
    match result {
        Ok(()) => {
            // closing the hub unblocks any worker still mid-reconnect (its
            // retries hit a dead listener and run out), so joins terminate
            drop(hub);
            for h in handles {
                let _ = h.join();
            }
            opts.monitor.flush_counters();
            Ok(server)
        }
        Err(e) => {
            drop(hub);
            opts.monitor.flush_counters();
            Err(e)
        }
    }
}

/// Builds a [`crate::runner::CourseReport`] from a finished distributed
/// server. Virtual-time and payload-byte accounting stay zero — real
/// transports have no virtual clock, and wire traffic is counted by the
/// monitor's `wire.*` counters instead — but rounds, learning curve, finish
/// reason, dropouts, and reconnects are all filled in.
pub fn distributed_report(server: &Server) -> crate::runner::CourseReport {
    crate::runner::CourseReport::from_server(server, &[])
}

fn tcp_to_bind(e: TcpError) -> DistributedError {
    match e {
        TcpError::Io(io) => DistributedError::Bind(io),
        other => DistributedError::Bind(std::io::Error::other(other.to_string())),
    }
}

/// A hub-reported disconnect: distinguish a clean exit (the client already
/// reported and closed), a panic racing the event, and a genuine dropout.
#[allow(clippy::too_many_arguments)]
fn handle_tcp_disconnect(
    hub: &TcpHub,
    server: &mut Server,
    id: ParticipantId,
    done: &mut Completion,
    monitor: &MonitorHandle,
    exit_rx: &crossbeam::channel::Receiver<ClientExit>,
    exits: &mut BTreeMap<ParticipantId, ClientOutcome>,
) -> Result<(), DistributedError> {
    if server.state.client_reports.contains_key(&id) {
        return Ok(()); // finished client closing its socket — not a dropout
    }
    // brief grace window: if the socket died because the worker panicked, the
    // exit report is microseconds behind the EOF — prefer ClientPanic
    // fsa::allow(FSA002, wall-clock grace window for racing a real socket EOF against the exit report)
    let grace = Instant::now() + Duration::from_millis(100);
    while !exits.contains_key(&id) {
        let left = grace.saturating_duration_since(Instant::now()); // fsa::allow(FSA002, same grace window)
        if left.is_zero() {
            break;
        }
        match exit_rx.recv_timeout(left) {
            Ok(exit) => {
                if matches!(exit.outcome, ClientOutcome::Disconnected) {
                    done.gone.insert(exit.id);
                }
                exits.insert(exit.id, exit.outcome);
            }
            Err(_) => break,
        }
    }
    // a Finished exit does NOT settle this: the worker ended cleanly but its
    // report never arrived (checked above) and the link is now dead, so the
    // report is lost for good — fall through to the dropout path
    if let Some(ClientOutcome::Panicked(detail)) = exits.get(&id) {
        return Err(DistributedError::ClientPanic {
            id,
            detail: detail.clone(),
        });
    }
    done.gone.insert(id);
    let mut ctx = Ctx::with_monitor(VirtualTime::ZERO, monitor.clone());
    apply_dropout(server, id, &mut ctx)?;
    ship_tcp_ctx(hub, server, ctx, done, monitor, exits)
}

/// Ships a server context over the hub. A send that fails because the
/// receiver's connection just died is routed through the dropout policy
/// instead of aborting the course.
fn ship_tcp_ctx(
    hub: &TcpHub,
    server: &mut Server,
    ctx: Ctx,
    done: &mut Completion,
    monitor: &MonitorHandle,
    exits: &BTreeMap<ParticipantId, ClientOutcome>,
) -> Result<(), DistributedError> {
    debug_assert!(
        ctx.timers.is_empty(),
        "timers require the standalone runner"
    );
    done.finished |= ctx.finished;
    let mut pending = std::collections::VecDeque::from(ctx.outbox);
    while let Some(out) = pending.pop_front() {
        match hub.send(&out.msg) {
            Ok(()) => {}
            Err(TcpError::UnknownReceiver(_)) | Err(TcpError::Io(_))
                if out.msg.receiver != SERVER_ID =>
            {
                let rcv = out.msg.receiver;
                if server.state.client_reports.contains_key(&rcv)
                    || exits.contains_key(&rcv)
                    || done.finished
                {
                    continue; // late send to a client that is already done
                }
                let mut dctx = Ctx::with_monitor(VirtualTime::ZERO, monitor.clone());
                apply_dropout(server, rcv, &mut dctx)?;
                done.finished |= dctx.finished;
                for extra in dctx.outbox {
                    pending.push_back(extra);
                }
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
