//! The distributed driver: the same workers on real threads.
//!
//! Each participant runs on its own thread behind a [`Link`]; every message
//! crosses the [`Transport`] as wire bytes, so the whole message-translation
//! path (§3.5) is exercised. There is one server loop ([`ServerLoop`], a
//! state machine stepped by [`LoopEvent`]s; it sees no clock), one client
//! worker and one edge relay, generic over the transport (in-process bus or
//! TCP, picked by the options type) and over the [`TopologyPlan`] built from
//! `cfg.topology` — a star is simply the plan with no edges. Virtual time
//! does not apply here — `time_up` courses must use the standalone runner —
//! but the `all_received` and `goal_achieved` strategies run unchanged,
//! demonstrating that worker behaviour is transport-independent.
//!
//! # Routing
//!
//! In a hierarchy every client frame bound for the server is re-addressed
//! to the client's parent edge, and edges relay upstream frames to their own
//! parent unchanged (lossless: the server still sees every update
//! individually, so aggregation is exactly the star's). Downloads go
//! point-to-point, server → client. Per-tier `topo.bytes_*` counters are
//! emitted only when the plan has edges.
//!
//! # Fault tolerance
//!
//! A client whose link dies is handled per the configured
//! [`DropoutPolicy`] — the course aborts with
//! [`DistributedError::PeerDisconnected`], or the client leaves the roster
//! and the round completes with the survivors. TCP participants may come
//! back through the rejoin handshake. An edge that is gone for good has its
//! subtree *re-homed*: each direct child is told its new parent (the nearest
//! live ancestor) with a [`REHOME`] control frame and every subtree client is
//! re-armed; an edge that rejoins has its subtree re-armed in place.
//!
//! **The lost-report rule.** The server answers each stored
//! `MetricsReport` with a [`SHUTDOWN`] frame, and a client worker runs until
//! that frame arrives or its link dies, so a client's link closes only after
//! its report has landed. Hence one rule, direct or relayed: a client whose
//! `Closed` arrives before its report is a dropout at once, and a client that
//! has reported is never one. Every dropout, whatever noticed it, goes
//! through one test-and-set on the `gone` set.
//!
//! Failures keep their identity: a bind failure, a codec failure, a client
//! panic, and a true wall-budget timeout each surface as their own
//! [`DistributedError`] variant instead of collapsing into `Timeout`.

use crate::client::Client;
use crate::config::DropoutPolicy;
use crate::ctx::Ctx;
use crate::server::Server;
use crate::verify::{refusal, server_plan, singleton_groups};
use crossbeam::channel::{unbounded, Receiver, Sender};
use fs_monitor::MonitorHandle;
use fs_net::bus::BusError;
use fs_net::tcp::TcpError;
use fs_net::topology::{bytes_down_counter, bytes_up_counter};
use fs_net::wire::payload_wire_len;
use fs_net::{
    Event, Message, MessageKind, ParticipantId, Payload, SendOutcome, TopologyPlan, SERVER_ID,
};
use fs_sim::VirtualTime;
use fs_verify::{verify_topology_plan, HandlerSpec, VerifyReport};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use crate::transport::Dialer;
pub use crate::transport::{
    BusRunOptions, Link, LoopEvent, ServerPort, TcpRunOptions, Transport, RESERVED,
};

/// How long the server loop blocks on its port before it looks at worker
/// exits again. It decides no outcome, only how soon a quiet loop sees an
/// exit.
pub const POLL: Duration = Duration::from_millis(20);

/// Ceiling on the wait for every participant to dial in.
pub const ACCEPT_CAP: Duration = Duration::from_secs(30);

/// Server → participant control frame: "your upstream parent is now the id
/// in the payload". Sent when an edge is gone for good.
pub const REHOME: MessageKind = MessageKind::Custom(0x71);

/// Server → participant control frame: stop. Answers each stored client
/// report, and ends every live edge relay once the course is complete.
pub const SHUTDOWN: MessageKind = MessageKind::Custom(0x72);

/// Errors from a distributed run, one variant per failure class.
#[derive(Debug)]
pub enum DistributedError {
    /// The threaded driver cannot run this course as configured: a rule
    /// that needs virtual time (`time_up`), a handler on a reserved message
    /// kind, a gossip course over a lossy transport.
    Unsupported(String),
    /// The course was refused before any thread was spawned: its preflight
    /// report holds an Error, or its topology is one this driver cannot
    /// realize (`FSV057` for gossip, which has no server; `FSV050` for a
    /// plan that fails to build).
    Verification(Box<VerifyReport>),
    /// A bus operation failed.
    Bus(BusError),
    /// The server could not bind its listening address.
    Bind(std::io::Error),
    /// A socket operation failed terminally: a refused dial, a link lost
    /// with no reconnect policy or with its retries spent.
    Io(String),
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
            DistributedError::Unsupported(what) => {
                write!(f, "unsupported on the threaded driver: {what}")
            }
            DistributedError::Verification(report) => {
                write!(f, "course rejected by static verification:\n{report}")
            }
            DistributedError::Bus(e) => write!(f, "bus error: {e}"),
            DistributedError::Bind(e) => write!(f, "failed to bind server address: {e}"),
            DistributedError::Io(e) => write!(f, "socket failure: {e}"),
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

impl From<TcpError> for DistributedError {
    fn from(e: TcpError) -> Self {
        match e {
            TcpError::Codec(c) => DistributedError::Codec(c.to_string()),
            TcpError::FrameTooLarge(_) => DistributedError::Codec(e.to_string()),
            TcpError::Io(io) => DistributedError::Io(io.to_string()),
            TcpError::Closed | TcpError::UnknownReceiver(_) => DistributedError::Io(e.to_string()),
        }
    }
}

/// Why a worker thread stopped.
#[derive(Debug)]
pub enum WorkerOutcome {
    /// Clean end: a client or an edge received [`SHUTDOWN`], a gossip peer
    /// shipped its final model.
    Finished,
    /// Its (possibly fault-injected) link died for good.
    Disconnected,
    /// A handler panicked.
    Panicked(String),
    /// A transport operation failed terminally.
    Failed(DistributedError),
}

impl WorkerOutcome {
    /// Surfaces the two failing outcomes as the course's error; `Ok(true)`
    /// is a clean finish, `Ok(false)` a dead link.
    pub fn settled(self, id: ParticipantId) -> Result<bool, DistributedError> {
        match self {
            WorkerOutcome::Finished => Ok(true),
            WorkerOutcome::Disconnected => Ok(false),
            WorkerOutcome::Panicked(detail) => Err(DistributedError::ClientPanic { id, detail }),
            WorkerOutcome::Failed(e) => Err(e),
        }
    }
}

/// What the poll loop steps: the server-based [`ServerLoop`], or a gossip
/// course's final-model collector.
pub trait Course {
    /// Applies one event.
    fn step(&mut self, event: LoopEvent, port: &mut dyn ServerPort)
        -> Result<(), DistributedError>;

    /// Whether the course is over and the loop may return.
    fn complete(&self) -> bool;

    /// Last words to still-running workers after a completed course.
    fn wind_down(&mut self, _port: &mut dyn ServerPort) {}
}

/// One distributed run in flight: an opened transport, the worker threads
/// spawned onto it, and the channel their exit reports arrive on.
pub struct Session<P> {
    /// The run's (sharded) monitor handle.
    pub monitor: MonitorHandle,
    dialers: BTreeMap<ParticipantId, Dialer>,
    accept: Box<dyn FnOnce(Duration) -> Result<P, DistributedError>>,
    wall_budget: Duration,
    exit_tx: Sender<(ParticipantId, WorkerOutcome)>,
    exits: Receiver<(ParticipantId, WorkerOutcome)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<P: ServerPort> Session<P> {
    /// Opens `transport` for participants `ids` (the server excluded).
    pub fn open<T: Transport<Port = P>>(
        transport: T,
        ids: &[ParticipantId],
        wall_budget: Duration,
    ) -> Result<Self, DistributedError> {
        let opened = transport.open(ids)?;
        let (exit_tx, exits) = unbounded();
        Ok(Session {
            monitor: opened.monitor,
            dialers: opened.dialers.into_iter().collect(),
            accept: opened.accept,
            wall_budget,
            exit_tx,
            exits,
            handles: Vec::new(),
        })
    }

    /// Spawns participant `id`'s worker. The thread dials its link, runs
    /// `body`, reports the outcome — a caught panic included — and only then
    /// lets the link close, so a `Closed` event can never overtake the exit
    /// report that explains it. An `id` that was not given to
    /// [`Session::open`], or is spawned twice, is an error.
    pub fn spawn<F>(
        &mut self,
        id: ParticipantId,
        announce: bool,
        body: F,
    ) -> Result<(), DistributedError>
    where
        F: FnOnce(&mut dyn Link) -> Result<WorkerOutcome, DistributedError> + Send + 'static,
    {
        let dial = self.dialers.remove(&id).ok_or_else(|| {
            DistributedError::Unsupported(format!("participant {id} has no unspawned link"))
        })?;
        let exit_tx = self.exit_tx.clone();
        self.handles.push(std::thread::spawn(move || {
            let mut link = None;
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                body(link.insert(dial(announce)?).as_mut())
            }));
            let outcome = match result {
                Ok(Ok(outcome)) => outcome,
                Ok(Err(e)) => WorkerOutcome::Failed(e),
                Err(payload) => {
                    WorkerOutcome::Panicked(if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "opaque panic payload".to_string()
                    })
                }
            };
            let _ = exit_tx.send((id, outcome));
            drop(link);
        }));
        Ok(())
    }

    /// Waits for every participant to dial in, pumps `course` to completion
    /// (or the wall budget), and tears the run down.
    pub fn run(self, course: &mut impl Course) -> Result<(), DistributedError> {
        #[expect(
            clippy::disallowed_methods,
            reason = "the distributed runtime's one wall-clock read: real threads and sockets are not on the virtual clock"
        )]
        let start = Instant::now();
        let mut port = match (self.accept)(self.wall_budget.min(ACCEPT_CAP)) {
            Ok(port) => port,
            Err(stalled) => {
                // a worker that died while dialing explains the stalled
                // accept better than a generic timeout does
                while let Ok((id, outcome)) = self.exits.try_recv() {
                    if !outcome.settled(id)? {
                        return Err(DistributedError::PeerDisconnected(id));
                    }
                }
                return Err(stalled);
            }
        };
        let result = pump(&mut port, &self.exits, start, self.wall_budget, course);
        if result.is_ok() {
            course.wind_down(&mut port);
        }
        // closing the port unblocks any worker still mid-reconnect (its
        // retries hit a dead listener and run out), so joins terminate
        drop(port);
        if result.is_ok() {
            // error paths must not join: surviving workers may be blocked on
            // their links and would deadlock the teardown
            for h in self.handles {
                let _ = h.join();
            }
        }
        // every counter producer is done (or abandoned): fold the sharded
        // bank into the monitor before anyone reads it back
        self.monitor.flush_counters();
        result
    }
}

/// The one poll loop. Worker exits are drained before every port event is
/// stepped — including between receiving it and stepping it — so an exit
/// report (a panic above all) always outranks queued traffic, and the exit
/// that causally precedes a `Closed` is always seen first.
fn pump(
    port: &mut dyn ServerPort,
    exits: &Receiver<(ParticipantId, WorkerOutcome)>,
    start: Instant,
    wall_budget: Duration,
    course: &mut impl Course,
) -> Result<(), DistributedError> {
    let mut pending = None;
    loop {
        while let Ok((id, outcome)) = exits.try_recv() {
            course.step(LoopEvent::Exit(id, outcome), port)?;
        }
        if let Some(event) = pending.take() {
            course.step(event, port)?;
        }
        if course.complete() {
            return Ok(());
        }
        let remaining = wall_budget.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(DistributedError::Timeout);
        }
        pending = port.recv_event(remaining.min(POLL))?;
    }
}

/// The server's side of a distributed course as a state machine: feed it
/// [`LoopEvent`]s, it drives the [`Server`] and ships what the server wants
/// sent.
pub struct ServerLoop {
    /// The server being driven; handed back when the course completes.
    pub server: Server,
    plan: TopologyPlan,
    /// The server terminated the course.
    finished: bool,
    /// Clients whose report can never arrive.
    gone: BTreeSet<ParticipantId>,
    dead_edges: BTreeSet<ParticipantId>,
}

impl ServerLoop {
    /// A loop over `server`, routed per `plan`, recording into `monitor`
    /// (the server's handlers and the loop's per-tier metering alike).
    pub fn new(mut server: Server, plan: TopologyPlan, monitor: MonitorHandle) -> Self {
        server.state.monitor = monitor;
        ServerLoop {
            server,
            plan,
            finished: false,
            gone: BTreeSet::new(),
            dead_edges: BTreeSet::new(),
        }
    }

    fn reported(&self, id: ParticipantId) -> bool {
        self.server.state.client_reports.contains_key(&id)
    }

    /// The single dropout path: the first caller to put `id` in `gone`
    /// applies the dropout policy and gets the server's reaction to ship. A
    /// client that has reported is never a dropout.
    fn dropout(&mut self, id: ParticipantId) -> Result<Option<Ctx>, DistributedError> {
        if self.reported(id) || !self.gone.insert(id) {
            return Ok(None);
        }
        let state = &self.server.state;
        let survivors = state.roster.len() - usize::from(state.roster_index.contains(&id));
        match state.cfg.dropout {
            DropoutPolicy::Survivors { min_survivors } if survivors >= min_survivors => {
                let mut ctx = Ctx::at(VirtualTime::ZERO);
                self.server.notify_dropout(id, &mut ctx);
                Ok(Some(ctx))
            }
            _ => Err(DistributedError::PeerDisconnected(id)),
        }
    }

    fn drop_client(
        &mut self,
        id: ParticipantId,
        port: &mut dyn ServerPort,
    ) -> Result<(), DistributedError> {
        match self.dropout(id)? {
            Some(ctx) => self.ship(ctx, port),
            None => Ok(()),
        }
    }

    /// Ships a server context (downloads go point-to-point). A send that
    /// finds its receiver gone is a dropout if the receiver is a client
    /// still owed work, and a lost frame otherwise.
    fn ship(&mut self, mut ctx: Ctx, port: &mut dyn ServerPort) -> Result<(), DistributedError> {
        debug_assert!(
            ctx.timers.is_empty(),
            "timers require the standalone runner"
        );
        self.finished |= ctx.finished;
        let mut pending = VecDeque::from(ctx.take_messages());
        while let Some(out) = pending.pop_front() {
            let to = out.msg.receiver;
            if port.send(&out.msg)? {
                if !self.plan.edges.is_empty() {
                    self.server.state.monitor.add(
                        bytes_down_counter(self.plan.link_level(to)),
                        payload_wire_len(&out.msg.payload) as u64,
                    );
                }
            } else if !(self.plan.is_edge(to) || self.finished) {
                if let Some(mut reaction) = self.dropout(to)? {
                    self.finished |= reaction.finished;
                    pending.extend(reaction.take_messages());
                }
            }
        }
        Ok(())
    }

    /// Treats `id` as freshly reconnected: in-flight work is void, the
    /// server re-arms it.
    fn rearm(
        &mut self,
        id: ParticipantId,
        port: &mut dyn ServerPort,
    ) -> Result<(), DistributedError> {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        self.server.notify_rejoin(id, &mut ctx);
        self.ship(ctx, port)
    }

    fn rearm_subtree(
        &mut self,
        edge: ParticipantId,
        port: &mut dyn ServerPort,
    ) -> Result<(), DistributedError> {
        for c in self.plan.subtree_clients(edge) {
            if !(self.gone.contains(&c) || self.reported(c)) {
                self.rearm(c, port)?;
            }
        }
        Ok(())
    }

    /// An edge is gone for good: re-home its direct children onto the
    /// nearest live ancestor and re-arm every subtree client still owing its
    /// report, so the round recovers.
    fn rehome(
        &mut self,
        dead: ParticipantId,
        port: &mut dyn ServerPort,
    ) -> Result<(), DistributedError> {
        if !self.dead_edges.insert(dead) {
            return Ok(());
        }
        let mut new_parent = self.plan.parent_of(dead).unwrap_or(SERVER_ID);
        while self.dead_edges.contains(&new_parent) {
            new_parent = self.plan.parent_of(new_parent).unwrap_or(SERVER_ID);
        }
        for &child in self.plan.children_of(dead) {
            if !self.dead_edges.contains(&child) && !self.gone.contains(&child) {
                // a freshly-dead child is moot — its own exit re-homes or
                // drops it in turn
                let _ = port.send(&rehome_msg(child, new_parent))?;
            }
        }
        self.rearm_subtree(dead, port)
    }
}

impl Course for ServerLoop {
    fn step(
        &mut self,
        event: LoopEvent,
        port: &mut dyn ServerPort,
    ) -> Result<(), DistributedError> {
        match event {
            LoopEvent::Message(msg) => {
                let mut ctx = Ctx::at(VirtualTime::ZERO);
                self.server.handle(&msg, &mut ctx);
                self.ship(ctx, port)?;
                if msg.kind == MessageKind::MetricsReport && self.reported(msg.sender) {
                    // the acknowledgement that ends the client's worker;
                    // point-to-point and unmetered, like `REHOME`
                    let _ = port.send(&shutdown_msg(msg.sender))?;
                }
            }
            LoopEvent::Exit(id, outcome) => match (outcome.settled(id)?, self.plan.is_edge(id)) {
                (true, _) => {} // shutdown acknowledged
                (false, true) => self.rehome(id, port)?,
                (false, false) => self.drop_client(id, port)?,
            },
            // an edge's link closing decides nothing: the edge either
            // rejoins, or its worker exits `Disconnected` and is re-homed
            LoopEvent::Closed(id) if self.plan.is_edge(id) => {}
            // the lost-report rule (module docs)
            LoopEvent::Closed(id) => self.drop_client(id, port)?,
            LoopEvent::Rejoined(id) if self.plan.is_edge(id) => self.rearm_subtree(id, port)?,
            LoopEvent::Rejoined(id) => {
                // the link is live again: await this client's report normally
                self.gone.remove(&id);
                self.rearm(id, port)?;
            }
            LoopEvent::Codec(detail) => return Err(DistributedError::Codec(detail)),
        }
        Ok(())
    }

    /// The course is complete when the server terminated it and every roster
    /// member has either reported metrics or is provably gone.
    fn complete(&self) -> bool {
        let state = &self.server.state;
        self.finished
            && state
                .roster
                .iter()
                .all(|id| state.client_reports.contains_key(id) || self.gone.contains(id))
    }

    fn wind_down(&mut self, port: &mut dyn ServerPort) {
        for &e in &self.plan.edges {
            if !self.dead_edges.contains(&e) {
                let _ = port.send(&shutdown_msg(e));
            }
        }
    }
}

fn shutdown_msg(to: ParticipantId) -> Message {
    Message::new(SERVER_ID, to, SHUTDOWN, 0, Payload::Empty)
}

fn rehome_msg(to: ParticipantId, new_parent: ParticipantId) -> Message {
    let payload = Payload::Bytes(new_parent.to_le_bytes().to_vec());
    Message::new(SERVER_ID, to, REHOME, 0, payload)
}

/// Decodes a [`REHOME`] frame's new-parent id; `None` for any other frame.
fn rehome_target(msg: &Message) -> Option<ParticipantId> {
    match &msg.payload {
        Payload::Bytes(b) if msg.kind == REHOME && msg.sender == SERVER_ID => {
            Some(ParticipantId::from_le_bytes(b.as_slice().try_into().ok()?))
        }
        _ => None,
    }
}

/// A participant's way up: its current parent, and — when the plan has
/// edges — the tier counter its upstream bytes are metered into.
struct Uplink {
    parent: ParticipantId,
    meter: Option<(MonitorHandle, &'static str)>,
}

impl Uplink {
    fn of(id: ParticipantId, plan: &TopologyPlan, monitor: &MonitorHandle) -> Self {
        Uplink {
            parent: plan.parent_of(id).unwrap_or(SERVER_ID),
            meter: (!plan.edges.is_empty())
                .then(|| (monitor.clone(), bytes_up_counter(plan.link_level(id)))),
        }
    }

    fn send(&self, link: &mut dyn Link, msg: &Message) -> Result<SendOutcome, DistributedError> {
        if let Some((monitor, counter)) = &self.meter {
            monitor.add(counter, payload_wire_len(&msg.payload) as u64);
        }
        link.send(msg)
    }
}

/// The client worker: the client's own handlers, with frames bound for the
/// server re-addressed to the current parent and [`REHOME`] swapping that
/// parent mid-course. It runs until [`SHUTDOWN`] acknowledges its report, or
/// its link dies.
fn client_worker(
    mut client: Client,
    mut up: Uplink,
    link: &mut dyn Link,
) -> Result<WorkerOutcome, DistributedError> {
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    client.start(&mut ctx);
    loop {
        for mut out in ctx.take_messages() {
            if out.msg.receiver == SERVER_ID {
                out.msg.receiver = up.parent;
            }
            match up.send(link, &out.msg)? {
                SendOutcome::Sent => {}
                // a report its own link lost is never acknowledged
                SendOutcome::Dropped if out.msg.kind != MessageKind::MetricsReport => {}
                SendOutcome::Dropped | SendOutcome::Disconnected => {
                    return Ok(WorkerOutcome::Disconnected)
                }
            }
        }
        let Some(msg) = link.recv()? else {
            return Ok(WorkerOutcome::Disconnected);
        };
        if msg.kind == SHUTDOWN {
            return Ok(WorkerOutcome::Finished);
        }
        ctx = Ctx::at(VirtualTime::ZERO);
        match rehome_target(&msg) {
            Some(parent) => up.parent = parent,
            None => client.handle(&msg, &mut ctx),
        }
    }
}

/// The edge relay: forwards every upstream frame to its parent unchanged
/// (lossless), obeying [`REHOME`] / [`SHUTDOWN`] control.
fn edge_worker(mut up: Uplink, link: &mut dyn Link) -> Result<WorkerOutcome, DistributedError> {
    loop {
        let Some(mut msg) = link.recv()? else {
            return Ok(WorkerOutcome::Disconnected);
        };
        if msg.kind == SHUTDOWN {
            return Ok(WorkerOutcome::Finished);
        }
        if let Some(parent) = rehome_target(&msg) {
            up.parent = parent;
            continue;
        }
        msg.receiver = up.parent;
        if up.send(link, &msg)? == SendOutcome::Disconnected {
            return Ok(WorkerOutcome::Disconnected);
        }
    }
}

/// The first event in a handler's table entry (the event it is registered
/// for, then the ones it declares it emits) whose kind is [`RESERVED`].
fn reserved_event(handler: HandlerSpec) -> Option<Event> {
    let events = [handler.event].into_iter().chain(handler.emits);
    events
        .into_iter()
        .find(|e| matches!(e, Event::Message(MessageKind::Custom(tag)) if RESERVED.contains(tag)))
}

/// Realizes the configured topology and statically verifies the assembled
/// course together with the plan, before any thread is spawned.
fn routed_plan(server: &Server, clients: &[Client]) -> Result<TopologyPlan, DistributedError> {
    let cfg = &server.state.cfg;
    if cfg.rule.round_timer().is_some() {
        let what = "the time_up rule needs virtual time (use the standalone runner)";
        return Err(DistributedError::Unsupported(what.to_string()));
    }
    let tables = clients.iter().map(Client::specs).chain([server.specs()]);
    if let Some(event) = tables.flatten().find_map(reserved_event) {
        return Err(DistributedError::Unsupported(format!(
            "a handler is registered for, or declares it emits, {event}; Custom kinds \
             {RESERVED:#x?} carry the driver's own control frames"
        )));
    }
    // nothing else can be verified without a plan (a gossip course has no
    // server for this driver to run)
    let plan = server_plan(cfg, clients.len()).map_err(refusal)?;
    crate::verify::preflight(
        server,
        &singleton_groups(clients),
        verify_topology_plan(&plan).diagnostics,
    )?;
    Ok(plan)
}

fn drive<T: Transport>(
    server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    transport: T,
) -> Result<Server, DistributedError> {
    let plan = routed_plan(&server, &clients)?;
    let ids: Vec<ParticipantId> = plan
        .edges
        .iter()
        .copied()
        .chain(clients.iter().map(|c| c.state.id))
        .collect();
    let mut session = Session::open(transport, &ids, wall_budget)?;
    for &edge in &plan.edges {
        let up = Uplink::of(edge, &plan, &session.monitor);
        session.spawn(edge, true, move |link| edge_worker(up, link))?;
    }
    for client in clients {
        let id = client.state.id;
        let up = Uplink::of(id, &plan, &session.monitor);
        session.spawn(id, false, move |link| client_worker(client, up, link))?;
    }
    let mut course = ServerLoop::new(server, plan, session.monitor.clone());
    session.run(&mut course)?;
    Ok(course.server)
}

/// Runs a course over threads and the in-process bus, returning the server
/// (with its histories and client reports) once the course finishes. The
/// course's `cfg.topology` decides the routing: star or hierarchy; `opts`
/// carries fault injection and observability (`BusRunOptions::default()`
/// for neither).
pub fn run_distributed_with(
    server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    opts: BusRunOptions,
) -> Result<Server, DistributedError> {
    drive(server, clients, wall_budget, opts)
}

/// Runs a course over real TCP sockets on localhost: the server binds an
/// ephemeral port (or `opts`' address), every participant runs on its own
/// thread with its own connection, and all traffic crosses the kernel as
/// length-prefixed wire frames. The same driver as
/// [`run_distributed_with`] over the other transport; `opts` also carries
/// fault injection, the reconnect policy and observability.
pub fn run_distributed_tcp_with(
    server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    opts: TcpRunOptions,
) -> Result<Server, DistributedError> {
    drive(server, clients, wall_budget, opts)
}

/// Builds a [`crate::runner::CourseReport`] from a finished distributed
/// server. Virtual-time and payload-byte accounting stay zero — real
/// transports have no virtual clock, and wire traffic is counted by the
/// monitor's `wire.*` counters instead — but rounds, learning curve, finish
/// reason, dropouts, and reconnects are all filled in.
pub fn distributed_report(server: &Server) -> crate::runner::CourseReport {
    crate::runner::CourseReport::from_server(server, &[])
}

#[cfg(test)]
mod tests {
    //! The server loop without threads, sockets, sleeps or a clock: scripted
    //! events and a port that records what the loop sends. Plus one real
    //! threaded course at the end.
    use super::*;
    use crate::aggregator::FedAvg;
    use crate::config::FlConfig;
    use crate::course::CourseBuilder;
    use crate::sampler::Sampler;
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_monitor::RecordingMonitor;
    use fs_net::Topology;
    use fs_tensor::model::{logistic_regression, Metrics};
    use fs_tensor::{ParamMap, Tensor};
    use std::sync::{Arc, Mutex};

    /// Records what the loop sends; receivers in `dead` are gone.
    #[derive(Default)]
    struct ScriptPort {
        sent: Vec<Message>,
        dead: BTreeSet<ParticipantId>,
        queued: VecDeque<LoopEvent>,
    }

    impl ServerPort for ScriptPort {
        fn recv_event(&mut self, _: Duration) -> Result<Option<LoopEvent>, DistributedError> {
            Ok(self.queued.pop_front())
        }

        fn send(&mut self, msg: &Message) -> Result<bool, DistributedError> {
            if self.dead.contains(&msg.receiver) {
                return Ok(false);
            }
            self.sent.push(msg.clone());
            Ok(true)
        }
    }

    impl ScriptPort {
        /// How many frames of `kind` went to `to`.
        fn count(&self, kind: MessageKind, to: ParticipantId) -> usize {
            let frames = self.sent.iter().filter(|msg| msg.receiver == to);
            frames.filter(|msg| msg.kind == kind).count()
        }
    }

    const HIER3: Topology = Topology::Hierarchical {
        tiers: 3,
        fanout: 2,
    };

    /// A loop over a bare server expecting `n` clients, routed per `topology`.
    fn machine(n: usize, topology: Topology) -> ServerLoop {
        let cfg = FlConfig {
            concurrency: n,
            total_rounds: 2,
            topology,
            ..Default::default()
        };
        let mut global = ParamMap::new();
        global.insert("w", Tensor::zeros(&[2]));
        let plan = TopologyPlan::build(topology, n, cfg.seed).expect("plan");
        let aggregator = Box::new(FedAvg::new(0.0));
        let server = Server::new(cfg, global, n, aggregator, Sampler::Uniform, None);
        ServerLoop::new(server, plan, MonitorHandle::null())
    }

    fn from(id: ParticipantId, kind: MessageKind, payload: Payload) -> LoopEvent {
        LoopEvent::Message(Message::new(id, SERVER_ID, kind, 0, payload))
    }

    fn join(id: ParticipantId) -> LoopEvent {
        from(id, MessageKind::JoinIn, Payload::Empty)
    }

    fn report(id: ParticipantId) -> LoopEvent {
        let metrics = Metrics {
            loss: 0.5,
            accuracy: 0.5,
            n: 1,
        };
        from(id, MessageKind::MetricsReport, Payload::Report { metrics })
    }

    /// `id`'s update on the current global model, for the current round.
    fn update(m: &ServerLoop, id: ParticipantId) -> LoopEvent {
        let state = &m.server.state;
        let payload = Payload::Update {
            params: state.global.clone(),
            start_version: state.round,
            n_samples: 1,
            n_steps: 1,
        };
        let msg = Message::new(id, SERVER_ID, MessageKind::Updates, state.round, payload);
        LoopEvent::Message(msg)
    }

    /// Steps `events`, all of which must succeed.
    fn feed(m: &mut ServerLoop, port: &mut ScriptPort, events: Vec<LoopEvent>) {
        for event in events {
            m.step(event, port).expect("step");
        }
    }

    fn joined(n: u32, topology: Topology) -> (ServerLoop, ScriptPort) {
        let mut m = machine(n as usize, topology);
        let mut port = ScriptPort::default();
        feed(&mut m, &mut port, (1..=n).map(join).collect());
        assert!(m.server.state.ledger.models_sent > 0, "course started");
        (m, port)
    }

    /// A four-client course whose server has terminated: every client sent
    /// both rounds' updates and was told `Finish`; nobody has reported yet.
    fn finished(topology: Topology) -> (ServerLoop, ScriptPort) {
        let (mut m, mut port) = joined(4, topology);
        for _round in 0..2 {
            let updates = (1..=4).map(|id| update(&m, id)).collect();
            feed(&mut m, &mut port, updates);
        }
        assert!(m.finished, "the server terminated the course");
        (m, port)
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "pump's wall budget starts at a real Instant"
    )]
    fn a_worker_panic_outranks_queued_messages() {
        let mut m = machine(2, Topology::Star);
        let mut port = ScriptPort::default();
        port.queued.extend([join(1), join(2)]);
        let (exit_tx, exits) = unbounded();
        let panicked = WorkerOutcome::Panicked("boom".to_string());
        exit_tx.send((2, panicked)).expect("exit report");
        let err = pump(
            &mut port,
            &exits,
            Instant::now(),
            Duration::from_secs(5),
            &mut m,
        )
        .expect_err("the panic ends the course");
        assert!(
            matches!(&err, DistributedError::ClientPanic { id: 2, detail } if detail == "boom"),
            "wrong error: {err}"
        );
        assert!(
            m.server.state.roster.is_empty(),
            "no queued join was handled"
        );
    }

    #[test]
    fn a_close_before_the_report_is_one_dropout_at_once() {
        // a link closes only after its report was acknowledged, so a close
        // ahead of the report is a loss, whether the frames went through a
        // relay or straight to the server
        for topology in [HIER3, Topology::Star] {
            let (mut m, mut port) = finished(topology);
            let lost = LoopEvent::Exit(2, WorkerOutcome::Disconnected);
            let events = vec![LoopEvent::Closed(2), lost, LoopEvent::Closed(2)];
            feed(&mut m, &mut port, events);
            assert_eq!(m.server.state.dropouts, vec![2], "{topology}");
            assert!(m.gone.contains(&2));
        }
    }

    #[test]
    fn a_reported_client_is_never_a_dropout() {
        // whether its worker saw the acknowledgement (3) or died before it
        // arrived (1: the acknowledgement finds no receiver)
        for topology in [HIER3, Topology::Star] {
            let (mut m, mut port) = finished(topology);
            port.dead.insert(1);
            let events = vec![
                report(1),
                LoopEvent::Exit(1, WorkerOutcome::Disconnected),
                LoopEvent::Closed(1),
                report(3),
                LoopEvent::Exit(3, WorkerOutcome::Finished),
                LoopEvent::Closed(3),
            ];
            feed(&mut m, &mut port, events);
            assert!(m.server.state.dropouts.is_empty(), "{topology}");
            assert!(m.gone.is_empty());
        }
    }

    #[test]
    fn each_stored_report_is_answered_by_one_shutdown_to_its_sender() {
        let (mut m, mut port) = finished(HIER3);
        let recording = Arc::new(Mutex::new(RecordingMonitor::new()));
        m.server.state.monitor = MonitorHandle::from_shared(recording.clone());
        port.sent.clear();
        feed(&mut m, &mut port, (1..=4).map(report).collect());
        let acks: Vec<(MessageKind, ParticipantId)> = port
            .sent
            .iter()
            .map(|msg| (msg.kind, msg.receiver))
            .collect();
        assert_eq!(acks, (1..=4).map(|id| (SHUTDOWN, id)).collect::<Vec<_>>());
        let recorded = recording.lock().expect("monitor");
        let tiers = recorded
            .counters()
            .keys()
            .filter(|c| c.starts_with("topo."));
        assert_eq!(tiers.count(), 0, "the acknowledgement is not metered");
        assert!(m.complete());
    }

    #[test]
    fn rearming_a_dead_edges_subtree_skips_its_reporters() {
        // hier:3x2 over 4 clients: edge 5 relays two clients; one reports,
        // then the edge dies
        let (mut m, mut port) = finished(HIER3);
        let (reporter, other) = (m.plan.children_of(5)[0], m.plan.children_of(5)[1]);
        feed(&mut m, &mut port, vec![report(reporter)]);
        let reconnects = m.server.state.reconnects;
        let dead = LoopEvent::Exit(5, WorkerOutcome::Disconnected);
        feed(&mut m, &mut port, vec![dead]);
        assert_eq!(m.server.state.reconnects, reconnects + 1, "one, not two");
        assert_eq!(
            port.count(MessageKind::Finish, reporter),
            1,
            "no second Finish"
        );
        assert_eq!(port.count(MessageKind::Finish, other), 2);
    }

    #[test]
    fn an_edge_dying_with_a_finished_clients_report_asks_for_it_again() {
        // the client is still up, waiting for the acknowledgement: it is
        // told its new parent, then `Finish` again, and its second report
        // settles it
        let (mut m, mut port) = finished(HIER3);
        let held = m.plan.children_of(5)[1];
        port.sent.clear();
        let dead = LoopEvent::Exit(5, WorkerOutcome::Disconnected);
        feed(&mut m, &mut port, vec![dead]);
        let to_held = port.sent.iter().filter(|msg| msg.receiver == held);
        let kinds: Vec<MessageKind> = to_held.map(|msg| msg.kind).collect();
        assert_eq!(kinds, vec![REHOME, MessageKind::Finish]);
        feed(&mut m, &mut port, vec![report(held)]);
        assert_eq!(port.count(SHUTDOWN, held), 1);
        assert!(m.server.state.client_reports.contains_key(&held));
        assert!(m.server.state.dropouts.is_empty());
    }

    #[test]
    fn an_edge_death_rehomes_to_the_nearest_live_ancestor() {
        // hier:3x2 over 4 clients: leaf edges 5 and 6 under top edge 7
        let (mut m, mut port) = joined(4, HIER3);
        assert_eq!(m.plan.edges, vec![5, 6, 7]);
        let orphans = m.plan.children_of(5).to_vec();
        let lost = orphans[0];
        feed(
            &mut m,
            &mut port,
            vec![LoopEvent::Exit(lost, WorkerOutcome::Disconnected)],
        );
        assert_eq!(m.server.state.dropouts, vec![lost]);

        let rehomes = |port: &ScriptPort| -> Vec<(ParticipantId, ParticipantId)> {
            let frames = port.sent.iter().filter(|msg| msg.kind == REHOME);
            frames
                .map(|msg| (msg.receiver, rehome_target(msg).expect("rehome payload")))
                .collect()
        };
        // the top edge dies: its children (edges 5 and 6) move to the server,
        // and all three surviving clients are re-armed
        let dead = |id| LoopEvent::Exit(id, WorkerOutcome::Disconnected);
        feed(&mut m, &mut port, vec![dead(7)]);
        assert_eq!(rehomes(&port), vec![(5, SERVER_ID), (6, SERVER_ID)]);
        assert_eq!(
            m.server.state.reconnects, 3,
            "gone clients are not re-armed"
        );

        // then edge 5: its plan parent (7) is dead, so the nearest *live*
        // ancestor is the server; only the child still in the course is told
        port.sent.clear();
        feed(&mut m, &mut port, vec![dead(5), dead(5)]);
        assert_eq!(rehomes(&port), vec![(orphans[1], SERVER_ID)]);
        assert_eq!(m.server.state.reconnects, 4, "one live client under edge 5");
        assert_eq!(
            m.server.state.dropouts,
            vec![lost],
            "re-homing drops nobody"
        );
    }

    #[test]
    fn rejoined_clears_gone() {
        let (mut m, mut port) = joined(3, Topology::Star);
        feed(&mut m, &mut port, vec![LoopEvent::Closed(2)]);
        assert!(m.gone.contains(&2));
        assert_eq!(m.server.state.roster, vec![1, 3]);
        feed(&mut m, &mut port, vec![LoopEvent::Rejoined(2)]);
        assert!(!m.gone.contains(&2), "its report is awaited again");
        assert_eq!(m.server.state.roster, vec![1, 3, 2]);
        assert_eq!(
            m.server.state.dropouts,
            vec![2],
            "the outage stays on record"
        );
    }

    #[test]
    fn a_client_rejoining_after_finish_is_told_the_course_is_over() {
        // the `Finish` broadcast was written to the connection that had just
        // died; without a second one the rejoiner blocks in `recv` and the
        // course waits for its report until the wall budget
        let finishes = |port: &ScriptPort, id| port.count(MessageKind::Finish, id);
        for reports_after_rejoin in [true, false] {
            let (mut m, mut port) = joined(3, Topology::Star);
            port.dead.insert(2);
            feed(&mut m, &mut port, vec![LoopEvent::Closed(2)]);
            // clients 1 and 3 carry both rounds; the server terminates
            for _round in 0..2 {
                let updates = vec![update(&m, 1), update(&m, 3)];
                feed(&mut m, &mut port, updates);
            }
            assert!(m.finished, "the server terminated the course");
            assert_eq!((finishes(&port, 1), finishes(&port, 2)), (1, 0));
            feed(&mut m, &mut port, vec![report(1), report(3)]);
            assert!(m.complete(), "2 is gone, everyone else reported");

            port.dead.clear();
            feed(&mut m, &mut port, vec![LoopEvent::Rejoined(2)]);
            assert!(!m.complete(), "the rejoiner's report is awaited again");
            assert_eq!(finishes(&port, 2), 1, "and it is told to send it");
            assert_eq!(finishes(&port, 1), 1, "nobody else hears it twice");
            let settles = if reports_after_rejoin {
                report(2)
            } else {
                LoopEvent::Closed(2)
            };
            feed(&mut m, &mut port, vec![settles]);
            assert!(m.complete());
            assert_eq!(
                m.server.state.client_reports.len(),
                2 + usize::from(reports_after_rejoin)
            );
        }
    }

    #[test]
    fn a_death_between_join_and_id_assignment_is_counted_once() {
        // the reply to the join finds the client gone (first notification),
        // then its link reports closed (second): one dropout, one seat
        let mut m = machine(3, Topology::Star);
        let mut port = ScriptPort::default();
        port.dead.insert(2);
        feed(
            &mut m,
            &mut port,
            vec![join(1), join(2), LoopEvent::Closed(2)],
        );
        assert_eq!(m.server.state.dropouts, vec![2]);
        assert_eq!(m.server.state.expected_clients, 2);
        assert_eq!(m.server.state.ledger.models_sent, 0, "client 3 is awaited");
        feed(&mut m, &mut port, vec![join(3)]);
        assert!(m.server.state.ledger.models_sent > 0, "starts with 1 and 3");
    }

    #[test]
    fn rehome_frame_roundtrips() {
        let msg = rehome_msg(7, 42);
        assert_eq!(rehome_target(&msg), Some(42));
        let other = Message::new(SERVER_ID, 7, MessageKind::Finish, 0, Payload::Empty);
        assert_eq!(rehome_target(&other), None);
    }

    #[test]
    fn control_kinds_are_distinct() {
        use crate::transport::{HELLO, LINK_CLOSED};
        let kinds = [HELLO, REHOME, SHUTDOWN, LINK_CLOSED];
        let tags: BTreeSet<u16> = kinds
            .iter()
            .map(|kind| match kind {
                MessageKind::Custom(tag) => *tag,
                other => panic!("{other:?} is not a Custom kind"),
            })
            .collect();
        assert_eq!(tags.len(), kinds.len(), "a collision swallows a frame");
        assert_eq!(tags, RESERVED.collect(), "RESERVED is exactly these four");
    }

    /// A four-client, two-round course.
    fn small_course() -> (Server, Vec<Client>) {
        let cfg = FlConfig {
            total_rounds: 2,
            concurrency: 4,
            ..Default::default()
        };
        let data = twitter_like(&TwitterConfig {
            num_clients: 4,
            per_client: 12,
            ..Default::default()
        });
        let dim = data.input_dim();
        let model = Box::new(move |rng: &mut _| {
            Box::new(logistic_regression(dim, 2, rng)) as Box<dyn fs_tensor::model::Model>
        });
        let runner = CourseBuilder::new(data, model, cfg).build();
        (runner.server, runner.clients.into_values().collect())
    }

    #[test]
    fn a_handler_on_a_reserved_kind_is_refused_up_front() {
        // on the bus a user frame of kind 0x73 would read as the sender's
        // link closing; over TCP 0x70 would vanish as a hello
        for tag in RESERVED {
            let (mut server, clients) = small_course();
            let event = Event::Message(MessageKind::Custom(tag));
            let noop = Box::new(|_: &mut _, _: &Message, _: &mut Ctx| {});
            server
                .registry_mut()
                .register_aux(event, "user_probe", vec![], noop);
            let err = run_distributed_with(
                server,
                clients,
                Duration::from_secs(5),
                BusRunOptions::default(),
            )
            .err()
            .expect("refused");
            assert!(
                matches!(&err, DistributedError::Unsupported(what) if what.contains("Custom")),
                "wrong error: {err}"
            );
        }
        let (server, mut clients) = small_course();
        let emits = vec![Event::Message(REHOME)];
        let noop = Box::new(|_: &mut _, _: &Message, _: &mut Ctx| {});
        let event = Event::Message(MessageKind::Custom(1));
        clients[2]
            .registry_mut()
            .register_aux(event, "user_probe", emits, noop);
        let err = run_distributed_tcp_with(
            server,
            clients,
            Duration::from_secs(5),
            TcpRunOptions::default(),
        )
        .err()
        .expect("refused");
        assert!(matches!(err, DistributedError::Unsupported(_)), "{err}");
    }

    #[test]
    fn a_threaded_bus_course_completes() {
        let (server, clients) = small_course();
        let server = run_distributed_with(
            server,
            clients,
            Duration::from_secs(60),
            BusRunOptions::default(),
        )
        .expect("bus course");
        assert_eq!(server.state.round, 2);
        assert_eq!(server.state.client_reports.len(), 4);
        assert!(server.state.dropouts.is_empty());
    }
}
