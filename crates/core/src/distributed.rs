//! The distributed driver: the same workers on real threads.
//!
//! Each participant runs on its own thread behind a `Link`; every message
//! crosses the `Transport` as wire bytes, so the whole message-translation
//! path (§3.5) is exercised. There is one poll loop (`pump`), one client
//! worker and one edge relay, generic over the transport (in-process bus or
//! TCP, picked by the options type) and over the [`TopologyPlan`] built from
//! `cfg.topology` — a star is simply the plan with no edges. The loop owns
//! the clock and the port and only delivers: it feeds the server's one
//! portless step (`Server::step`, the step the virtual-time runner calls
//! too) a `LoopEvent` per frame, closed link, rejoin, dead worker and
//! undeliverable frame, then ships what the step recorded in its `Ctx`.
//! Per-tier metering and the [`SHUTDOWN`] acknowledgement happen here, on
//! the transport's side. A serverless gossip course runs here too, from the
//! same entry points: its peers exchange models directly over the same
//! transport, and the loop only collects their final models (crate-private
//! `gossip` module). Virtual time does not apply here — `time_up` courses
//! must use the standalone runner — but the `all_received` and
//! `goal_achieved` strategies run unchanged, demonstrating that worker
//! behaviour is transport-independent.
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
//! The step decides every fault; the loop only reports it. A client whose
//! link dies is handled per the configured
//! [`crate::config::DropoutPolicy`] — the course aborts with
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
//! has reported is never one. A frame the port could not deliver is stepped
//! back in as `Undeliverable(to)`: a dropout while the client is still owed
//! work, a lost frame once the server has finished (the client's `Closed`
//! then decides). Every dropout, whatever noticed it, goes through one
//! test-and-set on the server's `gone` set.
//!
//! Failures keep their identity: a bind failure, a codec failure, a client
//! panic, and a true wall-budget timeout each surface as their own
//! [`DistributedError`] variant instead of collapsing into `Timeout`.

use crate::client::Client;
use crate::ctx::{Ctx, Outgoing};
use crate::server::{LoopEvent, Server};
use crate::verify::{course_plan, refusal, singleton_groups};
use crossbeam::channel::{unbounded, Receiver, Sender};
use fs_monitor::MonitorHandle;
use fs_net::bus::BusError;
use fs_net::tcp::TcpError;
use fs_net::topology::{bytes_down_counter, bytes_up_counter};
use fs_net::wire::payload_wire_len;
use fs_net::{
    Event, Message, MessageKind, ParticipantId, Payload, SendOutcome, Topology, TopologyPlan,
    SERVER_ID,
};
use fs_sim::VirtualTime;
use fs_verify::{verify_topology_plan, HandlerSpec, VerifyReport};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

pub use crate::transport::{BusRunOptions, TcpRunOptions, RESERVED};
use crate::transport::{Dialer, Link, ServerPort, Transport};

/// How long the poll loop blocks on its port before it looks at worker
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
    /// report (a gossip course's: its plan's findings) holds an Error, or
    /// its topology does not fit the course (`FSV050`).
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
pub(crate) enum WorkerOutcome {
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
    pub(crate) fn settled(self, id: ParticipantId) -> Result<bool, DistributedError> {
        match self {
            WorkerOutcome::Finished => Ok(true),
            WorkerOutcome::Disconnected => Ok(false),
            WorkerOutcome::Panicked(detail) => Err(DistributedError::ClientPanic { id, detail }),
            WorkerOutcome::Failed(e) => Err(e),
        }
    }
}

/// What the poll loop steps: the [`Server`], or a gossip course's
/// final-model collector.
pub(crate) trait Course {
    /// Applies one event, recording what to send in `ctx`.
    fn step(&mut self, event: LoopEvent, ctx: &mut Ctx) -> Result<(), DistributedError>;

    /// Whether the course is over and the loop may return.
    fn complete(&self) -> bool;

    /// Whether `id`'s report is stored, so that its worker may stop.
    fn reported(&self, _id: ParticipantId) -> bool {
        false
    }

    /// Meters one frame the port delivered.
    fn sent(&self, _msg: &Message) {}
}

impl Course for Server {
    fn step(&mut self, event: LoopEvent, ctx: &mut Ctx) -> Result<(), DistributedError> {
        Server::step(self, event, ctx)
    }

    /// The course is complete when the server terminated it and every roster
    /// member has either reported metrics or is provably gone.
    fn complete(&self) -> bool {
        let s = &self.state;
        s.done
            && (s.roster.iter()).all(|id| s.client_reports.contains_key(id) || s.gone.contains(id))
    }

    fn reported(&self, id: ParticipantId) -> bool {
        self.state.client_reports.contains_key(&id)
    }

    /// Per-tier download metering, when the plan has edges; `REHOME` is
    /// control, unmetered like `SHUTDOWN`.
    fn sent(&self, msg: &Message) {
        let Some(plan) = self.state.plan.as_ref() else {
            return;
        };
        if !plan.edges.is_empty() && msg.kind != REHOME {
            let counter = bytes_down_counter(plan.link_level(msg.receiver));
            (self.state.monitor).add(counter, payload_wire_len(&msg.payload) as u64);
        }
    }
}

/// One distributed run in flight: an opened transport, the worker threads
/// spawned onto it, and the channel their exit reports arrive on.
pub(crate) struct Session<P> {
    /// The run's (sharded) monitor handle.
    pub(crate) monitor: MonitorHandle,
    dialers: BTreeMap<ParticipantId, Dialer>,
    accept: Box<dyn FnOnce(Duration) -> Result<P, DistributedError>>,
    wall_budget: Duration,
    exit_tx: Sender<(ParticipantId, WorkerOutcome)>,
    exits: Receiver<(ParticipantId, WorkerOutcome)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<P: ServerPort> Session<P> {
    /// Opens `transport` for participants `ids` (the server excluded).
    pub(crate) fn open<T: Transport<Port = P>>(
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
    pub(crate) fn spawn<F>(
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
    /// (or the wall budget), and tears the run down: after a completed
    /// course every edge relay of `edges` still up is told [`SHUTDOWN`].
    pub(crate) fn run(
        self,
        course: &mut impl Course,
        edges: &[ParticipantId],
    ) -> Result<(), DistributedError> {
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
            for &edge in edges {
                // a dead edge's link is gone with its worker: the send fails
                let _ = port.send(&shutdown_msg(edge));
            }
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
/// that causally precedes a `Closed` is always seen first; so does a port
/// error (bytes the codec rejects). A worker that ended with its link dead
/// is stepped as `Died`.
fn pump(
    port: &mut dyn ServerPort,
    exits: &Receiver<(ParticipantId, WorkerOutcome)>,
    start: Instant,
    wall_budget: Duration,
    course: &mut impl Course,
) -> Result<(), DistributedError> {
    let mut pending = Ok(None);
    loop {
        while let Ok((id, outcome)) = exits.try_recv() {
            if !outcome.settled(id)? {
                deliver(LoopEvent::Died(id), course, port)?;
            }
        }
        if let Some(event) = pending? {
            deliver(event, course, port)?;
        }
        if course.complete() {
            return Ok(());
        }
        let remaining = wall_budget.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            return Err(DistributedError::Timeout);
        }
        pending = port.recv_event(remaining.min(POLL));
    }
}

/// Steps `event` and realizes what the step recorded on the port, in
/// emission order. A frame that finds no receiver is stepped back in as
/// `Undeliverable`; the reaction ships after the frames already queued. A
/// stored report is answered with [`SHUTDOWN`], point-to-point and
/// unmetered: the acknowledgement belongs to the transport, not the server.
fn deliver(
    event: LoopEvent,
    course: &mut impl Course,
    port: &mut dyn ServerPort,
) -> Result<(), DistributedError> {
    let report = match &event {
        LoopEvent::Message(msg) if msg.kind == MessageKind::MetricsReport => Some(msg.sender),
        _ => None,
    };
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    course.step(event, &mut ctx)?;
    debug_assert!(ctx.timers.is_empty(), "timers need the virtual-time runner");
    let mut queue = VecDeque::from(ctx.take_messages());
    while let Some(Outgoing { msg, .. }) = queue.pop_front() {
        if port.send(&msg)? {
            course.sent(&msg);
        } else {
            let mut reaction = Ctx::at(VirtualTime::ZERO);
            course.step(LoopEvent::Undeliverable(msg.receiver), &mut reaction)?;
            queue.extend(reaction.take_messages());
        }
    }
    if let Some(id) = report.filter(|&id| course.reported(id)) {
        let _ = port.send(&shutdown_msg(id))?;
    }
    Ok(())
}

fn shutdown_msg(to: ParticipantId) -> Message {
    Message::new(SERVER_ID, to, SHUTDOWN, 0, Payload::Empty)
}

/// A [`REHOME`] frame telling `to` its new parent.
pub(crate) fn rehome_msg(to: ParticipantId, new_parent: ParticipantId) -> Message {
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
    // nothing else can be verified without a plan
    let plan = course_plan(cfg, clients.len()).map_err(refusal)?;
    crate::verify::preflight(
        server,
        &singleton_groups(clients),
        verify_topology_plan(&plan).diagnostics,
    )?;
    Ok(plan)
}

fn drive<T: Transport>(
    mut server: Server,
    clients: Vec<Client>,
    wall_budget: Duration,
    transport: T,
) -> Result<Server, DistributedError> {
    if let Topology::Gossip { .. } = server.state.cfg.topology {
        return crate::gossip::drive_gossip(server, clients, wall_budget, transport);
    }
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
    server.state.monitor = session.monitor.clone();
    let edges = plan.edges.len();
    server.state.plan = Some(plan);
    session.run(&mut server, &ids[..edges])?;
    Ok(server)
}

/// Runs a course over threads and the in-process bus, returning the server
/// (with its histories and client reports) once the course finishes. The
/// course's `cfg.topology` decides the routing: star, hierarchy or gossip;
/// `opts` carries fault injection and observability
/// (`BusRunOptions::default()` for neither).
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
    //! The server step as the threaded driver realizes it, without threads,
    //! sockets, sleeps or a clock: scripted events and a port that records
    //! what the step sends. Plus two real threaded courses at the end.
    use super::*;
    use crate::aggregator::FedAvg;
    use crate::config::{DropoutPolicy, FlConfig};
    use crate::course::CourseBuilder;
    use crate::sampler::Sampler;
    use crate::transport::{BusPort, Opened};
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_monitor::RecordingMonitor;
    use fs_net::Topology;
    use fs_tensor::model::{logistic_regression, Metrics};
    use fs_tensor::{ParamMap, Tensor};
    use std::collections::BTreeSet;
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

    /// A bare server expecting `n` clients, routed per `topology`.
    fn machine(n: usize, topology: Topology) -> Server {
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
        let mut server = Server::new(cfg, global, n, aggregator, Sampler::Uniform, None);
        server.state.plan = Some(plan);
        server
    }

    fn plan(m: &Server) -> &TopologyPlan {
        m.state.plan.as_ref().expect("routed")
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
    fn update(m: &Server, id: ParticipantId) -> LoopEvent {
        let state = &m.state;
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
    fn feed(m: &mut Server, port: &mut ScriptPort, events: Vec<LoopEvent>) {
        for event in events {
            deliver(event, m, port).expect("step");
        }
    }

    fn joined(n: u32, topology: Topology) -> (Server, ScriptPort) {
        let mut m = machine(n as usize, topology);
        let mut port = ScriptPort::default();
        feed(&mut m, &mut port, (1..=n).map(join).collect());
        assert!(m.state.ledger.models_sent > 0, "course started");
        (m, port)
    }

    /// A four-client course whose server has terminated: every client sent
    /// both rounds' updates and was told `Finish`; nobody has reported yet.
    fn finished(topology: Topology) -> (Server, ScriptPort) {
        let (mut m, mut port) = joined(4, topology);
        for _round in 0..2 {
            let updates = (1..=4).map(|id| update(&m, id)).collect();
            feed(&mut m, &mut port, updates);
        }
        assert!(m.state.done, "the server terminated the course");
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
        assert!(m.state.roster.is_empty(), "no queued join was handled");
    }

    /// A port whose read fails the codec while a worker's panic report lands.
    struct GarbledPort(Option<Sender<(ParticipantId, WorkerOutcome)>>);

    impl ServerPort for GarbledPort {
        fn recv_event(&mut self, _: Duration) -> Result<Option<LoopEvent>, DistributedError> {
            if let Some(exit_tx) = self.0.take() {
                let panicked = WorkerOutcome::Panicked("boom".to_string());
                exit_tx.send((1, panicked)).expect("exit report");
            }
            Err(DistributedError::Codec("garbled".to_string()))
        }

        fn send(&mut self, _: &Message) -> Result<bool, DistributedError> {
            Ok(true)
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "pump's wall budget starts at a real Instant"
    )]
    fn a_worker_panic_outranks_a_codec_failure_read_before_it() {
        let mut m = machine(2, Topology::Star);
        let (exit_tx, exits) = unbounded();
        let mut port = GarbledPort(Some(exit_tx));
        let budget = Duration::from_secs(5);
        let err =
            pump(&mut port, &exits, Instant::now(), budget, &mut m).expect_err("the course fails");
        assert!(
            matches!(&err, DistributedError::ClientPanic { id: 1, .. }),
            "wrong error: {err}"
        );
    }

    #[test]
    fn a_close_before_the_report_is_one_dropout_at_once() {
        // a link closes only after its report was acknowledged, so a close
        // ahead of the report is a loss, whether the frames went through a
        // relay or straight to the server
        for topology in [HIER3, Topology::Star] {
            let (mut m, mut port) = finished(topology);
            let lost = LoopEvent::Died(2);
            let events = vec![LoopEvent::Closed(2), lost, LoopEvent::Closed(2)];
            feed(&mut m, &mut port, events);
            assert_eq!(m.state.dropouts, vec![2], "{topology}");
            assert!(m.state.gone.contains(&2));
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
                LoopEvent::Died(1),
                LoopEvent::Closed(1),
                report(3),
                LoopEvent::Closed(3),
            ];
            feed(&mut m, &mut port, events);
            assert!(m.state.dropouts.is_empty(), "{topology}");
            assert!(m.state.gone.is_empty());
        }
    }

    #[test]
    fn each_stored_report_is_answered_by_one_shutdown_to_its_sender() {
        let (mut m, mut port) = finished(HIER3);
        let recording = Arc::new(Mutex::new(RecordingMonitor::new()));
        m.state.monitor = MonitorHandle::from_shared(recording.clone());
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
        let (reporter, other) = (plan(&m).children_of(5)[0], plan(&m).children_of(5)[1]);
        feed(&mut m, &mut port, vec![report(reporter)]);
        let reconnects = m.state.reconnects;
        let dead = LoopEvent::Died(5);
        feed(&mut m, &mut port, vec![dead]);
        assert_eq!(m.state.reconnects, reconnects + 1, "one, not two");
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
        let held = plan(&m).children_of(5)[1];
        port.sent.clear();
        let dead = LoopEvent::Died(5);
        feed(&mut m, &mut port, vec![dead]);
        let to_held = port.sent.iter().filter(|msg| msg.receiver == held);
        let kinds: Vec<MessageKind> = to_held.map(|msg| msg.kind).collect();
        assert_eq!(kinds, vec![REHOME, MessageKind::Finish]);
        feed(&mut m, &mut port, vec![report(held)]);
        assert_eq!(port.count(SHUTDOWN, held), 1);
        assert!(m.state.client_reports.contains_key(&held));
        assert!(m.state.dropouts.is_empty());
    }

    #[test]
    fn an_edge_death_rehomes_to_the_nearest_live_ancestor() {
        // hier:3x2 over 4 clients: leaf edges 5 and 6 under top edge 7
        let (mut m, mut port) = joined(4, HIER3);
        assert_eq!(plan(&m).edges, vec![5, 6, 7]);
        let orphans = plan(&m).children_of(5).to_vec();
        let lost = orphans[0];
        feed(&mut m, &mut port, vec![LoopEvent::Died(lost)]);
        assert_eq!(m.state.dropouts, vec![lost]);

        let rehomes = |port: &ScriptPort| -> Vec<(ParticipantId, ParticipantId)> {
            let frames = port.sent.iter().filter(|msg| msg.kind == REHOME);
            frames
                .map(|msg| (msg.receiver, rehome_target(msg).expect("rehome payload")))
                .collect()
        };
        // the top edge dies: its children (edges 5 and 6) move to the server,
        // and all three surviving clients are re-armed
        let dead = |id| LoopEvent::Died(id);
        feed(&mut m, &mut port, vec![dead(7)]);
        assert_eq!(rehomes(&port), vec![(5, SERVER_ID), (6, SERVER_ID)]);
        assert_eq!(m.state.reconnects, 3, "gone clients are not re-armed");

        // then edge 5: its plan parent (7) is dead, so the nearest *live*
        // ancestor is the server; only the child still in the course is told
        port.sent.clear();
        feed(&mut m, &mut port, vec![dead(5), dead(5)]);
        assert_eq!(rehomes(&port), vec![(orphans[1], SERVER_ID)]);
        assert_eq!(m.state.reconnects, 4, "one live client under edge 5");
        assert_eq!(m.state.dropouts, vec![lost], "re-homing drops nobody");
    }

    #[test]
    fn rejoined_clears_gone() {
        let (mut m, mut port) = joined(3, Topology::Star);
        feed(&mut m, &mut port, vec![LoopEvent::Closed(2)]);
        assert!(m.state.gone.contains(&2));
        assert_eq!(m.state.roster, vec![1, 3]);
        feed(&mut m, &mut port, vec![LoopEvent::Rejoined(2)]);
        assert!(!m.state.gone.contains(&2), "its report is awaited again");
        assert_eq!(m.state.roster, vec![1, 3, 2]);
        assert_eq!(m.state.dropouts, vec![2], "the outage stays on record");
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
            assert!(m.state.done, "the server terminated the course");
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
                m.state.client_reports.len(),
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
        assert_eq!(m.state.dropouts, vec![2]);
        assert_eq!(m.state.expected_clients, 2);
        assert_eq!(m.state.ledger.models_sent, 0, "client 3 is awaited");
        feed(&mut m, &mut port, vec![join(3)]);
        assert!(m.state.ledger.models_sent > 0, "starts with 1 and 3");
    }

    #[test]
    fn an_undeliverable_frame_to_a_client_owed_work_is_one_dropout() {
        // the next round's broadcast finds client 2 gone: it is stepped back
        // in as `Undeliverable(2)`, a dropout, and its later `Closed` adds
        // none
        let (mut m, mut port) = joined(3, Topology::Star);
        port.dead.insert(2);
        let updates = (1..=3).map(|id| update(&m, id)).collect();
        feed(&mut m, &mut port, updates);
        assert!(!m.state.done, "one round of two");
        assert_eq!(m.state.dropouts, vec![2]);
        assert!(m.state.gone.contains(&2));
        assert_eq!(m.state.roster, vec![1, 3]);
        feed(&mut m, &mut port, vec![LoopEvent::Closed(2)]);
        assert_eq!(m.state.dropouts, vec![2], "counted once");
    }

    #[test]
    fn an_undeliverable_frame_after_the_finish_is_lost_and_closed_decides() {
        // the `Finish` broadcast finds client 2 gone: that decides nothing,
        // since its report may yet be on its way; its `Closed` decides
        let (mut m, mut port) = joined(4, Topology::Star);
        let updates = (1..=4).map(|id| update(&m, id)).collect();
        feed(&mut m, &mut port, updates);
        port.dead.insert(2);
        let updates = (1..=4).map(|id| update(&m, id)).collect();
        feed(&mut m, &mut port, updates);
        assert!(m.state.done, "the server terminated the course");
        assert_eq!(port.count(MessageKind::Finish, 2), 0, "the send failed");
        assert!(m.state.dropouts.is_empty());
        assert!(m.state.gone.is_empty());
        feed(&mut m, &mut port, vec![LoopEvent::Closed(2)]);
        assert_eq!(m.state.dropouts, vec![2]);
        feed(&mut m, &mut port, [1, 3, 4].map(report).into());
        assert!(m.complete(), "2 is gone, everyone else reported");
    }

    #[test]
    fn an_undeliverable_frame_to_a_reporter_is_never_a_dropout() {
        // client 1's report is stored before the round closes; the next
        // broadcast then finds it gone, and it stays on the roster
        let (mut m, mut port) = joined(3, Topology::Star);
        feed(&mut m, &mut port, vec![report(1)]);
        port.dead.insert(1);
        let updates = (1..=3).map(|id| update(&m, id)).collect();
        feed(&mut m, &mut port, updates);
        assert!(!m.state.done, "one round of two");
        assert!(m.state.dropouts.is_empty());
        assert!(m.state.gone.is_empty());
        assert_eq!(m.state.roster, vec![1, 2, 3]);
    }

    #[test]
    fn an_undeliverable_frame_to_an_edge_decides_nothing() {
        // only a server handler that addresses an edge can send one a frame;
        // its loss is the edge's own `Died` to decide
        let mut m = machine(4, HIER3);
        let edge = plan(&m).edges[0];
        let probe = Event::Message(MessageKind::Custom(1));
        let to_edge = Box::new(move |_: &mut _, _: &Message, ctx: &mut Ctx| {
            ctx.send(Message::new(
                SERVER_ID,
                edge,
                MessageKind::Custom(2),
                0,
                Payload::Empty,
            ));
        });
        let emits = vec![Event::Message(MessageKind::Custom(2))];
        m.registry_mut()
            .register_aux(probe, "to_edge", emits, to_edge);
        let mut port = ScriptPort::default();
        port.dead.insert(edge);
        let nudge = from(1, MessageKind::Custom(1), Payload::Empty);
        feed(&mut m, &mut port, vec![join(1), nudge]);
        assert!(m.state.dropouts.is_empty());
        assert!(m.state.gone.is_empty());
        assert_eq!(m.state.expected_clients, 4, "no seat was given up");
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

    /// The edge-death course's ordering facts, pinned absolutely: rounds,
    /// finish reason, the sorted reporters, the dropouts, the sorted
    /// `REHOME` targets and the re-arm count. No model bit is folded.
    const GOLDEN_EDGE_DEATH: u64 = 0x0d98_3784_b81d_aa39;

    /// A bus whose server port logs every `REHOME` frame it is handed.
    struct Logged(
        BusRunOptions,
        Arc<Mutex<Vec<(ParticipantId, ParticipantId)>>>,
    );

    struct LoggedPort(BusPort, Arc<Mutex<Vec<(ParticipantId, ParticipantId)>>>);

    impl ServerPort for LoggedPort {
        fn recv_event(&mut self, timeout: Duration) -> Result<Option<LoopEvent>, DistributedError> {
            self.0.recv_event(timeout)
        }

        fn send(&mut self, msg: &Message) -> Result<bool, DistributedError> {
            if let Some(target) = rehome_target(msg) {
                self.1.lock().expect("log").push((msg.receiver, target));
            }
            self.0.send(msg)
        }
    }

    impl Transport for Logged {
        type Port = LoggedPort;

        fn open(self, ids: &[ParticipantId]) -> Result<Opened<LoggedPort>, DistributedError> {
            let (opened, log) = (self.0.open(ids)?, self.1);
            let accept = opened.accept;
            Ok(Opened {
                monitor: opened.monitor,
                dialers: opened.dialers,
                accept: Box::new(move |wait| Ok(LoggedPort(accept(wait)?, log))),
            })
        }

        fn lossless(&self) -> bool {
            self.0.lossless()
        }
    }

    #[test]
    fn a_keyed_edge_death_matches_its_pin() {
        // `topo_faults::bus_edge_death_rehomes_subtree`'s course: hier:2x3
        // over six clients, the first edge dies at its fourth relayed frame
        let (seed, n) = (53, 6);
        let topology = Topology::Hierarchical {
            tiers: 2,
            fanout: 3,
        };
        let data = twitter_like(&TwitterConfig {
            num_clients: n,
            per_client: 12,
            ..Default::default()
        });
        let dim = data.input_dim();
        let cfg = FlConfig {
            total_rounds: 3,
            concurrency: n,
            seed,
            topology,
            dropout: DropoutPolicy::Fail,
            ..Default::default()
        };
        let model = Box::new(move |rng: &mut _| {
            Box::new(logistic_regression(dim, 2, rng)) as Box<dyn fs_tensor::model::Model>
        });
        let runner = CourseBuilder::new(data, model, cfg)
            .no_central_eval()
            .build();
        let plan = TopologyPlan::build(topology, n, seed).expect("plan");
        let faults =
            fs_net::FaultPlan::new(seed).with(plan.edges[0], fs_net::FaultSpec::dies_after(3));
        let log = Arc::new(Mutex::new(Vec::new()));
        let opts = BusRunOptions {
            faults: Some(faults),
            ..Default::default()
        };
        let clients = runner.clients.into_values().collect();
        let transport = Logged(opts, Arc::clone(&log));
        let server = drive(runner.server, clients, Duration::from_secs(60), transport)
            .expect("the edge death re-homes");
        let mut rehomes = log.lock().expect("log").clone();
        rehomes.sort_unstable();
        let state = &server.state;
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                fp = (fp ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        fold(&state.round.to_le_bytes());
        fold(state.finish_reason.as_deref().unwrap_or("").as_bytes());
        for id in state.client_reports.keys().chain([&u32::MAX]) {
            fold(&id.to_le_bytes());
        }
        for id in state.dropouts.iter().chain([&u32::MAX]) {
            fold(&id.to_le_bytes());
        }
        for (to, parent) in &rehomes {
            fold(&to.to_le_bytes());
            fold(&parent.to_le_bytes());
        }
        fold(&state.reconnects.to_le_bytes());
        let facts = (
            state.round,
            state.client_reports.len(),
            &state.dropouts,
            &rehomes,
            state.reconnects,
        );
        assert_eq!(fp, GOLDEN_EDGE_DEATH, "{fp:#018x}: {facts:?}");
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
