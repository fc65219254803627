//! TCP transport: the same wire format over real sockets.
//!
//! The paper's distributed mode runs participants as separate processes
//! connected by gRPC; this module provides the equivalent substrate on
//! `std::net`: length-prefixed wire frames, a server-side [`TcpHub`] that
//! accepts one connection per client and funnels decoded traffic into a
//! single event queue, and a client-side [`TcpPeer`] /
//! [`ResilientPeer`]. The framing is trivial by design — `u32` little-endian
//! length followed by the [`crate::wire`]-encoded message — so any process
//! speaking the neutral format can join a course.
//!
//! # One frame path, no clocks
//!
//! [`write_frame`] and [`read_frame`] are the only code that puts a frame on
//! a socket or takes one off (the hub's readers call `read_frame`'s capped
//! form: until a connection has identified itself, its first frame may be no
//! longer than a handshake). A frame goes out as **one** `write` (prefix and
//! body in one buffer) on a socket with `TCP_NODELAY` set — every accepted
//! and every dialled socket, unconditionally. The traffic is request/response
//! (a ~15 KB model frame answered by another, <100-byte control frames in
//! between), and an edge relay forwards several frames back to back on one
//! connection: with Nagle on, the second small write waits for the peer's
//! delayed ACK of the first, which stalls every round trip by tens of
//! milliseconds while both ends sit idle.
//!
//! Nothing here waits on a timer. Reader threads block in [`read_frame`] and
//! the acceptor blocks in `accept`; there is no read deadline, so a read can
//! never stop halfway through a frame. The only sleeps are policy, not
//! polling: the [`ReconnectPolicy`] backoff and the injected fault delay.
//!
//! # Who closes what
//!
//! * A **peer** closes its own socket when it is dropped, shut down, or its
//!   fault schedule kills the link; the hub's reader for that connection sees
//!   EOF, deregisters it and reports [`HubEvent::Disconnected`].
//! * The **hub** keeps a clone of every socket the acceptor ever handed out
//!   (registered or not) for as long as that socket's reader runs. Dropping
//!   the [`TcpHub`] marks it closed, shuts all of them down — a peer blocked
//!   in `recv` sees EOF at once, and every reader thread returns — and wakes
//!   the acceptor with a self-connect; the acceptor sees the mark, returns,
//!   and the listener closes with it. `drop` joins the acceptor, so once it
//!   returns a dial to the old address is refused.
//!
//! # Fault tolerance
//!
//! The hub is built for unreliable clients:
//!
//! * **Registration at accept time.** A connection is addressable as soon as
//!   its first frame (the join handshake) has been read; [`PendingHub::
//!   accept`] returns only after every expected participant has completed
//!   that handshake, so a `send` immediately after `accept` can never hit
//!   `UnknownReceiver`.
//! * **Liveness.** A dead connection surfaces as [`HubEvent::Disconnected`]
//!   on the incoming queue, behind every frame it delivered.
//! * **Rejoin.** The hub keeps accepting connections for its whole lifetime.
//!   A reconnecting client re-identifies itself with a
//!   [`MessageKind::Rejoin`] handshake; the hub makes the new connection the
//!   participant's current one, suppresses the stale connection's disconnect
//!   report (connections are generation-stamped), and surfaces
//!   [`HubEvent::Rejoined`].

use crate::fault::{FaultAction, FaultState, SendOutcome};
use crate::message::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use crate::wire::{decode_message, encode_message, CodecError};
use fs_monitor::{counters, MonitorHandle};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data even if a writer thread panicked while
/// holding it (a poisoned map is still a usable map).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Errors from the TCP transport.
#[derive(Debug)]
pub enum TcpError {
    /// Socket-level failure.
    Io(io::Error),
    /// The peer sent bytes the wire codec rejects.
    Codec(CodecError),
    /// A frame exceeded the sanity limit.
    FrameTooLarge(u32),
    /// No connection is registered for the receiver.
    UnknownReceiver(ParticipantId),
    /// The incoming queue has shut down.
    Closed,
}

impl std::fmt::Display for TcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TcpError::Io(e) => write!(f, "io error: {e}"),
            TcpError::Codec(e) => write!(f, "codec error: {e}"),
            TcpError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            TcpError::UnknownReceiver(id) => write!(f, "no connection for participant {id}"),
            TcpError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TcpError {}

impl From<io::Error> for TcpError {
    fn from(e: io::Error) -> Self {
        TcpError::Io(e)
    }
}

impl From<CodecError> for TcpError {
    fn from(e: CodecError) -> Self {
        TcpError::Codec(e)
    }
}

/// Upper bound on a single frame (a model of ~16M f32 parameters).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Writes one length-prefixed wire frame with a single `write`, counting the
/// real bytes put on the socket (4-byte length prefix + encoded message) into
/// the monitor's `wire.*` counters.
pub fn write_frame(
    stream: &mut TcpStream,
    msg: &Message,
    monitor: &MonitorHandle,
) -> Result<(), TcpError> {
    let body = encode_message(msg);
    let len = u32::try_from(body.len()).unwrap_or(u32::MAX);
    if len > MAX_FRAME_BYTES {
        return Err(TcpError::FrameTooLarge(len));
    }
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&body);
    stream.write_all(&frame)?;
    monitor.add(counters::WIRE_FRAMES_OUT, 1);
    monitor.add(counters::WIRE_BYTES_OUT, frame.len() as u64);
    Ok(())
}

/// Blocks until one whole length-prefixed wire frame has arrived, however the
/// sender's writes were split, counting the real bytes taken off the socket
/// into the monitor's `wire.*` counters.
pub fn read_frame(stream: &mut TcpStream, monitor: &MonitorHandle) -> Result<Message, TcpError> {
    read_frame_within(stream, monitor, MAX_FRAME_BYTES)
}

/// The body buffer a frame starts with: a frame this size or smaller is read
/// into one allocation, a larger one grows only as its bytes arrive.
const FIRST_READ_BYTES: usize = 64 * 1024;

/// [`read_frame`] with a smaller cap: a prefix over `cap` bytes is refused
/// before any of the body is allocated or read, and a prefix under it
/// reserves no more than [`FIRST_READ_BYTES`] until the body arrives.
fn read_frame_within(
    stream: &mut TcpStream,
    monitor: &MonitorHandle,
    cap: u32,
) -> Result<Message, TcpError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len > cap {
        return Err(TcpError::FrameTooLarge(len));
    }
    let mut buf = Vec::with_capacity((len as usize).min(FIRST_READ_BYTES));
    let got = stream.take(u64::from(len)).read_to_end(&mut buf)?;
    if got < len as usize {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    let msg = decode_message(&buf)?;
    monitor.add(counters::WIRE_FRAMES_IN, 1);
    monitor.add(counters::WIRE_BYTES_IN, 4 + u64::from(len));
    Ok(msg)
}

/// What the hub's incoming queue delivers: decoded traffic plus liveness
/// transitions observed by the per-connection reader threads.
#[derive(Debug)]
pub enum HubEvent {
    /// A decoded application message.
    Message(Message),
    /// A registered connection died (EOF, reset, or a fatal read error).
    Disconnected(ParticipantId),
    /// A participant completed a [`MessageKind::Rejoin`] handshake over a
    /// fresh connection, which is now the one its frames are written to.
    Rejoined(ParticipantId),
    /// A connection sent bytes the hub rejects — an undecodable body or an
    /// oversized length prefix (`None` when it had not identified itself).
    Codec(Option<ParticipantId>, String),
}

/// The hub's connection table, under one lock.
///
/// Every accepted socket gets a *generation* (its accept serial number). A
/// participant's `current` entry names the generation its frames are written
/// to, so a stale connection's teardown cannot clobber its own replacement.
#[derive(Default)]
struct Conns {
    /// A clone of every accepted socket whose reader still runs, by
    /// generation: the write halves, and what [`TcpHub`]'s drop shuts down.
    live: BTreeMap<u64, TcpStream>,
    /// Registered participant → generation of its current connection.
    current: BTreeMap<ParticipantId, u64>,
    /// Participants that ever registered (what `accept` counts).
    joined: BTreeSet<ParticipantId>,
    /// The hub was dropped: the acceptor hands out nothing more.
    closed: bool,
}

/// State shared between the hub handle, the acceptor, and reader threads.
#[derive(Default)]
struct HubShared {
    conns: Mutex<Conns>,
    registered: Condvar,
}

impl HubShared {
    /// Makes connection `generation` the one `id`'s frames are written to.
    fn register(&self, id: ParticipantId, generation: u64) {
        let mut conns = lock(&self.conns);
        conns.current.insert(id, generation);
        conns.joined.insert(id);
        self.registered.notify_all();
    }
}

/// Server side: accepts connections for its whole lifetime, runs one reader
/// thread per connection (feeding a single incoming event queue), and keeps
/// write halves addressable by participant id.
pub struct TcpHub {
    shared: Arc<HubShared>,
    incoming: Receiver<HubEvent>,
    local_addr: SocketAddr,
    monitor: MonitorHandle,
    acceptor: Option<JoinHandle<()>>,
}

/// A bound-but-not-yet-accepting hub: lets callers learn the ephemeral port
/// before clients connect.
pub struct PendingHub {
    listener: TcpListener,
    monitor: MonitorHandle,
}

impl PendingHub {
    /// The bound address.
    pub fn local_addr(&self) -> Result<SocketAddr, TcpError> {
        Ok(self.listener.local_addr()?)
    }

    /// Attaches an observability sink; the hub's reader threads and writes
    /// count real wire bytes and frames into it. Must be called before
    /// [`PendingHub::accept`] so the reader threads carry the handle.
    pub fn with_monitor(mut self, monitor: MonitorHandle) -> Self {
        self.monitor = monitor;
        self
    }

    /// Starts the hub and waits (up to 30s) until `expected_clients`
    /// distinct participants have completed their join handshake, so every
    /// write half is registered before this returns.
    pub fn accept(self, expected_clients: usize) -> Result<TcpHub, TcpError> {
        self.accept_within(expected_clients, Duration::from_secs(30))
    }

    /// [`PendingHub::accept`] with an explicit handshake deadline.
    pub fn accept_within(
        self,
        expected_clients: usize,
        wait: Duration,
    ) -> Result<TcpHub, TcpError> {
        let hub = TcpHub::start(self.listener, self.monitor)?;
        hub.await_registrations(expected_clients, wait)?;
        Ok(hub)
    }
}

impl TcpHub {
    /// Binds `addr` without accepting yet (use with port 0 to learn the
    /// ephemeral port before clients connect).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<PendingHub, TcpError> {
        Ok(PendingHub {
            listener: TcpListener::bind(addr)?,
            monitor: MonitorHandle::null(),
        })
    }

    /// Spawns the acceptor thread and returns the hub handle.
    fn start(listener: TcpListener, monitor: MonitorHandle) -> Result<TcpHub, TcpError> {
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(HubShared::default());
        let (tx, incoming) = channel();
        let acceptor = {
            let shared = shared.clone();
            let monitor = monitor.clone();
            std::thread::spawn(move || {
                let mut generation = 0u64;
                // blocks in `accept`; the hub's drop wakes it with a connect
                while let Ok((stream, _peer)) = listener.accept() {
                    generation += 1;
                    let Ok(write_half) = stream.try_clone() else {
                        continue;
                    };
                    if stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    {
                        // checked under the lock the drop closes under: a
                        // socket is either refused here or shut down there
                        let mut conns = lock(&shared.conns);
                        if conns.closed {
                            return;
                        }
                        conns.live.insert(generation, write_half);
                    }
                    let (shared, tx, monitor) = (shared.clone(), tx.clone(), monitor.clone());
                    Self::spawn_reader(stream, generation, shared, tx, monitor);
                }
            })
        };
        Ok(TcpHub {
            shared,
            incoming,
            local_addr,
            monitor,
            acceptor: Some(acceptor),
        })
    }

    /// One reader thread per connection, blocked in [`read_frame`]: the
    /// first frame is the join handshake (it registers the connection and
    /// wakes `accept`), and may be no longer than a handshake with an empty
    /// payload, so a stranger's length prefix cannot make the hub allocate
    /// up to [`MAX_FRAME_BYTES`]; [`MessageKind::Rejoin`] frames are consumed as
    /// transport control; everything else flows to the incoming queue. Death
    /// is reported as [`HubEvent::Disconnected`] unless a newer connection
    /// for the same participant has already taken over.
    fn spawn_reader(
        mut stream: TcpStream,
        generation: u64,
        shared: Arc<HubShared>,
        tx: Sender<HubEvent>,
        monitor: MonitorHandle,
    ) {
        std::thread::spawn(move || {
            // `JoinIn`, `HELLO` and `Rejoin` all encode to this length
            let handshake = Message::new(0, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
            let handshake_len = encode_message(&handshake).len() as u32;
            let mut me: Option<ParticipantId> = None;
            let rejected = loop {
                let cap = me.map_or(handshake_len, |_| MAX_FRAME_BYTES);
                let msg = match read_frame_within(&mut stream, &monitor, cap) {
                    Ok(msg) => msg,
                    Err(TcpError::Codec(e)) => break Some(e.to_string()),
                    Err(e @ TcpError::FrameTooLarge(_)) => {
                        break Some(format!("{e} of {cap} bytes"))
                    }
                    // EOF, reset, or the hub's drop shutting the socket down
                    Err(_) => break None,
                };
                if me.is_none() {
                    shared.register(msg.sender, generation);
                    me = Some(msg.sender);
                }
                let event = if msg.kind == MessageKind::Rejoin {
                    // transport control: the handshake made this connection
                    // the participant's current one; the workers never see it
                    HubEvent::Rejoined(msg.sender)
                } else {
                    HubEvent::Message(msg)
                };
                if tx.send(event).is_err() {
                    break None;
                }
            };
            let mut conns = lock(&shared.conns);
            conns.live.remove(&generation);
            // generation-stamped: a rejoined participant's fresh connection
            // is left alone, and its stale one dies unreported
            let was_current = me.filter(|id| conns.current.get(id) == Some(&generation));
            if let Some(id) = was_current {
                conns.current.remove(&id);
            }
            let last_word = match (rejected, was_current) {
                (Some(detail), _) => Some(HubEvent::Codec(me, detail)),
                (None, Some(id)) => Some(HubEvent::Disconnected(id)),
                (None, None) => None,
            };
            if let Some(event) = last_word {
                // an unbounded channel never blocks; queued under the lock so
                // a Disconnected can never trail the Rejoined of the
                // connection that replaces this one
                let _ = tx.send(event);
            }
        });
    }

    /// Blocks until `expected` distinct participants have registered.
    fn await_registrations(&self, expected: usize, wait: Duration) -> Result<(), TcpError> {
        let deadline = Instant::now() + wait;
        let mut conns = lock(&self.shared.conns);
        while conns.joined.len() < expected {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("only {}/{expected} clients joined", conns.joined.len()),
                )
                .into());
            }
            let (guard, _timeout) = self
                .shared
                .registered
                .wait_timeout(conns, remaining)
                .unwrap_or_else(PoisonError::into_inner);
            conns = guard;
        }
        Ok(())
    }

    /// Blocks up to `timeout` for the next hub event; `Ok(None)` when the
    /// timeout elapses. The blocking path the distributed server loop uses
    /// instead of busy-polling.
    pub fn recv_event_timeout(&self, timeout: Duration) -> Result<Option<HubEvent>, TcpError> {
        match self.incoming.recv_timeout(timeout) {
            Ok(ev) => Ok(Some(ev)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TcpError::Closed),
        }
    }

    /// Blocks for the next decoded incoming *message*, skipping liveness
    /// events (compatibility path for callers without dropout handling).
    pub fn recv(&self) -> Result<Message, TcpError> {
        loop {
            if let HubEvent::Message(m) = self.incoming.recv().map_err(|_| TcpError::Closed)? {
                return Ok(m);
            }
        }
    }

    /// Sends a message to its receiver's current connection.
    pub fn send(&self, msg: &Message) -> Result<(), TcpError> {
        let mut conns = lock(&self.shared.conns);
        let generation = conns.current.get(&msg.receiver).copied();
        let stream = generation
            .and_then(|g| conns.live.get_mut(&g))
            .ok_or(TcpError::UnknownReceiver(msg.receiver))?;
        write_frame(stream, msg, &self.monitor)
    }
}

impl Drop for TcpHub {
    fn drop(&mut self) {
        {
            let mut conns = lock(&self.shared.conns);
            conns.closed = true;
            for stream in conns.live.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // wake the acceptor out of `accept`: it finds the hub closed and
        // returns, taking the listener with it
        if TcpStream::connect(self.local_addr).is_ok() {
            if let Some(acceptor) = self.acceptor.take() {
                let _ = acceptor.join();
            }
        }
    }
}

/// Client side: one plain connection to the hub.
pub struct TcpPeer {
    stream: TcpStream,
}

impl TcpPeer {
    /// Connects to a hub.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpPeer, TcpError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpPeer { stream })
    }

    /// Sends one message.
    pub fn send(&mut self, msg: &Message) -> Result<(), TcpError> {
        // the hub counts both directions of every connection
        write_frame(&mut self.stream, msg, &MonitorHandle::null())
    }

    /// Blocks for the next message from the hub.
    pub fn recv(&mut self) -> Result<Message, TcpError> {
        read_frame(&mut self.stream, &MonitorHandle::null())
    }

    /// Tears the connection down immediately (both directions).
    pub fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Capped exponential backoff for client reconnects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Connection attempts per outage before giving up.
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Ceiling on the doubled delay.
    pub max_delay: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
        }
    }
}

impl ReconnectPolicy {
    /// The backoff before attempt `n` (0-based): `base * 2^n`, capped.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self.base_delay.saturating_mul(2u32.saturating_pow(attempt));
        exp.min(self.max_delay)
    }
}

/// A client connection with optional fault injection on sends and optional
/// reconnect-with-backoff on outages.
///
/// An injected `Disconnect` verdict really closes the socket (the hub's
/// liveness machinery sees a dead connection). With a [`ReconnectPolicy`]
/// the next operation transparently reconnects — capped exponential backoff,
/// then a [`MessageKind::Rejoin`] handshake so the hub makes the fresh
/// connection current and the server counts the rejoin. Without one, the
/// link stays dead and operations report it.
pub struct ResilientPeer {
    addr: SocketAddr,
    id: ParticipantId,
    peer: Option<TcpPeer>,
    reconnect: Option<ReconnectPolicy>,
    faults: Option<FaultState>,
}

impl ResilientPeer {
    /// Connects participant `id` to the hub at `addr`.
    pub fn connect(addr: SocketAddr, id: ParticipantId) -> Result<Self, TcpError> {
        Ok(Self {
            addr,
            id,
            peer: Some(TcpPeer::connect(addr)?),
            reconnect: None,
            faults: None,
        })
    }

    /// Enables reconnect-with-backoff on outages.
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Injects the given fault schedule into this peer's sends.
    pub fn with_faults(mut self, faults: FaultState) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Closes the current connection (if any).
    fn kill_link(&mut self) {
        if let Some(p) = self.peer.take() {
            p.shutdown();
        }
    }

    /// Dials a fresh connection whose first frame is the rejoin handshake.
    fn redial(&mut self) -> Result<(), TcpError> {
        let mut peer = TcpPeer::connect(self.addr)?;
        peer.send(&Message::new(
            self.id,
            SERVER_ID,
            MessageKind::Rejoin,
            0,
            Payload::Empty,
        ))?;
        self.peer = Some(peer);
        Ok(())
    }

    /// Models the participant's *process* restarting after a crash, as
    /// opposed to its link flapping: the injected fault schedule is shed and
    /// a healthy connection is dialled at once, rejoin handshake first.
    pub fn restart(&mut self) -> Result<(), TcpError> {
        self.faults = None;
        self.kill_link();
        self.redial()
    }

    /// Re-establishes a dead link per the reconnect policy and performs the
    /// rejoin handshake. Errors when no policy is set or attempts run out.
    fn ensure_connected(&mut self) -> Result<&mut TcpPeer, TcpError> {
        if self.peer.is_none() {
            let policy = self.reconnect.ok_or(TcpError::Closed)?;
            let mut outcome = Err(TcpError::Closed);
            for attempt in 0..policy.max_attempts {
                std::thread::sleep(policy.backoff(attempt));
                outcome = self.redial();
                if outcome.is_ok() {
                    break;
                }
            }
            outcome?;
        }
        self.peer.as_mut().ok_or(TcpError::Closed)
    }

    /// Sends one message through the fault model, reconnecting first if the
    /// link is down and a policy allows it.
    pub fn send(&mut self, msg: &Message) -> Result<SendOutcome, TcpError> {
        if let Some(f) = self.faults.as_mut() {
            match f.next_action() {
                FaultAction::Deliver => {
                    if let Some(d) = f.delay() {
                        std::thread::sleep(d);
                    }
                }
                FaultAction::Drop => return Ok(SendOutcome::Dropped),
                FaultAction::Disconnect => {
                    self.kill_link();
                    return Ok(SendOutcome::Disconnected);
                }
            }
        }
        if self.peer.is_none() && self.reconnect.is_none() {
            return Ok(SendOutcome::Disconnected);
        }
        match self.ensure_connected()?.send(msg) {
            Ok(()) => Ok(SendOutcome::Sent),
            Err(TcpError::Io(_)) if self.reconnect.is_some() => {
                // the link died underneath us: reconnect once and retry, so a
                // transient outage does not lose the frame
                self.kill_link();
                self.ensure_connected()?.send(msg)?;
                Ok(SendOutcome::Sent)
            }
            Err(e) => {
                self.kill_link();
                Err(e)
            }
        }
    }

    /// Blocks for the next message, reconnecting on outages when a policy
    /// allows it. A frame in flight during an outage is lost — the caller
    /// simply waits for the next server broadcast, exactly like a phone
    /// rejoining after a tunnel.
    pub fn recv(&mut self) -> Result<Message, TcpError> {
        loop {
            if self.peer.is_none() && self.reconnect.is_none() {
                return Err(TcpError::Closed);
            }
            match self.ensure_connected()?.recv() {
                Ok(msg) => return Ok(msg),
                Err(TcpError::Io(_)) if self.reconnect.is_some() => {
                    self.kill_link();
                    // loop: ensure_connected applies the backoff schedule
                }
                Err(e) => {
                    self.kill_link();
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::message::{MessageKind, Payload, SERVER_ID};
    use fs_tensor::{ParamMap, Tensor};

    fn join_msg(id: ParticipantId) -> Message {
        Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty)
    }

    fn id_msg(id: ParticipantId) -> Message {
        Message::new(SERVER_ID, id, MessageKind::IdAssignment, 0, Payload::Empty)
    }

    fn update_msg(sender: ParticipantId) -> Message {
        let mut p = ParamMap::new();
        p.insert("w", Tensor::from_vec(vec![3], vec![1.0, -2.0, 3.0]));
        let payload = Payload::Update {
            params: p,
            start_version: 6,
            n_samples: 11,
            n_steps: 2,
        };
        Message::new(sender, SERVER_ID, MessageKind::Updates, 7, payload)
    }

    /// The next hub event, which must arrive within five seconds.
    fn next_event(hub: &TcpHub) -> HubEvent {
        hub.recv_event_timeout(Duration::from_secs(5))
            .expect("hub queue open")
            .expect("an event within five seconds")
    }

    fn registered(hub: &TcpHub) -> Vec<ParticipantId> {
        lock(&hub.shared.conns).current.keys().copied().collect()
    }

    #[test]
    fn frame_roundtrip_over_localhost() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_frame(&mut s, &MonitorHandle::null()).unwrap()
        });
        let mut client = TcpStream::connect(addr).unwrap();
        let msg = update_msg(4);
        write_frame(&mut client, &msg, &MonitorHandle::null()).unwrap();
        let got = h.join().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn hub_routes_by_first_sender() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let mut handles = Vec::new();
        for id in [1u32, 2] {
            handles.push(std::thread::spawn(move || {
                let mut peer = TcpPeer::connect(addr).unwrap();
                peer.send(&join_msg(id)).unwrap();
                let reply = peer.recv().unwrap();
                assert_eq!(reply.kind, MessageKind::IdAssignment);
                assert_eq!(reply.receiver, id);
            }));
        }
        let hub = pending.accept(2).unwrap();
        let a = hub.recv().unwrap();
        let b = hub.recv().unwrap();
        let mut ids = vec![a.sender, b.sender];
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        // both are blocked in `recv` until answered, so both are still here
        assert_eq!(registered(&hub), vec![1, 2]);
        for id in [1u32, 2] {
            hub.send(&id_msg(id)).unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn send_immediately_after_accept_succeeds() {
        // regression: registration used to happen on the reader thread after
        // accept returned, so an eager server send hit UnknownReceiver
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(9)).unwrap();
            peer.recv().unwrap()
        });
        let hub = pending.accept(1).unwrap();
        // no recv first: the write half must already be registered
        hub.send(&id_msg(9)).expect("send right after accept");
        let got = client.join().unwrap();
        assert_eq!(got.kind, MessageKind::IdAssignment);
    }

    #[test]
    fn dead_connection_surfaces_as_disconnected_event() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(3)).unwrap();
            peer.shutdown(); // dies without a goodbye
        });
        let hub = pending.accept(1).unwrap();
        client.join().unwrap();
        // the EOF is queued behind the frame the connection delivered
        match next_event(&hub) {
            HubEvent::Message(m) => assert_eq!(m.kind, MessageKind::JoinIn),
            other => panic!("expected the join, got {other:?}"),
        }
        match next_event(&hub) {
            HubEvent::Disconnected(3) => {}
            other => panic!("expected Disconnected(3), got {other:?}"),
        }
        assert!(registered(&hub).is_empty(), "dead stream must deregister");
        assert!(
            lock(&hub.shared.conns).live.is_empty(),
            "its socket is released"
        );
        match hub.send(&id_msg(3)) {
            Err(TcpError::UnknownReceiver(3)) => {}
            other => panic!("expected UnknownReceiver(3), got {other:?}"),
        }
    }

    #[test]
    fn what_the_hub_reader_rejects_surfaces_as_a_codec_event() {
        // through the hub's own reader: a validly framed body of garbage from
        // a registered peer, and an oversized length prefix from a stranger
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(5)).unwrap();
            let mut frame = 16u32.to_le_bytes().to_vec();
            frame.extend_from_slice(&[0xFF; 16]);
            peer.stream.write_all(&frame).unwrap();
            peer
        });
        let hub = pending.accept(1).unwrap();
        let _held_open = client.join().unwrap();
        match next_event(&hub) {
            HubEvent::Message(m) => assert_eq!(m.kind, MessageKind::JoinIn),
            other => panic!("expected the join, got {other:?}"),
        }
        match next_event(&hub) {
            HubEvent::Codec(Some(5), _) => {}
            other => panic!("expected a codec event from 5, got {other:?}"),
        }
        assert!(registered(&hub).is_empty(), "the offender is deregistered");

        let mut stranger = TcpStream::connect(addr).unwrap();
        let too_large = MAX_FRAME_BYTES + 1;
        stranger.write_all(&too_large.to_le_bytes()).unwrap();
        match next_event(&hub) {
            HubEvent::Codec(None, detail) => {
                assert!(detail.contains(&too_large.to_string()), "{detail}");
            }
            other => panic!("expected an anonymous codec event, got {other:?}"),
        }

        // a stranger may not make the hub allocate more than a handshake
        // needs: a 1 MiB prefix with no body behind it is refused at once
        let mut stranger = TcpStream::connect(addr).unwrap();
        stranger.write_all(&(1u32 << 20).to_le_bytes()).unwrap();
        let cap = join_msg(0).wire_bytes();
        match next_event(&hub) {
            HubEvent::Codec(None, detail) => {
                assert!(
                    detail.contains(&format!("limit of {cap} bytes")),
                    "{detail}"
                );
            }
            other => panic!("expected an anonymous codec event, got {other:?}"),
        }
    }

    #[test]
    fn a_frame_written_in_pieces_arrives_as_one_message() {
        // the reader blocks until the whole frame is there, however the
        // sender split its writes: prefix, pause, half the body, pause, rest
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let msg = update_msg(6);
        let body = encode_message(&msg);
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(6)).unwrap();
            // a pause, not a synchronisation: nothing can observe the reader
            // mid-frame, so each piece just gets time to arrive on its own
            let pause = || std::thread::park_timeout(Duration::from_millis(30));
            let (first, rest) = body.split_at(body.len() / 2);
            peer.stream
                .write_all(&(body.len() as u32).to_le_bytes())
                .unwrap();
            pause();
            peer.stream.write_all(first).unwrap();
            pause();
            peer.stream.write_all(rest).unwrap();
            peer
        });
        let hub = pending.accept(1).unwrap();
        assert_eq!(hub.recv().unwrap().kind, MessageKind::JoinIn);
        assert_eq!(hub.recv().unwrap(), msg);
        drop(client.join().unwrap());
        match next_event(&hub) {
            HubEvent::Disconnected(6) => {}
            other => panic!("expected Disconnected(6), got {other:?}"),
        }
    }

    #[test]
    fn dropping_the_hub_ends_blocked_peers_and_closes_the_listener() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let (blocked_tx, blocked_rx) = channel();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(8)).unwrap();
            let _ = blocked_tx.send(peer.recv());
        });
        // connected but silent: never registered, still shut down on drop
        let mut silent = TcpStream::connect(addr).unwrap();
        let hub = pending.accept(1).unwrap();
        assert_eq!(hub.recv().unwrap().kind, MessageKind::JoinIn);
        drop(hub);
        let woke = blocked_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("a peer blocked in recv must not outlive the hub");
        assert!(matches!(woke, Err(TcpError::Io(_))), "got {woke:?}");
        client.join().unwrap();
        let (eof_tx, eof_rx) = channel();
        std::thread::spawn(move || eof_tx.send(silent.read(&mut [0u8; 1])));
        match eof_rx.recv_timeout(Duration::from_secs(5)) {
            Ok(Ok(0)) => {}
            Ok(Err(e)) if e.kind() == io::ErrorKind::ConnectionReset => {}
            other => panic!("an unregistered socket must be closed too, got {other:?}"),
        }
        // the acceptor is gone and took the listener with it
        match TcpStream::connect(addr) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused),
            Ok(_) => panic!("the old address still accepts"),
        }
    }

    #[test]
    fn rejoin_swaps_write_half_and_suppresses_stale_disconnect() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = ResilientPeer::connect(addr, 4)
                .unwrap()
                .with_reconnect(ReconnectPolicy::default())
                .with_faults(
                    FaultPlan::new(3)
                        .with(4, FaultSpec::dies_after(1))
                        .state_for(4),
                );
            assert_eq!(peer.send(&join_msg(4)).unwrap(), SendOutcome::Sent);
            // fault schedule kills the link on the second send attempt
            assert_eq!(peer.send(&join_msg(4)).unwrap(), SendOutcome::Disconnected);
            // the next op reconnects with the rejoin handshake
            peer.recv().unwrap()
        });
        let hub = pending.accept(1).unwrap();
        // the join, then — in either order — the dead connection's EOF and
        // the handshake of the one that replaces it
        let mut rejoined = false;
        while !rejoined {
            match next_event(&hub) {
                HubEvent::Rejoined(4) => rejoined = true,
                HubEvent::Message(_) | HubEvent::Disconnected(4) => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        // the fresh write half must be addressable
        hub.send(&id_msg(4)).expect("send after rejoin");
        let got = client.join().unwrap();
        assert_eq!(got.kind, MessageKind::IdAssignment);
        // the client's exit closes the fresh connection: exactly one more
        // event, and no stale `Disconnected` trailing the rejoin
        match next_event(&hub) {
            HubEvent::Disconnected(4) => {}
            other => panic!("unexpected event {other:?}"),
        }
        assert!(hub
            .recv_event_timeout(Duration::from_millis(50))
            .unwrap()
            .is_none());
    }

    #[test]
    fn a_restarted_peer_sheds_its_faults_and_rejoins_at_once() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let faults = FaultPlan::new(3)
                .with(7, FaultSpec::dies_after(1))
                .state_for(7);
            let mut peer = ResilientPeer::connect(addr, 7).unwrap().with_faults(faults);
            assert_eq!(peer.send(&join_msg(7)).unwrap(), SendOutcome::Sent);
            assert_eq!(peer.send(&join_msg(7)).unwrap(), SendOutcome::Disconnected);
            peer.restart().unwrap();
            // healthy from here on: the dead-forever schedule is gone
            assert_eq!(peer.send(&update_msg(7)).unwrap(), SendOutcome::Sent);
            assert_eq!(peer.send(&update_msg(7)).unwrap(), SendOutcome::Sent);
        });
        let hub = pending.accept(1).unwrap();
        let mut updates = 0;
        let mut rejoins = 0;
        while updates < 2 {
            match next_event(&hub) {
                HubEvent::Rejoined(7) => rejoins += 1,
                HubEvent::Message(m) if m.kind == MessageKind::Updates => updates += 1,
                HubEvent::Message(_) | HubEvent::Disconnected(7) => {}
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert_eq!(rejoins, 1, "the handshake precedes the restarted traffic");
        client.join().unwrap();
    }

    #[test]
    fn reconnect_backoff_is_capped() {
        let p = ReconnectPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
        };
        assert_eq!(p.backoff(0), Duration::from_millis(10));
        assert_eq!(p.backoff(1), Duration::from_millis(20));
        assert_eq!(p.backoff(2), Duration::from_millis(40));
        assert_eq!(p.backoff(3), Duration::from_millis(80));
        assert_eq!(p.backoff(9), Duration::from_millis(80), "capped");
    }

    #[test]
    fn reconnecting_to_a_dropped_hub_runs_out_of_attempts() {
        let pending = TcpHub::bind("127.0.0.1:0").unwrap();
        let addr = pending.local_addr().unwrap();
        let policy = ReconnectPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        let mut peer = ResilientPeer::connect(addr, 2)
            .unwrap()
            .with_reconnect(policy);
        assert_eq!(peer.send(&join_msg(2)).unwrap(), SendOutcome::Sent);
        drop(pending.accept(1).unwrap());
        // EOF, then three refused dials: the policy's error, not a hang
        assert!(matches!(peer.recv(), Err(TcpError::Io(_))));
    }

    #[test]
    fn hub_wire_counters_count_prefix_and_body_in_both_directions() {
        use fs_monitor::RecordingMonitor;

        let hub_mon = Arc::new(Mutex::new(RecordingMonitor::new()));
        let pending = TcpHub::bind("127.0.0.1:0")
            .unwrap()
            .with_monitor(MonitorHandle::from_shared(hub_mon.clone()));
        let addr = pending.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut peer = TcpPeer::connect(addr).unwrap();
            peer.send(&join_msg(1)).unwrap();
            let reply = peer.recv().unwrap();
            assert_eq!(reply.kind, MessageKind::IdAssignment);
        });
        let hub = pending.accept(1).unwrap();
        let joined = hub.recv().unwrap();
        assert_eq!(joined.sender, 1);
        hub.send(&id_msg(1)).unwrap();
        client.join().unwrap();
        let hub_mon = hub_mon.lock().unwrap();
        // real wire bytes = 4-byte length prefix + encoded frame, both ways
        assert_eq!(hub_mon.counter(counters::WIRE_FRAMES_IN), 1);
        assert_eq!(
            hub_mon.counter(counters::WIRE_BYTES_IN),
            4 + join_msg(1).wire_bytes() as u64
        );
        assert_eq!(hub_mon.counter(counters::WIRE_FRAMES_OUT), 1);
        assert_eq!(
            hub_mon.counter(counters::WIRE_BYTES_OUT),
            4 + id_msg(1).wire_bytes() as u64
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let h = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // write a bogus huge length prefix
            s.write_all(&(u32::MAX).to_le_bytes()).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        h.join().unwrap();
        match read_frame(&mut client, &MonitorHandle::null()) {
            Err(TcpError::FrameTooLarge(u32::MAX)) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
