//! The transport seam under the distributed driver.
//!
//! [`crate::distributed`] runs one server loop and one set of workers; what
//! carries their frames is a `Transport` — the in-process bus
//! ([`BusRunOptions`]) or TCP loopback ([`TcpRunOptions`]), chosen by which
//! options type the caller passes. A transport gives the server a
//! `ServerPort` and every other participant a `Link`.
//!
//! # Contract
//!
//! * **Ordering.** `LoopEvent::Closed(id)` is delivered after every frame
//!   `id`'s link handed the server *directly* (the bus enqueues a close
//!   marker behind them on the same mailbox; the hub's per-connection reader
//!   queues frames, then the EOF). Frames that travelled through a relay are
//!   not ordered against it.
//! * **Receiver gone.** `ServerPort::send` answers `Ok(false)` — never an
//!   error — when the receiver's mailbox or connection no longer exists
//!   (`BusError::{UnknownReceiver, Disconnected}`,
//!   `TcpError::{UnknownReceiver, Io}`); a `Link` reports the same
//!   condition for a peer-addressed frame as `SendOutcome::Dropped`.
//! * **Peer frames.** A frame addressed to another participant reaches that
//!   participant, never the server's handlers: the bus delivers it, the TCP
//!   port forwards it between connections (the hub is the switching fabric).
//! * **Transport-internal traffic** — the TCP `HELLO` that registers a
//!   participant which does not speak first, reconnect handshakes, fault
//!   injection — stays inside the implementation. The `MessageKind::Custom`
//!   tags in [`RESERVED`] belong to it and to the driver's control frames; a
//!   course whose handlers use one is refused before any thread is spawned.

use crate::distributed::{DistributedError, WorkerOutcome};
use fs_monitor::MonitorHandle;
use fs_net::bus::{Bus, BusError, Mailbox};
use fs_net::fault::{FaultPlan, FaultState, FaultyBus, SendOutcome};
use fs_net::tcp::{HubEvent, ReconnectPolicy, ResilientPeer, TcpError, TcpHub};
use fs_net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use std::net::SocketAddr;
use std::ops::RangeInclusive;
use std::time::Duration;

/// The `MessageKind::Custom` tags user handlers may not use on the threaded
/// driver: the transports' `HELLO` and `LINK_CLOSED`, the driver's `REHOME`
/// and `SHUTDOWN`.
pub const RESERVED: RangeInclusive<u16> = 0x70..=0x73;

/// First frame a participant that does not speak first (an edge relay, a
/// gossip peer) sends a TCP hub, so its connection registers under its own
/// id — relayed frames keep the *original* sender, which must never re-key
/// the connection.
pub(crate) const HELLO: MessageKind = MessageKind::Custom(0x70);

/// The bus link's close marker: enqueued on the server's mailbox when a
/// participant's link is dropped, behind every frame that link sent there.
pub(crate) const LINK_CLOSED: MessageKind = MessageKind::Custom(0x73);

/// What steps the server loop: transport events and worker exits. The loop
/// sees no clock; when nothing arrives, nothing is stepped.
#[derive(Debug)]
pub(crate) enum LoopEvent {
    /// A decoded frame addressed to the server.
    Message(Message),
    /// `id`'s link to the server closed (see the module-level ordering
    /// guarantee).
    Closed(ParticipantId),
    /// `id` re-entered over a fresh link after an outage.
    Rejoined(ParticipantId),
    /// A participant sent bytes the wire codec rejects.
    Codec(String),
    /// A worker thread ended.
    Exit(ParticipantId, WorkerOutcome),
}

/// The server's end of a transport.
pub(crate) trait ServerPort {
    /// Blocks up to `timeout` for the next event. `Ok(None)` when nothing
    /// for the loop arrived (the timeout elapsed, or the frame was
    /// transport-internal). Never yields `Exit`.
    fn recv_event(&mut self, timeout: Duration) -> Result<Option<LoopEvent>, DistributedError>;

    /// Sends `msg` to its receiver; `Ok(false)` when the receiver is gone.
    fn send(&mut self, msg: &Message) -> Result<bool, DistributedError>;
}

/// A participant's end of a transport, fault injection and reconnects
/// included.
pub(crate) trait Link {
    /// Sends one frame. [`SendOutcome::Disconnected`] means the link is gone
    /// for good; an outage the link will recover from is `Dropped`.
    fn send(&mut self, msg: &Message) -> Result<SendOutcome, DistributedError>;

    /// Blocks for the next frame; `Ok(None)` when the link is gone for good.
    fn recv(&mut self) -> Result<Option<Message>, DistributedError>;
}

/// Brings one participant's link up, on that participant's own thread.
/// `announce` is set by participants that do not speak first.
pub(crate) type Dialer = Box<dyn FnOnce(bool) -> Result<Box<dyn Link>, DistributedError> + Send>;

/// An opened transport: the run's monitor handle (sharded — the caller folds
/// it with `flush_counters` once every producer is done), each participant's
/// [`Dialer`] in the order asked for, and the accept step that yields the
/// server port once they have all dialed (or the wait ran out).
pub(crate) struct Opened<P> {
    /// Observability sink for the server loop and the tier counters.
    pub(crate) monitor: MonitorHandle,
    /// Every participant's dialer, in the order the ids were given.
    pub(crate) dialers: Vec<(ParticipantId, Dialer)>,
    /// Waits for every participant, up to the given duration.
    pub(crate) accept: Box<dyn FnOnce(Duration) -> Result<P, DistributedError>>,
}

/// A backend the distributed driver can run over.
pub(crate) trait Transport {
    /// The server's end.
    type Port: ServerPort;

    /// Opens the transport for participants `ids` (the server excluded).
    fn open(self, ids: &[ParticipantId]) -> Result<Opened<Self::Port>, DistributedError>;

    /// Whether every frame a link accepts reaches its receiver: no fault
    /// plan, no reconnect policy. A course without a dropout policy of its
    /// own (gossip) runs only over a lossless transport.
    fn lossless(&self) -> bool;
}

// ---------------------------------------------------------------------------
// in-process bus
// ---------------------------------------------------------------------------

/// Options for a bus-backed distributed run.
#[derive(Default)]
pub struct BusRunOptions {
    /// Fault injection applied to every participant's sends.
    pub faults: Option<FaultPlan>,
    /// Observability sink for the server's handler contexts.
    pub monitor: MonitorHandle,
}

/// The server's mailbox plus a sender to everyone else's.
pub(crate) struct BusPort {
    bus: Bus,
    mailbox: Mailbox,
}

impl ServerPort for BusPort {
    fn recv_event(&mut self, timeout: Duration) -> Result<Option<LoopEvent>, DistributedError> {
        Ok(self.mailbox.recv_timeout(timeout)?.map(|msg| {
            if msg.kind == LINK_CLOSED {
                LoopEvent::Closed(msg.sender)
            } else {
                LoopEvent::Message(msg)
            }
        }))
    }

    fn send(&mut self, msg: &Message) -> Result<bool, DistributedError> {
        // the bus fails a send only for an unknown or dropped mailbox
        Ok(self.bus.send(msg).is_ok())
    }
}

struct BusLink {
    id: ParticipantId,
    out: FaultyBus,
    mailbox: Mailbox,
}

impl Link for BusLink {
    fn send(&mut self, msg: &Message) -> Result<SendOutcome, DistributedError> {
        match self.out.send(msg) {
            Ok(outcome) => Ok(outcome),
            // a dead relay or a finished peer: the frame is lost to the
            // outage, which the server repairs (re-homing, re-arming)
            Err(BusError::Disconnected(r) | BusError::UnknownReceiver(r)) if r != SERVER_ID => {
                Ok(SendOutcome::Dropped)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn recv(&mut self) -> Result<Option<Message>, DistributedError> {
        match self.mailbox.recv() {
            Ok(msg) => Ok(Some(msg)),
            Err(BusError::Disconnected(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

impl Drop for BusLink {
    fn drop(&mut self) {
        // straight onto the bus: a fault-killed link still closes, exactly
        // as a dead socket still produces an EOF
        let marker = Message::new(self.id, SERVER_ID, LINK_CLOSED, 0, Payload::Empty);
        let _ = self.out.bus().send(&marker);
    }
}

impl Transport for BusRunOptions {
    type Port = BusPort;

    fn open(self, ids: &[ParticipantId]) -> Result<Opened<BusPort>, DistributedError> {
        let faults = self.faults.unwrap_or_default();
        let mut bus = Bus::new();
        let mailbox = bus.register(SERVER_ID);
        // register every mailbox BEFORE any link clones the bus: Bus clones
        // snapshot the sender map, so a clone taken mid-registration would
        // silently lack the later participants' mailboxes
        let mailboxes: Vec<Mailbox> = ids.iter().map(|&id| bus.register(id)).collect();
        let dialers = ids
            .iter()
            .zip(mailboxes)
            .map(|(&id, mailbox)| {
                let link = BusLink {
                    id,
                    out: FaultyBus::new(bus.clone(), faults.state_for(id)),
                    mailbox,
                };
                let dial = move |_announce| Ok(Box::new(link) as Box<dyn Link>);
                (id, Box::new(dial) as Dialer)
            })
            .collect();
        Ok(Opened {
            monitor: self.monitor.sharded(),
            dialers,
            accept: Box::new(move |_wait| Ok(BusPort { bus, mailbox })),
        })
    }

    fn lossless(&self) -> bool {
        self.faults.is_none()
    }
}

// ---------------------------------------------------------------------------
// TCP loopback
// ---------------------------------------------------------------------------

/// Options for a TCP-backed distributed run.
#[derive(Default)]
pub struct TcpRunOptions {
    /// Listening address; `None` binds an ephemeral localhost port.
    pub addr: Option<SocketAddr>,
    /// Fault injection applied to every participant's socket sends.
    pub faults: Option<FaultPlan>,
    /// When set, participants survive outages: capped exponential backoff,
    /// then a rejoin handshake.
    pub reconnect: Option<ReconnectPolicy>,
    /// Observability sink (server contexts + hub wire counters).
    pub monitor: MonitorHandle,
}

/// The hub, as the server's port and the switching fabric between tiers.
pub(crate) struct TcpPort {
    hub: TcpHub,
}

impl ServerPort for TcpPort {
    fn recv_event(&mut self, timeout: Duration) -> Result<Option<LoopEvent>, DistributedError> {
        let event = match self.hub.recv_event_timeout(timeout) {
            Ok(Some(event)) => event,
            Ok(None) => return Ok(None),
            Err(_) => return Err(DistributedError::Timeout),
        };
        Ok(match event {
            HubEvent::Message(msg) if msg.kind == HELLO => None,
            HubEvent::Message(msg) if msg.receiver != SERVER_ID => {
                // transit frame: a hop into a dead or reconnecting
                // connection is a frame lost to the outage
                let _ = self.hub.send(&msg);
                None
            }
            HubEvent::Message(msg) => Some(LoopEvent::Message(msg)),
            HubEvent::Disconnected(id) => Some(LoopEvent::Closed(id)),
            HubEvent::Rejoined(id) => Some(LoopEvent::Rejoined(id)),
            HubEvent::Codec(_, detail) => Some(LoopEvent::Codec(detail)),
        })
    }

    fn send(&mut self, msg: &Message) -> Result<bool, DistributedError> {
        match self.hub.send(msg) {
            Ok(()) => Ok(true),
            Err(TcpError::UnknownReceiver(_) | TcpError::Io(_)) => Ok(false),
            Err(e) => Err(e.into()),
        }
    }
}

struct TcpLink {
    peer: ResilientPeer,
    /// A reconnect policy is set: an outage is survivable.
    recovers: bool,
    /// Announced participants are infrastructure processes (relays, peers):
    /// an injected disconnect models the process crashing, and under a
    /// reconnect policy it restarts on a fresh, healthy connection.
    announced: bool,
}

impl TcpLink {
    fn dial(
        addr: SocketAddr,
        id: ParticipantId,
        faults: FaultState,
        reconnect: Option<ReconnectPolicy>,
        announced: bool,
    ) -> Result<Box<dyn Link>, DistributedError> {
        let mut peer = ResilientPeer::connect(addr, id)?.with_faults(faults);
        if let Some(policy) = reconnect {
            peer = peer.with_reconnect(policy);
        }
        let mut link = TcpLink {
            peer,
            recovers: reconnect.is_some(),
            announced,
        };
        if announced {
            // identify immediately: the hub keys connections by first
            // sender, and waiting for traffic would stall the accept barrier
            link.send(&Message::new(id, SERVER_ID, HELLO, 0, Payload::Empty))?;
        }
        Ok(Box::new(link))
    }
}

impl Link for TcpLink {
    fn send(&mut self, msg: &Message) -> Result<SendOutcome, DistributedError> {
        match self.peer.send(msg)? {
            SendOutcome::Disconnected if self.recovers => {
                if self.announced {
                    // the first frame of the fresh connection is the rejoin
                    // handshake, so the hub swaps generations and the server
                    // sees `Rejoined`
                    self.peer.restart()?;
                }
                // otherwise the peer's next operation reconnects by itself
                Ok(SendOutcome::Dropped)
            }
            outcome => Ok(outcome),
        }
    }

    fn recv(&mut self) -> Result<Option<Message>, DistributedError> {
        match self.peer.recv() {
            Ok(msg) => Ok(Some(msg)),
            // no policy, or its retries are spent
            Err(TcpError::Closed | TcpError::Io(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

impl Transport for TcpRunOptions {
    type Port = TcpPort;

    fn open(self, ids: &[ParticipantId]) -> Result<Opened<TcpPort>, DistributedError> {
        // `wire.*` counters are bumped from every socket thread: the sharded
        // bank keeps frame I/O off the monitor mutex
        let monitor = self.monitor.sharded();
        let bind_addr = self
            .addr
            .unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0)));
        let pending = TcpHub::bind(bind_addr)
            .map_err(bind_error)?
            .with_monitor(monitor.clone());
        let addr = pending.local_addr().map_err(bind_error)?;
        let faults = self.faults.unwrap_or_default();
        let reconnect = self.reconnect;
        let dialers = ids
            .iter()
            .map(|&id| {
                let faults = faults.state_for(id);
                let dial = move |announce| TcpLink::dial(addr, id, faults, reconnect, announce);
                (id, Box::new(dial) as Dialer)
            })
            .collect();
        let expected = ids.len();
        Ok(Opened {
            monitor,
            dialers,
            accept: Box::new(move |wait| match pending.accept_within(expected, wait) {
                Ok(hub) => Ok(TcpPort { hub }),
                Err(_) => Err(DistributedError::Timeout),
            }),
        })
    }

    fn lossless(&self) -> bool {
        self.faults.is_none() && self.reconnect.is_none()
    }
}

fn bind_error(e: TcpError) -> DistributedError {
    match e {
        TcpError::Io(io) => DistributedError::Bind(io),
        other => DistributedError::Bind(std::io::Error::other(other.to_string())),
    }
}
