//! In-process message bus for the distributed runner.
//!
//! Each participant owns a mailbox (an unbounded crossbeam channel); the bus
//! routes by receiver id. To stay honest about message translation, the bus
//! moves *wire bytes*, not typed messages: every send encodes and every
//! receive decodes, exactly as a socket transport would.

use crate::message::{Message, ParticipantId};
use crate::wire::{decode_message, encode_message, CodecError};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Errors raised by bus operations.
#[derive(Debug)]
pub enum BusError {
    /// The receiver id is not registered.
    UnknownReceiver(ParticipantId),
    /// The receiving mailbox was dropped.
    Disconnected(ParticipantId),
    /// Wire decoding failed.
    Codec(CodecError),
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::UnknownReceiver(id) => write!(f, "unknown receiver {id}"),
            BusError::Disconnected(id) => write!(f, "mailbox {id} disconnected"),
            BusError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for BusError {}

impl From<CodecError> for BusError {
    fn from(e: CodecError) -> Self {
        BusError::Codec(e)
    }
}

/// Routes wire-encoded messages between registered participants.
///
/// Keyed by a `BTreeMap` so any future iteration over the roster is in
/// participant-id order by construction (fs-net's `clippy.toml` disallows
/// `HashMap` / `HashSet`).
#[derive(Clone, Default)]
pub struct Bus {
    senders: BTreeMap<ParticipantId, Sender<Bytes>>,
}

impl Bus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a participant, returning its mailbox.
    pub fn register(&mut self, id: ParticipantId) -> Mailbox {
        let (tx, rx) = unbounded();
        self.senders.insert(id, tx);
        Mailbox { id, rx }
    }

    /// Encodes and delivers `msg` to its receiver's mailbox.
    pub fn send(&self, msg: &Message) -> Result<(), BusError> {
        let tx = self
            .senders
            .get(&msg.receiver)
            .ok_or(BusError::UnknownReceiver(msg.receiver))?;
        tx.send(encode_message(msg))
            .map_err(|_| BusError::Disconnected(msg.receiver))
    }
}

/// A participant's receive side.
pub struct Mailbox {
    id: ParticipantId,
    rx: Receiver<Bytes>,
}

impl Mailbox {
    /// Blocks until a message arrives, decoding it.
    pub fn recv(&self) -> Result<Message, BusError> {
        let bytes = self
            .rx
            .recv()
            .map_err(|_| BusError::Disconnected(self.id))?;
        Ok(decode_message(&bytes)?)
    }

    /// Blocks up to `timeout` for a message; `Ok(None)` when the timeout
    /// elapses with the mailbox still empty. The blocking path the
    /// distributed server loop uses instead of busy-polling.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, BusError> {
        match self.rx.recv_timeout(timeout) {
            Ok(bytes) => Ok(Some(decode_message(&bytes)?)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(BusError::Disconnected(self.id)),
        }
    }

    /// Non-blocking receive; `Ok(None)` when the mailbox is empty.
    pub fn try_recv(&self) -> Result<Option<Message>, BusError> {
        match self.rx.try_recv() {
            Ok(bytes) => Ok(Some(decode_message(&bytes)?)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(BusError::Disconnected(self.id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{MessageKind, Payload};

    #[test]
    fn send_and_receive_roundtrip() {
        let mut bus = Bus::new();
        let server_box = bus.register(0);
        let _client_box = bus.register(1);
        let msg = Message::new(1, 0, MessageKind::JoinIn, 0, Payload::Empty);
        bus.send(&msg).unwrap();
        let got = server_box.recv().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn unknown_receiver_errors() {
        let bus = Bus::new();
        let msg = Message::new(1, 9, MessageKind::JoinIn, 0, Payload::Empty);
        assert!(matches!(bus.send(&msg), Err(BusError::UnknownReceiver(9))));
    }

    #[test]
    fn try_recv_empty_returns_none() {
        let mut bus = Bus::new();
        let mb = bus.register(0);
        assert!(mb.try_recv().unwrap().is_none());
    }

    #[test]
    fn cross_thread_delivery() {
        let mut bus = Bus::new();
        let server_box = bus.register(0);
        bus.register(1);
        let bus2 = bus.clone();
        let h = std::thread::spawn(move || {
            for r in 0..5u64 {
                let m = Message::new(1, 0, MessageKind::Updates, r, Payload::Empty);
                bus2.send(&m).unwrap();
            }
        });
        h.join().unwrap();
        for r in 0..5u64 {
            assert_eq!(server_box.recv().unwrap().round, r);
        }
    }
}
