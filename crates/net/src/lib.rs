//! `fs-net` — messages, events, the neutral wire format, the transports.
//!
//! FederatedScope abstracts all exchanged information as *messages* and makes
//! cross-backend FL possible through *message translation* (§3.5): every
//! participant encodes backend-native tensors into a pre-agreed
//! backend-independent format before sharing, and decodes received messages
//! into its own representation. This crate provides:
//!
//! * [`message`] — the typed [`message::Message`] envelope (sender, receiver,
//!   kind, round, virtual timestamp, payload);
//! * [`event`] — the event vocabulary (§3.2): message-passing events wrap a
//!   [`message::MessageKind`]; condition-checking events name a predicate.
//!   Living here (below both `fs-core` and `fs-verify`) lets the engine and
//!   the static verifier share it without a dependency cycle;
//! * [`wire`] — the neutral binary codec for parameters and whole messages
//!   (the *encoding*/*decoding* procedures of §3.5), built on `bytes`;
//! * [`bus`] — an in-process transport (crossbeam channels) used by the
//!   distributed runner, where the same worker code runs on real threads;
//! * [`tcp`] — the same wire frames over real sockets (`std::net`), so
//!   participants can run as separate processes.

// Library code must surface malformed input as typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod bus;
pub mod event;
pub mod fault;
pub mod message;
pub mod tcp;
pub mod topology;
pub mod wire;

pub use event::{Condition, Event};
pub use fault::{FaultAction, FaultPlan, FaultSpec, FaultState, SendOutcome};
pub use message::{Message, MessageKind, ParticipantId, Payload, UpdateBody, UpdateRef, SERVER_ID};
pub use topology::{Topology, TopologyError, TopologyPlan};
