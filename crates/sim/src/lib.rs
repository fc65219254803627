//! `fs-sim` — virtual time, device heterogeneity, and the discrete-event queue.
//!
//! The paper evaluates by *simulation with virtual timestamps* (§5.3.1,
//! following FedScale's best practice): the server broadcasts at timestamp 0,
//! each client replies at `received + compute + communication`, the server
//! handles messages in timestamp order, and the next broadcast inherits the
//! timestamp of the message that triggered it. This crate provides the three
//! pieces that protocol needs:
//!
//! * [`time::VirtualTime`] — a totally ordered virtual clock;
//! * [`device::DeviceProfile`] / [`device::Fleet`] — per-client compute speed,
//!   bandwidth, and reliability drawn from heavy-tailed distributions (the
//!   paper uses FedScale device traces; we substitute log-normal draws, which
//!   reproduce the heterogeneity the async experiments exercise);
//! * [`queue::IndexedEventQueue`] — the deterministic `(time, seq)`-ordered
//!   event heap the virtual-time course loop drains.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]

pub mod device;
pub mod queue;
pub mod time;

pub use device::{DeviceProfile, Fleet, FleetConfig};
pub use queue::IndexedEventQueue;
pub use time::VirtualTime;
