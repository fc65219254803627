//! Deterministic fault injection for the distributed transports.
//!
//! Real cross-device FL runs over unreliable clients: frames get lost,
//! links stall, devices die mid-round (§3.3.1, §5.3.1). This module is the
//! seeded fault model the distributed runners and the `exp_faults` grid
//! inject through: a [`FaultPlan`] assigns each participant a [`FaultSpec`]
//! (drop probability, per-frame delay, disconnect-after-N-frames), and each
//! participant draws its [`FaultState`] from the plan — an independent RNG
//! stream keyed by `(plan seed, participant id)`, so the same plan replays
//! the same fault schedule regardless of thread interleaving.
//!
//! The model is transport-agnostic: [`FaultyBus`] applies it to in-process
//! bus sends, and `fs_net::tcp::ResilientPeer` applies it to socket frames
//! (where a `Disconnect` verdict really closes the connection, so the hub's
//! liveness machinery is exercised end to end).

use crate::bus::{Bus, BusError};
use crate::message::{Message, ParticipantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;

/// Per-participant fault behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSpec {
    /// Probability that any given outgoing frame is silently lost.
    pub drop_prob: f64,
    /// Fixed extra latency applied to every delivered frame, milliseconds.
    pub delay_ms: u64,
    /// Number of frames the participant sends successfully before its
    /// connection dies (the N+1th send attempt disconnects instead).
    pub disconnect_after: Option<u64>,
}

impl FaultSpec {
    /// A perfectly healthy participant (the default).
    pub fn healthy() -> Self {
        Self::default()
    }

    /// Loses each frame with probability `p`, independently.
    pub fn lossy(p: f64) -> Self {
        Self {
            drop_prob: p,
            ..Self::default()
        }
    }

    /// Sends `n` frames, then the connection dies.
    pub fn dies_after(n: u64) -> Self {
        Self {
            disconnect_after: Some(n),
            ..Self::default()
        }
    }
}

/// The verdict for one frame-send attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the frame (after the spec's delay, if any).
    Deliver,
    /// Silently lose the frame; the connection stays up.
    Drop,
    /// The connection dies; the frame is lost and no further frames flow
    /// until (and unless) the participant reconnects.
    Disconnect,
}

/// A seeded, per-participant fault schedule for one course.
///
/// Overrides live in a `BTreeMap` so every walk over them (roster listings,
/// fault-draw setup) is in participant-id order by construction (fs-net's
/// `clippy.toml` disallows `HashMap` / `HashSet`).
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    overrides: BTreeMap<ParticipantId, FaultSpec>,
}

impl FaultPlan {
    /// A plan where every participant is healthy unless overridden.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            overrides: BTreeMap::new(),
        }
    }

    /// Sets one participant's spec.
    pub fn with(mut self, id: ParticipantId, spec: FaultSpec) -> Self {
        self.overrides.insert(id, spec);
        self
    }

    /// The spec governing `id`.
    pub fn spec_for(&self, id: ParticipantId) -> FaultSpec {
        self.overrides.get(&id).copied().unwrap_or_default()
    }

    /// Builds `id`'s fault state: an independent RNG stream keyed by
    /// `(seed, id)`, so schedules are reproducible per participant no matter
    /// how threads interleave.
    pub fn state_for(&self, id: ParticipantId) -> FaultState {
        FaultState {
            spec: self.spec_for(id),
            rng: StdRng::seed_from_u64(
                self.seed ^ (u64::from(id)).wrapping_mul(0x9e3779b97f4a7c15),
            ),
            frames: 0,
        }
    }
}

/// One participant's live fault schedule.
#[derive(Clone, Debug)]
pub struct FaultState {
    spec: FaultSpec,
    rng: StdRng,
    frames: u64,
}

impl FaultState {
    /// Judges the next frame-send attempt. Counts the attempt.
    pub fn next_action(&mut self) -> FaultAction {
        self.frames += 1;
        if let Some(n) = self.spec.disconnect_after {
            if self.frames > n {
                return FaultAction::Disconnect;
            }
        }
        if self.spec.drop_prob > 0.0 && self.rng.gen::<f64>() < self.spec.drop_prob {
            return FaultAction::Drop;
        }
        FaultAction::Deliver
    }

    /// The extra per-frame latency, if any.
    pub fn delay(&self) -> Option<Duration> {
        (self.spec.delay_ms > 0).then(|| Duration::from_millis(self.spec.delay_ms))
    }

    /// Frame-send attempts judged so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }
}

/// What happened to a frame pushed through a faulty link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendOutcome {
    /// The frame reached the transport.
    Sent,
    /// The frame was lost; the link stays up.
    Dropped,
    /// The link died; the frame was lost.
    Disconnected,
}

/// A client's view of the in-process bus with fault injection on its sends.
///
/// Once a `Disconnect` verdict fires, every later send reports
/// [`SendOutcome::Disconnected`] without touching the bus — the participant
/// is gone, exactly like a dead socket.
pub struct FaultyBus {
    bus: Bus,
    state: FaultState,
    dead: bool,
}

impl FaultyBus {
    /// Wraps a bus clone with `state`'s fault schedule.
    pub fn new(bus: Bus, state: FaultState) -> Self {
        Self {
            bus,
            state,
            dead: false,
        }
    }

    /// Sends `msg` through the fault model.
    pub fn send(&mut self, msg: &Message) -> Result<SendOutcome, BusError> {
        if self.dead {
            return Ok(SendOutcome::Disconnected);
        }
        match self.state.next_action() {
            FaultAction::Deliver => {
                if let Some(d) = self.state.delay() {
                    std::thread::sleep(d);
                }
                self.bus.send(msg)?;
                Ok(SendOutcome::Sent)
            }
            FaultAction::Drop => Ok(SendOutcome::Dropped),
            FaultAction::Disconnect => {
                self.dead = true;
                Ok(SendOutcome::Disconnected)
            }
        }
    }

    /// The underlying bus, past the fault model.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_participant() {
        let lossy = FaultSpec::lossy(0.5);
        let plan = FaultPlan::new(7).with(3, lossy).with(4, lossy);
        let mut a1 = plan.state_for(3);
        let mut a2 = plan.state_for(3);
        let seq1: Vec<FaultAction> = (0..64).map(|_| a1.next_action()).collect();
        let seq2: Vec<FaultAction> = (0..64).map(|_| a2.next_action()).collect();
        assert_eq!(seq1, seq2, "same (seed, id) must replay the same schedule");
        let mut b = plan.state_for(4);
        let seq3: Vec<FaultAction> = (0..64).map(|_| b.next_action()).collect();
        assert_ne!(seq1, seq3, "different ids draw independent streams");
    }

    #[test]
    fn disconnect_fires_after_n_frames() {
        let plan = FaultPlan::new(1).with(2, FaultSpec::dies_after(3));
        let mut s = plan.state_for(2);
        for _ in 0..3 {
            assert_eq!(s.next_action(), FaultAction::Deliver);
        }
        assert_eq!(s.next_action(), FaultAction::Disconnect);
        assert_eq!(s.next_action(), FaultAction::Disconnect);
    }

    #[test]
    fn healthy_default_always_delivers() {
        let plan = FaultPlan::new(9);
        let mut s = plan.state_for(1);
        for _ in 0..100 {
            assert_eq!(s.next_action(), FaultAction::Deliver);
        }
    }

    #[test]
    fn faulty_bus_goes_silent_after_disconnect() {
        use crate::message::{MessageKind, Payload, SERVER_ID};
        let mut bus = Bus::new();
        let server_mb = bus.register(SERVER_ID);
        bus.register(1);
        let plan = FaultPlan::new(5).with(1, FaultSpec::dies_after(1));
        let mut link = FaultyBus::new(bus, plan.state_for(1));
        let msg = Message::new(1, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
        assert_eq!(link.send(&msg).unwrap(), SendOutcome::Sent);
        assert_eq!(link.send(&msg).unwrap(), SendOutcome::Disconnected);
        assert_eq!(link.send(&msg).unwrap(), SendOutcome::Disconnected);
        // exactly one frame crossed the bus
        assert!(server_mb.try_recv().unwrap().is_some());
        assert!(server_mb.try_recv().unwrap().is_none());
    }
}
