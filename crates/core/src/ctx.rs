//! The handler execution context.
//!
//! A handler cannot touch the network or the clock directly; it records
//! intents in the [`Ctx`] — messages to send (with an attached local compute
//! delay), timers to arm, condition events to raise — and the runner realizes
//! them. This keeps worker code identical between the virtual-time standalone
//! runner and the threaded distributed runner.

use crate::event::{Condition, Event};
use fs_monitor::MonitorHandle;
use fs_net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use fs_sim::VirtualTime;
use std::collections::VecDeque;

/// An outgoing message plus the local compute *work* spent producing it.
///
/// Work is measured in training examples processed; the standalone runner
/// converts it to seconds through the sender's device profile and stamps the
/// arrival timestamp as `now + compute + communication` per the paper's
/// virtual-time protocol. The distributed runner ignores it.
#[derive(Clone, Debug)]
pub struct Outgoing {
    /// The message to deliver.
    pub msg: Message,
    /// Local compute work (training examples processed) preceding the send.
    /// Zero for instantaneous replies; the server's work is always zero (the
    /// paper assumes server time is negligible).
    pub compute_work: f64,
}

/// A timer to be delivered back to the arming participant as a condition
/// event after `delay_secs` of virtual time.
#[derive(Clone, Copy, Debug)]
pub struct Timer {
    /// Delay from now, in virtual seconds.
    pub delay_secs: f64,
    /// The condition event the timer raises.
    pub condition: Condition,
    /// The round the timer belongs to; stale timers are ignored by handlers.
    pub round: u64,
}

/// A server-side broadcast recorded at cohort granularity: one payload, many
/// targets, scheduled by the virtual-time loop as a single heap entry instead
/// of per-client owned messages.
#[derive(Clone, Debug)]
pub struct BatchedBroadcast {
    /// `outbox.len()` at record time: the broadcast happened after this many
    /// individual sends, so a runner replaying the dispatch interleaves it at
    /// exactly this point to preserve the global message order.
    pub anchor: usize,
    /// Message kind shared by every copy.
    pub kind: MessageKind,
    /// Round stamp shared by every copy.
    pub round: u64,
    /// Payload shared by every copy (cloned per target on delivery).
    pub payload: Payload,
    /// Recipients, in broadcast order.
    pub targets: Vec<ParticipantId>,
}

/// Mutable per-dispatch context handed to every handler.
pub struct Ctx {
    /// Current virtual time (arrival time of the triggering message).
    pub now: VirtualTime,
    /// Messages queued for sending.
    pub outbox: Vec<Outgoing>,
    /// Timers armed during this dispatch.
    pub timers: Vec<Timer>,
    /// Condition events raised during this dispatch, processed FIFO
    /// immediately after the current handler returns.
    pub raised: VecDeque<Condition>,
    /// Every event emitted through this context, in order — sends, raises,
    /// and timers alike. [`crate::registry::Registry::dispatch`] diffs this
    /// log against the handler's declared `emits` to catch undeclared
    /// emissions (`FSV040`).
    pub emitted: Vec<Event>,
    /// Set when the participant considers the course finished.
    pub finished: bool,
    /// Observability sink. Null (free) unless the runner attached a monitor;
    /// handlers record domain counters and round metrics through it.
    pub monitor: MonitorHandle,
    /// When set (by the virtual-time loop, on server dispatches),
    /// [`Ctx::broadcast`] records a single [`BatchedBroadcast`] instead of
    /// expanding into per-target outbox entries. Defaults to `false`: the
    /// distributed runners ship one owned message per client.
    pub batch_broadcasts: bool,
    /// Broadcasts recorded while `batch_broadcasts` was set, in order.
    pub broadcasts: Vec<BatchedBroadcast>,
}

impl Ctx {
    /// Creates a context at the given virtual time with a null monitor.
    pub fn at(now: VirtualTime) -> Self {
        Self {
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            raised: VecDeque::new(),
            emitted: Vec::new(),
            finished: false,
            monitor: MonitorHandle::null(),
            batch_broadcasts: false,
            broadcasts: Vec::new(),
        }
    }

    /// Creates a context carrying the runner's monitor handle.
    pub fn with_monitor(now: VirtualTime, monitor: MonitorHandle) -> Self {
        Self {
            monitor,
            ..Self::at(now)
        }
    }

    /// Queues a message with zero local compute work.
    pub fn send(&mut self, msg: Message) {
        self.emitted.push(Event::Message(msg.kind));
        self.outbox.push(Outgoing {
            msg,
            compute_work: 0.0,
        });
    }

    /// Queues a message preceded by `compute_work` examples of local
    /// computation (e.g. local training).
    pub fn send_after_compute(&mut self, msg: Message, compute_work: f64) {
        self.emitted.push(Event::Message(msg.kind));
        self.outbox.push(Outgoing { msg, compute_work });
    }

    /// Raises a condition event, to be handled right after the current
    /// handler returns.
    pub fn raise(&mut self, condition: Condition) {
        self.emitted.push(Event::Condition(condition));
        self.raised.push_back(condition);
    }

    /// Broadcasts `payload` from the server to every client in `targets`.
    ///
    /// By default this expands into one [`Ctx::send`] per target, which is
    /// what the distributed runners ship. Under the virtual-time loop
    /// (`batch_broadcasts` set) it records a single
    /// [`BatchedBroadcast`] and one emitted event; registry conformance diffs
    /// emissions by membership, not count, so the two paths are
    /// conformance-equivalent. Empty target lists are a no-op either way.
    pub fn broadcast(
        &mut self,
        kind: MessageKind,
        round: u64,
        payload: Payload,
        targets: &[ParticipantId],
    ) {
        if targets.is_empty() {
            return;
        }
        if self.batch_broadcasts {
            self.emitted.push(Event::Message(kind));
            self.broadcasts.push(BatchedBroadcast {
                anchor: self.outbox.len(),
                kind,
                round,
                payload,
                targets: targets.to_vec(),
            });
        } else {
            self.outbox.reserve(targets.len());
            for &c in targets {
                self.send(Message::new(SERVER_ID, c, kind, round, payload.clone()));
            }
        }
    }

    /// Arms a timer that will raise `condition` after `delay_secs`.
    pub fn arm_timer(&mut self, delay_secs: f64, condition: Condition, round: u64) {
        self.emitted.push(Event::Condition(condition));
        self.timers.push(Timer {
            delay_secs,
            condition,
            round,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_net::{MessageKind, Payload};

    #[test]
    fn intents_accumulate() {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        ctx.send(Message::new(0, 1, MessageKind::Finish, 3, Payload::Empty));
        ctx.send_after_compute(
            Message::new(1, 0, MessageKind::Updates, 3, Payload::Empty),
            2.5,
        );
        ctx.raise(Condition::GoalAchieved);
        ctx.arm_timer(10.0, Condition::TimeUp, 3);
        assert_eq!(ctx.outbox.len(), 2);
        assert_eq!(ctx.outbox[1].compute_work, 2.5);
        assert_eq!(ctx.raised.len(), 1);
        assert_eq!(ctx.timers.len(), 1);
        assert!(!ctx.finished);
    }

    #[test]
    fn broadcast_expands_per_target_by_default() {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        ctx.broadcast(MessageKind::ModelParams, 2, Payload::Empty, &[1, 2, 3]);
        assert_eq!(ctx.outbox.len(), 3);
        assert!(ctx.broadcasts.is_empty());
        assert_eq!(ctx.emitted.len(), 3);
        for (i, out) in ctx.outbox.iter().enumerate() {
            assert_eq!(out.msg.receiver, (i + 1) as u32);
            assert_eq!(out.msg.kind, MessageKind::ModelParams);
            assert_eq!(out.msg.round, 2);
        }
    }

    #[test]
    fn broadcast_batches_when_enabled() {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        ctx.batch_broadcasts = true;
        ctx.send(Message::new(
            0,
            9,
            MessageKind::IdAssignment,
            0,
            Payload::Empty,
        ));
        ctx.broadcast(MessageKind::ModelParams, 2, Payload::Empty, &[1, 2, 3]);
        assert_eq!(ctx.outbox.len(), 1);
        assert_eq!(ctx.broadcasts.len(), 1);
        let b = &ctx.broadcasts[0];
        assert_eq!(b.anchor, 1);
        assert_eq!(b.targets, vec![1, 2, 3]);
        // One emitted event per batch: conformance diffs by membership.
        assert_eq!(ctx.emitted.len(), 2);
    }

    #[test]
    fn broadcast_to_nobody_is_a_no_op() {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        ctx.broadcast(MessageKind::Finish, 1, Payload::Empty, &[]);
        ctx.batch_broadcasts = true;
        ctx.broadcast(MessageKind::Finish, 1, Payload::Empty, &[]);
        assert!(ctx.outbox.is_empty());
        assert!(ctx.broadcasts.is_empty());
        assert!(ctx.emitted.is_empty());
    }
}
