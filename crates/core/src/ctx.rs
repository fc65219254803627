//! The handler execution context.
//!
//! A handler cannot touch the network or the clock directly; it records
//! intents in the [`Ctx`] — messages to send (with an attached local compute
//! delay), timers to arm, condition events to raise — and the runner realizes
//! them. This keeps worker code identical between the virtual-time standalone
//! runner and the threaded distributed runner.

use crate::event::{Condition, Event};
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

/// One payload from the server to a cohort of clients.
#[derive(Clone, Debug)]
pub struct Broadcast {
    /// Message kind shared by every copy.
    pub kind: MessageKind,
    /// Round stamp shared by every copy.
    pub round: u64,
    /// Payload shared by every copy (cloned per target on delivery).
    pub payload: Payload,
    /// Recipients, in broadcast order; at least two.
    pub targets: Vec<ParticipantId>,
}

/// One send a handler asked for. The virtual-time loop schedules a cohort as
/// a single heap entry; the threaded drivers ship it per target
/// ([`Ctx::take_messages`]).
#[derive(Clone, Debug)]
pub enum Intent {
    /// One message to one receiver.
    Send(Outgoing),
    /// One server payload to many clients.
    Broadcast(Broadcast),
}

/// Mutable per-dispatch context handed to every handler.
pub struct Ctx {
    /// Current virtual time (arrival time of the triggering message).
    pub now: VirtualTime,
    /// Sends recorded during this dispatch, in emission order.
    pub outbox: Vec<Intent>,
    /// Timers armed during this dispatch.
    pub timers: Vec<Timer>,
    /// Condition events raised during this dispatch, processed FIFO
    /// immediately after the current handler returns.
    pub raised: VecDeque<Condition>,
    /// Every event emitted through this context, in order — sends (one per
    /// broadcast), raises, and timers alike.
    /// [`crate::registry::Registry::dispatch`] diffs this log, by membership,
    /// against the handler's declared `emits` to catch undeclared emissions
    /// (`FSV040`).
    pub emitted: Vec<Event>,
    /// Set when the participant considers the course finished.
    pub finished: bool,
}

impl Ctx {
    /// Creates a context at the given virtual time.
    pub fn at(now: VirtualTime) -> Self {
        Self {
            now,
            outbox: Vec::new(),
            timers: Vec::new(),
            raised: VecDeque::new(),
            emitted: Vec::new(),
            finished: false,
        }
    }

    /// Readies the context for the next dispatch at `now`: every record of
    /// the last one is dropped, the allocations kept.
    pub fn reset(&mut self, now: VirtualTime) {
        self.now = now;
        self.outbox.clear();
        self.timers.clear();
        self.raised.clear();
        self.emitted.clear();
        self.finished = false;
    }

    /// Queues a message with zero local compute work.
    pub fn send(&mut self, msg: Message) {
        self.send_after_compute(msg, 0.0);
    }

    /// Queues a message preceded by `compute_work` examples of local
    /// computation (e.g. local training).
    pub fn send_after_compute(&mut self, msg: Message, compute_work: f64) {
        self.emitted.push(Event::Message(msg.kind));
        self.outbox
            .push(Intent::Send(Outgoing { msg, compute_work }));
    }

    /// Raises a condition event, to be handled right after the current
    /// handler returns.
    pub fn raise(&mut self, condition: Condition) {
        self.emitted.push(Event::Condition(condition));
        self.raised.push_back(condition);
    }

    /// Broadcasts `payload` from the server to every client in `targets`:
    /// one recorded intent and one emitted event, whatever the cohort size.
    /// An empty target list records nothing, and a cohort of one is recorded
    /// as the plain send it is (delivered exactly as a one-member batch).
    pub fn broadcast(
        &mut self,
        kind: MessageKind,
        round: u64,
        payload: Payload,
        targets: &[ParticipantId],
    ) {
        match *targets {
            [] => return,
            [one] => return self.send(Message::new(SERVER_ID, one, kind, round, payload)),
            _ => {}
        }
        self.emitted.push(Event::Message(kind));
        self.outbox.push(Intent::Broadcast(Broadcast {
            kind,
            round,
            payload,
            targets: targets.to_vec(),
        }));
    }

    /// Takes the recorded sends out as one owned message per receiver, in
    /// emission order — what a driver that ships frames needs. A broadcast
    /// expands here, its payload cloned per target.
    pub fn take_messages(&mut self) -> Vec<Outgoing> {
        let mut out = Vec::with_capacity(self.outbox.len());
        for intent in self.outbox.drain(..) {
            match intent {
                Intent::Send(one) => out.push(one),
                Intent::Broadcast(b) => out.extend(b.targets.iter().map(|&c| Outgoing {
                    msg: Message::new(SERVER_ID, c, b.kind, b.round, b.payload.clone()),
                    compute_work: 0.0,
                })),
            }
        }
        out
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
        assert_eq!(ctx.raised.len(), 1);
        assert_eq!(ctx.timers.len(), 1);
        assert!(!ctx.finished);
        let sent = ctx.take_messages();
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[1].compute_work, 2.5);
        assert!(
            ctx.outbox.is_empty(),
            "taking the messages empties the list"
        );
    }

    #[test]
    fn sends_and_a_broadcast_keep_emission_order_listed_and_expanded() {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        let one = |to, kind| Message::new(0, to, kind, 2, Payload::Empty);
        ctx.send(one(9, MessageKind::IdAssignment));
        ctx.broadcast(MessageKind::ModelParams, 2, Payload::Empty, &[1, 2, 3]);
        ctx.send(one(2, MessageKind::EvalRequest));
        // the list: one entry per intent, the cohort between the two sends
        assert_eq!(ctx.outbox.len(), 3);
        assert!(matches!(&ctx.outbox[0], Intent::Send(o) if o.msg.receiver == 9));
        assert!(matches!(
            &ctx.outbox[1],
            Intent::Broadcast(b)
                if b.kind == MessageKind::ModelParams && b.round == 2 && b.targets == [1, 2, 3]
        ));
        assert!(matches!(&ctx.outbox[2], Intent::Send(o) if o.msg.receiver == 2));
        // one emitted event per intent: conformance diffs by membership
        assert_eq!(ctx.emitted.len(), 3);
        // the accessor: one message per receiver, same order
        let shipped: Vec<_> = ctx
            .take_messages()
            .into_iter()
            .map(|o| (o.msg.sender, o.msg.receiver, o.msg.kind, o.msg.round))
            .collect();
        assert_eq!(
            shipped,
            vec![
                (0, 9, MessageKind::IdAssignment, 2),
                (0, 1, MessageKind::ModelParams, 2),
                (0, 2, MessageKind::ModelParams, 2),
                (0, 3, MessageKind::ModelParams, 2),
                (0, 2, MessageKind::EvalRequest, 2),
            ]
        );
    }

    #[test]
    fn a_cohort_of_one_is_recorded_as_a_plain_send() {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        ctx.broadcast(MessageKind::ModelParams, 4, Payload::Empty, &[7]);
        assert!(matches!(
            &ctx.outbox[..],
            [Intent::Send(o)]
                if (o.msg.sender, o.msg.receiver, o.msg.kind, o.msg.round, o.compute_work)
                    == (SERVER_ID, 7, MessageKind::ModelParams, 4, 0.0)
        ));
        assert_eq!(ctx.emitted, [Event::Message(MessageKind::ModelParams)]);
    }

    #[test]
    fn broadcast_to_nobody_records_nothing() {
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        ctx.broadcast(MessageKind::Finish, 1, Payload::Empty, &[]);
        assert!(ctx.outbox.is_empty());
        assert!(ctx.emitted.is_empty());
        assert!(ctx.take_messages().is_empty());
    }
}
