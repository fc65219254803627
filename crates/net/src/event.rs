//! Events — the unit of control flow in FederatedScope (§3.2).
//!
//! Events come in exactly two classes:
//!
//! * **message-passing** events — "a message of kind K arrived" — and
//! * **condition-checking** events — "a customizable predicate became true"
//!   (`all_received`, `goal_achieved`, `time_up`, ...).
//!
//! A participant's behaviour is the set of `<event, handler>` pairs it holds.
//! The vocabulary lives here in `fs-net`, next to [`MessageKind`], so that
//! both the engine (`fs-core`) and the static verifier (`fs-verify`) can
//! speak it without depending on each other.

use crate::message::MessageKind;
use std::fmt;

/// A condition-checking event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Condition {
    /// All clients sampled this round have replied.
    AllReceived,
    /// The aggregation goal (a count of usable updates) has been reached.
    GoalAchieved,
    /// The round's time budget ran out.
    TimeUp,
    /// Every expected client has joined the course.
    AllJoinedIn,
    /// A pre-defined stop condition is satisfied (target accuracy reached or
    /// the round limit hit).
    EarlyStop,
    /// The received global model made local performance worse — clients can
    /// use this to trigger personalization (§3.2).
    PerformanceDrop,
    /// The buffered-async scheduler's buffer reached its aggregation size K
    /// (FedBuff-style batching).
    BufferFull,
    /// A speed tier's sampled cohort has fully replied (tiered semi-async:
    /// tiers aggregate synchronously within, merge asynchronously across).
    TierReady,
    /// User-defined condition.
    Custom(u16),
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::AllReceived => write!(f, "all_received"),
            Condition::GoalAchieved => write!(f, "goal_achieved"),
            Condition::TimeUp => write!(f, "time_up"),
            Condition::AllJoinedIn => write!(f, "all_joined_in"),
            Condition::EarlyStop => write!(f, "early_stop"),
            Condition::PerformanceDrop => write!(f, "performance_drop"),
            Condition::BufferFull => write!(f, "buffer_full"),
            Condition::TierReady => write!(f, "tier_ready"),
            Condition::Custom(c) => write!(f, "custom_condition_{c}"),
        }
    }
}

/// An event a handler can be registered for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// Receiving a message of the given kind.
    Message(MessageKind),
    /// A condition becoming true.
    Condition(Condition),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Message(k) => write!(f, "receiving_{k:?}"),
            Event::Condition(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_match_paper_vocabulary() {
        assert_eq!(Condition::AllReceived.to_string(), "all_received");
        assert_eq!(Condition::GoalAchieved.to_string(), "goal_achieved");
        assert_eq!(Condition::TimeUp.to_string(), "time_up");
        assert_eq!(
            Event::Message(MessageKind::ModelParams).to_string(),
            "receiving_ModelParams"
        );
    }

    #[test]
    fn events_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut s = BTreeSet::new();
        s.insert(Event::Message(MessageKind::JoinIn));
        s.insert(Event::Condition(Condition::TimeUp));
        s.insert(Event::Condition(Condition::TimeUp));
        assert_eq!(s.len(), 2);
    }
}
