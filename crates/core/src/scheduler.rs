//! The aggregation rule is the scheduling policy.
//!
//! The paper's strategies differ only in which condition-checking event
//! triggers aggregation (§3.3): `all_received` (vanilla sync),
//! `goal_achieved` (FedBuff-style async, Sync-OS) and `time_up` (budgeted
//! async with remedial measures), joined here by buffered async (FedBuff's
//! every-`k`) and tiered semi-async (FedModule-style: seeded speed tiers,
//! each synchronous within itself, merging asynchronously). `FlConfig::rule`
//! names the one in force, and every decision the server takes on its behalf
//! is one exhaustive `match` on [`AggregationRule`] below, over a borrowed
//! [`SchedulerObs`] view of server state. No decision keeps state of its
//! own: a tier is ready when it has a buffered update and none of its
//! clients is in `ServerState::busy`, so a handler that hands out models
//! itself (§3.6) only has to keep `busy` / `outstanding` right.

use crate::aggregator::ReceivedUpdate;
use crate::config::AggregationRule;
use crate::event::Condition;
use crate::idset::IdSet;
use fs_net::ParticipantId;

/// What a scheduling decision may consult: primitives and borrowed views of
/// server state, nothing it could mutate.
pub(crate) struct SchedulerObs<'a> {
    /// Buffered usable updates awaiting aggregation.
    pub buffer: &'a [ReceivedUpdate],
    /// Clients training right now (sampled, not yet replied).
    pub busy: &'a IdSet,
    /// Updates received from the current round's sampled cohort (including
    /// dropped ones).
    pub received_this_round: usize,
    /// Whether the current round's sampled cohort has fully replied.
    pub outstanding_empty: bool,
    /// Live roster size (after dropouts).
    pub roster_len: usize,
    /// Course seed (the tier partition's key).
    pub seed: u64,
}

impl AggregationRule {
    /// The condition that triggers aggregation, or `None` when the round
    /// timer alone does.
    pub(crate) fn trigger(&self) -> Option<Condition> {
        match self {
            Self::AllReceived => Some(Condition::AllReceived),
            Self::GoalAchieved { .. } => Some(Condition::GoalAchieved),
            Self::TimeUp { .. } => None,
            Self::Buffered { .. } => Some(Condition::BufferFull),
            Self::Tiered { .. } => Some(Condition::TierReady),
        }
    }

    /// Per-round virtual-time budget: `Some` arms a `time_up` timer at round
    /// start and per remedial measure. Timers need a virtual clock, so the
    /// threaded drivers refuse a rule that has one.
    pub(crate) fn round_timer(&self) -> Option<f64> {
        match *self {
            Self::TimeUp { budget_secs, .. } => Some(budget_secs),
            Self::AllReceived | Self::GoalAchieved { .. } => None,
            Self::Buffered { .. } | Self::Tiered { .. } => None,
        }
    }

    /// Fewest usable updates a timer-driven aggregation needs before the
    /// remedial measure fires instead.
    pub(crate) fn min_feedback(&self) -> usize {
        match *self {
            Self::TimeUp { min_feedback, .. } => min_feedback.max(1),
            Self::AllReceived | Self::GoalAchieved { .. } => 1,
            Self::Buffered { .. } | Self::Tiered { .. } => 1,
        }
    }

    /// Whether the server maintains the `sched.*` monitor gauges (buffer
    /// occupancy, tier merges). The classic regimes keep the counter stream
    /// they always had.
    pub(crate) fn gauges(&self) -> bool {
        match self {
            Self::Buffered { .. } | Self::Tiered { .. } => true,
            Self::AllReceived | Self::GoalAchieved { .. } | Self::TimeUp { .. } => false,
        }
    }

    /// After an update was saved or dropped, or the roster changed: the
    /// condition to raise when aggregation is due now. A count threshold is
    /// clamped to the live roster, so a course that lost clients never waits
    /// for more updates than the survivors can produce.
    pub(crate) fn aggregation_due(&self, obs: &SchedulerObs<'_>) -> Option<Condition> {
        let due = match *self {
            Self::AllReceived => obs.received_this_round > 0 && obs.outstanding_empty,
            Self::GoalAchieved { goal: k } | Self::Buffered { k, .. } => {
                obs.buffer.len() >= k.min(obs.roster_len).max(1)
            }
            Self::TimeUp { .. } => false,
            Self::Tiered { tiers } => ready_tier(tiers, obs).is_some(),
        };
        self.trigger().filter(|_| due)
    }

    /// After a roster change that made no aggregation due: whether the round
    /// restarts, because its whole sampled cohort is gone with nothing
    /// received. Only `all_received` waits on a cohort; every other rule
    /// keeps waiting on its own condition (or its timer).
    pub(crate) fn restarts_round(&self, obs: &SchedulerObs<'_>) -> bool {
        match self {
            Self::AllReceived => obs.outstanding_empty && obs.received_this_round == 0,
            Self::GoalAchieved { .. } | Self::TimeUp { .. } => false,
            Self::Buffered { .. } | Self::Tiered { .. } => false,
        }
    }

    /// Which buffered updates the imminent aggregation consumes: `Some`
    /// membership test of the ready tier under `tiered` (the rest stay
    /// buffered), `None` for the whole buffer.
    pub(crate) fn merge_tier(
        &self,
        obs: &SchedulerObs<'_>,
    ) -> Option<impl Fn(ParticipantId) -> bool> {
        let tiers = match *self {
            Self::Tiered { tiers } => tiers,
            Self::AllReceived | Self::GoalAchieved { .. } | Self::TimeUp { .. } => return None,
            Self::Buffered { .. } => return None,
        };
        let (tier, seed) = (ready_tier(tiers, obs)?, obs.seed);
        Some(move |id| tier_of(id, tiers, seed) == tier)
    }
}

/// The speed tier of client `id` among `tiers` (at least 1): a seeded
/// multiplicative hash, so the partition is deterministic for the course,
/// independent of join order, and roughly balanced.
pub(crate) fn tier_of(id: ParticipantId, tiers: usize, seed: u64) -> usize {
    let x = (u64::from(id) ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((x >> 32) as usize) % tiers.max(1)
}

/// The first tier that can merge now: one with a buffered update and no
/// busy client.
fn ready_tier(tiers: usize, obs: &SchedulerObs<'_>) -> Option<usize> {
    let mut ready = vec![false; tiers.max(1)];
    for u in obs.buffer {
        ready[tier_of(u.client, tiers, obs.seed)] = true;
    }
    for c in obs.busy.iter() {
        ready[tier_of(c, tiers, obs.seed)] = false;
    }
    ready.iter().position(|&r| r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_tensor::ParamMap;

    fn upd(client: u32) -> ReceivedUpdate {
        ReceivedUpdate {
            client: ParticipantId::from(client),
            params: ParamMap::new(),
            staleness: 0,
            n_samples: 1,
            n_steps: 1,
        }
    }

    fn obs<'a>(
        buffer: &'a [ReceivedUpdate],
        busy: &'a IdSet,
        received: usize,
        outstanding_empty: bool,
        roster: usize,
    ) -> SchedulerObs<'a> {
        SchedulerObs {
            buffer,
            busy,
            received_this_round: received,
            outstanding_empty,
            roster_len: roster,
            seed: 7,
        }
    }

    fn busy(ids: &[ParticipantId]) -> IdSet {
        let mut set = IdSet::new();
        for &id in ids {
            set.insert(id);
        }
        set
    }

    /// The buffer indices the imminent aggregation consumes.
    fn merged(rule: AggregationRule, obs: &SchedulerObs<'_>) -> Option<Vec<usize>> {
        let in_tier = rule.merge_tier(obs)?;
        let idx = obs
            .buffer
            .iter()
            .enumerate()
            .filter(|(_, u)| in_tier(u.client));
        Some(idx.map(|(i, _)| i).collect())
    }

    #[test]
    fn sync_triggers_only_when_cohort_complete() {
        let s = AggregationRule::AllReceived;
        let none = IdSet::new();
        assert_eq!(s.aggregation_due(&obs(&[], &none, 0, true, 10)), None);
        assert_eq!(s.aggregation_due(&obs(&[], &none, 2, false, 10)), None);
        assert_eq!(
            s.aggregation_due(&obs(&[], &none, 2, true, 10)),
            Some(Condition::AllReceived)
        );
        assert!(s.restarts_round(&obs(&[], &none, 0, true, 10)));
    }

    #[test]
    fn goal_clamps_to_roster() {
        let s = AggregationRule::GoalAchieved { goal: 5 };
        let none = IdSet::new();
        let buf: Vec<_> = (0..3).map(upd).collect();
        assert_eq!(s.aggregation_due(&obs(&buf, &none, 3, false, 10)), None);
        // roster shrank to 3 survivors: the effective goal follows
        assert_eq!(
            s.aggregation_due(&obs(&buf, &none, 3, false, 3)),
            Some(Condition::GoalAchieved)
        );
    }

    #[test]
    fn time_up_is_timer_driven() {
        let s = AggregationRule::TimeUp {
            budget_secs: 2.5,
            min_feedback: 3,
        };
        assert_eq!(s.trigger(), None);
        assert_eq!(s.round_timer(), Some(2.5));
        assert_eq!(s.min_feedback(), 3);
        let buf: Vec<_> = (0..20).map(upd).collect();
        let none = IdSet::new();
        assert_eq!(s.aggregation_due(&obs(&buf, &none, 20, true, 20)), None);
    }

    #[test]
    fn buffered_fires_every_k() {
        let s = AggregationRule::Buffered { k: 4 };
        let none = IdSet::new();
        let buf: Vec<_> = (0..3).map(upd).collect();
        assert_eq!(s.aggregation_due(&obs(&buf, &none, 3, false, 30)), None);
        let buf: Vec<_> = (0..4).map(upd).collect();
        assert_eq!(
            s.aggregation_due(&obs(&buf, &none, 4, false, 30)),
            Some(Condition::BufferFull)
        );
        assert_eq!(merged(s, &obs(&buf, &none, 4, false, 30)), None);
    }

    #[test]
    fn tiered_partition_is_deterministic_and_total() {
        let mut seen = vec![0usize; 3];
        for id in 1..200u32 {
            let t = tier_of(ParticipantId::from(id), 3, 42);
            assert_eq!(t, tier_of(ParticipantId::from(id), 3, 42));
            seen[t] += 1;
        }
        // a multiplicative hash over 199 ids should touch every tier
        assert!(seen.iter().all(|&c| c > 0), "unbalanced: {seen:?}");
    }

    #[test]
    fn tiered_merges_exactly_the_ready_tier() {
        let s = AggregationRule::Tiered { tiers: 2 };
        // find ids mapping to each tier
        let (t0, t1): (Vec<ParticipantId>, Vec<ParticipantId>) =
            (1..50u32).partition(|&id| tier_of(id, 2, 7) == 0);
        // sampled: t0[0], t0[1], t1[0]; tier 0 incomplete: one of its two
        // sampled clients replied
        let buf = vec![upd(t0[0])];
        let training = busy(&[t0[1], t1[0]]);
        assert_eq!(s.aggregation_due(&obs(&buf, &training, 1, false, 49)), None);
        // tier 0 completes; tier 1 still in flight
        let buf = vec![upd(t0[0]), upd(t0[1])];
        let training = busy(&[t1[0]]);
        let o = obs(&buf, &training, 2, false, 49);
        assert_eq!(s.aggregation_due(&o), Some(Condition::TierReady));
        assert_eq!(merged(s, &o), Some(vec![0, 1]));
        // tier 1's reply then completes its own (singleton) cohort
        let buf = vec![upd(t1[0])];
        let o = obs(&buf, &training, 3, false, 49);
        assert_eq!(s.aggregation_due(&o), None, "busy until it replies");
        let none = IdSet::new();
        let o = obs(&buf, &none, 3, false, 49);
        assert_eq!(s.aggregation_due(&o), Some(Condition::TierReady));
        assert_eq!(merged(s, &o), Some(vec![0]));
    }

    #[test]
    fn tiered_client_reset_unblocks_tier() {
        let s = AggregationRule::Tiered { tiers: 2 };
        let mut ids = (1..50u32).filter(|&p| tier_of(p, 2, 7) == 0);
        let (a, b) = (ids.next().unwrap(), ids.next().unwrap());
        // a and b sampled, a replied
        let buf = vec![upd(a)];
        let mut training = busy(&[b]);
        assert_eq!(s.aggregation_due(&obs(&buf, &training, 1, false, 49)), None);
        // b drops out (leaves busy): its tier no longer waits for it
        training.remove(&b);
        let o = obs(&buf, &training, 1, false, 48);
        assert_eq!(s.aggregation_due(&o), Some(Condition::TierReady));
        assert!(!s.restarts_round(&o));
    }

    #[test]
    fn config_presets_map_to_their_rule_decisions() {
        use crate::config::{BroadcastManner, FlConfig, SamplerKind};
        let cfg = FlConfig::default();
        assert_eq!(cfg.rule.trigger(), Some(Condition::AllReceived));
        let cfg = FlConfig::default().async_goal(
            5,
            BroadcastManner::AfterReceiving,
            SamplerKind::Uniform,
        );
        assert_eq!(cfg.rule.trigger(), Some(Condition::GoalAchieved));
        let cfg = FlConfig::default().async_time(
            1.0,
            1,
            BroadcastManner::AfterAggregating,
            SamplerKind::Uniform,
        );
        assert_eq!(cfg.rule.trigger(), None);
        assert_eq!(cfg.rule.round_timer(), Some(1.0));
        let cfg = FlConfig::default().buffered_async(6);
        assert_eq!(cfg.rule.trigger(), Some(Condition::BufferFull));
        assert!(cfg.rule.gauges());
        let cfg = FlConfig::default().tiered(3);
        assert_eq!(cfg.rule.trigger(), Some(Condition::TierReady));
        assert!(cfg.rule.gauges());
    }
}
