//! Pluggable execution modes: the `Scheduler` trait.
//!
//! The paper's event-driven design (§3.3) treats the aggregation regime —
//! vanilla sync (`all_received`), goal-conditioned async (`goal_achieved`),
//! and budgeted async (`time_up`) — as interchangeable policies. This module
//! makes that decomposition first-class: a [`Scheduler`] decides *when* the
//! server aggregates, *which* buffered updates participate, and *what* a
//! round timer means. The server loop (`server.rs`) holds exactly one
//! policy object and contains no per-regime match arms; runners (standalone,
//! fs-scale, fs-topo, distributed) dispatch through the same trait without
//! knowing which mode is active.
//!
//! The three classic regimes are reimplemented as [`SyncScheduler`],
//! [`GoalScheduler`], and [`TimeUpScheduler`] — bit-identical to the old
//! inline logic (proved by `tests/scheduler_equivalence.rs`, a golden
//! fingerprint pin captured against the pre-refactor server loop). Two modes
//! the old structure could not express ride on the same trait:
//!
//! * [`BufferedScheduler`] — FedBuff-style buffered async: aggregate every
//!   `K` buffered updates with staleness-discounted weights.
//! * [`TieredScheduler`] — FedModule-style tiered semi-async: clients are
//!   partitioned into seeded speed tiers; a tier aggregates synchronously
//!   (when its whole sampled cohort has replied), and tiers merge into the
//!   global model asynchronously with respect to each other.

use crate::aggregator::ReceivedUpdate;
use crate::config::{AggregationRule, FlConfig};
use crate::event::Condition;
use fs_net::ParticipantId;
use std::collections::BTreeSet;

/// A read-only snapshot of the server state a scheduling decision may
/// consult. Kept to primitives + the buffer slice so policies cannot reach
/// into (and accidentally mutate or depend on) unrelated server internals.
pub struct SchedulerObs<'a> {
    /// Buffered usable updates awaiting aggregation.
    pub buffer: &'a [ReceivedUpdate],
    /// Updates received from the current round's sampled cohort
    /// (including dropped ones).
    pub received_this_round: usize,
    /// Whether the current round's sampled cohort has fully replied.
    pub outstanding_empty: bool,
    /// Live roster size (after dropouts).
    pub roster_len: usize,
}

/// What to do after the roster shrank (or a rejoined client was reset to
/// idle) — the scheduler's answer to "is a condition the dead client was
/// blocking now true?".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RosterVerdict {
    /// Nothing unblocked; keep waiting.
    Wait,
    /// The aggregation condition now holds; raise it.
    Aggregate(Condition),
    /// The whole sampled cohort is gone with nothing received: resample.
    RestartRound,
}

/// Which buffered updates one aggregation consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Selection {
    /// Drain the whole buffer (every classic regime).
    All,
    /// Consume exactly these buffer indices (ascending); the rest stay
    /// buffered for a later aggregation (tiered merges).
    Indices(Vec<usize>),
}

/// An execution-mode policy: decides when to aggregate, which buffered
/// updates participate, and what to do on timer events.
///
/// Hook order per arriving update: `on_received` (contributors left the
/// busy set) → `on_update` (should aggregation fire?). Sampling calls
/// `on_sampled`; transports call `on_client_reset` for dropouts/rejoins,
/// followed by `on_roster_change`. `select` runs at the start of every
/// aggregation.
pub trait Scheduler: Send {
    /// Stable mode name (config parsing, reports, bench rows).
    fn name(&self) -> &'static str;

    /// The condition this policy raises to trigger aggregation, or `None`
    /// when aggregation is driven purely by the round timer.
    fn trigger(&self) -> Option<Condition>;

    /// Per-round virtual-time budget: `Some` arms a [`Condition::TimeUp`]
    /// timer at round start (and re-arms it per remedial measure).
    fn round_timer(&self) -> Option<f64> {
        None
    }

    /// Minimum usable updates a timer-driven aggregation needs before the
    /// remedial measure fires instead. Only consulted when
    /// [`round_timer`](Self::round_timer) is `Some`.
    fn min_feedback(&self) -> usize {
        1
    }

    /// Clients that were just sampled and broadcast to.
    fn on_sampled(&mut self, _targets: &[ParticipantId]) {}

    /// Contributors of an arrived update (called right after they leave the
    /// busy set, before the staleness gate).
    fn on_received(&mut self, _contributors: &[ParticipantId]) {}

    /// A client dropped out or rejoined: forget any in-flight expectation.
    fn on_client_reset(&mut self, _id: ParticipantId) {}

    /// After an update was saved (or dropped): the condition to raise when
    /// aggregation should fire now.
    fn on_update(&mut self, obs: &SchedulerObs<'_>) -> Option<Condition>;

    /// After the roster changed.
    fn on_roster_change(&mut self, obs: &SchedulerObs<'_>) -> RosterVerdict;

    /// Which buffered updates the imminent aggregation consumes.
    fn select(&mut self, _buffer: &[ReceivedUpdate]) -> Selection {
        Selection::All
    }

    /// Whether this policy maintains the `sched.*` monitor gauges (buffer
    /// occupancy, tier merges). The classic regimes return `false` so their
    /// counter streams stay bit-identical to the pre-refactor server loop.
    fn gauges(&self) -> bool {
        false
    }
}

/// Builds the policy selected by `cfg.rule`.
pub fn build_scheduler(cfg: &FlConfig) -> Box<dyn Scheduler> {
    match cfg.rule {
        AggregationRule::AllReceived => Box::new(SyncScheduler),
        AggregationRule::GoalAchieved { goal } => Box::new(GoalScheduler { goal }),
        AggregationRule::TimeUp {
            budget_secs,
            min_feedback,
        } => Box::new(TimeUpScheduler {
            budget_secs,
            min_feedback,
        }),
        AggregationRule::Buffered { k, .. } => Box::new(BufferedScheduler { k }),
        AggregationRule::Tiered { tiers } => Box::new(TieredScheduler::new(tiers, cfg.seed)),
    }
}

// ---------------------------------------------------------------------------
// classic regimes
// ---------------------------------------------------------------------------

/// `all_received`: wait for every sampled client (vanilla synchronous FL).
pub struct SyncScheduler;

impl Scheduler for SyncScheduler {
    fn name(&self) -> &'static str {
        "sync"
    }
    fn trigger(&self) -> Option<Condition> {
        Some(Condition::AllReceived)
    }
    fn on_update(&mut self, obs: &SchedulerObs<'_>) -> Option<Condition> {
        (obs.received_this_round > 0 && obs.outstanding_empty).then_some(Condition::AllReceived)
    }
    fn on_roster_change(&mut self, obs: &SchedulerObs<'_>) -> RosterVerdict {
        if obs.outstanding_empty {
            if obs.received_this_round > 0 {
                RosterVerdict::Aggregate(Condition::AllReceived)
            } else {
                // the whole round's cohort is gone: resample survivors
                RosterVerdict::RestartRound
            }
        } else {
            RosterVerdict::Wait
        }
    }
}

/// The aggregation threshold actually reachable with the current roster: a
/// course that lost clients must not wait for more updates than the
/// survivors can produce.
fn effective_threshold(goal: usize, roster_len: usize) -> usize {
    goal.min(roster_len).max(1)
}

/// `goal_achieved`: aggregate once `goal` usable updates are buffered
/// (FedBuff-style async, also Sync-OS when tolerance = 0).
pub struct GoalScheduler {
    /// The update-count trigger.
    pub goal: usize,
}

impl Scheduler for GoalScheduler {
    fn name(&self) -> &'static str {
        "goal"
    }
    fn trigger(&self) -> Option<Condition> {
        Some(Condition::GoalAchieved)
    }
    fn on_update(&mut self, obs: &SchedulerObs<'_>) -> Option<Condition> {
        (obs.buffer.len() >= effective_threshold(self.goal, obs.roster_len))
            .then_some(Condition::GoalAchieved)
    }
    fn on_roster_change(&mut self, obs: &SchedulerObs<'_>) -> RosterVerdict {
        match self.on_update(obs) {
            Some(c) => RosterVerdict::Aggregate(c),
            None => RosterVerdict::Wait,
        }
    }
}

/// `time_up`: aggregate when the round's virtual-time budget runs out,
/// with remedial measures (§3.3.2) when feedback is insufficient.
pub struct TimeUpScheduler {
    /// Per-round virtual-time budget, seconds.
    pub budget_secs: f64,
    /// Minimum usable updates required at the timer; fewer triggers the
    /// remedial measure.
    pub min_feedback: usize,
}

impl Scheduler for TimeUpScheduler {
    fn name(&self) -> &'static str {
        "time_up"
    }
    fn trigger(&self) -> Option<Condition> {
        None
    }
    fn round_timer(&self) -> Option<f64> {
        Some(self.budget_secs)
    }
    fn min_feedback(&self) -> usize {
        self.min_feedback
    }
    fn on_update(&mut self, _obs: &SchedulerObs<'_>) -> Option<Condition> {
        None // aggregation is driven by the round timer alone
    }
    fn on_roster_change(&mut self, _obs: &SchedulerObs<'_>) -> RosterVerdict {
        RosterVerdict::Wait // the timer fires regardless of the roster
    }
}

// ---------------------------------------------------------------------------
// new modes
// ---------------------------------------------------------------------------

/// FedBuff-style buffered async: aggregate every `k` buffered updates.
/// Staleness weighting comes from the aggregator, built with the
/// scheduler's own discount (`FlConfig::effective_staleness_discount`).
pub struct BufferedScheduler {
    /// Buffer size that triggers aggregation (clamped to the live roster).
    pub k: usize,
}

impl Scheduler for BufferedScheduler {
    fn name(&self) -> &'static str {
        "buffered"
    }
    fn trigger(&self) -> Option<Condition> {
        Some(Condition::BufferFull)
    }
    fn on_update(&mut self, obs: &SchedulerObs<'_>) -> Option<Condition> {
        (obs.buffer.len() >= effective_threshold(self.k, obs.roster_len))
            .then_some(Condition::BufferFull)
    }
    fn on_roster_change(&mut self, obs: &SchedulerObs<'_>) -> RosterVerdict {
        match self.on_update(obs) {
            Some(c) => RosterVerdict::Aggregate(c),
            None => RosterVerdict::Wait,
        }
    }
    fn gauges(&self) -> bool {
        true
    }
}

/// FedModule-style tiered semi-async.
///
/// Clients are partitioned into `tiers` speed tiers by a seeded
/// multiplicative hash (stable for the course, independent of join order).
/// The scheduler tracks, per tier, the sampled clients that have not yet
/// replied; when a tier's in-flight set empties and the buffer holds at
/// least one usable update from that tier, the tier merges — consuming
/// exactly its own buffered updates and leaving other tiers' in flight.
pub struct TieredScheduler {
    tiers: usize,
    seed: u64,
    /// Per-tier sampled-but-not-replied sets.
    in_flight: Vec<BTreeSet<ParticipantId>>,
    /// The tier whose merge the raised `TierReady` belongs to.
    pending: Option<usize>,
}

impl TieredScheduler {
    /// Builds the policy; `tiers` is clamped to at least 1.
    pub fn new(tiers: usize, seed: u64) -> Self {
        let tiers = tiers.max(1);
        Self {
            tiers,
            seed,
            in_flight: vec![BTreeSet::new(); tiers],
            pending: None,
        }
    }

    /// The speed tier a client belongs to — a seeded multiplicative hash,
    /// so the partition is deterministic and roughly balanced.
    pub fn tier_of(&self, id: ParticipantId) -> usize {
        let x = (u64::from(id) ^ self.seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        ((x >> 32) as usize) % self.tiers
    }

    /// The first tier that can merge right now: empty in-flight set and at
    /// least one buffered update of its own.
    fn ready_tier(&self, buffer: &[ReceivedUpdate]) -> Option<usize> {
        let mut has_buffered = vec![false; self.tiers];
        for u in buffer {
            has_buffered[self.tier_of(u.client)] = true;
        }
        (0..self.tiers).find(|&t| has_buffered[t] && self.in_flight[t].is_empty())
    }
}

impl Scheduler for TieredScheduler {
    fn name(&self) -> &'static str {
        "tiered"
    }
    fn trigger(&self) -> Option<Condition> {
        Some(Condition::TierReady)
    }
    fn on_sampled(&mut self, targets: &[ParticipantId]) {
        for &id in targets {
            let t = self.tier_of(id);
            self.in_flight[t].insert(id);
        }
    }
    fn on_received(&mut self, contributors: &[ParticipantId]) {
        for &id in contributors {
            let t = self.tier_of(id);
            self.in_flight[t].remove(&id);
        }
    }
    fn on_client_reset(&mut self, id: ParticipantId) {
        let t = self.tier_of(id);
        self.in_flight[t].remove(&id);
    }
    fn on_update(&mut self, obs: &SchedulerObs<'_>) -> Option<Condition> {
        self.pending = self.ready_tier(obs.buffer);
        self.pending.map(|_| Condition::TierReady)
    }
    fn on_roster_change(&mut self, obs: &SchedulerObs<'_>) -> RosterVerdict {
        self.pending = self.ready_tier(obs.buffer);
        match self.pending {
            Some(_) => RosterVerdict::Aggregate(Condition::TierReady),
            None => RosterVerdict::Wait,
        }
    }
    fn select(&mut self, buffer: &[ReceivedUpdate]) -> Selection {
        // the tier recorded at trigger time; recompute as a fallback so a
        // custom handler raising tier_ready by hand still merges something
        let tier = self.pending.take().or_else(|| self.ready_tier(buffer));
        match tier {
            Some(t) => Selection::Indices(
                buffer
                    .iter()
                    .enumerate()
                    .filter(|(_, u)| self.tier_of(u.client) == t)
                    .map(|(i, _)| i)
                    .collect(),
            ),
            None => Selection::All,
        }
    }
    fn gauges(&self) -> bool {
        true
    }
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
        received: usize,
        outstanding_empty: bool,
        roster: usize,
    ) -> SchedulerObs<'a> {
        SchedulerObs {
            buffer,
            received_this_round: received,
            outstanding_empty,
            roster_len: roster,
        }
    }

    #[test]
    fn sync_triggers_only_when_cohort_complete() {
        let mut s = SyncScheduler;
        assert_eq!(s.on_update(&obs(&[], 0, true, 10)), None);
        assert_eq!(s.on_update(&obs(&[], 2, false, 10)), None);
        assert_eq!(
            s.on_update(&obs(&[], 2, true, 10)),
            Some(Condition::AllReceived)
        );
        assert_eq!(
            s.on_roster_change(&obs(&[], 0, true, 10)),
            RosterVerdict::RestartRound
        );
    }

    #[test]
    fn goal_clamps_to_roster() {
        let mut s = GoalScheduler { goal: 5 };
        let buf: Vec<_> = (0..3).map(upd).collect();
        assert_eq!(s.on_update(&obs(&buf, 3, false, 10)), None);
        // roster shrank to 3 survivors: the effective goal follows
        assert_eq!(
            s.on_update(&obs(&buf, 3, false, 3)),
            Some(Condition::GoalAchieved)
        );
    }

    #[test]
    fn time_up_is_timer_driven() {
        let mut s = TimeUpScheduler {
            budget_secs: 2.5,
            min_feedback: 3,
        };
        assert_eq!(s.trigger(), None);
        assert_eq!(s.round_timer(), Some(2.5));
        assert_eq!(s.min_feedback(), 3);
        let buf: Vec<_> = (0..20).map(upd).collect();
        assert_eq!(s.on_update(&obs(&buf, 20, true, 20)), None);
    }

    #[test]
    fn buffered_fires_every_k() {
        let mut s = BufferedScheduler { k: 4 };
        let buf: Vec<_> = (0..3).map(upd).collect();
        assert_eq!(s.on_update(&obs(&buf, 3, false, 30)), None);
        let buf: Vec<_> = (0..4).map(upd).collect();
        assert_eq!(
            s.on_update(&obs(&buf, 4, false, 30)),
            Some(Condition::BufferFull)
        );
        assert_eq!(s.select(&buf), Selection::All);
    }

    #[test]
    fn tiered_partition_is_deterministic_and_total() {
        let s = TieredScheduler::new(3, 42);
        let mut seen = vec![0usize; 3];
        for id in 1..200u32 {
            let t = s.tier_of(ParticipantId::from(id));
            assert_eq!(t, s.tier_of(ParticipantId::from(id)));
            seen[t] += 1;
        }
        // a multiplicative hash over 199 ids should touch every tier
        assert!(seen.iter().all(|&c| c > 0), "unbalanced: {seen:?}");
    }

    #[test]
    fn tiered_merges_exactly_the_ready_tier() {
        let mut s = TieredScheduler::new(2, 7);
        // find ids mapping to each tier
        let mut t0 = Vec::new();
        let mut t1 = Vec::new();
        for id in 1..50u32 {
            let pid = ParticipantId::from(id);
            if s.tier_of(pid) == 0 {
                t0.push(pid)
            } else {
                t1.push(pid)
            }
        }
        let sampled = [t0[0], t0[1], t1[0]];
        s.on_sampled(&sampled);
        // tier 0 incomplete: one of its two sampled clients replied
        let buf = vec![upd(t0[0])];
        s.on_received(&[t0[0]]);
        assert_eq!(s.on_update(&obs(&buf, 1, false, 49)), None);
        // tier 0 completes; tier 1 still in flight
        let buf = vec![upd(t0[0]), upd(t0[1])];
        s.on_received(&[t0[1]]);
        assert_eq!(
            s.on_update(&obs(&buf, 2, false, 49)),
            Some(Condition::TierReady)
        );
        assert_eq!(s.select(&buf), Selection::Indices(vec![0, 1]));
        // tier 1's reply then completes its own (singleton) cohort
        let buf = vec![upd(t1[0])];
        s.on_received(&[t1[0]]);
        assert_eq!(
            s.on_update(&obs(&buf, 3, false, 49)),
            Some(Condition::TierReady)
        );
        assert_eq!(s.select(&buf), Selection::Indices(vec![0]));
    }

    #[test]
    fn tiered_client_reset_unblocks_tier() {
        let mut s = TieredScheduler::new(2, 7);
        let mut ids = 1..50u32;
        let a = ids.by_ref().find(|&p| s.tier_of(p) == 0).unwrap();
        let b = ids.by_ref().find(|&p| s.tier_of(p) == 0).unwrap();
        s.on_sampled(&[a, b]);
        let buf = vec![upd(a)];
        s.on_received(&[a]);
        assert_eq!(s.on_update(&obs(&buf, 1, false, 49)), None);
        // b drops out: its tier no longer waits for it
        s.on_client_reset(b);
        assert_eq!(
            s.on_roster_change(&obs(&buf, 1, false, 48)),
            RosterVerdict::Aggregate(Condition::TierReady)
        );
    }

    #[test]
    fn build_scheduler_maps_config() {
        use crate::config::FlConfig;
        let cfg = FlConfig::default();
        assert_eq!(build_scheduler(&cfg).name(), "sync");
        let cfg = FlConfig::default().async_goal(
            5,
            crate::config::BroadcastManner::AfterReceiving,
            crate::config::SamplerKind::Uniform,
        );
        assert_eq!(build_scheduler(&cfg).name(), "goal");
        let cfg = FlConfig::default().async_time(
            1.0,
            1,
            crate::config::BroadcastManner::AfterAggregating,
            crate::config::SamplerKind::Uniform,
        );
        let s = build_scheduler(&cfg);
        assert_eq!(s.name(), "time_up");
        assert_eq!(s.round_timer(), Some(1.0));
        let cfg = FlConfig::default().buffered_async(6, 0.5);
        let s = build_scheduler(&cfg);
        assert_eq!(s.name(), "buffered");
        assert_eq!(s.trigger(), Some(Condition::BufferFull));
        let cfg = FlConfig::default().tiered(3);
        let s = build_scheduler(&cfg);
        assert_eq!(s.name(), "tiered");
        assert_eq!(s.trigger(), Some(Condition::TierReady));
    }
}
