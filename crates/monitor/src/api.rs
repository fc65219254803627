//! The recording API: the [`Monitor`] trait and the [`MonitorHandle`] the
//! hot paths carry.

use fs_sim::VirtualTime;
use fs_tensor::model::Metrics;
use std::sync::{Arc, Mutex, PoisonError};

/// A span/counter track: `0` is the server, `n >= 1` is client `n` —
/// the same numbering as `fs_net`'s participant ids.
pub type TrackId = u32;

/// The server's track id.
pub const SERVER_TRACK: TrackId = 0;

/// Canonical counter names.
///
/// Producers and consumers meet here: fs-core's standalone runner bumps the
/// byte counters at the exact statements where the simulator charges
/// communication cost, fs-net's TCP backend bumps the `wire.*` counters from
/// real socket frames, and the exporters/tests read them back by the same
/// names.
pub mod counters {
    /// Messages delivered to any participant by the runner.
    pub const MESSAGES_DELIVERED: &str = "messages.delivered";
    /// Messages emitted through handler contexts.
    pub const MESSAGES_SENT: &str = "messages.sent";
    /// Payload bytes charged client → server (reconciles with
    /// `CourseReport::uploaded_bytes` exactly).
    pub const UPLOADED_BYTES: &str = "bytes.uploaded";
    /// Payload bytes charged server → clients (reconciles with
    /// `CourseReport::downloaded_bytes` exactly).
    pub const DOWNLOADED_BYTES: &str = "bytes.downloaded";
    /// Model broadcasts delivered to clients (each is one unit of client
    /// participation: a local-training activation).
    pub const PARTICIPATION: &str = "clients.participation";
    /// Updates received by the server.
    pub const UPDATES_RECEIVED: &str = "updates.received";
    /// Updates dropped for exceeding the staleness tolerance.
    pub const UPDATES_DROPPED: &str = "updates.dropped";
    /// Subset of `updates.dropped` rejected specifically by the staleness
    /// gate (the remainder failed payload reconstruction).
    pub const UPDATES_DROPPED_STALE: &str = "updates.dropped_stale";
    /// Sum of staleness over all aggregated updates (divide by
    /// `updates.aggregated` for the mean).
    pub const STALENESS_SUM: &str = "updates.staleness_sum";
    /// Updates that made it into an aggregation.
    pub const UPDATES_AGGREGATED: &str = "updates.aggregated";
    /// Federated aggregations performed.
    pub const AGGREGATIONS: &str = "rounds.aggregations";
    /// Remedial-measure activations (`time_up` with insufficient feedback).
    pub const REMEDIAL: &str = "rounds.remedial";
    /// Broadcast deliveries lost to simulated device crashes.
    pub const CRASHED_DELIVERIES: &str = "deliveries.crashed";
    /// Real bytes written to TCP sockets (frame header + wire payload).
    pub const WIRE_BYTES_OUT: &str = "wire.bytes_out";
    /// Real bytes read from TCP sockets (frame header + wire payload).
    pub const WIRE_BYTES_IN: &str = "wire.bytes_in";
    /// Frames written to TCP sockets.
    pub const WIRE_FRAMES_OUT: &str = "wire.frames_out";
    /// Frames read from TCP sockets.
    pub const WIRE_FRAMES_IN: &str = "wire.frames_in";
    /// Clients dropped from a distributed course after disconnecting.
    pub const DROPOUTS: &str = "clients.dropouts";
    /// Successful client reconnections (rejoin handshakes completed).
    pub const RECONNECTS: &str = "clients.reconnects";
    /// Buffer occupancy sampled at each aggregation (buffered/tiered
    /// schedulers only; divide by `rounds.aggregations` for the mean).
    pub const SCHED_BUFFER_OCCUPANCY: &str = "sched.buffer_occupancy";
    /// Tier merges performed by the tiered scheduler.
    pub const SCHED_TIER_MERGES: &str = "sched.tier_merges";
}

/// An observability sink.
///
/// Implementations must keep spans well-nested *per track*: `exit` always
/// closes the most recent unclosed `enter` on that track. The engine opens
/// and closes spans in strict LIFO order per participant, so a stack-based
/// implementation satisfies this by construction.
pub trait Monitor: Send {
    /// Opens a span on `track` at virtual time `at`.
    fn enter(&mut self, track: TrackId, name: &'static str, cat: &'static str, at: VirtualTime);

    /// Closes the innermost open span on `track` at virtual time `at`.
    fn exit(&mut self, track: TrackId, at: VirtualTime);

    /// Records a complete span (used for charged virtual-time intervals —
    /// compute and communication — whose duration is known up front).
    fn span(
        &mut self,
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        start: VirtualTime,
        dur_secs: f64,
    );

    /// Adds `delta` to the named counter.
    fn add(&mut self, counter: &'static str, delta: u64);

    /// Records the global model's metrics after aggregation `round`.
    fn round(&mut self, round: u64, time: VirtualTime, metrics: &Metrics);
}

/// The handle instrumented code carries: `Clone`, cheap, and allocation-free
/// when null.
///
/// A null handle (the default) holds no allocation and every record method
/// is a single `Option` test — the engine's non-observed hot path stays as
/// fast as before fs-monitor existed. A live handle shares one monitor
/// behind an `Arc<Mutex<_>>`; cloning it is one atomic increment.
///
/// Counter sharding: a handle upgraded with [`sharded`](Self::sharded)
/// routes `add` to a lock-free [`ShardedCounters`](crate::ShardedCounters) bank instead of the
/// monitor mutex, so threads bumping counters never serialize on the lock
/// that orders spans. Counters are commutative totals, so folding the bank
/// into the monitor once via [`flush_counters`](Self::flush_counters)
/// (before anything reads the monitor back) is observably identical.
#[derive(Clone, Default)]
pub struct MonitorHandle {
    inner: Option<Arc<Mutex<dyn Monitor>>>,
    counters: Option<Arc<crate::sharded::ShardedCounters>>,
}

impl std::fmt::Debug for MonitorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorHandle")
            .field("live", &self.is_live())
            .finish()
    }
}

impl MonitorHandle {
    /// The no-op handle: records nothing, allocates nothing.
    pub fn null() -> Self {
        Self {
            inner: None,
            counters: None,
        }
    }

    /// Wraps a monitor into a live handle.
    pub fn new<M: Monitor + 'static>(monitor: M) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(monitor))),
            counters: None,
        }
    }

    /// Builds a handle sharing an already-shared monitor, so the caller can
    /// keep the typed `Arc` and read results back after the run.
    pub fn from_shared<M: Monitor + 'static>(monitor: Arc<Mutex<M>>) -> Self {
        Self {
            inner: Some(monitor),
            counters: None,
        }
    }

    /// Upgrades a live handle with a lock-free sharded counter bank: `add`
    /// on this handle (and every clone of it) stops taking the monitor
    /// mutex. The caller owns the flush point: call
    /// [`flush_counters`](Self::flush_counters) after the instrumented
    /// threads finish and before the monitor is read back. A null handle
    /// stays null.
    pub fn sharded(mut self) -> Self {
        if self.inner.is_some() && self.counters.is_none() {
            self.counters = Some(Arc::new(crate::sharded::ShardedCounters::new()));
        }
        self
    }

    /// Folds the sharded counter bank into the monitor (one `add` per
    /// counter) and zeroes the bank, so flushing again never double-counts.
    /// No-op for handles without a bank.
    pub fn flush_counters(&self) {
        let Some(bank) = self.counters.as_ref() else {
            return;
        };
        for (name, total) in bank.drain() {
            if total > 0 {
                self.with(|m| m.add(name, total));
            }
        }
    }

    /// `true` when records actually go somewhere.
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    fn with<R>(&self, f: impl FnOnce(&mut dyn Monitor) -> R) -> Option<R> {
        let inner = self.inner.as_ref()?;
        // a monitor poisoned by a panicking instrumented thread still holds
        // usable telemetry — keep recording
        let mut guard = inner.lock().unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut *guard))
    }

    /// Opens a span on `track`.
    pub fn enter(&self, track: TrackId, name: &'static str, cat: &'static str, at: VirtualTime) {
        self.with(|m| m.enter(track, name, cat, at));
    }

    /// Closes the innermost open span on `track`.
    pub fn exit(&self, track: TrackId, at: VirtualTime) {
        self.with(|m| m.exit(track, at));
    }

    /// Records a complete span with a known duration.
    pub fn span(
        &self,
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        start: VirtualTime,
        dur_secs: f64,
    ) {
        self.with(|m| m.span(track, name, cat, start, dur_secs));
    }

    /// Adds `delta` to the named counter — lock-free when the handle
    /// carries a sharded bank, through the monitor mutex otherwise.
    pub fn add(&self, counter: &'static str, delta: u64) {
        if let Some(bank) = self.counters.as_ref() {
            bank.add(counter, delta);
            return;
        }
        self.with(|m| m.add(counter, delta));
    }

    /// Records post-aggregation global metrics.
    pub fn round(&self, round: u64, time: VirtualTime, metrics: &Metrics) {
        self.with(|m| m.round(round, time, metrics));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recording::RecordingMonitor;

    #[test]
    fn null_handle_is_inert_and_cheap() {
        let h = MonitorHandle::null();
        assert!(!h.is_live());
        // all calls are no-ops
        h.enter(0, "a", "b", VirtualTime::ZERO);
        h.exit(0, VirtualTime::ZERO);
        h.add(counters::MESSAGES_SENT, 5);
        h.round(1, VirtualTime::ZERO, &Metrics::default());
        assert_eq!(
            std::mem::size_of::<MonitorHandle>(),
            24,
            "fat monitor pointer + thin bank pointer"
        );
    }

    #[test]
    fn default_handle_is_null() {
        assert!(!MonitorHandle::default().is_live());
    }

    #[test]
    fn sharded_null_handle_stays_null_and_bankless() {
        let h = MonitorHandle::null().sharded();
        assert!(!h.is_live());
        h.add(counters::MESSAGES_SENT, 3); // no-op, no panic
        h.flush_counters(); // no-op
    }

    #[test]
    fn sharded_adds_reach_monitor_only_after_flush() {
        let mon = Arc::new(Mutex::new(RecordingMonitor::new()));
        let h = MonitorHandle::from_shared(mon.clone()).sharded();
        h.add(counters::WIRE_BYTES_OUT, 100);
        h.clone().add(counters::WIRE_BYTES_OUT, 50);
        // buffered in the bank — the monitor hasn't seen them yet
        assert_eq!(mon.lock().unwrap().counter(counters::WIRE_BYTES_OUT), 0);
        h.flush_counters();
        assert_eq!(mon.lock().unwrap().counter(counters::WIRE_BYTES_OUT), 150);
        // flushing again adds nothing: the bank was drained
        h.flush_counters();
        assert_eq!(mon.lock().unwrap().counter(counters::WIRE_BYTES_OUT), 150);
    }

    #[test]
    fn sharded_counters_fold_across_threads() {
        let mon = Arc::new(Mutex::new(RecordingMonitor::new()));
        let h = MonitorHandle::from_shared(mon.clone()).sharded();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.add(counters::WIRE_FRAMES_IN, 1);
                    }
                });
            }
        });
        h.flush_counters();
        assert_eq!(mon.lock().unwrap().counter(counters::WIRE_FRAMES_IN), 4000);
    }

    #[test]
    fn live_handle_records_through_shared_arc() {
        let mon = Arc::new(Mutex::new(RecordingMonitor::new()));
        let h = MonitorHandle::from_shared(mon.clone());
        assert!(h.is_live());
        h.add(counters::UPLOADED_BYTES, 10);
        h.clone().add(counters::UPLOADED_BYTES, 5);
        let got = mon.lock().unwrap().counter(counters::UPLOADED_BYTES);
        assert_eq!(got, 15);
    }
}
