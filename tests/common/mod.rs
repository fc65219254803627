//! Helpers shared by the golden-fingerprint suites (`scheduler_equivalence`,
//! `topo_equivalence`): the FNV-1a fold of a course's observable surface and
//! the capture/check switch.
#![allow(dead_code, reason = "each suite uses its own subset")]

use fedscope::core::runner::CourseReport;
use fedscope::monitor::{counters, RecordingMonitor};
use std::sync::{Arc, Mutex, PoisonError};

/// FNV-1a over the canonical byte stream.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    pub fn field(&mut self, name: &str, value: &str) {
        self.write(name.as_bytes());
        self.write(b"=");
        self.write(value.as_bytes());
        self.write(b";");
    }
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The counters a pre-refactor course can bump, in a FIXED order. New
/// counters introduced *after* the pin (e.g. per-scheduler gauges) must not
/// be added here: the claim is that the legacy surface is unchanged, not
/// that the refactor adds nothing.
pub const PINNED_COUNTERS: &[&str] = &[
    counters::MESSAGES_DELIVERED,
    counters::MESSAGES_SENT,
    counters::UPLOADED_BYTES,
    counters::DOWNLOADED_BYTES,
    counters::PARTICIPATION,
    counters::UPDATES_RECEIVED,
    counters::UPDATES_DROPPED,
    counters::STALENESS_SUM,
    counters::UPDATES_AGGREGATED,
    counters::AGGREGATIONS,
    counters::REMEDIAL,
    counters::CRASHED_DELIVERIES,
    counters::DROPOUTS,
    counters::RECONNECTS,
];

/// Folds the pre-refactor `CourseReport` fields (the fields that existed at
/// pin time — later additions are intentionally not fingerprinted) and the
/// full monitor stream into one fingerprint. Floats are folded by exact bit
/// pattern.
pub fn fingerprint(report: &CourseReport, mon: &RecordingMonitor) -> u64 {
    let mut h = Fnv::new();
    fold_course(&mut h, report, mon);
    h.finish()
}

/// The byte stream behind [`fingerprint`], foldable into a hasher that goes
/// on to absorb more (e.g. a `TopoReport`).
pub fn fold_course(h: &mut Fnv, report: &CourseReport, mon: &RecordingMonitor) {
    h.field("final_time", &report.final_time_secs.to_bits().to_string());
    h.field("rounds", &report.rounds.to_string());
    for e in &report.history {
        h.field(
            "hist",
            &format!(
                "{}:{}:{}:{}:{}",
                e.round,
                e.time_secs.to_bits(),
                e.metrics.loss.to_bits(),
                e.metrics.accuracy.to_bits(),
                e.metrics.n
            ),
        );
    }
    h.field("finish", &report.finish_reason);
    h.field("dropped", &report.dropped_updates.to_string());
    h.field("total", &report.total_updates.to_string());
    h.field("crashed", &report.crashed_deliveries.to_string());
    h.field("remedial", &report.remedial_count.to_string());
    h.field("up_bytes", &report.uploaded_bytes.to_string());
    h.field("down_bytes", &report.downloaded_bytes.to_string());
    for hh in &report.effective_handlers {
        h.field("handler", hh);
    }
    for w in &report.registry_warnings {
        h.field("warn", w);
    }
    for v in &report.conformance_violations {
        h.field("violation", v);
    }
    h.field("dropouts", &format!("{:?}", report.dropouts));
    h.field("reconnects", &report.reconnects.to_string());

    for name in PINNED_COUNTERS {
        h.field(name, &mon.counter(name).to_string());
    }
    for r in mon.rounds() {
        h.field(
            "round",
            &format!(
                "{}:{}:{}:{}:{}",
                r.round,
                r.time_secs.to_bits(),
                r.loss.to_bits(),
                r.accuracy.to_bits(),
                r.n
            ),
        );
    }
    for s in mon.spans() {
        h.field(
            "span",
            &format!(
                "{}:{}:{}:{}:{}:{}:{}",
                s.name,
                s.cat,
                s.track,
                s.start_secs.to_bits(),
                s.dur_secs.to_bits(),
                s.depth,
                s.nested
            ),
        );
    }
}

/// `SCHED_EQ_CAPTURE=1` prints fingerprints in golden-table syntax instead
/// of asserting them.
pub fn capture_mode() -> bool {
    std::env::var("SCHED_EQ_CAPTURE").is_ok_and(|v| v == "1")
}

/// Asserts `actual` against the golden entry for `label` (or prints it in
/// capture mode).
pub fn check(label: &str, actual: u64, golden: &[(&str, u64)]) {
    if capture_mode() {
        println!("    (\"{label}\", {actual:#018x}),");
        return;
    }
    let expected = golden
        .iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("no golden entry for cell {label}"))
        .1;
    assert_eq!(
        actual, expected,
        "{label}: fingerprint diverged from the pre-refactor pin \
         ({actual:#018x} != {expected:#018x})"
    );
}

/// Takes the recording monitor back once the runner dropped its handle.
pub fn extract(monitor: Arc<Mutex<RecordingMonitor>>) -> RecordingMonitor {
    Arc::try_unwrap(monitor)
        .map_err(|_| "runner kept a monitor handle")
        .unwrap()
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}
