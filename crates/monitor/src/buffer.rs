//! A replayable monitor buffer for parallel execution.
//!
//! When the standalone runner speculatively executes a client handler on a
//! worker thread, the handler must not write to the shared monitor directly:
//! interleaved writes from concurrent workers would scramble the record
//! order (and per-track span nesting) that serial execution produces. A
//! [`BufferMonitor`] solves this by *recording* every operation the handler
//! issues; once the runner adopts the speculation — at the exact point the
//! serial simulator would have run the handler — it replays the buffered
//! ops ([`BufferMonitor::replay_ops`]) into the real monitor, between the
//! runner's own `enter`/`exit` calls. The replayed stream is byte-for-byte
//! the stream a serial run would have produced.

use crate::api::{Monitor, MonitorHandle, TrackId};
use fs_sim::VirtualTime;
use fs_tensor::model::Metrics;

/// One recorded monitor operation.
///
/// Span names and categories stay `&'static str` — the [`Monitor`] trait
/// only accepts static strings, so buffering them is copy-free.
#[derive(Clone, Debug)]
pub enum MonitorOp {
    /// An `enter` call.
    Enter {
        /// Span track.
        track: TrackId,
        /// Span name.
        name: &'static str,
        /// Span category.
        cat: &'static str,
        /// Open time.
        at: VirtualTime,
    },
    /// An `exit` call.
    Exit {
        /// Span track.
        track: TrackId,
        /// Close time.
        at: VirtualTime,
    },
    /// A complete `span` call.
    Span {
        /// Span track.
        track: TrackId,
        /// Span name.
        name: &'static str,
        /// Span category.
        cat: &'static str,
        /// Start time.
        start: VirtualTime,
        /// Duration in virtual seconds.
        dur_secs: f64,
    },
    /// An `add` call.
    Add {
        /// Counter name.
        counter: &'static str,
        /// Increment.
        delta: u64,
    },
    /// A `round` call.
    Round {
        /// Aggregation round.
        round: u64,
        /// Virtual time of the evaluation.
        time: VirtualTime,
        /// Global metrics.
        metrics: Metrics,
    },
}

/// A monitor that records operations for later in-order replay.
#[derive(Debug, Default)]
pub struct BufferMonitor {
    ops: Vec<MonitorOp>,
}

impl BufferMonitor {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the buffer, yielding the recorded operations in issue order.
    pub fn into_ops(self) -> Vec<MonitorOp> {
        self.ops
    }

    /// Replays an operation list into `target`, preserving order.
    pub fn replay_ops(ops: &[MonitorOp], target: &MonitorHandle) {
        for op in ops {
            match *op {
                MonitorOp::Enter {
                    track,
                    name,
                    cat,
                    at,
                } => target.enter(track, name, cat, at),
                MonitorOp::Exit { track, at } => target.exit(track, at),
                MonitorOp::Span {
                    track,
                    name,
                    cat,
                    start,
                    dur_secs,
                } => target.span(track, name, cat, start, dur_secs),
                MonitorOp::Add { counter, delta } => target.add(counter, delta),
                MonitorOp::Round {
                    round,
                    time,
                    ref metrics,
                } => target.round(round, time, metrics),
            }
        }
    }
}

impl Monitor for BufferMonitor {
    fn enter(&mut self, track: TrackId, name: &'static str, cat: &'static str, at: VirtualTime) {
        self.ops.push(MonitorOp::Enter {
            track,
            name,
            cat,
            at,
        });
    }

    fn exit(&mut self, track: TrackId, at: VirtualTime) {
        self.ops.push(MonitorOp::Exit { track, at });
    }

    fn span(
        &mut self,
        track: TrackId,
        name: &'static str,
        cat: &'static str,
        start: VirtualTime,
        dur_secs: f64,
    ) {
        self.ops.push(MonitorOp::Span {
            track,
            name,
            cat,
            start,
            dur_secs,
        });
    }

    fn add(&mut self, counter: &'static str, delta: u64) {
        self.ops.push(MonitorOp::Add { counter, delta });
    }

    fn round(&mut self, round: u64, time: VirtualTime, metrics: &Metrics) {
        self.ops.push(MonitorOp::Round {
            round,
            time,
            metrics: *metrics,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters;
    use crate::recording::RecordingMonitor;
    use std::sync::{Arc, Mutex};

    #[test]
    fn replay_reproduces_the_serial_record_stream() {
        // record the same operations directly and through a buffer
        let direct = Arc::new(Mutex::new(RecordingMonitor::new()));
        let direct_handle = MonitorHandle::from_shared(direct.clone());
        let buffered = Arc::new(Mutex::new(RecordingMonitor::new()));
        let buffered_handle = MonitorHandle::from_shared(buffered.clone());

        let drive = |h: &MonitorHandle| {
            h.enter(3, "ModelParams", "dispatch", VirtualTime::ZERO);
            h.add(counters::MESSAGES_SENT, 2);
            h.span(3, "local_train", "compute", VirtualTime::ZERO, 1.5);
            h.exit(3, VirtualTime::ZERO + 2.0);
            h.round(1, VirtualTime::ZERO + 2.0, &Metrics::default());
        };

        drive(&direct_handle);

        let buf = Arc::new(Mutex::new(BufferMonitor::new()));
        drive(&MonitorHandle::from_shared(buf.clone()));
        BufferMonitor::replay_ops(&buf.lock().unwrap().ops, &buffered_handle);

        let direct = direct.lock().unwrap();
        let buffered = buffered.lock().unwrap();
        assert_eq!(direct.spans().len(), buffered.spans().len());
        for (a, b) in direct.spans().iter().zip(buffered.spans().iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        assert_eq!(
            direct.counter(counters::MESSAGES_SENT),
            buffered.counter(counters::MESSAGES_SENT)
        );
        assert_eq!(direct.rounds().len(), buffered.rounds().len());
    }

    #[test]
    fn buffer_keeps_issue_order() {
        let mut buf = BufferMonitor::new();
        buf.add("a", 1);
        buf.enter(1, "x", "dispatch", VirtualTime::ZERO);
        buf.add("b", 2);
        buf.exit(1, VirtualTime::ZERO);
        let kinds: Vec<&str> = buf
            .into_ops()
            .iter()
            .map(|op| match op {
                MonitorOp::Add { .. } => "add",
                MonitorOp::Enter { .. } => "enter",
                MonitorOp::Exit { .. } => "exit",
                MonitorOp::Span { .. } => "span",
                MonitorOp::Round { .. } => "round",
            })
            .collect();
        assert_eq!(kinds, ["add", "enter", "add", "exit"]);
    }
}
