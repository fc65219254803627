//! The benchmark's own wall-clock span store.
//!
//! The program's runners describe a course to any `fs_monitor::Monitor` as
//! `enter`/`exit` pairs per track (participant), counter adds and per-round
//! stamps, all in *virtual* time. [`WallTrace`] ignores the virtual clock and
//! stamps each call with the wall clock instead, so a traced course yields a
//! wall-time span tree without any change inside the program. The adapter
//! wraps it in the `Monitor` impl; this file knows nothing about `fs_*`.
//!
//! Spans stay in memory and are written as Chrome trace-event JSON when the
//! run ends (open in <https://ui.perfetto.dev> or `chrome://tracing`).

use std::collections::BTreeMap;
use std::time::Instant;

/// Track of the server participant (the program's numbering).
pub const SERVER_TRACK: u32 = 0;
/// Track the benchmark records its own enclosing spans on.
pub const BENCH_TRACK: u32 = u32::MAX;

/// One closed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub track: u32,
    pub name: &'static str,
    pub cat: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
    /// The span that caused this one: the enclosing span on the same track,
    /// else the benchmark span open on [`BENCH_TRACK`] when it started.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// In-memory wall-clock trace of one course.
#[derive(Debug)]
pub struct WallTrace {
    base: Instant,
    pub spans: Vec<Span>,
    /// Indices of the open spans per track, innermost last.
    open: BTreeMap<u32, Vec<usize>>,
    pub counters: BTreeMap<&'static str, u64>,
    /// Wall stamp of every per-round report the server made.
    pub round_stamps_ns: Vec<u64>,
    /// `exit` calls that found no open span on their track.
    pub unbalanced_exits: u64,
}

impl Default for WallTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl WallTrace {
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            spans: Vec::new(),
            open: BTreeMap::new(),
            counters: BTreeMap::new(),
            round_stamps_ns: Vec::new(),
            unbalanced_exits: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, track: u32, name: &'static str, cat: &'static str) {
        let at = self.now_ns();
        self.enter_at(track, name, cat, at);
    }

    pub fn exit(&mut self, track: u32) {
        let at = self.now_ns();
        self.exit_at(track, at);
    }

    pub fn round(&mut self) {
        let at = self.now_ns();
        self.round_stamps_ns.push(at);
    }

    pub fn add(&mut self, counter: &'static str, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// `enter` with an explicit stamp (tests feed synthetic streams).
    pub fn enter_at(&mut self, track: u32, name: &'static str, cat: &'static str, at_ns: u64) {
        let innermost = |t: u32| self.open.get(&t).and_then(|s| s.last().copied());
        let parent = innermost(track).or_else(|| innermost(BENCH_TRACK));
        let idx = self.spans.len();
        self.spans.push(Span {
            track,
            name,
            cat,
            start_ns: at_ns,
            end_ns: None,
            parent,
        });
        self.open.entry(track).or_default().push(idx);
    }

    /// `exit` with an explicit stamp.
    pub fn exit_at(&mut self, track: u32, at_ns: u64) {
        match self.open.get_mut(&track).and_then(Vec::pop) {
            Some(idx) => self.spans[idx].end_ns = Some(at_ns),
            None => self.unbalanced_exits += 1,
        }
    }

    /// Spans still open (0 after a well-formed course).
    pub fn open_spans(&self) -> usize {
        self.open.values().map(Vec::len).sum()
    }

    /// Self time of every span: its duration minus the part of it that its
    /// direct children cover. Children of one parent never overlap here (one
    /// thread stamps them in sequence), so the cover is the plain sum.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Summed duration of the closed spans `keep` selects.
    pub fn total_ns(&self, keep: impl Fn(&Span) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| keep(s))
            .map(Span::dur_ns)
            .sum()
    }

    /// Chrome trace-event JSON: one complete (`"X"`) event per closed span,
    /// one named thread per track, and the final counter totals as `"C"`
    /// events at the end of the trace.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
        };
        let mut tracks: Vec<u32> = self.spans.iter().map(|s| s.track).collect();
        tracks.sort_unstable();
        tracks.dedup();
        for t in tracks {
            let name = match t {
                SERVER_TRACK => "server".to_string(),
                BENCH_TRACK => "benchmark".to_string(),
                n => format!("client {n}"),
            };
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        let mut last_ns = 0u64;
        for s in &self.spans {
            let Some(end) = s.end_ns else { continue };
            last_ns = last_ns.max(end);
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                 \"ts\":{:.3},\"dur\":{:.3}}}",
                s.track,
                s.name,
                s.cat,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3
            ));
        }
        for (name, total) in &self.counters {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"C\",\"pid\":1,\"name\":\"{name}\",\"ts\":{:.3},\
                 \"args\":{{\"total\":{total}}}}}",
                last_ns as f64 / 1e3
            ));
        }
        out.push_str("]}");
        out
    }
}
