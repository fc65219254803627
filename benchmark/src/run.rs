//! The run shape shared by every workload.
//!
//! One process runs one workload: a warm-up course (discarded), then timed
//! repeats of the identical seeded course for `--seconds`, each repeat doing
//! its own set-up (dataset generation + course build) so that set-up time is
//! a median too. Tracing is off for all of that. A traced run spends a third
//! of the time on untraced repeats (the baseline for the overheads), then
//! runs one course under the benchmark's `WallMonitor`, one under the
//! program's `RecordingMonitor`, and the per-layer probes.
//!
//! Every timed piece is bracketed by host-speed calibration samples and the
//! end-to-end timings are reported at reference host speed (see
//! `calibrate`); the result file keeps the raw medians beside them.
//!
//! Load is closed-loop by construction: the server waits on `concurrency`
//! outstanding clients, and the benchmark drives one course at a time from
//! one thread, never asking the program for more than 2 runnable workers.

use crate::adapter::{self, Course, Outcome};
use crate::calibrate;
use crate::result::{MetricRow, RunResult};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{median, percentile, Summary};
use crate::sys::{self, HostStamp};
use crate::trace::{WallTrace, SERVER_TRACK};
use crate::workloads::{Codec, Runner, Strategy, Workload};
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    pub seed: u64,
    /// How long the timed repeats go on.
    pub seconds: f64,
    pub traced: bool,
    /// A twentieth of the rounds and two repeats: tests only.
    pub smoke: bool,
}

/// A piece of work as measured, and the host speed while it ran.
struct Timed<T> {
    out: T,
    wall_s: f64,
    cpu_s: f64,
    speed: f64,
}

impl<T> Timed<T> {
    /// Wall seconds at reference host speed: the computing share of the wall
    /// (CPU over wall, at most all of it) scales, waiting does not.
    fn wall_at_reference(&self) -> f64 {
        calibrate::at_reference_speed(self.wall_s, self.cpu_s / self.wall_s, self.speed)
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let before = calibrate::sample();
    let (t, cpu) = (Instant::now(), sys::cpu_seconds());
    let out = f();
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu);
    Timed {
        out,
        wall_s,
        cpu_s,
        speed: calibrate::speed(before, calibrate::sample()),
    }
}

/// One timed repeat: set-up, then the course.
struct Repeat {
    gen_s: f64,
    setup_s: f64,
    setup_speed: f64,
    course: Timed<Outcome>,
}

fn set_up(w: &Workload, seed: u64) -> (Course, f64) {
    let t = Instant::now();
    let data = adapter::gen_data(w, seed);
    let gen_s = t.elapsed().as_secs_f64();
    (adapter::build_course(w, data, seed), gen_s)
}

fn repeat(w: &Workload, seed: u64) -> Result<Repeat, String> {
    let Timed {
        out: (course, gen_s),
        wall_s: setup_s,
        speed: setup_speed,
        ..
    } = timed(|| set_up(w, seed));
    let Timed {
        out,
        wall_s,
        cpu_s,
        speed,
    } = timed(|| course.run());
    Ok(Repeat {
        gen_s,
        setup_s,
        setup_speed,
        course: Timed {
            out: out?,
            wall_s,
            cpu_s,
            speed,
        },
    })
}

/// The correctness gate for one finished course; returns what failed.
pub fn check(w: &Workload, o: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    let rounds = w.rounds;
    let per_round = w.updates_per_round();
    if o.rounds != rounds {
        bad.push(format!("completed {} of {rounds} rounds", o.rounds));
    }
    if o.dropped_updates != 0 || o.crashed_deliveries != 0 {
        bad.push(format!(
            "{} updates dropped, {} deliveries crashed",
            o.dropped_updates, o.crashed_deliveries
        ));
    }
    // received = aggregated + dropped (+ what the last, unfinished
    // aggregation left buffered: fewer than one aggregation's worth)
    let aggregated = rounds * per_round;
    match w.strategy {
        Strategy::Sync if o.total_updates != aggregated => bad.push(format!(
            "received {} updates, expected {aggregated}",
            o.total_updates
        )),
        Strategy::AsyncGoal { .. } => {
            let rest = o.total_updates as i64 - o.dropped_updates as i64 - aggregated as i64;
            if !(0..per_round as i64).contains(&rest) {
                bad.push(format!(
                    "received {} updates, {aggregated} aggregated, {} dropped: {rest} unaccounted",
                    o.total_updates, o.dropped_updates
                ));
            }
        }
        Strategy::Sync => {}
    }
    if w.central_eval {
        match (o.best_accuracy, o.last_loss) {
            (Some(acc), Some(loss)) if acc.is_finite() && loss.is_finite() => {
                if w.min_accuracy.is_some_and(|floor| acc < floor) {
                    bad.push(format!("best accuracy {acc} below its floor"));
                }
            }
            other => bad.push(format!("accuracy/loss missing or not finite: {other:?}")),
        }
    }
    if matches!(w.runner, Runner::Bus | Runner::Tcp) && o.client_reports != Some(w.num_clients()) {
        bad.push(format!(
            "{:?} of {} clients sent a final report",
            o.client_reports,
            w.num_clients()
        ));
    }
    bad
}

/// Runs one workload and returns everything it measured.
pub fn run_workload(w: &Workload, opts: RunOptions) -> RunResult {
    let host = HostStamp::collect();
    let w = &if opts.smoke { w.smoke() } else { *w };
    let mut failures: Vec<String> = Vec::new();
    let mut fail = |what: String| {
        if !failures.contains(&what) {
            failures.push(what);
        }
    };

    // warm-up: page in code and allocator arenas, discard the timings
    match repeat(w, opts.seed) {
        Ok(r) => check(w, &r.course.out).into_iter().for_each(&mut fail),
        Err(e) => fail(format!("warm-up course failed: {e}")),
    }

    // timed repeats, tracing off
    let budget = if opts.traced {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let min_repeats = if opts.smoke { 2 } else { 5 };
    let design = w.rounds * w.updates_per_round();
    let started = Instant::now();
    let mut repeats: Vec<Repeat> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while repeats.len() < min_repeats || started.elapsed().as_secs_f64() < budget {
        match repeat(w, opts.seed) {
            Ok(r) => {
                let o = &r.course.out;
                let bad = check(w, o);
                let ops = o.total_updates.max(design);
                attempted += ops;
                failed += if bad.is_empty() {
                    o.dropped_updates + o.crashed_deliveries
                } else {
                    ops
                };
                bad.into_iter().for_each(&mut fail);
                repeats.push(r);
            }
            Err(e) => {
                attempted += design;
                failed += design;
                fail(format!("course failed: {e}"));
                if repeats.is_empty() {
                    break; // nothing to time; report the failure
                }
            }
        }
    }
    let first = repeats.first().map(|r| &r.course.out);
    let fingerprint = first.map_or(0, |o| o.fingerprint);
    if repeats
        .iter()
        .any(|r| r.course.out.fingerprint != fingerprint)
    {
        fail("repeats of the same seeded course reported different fingerprints".to_string());
    }

    let column = |f: fn(&Repeat) -> f64| -> Vec<f64> { repeats.iter().map(f).collect() };
    let walls = column(|r| r.course.wall_at_reference());
    let mut result = RunResult {
        schema: 1,
        workload: w.name.to_string(),
        why: w.why.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        smoke: opts.smoke,
        host,
        host_speed: median(&column(|r| r.course.speed)),
        correct: true,
        ops_attempted: attempted,
        ops_failed: failed,
        repeats: repeats.len() as u64,
        fingerprint: format!("{fingerprint:016x}"),
        best_accuracy: first.and_then(|o| o.best_accuracy).map(f64::from),
        last_loss: first.and_then(|o| o.last_loss).map(f64::from),
        failures: Vec::new(),
        end_to_end: Vec::new(),
        raw_end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };

    if opts.traced {
        if !repeats.is_empty() {
            let untraced_wall_s = median(&walls);
            let gen_s = median(&column(|r| r.gen_s));
            match per_layer(w, opts, untraced_wall_s, gen_s) {
                Ok((rows, bad)) => {
                    result.per_layer = rows;
                    bad.into_iter().for_each(&mut fail);
                }
                Err(e) => fail(format!("traced course failed: {e}")),
            }
        }
    } else {
        let rss = vec![sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0)];
        let bytes =
            column(|r| r.course.out.wire_bytes as f64 / r.course.out.total_updates.max(1) as f64);
        let rows = |values: [Vec<f64>; 6]| -> Vec<MetricRow> {
            END_TO_END
                .iter()
                .zip(&values)
                .map(|(m, v)| MetricRow::new(m.name, m.unit, Summary::of(v)))
                .collect()
        };
        result.end_to_end = rows([
            column(|r| r.setup_s * r.setup_speed),
            walls,
            column(|r| r.course.out.total_updates as f64 / r.course.wall_at_reference()),
            column(|r| r.course.cpu_s * r.course.speed),
            rss.clone(),
            bytes.clone(),
        ]);
        result.raw_end_to_end = rows([
            column(|r| r.setup_s),
            column(|r| r.course.wall_s),
            column(|r| r.course.out.total_updates as f64 / r.course.wall_s),
            column(|r| r.course.cpu_s),
            rss,
            bytes,
        ]);
    }

    if !failures.is_empty() {
        result.correct = false;
        result.ops_failed = result.ops_attempted.max(1);
    }
    result.failures = failures;
    result
}

/// The traced half of a run: trace, recording course, probes, references.
/// `untraced_wall_s` is the untraced median at reference speed. Returns the
/// per-layer rows and any correctness failures.
fn per_layer(
    w: &Workload,
    opts: RunOptions,
    untraced_wall_s: f64,
    gen_s: f64,
) -> Result<(Vec<MetricRow>, Vec<String>), String> {
    // (a) one course under the WallMonitor; this thread runs the server
    // loop of the threaded runners, so its CPU time is the server's
    let course = set_up(w, opts.seed).0;
    let server_cpu = sys::thread_cpu_seconds();
    let traced = timed(|| course.run_traced());
    let server_cpu_s = sys::thread_cpu_seconds() - server_cpu;
    let (outcome, trace) = &traced.out;
    let outcome = outcome.as_ref().map_err(String::clone)?;
    let mut bad = check(w, outcome);
    if trace.open_spans() != 0 || trace.unbalanced_exits != 0 {
        bad.push(format!(
            "trace is not well nested: {} spans left open, {} unbalanced exits",
            trace.open_spans(),
            trace.unbalanced_exits
        ));
    }
    // what the monitor counted must agree with the report
    if trace.counter("rounds.aggregations") != outcome.rounds {
        bad.push(format!(
            "monitor counted {} aggregations, report says {}",
            trace.counter("rounds.aggregations"),
            outcome.rounds
        ));
    }
    let out_dir = crate::out_dir();
    let trace_file = format!(
        "{}{}.trace.json",
        w.name,
        if opts.smoke { ".smoke" } else { "" }
    );
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(trace_file), trace.chrome_json()))
        .map_err(|e| format!("cannot write the trace: {e}"))?;

    // the program's own recording monitor, for its overhead
    let course = set_up(w, opts.seed).0;
    let recorded = timed(|| course.run_recording());
    recorded.out.as_ref().map_err(String::clone)?;

    // (b) the two fixed reference courses, then probes on the workload's
    // shapes (in this order: see `exec_reference`)
    let (par_speedup, cpu_inflation) = adapter::exec_reference(opts.seed, opts.smoke);
    let (clients_per_s, events_per_s) = adapter::scale_reference(opts.seed, opts.smoke);
    let probes = adapter::run_probes(w, opts.seed, opts.smoke);

    let mut values: Vec<(&str, f64, usize)> =
        probes.iter().map(|p| (p.name, p.value, p.n)).collect();
    let probe = |name: &str| {
        probes
            .iter()
            .find(|p| p.name == name)
            .map_or(0.0, |p| p.value)
    };
    let mut put = |name: &'static str, value: f64| values.push((name, value, 1));
    put("host.speed", traced.speed);
    put("data.gen_s", gen_s);
    put("exec.par_speedup", par_speedup);
    put("exec.cpu_inflation", cpu_inflation);
    put("scale.clients_per_s", clients_per_s);
    put("scale.events_per_s", events_per_s);
    put(
        "monitor.recording_overhead_share",
        recorded.wall_at_reference() / untraced_wall_s - 1.0,
    );
    put(
        "trace.overhead_share",
        traced.wall_at_reference() / untraced_wall_s - 1.0,
    );

    let c = CourseTrace::of(trace, w, outcome, traced.cpu_s, server_cpu_s);
    put("course.client_dispatch_share", c.client_share);
    put("course.server_dispatch_share", c.server_share);
    put("course.runner_self_share", c.self_share);
    put("course.round_wall_ms_p50", percentile(&c.round_ms, 50.0));
    put("course.round_wall_ms_p95", percentile(&c.round_ms, 95.0));
    put(
        "course.server_updates_dispatch_us_p50",
        percentile(&c.server_update_us, 50.0),
    );
    put(
        "course.server_updates_dispatch_us_p95",
        percentile(&c.server_update_us, 95.0),
    );
    put("course.cpu_over_wall", traced.cpu_s / c.wall_s);
    // the from-outside version of "the parts sum to the whole": how much of
    // the traced wall the isolated probe timings, times their counts, explain
    let updates = outcome.total_updates as f64;
    let aggregations = outcome.rounds as f64;
    let mut covered = updates * probe("trainer.local_train_ns")
        + aggregations * (probe("agg.aggregate_ns") + probe("sampler.sample_ns"))
        + c.events * probe("sim.queue_push_pop_ns");
    if w.central_eval {
        covered += aggregations * probe("eval.global_ns");
    }
    if w.codec != Codec::Dense {
        covered += updates * (probe("compress.encode_ns") + probe("compress.decode_ns"));
    }
    if matches!(w.runner, Runner::Bus | Runner::Tcp) {
        covered += 2.0 * updates * (probe("wire.encode_msg_ns") + probe("wire.decode_view_ns"));
    }
    put("course.probe_coverage", covered / 1e9 / c.wall_s);
    put("course.events", c.events);
    for (name, counter) in [
        ("course.messages_delivered", "messages.delivered"),
        ("course.aggregations", "rounds.aggregations"),
        ("course.updates_aggregated", "updates.aggregated"),
        ("course.updates_dropped", "updates.dropped"),
        ("wire.bytes_out", "wire.bytes_out"),
        ("wire.frames_out", "wire.frames_out"),
    ] {
        put(name, trace.counter(counter) as f64);
    }

    let rows = PER_LAYER
        .iter()
        .map(|m| {
            let (_, value, n) = values
                .iter()
                .find(|(name, _, _)| *name == m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name));
            let mut row = MetricRow::new(m.name, m.unit, Summary::single(*value));
            row.n = *n as u64;
            row
        })
        .collect();
    Ok((rows, bad))
}

/// What the wall-clock trace of one course says about where time went.
pub struct CourseTrace {
    pub wall_s: f64,
    pub client_share: f64,
    pub server_share: f64,
    pub self_share: f64,
    /// Wall time of each round, ms.
    pub round_ms: Vec<f64>,
    /// Duration of each server dispatch of a client update, µs.
    pub server_update_us: Vec<f64>,
    /// Events the runner processed (dispatches seen, where it does not say).
    pub events: f64,
}

impl CourseTrace {
    /// Reads the shares off the spans when the runner emits dispatch spans
    /// (the standalone runners). The threaded runners emit none; there the
    /// calling thread *is* the server loop, so its CPU time over the wall is
    /// the server's busy share, the rest of the process CPU is the clients',
    /// and per-update and per-round figures are the means the outside sees.
    pub fn of(
        trace: &WallTrace,
        w: &Workload,
        outcome: &Outcome,
        cpu_s: f64,
        server_cpu_s: f64,
    ) -> Self {
        let dispatch = |s: &crate::trace::Span| s.cat == "dispatch";
        let root = trace
            .spans
            .iter()
            .position(|s| s.name == "course")
            .expect("run_traced records the course span");
        let wall_ns = trace.spans[root].dur_ns().max(1) as f64;
        let wall_s = wall_ns / 1e9;
        let dispatches = trace.spans.iter().filter(|s| dispatch(s)).count();
        let updates = outcome.total_updates.max(1) as f64;
        let rounds = outcome.rounds.max(1) as f64;
        if dispatches == 0 {
            let server_share = server_cpu_s / wall_s;
            return Self {
                wall_s,
                client_share: (cpu_s - server_cpu_s).max(0.0) / wall_s,
                server_share,
                self_share: (1.0 - server_share).max(0.0),
                round_ms: vec![wall_s * 1e3 / rounds],
                server_update_us: vec![server_cpu_s * 1e6 / updates],
                events: 0.0,
            };
        }
        let server_ns = trace.total_ns(|s| dispatch(s) && s.track == SERVER_TRACK) as f64;
        let client_ns = trace.total_ns(|s| dispatch(s) && s.track != SERVER_TRACK) as f64;
        let server_updates: Vec<&crate::trace::Span> = trace
            .spans
            .iter()
            .filter(|s| dispatch(s) && s.track == SERVER_TRACK && s.name == "updates")
            .collect();
        // a round ends where the server says so; a runner without an
        // evaluator never says, and there a round ends with the dispatch of
        // its last designed update
        let mut round_ends: Vec<u64> = trace.round_stamps_ns.clone();
        if round_ends.len() < 2 {
            round_ends = server_updates
                .chunks(w.updates_per_round() as usize)
                .filter_map(|c| c.last().and_then(|s| s.end_ns))
                .collect();
        }
        let round_ms = round_ends
            .windows(2)
            .map(|p| p[1].saturating_sub(p[0]) as f64 / 1e6)
            .collect();
        Self {
            wall_s,
            client_share: client_ns / wall_ns,
            server_share: server_ns / wall_ns,
            self_share: trace.self_times_ns()[root] as f64 / wall_ns,
            round_ms,
            server_update_us: server_updates
                .iter()
                .map(|s| s.dur_ns() as f64 / 1e3)
                .collect(),
            events: outcome.events.map_or(dispatches as f64, |e| e as f64),
        }
    }
}
