//! `WallTrace` nesting, parents and self-time arithmetic on a synthetic span
//! stream, and the Chrome trace it writes.

use fedscope_benchmark::trace::{WallTrace, BENCH_TRACK, SERVER_TRACK};
use serde::Value;

/// course [0, 1000] on the benchmark track, enclosing
///   client 1: model_para [100, 400] with a nested eval [150, 250]
///   server:   updates    [400, 450]
///   client 2: model_para [500, 900]
fn synthetic() -> WallTrace {
    let mut t = WallTrace::new();
    t.enter_at(BENCH_TRACK, "course", "benchmark", 0);
    t.enter_at(1, "model_para", "dispatch", 100);
    t.enter_at(1, "eval", "dispatch", 150);
    t.exit_at(1, 250);
    t.exit_at(1, 400);
    t.enter_at(SERVER_TRACK, "updates", "dispatch", 400);
    t.exit_at(SERVER_TRACK, 450);
    t.enter_at(2, "model_para", "dispatch", 500);
    t.exit_at(2, 900);
    t.exit_at(BENCH_TRACK, 1000);
    t
}

#[test]
fn parents_follow_the_track_stack_then_the_benchmark_span() {
    let t = synthetic();
    let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
    assert_eq!(parents, [None, Some(0), Some(1), Some(0), Some(0)]);
    assert_eq!(t.open_spans(), 0);
    assert_eq!(t.unbalanced_exits, 0);
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let t = synthetic();
    let durs: Vec<u64> = t.spans.iter().map(|s| s.dur_ns()).collect();
    assert_eq!(durs, [1000, 300, 100, 50, 400]);
    // course: 1000 - (300 + 50 + 400); the nested eval only reduces its
    // own parent, not the course
    assert_eq!(t.self_times_ns(), [250, 200, 100, 50, 400]);
    // the shares the benchmark reports sum to the whole
    let client =
        t.total_ns(|s| s.track != SERVER_TRACK && s.track != BENCH_TRACK && s.parent == Some(0));
    let server = t.total_ns(|s| s.track == SERVER_TRACK);
    assert_eq!(client + server + t.self_times_ns()[0], 1000);
}

#[test]
fn unbalanced_exit_is_counted_not_fatal() {
    let mut t = WallTrace::new();
    t.exit_at(3, 10);
    assert_eq!(t.unbalanced_exits, 1);
    t.enter_at(3, "a", "dispatch", 20);
    assert_eq!(t.open_spans(), 1);
}

#[test]
fn counters_and_round_stamps_accumulate() {
    let mut t = WallTrace::new();
    t.add("rounds.aggregations", 2);
    t.add("rounds.aggregations", 3);
    assert_eq!(t.counter("rounds.aggregations"), 5);
    assert_eq!(t.counter("never.added"), 0);
    t.round();
    t.round();
    assert_eq!(t.round_stamps_ns.len(), 2);
    assert!(t.round_stamps_ns[0] <= t.round_stamps_ns[1]);
}

#[test]
fn chrome_trace_is_json_with_one_event_per_span_track_and_counter() {
    let mut t = synthetic();
    t.add("messages.delivered", 7);
    let json: Value = serde_json::from_str(&t.chrome_json()).expect("trace parses as JSON");
    let events = json
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let phase = |ph: &str| {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
            .count()
    };
    assert_eq!(phase("X"), 5, "one complete event per closed span");
    assert_eq!(phase("M"), 4, "one thread name per track");
    assert_eq!(phase("C"), 1, "one counter total");
    let course = events
        .iter()
        .find(|e| e.get("name").and_then(Value::as_str) == Some("course"))
        .expect("course event");
    assert_eq!(
        course.get("dur").and_then(Value::as_f64),
        Some(1.0),
        "1000 ns = 1 us"
    );
}
