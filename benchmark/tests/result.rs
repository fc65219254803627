//! Result files round-trip through JSON, the contract line is well formed,
//! and `compare` judges rows by the bounds.

use fedscope_benchmark::compare::{compare_sets, judge, Verdict};
use fedscope_benchmark::result::{MetricRow, ResultSet, RunResult};
use fedscope_benchmark::spec::{end_to_end, END_TO_END};
use fedscope_benchmark::stats::Summary;
use fedscope_benchmark::sys::HostStamp;
use serde::Value;

fn row(name: &str, unit: &str, values: &[f64]) -> MetricRow {
    MetricRow::new(name, unit, Summary::of(values))
}

fn sample(workload: &str, wall: &[f64]) -> RunResult {
    RunResult {
        schema: 1,
        workload: workload.to_string(),
        why: "a test".to_string(),
        seed: 7,
        seconds: 10.0,
        traced: false,
        smoke: false,
        host: HostStamp {
            cores: 2,
            cpu_model: "test cpu".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            git_commit: "unknown".to_string(),
            source_hash: "0123456789abcdef".to_string(),
            load1: 0.25,
            load_high: false,
        },
        host_speed: 0.93,
        correct: true,
        ops_attempted: 320,
        ops_failed: 0,
        repeats: wall.len() as u64,
        fingerprint: "00000000deadbeef".to_string(),
        best_accuracy: Some(0.875),
        last_loss: None,
        failures: Vec::new(),
        end_to_end: vec![
            row("setup_s", "s", &[0.004, 0.005, 0.0045]),
            row("course_wall_s", "s", wall),
        ],
        raw_end_to_end: vec![row("course_wall_s", "s", wall)],
        per_layer: Vec::new(),
    }
}

#[test]
fn result_round_trips_through_json() {
    let r = sample("femnist_sync", &[1.0, 1.01, 0.99, 1.02, 1.0]);
    let back = RunResult::from_json(&r.to_json()).expect("parses back");
    assert_eq!(back, r);
    let set = ResultSet {
        runs: vec![r.clone(), sample("twitter_async", &[0.5, 0.51])],
    };
    assert_eq!(
        ResultSet::from_json(&set.to_json()).expect("set parses"),
        set
    );
    // a single run's file reads as a set of one
    assert_eq!(
        ResultSet::from_json(&r.to_json()).expect("single parses"),
        ResultSet { runs: vec![r] }
    );
}

#[test]
fn contract_line_has_exactly_the_four_keys_and_every_digit() {
    let r = sample("femnist_sync", &[1.2034567891, 1.3, 1.1]);
    let line = r.contract_line();
    assert!(!line.contains('\n'));
    let json: Value = serde_json::from_str(&line).expect("contract line parses");
    let Value::Object(entries) = &json else {
        panic!("not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json.get("attempted").and_then(Value::as_u64), Some(320));
    let wall = json
        .get("metrics")
        .and_then(|m| m.get("course_wall_s"))
        .expect("course_wall_s");
    assert_eq!(
        wall.get("value").and_then(Value::as_f64),
        Some(1.2034567891)
    );
    assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
}

#[test]
fn judge_applies_bound_spread_and_floor() {
    let wall = end_to_end("course_wall_s").expect("metric");
    let steady = |v: f64| row("course_wall_s", "s", &[v * 0.995, v, v, v, v * 1.005]);
    let half = wall.bound / 2.0;
    assert_eq!(judge(wall, &steady(1.0), &steady(1.0 + half)), Verdict::Ok);
    assert_eq!(
        judge(wall, &steady(1.0), &steady(1.0 + 2.0 * wall.bound)),
        Verdict::Regressed
    );
    assert_eq!(judge(wall, &steady(1.0), &steady(0.5)), Verdict::Ok);
    // spread wider than the bound and overlapping runs: cannot tell
    let noisy = |v: f64| {
        row(
            "course_wall_s",
            "s",
            &[v * 0.5, v * 0.7, v, v * 1.3, v * 1.5],
        )
    };
    assert_eq!(judge(wall, &noisy(1.0), &noisy(1.1)), Verdict::Unresolved);
    // ... unless every run of the candidate beats every run of the base
    assert_eq!(judge(wall, &noisy(1.0), &noisy(0.2)), Verdict::Ok);
    // higher-is-better metrics regress downward
    let rate = end_to_end("updates_per_s").expect("metric");
    let r = |v: f64| row("updates_per_s", "1/s", &[v, v, v]);
    assert_eq!(
        judge(rate, &r(100.0), &r(100.0 * (1.0 - 2.0 * rate.bound))),
        Verdict::Regressed
    );
    assert_eq!(judge(rate, &r(100.0), &r(150.0)), Verdict::Ok);
    // a 2 ms set-up doubling stays under the absolute floor
    let setup = end_to_end("setup_s").expect("metric");
    let s = |v: f64| row("setup_s", "s", &[v, v, v]);
    assert_eq!(judge(setup, &s(0.002), &s(0.004)), Verdict::Ok);
    assert_eq!(judge(setup, &s(0.2), &s(0.3)), Verdict::Regressed);
}

#[test]
fn compare_sets_rows_and_exact_facts() {
    let a = ResultSet {
        runs: vec![sample("femnist_sync", &[1.0, 1.0, 1.0])],
    };
    let mut changed = sample("femnist_sync", &[1.5, 1.5, 1.5]);
    changed.fingerprint = "1111111111111111".to_string();
    changed.ops_failed = 3;
    let b = ResultSet {
        runs: vec![changed],
    };
    let (rows, mismatches) = compare_sets(&a, &b);
    assert_eq!(rows.len(), 2, "one row per metric both sets hold");
    let wall = rows
        .iter()
        .find(|r| r.metric == "course_wall_s")
        .expect("row");
    assert_eq!(wall.verdict, Verdict::Regressed);
    assert_eq!((wall.base, wall.candidate), (1.0, 1.5));
    assert_eq!(
        mismatches.len(),
        2,
        "fingerprint and ops_failed differ: {mismatches:?}"
    );
    let (_, same) = compare_sets(&a, &a);
    assert!(same.is_empty());
    assert!(END_TO_END.iter().any(|m| m.name == "course_wall_s"));
}
