//! The names the benchmark defines obey the contract's limits, and
//! `BENCHMARK.json` says exactly what the code measures.

use fedscope_benchmark::spec::{END_TO_END, PER_LAYER};
use fedscope_benchmark::workloads::WORKLOADS;
use serde::Value;
use std::collections::BTreeSet;

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_are_within_the_contract() {
    let mut seen = BTreeSet::new();
    for w in &WORKLOADS {
        assert!(is_name(w.name), "workload name {}", w.name);
        assert!(seen.insert(w.name), "duplicate name {}", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why must be one line of at most 200 characters, is {}",
            w.name,
            w.why.len()
        );
    }
    for (name, unit) in END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
    {
        assert!(is_name(name), "metric name {name}");
        assert!(is_unit(unit), "unit {unit} of {name}");
        assert!(seen.insert(name), "duplicate name {name}");
    }
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    for m in &END_TO_END {
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let raw = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(raw.len() <= 64 * 1024);
    let json: Value = serde_json::from_str(&raw).expect("BENCHMARK.json parses");
    let Value::Object(entries) = &json else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = field(&json, "paths")
        .as_array()
        .expect("paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = field(&json, "run_seconds").as_u64().expect("run_seconds");
    assert!((1..=60).contains(&seconds));

    let workloads = field(&json, "workloads").as_array().expect("workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (j, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(text(j, "why"), w.why);
    }
    let end_to_end = field(&json, "end_to_end").as_array().expect("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (j, m) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.as_str());
        assert_eq!(field(j, "bound").as_f64(), Some(m.bound), "{}", m.name);
    }
    let per_layer = field(&json, "per_layer").as_array().expect("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (j, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(text(j, "name"), m.name);
        assert_eq!(text(j, "unit"), m.unit);
        assert_eq!(text(j, "better"), m.better.as_str());
    }
}
