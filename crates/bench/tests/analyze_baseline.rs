//! Guards the committed static-analysis debt baseline, the same way the
//! snapshot suite guards the `BENCH_*.json` files: `ANALYZE_baseline.json` must
//! stay well-formed, and the live workspace must not owe more findings than
//! it records. This puts the FSA ratchet inside plain `cargo test`, so a
//! regression fails locally before CI's dedicated `fsa --check` step sees it.

use fs_analyze::{analyze_workspace, ratchet, Baseline};
use std::path::Path;

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn committed_analyze_baseline_is_valid() {
    let path = repo_root().join("ANALYZE_baseline.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let baseline = Baseline::from_json(&text).expect("well-formed baseline");
    baseline.validate().expect("internally consistent baseline");
}

#[test]
fn workspace_findings_stay_within_the_baseline() {
    let text = std::fs::read_to_string(repo_root().join("ANALYZE_baseline.json"))
        .expect("committed baseline");
    let baseline = Baseline::from_json(&text).expect("well-formed baseline");
    let report = analyze_workspace(repo_root()).expect("workspace scan");
    let outcome = ratchet(&report.findings, &baseline);
    assert!(
        outcome.passes(),
        "new static-analysis findings beyond ANALYZE_baseline.json:\n{}",
        outcome
            .new
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
