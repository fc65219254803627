//! Puts `fsa --check` inside plain `cargo test`, so a new static-analysis
//! finding fails locally before CI's dedicated step sees it.

use fs_analyze::analyze_workspace;
use std::path::Path;

#[test]
fn the_workspace_has_no_gating_finding() {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let report = analyze_workspace(root).expect("workspace scan");
    let gating: Vec<String> = report.gating().iter().map(|f| f.render()).collect();
    assert!(
        gating.is_empty(),
        "fix these or add an `// fsa::allow(CODE, reason)` pragma:\n{}",
        gating.join("\n")
    );
}
