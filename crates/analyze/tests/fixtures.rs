//! Fixture corpus: every FSA code reproduced from a known-bad snippet with
//! its exact `(code, line, severity)` set, plus clean / suppressed /
//! test-context fixtures.
//!
//! The fixtures live in `crates/analyze/fixtures/` — outside any `src/`
//! tree, so neither rustc nor the analyzer's own workspace walk compiles or
//! scans them.

use fs_analyze::{analyze_source, count_loc, Code, FileContext, Severity, Tier};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn ctx(tier: Tier, charged: bool) -> FileContext {
    FileContext {
        path: "crates/fixture/src/lib.rs".into(),
        crate_name: "fs-fixture".into(),
        tier,
        charged,
        force_test: false,
    }
}

fn runtime() -> FileContext {
    ctx(Tier::Runtime, true)
}

/// Analyzes `name` and reduces each finding to its assertable identity.
fn triples(name: &str, c: &FileContext) -> Vec<(Code, u32, Severity)> {
    analyze_source(&fixture(name), c)
        .into_iter()
        .map(|f| (f.code, f.line, f.severity))
        .collect()
}

/// `fsa --loc`: comments, blank lines and `#[cfg(test)]` items are not
/// counted; a multi-line string counts every line it spans.
#[test]
fn loc_counts_non_test_code_lines_only() {
    assert_eq!(count_loc(&fixture("loc_counting.rs")), 7);
}

#[test]
fn fsa001_ambient_rng() {
    assert_eq!(
        triples("fsa001_ambient_rng.rs", &runtime()),
        vec![
            (Code::AmbientRng, 3, Severity::Error),
            (Code::AmbientRng, 4, Severity::Error),
        ]
    );
}

#[test]
fn fsa002_wall_clock() {
    assert_eq!(
        triples("fsa002_wall_clock.rs", &runtime()),
        vec![
            (Code::WallClock, 3, Severity::Error),
            (Code::WallClock, 4, Severity::Error),
        ]
    );
    // only sim-charged crates are on the virtual clock
    assert_eq!(
        triples("fsa002_wall_clock.rs", &ctx(Tier::Runtime, false)),
        vec![]
    );
}

#[test]
fn fsa003_unordered_container() {
    assert_eq!(
        triples("fsa003_unordered.rs", &runtime()),
        vec![
            (Code::UnorderedContainer, 2, Severity::Warning),
            (Code::UnorderedContainer, 5, Severity::Warning),
            (Code::UnorderedContainer, 5, Severity::Warning),
        ]
    );
}

#[test]
fn fsa004_float_reduce() {
    assert_eq!(
        triples("fsa004_float_reduce.rs", &runtime()),
        vec![
            (Code::FloatReduce, 3, Severity::Warning),
            (Code::FloatReduce, 4, Severity::Warning),
        ]
    );
}

#[test]
fn fsa020_unwrap_grades_by_tier() {
    let want = |sev| vec![(Code::Unwrap, 3, sev)];
    assert_eq!(
        triples("fsa020_unwrap.rs", &runtime()),
        want(Severity::Error)
    );
    assert_eq!(
        triples("fsa020_unwrap.rs", &ctx(Tier::Library, false)),
        want(Severity::Warning)
    );
    assert_eq!(
        triples("fsa020_unwrap.rs", &ctx(Tier::Bench, false)),
        vec![]
    );
}

#[test]
fn fsa021_expect() {
    assert_eq!(
        triples("fsa021_expect.rs", &runtime()),
        vec![(Code::Expect, 3, Severity::Warning)]
    );
}

#[test]
fn fsa022_panic_macros() {
    assert_eq!(
        triples("fsa022_panic.rs", &runtime()),
        (4..=7)
            .map(|line| (Code::PanicMacro, line, Severity::Warning))
            .collect::<Vec<_>>()
    );
}

#[test]
fn fsa023_slice_index_is_note_only() {
    let got = triples("fsa023_index.rs", &runtime());
    assert_eq!(got, vec![(Code::SliceIndex, 3, Severity::Note)]);
    let finding = &analyze_source(&fixture("fsa023_index.rs"), &runtime())[0];
    assert!(!finding.gates(), "notes must not gate the check");
}

#[test]
fn fsa040_nested_lock() {
    assert_eq!(
        triples("fsa040_nested_lock.rs", &runtime()),
        vec![
            (Code::NestedLock, 4, Severity::Warning),
            (Code::Expect, 10, Severity::Warning),
        ]
    );
}

#[test]
fn fsa041_guard_across_channel() {
    assert_eq!(
        triples("fsa041_guard_across_channel.rs", &runtime()),
        vec![
            (Code::GuardAcrossChannel, 4, Severity::Warning),
            (Code::Expect, 9, Severity::Warning),
        ]
    );
}

#[test]
fn fsa090_pragma_missing_reason() {
    // the pragma still suppresses the unwrap on line 4; the hygiene finding
    // lands on the pragma's own line
    assert_eq!(
        triples("fsa090_missing_reason.rs", &runtime()),
        vec![(Code::PragmaMissingReason, 3, Severity::Warning)]
    );
}

#[test]
fn fsa091_unused_pragma() {
    assert_eq!(
        triples("fsa091_unused_pragma.rs", &runtime()),
        vec![(Code::UnusedPragma, 3, Severity::Warning)]
    );
}

#[test]
fn fsa092_unknown_pragma_code() {
    assert_eq!(
        triples("fsa092_unknown_code.rs", &runtime()),
        vec![(Code::UnknownPragmaCode, 3, Severity::Warning)]
    );
}

#[test]
fn clean_fixture_has_zero_findings() {
    assert_eq!(triples("clean_runtime.rs", &runtime()), vec![]);
}

#[test]
fn pragmas_suppress_in_both_placements() {
    // standalone (above the line) and trailing (same line) — and neither
    // placement trips the unused-pragma hygiene check
    assert_eq!(triples("pragma_suppressed.rs", &runtime()), vec![]);
}

#[test]
fn test_context_exempts_panic_lints() {
    assert_eq!(triples("test_context.rs", &runtime()), vec![]);
}

#[test]
fn every_code_is_reproduced_by_the_corpus() {
    // the union of fixture findings must cover the full FSA table, so a new
    // code cannot land without a fixture demonstrating it
    let fixtures = [
        "fsa001_ambient_rng.rs",
        "fsa002_wall_clock.rs",
        "fsa003_unordered.rs",
        "fsa004_float_reduce.rs",
        "fsa020_unwrap.rs",
        "fsa021_expect.rs",
        "fsa022_panic.rs",
        "fsa023_index.rs",
        "fsa040_nested_lock.rs",
        "fsa041_guard_across_channel.rs",
        "fsa090_missing_reason.rs",
        "fsa091_unused_pragma.rs",
        "fsa092_unknown_code.rs",
    ];
    let mut seen = std::collections::BTreeSet::new();
    for name in fixtures {
        for f in analyze_source(&fixture(name), &runtime()) {
            seen.insert(f.code.as_str());
        }
    }
    for code in fs_analyze::ALL_CODES {
        assert!(
            seen.contains(code.as_str()),
            "{} has no fixture",
            code.as_str()
        );
    }
}
