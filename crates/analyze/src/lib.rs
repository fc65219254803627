//! # fs-analyze — workspace determinism & panic-safety lints
//!
//! The repo's guarantees — bit-identical serial/parallel/scale runs, seeded
//! fault injection, monitor counters that reconcile with `CourseReport` by
//! construction — rest on source-level invariants nothing else enforces:
//! no ambient RNG, no wall-clock on sim-charged paths, no order-sensitive
//! map iteration, no panics in the distributed runtime. fs-verify checks
//! *courses and configs*; this crate checks *source*, on every PR.
//!
//! The pipeline:
//!
//! 1. [`lexer`] — a self-contained Rust tokenizer (no `syn`, no registry
//!    access): identifiers, literals, comments, with exact line numbers.
//! 2. [`lints`] — token-pattern and scope-tracking lints emitting stable
//!    `FSAnnn` [`diag::Finding`]s, graded by [`policy`] tier
//!    (Runtime / Library / Bench) and test context.
//! 3. [`pragma`] — `// fsa::allow(FSA0nn, reason)` suppressions, policed by
//!    their own hygiene codes.
//!
//! The `fsa` binary drives it: `cargo run -p fs-analyze --bin fsa -- --check`
//! fails on any Error or Warning finding; a finding is excused in exactly one
//! way, the pragma next to the line it excuses.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod diag;
pub mod lexer;
pub mod lints;
pub mod policy;
pub mod pragma;
pub mod walk;

pub use diag::{AnalyzeReport, Code, Finding, Severity, ALL_CODES};
pub use lints::{analyze_source, count_loc, FileContext};
pub use policy::{charged_crate, grade, tier_for_crate, Tier};

use std::fs;
use std::io;
use std::path::Path;

/// Derives the analysis context for a workspace-relative path.
pub fn context_for(rel_path: &str) -> FileContext {
    let crate_name = match rel_path.strip_prefix("crates/") {
        Some(rest) => {
            let dir = rest.split('/').next().unwrap_or("");
            format!("fs-{dir}")
        }
        None => "fedscope".to_string(),
    };
    let force_test = rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches");
    let tier = tier_for_crate(&crate_name);
    // examples are CLI-shaped regardless of their crate
    let tier = if rel_path.split('/').any(|seg| seg == "examples") {
        Tier::Bench
    } else {
        tier
    };
    FileContext {
        path: rel_path.to_string(),
        charged: charged_crate(&crate_name),
        crate_name,
        tier,
        force_test,
    }
}

/// Analyzes the whole workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> io::Result<AnalyzeReport> {
    let mut report = AnalyzeReport::new();
    for rel in walk::workspace_files(root)? {
        let rel_str = rel
            .to_str()
            .map(|s| s.replace('\\', "/"))
            .unwrap_or_else(|| rel.to_string_lossy().into_owned());
        let src = fs::read_to_string(root.join(&rel))?;
        let ctx = context_for(&rel_str);
        report.extend(analyze_source(&src, &ctx));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_mapping() {
        let c = context_for("crates/net/src/tcp.rs");
        assert_eq!(c.crate_name, "fs-net");
        assert_eq!(c.tier, Tier::Runtime);
        assert!(!c.charged && !c.force_test);

        let c = context_for("crates/sim/src/time.rs");
        assert!(c.charged);

        let c = context_for("crates/tensor/tests/gradcheck.rs");
        assert_eq!(c.tier, Tier::Library);
        assert!(c.force_test);

        let c = context_for("examples/quickstart.rs");
        assert_eq!(c.crate_name, "fedscope");
        assert_eq!(c.tier, Tier::Bench);

        let c = context_for("tests/end_to_end.rs");
        assert!(c.force_test);
        assert_eq!(c.tier, Tier::Bench);
    }
}
