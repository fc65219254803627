//! Deterministic workspace traversal.
//!
//! Scans the first-party source trees only: the root crate's `src/`,
//! `tests/`, `examples/`, and every `crates/*/{src,tests,benches,examples}`.
//! `vendored/` (external code), `target/`, and fixture corpora are out of
//! scope. Results are sorted so reports are stable across
//! platforms and filesystems.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// All `.rs` files to analyze under `root`, workspace-relative, sorted.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut roots: Vec<PathBuf> = Vec::new();
    for top in ["src", "tests", "examples", "benches"] {
        let p = root.join(top);
        if p.is_dir() {
            roots.push(p);
        }
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for d in dirs {
            for sub in ["src", "tests", "benches", "examples"] {
                let p = d.join(sub);
                if p.is_dir() {
                    roots.push(p);
                }
            }
        }
    }
    let mut files = Vec::new();
    for r in &roots {
        collect_rs(r, &mut files)?;
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).ok().map(PathBuf::from))
        .collect();
    rel.sort();
    Ok(rel)
}

/// Appends every `.rs` file under `dir` (recursively, sorted, dot-entries
/// skipped) to `out`.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') {
            continue;
        }
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_this_workspace_deterministically() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_files(&root).expect("walk");
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/analyze/src/walk.rs")));
        assert!(files.iter().any(|p| p.starts_with("tests")));
        assert!(!files.iter().any(|p| p.starts_with("vendored")));
        assert!(!files.iter().any(|p| p.starts_with("target")));
        assert!(
            !files
                .iter()
                .any(|p| p.components().any(|c| c.as_os_str() == "fixtures")),
            "the known-bad corpus must not be linted as workspace source"
        );
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
