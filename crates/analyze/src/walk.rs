//! Deterministic directory traversal for `fsa --loc`. Results are sorted so
//! the per-file listing is stable across platforms and filesystems.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

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
    fn lists_this_crate_sorted_and_recursively() {
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut files = Vec::new();
        collect_rs(&src, &mut files).expect("walk");
        let names: Vec<_> = files
            .iter()
            .map(|p| p.strip_prefix(&src).unwrap())
            .collect();
        assert_eq!(
            names,
            ["bin/fsa.rs", "lexer.rs", "lib.rs", "walk.rs"].map(Path::new)
        );
    }
}
