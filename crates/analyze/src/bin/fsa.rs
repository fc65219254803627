//! `fsa` — the fs-analyze CLI.
//!
//! ```text
//! fsa --loc PATH...    # non-test, non-comment, non-blank lines per file + total
//! ```
//!
//! Exit codes: 0 counted, 1 a failed scan or read, 2 usage error.

use fs_analyze::{count_loc, walk};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("--loc") => loc(args.map(PathBuf::from).collect()),
        Some(other) => usage(&format!("unknown argument {other:?}")),
        None => usage("--loc is required"),
    }
}

/// `--loc`: counts the code lines of every `.rs` file under `paths` (files
/// or directories), `#[cfg(test)]` items excluded.
fn loc(paths: Vec<PathBuf>) -> ExitCode {
    if paths.is_empty() {
        return usage("--loc needs at least one file or directory");
    }
    let mut files = Vec::new();
    for p in paths {
        if !p.is_dir() {
            files.push(p);
        } else if let Err(e) = walk::collect_rs(&p, &mut files) {
            eprintln!("fsa: scanning {}: {e}", p.display());
            return ExitCode::FAILURE;
        }
    }
    let mut total = 0;
    for f in &files {
        let n = match std::fs::read_to_string(f) {
            Ok(src) => count_loc(&src),
            Err(e) => {
                eprintln!("fsa: reading {}: {e}", f.display());
                return ExitCode::FAILURE;
            }
        };
        println!("{n:>7}  {}", f.display());
        total += n;
    }
    println!("{total:>7}  total ({} files)", files.len());
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fsa: {msg}");
    eprintln!("usage: fsa --loc PATH...");
    ExitCode::from(2)
}
