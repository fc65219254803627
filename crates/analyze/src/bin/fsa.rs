//! `fsa` — the fs-analyze CLI.
//!
//! ```text
//! fsa --check [--notes] [--root DIR]   # fail on any Error / Warning finding (CI gate)
//! fsa --list [--notes] [--root DIR]    # print every finding
//! fsa --loc PATH...                    # non-test, non-comment, non-blank lines per file + total
//! ```
//!
//! Exit codes: 0 no gating finding, 1 gating findings or a failed scan,
//! 2 usage error.

use fs_analyze::{analyze_workspace, count_loc, walk, AnalyzeReport, Severity};
use std::path::PathBuf;
use std::process::ExitCode;

enum Mode {
    Check,
    List,
}

fn main() -> ExitCode {
    let mut mode = None;
    let mut root = PathBuf::from(".");
    let mut notes = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => mode = Some(Mode::Check),
            "--list" => mode = Some(Mode::List),
            "--loc" => return loc(args.map(PathBuf::from).collect()),
            "--notes" => notes = true,
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => return usage("--root needs a directory"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let Some(mode) = mode else {
        return usage("one of --check, --list, --loc is required");
    };
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "fsa: {} does not look like a workspace root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fsa: workspace scan failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    match mode {
        Mode::List => {
            for f in &report.findings {
                if f.severity > Severity::Note || notes {
                    println!("{}", f.render());
                }
            }
            print_tally(&report);
            ExitCode::SUCCESS
        }
        Mode::Check => check(&report, notes),
    }
}

/// `--check`: the gate. Any Error or Warning finding fails it.
fn check(report: &AnalyzeReport, notes: bool) -> ExitCode {
    if notes {
        for f in &report.findings {
            if f.severity == Severity::Note {
                println!("{}", f.render());
            }
        }
    }
    print_tally(report);
    let gating = report.gating();
    if gating.is_empty() {
        return ExitCode::SUCCESS;
    }
    eprintln!("{} gating finding(s):", gating.len());
    for f in gating {
        eprintln!("  {}", f.render());
    }
    eprintln!("fix them, or add an `// fsa::allow(CODE, reason)` pragma");
    ExitCode::FAILURE
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

fn print_tally(report: &AnalyzeReport) {
    let (e, w, n) = report.tally();
    println!("{e} error(s), {w} warning(s), {n} note(s)");
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fsa: {msg}");
    eprintln!("usage: fsa (--check | --list) [--root DIR] [--notes]");
    eprintln!("       fsa --loc PATH...");
    ExitCode::from(2)
}
