//! `fsa` — the fs-analyze CLI.
//!
//! ```text
//! fsa --check [--root DIR]             # lint + ratchet against ANALYZE_baseline.json (CI gate)
//! fsa --list [--notes] [--root DIR]    # print every finding, baselined or not
//! fsa --update-baseline [--root DIR]   # freeze current gating findings into the baseline
//! fsa --loc PATH...                    # non-test, non-comment, non-blank lines per file + total
//! ```
//!
//! Exit codes: 0 clean / ratchet holds, 1 new findings or invalid baseline,
//! 2 usage error.

use fs_analyze::{analyze_workspace, count_loc, ratchet, walk, AnalyzeReport, Baseline, Severity};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const BASELINE_FILE: &str = "ANALYZE_baseline.json";

enum Mode {
    Check,
    List,
    UpdateBaseline,
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
            "--update-baseline" => mode = Some(Mode::UpdateBaseline),
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
        return usage("one of --check, --list, --update-baseline, --loc is required");
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
        Mode::UpdateBaseline => {
            let b = Baseline::from_findings(report.findings.iter());
            let path = root.join(BASELINE_FILE);
            let mut json = b.to_json();
            json.push('\n');
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("fsa: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!(
                "froze {} finding(s) across {} (file, code) pair(s) into {}",
                b.total,
                b.entries.len(),
                path.display()
            );
            ExitCode::SUCCESS
        }
        Mode::Check => check(&root, &report, notes),
    }
}

fn check(root: &Path, report: &AnalyzeReport, notes: bool) -> ExitCode {
    let path = root.join(BASELINE_FILE);
    let baseline = match std::fs::read_to_string(&path) {
        Ok(s) => match Baseline::from_json(&s) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("fsa: {} is invalid: {e}", path.display());
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!(
                "fsa: cannot read {} ({e}); run `fsa --update-baseline` once and commit it",
                path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let outcome = ratchet(&report.findings, &baseline);
    if notes {
        for f in &report.findings {
            if f.severity == Severity::Note {
                println!("{}", f.render());
            }
        }
    }
    for (file, code, was, now) in &outcome.improved {
        println!(
            "improved: {file} {code}: {was} -> {now} (re-freeze with --update-baseline to lock in)"
        );
    }
    print_tally(report);
    if outcome.passes() {
        println!(
            "ratchet holds: {} gating finding(s), all within {}",
            report.gating().len(),
            BASELINE_FILE
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("new findings exceed the baseline:");
        for f in &outcome.new {
            eprintln!("  {}", f.render());
        }
        eprintln!(
            "fix them, add an `// fsa::allow(CODE, reason)` pragma, or (for accepted debt) \
             re-freeze with `fsa --update-baseline`"
        );
        ExitCode::FAILURE
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

fn print_tally(report: &AnalyzeReport) {
    let (e, w, n) = report.tally();
    println!("{e} error(s), {w} warning(s), {n} note(s)");
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("fsa: {msg}");
    eprintln!("usage: fsa (--check | --list | --update-baseline) [--root DIR] [--notes]");
    eprintln!("       fsa --loc PATH...");
    ExitCode::from(2)
}
