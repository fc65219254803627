//! Command line of the course benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run <workload|all> [--seed <n>] [--seconds <s>] [--traced] [--out <set.json>]
//! benchmark compare <a.json> <b.json>
//! benchmark calibrate
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command is called with; `run
//! <workload>` is the same thing spelled for people. Either prints every
//! metric by name with its unit, checks the course's outputs, writes
//! `benchmark/out/<workload>.json` (traced: `<workload>.traced.json` and the
//! Chrome trace `<workload>.trace.json`) and ends with one JSON line.

use fedscope_benchmark::calibrate;
use fedscope_benchmark::compare;
use fedscope_benchmark::out_dir;
use fedscope_benchmark::result::{ResultSet, RunResult};
use fedscope_benchmark::run::{run_workload, RunOptions};
use fedscope_benchmark::workloads::{self, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run <workload|all> [--seed <n>] [--seconds <s>] [--traced] [--smoke] [--out <set.json>]
  benchmark compare <a.json> <b.json>
  benchmark calibrate";

struct Args {
    words: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        words: Vec::new(),
        workload: None,
        seed: 7,
        seconds: 10.0,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value(a)?),
            "--seed" => args.seed = value(a)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(PathBuf::from(value(a)?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => args.words.push(word.to_string()),
        }
    }
    Ok(args)
}

fn result_path(workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { "traced.json" } else { "json" };
    out_dir().join(format!("{workload}.{suffix}"))
}

fn print_result(r: &RunResult) {
    println!(
        "workload {}  seed {}  repeats {}  traced {}  fingerprint {}  host speed {:.3}",
        r.workload, r.seed, r.repeats, r.traced, r.fingerprint, r.host_speed
    );
    println!(
        "host: {} cores, {}, {}, commit {}, benchmark source {}, load {:.2}{}",
        r.host.cores,
        r.host.cpu_model,
        r.host.rustc,
        r.host.git_commit,
        r.host.source_hash,
        r.host.load1,
        if r.host.load_high {
            "  (WARNING: load exceeds the core count; timings may be inflated)"
        } else {
            ""
        }
    );
    println!(
        "{:<40} {:>16} {:<6} {:>14} {:>14} {:>12} {:>6}",
        "metric", "value", "unit", "min", "max", "iqr", "n"
    );
    let line = |prefix: &str, m: &fedscope_benchmark::result::MetricRow| {
        println!(
            "{:<40} {:>16.6} {:<6} {:>14.6} {:>14.6} {:>12.6} {:>6}",
            format!("{prefix}{}", m.name),
            m.value,
            m.unit,
            m.min,
            m.max,
            m.iqr,
            m.n
        );
    };
    r.end_to_end.iter().for_each(|m| line("", m));
    r.raw_end_to_end.iter().for_each(|m| line("raw.", m));
    r.per_layer.iter().for_each(|m| line("", m));
    if let (Some(acc), Some(loss)) = (r.best_accuracy, r.last_loss) {
        println!("best_accuracy {acc:.4}  last_loss {loss:.4}");
    }
    println!(
        "ops_attempted {}  ops_failed {}  correct {}",
        r.ops_attempted, r.ops_failed, r.correct
    );
    for f in &r.failures {
        println!("FAILED CHECK: {f}");
    }
}

/// Runs one workload in this process; the contract line goes last.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(w) = workloads::find(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name}; known: {}", names.join(", "));
        return ExitCode::from(2);
    };
    let result = run_workload(
        w,
        RunOptions {
            seed: args.seed,
            seconds: args.seconds,
            traced: args.traced,
            smoke: args.smoke,
        },
    );
    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(result_path(name, args.traced), result.to_json()))
    {
        eprintln!("cannot write the result file: {e}");
        return ExitCode::from(2);
    }
    print_result(&result);
    println!("{}", result.contract_line());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, one child process each (so that peak RSS is per
/// workload), untraced and then traced if asked; writes the set file.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    let mut set = ResultSet { runs: Vec::new() };
    let passes: &[bool] = if args.traced {
        &[false, true]
    } else {
        &[false]
    };
    for &traced in passes {
        for w in &WORKLOADS {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.smoke {
                child.arg("--smoke");
            }
            // `status` waits for the child to end
            ok &= child.status().is_ok_and(|s| s.success());
            match std::fs::read_to_string(result_path(w.name, traced))
                .map_err(|e| e.to_string())
                .and_then(|t| RunResult::from_json(&t))
            {
                Ok(r) => set.runs.push(r),
                Err(e) => {
                    eprintln!("{}: no result: {e}", w.name);
                    ok = false;
                }
            }
        }
    }
    // the parallel engine must report exactly what the serial one does
    let fp = |name: &str| {
        set.runs
            .iter()
            .find(|r| r.workload == name && !r.traced)
            .map(|r| r.fingerprint.clone())
    };
    if let (Some(serial), Some(par)) = (fp("femnist_sync"), fp("femnist_par")) {
        if serial != par {
            eprintln!("femnist_par fingerprint {par} differs from femnist_sync {serial}");
            ok = false;
        }
        let wall = |name: &str| {
            set.runs
                .iter()
                .find(|r| r.workload == name && !r.traced)
                .and_then(|r| r.metric("course_wall_s"))
                .map_or(f64::NAN, |m| m.value)
        };
        println!(
            "full-course exec.par_speedup = femnist_sync / femnist_par course_wall_s = {:.3} / {:.3} = {:.3}",
            wall("femnist_sync"),
            wall("femnist_par"),
            wall("femnist_sync") / wall("femnist_par")
        );
    }
    let set_path = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("all.json"));
    if let Err(e) = std::fs::write(&set_path, set.to_json()) {
        eprintln!("cannot write {}: {e}", set_path.display());
        ok = false;
    }
    println!("wrote {}", set_path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| ResultSet::from_json(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            if compare::report(&a, &b) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Times the calibration kernel 2 000 times: how this host compares with
/// the reference constant the timings are scaled to.
fn calibrate_host() -> ExitCode {
    let mut s: Vec<f64> = (0..2000).map(|_| calibrate::kernel_seconds()).collect();
    s.sort_by(f64::total_cmp);
    println!(
        "calibration kernel, 2000 calls: fastest tenth {:.6} s, median {:.6} s, slowest tenth {:.6} s; reference {:.6} s",
        s[199],
        s[999],
        s[1799],
        calibrate::REFERENCE_S
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let words: Vec<&str> = args.words.iter().map(String::as_str).collect();
    match (words.as_slice(), args.workload.as_deref()) {
        (["compare", a, b], None) => compare_files(Path::new(a), Path::new(b)),
        (["calibrate"], None) => calibrate_host(),
        (["run", "all"], None) => run_all(&args),
        (["run", name], None) => run_one(name, &args),
        ([], Some(name)) => run_one(name, &args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
