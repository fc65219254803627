//! **fs-perf harness** — the persisted performance baseline for the
//! parallel client-execution engine and the fs-tensor kernel overhaul.
//!
//! Two measurement families, both written to `BENCH_perf.json` (repo root):
//!
//! * **Engine grid** — every (workload, strategy) cell runs the same seeded
//!   course once serially (`parallelism = 1`) and then once per parallel
//!   thread count in the `--threads` sweep (default `1,2,4,8`), timing
//!   each. Every [`CourseReport`] is asserted equal to the serial one
//!   *in-binary* — the determinism contract is enforced at measurement
//!   time, not just by the test suite — and the comparison is persisted
//!   (`reports_identical`), where the `--validate` gate rejects `false`.
//! * **Matmul micro-bench** — best-of-N timings of the naive triple loop vs
//!   the blocked/SIMD kernel on the criterion shapes, re-measured outside
//!   criterion so CI can gate on them without the harness.
//!
//! Wall-clock speedup is bounded by the host's core count, which is
//! detected ([`fs_bench::sys::usable_cores`], cgroup-quota aware) and
//! stamped into the snapshot as `cores`: on a single-core machine the
//! parallel run degenerates to inline execution and `speedup` hovers around
//! 1.0 — that is the honest measurement, not a failure. The determinism
//! assertion holds at any core count. The snapshot also carries *ratcheted*
//! per-thread-count speedup floors: regeneration never lowers a floor, a
//! capable host tightens it to 90% of its worst observed cell, and
//! `--validate` enforces a floor only where `cores >= threads`.
//!
//! `--trace` additionally runs one quick femnist course with a recording
//! monitor attached and writes its span profile as Chrome trace-event JSON
//! to `results/trace_perf.json` (loadable in `chrome://tracing` /
//! Perfetto) — the artifact CI uploads so the hot path stays inspectable.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_perf                  # full grid
//! cargo run -p fs-bench --release --bin exp_perf -- --quick      # CI grid
//! cargo run -p fs-bench --release --bin exp_perf -- --threads 1,2,4,8
//! cargo run -p fs-bench --release --bin exp_perf -- --validate   # gate only
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::render_table;
use fs_bench::snapshot::{validate_file, MatmulRow, PerfRow, Snapshot};
use fs_bench::strategies::Strategy;
use fs_bench::sys::peak_rss_mb;
use fs_bench::workloads::{workload_by_name, Workload};
use fs_core::runner::CourseReport;
use fs_monitor::trace::{chrome_trace_json, validate_chrome_trace};
use fs_monitor::{MonitorHandle, RecordingMonitor};
use fs_net::Topology;
use fs_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

const BENCH_PATH: &str = "BENCH_perf.json";
const TRACE_PATH: &str = "results/trace_perf.json";

/// Runs one seeded course at the given parallelism and times it. A non-star
/// `--topology` routes through the fs-topo course; timings then measure the
/// topology engine rather than the flat runner.
fn time_course(
    wl: &Workload,
    strat: Strategy,
    rounds: u64,
    parallelism: usize,
    topology: Topology,
) -> (f64, CourseReport) {
    let mut cfg = strat.configure(wl);
    cfg.target_accuracy = None;
    cfg.total_rounds = rounds;
    cfg.parallelism = parallelism;
    cfg.topology = topology;
    let mut runner = wl.build(cfg);
    let start = Instant::now();
    let report = if topology.is_star() {
        runner.run()
    } else {
        let (report, _) = fs_topo::run_course_auto(runner)
            .unwrap_or_else(|e| panic!("{} under {topology}: {e}", wl.name));
        report
    };
    (start.elapsed().as_secs_f64() * 1e3, report)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(vec![rows, cols], data)
}

/// Best-of-`reps` nanoseconds for one closure (min damps scheduler noise,
/// which only ever makes runs slower).
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e9);
    }
    best
}

/// One row per shape of [`fs_bench::MATMUL_SHAPES`]; a transposed-lhs shape
/// times `matmul_tn_acc` against transpose-then-naive.
fn bench_matmul(quick: bool) -> Vec<MatmulRow> {
    let mut rng = StdRng::seed_from_u64(7);
    let reps = if quick { 5 } else { 20 };
    let mut rows = Vec::new();
    for &(transposed_lhs, m, k, n) in &fs_bench::MATMUL_SHAPES {
        let a = random_matrix(m, k, &mut rng);
        let at = a.t();
        let b = random_matrix(k, n, &mut rng);
        let mut out = Tensor::zeros(&[m, n]);
        // small products finish in well under a microsecond: time a batch
        let calls = (200_000 / (m * k * n)).max(1);
        let naive_ns = best_of(reps, || {
            for _ in 0..calls {
                let b = std::hint::black_box(&b);
                std::hint::black_box(if transposed_lhs {
                    std::hint::black_box(&at).t().matmul_naive(b)
                } else {
                    std::hint::black_box(&a).matmul_naive(b)
                });
            }
        }) / calls as f64;
        let blocked_ns = best_of(reps, || {
            for _ in 0..calls {
                if transposed_lhs {
                    std::hint::black_box(&at).matmul_tn_acc(std::hint::black_box(&b), &mut out);
                } else {
                    std::hint::black_box(&a).matmul_into(std::hint::black_box(&b), &mut out);
                }
            }
        }) / calls as f64;
        rows.push(MatmulRow {
            m,
            k,
            n,
            naive_ns,
            blocked_ns,
            speedup: naive_ns / blocked_ns,
        });
    }
    rows
}

fn main() {
    let args = ExpArgs::parse();

    // --validate: CI gate mode — parse the existing snapshot and exit
    if args.has_flag("validate") {
        let snap = validate_file::<PerfRow>(BENCH_PATH);
        println!(
            "  {} matmul rows ({} cores)",
            snap.extra.matmul.len(),
            snap.extra.cores
        );
        return;
    }

    let seed = args.seed_or(7);
    let quick = args.quick;
    // thread-count sweep: serial is always the baseline; every count in the
    // sweep gets its own measured run and snapshot row
    let sweep: Vec<usize> = {
        let mut s = args.threads_sweep_or(&[1, 2, 4, 8]);
        s.sort_unstable();
        s.dedup();
        s
    };
    let workload_names = if quick {
        args.workloads_or(&["femnist"])
    } else {
        args.workloads_or(&["femnist", "cifar", "twitter"])
    };
    let strategies = if quick {
        args.strategies_or(vec![Strategy::SyncVanilla, Strategy::GoalAggrUnif])
    } else {
        args.strategies_or(Strategy::table1())
    };
    let rounds = args.rounds_or(if quick { 6 } else { 30 });
    let topology = args.topology_or(Topology::Star);

    let mut snapshot = Snapshot::<PerfRow>::new("exp_perf");
    let mut table: Vec<Vec<String>> = Vec::new();

    for wl_name in &workload_names {
        let wl = workload_by_name(wl_name, seed);
        for &strat in &strategies {
            let rounds = if strat.is_async() {
                // async strategies count aggregations, not sync rounds; keep
                // the virtual course comparable in size
                rounds * 2
            } else {
                rounds
            };
            let (serial_ms, serial_report) = time_course(&wl, strat, rounds, 1, topology);
            for &threads in &sweep {
                let (parallel_ms, parallel_report) =
                    time_course(&wl, strat, rounds, threads, topology);
                let identical = serial_report == parallel_report;
                // fail at measurement time too — a perf number from a
                // diverged run is worthless
                assert!(
                    identical,
                    "{wl_name}/{} @ {threads} threads: serial and parallel \
                     reports diverged",
                    strat.label()
                );
                let speedup = serial_ms / parallel_ms;
                eprintln!(
                    "  {wl_name} / {}: serial {serial_ms:.1} ms, {threads}-thread \
                     {parallel_ms:.1} ms ({speedup:.2}x), reports identical",
                    strat.label()
                );
                table.push(vec![
                    wl_name.to_string(),
                    strat.label().to_string(),
                    threads.to_string(),
                    format!("{serial_ms:.1}"),
                    format!("{parallel_ms:.1}"),
                    format!("{speedup:.2}x"),
                    "yes".to_string(),
                ]);
                snapshot.rows.push(PerfRow {
                    workload: wl_name.to_string(),
                    strategy: strat.label().to_string(),
                    rounds: serial_report.rounds,
                    threads,
                    serial_ms,
                    parallel_ms,
                    speedup,
                    reports_identical: identical,
                });
            }
        }
    }

    snapshot.extra.matmul = bench_matmul(quick);
    for r in &snapshot.extra.matmul {
        eprintln!(
            "  matmul {}x{}x{}: naive {:.0} ns, blocked {:.0} ns ({:.2}x)",
            r.m, r.k, r.n, r.naive_ns, r.blocked_ns, r.speedup
        );
    }

    println!(
        "{}",
        render_table(
            &[
                "workload",
                "strategy",
                "threads",
                "serial ms",
                "parallel ms",
                "speedup",
                "identical"
            ],
            &table
        )
    );
    let matmul_table: Vec<Vec<String>> = snapshot
        .extra
        .matmul
        .iter()
        .map(|r| {
            vec![
                format!("{}x{}x{}", r.m, r.k, r.n),
                format!("{:.0}", r.naive_ns),
                format!("{:.0}", r.blocked_ns),
                format!("{:.2}x", r.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["shape", "naive ns", "blocked ns", "speedup"],
            &matmul_table
        )
    );

    if topology.is_star() {
        // ratchet the speedup floors against the previous baseline: floors
        // never decrease, and a host with enough cores tightens them to 90%
        // of its worst observed cell. A v1 (pre-floor) baseline fails to
        // parse and simply seeds fresh floors.
        let previous = Snapshot::<PerfRow>::load(BENCH_PATH).ok();
        snapshot.ratchet_floors(previous.as_ref());
        for f in &snapshot.extra.speedup_floors {
            let enforced = snapshot.extra.cores >= f.threads;
            eprintln!(
                "  floor @ {} threads: {:.2}x ({})",
                f.threads,
                f.min_speedup,
                if enforced {
                    "enforced"
                } else {
                    "not enforceable on this host"
                }
            );
        }
        snapshot.store(BENCH_PATH).expect("write BENCH_perf.json");
        println!(
            "wrote {BENCH_PATH}: {} engine rows, {} matmul rows ({} cores)",
            snapshot.rows.len(),
            snapshot.extra.matmul.len(),
            snapshot.extra.cores
        );
    } else {
        // the persisted baseline is the star's; an exploratory topology run
        // must not clobber it (BENCH_topo.json owns that grid)
        println!("topology {topology} is exploratory: not overwriting {BENCH_PATH}");
    }

    // --trace: span-profile one quick femnist course and export it as
    // Chrome trace-event JSON — the artifact CI uploads so the engine's
    // phase timeline stays inspectable in chrome://tracing / Perfetto
    if args.has_flag("trace") {
        let wl = workload_by_name("femnist", seed);
        let mut cfg = Strategy::SyncVanilla.configure(&wl);
        cfg.target_accuracy = None;
        cfg.total_rounds = rounds.min(6);
        cfg.parallelism = sweep.iter().copied().max().unwrap_or(1);
        let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
        let mut runner = wl
            .build(cfg)
            .with_monitor(MonitorHandle::from_shared(monitor.clone()));
        let _ = runner.run();
        let mon = monitor.lock().unwrap_or_else(PoisonError::into_inner);
        let json = chrome_trace_json(&mon);
        let events = validate_chrome_trace(&json).expect("trace export is loadable");
        fs::create_dir_all("results").expect("create results/");
        fs::write(TRACE_PATH, &json).expect("write trace_perf.json");
        println!("wrote {TRACE_PATH}: {events} trace events (femnist span profile)");
    }

    // report process peak RSS (Linux only) and honor an optional budget
    if let Some(mb) = peak_rss_mb() {
        println!("peak RSS: {mb:.0} MB");
        if let Some(budget) = args.mem_budget_mb {
            if mb > budget as f64 {
                eprintln!("memory budget exceeded: peak RSS {mb:.0} MB > budget {budget} MB");
                std::process::exit(1);
            }
        }
    }
}
