//! **fs-verify CLI** — runs the static course verifier (§3.6 / Appendix E)
//! over the full strategy × workload grid used by the paper's experiments,
//! then demonstrates the diagnostic engine on a suite of deliberately broken
//! courses and configs.
//!
//! Two claims close the run: every in-repo experiment course verifies clean,
//! and every planted defect is rejected (each rendered diagnostic table is
//! printed).
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_verify
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, Claim};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::{cifar, femnist, twitter, Workload};
use fs_core::config::{CodecSpec, FlConfig};
use fs_core::{verify_assembled, ClientStore, Condition, Event, StandaloneRunner};
use fs_net::MessageKind;
use fs_verify::VerifyReport;

fn verify_runner(runner: &StandaloneRunner) -> VerifyReport {
    verify_assembled(
        &runner.server,
        &runner.clients.groups(),
        Some(&runner.server.state.cfg),
    )
}

/// Verifies every fig-17 strategy on every workload. Returns the number of
/// courses that failed to verify clean.
fn verify_grid(workloads: &[Workload]) -> usize {
    println!("== experiment grid: every course must verify clean ==");
    let mut dirty = 0;
    for wl in workloads {
        for strat in Strategy::fig17() {
            let cfg = strat.configure(wl);
            let runner = wl.build(cfg);
            let report = verify_runner(&runner);
            let status = if report.is_clean() { "clean" } else { "DIRTY" };
            println!("  {:<10} {:<16} {status}", wl.name, strat.label());
            if !report.is_clean() {
                print!("{}", report.render_table());
                dirty += 1;
            }
        }
    }
    dirty
}

/// A deliberately broken course or config and the defect it plants.
struct BrokenCase {
    name: &'static str,
    defect: &'static str,
    build: fn(&Workload) -> StandaloneRunner,
}

fn base_cfg(wl: &Workload) -> FlConfig {
    wl.base_cfg.clone().sync_vanilla()
}

fn broken_cases() -> Vec<BrokenCase> {
    vec![
        BrokenCase {
            name: "no-aggregation",
            defect: "server's all_received handler removed: no path to Finish",
            build: |wl| {
                let mut r = wl.build(base_cfg(wl));
                r.server
                    .registry_mut()
                    .unregister(Event::Condition(Condition::AllReceived));
                r
            },
        },
        BrokenCase {
            name: "deaf-clients",
            defect: "clients cannot receive ModelParams: broadcast unhandled",
            build: |wl| {
                let mut r = wl.build(base_cfg(wl));
                for c in r.clients.values_mut() {
                    c.registry_mut()
                        .unregister(Event::Message(MessageKind::ModelParams));
                }
                r
            },
        },
        BrokenCase {
            name: "gossip-to-nobody",
            defect: "clients declare a custom message no server handler accepts",
            build: |wl| {
                let mut r = wl.build(base_cfg(wl));
                for c in r.clients.values_mut() {
                    c.registry_mut().register(
                        Event::Message(MessageKind::ModelParams),
                        "train_and_gossip",
                        vec![
                            Event::Message(MessageKind::Updates),
                            Event::Message(MessageKind::Custom(9)),
                        ],
                        Box::new(|_, _, _| {}),
                    );
                }
                r
            },
        },
        BrokenCase {
            name: "orphan-handler",
            defect: "handler registered for an event nothing emits",
            build: |wl| {
                let mut r = wl.build(base_cfg(wl));
                r.server.registry_mut().register(
                    Event::Message(MessageKind::Custom(33)),
                    "orphan",
                    vec![],
                    Box::new(|_, _, _| {}),
                );
                r
            },
        },
        BrokenCase {
            name: "bad-quant-bits",
            defect: "upload codec configured with 3-bit quantization",
            // Mutated after build: the codec constructor itself would panic
            // on 3 bits, which is exactly what the lint catches statically.
            build: |wl| {
                let mut r = wl.build(base_cfg(wl));
                r.server.state.cfg.compression.upload = Some(CodecSpec::UniformQuant { bits: 3 });
                r
            },
        },
        BrokenCase {
            name: "zero-eval-every",
            defect: "eval_every = 0 would divide the course by zero",
            build: |wl| {
                let mut cfg = base_cfg(wl);
                cfg.eval_every = 0;
                wl.build(cfg)
            },
        },
    ]
}

fn run_broken_suite(wl: &Workload) -> usize {
    println!("\n== broken-course suite: every case must be rejected ==");
    let mut missed = 0;
    for case in broken_cases() {
        let runner = (case.build)(wl);
        let report = verify_runner(&runner);
        println!("\n-- {} ({}) --", case.name, case.defect);
        print!("{}", report.render_table());
        if report.is_clean() {
            println!("  !! expected a rejection, report is clean");
            missed += 1;
        }
    }
    missed
}

fn main() {
    ExpArgs::parse_none();
    let workloads = [femnist(1), cifar(1), twitter(1)];
    let dirty = verify_grid(&workloads);
    let missed = run_broken_suite(&workloads[2]);
    check_claims(&[
        Claim::new("verify: every experiment course verifies clean", dirty == 0),
        Claim::new("verify: every planted defect is detected", missed == 0),
    ]);
}
