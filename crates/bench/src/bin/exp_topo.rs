//! **Topology harness** — the topology × codec × backend grid behind
//! `BENCH_topo.json`.
//!
//! Every cell runs the same seeded femnist course under one communication
//! topology (`star`, a 2-tier hierarchy, or serverless gossip), one upload
//! codec (`identity`, `topk`), and one execution backend (`standalone`
//! virtual time, in-process `bus`, real-socket `tcp`). Per cell the snapshot
//! records rounds/sec, best accuracy, star-accounting byte totals, per-tier
//! byte vectors where the backend meters tiers, and whether the cell's
//! report compared bit-identical to the star cell at the same seed.
//!
//! Two contracts are checked by `fs_bench::snapshot::TopoRow` — before the
//! snapshot is written (a grid that breaks one never replaces the committed
//! file) and again by the `--validate` CI gate:
//!
//! * **lossless equivalence** — a standalone hierarchy under the identity
//!   codec must reproduce the star course bit for bit;
//! * **root-link payoff** — a standalone hierarchy under a lossy codec must
//!   move fewer bytes over the server's link than the star does, because
//!   edge aggregators fold their subtree before re-encoding.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_topo                  # full grid
//! cargo run -p fs-bench --release --bin exp_topo -- --quick      # CI grid
//! cargo run -p fs-bench --release --bin exp_topo -- --validate   # gate only
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::render_table;
use fs_bench::snapshot::{validate_file, Snapshot, TopoRow};
use fs_bench::strategies::Strategy;
use fs_bench::workloads::{workload_by_name, Workload};
use fs_core::config::{CodecSpec, FlConfig};
use fs_core::course::CourseBuilder;
use fs_core::distributed::{
    distributed_report, run_distributed_tcp_with, run_distributed_with, BusRunOptions,
    TcpRunOptions,
};
use fs_core::runner::CourseReport;
use fs_core::StandaloneRunner;
use fs_monitor::{MonitorHandle, RecordingMonitor};
use fs_net::Topology;
use fs_topo::{bytes_down_counter, bytes_up_counter, run_course_auto, run_gossip_distributed};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const BENCH_PATH: &str = "BENCH_topo.json";

#[derive(Clone, Copy, PartialEq)]
enum Backend {
    Standalone,
    Bus,
    Tcp,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Standalone => "standalone",
            Backend::Bus => "bus",
            Backend::Tcp => "tcp",
        }
    }
}

fn codec_label(spec: CodecSpec) -> &'static str {
    match spec {
        CodecSpec::Identity => "identity",
        CodecSpec::UniformQuant { .. } => "quant",
        CodecSpec::TopK { .. } => "topk",
    }
}

/// One course for a grid cell. The standalone backend keeps the central
/// evaluator (it fills `best_accuracy`); the distributed backends drop it so
/// report equality does not depend on arrival order.
fn build_course(
    wl: &Workload,
    rounds: u64,
    topology: Topology,
    codec: CodecSpec,
    backend: Backend,
) -> StandaloneRunner {
    let mut cfg: FlConfig = Strategy::SyncVanilla.configure(wl);
    cfg.target_accuracy = None;
    cfg.total_rounds = rounds;
    cfg.topology = topology;
    cfg.compression.upload = Some(codec);
    cfg.compression.download = None;
    let factory = (wl.model_factory_builder)(&wl.dataset);
    let builder =
        CourseBuilder::new(wl.dataset.clone(), factory, cfg).fleet_config(wl.fleet_cfg.clone());
    match backend {
        Backend::Standalone => builder.build(),
        Backend::Bus | Backend::Tcp => builder.no_central_eval().build(),
    }
}

/// Runs one grid cell and returns its report plus any per-tier byte vectors.
fn run_cell(
    runner: StandaloneRunner,
    topology: Topology,
    backend: Backend,
    budget: Duration,
) -> (CourseReport, Vec<u64>, Vec<u64>) {
    match backend {
        Backend::Standalone => {
            let (report, topo) = run_course_auto(runner).expect("standalone cell");
            let (up, down) = topo.map(|t| (t.bytes_up, t.bytes_down)).unwrap_or_default();
            (report, up, down)
        }
        Backend::Bus | Backend::Tcp => {
            let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
            let handle = MonitorHandle::from_shared(monitor.clone());
            // the options type picks the transport; `cfg.topology` routes
            let bus = BusRunOptions {
                faults: None,
                monitor: handle.clone(),
            };
            let tcp = TcpRunOptions {
                monitor: handle,
                ..Default::default()
            };
            let report = if matches!(topology, Topology::Gossip { .. }) {
                match backend {
                    Backend::Bus => run_gossip_distributed(runner, budget, bus),
                    _ => run_gossip_distributed(runner, budget, tcp),
                }
                .expect("gossip cell")
            } else {
                let clients: Vec<_> = runner.clients.into_values().collect();
                let server = match backend {
                    Backend::Bus => run_distributed_with(runner.server, clients, budget, bus),
                    _ => run_distributed_tcp_with(runner.server, clients, budget, tcp),
                };
                distributed_report(&server.expect("star/hier cell"))
            };
            // the distributed hierarchy meters tiers through the monitor
            let levels = match topology {
                Topology::Hierarchical { tiers, .. } => tiers,
                _ => 0,
            };
            let mon = monitor.lock().unwrap_or_else(PoisonError::into_inner);
            let up: Vec<u64> = (1..=levels)
                .map(|l| mon.counter(bytes_up_counter(l)))
                .collect();
            let down: Vec<u64> = (1..=levels)
                .map(|l| mon.counter(bytes_down_counter(l)))
                .collect();
            (report, up, down)
        }
    }
}

fn main() {
    let args = ExpArgs::parse();

    // --validate: CI gate mode — parse the existing snapshot and exit
    if args.has_flag("validate") {
        validate_file::<TopoRow>(BENCH_PATH);
        return;
    }

    let seed = args.seed_or(7);
    let quick = args.quick;
    let rounds = args.rounds_or(if quick { 2 } else { 8 });
    let workload_names = args.workloads_or(&["femnist"]);
    let budget = Duration::from_secs(300);

    let topologies = [
        args.topology_or(Topology::Star),
        Topology::Hierarchical {
            tiers: 2,
            fanout: 4,
        },
        Topology::Gossip {
            degree: 2,
            rounds: 0,
        },
    ];
    let codecs = [CodecSpec::Identity, CodecSpec::TopK { ratio: 0.25 }];
    let backends = [Backend::Standalone, Backend::Bus, Backend::Tcp];

    let mut snapshot = Snapshot::<TopoRow>::new("exp_topo");
    let mut table: Vec<Vec<String>> = Vec::new();

    for wl_name in &workload_names {
        let wl = workload_by_name(wl_name, seed);
        for backend in backends {
            for &codec in &codecs {
                // the star cell anchors the equivalence comparison for every
                // other topology at the same (backend, codec)
                let mut star_report: Option<CourseReport> = None;
                for &topology in &topologies {
                    let cell = format!(
                        "{wl_name}/{topology}/{}/{}",
                        codec_label(codec),
                        backend.label()
                    );
                    let runner = build_course(&wl, rounds, topology, codec, backend);
                    let start = Instant::now();
                    let (report, up, down) = run_cell(runner, topology, backend, budget);
                    let wall = start.elapsed().as_secs_f64().max(1e-9);
                    let star_equivalent = match &star_report {
                        None => {
                            star_report = Some(report.clone());
                            true
                        }
                        Some(star) => *star == report,
                    };
                    let best_accuracy = report
                        .history
                        .iter()
                        .map(|e| e.metrics.accuracy as f64)
                        .fold(0.0, f64::max);
                    let row = TopoRow {
                        workload: wl_name.to_string(),
                        topology: topology.to_string(),
                        compressor: codec_label(codec).to_string(),
                        backend: backend.label().to_string(),
                        rounds: report.rounds,
                        rounds_per_sec: report.rounds as f64 / wall,
                        best_accuracy,
                        uploaded_bytes: report.uploaded_bytes,
                        downloaded_bytes: report.downloaded_bytes,
                        bytes_up_per_tier: up,
                        bytes_down_per_tier: down,
                        star_equivalent,
                    };
                    eprintln!(
                        "  {cell:<40} rounds {} ({:.2}/s) acc {:.3} up {} root-up {:?} star-eq {}",
                        row.rounds,
                        row.rounds_per_sec,
                        row.best_accuracy,
                        row.uploaded_bytes,
                        row.bytes_up_per_tier.first(),
                        row.star_equivalent,
                    );
                    table.push(vec![
                        wl_name.to_string(),
                        row.topology.clone(),
                        row.compressor.clone(),
                        row.backend.clone(),
                        row.rounds.to_string(),
                        format!("{:.3}", row.best_accuracy),
                        row.uploaded_bytes.to_string(),
                        row.bytes_up_per_tier
                            .first()
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "-".to_string()),
                        if row.star_equivalent { "yes" } else { "no" }.to_string(),
                    ]);
                    snapshot.rows.push(row);
                }
            }
        }
    }

    println!("\nexp_topo grid (seed {seed}, {rounds} rounds)\n");
    println!(
        "{}",
        render_table(
            &[
                "workload",
                "topology",
                "codec",
                "backend",
                "rounds",
                "best acc",
                "uploaded",
                "root-link up",
                "star-eq",
            ],
            &table,
        )
    );

    snapshot.store(BENCH_PATH).expect("write BENCH_topo.json");
    println!("wrote {BENCH_PATH}: {} rows", snapshot.rows.len());
}
