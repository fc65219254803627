//! **Topology harness** — the topology × codec × backend grid behind
//! `results/topo.json`.
//!
//! Every cell runs the same seeded femnist course under one communication
//! topology (`star`, a 2-tier hierarchy, or serverless gossip), one upload
//! codec (`identity`, `topk`), and one execution backend (`standalone`
//! virtual time, in-process `bus`, real-socket `tcp`). Per cell the file
//! records best accuracy, star-accounting byte totals, per-tier byte vectors
//! where the backend meters tiers, and whether the cell's report compared
//! bit-identical to the star cell at the same seed; rounds/sec (wall clock)
//! is printed only.
//!
//! Three claims close the run (the star is the grid's first topology, which
//! `--topology` replaces):
//!
//! * **lossless equivalence** — a standalone hierarchy under the identity
//!   codec reproduces the star course bit for bit;
//! * **root-link payoff** — a standalone hierarchy under a lossy codec moves
//!   fewer bytes over the server's link than the star does, because edge
//!   aggregators fold their subtree before re-encoding;
//! * **complete** — every cell runs all its rounds.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_topo
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
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
use serde::Serialize;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One topology × codec × backend cell of `results/topo.json`.
#[derive(Serialize)]
struct Row {
    workload: String,
    /// Topology in CLI syntax (`"star"`, `"hier:2x4"`, `"gossip:2"`).
    topology: String,
    /// Upload compressor name (`"identity"`, `"topk"`).
    compressor: String,
    /// Execution backend (`"standalone"`, `"bus"`, `"tcp"`).
    backend: String,
    /// Aggregation (or gossip) rounds completed.
    rounds: u64,
    /// Best global accuracy (0 when the cell runs without a central
    /// evaluator).
    best_accuracy: f64,
    /// Payload bytes charged client → server (star accounting).
    uploaded_bytes: u64,
    /// Payload bytes charged server → clients (star accounting).
    downloaded_bytes: u64,
    /// Encoded bytes sent upstream per tier; index 0 is the root link
    /// (server ↔ top tier). Empty when the backend does not meter tiers.
    bytes_up_per_tier: Vec<u64>,
    /// Encoded bytes sent downstream per tier.
    bytes_down_per_tier: Vec<u64>,
    /// Whether this cell's `CourseReport` compared bit-identical to the
    /// star cell at the same seed.
    star_equivalent: bool,
}

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
    let seed = args.seed_or(7);
    let rounds = args.rounds_or(8);
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

    let mut rows: Vec<Row> = Vec::new();
    let mut table: Vec<Vec<String>> = Vec::new();
    // the two topology contracts, each over every standalone hierarchy
    let (mut lossless_equal, mut root_reduced) = (true, true);

    for wl_name in &workload_names {
        let wl = workload_by_name(wl_name, seed);
        for backend in backends {
            for &codec in &codecs {
                // the star cell anchors the equivalence comparison for every
                // other topology at the same (backend, codec)
                let mut star_report: Option<CourseReport> = None;
                for &topology in &topologies {
                    let runner = build_course(&wl, rounds, topology, codec, backend);
                    let start = Instant::now();
                    let (report, up, down) = run_cell(runner, topology, backend, budget);
                    let rounds_per_sec =
                        report.rounds as f64 / start.elapsed().as_secs_f64().max(1e-9);
                    let star_equivalent = match &star_report {
                        None => {
                            star_report = Some(report.clone());
                            true
                        }
                        Some(star) => *star == report,
                    };
                    let star_up = star_report.as_ref().map_or(0, |s| s.uploaded_bytes);
                    if backend == Backend::Standalone
                        && matches!(topology, Topology::Hierarchical { .. })
                    {
                        if matches!(codec, CodecSpec::Identity) {
                            lossless_equal &= star_equivalent;
                        } else {
                            root_reduced &= up.first().is_some_and(|&root| root < star_up);
                        }
                    }
                    let best_accuracy = report
                        .history
                        .iter()
                        .map(|e| e.metrics.accuracy as f64)
                        .fold(0.0, f64::max);
                    let row = Row {
                        workload: wl_name.to_string(),
                        topology: topology.to_string(),
                        compressor: codec_label(codec).to_string(),
                        backend: backend.label().to_string(),
                        rounds: report.rounds,
                        best_accuracy,
                        uploaded_bytes: report.uploaded_bytes,
                        downloaded_bytes: report.downloaded_bytes,
                        bytes_up_per_tier: up,
                        bytes_down_per_tier: down,
                        star_equivalent,
                    };
                    table.push(vec![
                        wl_name.to_string(),
                        row.topology.clone(),
                        row.compressor.clone(),
                        row.backend.clone(),
                        row.rounds.to_string(),
                        format!("{rounds_per_sec:.2}"),
                        format!("{:.3}", row.best_accuracy),
                        row.uploaded_bytes.to_string(),
                        row.bytes_up_per_tier
                            .first()
                            .map(|b| b.to_string())
                            .unwrap_or_else(|| "-".to_string()),
                        if row.star_equivalent { "yes" } else { "no" }.to_string(),
                    ]);
                    rows.push(row);
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
                "rounds/s",
                "best acc",
                "uploaded",
                "root-link up",
                "star-eq",
            ],
            &table,
        )
    );

    let path = write_json("topo", &rows).expect("write results");
    println!("wrote {path}: {} rows", rows.len());

    check_claims(&[
        Claim::new(
            "topo: every standalone hier + identity cell reproduces the star",
            lossless_equal,
        ),
        Claim::new(
            "topo: every standalone hier + lossy cell moves fewer root-link bytes than the star",
            root_reduced,
        ),
        Claim::new(
            "topo: every cell completes its rounds",
            rows.iter().all(|r| r.rounds == rounds),
        ),
    ]);
}
