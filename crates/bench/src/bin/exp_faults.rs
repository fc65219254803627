//! **Fault-tolerance harness** — runs the backend × strategy × fault-profile
//! grid over the distributed runtime and checks every cell's survivor
//! arithmetic:
//!
//! * `none` — no faults; every client must report;
//! * `dropout_k` — k clients lose their link mid-course (`dies_after`); the
//!   course must finish with exactly the survivors reporting and the k
//!   casualties named in the dropout record;
//! * `flaky_rejoin` (TCP only) — one client bounces under a reconnect policy;
//!   the course must finish and the server must count at least one rejoin.
//!   The cell runs [`FLAKY_ROUNDS_FACTOR`]× the grid's rounds with a 1 ms
//!   backoff, so the rejoin never depends on a round outlasting a backoff.
//!
//! Each cell also cross-checks the monitor's `clients.dropouts` /
//! `clients.reconnects` counters against the server's own record. Every
//! check is a claim over the whole grid, printed at the end.
//!
//! Emits `results/faults_grid.csv`
//! (`backend,strategy,profile,rounds,survivors,dropouts,reconnects,wall_ms`).
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_faults
//! ```
//!
//! `--topology hier:TxF` runs the same grid through the driver's relay tree:
//! client faults then exercise the multi-hop dropout path. Gossip is
//! rejected — the survivor arithmetic needs a server.

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, Claim};
use fs_core::config::{BroadcastManner, FlConfig, SamplerKind};
use fs_core::course::CourseBuilder;
use fs_core::distributed::{
    run_distributed_tcp_with, run_distributed_with, BusRunOptions, TcpRunOptions,
};
use fs_core::Server;
use fs_data::synth::{twitter_like, TwitterConfig};
use fs_monitor::{counters, MonitorHandle, RecordingMonitor};
use fs_net::tcp::ReconnectPolicy;
use fs_net::{FaultPlan, FaultSpec, ParticipantId, Topology};
use fs_tensor::model::logistic_regression;
use std::fs;
use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

#[derive(Clone, Copy)]
enum Backend {
    Bus,
    Tcp,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Bus => "bus",
            Backend::Tcp => "tcp",
        }
    }
}

#[derive(Clone, Copy)]
enum Profile {
    None,
    DropoutK(usize),
    FlakyRejoin,
}

impl Profile {
    fn label(self) -> String {
        match self {
            Profile::None => "none".to_string(),
            Profile::DropoutK(k) => format!("dropout_{k}"),
            Profile::FlakyRejoin => "flaky_rejoin".to_string(),
        }
    }
}

#[derive(Clone, Copy)]
enum Strat {
    Sync,
    Goal,
}

impl Strat {
    fn label(self) -> &'static str {
        match self {
            Strat::Sync => "sync_vanilla",
            Strat::Goal => "goal_aggr_unif",
        }
    }

    fn configure(self, base: FlConfig, goal: usize) -> FlConfig {
        match self {
            Strat::Sync => base.sync_vanilla(),
            Strat::Goal => base.async_goal(
                goal,
                BroadcastManner::AfterAggregating,
                SamplerKind::Uniform,
            ),
        }
    }
}

/// Builds one course: `n` clients, all sampled every round.
fn build_course(
    n: usize,
    rounds: u64,
    seed: u64,
    strat: Strat,
    topology: Topology,
) -> (Server, Vec<fs_core::Client>) {
    let data = twitter_like(&TwitterConfig {
        num_clients: n,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = strat.configure(
        FlConfig {
            total_rounds: rounds,
            concurrency: n,
            seed,
            topology,
            ..Default::default()
        },
        (n / 2).max(1),
    );
    let runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();
    (runner.server, runner.clients.into_values().collect())
}

/// How many times the grid's round count a `flaky_rejoin` cell runs: on
/// loopback the plain course is over before one reconnect backoff elapses.
const FLAKY_ROUNDS_FACTOR: u64 = 100;

/// The first `k` client ids, which the profile condemns to a mid-course
/// disconnect.
fn condemned(k: usize) -> Vec<ParticipantId> {
    (1..=k as ParticipantId).collect()
}

fn main() {
    let args = ExpArgs::parse();
    let seed = args.seed_or(11);
    let n = 12;
    let rounds = args.rounds_or(5);
    let k = 3;
    let budget = Duration::from_secs(120);
    let topology = args.topology_or(Topology::Star);
    if matches!(topology, Topology::Gossip { .. }) {
        eprintln!("error: the fault grid needs a server to count survivors; gossip has none");
        std::process::exit(2);
    }

    fs::create_dir_all("results").expect("create results/");
    let mut csv = fs::File::create("results/faults_grid.csv").expect("create csv");
    writeln!(
        csv,
        "backend,strategy,profile,rounds,survivors,dropouts,reconnects,wall_ms"
    )
    .expect("write csv header");

    let mut table: Vec<Vec<String>> = Vec::new();
    // the survivor arithmetic, one flag per claim, each over the whole grid
    let mut complete = true;
    let mut fault_free = true;
    let mut dropouts_exact = true;
    let mut rejoined = true;
    let mut counters_agree = true;
    for backend in [Backend::Bus, Backend::Tcp] {
        for strat in [Strat::Sync, Strat::Goal] {
            let mut profiles = vec![Profile::None, Profile::DropoutK(k)];
            if matches!(backend, Backend::Tcp) {
                profiles.push(Profile::FlakyRejoin);
            }
            for profile in profiles {
                let cell = format!("{}/{}/{}", backend.label(), strat.label(), profile.label());
                let flaky = matches!(profile, Profile::FlakyRejoin);
                let rounds = if flaky {
                    rounds * FLAKY_ROUNDS_FACTOR
                } else {
                    rounds
                };
                let (server, clients) = build_course(n, rounds, seed, strat, topology);
                let faults = match profile {
                    Profile::None => None,
                    Profile::DropoutK(k) => {
                        let mut plan = FaultPlan::new(seed);
                        for id in condemned(k) {
                            plan = plan.with(id, FaultSpec::dies_after(2));
                        }
                        Some(plan)
                    }
                    Profile::FlakyRejoin => {
                        Some(FaultPlan::new(seed).with(1, FaultSpec::dies_after(2)))
                    }
                };
                let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
                let handle = MonitorHandle::from_shared(monitor.clone());
                let start = Instant::now();
                // the driver routes by `cfg.topology`, so one call per
                // backend covers star and hierarchy alike
                let result = match backend {
                    Backend::Bus => run_distributed_with(
                        server,
                        clients,
                        budget,
                        BusRunOptions {
                            faults,
                            monitor: handle,
                        },
                    ),
                    Backend::Tcp => run_distributed_tcp_with(
                        server,
                        clients,
                        budget,
                        TcpRunOptions {
                            addr: None,
                            faults,
                            reconnect: flaky.then(|| ReconnectPolicy {
                                base_delay: Duration::from_millis(1),
                                ..Default::default()
                            }),
                            monitor: handle,
                        },
                    ),
                };
                let wall_ms = start.elapsed().as_millis();
                let server = result.unwrap_or_else(|e| panic!("{cell}: course failed: {e}"));
                let state = &server.state;
                complete &= state.round == rounds;

                // survivor arithmetic per profile
                match profile {
                    Profile::None => {
                        fault_free &= state.client_reports.len() == n && state.dropouts.is_empty();
                    }
                    Profile::DropoutK(k) => {
                        // threads race, so the record's order is not fixed
                        let mut recorded = state.dropouts.clone();
                        recorded.sort_unstable();
                        recorded.dedup();
                        dropouts_exact &= recorded == condemned(k)
                            && state.client_reports.len() == n - k
                            && condemned(k)
                                .iter()
                                .all(|id| !state.client_reports.contains_key(id));
                    }
                    Profile::FlakyRejoin => {
                        rejoined &= state.reconnects >= 1 && state.client_reports.len() >= n - 1;
                    }
                }

                // the monitor counters must agree with the server's record
                let mon = monitor.lock().unwrap_or_else(PoisonError::into_inner);
                counters_agree &= mon.counter(counters::DROPOUTS) == state.dropouts.len() as u64
                    && mon.counter(counters::RECONNECTS) == state.reconnects;

                writeln!(
                    csv,
                    "{},{},{},{},{},{},{},{wall_ms}",
                    backend.label(),
                    strat.label(),
                    profile.label(),
                    state.round,
                    state.client_reports.len(),
                    state.dropouts.len(),
                    state.reconnects
                )
                .expect("write csv row");
                table.push(vec![
                    backend.label().to_string(),
                    strat.label().to_string(),
                    profile.label(),
                    state.round.to_string(),
                    state.client_reports.len().to_string(),
                    state.dropouts.len().to_string(),
                    state.reconnects.to_string(),
                    format!("{wall_ms}ms"),
                ]);
            }
        }
    }

    println!("\nexp_faults grid (seed {seed}, {n} clients, {rounds} rounds)\n");
    println!(
        "{}",
        render_table(
            &[
                "backend",
                "strategy",
                "profile",
                "rounds",
                "survivors",
                "dropouts",
                "reconnects",
                "wall",
            ],
            &table,
        )
    );
    println!("wrote results/faults_grid.csv");

    check_claims(&[
        Claim::new("faults: every cell completes its rounds", complete),
        Claim::new(
            "faults: with no faults every client reports and none drops out",
            fault_free,
        ),
        Claim::new(
            format!(
                "faults: dropout_{k} records exactly the {k} condemned and {} survivors report",
                n - k
            ),
            dropouts_exact,
        ),
        Claim::new(
            "faults: flaky_rejoin counts a rejoin and every healthy client reports",
            rejoined,
        ),
        Claim::new(
            "faults: the monitor's dropout and reconnect counters equal the server's record",
            counters_agree,
        ),
    ]);
}
