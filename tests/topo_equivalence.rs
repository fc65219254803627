//! Topology equivalence suite: a 2-tier hierarchy with the identity codec
//! and lossless edge aggregation must be *bit-identical* to the star course
//! at the same seed — in the standalone virtual-time runner and on both
//! distributed backends (bus and TCP).

use fedscope::core::config::{CodecSpec, CompressionConfig, FlConfig};
use fedscope::core::course::{CourseBuilder, ModelFactory};
use fedscope::core::distributed::{
    distributed_report, run_distributed_tcp_with, run_distributed_with, BusRunOptions,
    DistributedError, TcpRunOptions,
};
use fedscope::core::runner::{CourseReport, TopoReport};
use fedscope::core::StandaloneRunner;
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::monitor::{MonitorHandle, RecordingMonitor};
use fedscope::net::topology::{bytes_down_counter, bytes_up_counter, TIER_LEVELS};
use fedscope::net::Topology;
use fedscope::sim::FleetConfig;
use fedscope::tensor::model::logistic_regression;
use fedscope::verify::VerifyReport;
use std::sync::{Arc, Mutex};
use std::time::Duration;

mod common;
use common::{check, extract, fold_course, Fnv};

const BUDGET: Duration = Duration::from_secs(60);

/// A small fully-sampled course with `n` clients and the given topology.
fn course(n: usize, seed: u64, topology: Topology) -> StandaloneRunner {
    let data = twitter_like(&TwitterConfig {
        num_clients: n,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: n,
        seed,
        topology,
        ..Default::default()
    };
    CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build()
}

/// Runs a course of any topology through `try_run`, returning its report
/// and its per-tier traffic.
fn routed(
    mut runner: StandaloneRunner,
) -> Result<(CourseReport, Option<TopoReport>), Box<VerifyReport>> {
    let report = runner.try_run()?;
    Ok((report, runner.topo_report()))
}

/// Same course, assembled without a central evaluator — the distributed
/// equivalence compares full reports, and history depends on arrival order
/// only through evaluation, which this removes.
fn course_no_eval(n: usize, seed: u64, topology: Topology) -> StandaloneRunner {
    let data = twitter_like(&TwitterConfig {
        num_clients: n,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: n,
        seed,
        topology,
        ..Default::default()
    };
    CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .no_central_eval()
    .build()
}

const HIER2: Topology = Topology::Hierarchical {
    tiers: 2,
    fanout: 4,
};

const HIER3: Topology = Topology::Hierarchical {
    tiers: 3,
    fanout: 2,
};

// ---------------------------------------------------------------------------
// standalone (virtual time)
// ---------------------------------------------------------------------------

#[test]
fn standalone_hier_identity_is_bit_identical_to_star() {
    let star = course(8, 41, Topology::Star).run();
    let (hier, topo) = routed(course(8, 41, HIER2)).expect("hier course");
    assert_eq!(
        star, hier,
        "2-tier lossless hierarchy must reproduce the star"
    );
    let topo = topo.expect("hierarchies report per-tier traffic");
    assert_eq!(topo.levels, 2);
    assert_eq!(topo.edge_count, 2, "8 clients at fanout 4 make 2 edges");
    // lossless relay: the root link re-sends exactly what the leaves sent
    assert_eq!(topo.bytes_up[0], topo.bytes_up[1]);
    assert!(topo.bytes_up[0] > 0);
}

#[test]
fn standalone_three_tier_hier_is_bit_identical_to_star() {
    let star = course(8, 42, Topology::Star).run();
    let deep = Topology::Hierarchical {
        tiers: 3,
        fanout: 2,
    };
    let (hier, topo) = routed(course(8, 42, deep)).expect("3-tier course");
    assert_eq!(star, hier, "depth must not change lossless semantics");
    let topo = topo.expect("hierarchies report per-tier traffic");
    assert_eq!(topo.levels, 3);
}

#[test]
fn standalone_star_route_is_the_unchanged_runner() {
    let direct = course(6, 43, Topology::Star).run();
    let (auto, topo) = routed(course(6, 43, Topology::Star)).expect("star course");
    assert_eq!(direct, auto);
    assert!(topo.is_none(), "the star has no per-tier report");
}

const GOSSIP2: Topology = Topology::Gossip {
    degree: 2,
    rounds: 0,
};

#[test]
fn standalone_gossip_is_deterministic() {
    let (r1, t1) = routed(course(6, 44, GOSSIP2)).expect("gossip run 1");
    let (r2, t2) = routed(course(6, 44, GOSSIP2)).expect("gossip run 2");
    assert_eq!(r1, r2, "same seed, same gossip course");
    assert_eq!(
        t1.expect("gossip topo report"),
        t2.expect("gossip topo report")
    );
    assert_eq!(r1.rounds, 3);
    assert!(r1.uploaded_bytes > 0, "peers exchanged models");
}

#[test]
fn gossip_on_a_crash_prone_fleet_runs_every_round() {
    // gossip sends no broadcast a device crash could lose, so a fleet that
    // refuses a server course without a round timer (FSV065) runs it whole
    let run = |topology, parallelism| {
        let data = twitter_like(&TwitterConfig {
            num_clients: 6,
            per_client: 12,
            ..Default::default()
        });
        let dim = data.input_dim();
        let cfg = FlConfig {
            total_rounds: 3,
            concurrency: 6,
            seed: 44,
            topology,
            parallelism,
            ..Default::default()
        };
        let fleet = FleetConfig {
            num_clients: 6,
            crash_prob: 0.5,
            seed: 9,
            ..Default::default()
        };
        let model: ModelFactory = Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)));
        CourseBuilder::new(data, model, cfg)
            .fleet_config(fleet)
            .build()
            .try_run()
    };
    let refused = run(Topology::Star, 1).expect_err("a star course is refused");
    assert!(
        refused
            .diagnostics
            .iter()
            .any(|d| d.code.as_str() == "FSV065"),
        "expected FSV065, got {refused}"
    );
    let serial = run(GOSSIP2, 1).expect("gossip ignores device crashes");
    assert_eq!(serial.finish_reason, "gossip rounds complete");
    assert_eq!(serial.rounds, 3);
    assert_eq!(serial.crashed_deliveries, 0);
    let parallel = run(GOSSIP2, 2).expect("gossip at parallelism 2");
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "the same bits at parallelism 2"
    );
}

/// `CourseReport` + monitor stream + tier-1 counter + `TopoReport` of
/// [`standalone_gossip_is_deterministic`]'s course, folded like
/// [`hier_fingerprint`], over either store at any `parallelism`.
fn gossip_fingerprint(upload: Option<CodecSpec>, store: Store, parallelism: usize) -> u64 {
    let mut runner = match store {
        Store::Resident => course(6, 44, GOSSIP2),
        Store::OnDemand => on_demand_course(6, 44, GOSSIP2),
    };
    // the gossip runner builds its per-peer codecs from the course config
    runner.server.state.cfg.compression.upload = upload;
    runner.server.state.cfg.parallelism = parallelism;
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let runner = runner.with_monitor(MonitorHandle::from_shared(monitor.clone()));
    let (report, topo) = routed(runner).expect("gossip course");
    let topo = topo.expect("gossip reports its peer links");
    let mon = extract(monitor);
    assert_eq!(report.history.len(), 3, "scored every round");
    let mut h = Fnv::new();
    fold_course(&mut h, &report, &mon);
    let tier = bytes_up_counter(1);
    h.field(tier, &mon.counter(tier).to_string());
    h.field("topo", &format!("{topo:?}"));
    h.finish()
}

/// [`course`] with its clients built on demand.
fn on_demand_course(n: usize, seed: u64, topology: Topology) -> StandaloneRunner {
    let data = twitter_like(&TwitterConfig {
        num_clients: n,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: n,
        seed,
        topology,
        ..Default::default()
    };
    CourseBuilder::from_dataset(
        Arc::new(data),
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build()
}

/// Captured before the two gossip runners were folded onto one peer
/// (`SCHED_EQ_CAPTURE=1 cargo test --test topo_equivalence -- --nocapture`
/// re-captures). The TopK cell runs the per-sender codec and the lossy
/// reconstruction every neighbor merges. Each cell holds for both stores at
/// `parallelism` 1 and 2.
const GOLDEN_GOSSIP: &[(&str, u64)] = &[
    ("gossip:2/identity", 0xa8113c6b883abd12),
    ("gossip:2/topk", 0xa01153a196a294aa),
];

#[test]
fn gossip_courses_match_pre_fold_pin() {
    let codecs = [
        ("identity", None),
        ("topk", Some(CodecSpec::TopK { ratio: 0.25 })),
    ];
    for (cname, upload) in codecs {
        let label = format!("gossip:2/{cname}");
        let pinned = gossip_fingerprint(upload, Store::Resident, 1);
        check(&label, pinned, GOLDEN_GOSSIP);
        for store in [Store::Resident, Store::OnDemand] {
            for parallelism in [1, 2] {
                assert_eq!(
                    gossip_fingerprint(upload, store, parallelism),
                    pinned,
                    "{label}: {store:?} store at parallelism {parallelism}"
                );
            }
        }
    }
}

/// `CourseReport` + monitor stream + tier-1 counter of a threaded gossip
/// course (6 peers, seed 48, central evaluator kept) on the bus or over TCP.
fn gossip_threaded_fingerprint(tcp: bool, upload: Option<CodecSpec>) -> u64 {
    let mut runner = course(6, 48, GOSSIP2);
    runner.server.state.cfg.compression.upload = upload;
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let handle = MonitorHandle::from_shared(monitor.clone());
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = if tcp {
        let opts = TcpRunOptions {
            monitor: handle,
            ..Default::default()
        };
        run_distributed_tcp_with(runner.server, clients, BUDGET, opts)
    } else {
        let opts = BusRunOptions {
            monitor: handle,
            ..Default::default()
        };
        run_distributed_with(runner.server, clients, BUDGET, opts)
    };
    let report = distributed_report(&server.expect("threaded gossip course"));
    // a TCP hub reader may still hold its handle for a moment
    let mon = std::mem::take(&mut *monitor.lock().expect("monitor"));
    let mut h = Fnv::new();
    fold_course(&mut h, &report, &mon);
    let tier = bytes_up_counter(1);
    h.field(tier, &mon.counter(tier).to_string());
    h.finish()
}

/// Threaded gossip on the bus and over TCP, captured before the threaded
/// driver ran gossip itself (same re-capture switch as [`GOLDEN_GOSSIP`]).
/// The peers merge in plan order and the harness scores the consensus once,
/// so neither arrival order nor the transport shows.
const GOLDEN_GOSSIP_THREADED: &[(&str, u64)] = &[
    ("bus/identity", 0xcc3274f7d35073b6),
    ("bus/topk", 0x504202683fffd575),
    ("tcp/identity", 0xcc3274f7d35073b6),
    ("tcp/topk", 0x504202683fffd575),
];

#[test]
fn threaded_gossip_matches_pre_fold_pin() {
    let codecs = [
        ("identity", None),
        ("topk", Some(CodecSpec::TopK { ratio: 0.25 })),
    ];
    for (bname, tcp) in [("bus", false), ("tcp", true)] {
        for (cname, upload) in codecs {
            let label = format!("{bname}/{cname}");
            check(
                &label,
                gossip_threaded_fingerprint(tcp, upload),
                GOLDEN_GOSSIP_THREADED,
            );
        }
    }
}

#[test]
fn unrouted_non_star_course_is_refused_not_run_as_a_star() {
    // regression: `CourseBuilder::new(.., hier/gossip cfg).build().run()` used
    // to ignore the topology and quietly run a star; a gossip course runs as
    // gossip: no server download, one tier of peer links
    let mut runner = course(8, 41, GOSSIP2);
    let report = runner.try_run().expect("a gossip course runs");
    assert_eq!(report.finish_reason, "gossip rounds complete");
    assert_eq!(report.downloaded_bytes, 0, "no server broadcast");
    let topo = runner.topo_report().expect("gossip reports its peer links");
    assert_eq!(topo.levels, 1);
    assert_eq!(topo.bytes_up, vec![report.uploaded_bytes]);

    // a hierarchy is routed by the runner itself: a plain run is the course
    // `try_run` runs, uploads climbing the tree
    let recorded = |runner: StandaloneRunner| {
        let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
        (
            runner.with_monitor(MonitorHandle::from_shared(monitor.clone())),
            monitor,
        )
    };
    let (mut bare, bare_monitor) = recorded(course(8, 41, HIER2));
    let report = bare.run();
    let topo = bare.topo_report();
    drop(bare);
    let (auto, auto_monitor) = recorded(course(8, 41, HIER2));
    let (auto_report, auto_topo) = routed(auto).expect("hier course");
    assert_eq!(report, auto_report, "the routed course's report");
    assert_eq!(topo, auto_topo, "the routed course's TopoReport");
    let (bare_mon, auto_mon) = (extract(bare_monitor), extract(auto_monitor));
    for level in 1..=TIER_LEVELS {
        for name in [bytes_up_counter(level), bytes_down_counter(level)] {
            assert_eq!(bare_mon.counter(name), auto_mon.counter(name), "{name}");
        }
    }
    assert!(
        bare_mon.counter(bytes_up_counter(2)) > 0,
        "uploads must climb the tree: topo.bytes_up.l2"
    );
}

#[test]
fn threaded_driver_routes_by_topology_instead_of_running_a_silent_star() {
    // regression: `run_distributed*_with` never looked at `cfg.topology`, so
    // a hier course handed to it ran as a flat star without a word and a
    // gossip course got a server it should not have
    let star = {
        let runner = course_no_eval(8, 45, Topology::Star);
        let clients: Vec<_> = runner.clients.into_values().collect();
        let server = run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default())
            .expect("star bus run");
        distributed_report(&server)
    };
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let runner = course_no_eval(8, 45, HIER2);
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = BusRunOptions {
        monitor: MonitorHandle::from_shared(monitor.clone()),
        ..Default::default()
    };
    let server = run_distributed_with(runner.server, clients, BUDGET, opts).expect("hier bus run");
    let relayed = monitor
        .lock()
        .expect("monitor")
        .counter(bytes_up_counter(2));
    assert!(relayed > 0, "uploads must climb the tree: topo.bytes_up.l2");
    assert_eq!(
        distributed_report(&server),
        star,
        "routed, yet the star's course"
    );

    // a gossip course runs as gossip, not as a star
    let runner = course_no_eval(6, 45, GOSSIP2);
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default())
        .expect("gossip bus run");
    let gossip = distributed_report(&server);
    assert_eq!(gossip.finish_reason, "gossip rounds complete");
    assert_eq!(gossip.downloaded_bytes, 0, "no server broadcast");
    assert_eq!(gossip.total_updates, 6, "every peer's final model");
}

// ---------------------------------------------------------------------------
// absolute pins (captured before the one-event-loop refactor)
// ---------------------------------------------------------------------------

/// Which slots a pinned course's store holds: `CourseBuilder::new`'s
/// resident clients or `CourseBuilder::from_dataset`'s on-demand ones.
#[derive(Clone, Copy, Debug)]
enum Store {
    Resident,
    OnDemand,
}

/// `CourseReport` + monitor stream + per-tier counters + `TopoReport` of one
/// hierarchical course over a heterogeneous fleet, folded into one FNV-1a
/// fingerprint.
fn hier_fingerprint(
    topology: Topology,
    upload: Option<CodecSpec>,
    store: Store,
    parallelism: usize,
) -> u64 {
    let merging = upload.is_some();
    let n = 8;
    let data = twitter_like(&TwitterConfig {
        num_clients: n,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: 6,
        seed: 51,
        topology,
        compression: CompressionConfig {
            upload,
            ..Default::default()
        },
        parallelism,
        ..Default::default()
    };
    let fleet = FleetConfig {
        num_clients: n,
        speed_sigma: 1.2,
        seed: cfg.seed ^ 0xf1ee,
        ..Default::default()
    };
    let model: ModelFactory = Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng)));
    let runner = match store {
        Store::Resident => CourseBuilder::new(data, model, cfg)
            .fleet_config(fleet)
            .build(),
        Store::OnDemand => CourseBuilder::from_dataset(Arc::new(data), model, cfg)
            .fleet_config(fleet)
            .build(),
    };
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let runner = runner.with_monitor(MonitorHandle::from_shared(monitor.clone()));
    let (report, topo) = routed(runner).expect("hier course");
    let mon = extract(monitor);
    let topo = topo.expect("hierarchies report per-tier traffic");
    assert_eq!(
        topo.root_bytes_up() < topo.leaf_bytes_up(),
        merging,
        "partial merge (and only it) must shrink the root link: {topo:?}"
    );
    let mut h = Fnv::new();
    fold_course(&mut h, &report, &mon);
    for level in 1..=TIER_LEVELS {
        for name in [bytes_up_counter(level), bytes_down_counter(level)] {
            h.field(name, &mon.counter(name).to_string());
        }
    }
    h.field("topo", &format!("{topo:?}"));
    h.finish()
}

/// Captured at the commit before the three virtual-time runners were merged
/// (`SCHED_EQ_CAPTURE=1 cargo test --test topo_equivalence -- --nocapture`
/// re-captures). Lossless cells are otherwise pinned only relative to the
/// star; the TopK cells (partial merge, per-hop re-encoding) by nothing else.
/// Each cell holds for both stores at `parallelism` 1 and 2.
const GOLDEN_HIER: &[(&str, u64)] = &[
    ("hier:2x4/identity", 0x2032d784dab73c70),
    ("hier:2x4/topk", 0x1632d9601358f361),
    ("hier:3x2/identity", 0x93955c976177db17),
    ("hier:3x2/topk", 0xa7893746d46fd439),
];

#[test]
fn hier_courses_match_pre_refactor_pin() {
    let shapes = [("hier:2x4", HIER2), ("hier:3x2", HIER3)];
    let codecs = [
        ("identity", None),
        ("topk", Some(CodecSpec::TopK { ratio: 0.25 })),
    ];
    for (sname, topology) in shapes {
        for (cname, upload) in codecs {
            let label = format!("{sname}/{cname}");
            let pinned = hier_fingerprint(topology, upload, Store::Resident, 1);
            check(&label, pinned, GOLDEN_HIER);
            for store in [Store::Resident, Store::OnDemand] {
                for parallelism in [1, 2] {
                    assert_eq!(
                        hier_fingerprint(topology, upload, store, parallelism),
                        pinned,
                        "{label}: {store:?} store at parallelism {parallelism}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// distributed (bus and TCP)
// ---------------------------------------------------------------------------

#[test]
fn bus_hier_identity_matches_star_report() {
    let star = {
        let runner = course_no_eval(8, 45, Topology::Star);
        let clients: Vec<_> = runner.clients.into_values().collect();
        let server = run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default())
            .expect("star bus run");
        distributed_report(&server)
    };
    let hier = {
        let runner = course_no_eval(8, 45, HIER2);
        let clients: Vec<_> = runner.clients.into_values().collect();
        let server = run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default())
            .expect("hier bus run");
        distributed_report(&server)
    };
    assert_eq!(star, hier, "relayed uploads must not change the course");
    assert_eq!(hier.rounds, 3);
    assert_eq!(hier.dropouts, Vec::<u32>::new());
}

#[test]
fn tcp_hier_identity_matches_star_report() {
    let star = {
        let runner = course_no_eval(6, 46, Topology::Star);
        let clients: Vec<_> = runner.clients.into_values().collect();
        let server =
            run_distributed_tcp_with(runner.server, clients, BUDGET, TcpRunOptions::default())
                .expect("star tcp run");
        distributed_report(&server)
    };
    let hier = {
        let runner = course_no_eval(
            6,
            46,
            Topology::Hierarchical {
                tiers: 2,
                fanout: 3,
            },
        );
        let clients: Vec<_> = runner.clients.into_values().collect();
        let server =
            run_distributed_tcp_with(runner.server, clients, BUDGET, TcpRunOptions::default())
                .expect("hier tcp run");
        distributed_report(&server)
    };
    assert_eq!(star, hier, "relayed uploads must not change the course");
    assert_eq!(hier.rounds, 3);
}

#[test]
fn bus_gossip_collects_every_peer_and_scores_once() {
    let runner = course(6, 48, GOSSIP2); // central evaluator kept: one final score
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default())
        .expect("gossip bus run");
    let report = distributed_report(&server);
    assert_eq!(report.rounds, 3);
    assert_eq!(report.total_updates, 6, "every peer lands its final model");
    assert_eq!(report.finish_reason, "gossip rounds complete");
    assert_eq!(
        report.history.len(),
        1,
        "one central score of the consensus"
    );
    // the threaded peers do the virtual-time runner's arithmetic: the final
    // consensus scores bit for bit what that runner scored after its last round
    let (virtual_time, _) = routed(course(6, 48, GOSSIP2)).expect("virtual-time gossip");
    let last = virtual_time.history.last().expect("scored every round");
    assert_eq!(last.round, 3);
    assert_eq!(report.history[0].metrics, last.metrics);
}

#[test]
fn tcp_gossip_collects_every_peer() {
    let runner = course_no_eval(5, 49, GOSSIP2);
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = run_distributed_tcp_with(runner.server, clients, BUDGET, TcpRunOptions::default())
        .expect("gossip tcp run");
    let report = distributed_report(&server);
    assert_eq!(report.rounds, 3);
    assert_eq!(report.total_updates, 5);
    assert!(report.history.is_empty(), "no evaluator, no history");
}

#[test]
fn gossip_over_a_lossy_transport_is_refused_up_front() {
    // no dropout policy, no retransmission: a share lost to an outage would
    // stall its receiver until the wall budget ran out
    use fedscope::net::tcp::ReconnectPolicy;
    use fedscope::net::FaultPlan;
    let refused = |outcome: Result<_, DistributedError>| match outcome {
        Err(DistributedError::Unsupported(what)) => {
            assert!(what.contains("gossip"), "{what}")
        }
        Err(other) => panic!("expected Unsupported, got {other}"),
        Ok(_) => panic!("a lossy gossip course ran"),
    };
    let bus = BusRunOptions {
        faults: Some(FaultPlan::new(1)),
        ..Default::default()
    };
    let runner = course_no_eval(4, 50, GOSSIP2);
    let clients: Vec<_> = runner.clients.into_values().collect();
    refused(run_distributed_with(runner.server, clients, BUDGET, bus));
    let tcp = TcpRunOptions {
        reconnect: Some(ReconnectPolicy::default()),
        ..Default::default()
    };
    let runner = course_no_eval(4, 50, GOSSIP2);
    let clients: Vec<_> = runner.clients.into_values().collect();
    refused(run_distributed_tcp_with(
        runner.server,
        clients,
        BUDGET,
        tcp,
    ));
}
