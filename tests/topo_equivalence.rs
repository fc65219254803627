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
use fedscope::core::StandaloneRunner;
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::monitor::{MonitorHandle, RecordingMonitor};
use fedscope::net::Topology;
use fedscope::sim::FleetConfig;
use fedscope::tensor::model::logistic_regression;
use fedscope::topo::{
    bytes_down_counter, bytes_up_counter, run_course_auto, run_gossip_distributed, GossipOutcome,
    GossipRunner, TIER_LEVELS,
};
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
    let (hier, topo) = run_course_auto(course(8, 41, HIER2)).expect("hier course");
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
    let (hier, topo) = run_course_auto(course(8, 42, deep)).expect("3-tier course");
    assert_eq!(star, hier, "depth must not change lossless semantics");
    let topo = topo.expect("hierarchies report per-tier traffic");
    assert_eq!(topo.levels, 3);
}

#[test]
fn standalone_star_route_is_the_unchanged_runner() {
    let direct = course(6, 43, Topology::Star).run();
    let (auto, topo) = run_course_auto(course(6, 43, Topology::Star)).expect("star course");
    assert_eq!(direct, auto);
    assert!(topo.is_none(), "the star has no per-tier report");
}

const GOSSIP2: Topology = Topology::Gossip {
    degree: 2,
    rounds: 0,
};

#[test]
fn standalone_gossip_is_deterministic() {
    let (r1, t1) = run_course_auto(course(6, 44, GOSSIP2)).expect("gossip run 1");
    let (r2, t2) = run_course_auto(course(6, 44, GOSSIP2)).expect("gossip run 2");
    assert_eq!(r1, r2, "same seed, same gossip course");
    assert_eq!(
        t1.expect("gossip topo report"),
        t2.expect("gossip topo report")
    );
    assert_eq!(r1.rounds, 3);
    assert!(r1.uploaded_bytes > 0, "peers exchanged models");
}

/// `CourseReport` + monitor stream + tier-1 counter + `TopoReport` of
/// [`standalone_gossip_is_deterministic`]'s course, folded like
/// [`hier_fingerprint`].
fn gossip_fingerprint(upload: Option<CodecSpec>) -> u64 {
    let mut runner = course(6, 44, GOSSIP2);
    // the gossip runner builds its per-peer codecs from the course config
    runner.server.state.cfg.compression.upload = upload;
    let monitor = Arc::new(Mutex::new(RecordingMonitor::new()));
    let GossipOutcome { report, topo } = GossipRunner::from_standalone(runner)
        .expect("gossip plan")
        .with_monitor(MonitorHandle::from_shared(monitor.clone()))
        .run()
        .expect("gossip course");
    let mon = extract(monitor);
    assert_eq!(report.history.len(), 3, "scored every round");
    let mut h = Fnv::new();
    fold_course(&mut h, &report, &mon);
    let tier = bytes_up_counter(1);
    h.field(tier, &mon.counter(tier).to_string());
    h.field("topo", &format!("{topo:?}"));
    h.finish()
}

/// Captured before the two gossip runners were folded onto one peer
/// (`SCHED_EQ_CAPTURE=1 cargo test --test topo_equivalence -- --nocapture`
/// re-captures). The TopK cell runs the per-sender codec and the lossy
/// reconstruction every neighbor merges.
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
        check(&label, gossip_fingerprint(upload), GOLDEN_GOSSIP);
    }
}

#[test]
fn unrouted_non_star_course_is_refused_not_run_as_a_star() {
    // regression: `CourseBuilder::new(.., hier/gossip cfg).build().run()` used
    // to ignore the topology and quietly run a star
    let mut runner = course(8, 41, GOSSIP2);
    let refused = runner
        .try_run()
        .expect_err("an un-routed course must not run");
    assert!(
        refused
            .diagnostics
            .iter()
            .any(|d| d.code.as_str() == "FSV057"),
        "expected FSV057, got {refused}"
    );
    assert_eq!(runner.server.state.round, 0, "nothing ran");
    let panicked = std::panic::catch_unwind(|| course(8, 41, GOSSIP2).run());
    assert!(panicked.is_err(), "run() panics with the diagnostic");

    // a hierarchy is routed by the runner itself: a plain run is the course
    // `run_course_auto` runs, uploads climbing the tree
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
    let (auto_report, auto_topo) = run_course_auto(auto).expect("hier course");
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

    let runner = course_no_eval(6, 45, GOSSIP2);
    let clients: Vec<_> = runner.clients.into_values().collect();
    match run_distributed_with(runner.server, clients, BUDGET, BusRunOptions::default()) {
        Err(DistributedError::Verification(refused)) => assert!(
            refused
                .diagnostics
                .iter()
                .any(|d| d.code.as_str() == "FSV057"),
            "expected FSV057, got {refused}"
        ),
        Err(other) => panic!("expected FSV057, got {other}"),
        Ok(_) => panic!("a gossip course must not get a server"),
    }
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
    let (report, topo) = run_course_auto(runner).expect("hier course");
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
    let report =
        run_gossip_distributed(runner, BUDGET, BusRunOptions::default()).expect("gossip bus run");
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
    let (virtual_time, _) = run_course_auto(course(6, 48, GOSSIP2)).expect("virtual-time gossip");
    let last = virtual_time.history.last().expect("scored every round");
    assert_eq!(last.round, 3);
    assert_eq!(report.history[0].metrics, last.metrics);
}

#[test]
fn tcp_gossip_collects_every_peer() {
    let runner = course_no_eval(5, 49, GOSSIP2);
    let report =
        run_gossip_distributed(runner, BUDGET, TcpRunOptions::default()).expect("gossip tcp run");
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
    use fedscope::topo::TopoRunError;
    let refused = |outcome: Result<_, TopoRunError>| match outcome {
        Err(TopoRunError::Distributed(DistributedError::Unsupported(what))) => {
            assert!(what.contains("gossip"), "{what}")
        }
        Err(other) => panic!("expected Unsupported, got {other}"),
        Ok(_) => panic!("a lossy gossip course ran"),
    };
    let bus = BusRunOptions {
        faults: Some(FaultPlan::new(1)),
        ..Default::default()
    };
    refused(run_gossip_distributed(
        course_no_eval(4, 50, GOSSIP2),
        BUDGET,
        bus,
    ));
    let tcp = TcpRunOptions {
        reconnect: Some(ReconnectPolicy::default()),
        ..Default::default()
    };
    refused(run_gossip_distributed(
        course_no_eval(4, 50, GOSSIP2),
        BUDGET,
        tcp,
    ));
}
