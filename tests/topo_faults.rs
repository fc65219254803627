//! Topology fault-tolerance e2e: edge aggregators die mid-round and their
//! subtrees recover — transiently via the generation-stamped reconnect path
//! (TCP), or permanently via subtree re-homing (bus and TCP) — with the
//! configured `DropoutPolicy` semantics preserved throughout.

use fedscope::core::config::{DropoutPolicy, FlConfig};
use fedscope::core::course::CourseBuilder;
use fedscope::core::distributed::{
    run_distributed_tcp_with, run_distributed_with, BusRunOptions, TcpRunOptions,
};
use fedscope::core::StandaloneRunner;
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::net::tcp::ReconnectPolicy;
use fedscope::net::{FaultPlan, FaultSpec, Topology, TopologyPlan};
use fedscope::tensor::model::logistic_regression;
use std::time::Duration;

const BUDGET: Duration = Duration::from_secs(60);
const HIER2: Topology = Topology::Hierarchical {
    tiers: 2,
    fanout: 3,
};

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
    .no_central_eval()
    .build()
}

/// The id of one edge aggregator in the plan the runner will build.
fn an_edge(topology: Topology, n: usize, seed: u64) -> u32 {
    let plan = TopologyPlan::build(topology, n, seed).expect("plan");
    *plan.edges.first().expect("hierarchy has edges")
}

#[test]
fn tcp_edge_crash_rejoins_subtree_through_reconnect_path() {
    let seed = 51;
    let mut runner = course(6, seed, HIER2);
    // Fail = any dropout aborts; the test passes only if the edge outage
    // never costs a client its roster seat
    runner.server.state.cfg.dropout = DropoutPolicy::Fail;
    let edge = an_edge(HIER2, 6, seed);
    let clients: Vec<_> = runner.clients.into_values().collect();
    // the edge relays its hello + a couple of subtree frames, then crashes
    // mid-round; the reconnect policy restarts it
    let opts = TcpRunOptions {
        faults: Some(FaultPlan::new(seed).with(edge, FaultSpec::dies_after(3))),
        reconnect: Some(ReconnectPolicy::default()),
        ..Default::default()
    };
    let server = run_distributed_tcp_with(runner.server, clients, BUDGET, opts)
        .expect("edge crash with reconnect must not sink the course");
    assert_eq!(server.state.round, 3, "course must finish all rounds");
    assert_eq!(
        server.state.client_reports.len(),
        6,
        "every client reports: the subtree rejoined rather than dropping"
    );
    assert!(
        server.state.reconnects > 0,
        "the subtree must have re-entered via the rejoin path"
    );
    assert!(
        server.state.dropouts.is_empty(),
        "DropoutPolicy::Fail held: no client was dropped"
    );
}

#[test]
fn tcp_edge_permanent_death_rehomes_subtree() {
    let seed = 52;
    let mut runner = course(6, seed, HIER2);
    runner.server.state.cfg.dropout = DropoutPolicy::Fail;
    let edge = an_edge(HIER2, 6, seed);
    let clients: Vec<_> = runner.clients.into_values().collect();
    // no reconnect policy: the dead edge stays dead, and the server must
    // re-home its orphaned clients directly onto itself
    let opts = TcpRunOptions {
        faults: Some(FaultPlan::new(seed).with(edge, FaultSpec::dies_after(3))),
        ..Default::default()
    };
    let server = run_distributed_tcp_with(runner.server, clients, BUDGET, opts)
        .expect("a permanently dead edge must be routed around");
    assert_eq!(server.state.round, 3);
    assert_eq!(server.state.client_reports.len(), 6);
    assert!(
        server.state.dropouts.is_empty(),
        "re-homing must not cost any client its roster seat"
    );
}

#[test]
fn bus_edge_death_rehomes_subtree() {
    let seed = 53;
    let mut runner = course(6, seed, HIER2);
    runner.server.state.cfg.dropout = DropoutPolicy::Fail;
    let edge = an_edge(HIER2, 6, seed);
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = BusRunOptions {
        faults: Some(FaultPlan::new(seed).with(edge, FaultSpec::dies_after(3))),
        ..Default::default()
    };
    let server = run_distributed_with(runner.server, clients, BUDGET, opts)
        .expect("bus edge death must re-home, not abort");
    assert_eq!(server.state.round, 3);
    assert_eq!(server.state.client_reports.len(), 6);
    assert!(server.state.dropouts.is_empty());
}

#[test]
fn client_dropout_semantics_survive_the_relay_path() {
    // a *client* (not edge) dying under Survivors keeps fs-core's exact
    // accounting even when its frames ride through a relay
    let seed = 54;
    let runner = course(6, seed, HIER2);
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = BusRunOptions {
        faults: Some(FaultPlan::new(seed).with(2, FaultSpec::dies_after(2))),
        ..Default::default()
    };
    let server = run_distributed_with(runner.server, clients, BUDGET, opts)
        .expect("survivor policy must carry the course");
    assert_eq!(server.state.round, 3);
    assert!(
        server.state.dropouts.contains(&2),
        "the dropout is recorded"
    );
    assert!(!server.state.client_reports.contains_key(&2));
    assert_eq!(server.state.client_reports.len(), 5);
}

#[test]
fn slow_relays_lose_no_report() {
    // both edges hold every frame they relay for 400 ms: a report still in a
    // relay is on its way, not lost, however long the relay takes
    let seed = 55;
    let topology = Topology::Hierarchical {
        tiers: 2,
        fanout: 2,
    };
    let mut runner = course(4, seed, topology);
    runner.server.state.cfg.total_rounds = 1;
    runner.server.state.cfg.dropout = DropoutPolicy::Fail;
    let slow = FaultSpec {
        delay_ms: 400,
        ..Default::default()
    };
    let plan = TopologyPlan::build(topology, 4, seed).expect("plan");
    assert_eq!(plan.edges.len(), 2);
    let faults = plan
        .edges
        .iter()
        .fold(FaultPlan::new(seed), |faults, &edge| {
            faults.with(edge, slow)
        });
    let clients: Vec<_> = runner.clients.into_values().collect();
    let opts = BusRunOptions {
        faults: Some(faults),
        ..Default::default()
    };
    let server = run_distributed_with(runner.server, clients, BUDGET, opts)
        .expect("a slow relay is not a dead client");
    assert_eq!(server.state.round, 1);
    assert_eq!(server.state.client_reports.len(), 4);
    assert!(server.state.dropouts.is_empty());
}
