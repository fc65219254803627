//! Workspace integration tests: full FL courses across crates.

use fedscope::core::config::{BroadcastManner, FlConfig, SamplerKind};
use fedscope::core::course::CourseBuilder;
use fedscope::core::distributed::{run_distributed_with, BusRunOptions};
use fedscope::core::{course_ir, verify_assembled, Event};
use fedscope::data::synth::{femnist_like, twitter_like, ImageConfig, TwitterConfig};
use fedscope::tensor::model::{convnet2, logistic_regression};
use fedscope::tensor::optim::SgdConfig;
use fedscope::verify::{course::START, union_graph, Code};
use std::time::Duration;

fn twitter_course(cfg: FlConfig) -> fedscope::core::StandaloneRunner {
    let data = twitter_like(&TwitterConfig {
        num_clients: 16,
        per_client: 16,
        ..Default::default()
    });
    let dim = data.input_dim();
    CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build()
}

#[test]
fn default_course_is_complete_and_terminates() {
    let cfg = FlConfig {
        total_rounds: 4,
        concurrency: 8,
        seed: 1,
        ..Default::default()
    };
    let mut runner = twitter_course(cfg);
    let clients = runner.clients.groups();
    assert!(
        !verify_assembled(&runner.server, &clients, None).has_code(Code::Incomplete),
        "default course must have a start-to-finish path"
    );
    // the default client carries an EvalRequest handler that nothing triggers
    // in a plain FedAvg course — exactly that node is unreachable from the
    // join-in (the paper's Appendix-E warning for redundant nodes)
    let graph = union_graph(&course_ir(&runner.server, &clients));
    let reachable = graph.reachable_from(START);
    let redundant: Vec<Event> = graph.nodes().filter(|n| !reachable.contains(n)).collect();
    assert_eq!(
        redundant,
        vec![Event::Message(fedscope::net::MessageKind::EvalRequest)],
        "unexpected redundancy report"
    );
    let report = runner.run();
    assert_eq!(report.rounds, 4);
    assert_eq!(runner.server.state.client_reports.len(), 16);
    assert!(runner.server.warnings().is_empty());
}

#[test]
fn every_strategy_family_terminates_with_same_protocol() {
    let base = FlConfig {
        total_rounds: 4,
        concurrency: 8,
        seed: 2,
        sgd: SgdConfig::with_lr(0.3),
        ..Default::default()
    };
    let variants = vec![
        base.clone().sync_vanilla(),
        base.clone().sync_over_selection(0.25),
        base.clone()
            .async_goal(3, BroadcastManner::AfterAggregating, SamplerKind::Uniform),
        base.clone()
            .async_goal(3, BroadcastManner::AfterReceiving, SamplerKind::Uniform),
        base.clone()
            .async_goal(3, BroadcastManner::AfterAggregating, SamplerKind::Group),
        base.clone().async_goal(
            3,
            BroadcastManner::AfterAggregating,
            SamplerKind::Responsiveness,
        ),
        base.clone().async_time(
            5.0,
            1,
            BroadcastManner::AfterAggregating,
            SamplerKind::Uniform,
        ),
        base.async_time(
            5.0,
            1,
            BroadcastManner::AfterReceiving,
            SamplerKind::Uniform,
        ),
    ];
    for (i, cfg) in variants.into_iter().enumerate() {
        let mut runner = twitter_course(cfg);
        let report = runner.run();
        assert_eq!(report.rounds, 4, "variant {i} stalled");
        // every aggregated update respected the staleness tolerance
        let tol = runner.server.state.cfg.staleness_tolerance;
        assert!(
            runner
                .server
                .state
                .ledger
                .staleness_log
                .iter()
                .all(|&s| s <= tol),
            "variant {i} aggregated over-stale updates"
        );
    }
}

#[test]
fn virtual_time_is_monotone_and_deterministic() {
    let cfg = FlConfig {
        total_rounds: 6,
        concurrency: 8,
        seed: 3,
        ..Default::default()
    };
    let r1 = twitter_course(cfg.clone()).run();
    let r2 = twitter_course(cfg).run();
    assert_eq!(r1.final_time_secs, r2.final_time_secs);
    for w in r1.history.windows(2) {
        assert!(
            w[1].time_secs >= w[0].time_secs,
            "virtual time went backwards"
        );
    }
    // distinct seeds give distinct courses
    let cfg2 = FlConfig {
        total_rounds: 6,
        concurrency: 8,
        seed: 4,
        ..Default::default()
    };
    let r3 = twitter_course(cfg2).run();
    assert_ne!(r1.final_time_secs, r3.final_time_secs);
}

#[test]
fn crashing_clients_are_absorbed_by_time_up() {
    let data = twitter_like(&TwitterConfig {
        num_clients: 12,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: 8,
        seed: 5,
        ..Default::default()
    }
    .async_time(
        10.0,
        1,
        BroadcastManner::AfterAggregating,
        SamplerKind::Uniform,
    );
    let mut runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .fleet_config(fedscope::sim::FleetConfig {
        num_clients: 12,
        crash_prob: 0.3,
        ..Default::default()
    })
    .build();
    let report = runner.run();
    assert_eq!(report.rounds, 3, "time_up must push through crashes");
    assert!(
        report.crashed_deliveries > 0,
        "crash injection had no effect"
    );
}

#[test]
fn cnn_course_learns_on_images() {
    let data = femnist_like(&ImageConfig {
        num_clients: 10,
        per_client: 24,
        img: 8,
        num_classes: 4,
        ..Default::default()
    });
    let cfg = FlConfig {
        total_rounds: 15,
        concurrency: 10,
        local_steps: 4,
        batch_size: 8,
        sgd: SgdConfig::with_lr(0.25),
        seed: 6,
        ..Default::default()
    };
    let mut runner = CourseBuilder::new(
        data,
        Box::new(|rng| Box::new(convnet2(1, 8, 16, 4, 0.0, rng))),
        cfg,
    )
    .build();
    let report = runner.run();
    let best = report
        .history
        .iter()
        .map(|r| r.metrics.accuracy)
        .fold(0.0f32, f32::max);
    assert!(best > 0.6, "CNN course failed to learn: best {best}");
}

#[test]
fn target_accuracy_stops_early() {
    let cfg = FlConfig {
        total_rounds: 100,
        concurrency: 8,
        target_accuracy: Some(0.5),
        sgd: SgdConfig::with_lr(0.5),
        seed: 7,
        ..Default::default()
    };
    let mut runner = twitter_course(cfg);
    let report = runner.run();
    assert!(
        report.rounds < 100,
        "target accuracy should stop the course early"
    );
    assert!(report.finish_reason.contains("target accuracy"));
}

#[test]
fn distributed_runner_matches_participant_counts() {
    let data = twitter_like(&TwitterConfig {
        num_clients: 6,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: 4,
        seed: 8,
        ..Default::default()
    };
    let runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();
    let server = runner.server;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = run_distributed_with(
        server,
        clients,
        Duration::from_secs(60),
        BusRunOptions::default(),
    )
    .expect("run");
    assert_eq!(server.state.round, 3);
    assert_eq!(server.state.client_reports.len(), 6);
}

#[test]
fn distributed_rejects_time_up_rule() {
    let data = twitter_like(&TwitterConfig {
        num_clients: 4,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 2,
        concurrency: 2,
        seed: 9,
        ..Default::default()
    }
    .async_time(
        5.0,
        1,
        BroadcastManner::AfterAggregating,
        SamplerKind::Uniform,
    );
    let runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();
    let server = runner.server;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let err = run_distributed_with(
        server,
        clients,
        Duration::from_secs(5),
        BusRunOptions::default(),
    );
    assert!(
        err.is_err(),
        "time_up needs virtual time and must be rejected"
    );
}

#[test]
fn handler_override_changes_course_behaviour() {
    use fedscope::core::{Condition, Event};
    use fedscope::net::MessageKind;
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: 8,
        seed: 10,
        ..Default::default()
    };
    let mut runner = twitter_course(cfg);
    // overwrite the metrics handler: drop all reports
    runner.server.registry_mut().register(
        Event::Message(MessageKind::MetricsReport),
        "ignore_metrics",
        vec![],
        Box::new(|_, _, _| {}),
    );
    assert_eq!(runner.server.warnings().len(), 1, "overwrite must warn");
    let _ = runner.run();
    assert!(runner.server.state.client_reports.is_empty());
    // condition events remain linked
    let eff = runner.server.effective_handlers();
    assert!(eff
        .iter()
        .any(|(e, _)| matches!(e, Event::Condition(Condition::EarlyStop))));
}

#[test]
fn tcp_distributed_course_completes() {
    use fedscope::core::distributed::{run_distributed_tcp_with, TcpRunOptions};
    let data = twitter_like(&TwitterConfig {
        num_clients: 5,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: 3,
        seed: 11,
        ..Default::default()
    };
    let runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();
    let server = runner.server;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = run_distributed_tcp_with(
        server,
        clients,
        Duration::from_secs(60),
        TcpRunOptions::default(),
    )
    .expect("tcp run");
    assert_eq!(server.state.round, 3);
    assert_eq!(server.state.client_reports.len(), 5);
}
