//! Integration tests for `fs-verify` (§3.6 / Appendix E): seeded broken
//! courses and configs must be rejected with the expected `FSVnnn` codes,
//! builder presets must verify clean, and runners must refuse to start a
//! course that fails static verification.

use fedscope::core::config::{
    AggregationRule, BroadcastManner, CodecSpec, CompressionConfig, FlConfig, SamplerKind,
};
use fedscope::core::course::CourseBuilder;
use fedscope::core::distributed::{run_distributed_with, BusRunOptions, DistributedError};
use fedscope::core::{lint_config, verify_assembled, Client, Condition, Event, StandaloneRunner};
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::net::{MessageKind, Topology};
use fedscope::sim::FleetConfig;
use fedscope::tensor::model::logistic_regression;
use fedscope::verify::{Code, Severity, VerifyReport};
use proptest::prelude::*;
use std::time::Duration;

mod common;
use common::{check, Fnv};

fn course(num_clients: usize, cfg: FlConfig) -> StandaloneRunner {
    let data = twitter_like(&TwitterConfig {
        num_clients,
        per_client: 12,
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

fn report_of(runner: &StandaloneRunner) -> VerifyReport {
    verify_assembled(
        &runner.server,
        &runner.clients.groups(),
        Some(&runner.server.state.cfg),
    )
}

fn small_cfg() -> FlConfig {
    FlConfig {
        total_rounds: 2,
        concurrency: 4,
        seed: 11,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------------
// Broken courses: protocol-level defects detected on the flow graph.
// ---------------------------------------------------------------------------

/// Removing the server's `all_received` handler severs the path from
/// `receiving_join_in` to `receiving_finish`: the course is incomplete.
#[test]
fn missing_aggregation_handler_is_incomplete() {
    let mut runner = course(8, small_cfg());
    runner
        .server
        .registry_mut()
        .unregister(Event::Condition(Condition::AllReceived));
    let report = report_of(&runner);
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code(Code::Incomplete), "{report}");
}

/// Without a `receiving_join_in` handler the course cannot even start.
#[test]
fn missing_join_in_handler_is_incomplete() {
    let mut runner = course(8, small_cfg());
    runner
        .server
        .registry_mut()
        .unregister(Event::Message(MessageKind::JoinIn));
    let report = report_of(&runner);
    assert!(report.has_code(Code::Incomplete), "{report}");
}

/// The server terminates the course with `Finish`; if no client handles it,
/// the server is shouting into the void.
#[test]
fn unhandled_finish_broadcast_is_an_error() {
    let mut runner = course(8, small_cfg());
    for client in runner.clients.values_mut() {
        client
            .registry_mut()
            .unregister(Event::Message(MessageKind::Finish));
    }
    let report = report_of(&runner);
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code(Code::ServerSendUnhandled), "{report}");
}

/// Clients that cannot receive `ModelParams` never train: the broadcast is
/// unhandled and the course falls apart.
#[test]
fn unhandled_model_broadcast_is_an_error() {
    let mut runner = course(8, small_cfg());
    for client in runner.clients.values_mut() {
        client
            .registry_mut()
            .unregister(Event::Message(MessageKind::ModelParams));
    }
    let report = report_of(&runner);
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code(Code::ServerSendUnhandled), "{report}");
}

/// A client handler that declares it sends a custom message nobody on the
/// server side handles.
#[test]
fn client_message_without_server_handler_is_an_error() {
    let mut runner = course(8, small_cfg());
    for client in runner.clients.values_mut() {
        client.registry_mut().register(
            Event::Message(MessageKind::ModelParams),
            "train_and_share_embeddings",
            vec![
                Event::Message(MessageKind::Updates),
                Event::Message(MessageKind::Custom(9)),
            ],
            Box::new(|_, _, _| {}),
        );
    }
    let report = report_of(&runner);
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code(Code::ClientSendUnhandled), "{report}");
}

/// A handler that declares it raises a condition its own participant never
/// handles — the event would be silently dropped at runtime.
#[test]
fn raised_condition_without_handler_is_an_error() {
    let mut runner = course(8, small_cfg());
    runner.server.registry_mut().register(
        Event::Message(MessageKind::Updates),
        "save_update_and_signal",
        vec![
            Event::Condition(Condition::AllReceived),
            Event::Condition(Condition::Custom(5)),
        ],
        Box::new(|_, _, _| {}),
    );
    let report = report_of(&runner);
    assert!(report.has_errors(), "{report}");
    assert!(report.has_code(Code::ConditionUnhandled), "{report}");
}

/// A registered handler whose trigger event nothing emits is dead code — a
/// warning, not an error (the course still completes).
#[test]
fn never_emitted_handler_is_flagged_unreachable() {
    let mut runner = course(8, small_cfg());
    runner.server.registry_mut().register(
        Event::Message(MessageKind::Custom(33)),
        "orphan_handler",
        vec![],
        Box::new(|_, _, _| {}),
    );
    let report = report_of(&runner);
    assert!(!report.has_errors(), "{report}");
    assert!(!report.is_clean(), "{report}");
    assert!(report.has_code(Code::UnreachableHandler), "{report}");
}

/// Two custom conditions that ping-pong forever with no path back to
/// `Finish` form a reachable cycle without exit.
#[test]
fn reachable_cycle_without_exit_is_flagged() {
    let mut runner = course(8, small_cfg());
    let reg = runner.server.registry_mut();
    // Re-declare the update handler so it also kicks off the side loop.
    reg.register(
        Event::Message(MessageKind::Updates),
        "save_update_and_spin",
        vec![
            Event::Message(MessageKind::ModelParams),
            Event::Condition(Condition::AllReceived),
            Event::Condition(Condition::Custom(1)),
        ],
        Box::new(|_, _, _| {}),
    );
    reg.register(
        Event::Condition(Condition::Custom(1)),
        "spin_a",
        vec![Event::Condition(Condition::Custom(2))],
        Box::new(|_, _, _| {}),
    );
    reg.register(
        Event::Condition(Condition::Custom(2)),
        "spin_b",
        vec![Event::Condition(Condition::Custom(1))],
        Box::new(|_, _, _| {}),
    );
    let report = report_of(&runner);
    assert!(report.has_code(Code::CycleWithoutExit), "{report}");
}

/// Overwriting a handler is legal (latest wins, per §3.2) and surfaces as a
/// note that does not dirty the report.
#[test]
fn handler_overwrite_is_a_note_only() {
    let mut runner = course(8, small_cfg());
    runner.server.registry_mut().register(
        Event::Message(MessageKind::Updates),
        "custom_save_update",
        vec![
            Event::Message(MessageKind::ModelParams),
            Event::Condition(Condition::AllReceived),
        ],
        Box::new(|_, _, _| {}),
    );
    let report = report_of(&runner);
    assert!(report.has_code(Code::RegistryOverwrite), "{report}");
    assert!(report.is_clean(), "{report}");
    assert!(report.count(Severity::Note) >= 1);
}

// ---------------------------------------------------------------------------
// Broken configs: lints over FlConfig.
// ---------------------------------------------------------------------------

fn lint_codes(cfg: &FlConfig, num_clients: usize) -> Vec<Code> {
    lint_config(cfg, Some(num_clients))
        .into_iter()
        .map(|d| d.code)
        .collect()
}

#[test]
fn zero_rounds_is_an_error() {
    let cfg = FlConfig {
        total_rounds: 0,
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::ZeroRounds));
}

#[test]
fn zero_concurrency_samples_nobody() {
    let cfg = FlConfig {
        concurrency: 0,
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::EmptySampleTarget));
}

#[test]
fn invalid_codec_parameters_are_errors() {
    let cfg = FlConfig {
        compression: CompressionConfig {
            upload: Some(CodecSpec::UniformQuant { bits: 3 }),
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::QuantBitsInvalid));

    let cfg = FlConfig {
        compression: CompressionConfig {
            upload: Some(CodecSpec::TopK { ratio: 0.0 }),
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::TopKRatioInvalid));

    let cfg = FlConfig {
        compression: CompressionConfig {
            download: Some(CodecSpec::TopK { ratio: f32::NAN }),
            ..Default::default()
        },
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::TopKRatioInvalid));
}

#[test]
fn degenerate_training_knobs_are_errors() {
    let cfg = FlConfig {
        eval_every: 0,
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::ZeroEvalEvery));

    let mut cfg = FlConfig::default();
    cfg.sgd.lr = 0.0;
    assert!(lint_codes(&cfg, 20).contains(&Code::NonPositiveLr));

    let cfg = FlConfig {
        batch_size: 0,
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::ZeroBatchSize));

    let cfg = FlConfig {
        local_steps: 0,
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::ZeroLocalSteps));
}

#[test]
fn degenerate_aggregation_rules_are_errors() {
    let cfg =
        FlConfig::default().async_goal(0, BroadcastManner::AfterAggregating, SamplerKind::Uniform);
    assert!(lint_codes(&cfg, 20).contains(&Code::ZeroGoal));

    let cfg = FlConfig::default().async_time(
        -1.0,
        1,
        BroadcastManner::AfterAggregating,
        SamplerKind::Uniform,
    );
    assert!(lint_codes(&cfg, 20).contains(&Code::NonPositiveBudget));
}

#[test]
fn population_and_threshold_bounds_are_checked() {
    // 10 concurrent from a population of 5: impossible.
    let codes = lint_codes(&FlConfig::default(), 5);
    assert!(codes.contains(&Code::SampleTargetExceedsClients));

    // goal 15 can never be met by 10 sampled clients.
    let cfg =
        FlConfig::default().async_goal(15, BroadcastManner::AfterAggregating, SamplerKind::Uniform);
    assert!(lint_codes(&cfg, 20).contains(&Code::ThresholdExceedsSampleTarget));

    let cfg = FlConfig {
        over_selection: -0.5,
        ..Default::default()
    };
    assert!(lint_codes(&cfg, 20).contains(&Code::OverSelectionNegative));
}

// ---------------------------------------------------------------------------
// Builder presets verify clean end to end.
// ---------------------------------------------------------------------------

#[test]
fn builder_presets_verify_clean() {
    let presets: Vec<(&str, FlConfig)> = vec![
        ("sync_vanilla", small_cfg().sync_vanilla()),
        ("sync_over_selection", small_cfg().sync_over_selection(0.3)),
        (
            "async_goal",
            small_cfg().async_goal(3, BroadcastManner::AfterReceiving, SamplerKind::Uniform),
        ),
        (
            "async_time",
            small_cfg().async_time(
                5.0,
                2,
                BroadcastManner::AfterAggregating,
                SamplerKind::Responsiveness,
            ),
        ),
        (
            "quant8_upload",
            FlConfig {
                compression: CompressionConfig::quant8_upload(),
                ..small_cfg()
            },
        ),
    ];
    for (name, cfg) in presets {
        // 16 clients covers the 30% over-selected sample target.
        let runner = course(16, cfg);
        let report = report_of(&runner);
        assert!(report.is_clean(), "preset {name} not clean:\n{report}");
    }
}

// ---------------------------------------------------------------------------
// Runners refuse to start a course that fails verification.
// ---------------------------------------------------------------------------

#[test]
fn standalone_runner_refuses_incomplete_course() {
    let mut runner = course(8, small_cfg());
    runner
        .server
        .registry_mut()
        .unregister(Event::Condition(Condition::AllReceived));
    let err = runner
        .try_run()
        .expect_err("incomplete course must not run");
    assert!(err.has_code(Code::Incomplete), "{err}");
}

#[test]
fn standalone_runner_refuses_broken_config() {
    let mut runner = course(
        8,
        FlConfig {
            eval_every: 0,
            ..small_cfg()
        },
    );
    let err = runner.try_run().expect_err("broken config must not run");
    assert!(err.has_code(Code::ZeroEvalEvery), "{err}");
}

#[test]
fn distributed_runner_refuses_broken_course() {
    let runner = course(6, small_cfg());
    let mut server = runner.server;
    let clients: Vec<Client> = runner.clients.into_values().collect();
    server
        .registry_mut()
        .unregister(Event::Condition(Condition::AllReceived));
    let err = run_distributed_with(
        server,
        clients,
        Duration::from_secs(5),
        BusRunOptions::default(),
    );
    match err {
        Err(DistributedError::Verification(report)) => {
            assert!(report.has_code(Code::Incomplete), "{report}")
        }
        Err(other) => panic!("expected verification refusal, got {other}"),
        Ok(_) => panic!("broken course must not run"),
    }
}

// ---------------------------------------------------------------------------
// Conformance: runtime emissions are diffed against declarations and the
// report carries the effective-handler log.
// ---------------------------------------------------------------------------

#[test]
fn course_report_carries_handler_log_and_no_violations_by_default() {
    let mut runner = course(8, small_cfg());
    let report = runner.try_run().expect("default course runs");
    assert!(
        report
            .effective_handlers
            .iter()
            .any(|l| l.starts_with("server:")),
        "handler log missing server entries: {:?}",
        report.effective_handlers
    );
    assert!(
        report.conformance_violations.is_empty(),
        "stock handlers must emit only what they declare: {:?}",
        report.conformance_violations
    );
}

#[test]
fn undeclared_runtime_emission_is_reported() {
    let mut runner = course(8, small_cfg());
    // Declared emits omit EvalRequest, but the handler raises it anyway.
    runner.server.registry_mut().register(
        Event::Message(MessageKind::MetricsReport),
        "sneaky_metrics_sink",
        vec![],
        Box::new(|_, _, ctx| {
            ctx.raise(Condition::Custom(60));
        }),
    );
    let report = runner.try_run().expect("course still runs");
    assert!(
        report
            .conformance_violations
            .iter()
            .any(|v| v.contains("sneaky_metrics_sink")),
        "expected a conformance violation: {:?}",
        report.conformance_violations
    );
}

// ---------------------------------------------------------------------------
// Pins: the full diagnostic text per config, and the builder's refusals
// against the lints.
// ---------------------------------------------------------------------------

/// What verification says about `cfg` on a valid `n`-client course, the
/// course's handler tables assembled from one fixed config.
fn report_for(cfg: &FlConfig, n: usize) -> VerifyReport {
    let runner = course(
        n,
        FlConfig {
            concurrency: 1,
            ..small_cfg()
        },
    );
    verify_assembled(&runner.server, &runner.clients.groups(), Some(cfg))
}

fn with_compression(compression: CompressionConfig) -> FlConfig {
    FlConfig {
        compression,
        ..small_cfg()
    }
}

fn with_rule(rule: AggregationRule) -> FlConfig {
    FlConfig {
        rule,
        ..small_cfg()
    }
}

/// FNV-1a fingerprints of every diagnostic (code, severity, subject,
/// message, suggestion, in report order) per config of
/// `lint_output_matches_pre_fold_pin`, taken before the config lints moved
/// next to `FlConfig`. Never edit an entry to make the test pass.
const GOLDEN_LINTS: &[(&str, u64)] = &[
    ("default", 0xd788f18a659dba32),
    ("preset/sync_vanilla", 0xd788f18a659dba32),
    ("preset/sync_over_selection", 0xad0066240f4f309e),
    ("preset/async_goal", 0xad0066240f4f309e),
    ("preset/async_time", 0xad0066240f4f309e),
    ("preset/buffered_async", 0xad0066240f4f309e),
    ("preset/tiered", 0xad0066240f4f309e),
    ("mutation/0", 0x4c8482c744132928),
    ("mutation/1", 0xa76f12930e719803),
    ("mutation/2", 0xbf597d29d9d35345),
    ("mutation/3", 0xd3a4b561623f92c7),
    ("mutation/4", 0x495847c9c2d5cc13),
    ("mutation/5", 0x78fd4f1b0773b984),
    ("mutation/6", 0xdb417d400730bd39),
    ("mutation/7", 0xdecd04cb3585a942),
    ("mutation/8", 0xb121a761da76613c),
    ("mutation/9", 0x124964177a18514a),
    ("codec/upload/quant3", 0x37602eb889b5df20),
    ("codec/download/quant3", 0x5680ec5336ee37eb),
    ("codec/upload/topk0", 0xe6ad2c2812ae1a19),
    ("codec/download/topk0", 0x686fe858b09c08e0),
    ("codec/upload/topk_nan", 0x3bf11c6a82e24952),
    ("codec/download/topk_nan", 0xaf5d843d69d72edf),
    ("hier:2x4/delta_upload", 0x1b788f1a7c395835),
    ("gossip:2/two_peers", 0x591ba9127eea29ca),
    ("buffered/k0", 0x12e8455f7fbdfce3),
    ("tiered/tiers0", 0x7791d8ceabea4734),
    ("after_receiving/all_received", 0x09a10fb8145d02bd),
    ("over_selection/1.3", 0xdc6855e6fcb29b31),
    ("delta_without_codec", 0x5d1454eff4734bcc),
    ("eval_every/exceeds_rounds", 0xc255594a11c5302a),
    ("target_accuracy/90", 0xe14c35f9ec45ed05),
    ("sample_target/exceeds_clients", 0x2ad0126cf8e63da9),
    ("goal/exceeds_target", 0x73d265f8ee7fc282),
    ("time_up/bad_budget_and_feedback", 0xb3dfdf863ed7a195),
    ("buffered/k_exceeds_target", 0x5c909f226da5f1bc),
    ("buffered/on_gossip", 0xcc0d8cc7b6774979),
    ("tiered/on_hier", 0x59846b509b821c20),
    ("tiered/tiers1", 0x715cf4ab6f62a783),
    ("tiered/tiers40", 0xa0df90061457b9fc),
    ("hier:1x0", 0xc0f59e052d9118c0),
    ("hier:2x4/goal", 0x21165ae805893574),
    ("gossip:0", 0x8f0a70bd047aacbc),
];

#[test]
fn lint_output_matches_pre_fold_pin() {
    let mut table: Vec<(String, FlConfig, usize)> = vec![
        ("default".into(), FlConfig::default(), 16),
        ("preset/sync_vanilla".into(), small_cfg().sync_vanilla(), 16),
        (
            "preset/sync_over_selection".into(),
            small_cfg().sync_over_selection(0.3),
            16,
        ),
        (
            "preset/async_goal".into(),
            small_cfg().async_goal(3, BroadcastManner::AfterReceiving, SamplerKind::Uniform),
            16,
        ),
        (
            "preset/async_time".into(),
            small_cfg().async_time(
                5.0,
                2,
                BroadcastManner::AfterAggregating,
                SamplerKind::Responsiveness,
            ),
            16,
        ),
        (
            "preset/buffered_async".into(),
            small_cfg().buffered_async(3),
            16,
        ),
        ("preset/tiered".into(), small_cfg().tiered(2), 16),
    ];
    for which in 0..10u8 {
        let mut cfg = small_cfg();
        apply_breaking_mutation(&mut cfg, which);
        table.push((format!("mutation/{which}"), cfg, 16));
    }
    let codecs = [
        ("quant3", CodecSpec::UniformQuant { bits: 3 }),
        ("topk0", CodecSpec::TopK { ratio: 0.0 }),
        ("topk_nan", CodecSpec::TopK { ratio: f32::NAN }),
    ];
    for (name, codec) in codecs {
        table.push((
            format!("codec/upload/{name}"),
            with_compression(CompressionConfig {
                upload: Some(codec),
                ..Default::default()
            }),
            16,
        ));
        table.push((
            format!("codec/download/{name}"),
            with_compression(CompressionConfig {
                download: Some(codec),
                ..Default::default()
            }),
            16,
        ));
    }
    table.push((
        "hier:2x4/delta_upload".into(),
        FlConfig {
            topology: Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            },
            ..with_compression(CompressionConfig {
                upload: Some(CodecSpec::UniformQuant { bits: 8 }),
                upload_delta: true,
                download: None,
            })
        },
        16,
    ));
    table.push((
        "gossip:2/two_peers".into(),
        FlConfig {
            topology: Topology::Gossip {
                degree: 2,
                rounds: 3,
            },
            ..small_cfg()
        },
        2,
    ));
    table.push((
        "buffered/k0".into(),
        with_rule(AggregationRule::Buffered { k: 0 }),
        16,
    ));
    table.push((
        "tiered/tiers0".into(),
        with_rule(AggregationRule::Tiered { tiers: 0 }),
        16,
    ));

    // the lints the cases above do not reach
    let hier = |tiers, fanout| Topology::Hierarchical { tiers, fanout };
    let gossip = |degree| Topology::Gossip { degree, rounds: 3 };
    let rest: Vec<(&str, FlConfig)> = vec![
        (
            "after_receiving/all_received",
            FlConfig {
                broadcast: BroadcastManner::AfterReceiving,
                ..small_cfg()
            },
        ),
        (
            "over_selection/1.3",
            FlConfig {
                over_selection: 1.3,
                ..small_cfg()
            },
        ),
        (
            "delta_without_codec",
            with_compression(CompressionConfig {
                upload_delta: true,
                ..Default::default()
            }),
        ),
        (
            "eval_every/exceeds_rounds",
            FlConfig {
                eval_every: 3,
                ..small_cfg()
            },
        ),
        (
            "target_accuracy/90",
            FlConfig {
                target_accuracy: Some(90.0),
                ..small_cfg()
            },
        ),
        (
            "sample_target/exceeds_clients",
            FlConfig {
                concurrency: 17,
                ..small_cfg()
            },
        ),
        (
            "goal/exceeds_target",
            with_rule(AggregationRule::GoalAchieved { goal: 5 }),
        ),
        (
            "time_up/bad_budget_and_feedback",
            with_rule(AggregationRule::TimeUp {
                budget_secs: f64::NAN,
                min_feedback: 5,
            }),
        ),
        (
            "buffered/k_exceeds_target",
            with_rule(AggregationRule::Buffered { k: 9 }),
        ),
        (
            "buffered/on_gossip",
            FlConfig {
                topology: gossip(2),
                ..small_cfg().buffered_async(3)
            },
        ),
        (
            "tiered/on_hier",
            FlConfig {
                topology: hier(2, 4),
                ..small_cfg().tiered(2)
            },
        ),
        ("tiered/tiers1", small_cfg().tiered(1)),
        ("tiered/tiers40", small_cfg().tiered(40)),
        (
            "hier:1x0",
            FlConfig {
                topology: hier(1, 0),
                ..small_cfg()
            },
        ),
        (
            "hier:2x4/goal",
            FlConfig {
                topology: hier(2, 4),
                ..small_cfg().async_goal(3, BroadcastManner::AfterAggregating, SamplerKind::Uniform)
            },
        ),
        (
            "gossip:0",
            FlConfig {
                topology: gossip(0),
                ..small_cfg()
            },
        ),
    ];
    table.extend(rest.into_iter().map(|(l, cfg)| (l.to_string(), cfg, 16)));

    for (label, cfg, n) in &table {
        let mut h = Fnv::new();
        for d in &report_for(cfg, *n).diagnostics {
            h.field("code", d.code.as_str());
            h.field("severity", &d.severity.to_string());
            h.field("subject", &d.subject);
            h.field("message", &d.message);
            h.field("suggestion", d.suggestion.as_deref().unwrap_or("-"));
        }
        check(label, h.finish(), GOLDEN_LINTS);
    }
}

/// Building a course refuses nothing: each of these configs builds, and the
/// runner's preflight refuses it with its lint Error before any round runs.
#[test]
fn builder_refusals_are_lint_errors() {
    let goal = |goal| with_rule(AggregationRule::GoalAchieved { goal });
    let time_up = |budget_secs, min_feedback| {
        with_rule(AggregationRule::TimeUp {
            budget_secs,
            min_feedback,
        })
    };
    let refused: Vec<(&str, usize, FlConfig, Code)> = vec![
        ("goal 0", 8, goal(0), Code::ZeroGoal),
        (
            "goal > sample target",
            8,
            goal(5),
            Code::ThresholdExceedsSampleTarget,
        ),
        ("budget 0", 8, time_up(0.0, 1), Code::NonPositiveBudget),
        ("budget < 0", 8, time_up(-2.0, 1), Code::NonPositiveBudget),
        (
            "min_feedback > sample target",
            8,
            time_up(5.0, 5),
            Code::ThresholdExceedsSampleTarget,
        ),
        (
            "k 0",
            8,
            with_rule(AggregationRule::Buffered { k: 0 }),
            Code::SchedBufferInvalid,
        ),
        (
            "tiers 0",
            8,
            with_rule(AggregationRule::Tiered { tiers: 0 }),
            Code::SchedTiersInvalid,
        ),
        (
            "sample target > clients",
            8,
            FlConfig {
                concurrency: 9,
                ..small_cfg()
            },
            Code::SampleTargetExceedsClients,
        ),
        (
            "empty dataset",
            0,
            small_cfg(),
            Code::SampleTargetExceedsClients,
        ),
    ];
    for (what, n, cfg, code) in refused {
        let mut runner = course(n, cfg);
        let report = runner.try_run().expect_err(what);
        assert!(report.has_code(code), "{what}:\n{report}");
        assert_eq!(code.severity(), Severity::Error, "{what}");
        assert_eq!(runner.server.state.round, 0, "{what}: a round ran");
    }
}

/// Only a rule with a round timer recovers a round a crashed broadcast left
/// waiting, so a crash-prone fleet under any other rule is refused
/// (`FSV065`) before any round runs; under `time_up` the same fleet runs.
#[test]
fn crash_prone_fleet_needs_a_round_timer() {
    let crash_course = |cfg: FlConfig| {
        let data = twitter_like(&TwitterConfig {
            num_clients: 8,
            per_client: 12,
            ..Default::default()
        });
        let dim = data.input_dim();
        CourseBuilder::new(
            data,
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            cfg,
        )
        .fleet_config(FleetConfig {
            num_clients: 8,
            crash_prob: 0.3,
            ..Default::default()
        })
        .build()
    };
    let mut runner = crash_course(small_cfg());
    let report = runner
        .try_run()
        .expect_err("all_received cannot survive a crash");
    assert!(report.has_code(Code::CrashesWithoutTimer), "{report}");
    assert_eq!(Code::CrashesWithoutTimer.as_str(), "FSV065");
    assert_eq!(runner.server.state.round, 0, "a round ran");

    let timed = small_cfg().async_time(
        5.0,
        1,
        BroadcastManner::AfterAggregating,
        SamplerKind::Uniform,
    );
    let report = crash_course(timed)
        .try_run()
        .expect("time_up re-arms its rounds");
    assert_eq!(report.rounds, 2);
}

// ---------------------------------------------------------------------------
// Property tests: mutated-invalid configs always produce at least one FSV
// error; valid parameter ranges never do.
// ---------------------------------------------------------------------------

fn apply_breaking_mutation(cfg: &mut FlConfig, which: u8) {
    match which % 10 {
        0 => cfg.total_rounds = 0,
        1 => cfg.concurrency = 0,
        2 => cfg.eval_every = 0,
        3 => cfg.local_steps = 0,
        4 => cfg.batch_size = 0,
        5 => cfg.sgd.lr = -0.1,
        6 => cfg.over_selection = -1.5,
        7 => {
            cfg.compression.upload = Some(CodecSpec::UniformQuant { bits: 5 });
        }
        8 => {
            cfg.compression.download = Some(CodecSpec::TopK { ratio: -0.25 });
        }
        _ => cfg.rule = AggregationRule::GoalAchieved { goal: 0 },
    }
}

proptest! {
    /// Any single breaking mutation over any reasonable base config yields
    /// at least one FSV error.
    #[test]
    fn broken_configs_always_lint_an_error(
        which in 0u8..10,
        rounds in 1u64..200,
        concurrency in 1usize..16,
        seed in any::<u64>(),
    ) {
        let mut cfg = FlConfig {
            total_rounds: rounds,
            concurrency,
            seed,
            ..Default::default()
        };
        apply_breaking_mutation(&mut cfg, which);
        let diags = lint_config(&cfg, Some(64));
        prop_assert!(
            diags.iter().any(|d| d.severity == Severity::Error),
            "mutation {} produced no error: {:?}",
            which,
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
    }

    /// Builder presets over valid parameter ranges never lint an error.
    #[test]
    fn valid_presets_never_lint_an_error(
        rounds in 1u64..200,
        concurrency in 1usize..16,
        goal_frac in 1usize..=4,
        preset in 0u8..4,
    ) {
        let base = FlConfig {
            total_rounds: rounds,
            concurrency,
            ..Default::default()
        };
        let goal = (concurrency / goal_frac).max(1);
        let cfg = match preset {
            0 => base.sync_vanilla(),
            1 => base.sync_over_selection(0.3),
            2 => base.async_goal(goal, BroadcastManner::AfterReceiving, SamplerKind::Uniform),
            _ => base.async_time(
                10.0,
                goal,
                BroadcastManner::AfterAggregating,
                SamplerKind::Group,
            ),
        };
        // Population comfortably larger than any sample target.
        let diags = lint_config(&cfg, Some(256));
        prop_assert!(
            !diags.iter().any(|d| d.severity == Severity::Error),
            "preset {} linted errors: {:?}",
            preset,
            diags.iter().map(|d| d.code).collect::<Vec<_>>()
        );
    }
}
