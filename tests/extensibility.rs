//! Integration tests: the extensibility claims of §3.2/§3.6 — new message
//! kinds, new condition events, and customized behaviours slot into running
//! courses without touching the engine.

use fedscope::core::config::{BroadcastManner, FlConfig, SamplerKind};
use fedscope::core::course::CourseBuilder;
use fedscope::core::{Condition, Event};
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::net::{Message, MessageKind, Payload, SERVER_ID};
use fedscope::tensor::model::logistic_regression;

fn course(cfg: FlConfig) -> fedscope::core::StandaloneRunner {
    let data = twitter_like(&TwitterConfig {
        num_clients: 10,
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

/// Clients exchange a *new message type* (call it "embeddings", the paper's
/// federated-graph-learning motif): a custom client handler piggybacks a
/// Custom(7) message on every model receipt, and a custom server handler
/// accumulates them — no engine changes, just two registrations.
#[test]
fn custom_message_kind_flows_through_the_course() {
    const EMBEDDINGS: MessageKind = MessageKind::Custom(7);
    let cfg = FlConfig {
        total_rounds: 3,
        concurrency: 5,
        seed: 21,
        ..Default::default()
    };
    let mut runner = course(cfg);

    // client side: wrap the default behaviour — we register a new handler for
    // ModelParams that trains as usual *and* ships an embeddings message.
    for client in runner.clients.values_mut() {
        client.registry_mut().register(
            Event::Message(MessageKind::ModelParams),
            "train_and_share_embeddings",
            vec![
                Event::Message(MessageKind::Updates),
                Event::Message(EMBEDDINGS),
            ],
            Box::new(|state, msg, ctx| {
                if let Payload::Model { params, version } = &msg.payload {
                    let update = state.trainer.local_train(params, msg.round);
                    state.rounds_trained += 1;
                    ctx.send_after_compute(
                        Message::new(
                            state.id,
                            SERVER_ID,
                            MessageKind::Updates,
                            msg.round,
                            Payload::Update {
                                params: update.params,
                                start_version: *version,
                                n_samples: update.n_samples,
                                n_steps: update.n_steps,
                            },
                        ),
                        update.examples_processed as f64,
                    );
                    // the new exchanged information: an opaque embedding blob
                    ctx.send(Message::new(
                        state.id,
                        SERVER_ID,
                        EMBEDDINGS,
                        msg.round,
                        Payload::Bytes(vec![state.id as u8; 8]),
                    ));
                }
            }),
        );
    }
    // server side: count embedding messages in a custom handler
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    let seen = Arc::new(AtomicUsize::new(0));
    let seen2 = seen.clone();
    runner.server.registry_mut().register(
        Event::Message(EMBEDDINGS),
        "collect_embeddings",
        vec![],
        Box::new(move |_state, msg, _ctx| {
            assert!(matches!(msg.payload, Payload::Bytes(_)));
            seen2.fetch_add(1, Ordering::Relaxed);
        }),
    );
    let report = runner.run();
    assert_eq!(report.rounds, 3);
    // 5 sampled clients per round x 3 rounds
    assert_eq!(seen.load(Ordering::Relaxed), 15);
}

/// A client-side custom condition (the paper's `low_bandwidth` motif): a
/// client that only returns an update every second round. Under the
/// `goal_achieved` rule the course keeps moving without its feedback.
#[test]
fn low_bandwidth_client_skips_rounds_without_stalling_goal_courses() {
    const LOW_BANDWIDTH: Condition = Condition::Custom(42);
    let cfg = FlConfig {
        total_rounds: 4,
        concurrency: 5,
        seed: 22,
        ..Default::default()
    }
    .async_goal(4, BroadcastManner::AfterAggregating, SamplerKind::Uniform);
    let mut runner = course(cfg);
    let constrained: u32 = 3;
    let client = runner.clients.get_mut(&constrained).expect("client 3");
    client.registry_mut().register(
        Event::Message(MessageKind::ModelParams),
        "maybe_skip_for_bandwidth",
        vec![
            Event::Message(MessageKind::Updates),
            Event::Condition(LOW_BANDWIDTH),
        ],
        Box::new(|state, msg, ctx| {
            if let Payload::Model { params, version } = &msg.payload {
                if state.rounds_trained % 2 == 1 {
                    // bandwidth budget exhausted: train silently, skip upload
                    state.rounds_trained += 1;
                    ctx.raise(LOW_BANDWIDTH);
                    return;
                }
                let update = state.trainer.local_train(params, msg.round);
                state.rounds_trained += 1;
                ctx.send_after_compute(
                    Message::new(
                        state.id,
                        SERVER_ID,
                        MessageKind::Updates,
                        msg.round,
                        Payload::Update {
                            params: update.params,
                            start_version: *version,
                            n_samples: update.n_samples,
                            n_steps: update.n_steps,
                        },
                    ),
                    update.examples_processed as f64,
                );
            }
        }),
    );
    client.registry_mut().register(
        Event::Condition(LOW_BANDWIDTH),
        "count_skips",
        vec![],
        Box::new(|state, _msg, _ctx| {
            state.perf_drop_count += 1; // reuse the counter as a skip counter
        }),
    );
    let report = runner.run();
    assert_eq!(
        report.rounds, 4,
        "goal course must absorb the silent client"
    );
}

/// Removing a handler produces exactly the paper's incomplete-course error
/// surface: the completeness check fails before any message flows.
#[test]
fn removing_the_aggregation_handler_breaks_completeness() {
    use fedscope::verify::Code;
    let cfg = FlConfig {
        total_rounds: 2,
        concurrency: 5,
        seed: 23,
        ..Default::default()
    };
    let mut runner = course(cfg);
    runner
        .server
        .registry_mut()
        .unregister(Event::Condition(Condition::AllReceived));
    let report = fedscope::core::verify_assembled(&runner.server, &runner.clients.groups(), None);
    assert!(
        report.has_code(Code::Incomplete),
        "no aggregation handler -> no path to Finish:\n{report}"
    );
}
