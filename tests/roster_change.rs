//! Roster changes under every aggregation rule, at the server level.
//!
//! A dropout or a rejoin makes the server re-ask its rule whether a
//! condition the lost client was blocking now holds. `all_received` and
//! `goal_achieved` have unit cases next to the server; these are the three
//! rules that had none. Every case drives `Server` through its public surface
//! only (`Server::new`, `handle`, `handle_timer`, `notify_dropout`,
//! `notify_rejoin`, and the `state` fields a transport can see), so it pins
//! behaviour, not the shape of the code that decides it.

use fedscope::core::aggregator::FedAvg;
use fedscope::core::config::{AggregationRule, FlConfig};
use fedscope::core::ctx::Ctx;
use fedscope::core::sampler::Sampler;
use fedscope::core::server::Server;
use fedscope::core::Condition;
use fedscope::net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use fedscope::sim::VirtualTime;
use fedscope::tensor::{ParamMap, Tensor};

fn server(cfg: FlConfig, n: u32) -> (Server, Ctx) {
    let mut global = ParamMap::new();
    global.insert("w", Tensor::zeros(&[2]));
    let mut s = Server::new(
        cfg,
        global,
        n as usize,
        Box::new(FedAvg::new(0.0)),
        Sampler::Uniform,
        None,
    );
    let mut ctx = Ctx::at(VirtualTime::ZERO);
    for id in 1..=n {
        let join = Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
        s.handle(&join, &mut ctx);
    }
    (s, ctx)
}

fn reply(s: &mut Server, id: ParticipantId, start_version: u64, ctx: &mut Ctx) {
    let mut params = ParamMap::new();
    params.insert("w", Tensor::from_vec(vec![2], vec![id as f32, 1.0]));
    let msg = Message::new(
        id,
        SERVER_ID,
        MessageKind::Updates,
        0,
        Payload::Update {
            params,
            start_version,
            n_samples: 10,
            n_steps: 4,
        },
    );
    s.handle(&msg, ctx);
}

fn models_sent(ctx: &mut Ctx) -> usize {
    let msgs = ctx.take_messages();
    msgs.iter()
        .filter(|o| o.msg.kind == MessageKind::ModelParams)
        .count()
}

/// The documented tier partition of `AggregationRule::Tiered`: a seeded
/// multiplicative hash of the client id (a local copy, so these cases name
/// nothing inside the server).
fn tier_of(id: ParticipantId, tiers: usize, seed: u64) -> usize {
    let x = (u64::from(id) ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    ((x >> 32) as usize) % tiers
}

/// Eight clients split into two tiers of at least two each: `(a, b)`.
fn two_tiers(seed: u64) -> (Vec<ParticipantId>, Vec<ParticipantId>) {
    let (a, b): (Vec<ParticipantId>, Vec<ParticipantId>) =
        (1..=8).partition(|&id| tier_of(id, 2, seed) == 0);
    assert!(
        a.len() >= 2 && b.len() >= 2,
        "degenerate partition {a:?} / {b:?}"
    );
    (a, b)
}

fn tiered_cfg() -> FlConfig {
    FlConfig {
        concurrency: 8,
        total_rounds: 100,
        ..Default::default()
    }
    .tiered(2)
}

#[test]
fn buffered_dropout_that_lowers_the_threshold_to_the_fill_aggregates() {
    let cfg = FlConfig {
        concurrency: 3,
        total_rounds: 100,
        ..Default::default()
    }
    .buffered_async(3);
    let (mut s, mut ctx) = server(cfg, 3);
    assert_eq!(s.state.busy.len(), 3, "everyone sampled");
    reply(&mut s, 1, 0, &mut ctx);
    reply(&mut s, 2, 0, &mut ctx);
    assert_eq!(s.state.version, 0, "2 buffered < k = 3");
    assert_eq!(s.state.buffer.len(), 2);
    // client 3 dies: min(k, roster) = 2 = the buffer fill
    s.notify_dropout(3, &mut ctx);
    assert_eq!(s.state.version, 1, "the survivors' buffer aggregates");
    assert!(s.state.buffer.is_empty(), "the whole buffer was consumed");
}

#[test]
fn buffered_dropout_above_the_fill_keeps_waiting() {
    let cfg = FlConfig {
        concurrency: 4,
        total_rounds: 100,
        ..Default::default()
    }
    .buffered_async(3);
    let (mut s, mut ctx) = server(cfg, 4);
    reply(&mut s, 1, 0, &mut ctx);
    s.notify_dropout(4, &mut ctx);
    // min(3, 3 survivors) = 3 > 1 buffered
    assert_eq!(s.state.version, 0);
    assert_eq!(s.state.buffer.len(), 1);
}

#[test]
fn tiered_dead_straggler_unblocks_its_tier_and_the_merge_leaves_the_other_buffered() {
    let cfg = tiered_cfg();
    let (a, b) = two_tiers(cfg.seed);
    let (mut s, mut ctx) = server(cfg, 8);
    assert_eq!(s.state.busy.len(), 8, "everyone sampled");
    let (a_straggler, a_done) = a.split_last().expect("tier a");
    let (_, b_done) = b.split_last().expect("tier b");
    for &id in a_done.iter().chain(b_done) {
        reply(&mut s, id, 0, &mut ctx);
    }
    assert_eq!(s.state.version, 0, "each tier still waits for one client");
    assert_eq!(s.state.buffer.len(), a_done.len() + b_done.len());
    // tier a's straggler dies in flight: tier a merges on its own
    s.notify_dropout(*a_straggler, &mut ctx);
    assert_eq!(s.state.version, 1, "the dead straggler's tier merged");
    let left: Vec<ParticipantId> = s.state.buffer.iter().map(|u| u.client).collect();
    assert_eq!(left, b_done, "tier b's updates stay buffered, in order");
    assert!(!s.state.busy.contains(a_straggler));
}

#[test]
fn tiered_rejoined_busy_client_stops_holding_its_tier() {
    let cfg = tiered_cfg();
    let (a, b) = two_tiers(cfg.seed);
    let (mut s, mut ctx) = server(cfg, 8);
    let (b_bounced, b_done) = b.split_last().expect("tier b");
    for &id in b_done {
        reply(&mut s, id, 0, &mut ctx);
    }
    assert_eq!(s.state.version, 0, "tier b waits for its last client");
    // its connection bounced: the work in flight is void, the client idle
    s.notify_rejoin(*b_bounced, &mut ctx);
    assert_eq!(s.state.version, 1, "tier b merged without it");
    assert!(s.state.buffer.is_empty(), "tier a had nothing buffered");
    for id in &a {
        assert!(s.state.busy.contains(id), "tier a still in flight");
    }
    assert_eq!(s.state.round, 1);
}

#[test]
fn time_up_losing_the_whole_cohort_raises_nothing_and_the_timer_decides() {
    let cfg = FlConfig {
        concurrency: 2,
        total_rounds: 100,
        rule: AggregationRule::TimeUp {
            budget_secs: 60.0,
            min_feedback: 1,
        },
        ..Default::default()
    };
    let (mut s, _) = server(cfg, 4);
    let cohort: Vec<ParticipantId> = s.state.busy.iter().collect();
    assert_eq!(cohort.len(), 2);
    let mut ctx = Ctx::at(VirtualTime::from_secs(10.0));
    for &id in &cohort {
        s.notify_dropout(id, &mut ctx);
    }
    assert_eq!(s.state.version, 0);
    assert!(s.state.busy.is_empty(), "no restart: nobody resampled");
    assert_eq!(models_sent(&mut ctx), 0);
    assert!(ctx.timers.is_empty(), "the round's one timer stands");
    assert!(!s.state.done);
    // the budget runs out with nothing buffered: the remedial measure
    // resamples the survivors and extends the budget
    let mut ctx = Ctx::at(VirtualTime::from_secs(60.0));
    s.handle_timer(Condition::TimeUp, 0, &mut ctx);
    assert_eq!(s.state.ledger.remedial_count, 1);
    assert_eq!(ctx.timers.len(), 1, "budget extended");
    assert_eq!(models_sent(&mut ctx), 2);
    let survivors: Vec<ParticipantId> = s.state.busy.iter().collect();
    assert_eq!(survivors, s.state.roster);
    for id in survivors {
        reply(&mut s, id, 0, &mut ctx);
    }
    assert_eq!(s.state.version, 0, "replies alone never aggregate");
    let mut ctx = Ctx::at(VirtualTime::from_secs(120.0));
    s.handle_timer(Condition::TimeUp, 0, &mut ctx);
    assert_eq!(s.state.version, 1, "the timer decides");
}

/// The paper's extension path (§3.6): a handler that hands a client a model
/// itself — here on a client's pull request — keeps `busy` / `outstanding`
/// like the default handlers do, and nothing else. The client's tier must
/// then wait for it like for any sampled client.
#[test]
fn a_tier_waits_for_a_client_a_custom_handler_sampled() {
    use fedscope::core::Event;
    const PULL: MessageKind = MessageKind::Custom(0x42);
    let cfg = FlConfig {
        concurrency: 2,
        total_rounds: 100,
        ..Default::default()
    }
    .tiered(2);
    let seed = cfg.seed;
    let (mut s, mut ctx) = server(cfg, 8);
    s.registry_mut().register(
        Event::Message(PULL),
        "hand_out_model",
        vec![Event::Message(MessageKind::ModelParams)],
        Box::new(|state, msg, ctx| {
            state.busy.insert(msg.sender);
            state.outstanding.insert(msg.sender);
            state.ledger.models_sent += 1;
            let payload = Payload::Model {
                params: state.global.clone(),
                version: state.version,
            };
            let model = Message::new(
                SERVER_ID,
                msg.sender,
                MessageKind::ModelParams,
                state.round,
                payload,
            );
            ctx.send(model);
        }),
    );
    let sampled: Vec<ParticipantId> = s.state.busy.iter().collect();
    let tier = tier_of(sampled[0], 2, seed);
    let c = (1..=8)
        .find(|id| tier_of(*id, 2, seed) == tier && !s.state.busy.contains(id))
        .expect("an idle client in the sampled tier");
    s.handle(
        &Message::new(c, SERVER_ID, PULL, 0, Payload::Empty),
        &mut ctx,
    );
    assert!(s.state.busy.contains(&c), "hand-sampled");
    for &id in sampled.iter().filter(|&&id| tier_of(id, 2, seed) == tier) {
        reply(&mut s, id, 0, &mut ctx);
    }
    assert_eq!(
        s.state.version, 0,
        "the tier waits for the hand-sampled client"
    );
    reply(&mut s, c, 0, &mut ctx);
    assert_eq!(s.state.version, 1, "and merges once it replied");
}
