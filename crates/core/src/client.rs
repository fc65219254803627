//! The client worker.
//!
//! A client is a registry of `<event, handler>` pairs over a [`ClientState`];
//! its training detail lives entirely in the [`Trainer`]. The default
//! handlers implement the behaviour of Example 3.2: on `receiving_models`,
//! train locally and return the update; on `receiving_eval_request` /
//! `Finish`, evaluate and report. Clients also raise the `performance_drop`
//! condition event when a received global model makes local validation worse
//! (§3.2), which personalization plug-ins can hook.

use crate::ctx::Ctx;
use crate::event::{Condition, Event};
use crate::registry::Registry;
use crate::trainer::Trainer;
use fs_compress::{decompress, Compressor};
use fs_net::{Message, MessageKind, ParticipantId, Payload, SERVER_ID};
use fs_tensor::model::Metrics;
use fs_tensor::ParamMap;
use std::borrow::Cow;

/// Mutable client state shared by all handlers.
pub struct ClientState {
    /// This client's id (assigned by the course builder; confirmed by the
    /// server's `IdAssignment`).
    pub id: ParticipantId,
    /// The local trainer (personalization lives here).
    pub trainer: Box<dyn Trainer>,
    /// Rounds of local training performed.
    pub rounds_trained: u64,
    /// Last validation metrics observed before local training.
    pub last_val: Option<Metrics>,
    /// Times the `performance_drop` condition fired.
    pub perf_drop_count: u64,
    /// Whether to evaluate the incoming global model and raise
    /// `performance_drop` (costs one validation pass per round).
    pub detect_perf_drop: bool,
    /// Upload codec: when set, updates leave as `Payload::CompressedUpdate`.
    /// Per-client instance — error-feedback residuals and delta references
    /// belong to this sender only.
    pub compressor: Option<Box<dyn Compressor>>,
    /// Set once `Finish` is handled.
    pub done: bool,
    /// Final test metrics reported at course end.
    pub final_test: Option<Metrics>,
}

impl ClientState {
    /// A full copy of this state — the trainer through
    /// [`Trainer::try_clone`], the codec (residuals and delta reference
    /// included) through `clone_box` — or `None` when the trainer cannot be
    /// duplicated. One struct literal, so a new field cannot be left out.
    pub(crate) fn try_clone(&self) -> Option<Self> {
        Some(Self {
            id: self.id,
            trainer: self.trainer.try_clone()?,
            rounds_trained: self.rounds_trained,
            last_val: self.last_val,
            perf_drop_count: self.perf_drop_count,
            detect_perf_drop: self.detect_perf_drop,
            compressor: self.compressor.as_ref().map(|c| c.clone_box()),
            done: self.done,
            final_test: self.final_test,
        })
    }
}

/// The global model a payload ships, dense or compressed, and its version;
/// `None` when the payload carries no model.
fn shipped_model(payload: &Payload) -> Option<(Cow<'_, ParamMap>, u64)> {
    match payload {
        Payload::Model { params, version } => Some((Cow::Borrowed(params), *version)),
        // broadcasts are never delta-encoded (a sampled client may have
        // missed any number of earlier models), so no reference is needed
        Payload::CompressedModel { block, version } => match decompress(block, None) {
            Ok(params) => Some((Cow::Owned(params), *version)),
            Err(e) => {
                debug_assert!(false, "shipped model decompress failed: {e}");
                None
            }
        },
        _ => None,
    }
}

/// What the `evaluate_and_report` and `finalize` handlers of client `id`
/// do: incorporates the global model `msg` ships, if any, evaluates on the
/// local test split and reports the metrics to the server. Returns them.
/// The client store calls it too, to finish a client without building it.
pub(crate) fn evaluate_and_report(
    id: ParticipantId,
    trainer: &mut dyn Trainer,
    msg: &Message,
    ctx: &mut Ctx,
) -> Metrics {
    if let Some((params, _)) = shipped_model(&msg.payload) {
        trainer.incorporate(&params);
    }
    let metrics = trainer.evaluate_test();
    ctx.send(Message::new(
        id,
        SERVER_ID,
        MessageKind::MetricsReport,
        msg.round,
        Payload::Report { metrics },
    ));
    metrics
}

/// A client participant: state + handler registry.
pub struct Client {
    /// Handler-visible state.
    pub state: ClientState,
    registry: Registry<ClientState>,
}

/// A restorable image of a client's mutable state, taken just before a
/// speculative dispatch on a worker thread (`parallelism > 1`). If a recall
/// undoes the speculation — an out-of-order delivery invalidates it —
/// [`Client::restore`] rewinds the client to this
/// image and the message is re-dispatched serially at its proper queue
/// position, reproducing serial execution bit for bit.
///
/// Handler closures themselves are not snapshotted: the default handlers
/// capture nothing, and custom handlers that capture external mutable state
/// should run with `parallelism = 1` (the default).
pub struct ClientSnapshot {
    state: ClientState,
    registry_log: (std::collections::BTreeSet<(Event, Event)>, usize),
}

impl Client {
    /// Creates a client with the default FedAvg-style handlers.
    pub fn new(id: ParticipantId, trainer: Box<dyn Trainer>) -> Self {
        assert!(id != SERVER_ID, "client id 0 is reserved for the server");
        let state = ClientState {
            id,
            trainer,
            rounds_trained: 0,
            last_val: None,
            perf_drop_count: 0,
            detect_perf_drop: false,
            compressor: None,
            done: false,
            final_test: None,
        };
        let mut c = Self {
            state,
            registry: Registry::new(),
        };
        c.install_default_handlers();
        c
    }

    /// Access to the handler registry for customization (§3.6).
    pub fn registry_mut(&mut self) -> &mut Registry<ClientState> {
        &mut self.registry
    }

    /// The effective `<event, handler>` pairs.
    pub fn effective_handlers(&self) -> Vec<(Event, &str)> {
        self.registry.effective_handlers()
    }

    /// Registration-conflict warnings.
    pub fn warnings(&self) -> &[String] {
        self.registry.warnings()
    }

    /// Emit-conformance violations observed during dispatch.
    pub fn violations(&self) -> &[String] {
        self.registry.violations()
    }

    /// Handler specs for the static verifier.
    pub fn specs(&self) -> Vec<fs_verify::HandlerSpec> {
        self.registry.specs()
    }

    /// The message client `id` opens a course with. Joining is fixed
    /// behaviour, not a registered handler, so a runner can schedule the
    /// whole t = 0 join wave without touching a single client.
    pub fn join_request(id: ParticipantId) -> Message {
        Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty)
    }

    /// Initial action: ask to join the FL course.
    pub fn start(&mut self, ctx: &mut Ctx) {
        ctx.send(Self::join_request(self.state.id));
    }

    /// Attempts to capture a restorable image of this client's mutable
    /// state. Returns `None` when the trainer cannot be duplicated
    /// ([`Trainer::try_clone`]); such clients are never speculated and always
    /// run serially.
    pub fn snapshot(&self) -> Option<ClientSnapshot> {
        Some(ClientSnapshot {
            state: self.state.try_clone()?,
            registry_log: self.registry.log_snapshot(),
        })
    }

    /// Rewinds this client to a state captured by [`Client::snapshot`].
    pub fn restore(&mut self, snap: ClientSnapshot) {
        self.state = snap.state;
        self.registry.log_restore(snap.registry_log);
    }

    /// Dispatches a message event, then drains any raised condition events.
    pub fn handle(&mut self, msg: &Message, ctx: &mut Ctx) {
        self.registry
            .dispatch(&mut self.state, Event::Message(msg.kind), msg, ctx);
        while let Some(cond) = ctx.raised.pop_front() {
            self.registry
                .dispatch(&mut self.state, Event::Condition(cond), msg, ctx);
        }
        if self.state.done {
            ctx.finished = true;
        }
    }

    fn install_default_handlers(&mut self) {
        // receiving_id_assignment: confirm identity.
        self.registry.register(
            Event::Message(MessageKind::IdAssignment),
            "confirm_id",
            vec![],
            Box::new(|state, msg, _ctx| {
                debug_assert_eq!(msg.receiver, state.id, "id assignment mismatch");
            }),
        );

        // receiving_models: train on local data, return the update (§3.2).
        self.registry.register(
            Event::Message(MessageKind::ModelParams),
            "local_training",
            vec![
                Event::Message(MessageKind::Updates),
                Event::Condition(Condition::PerformanceDrop),
            ],
            Box::new(|state, msg, ctx| {
                let Some((params, version)) = shipped_model(&msg.payload) else {
                    debug_assert!(false, "ModelParams carried {:?}", msg.payload);
                    return;
                };
                let params: &ParamMap = &params;
                if state.detect_perf_drop {
                    state.trainer.incorporate(params);
                    let val = state.trainer.evaluate_val();
                    if let Some(prev) = state.last_val {
                        if val.n > 0 && val.accuracy + 1e-6 < prev.accuracy {
                            ctx.raise(Condition::PerformanceDrop);
                        }
                    }
                    state.last_val = Some(val);
                }
                let update = state.trainer.local_train(params, msg.round);
                state.rounds_trained += 1;
                let mut codec = state.compressor.as_deref_mut();
                if let Some(codec) = codec.as_deref_mut() {
                    // the delta reference is the model trained from: under a
                    // download codec, the *dequantized* broadcast. The server
                    // adds the delta to its exact global of `version`, so it
                    // receives exact global + (trained - dequantized).
                    codec.set_reference(params, version);
                }
                let payload = Payload::update(
                    update.params,
                    codec,
                    version,
                    update.n_samples,
                    update.n_steps,
                    None,
                );
                let reply = Message::new(
                    state.id,
                    SERVER_ID,
                    MessageKind::Updates,
                    msg.round,
                    payload,
                );
                ctx.send_after_compute(reply, update.examples_processed as f64);
            }),
        );

        // performance_drop: default behaviour just counts; personalization
        // plug-ins overwrite this handler.
        self.registry.register(
            Event::Condition(Condition::PerformanceDrop),
            "count_performance_drop",
            vec![],
            Box::new(|state, _msg, _ctx| {
                state.perf_drop_count += 1;
            }),
        );

        // receiving_eval_request: evaluate the shipped model locally, report.
        // Registered as auxiliary: no default server handler emits
        // EvalRequest (it is operator/extension driven), and the verifier
        // must not flag the responder as unreachable.
        self.registry.register_aux(
            Event::Message(MessageKind::EvalRequest),
            "evaluate_and_report",
            vec![Event::Message(MessageKind::MetricsReport)],
            Box::new(|state, msg, ctx| {
                evaluate_and_report(state.id, &mut *state.trainer, msg, ctx);
            }),
        );

        // receiving_finish: incorporate the final global model, report final
        // test metrics, stop.
        self.registry.register(
            Event::Message(MessageKind::Finish),
            "finalize",
            vec![Event::Message(MessageKind::MetricsReport)],
            Box::new(|state, msg, ctx| {
                state.final_test =
                    Some(evaluate_and_report(state.id, &mut *state.trainer, msg, ctx));
                state.done = true;
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::{share_all, LocalTrainer, TrainConfig};
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_sim::VirtualTime;
    use fs_tensor::model::{logistic_regression, Model};
    use fs_tensor::ParamMap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_client(id: ParticipantId) -> (Client, ParamMap) {
        let d = twitter_like(&TwitterConfig {
            num_clients: 2,
            per_client: 20,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(0);
        let model = logistic_regression(d.input_dim(), 2, &mut rng);
        let global = model.get_params();
        let trainer = LocalTrainer::new(
            Box::new(model),
            d.clients[(id - 1) as usize].clone(),
            TrainConfig::default(),
            share_all(),
            id as u64,
        );
        (Client::new(id, Box::new(trainer)), global)
    }

    #[test]
    fn start_sends_join_in() {
        let (mut c, _) = make_client(1);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        c.start(&mut ctx);
        let sent = ctx.take_messages();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].msg.kind, MessageKind::JoinIn);
        assert_eq!(sent[0].msg.receiver, SERVER_ID);
    }

    #[test]
    fn model_params_triggers_training_and_update() {
        let (mut c, global) = make_client(1);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        let msg = Message::new(
            SERVER_ID,
            1,
            MessageKind::ModelParams,
            0,
            Payload::Model {
                params: global,
                version: 7,
            },
        );
        c.handle(&msg, &mut ctx);
        assert_eq!(c.state.rounds_trained, 1);
        let sent = ctx.take_messages();
        assert_eq!(sent.len(), 1);
        let out = &sent[0];
        assert_eq!(out.msg.kind, MessageKind::Updates);
        assert!(out.compute_work > 0.0, "training must report compute work");
        match &out.msg.payload {
            Payload::Update {
                start_version,
                n_samples,
                ..
            } => {
                assert_eq!(*start_version, 7);
                assert!(*n_samples > 0);
            }
            other => panic!("wrong payload {other:?}"),
        }
    }

    #[test]
    fn delta_upload_under_quantized_download_lands_on_the_exact_global() {
        use crate::aggregator::FedAvg;
        use crate::config::{CodecSpec, CompressionConfig, FlConfig};
        use crate::sampler::Sampler;
        use crate::server::Server;

        let cfg = FlConfig {
            concurrency: 2,
            total_rounds: 5,
            compression: CompressionConfig {
                upload: Some(CodecSpec::Identity),
                upload_delta: true,
                download: Some(CodecSpec::UniformQuant { bits: 8 }),
            },
            ..Default::default()
        };
        let (mut c, global) = make_client(1);
        c.state.compressor = cfg.compression.build_upload();
        let mut server = Server::new(
            cfg,
            global.clone(),
            2,
            Box::new(FedAvg::new(0.0)),
            Sampler::Uniform,
            None,
        );
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        for id in 1..=2 {
            let join = Message::new(id, SERVER_ID, MessageKind::JoinIn, 0, Payload::Empty);
            server.handle(&join, &mut ctx);
        }
        let broadcast = ctx
            .take_messages()
            .into_iter()
            .map(|o| o.msg)
            .find(|m| m.kind == MessageKind::ModelParams && m.receiver == 1)
            .expect("client 1 is sampled");
        let Payload::CompressedModel { block, version } = &broadcast.payload else {
            panic!(
                "expected a quantized broadcast, got {:?}",
                broadcast.payload
            );
        };
        let dequantized = decompress(block, None).unwrap();
        assert_ne!(dequantized, global, "8-bit quantization is lossy here");

        // a codec-free twin trained on the dequantized model gives `trained`
        let (mut twin, _) = make_client(1);
        let mut twin_ctx = Ctx::at(VirtualTime::ZERO);
        let shipped = Payload::Model {
            params: dequantized.clone(),
            version: *version,
        };
        let twin_msg = Message::new(SERVER_ID, 1, MessageKind::ModelParams, 0, shipped);
        twin.handle(&twin_msg, &mut twin_ctx);
        let Payload::Update {
            params: trained, ..
        } = &twin_ctx.take_messages()[0].msg.payload
        else {
            panic!("the twin sends a dense update");
        };

        let mut client_ctx = Ctx::at(VirtualTime::ZERO);
        c.handle(&broadcast, &mut client_ctx);
        let upload = client_ctx.take_messages().remove(0).msg;
        server.handle(&upload, &mut ctx);
        // one of two replies: buffered, not yet aggregated
        let received = &server.state.buffer[0].params;
        for (name, exact) in global.iter() {
            let want: Vec<u32> = trained
                .get(name)
                .unwrap()
                .data()
                .iter()
                .zip(dequantized.get(name).unwrap().data())
                .zip(exact.data())
                .map(|((&t, &d), &g)| ((t - d) + g).to_bits())
                .collect();
            let got: Vec<u32> = received
                .get(name)
                .unwrap()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, want, "{name}: exact global + (trained - dequantized)");
        }
        assert_ne!(received, trained);
    }

    #[test]
    fn finish_reports_final_metrics_and_stops() {
        let (mut c, global) = make_client(1);
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        let msg = Message::new(
            SERVER_ID,
            1,
            MessageKind::Finish,
            3,
            Payload::Model {
                params: global,
                version: 3,
            },
        );
        c.handle(&msg, &mut ctx);
        assert!(c.state.done);
        assert!(ctx.finished);
        assert!(c.state.final_test.is_some());
        assert_eq!(ctx.take_messages()[0].msg.kind, MessageKind::MetricsReport);
    }

    #[test]
    fn perf_drop_condition_counts_when_enabled() {
        let (mut c, global) = make_client(1);
        c.state.detect_perf_drop = true;
        // seed a high last_val so any real model looks like a drop
        c.state.last_val = Some(Metrics {
            loss: 0.0,
            accuracy: 1.1,
            n: 1,
        });
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        let msg = Message::new(
            SERVER_ID,
            1,
            MessageKind::ModelParams,
            0,
            Payload::Model {
                params: global,
                version: 0,
            },
        );
        c.handle(&msg, &mut ctx);
        assert_eq!(c.state.perf_drop_count, 1);
    }

    #[test]
    fn custom_handler_overrides_default() {
        let (mut c, global) = make_client(1);
        c.registry_mut().register(
            Event::Message(MessageKind::ModelParams),
            "noop",
            vec![],
            Box::new(|_, _, _| {}),
        );
        let mut ctx = Ctx::at(VirtualTime::ZERO);
        let msg = Message::new(
            SERVER_ID,
            1,
            MessageKind::ModelParams,
            0,
            Payload::Model {
                params: global,
                version: 0,
            },
        );
        c.handle(&msg, &mut ctx);
        assert!(ctx.outbox.is_empty(), "override should suppress the update");
        assert_eq!(c.state.rounds_trained, 0);
    }
}
