//! The virtual-time course loop: one deterministic discrete-event simulation
//! for every server-based course.
//!
//! Implements the paper's evaluation protocol (§5.3.1) exactly: the server
//! broadcasts at timestamp 0; a client's reply is stamped
//! `received + compute + communication` (compute from its device profile);
//! the server handles messages in timestamp order and its own time is
//! negligible, so everything it emits inherits the triggering timestamp.
//! Crashed deliveries (device failures) silently drop the round's broadcast,
//! which is what the `time_up` remedial machinery exists to absorb.
//!
//! [`Runner`] is that loop, once. What varies between courses by how they
//! were assembled, never by a config switch, is one seam: **where clients
//! live** — the slots of the one [`ClientStore`], resident clients built up
//! front or clients built on demand only while they are dispatched. The
//! loop only ever `take`s a client out and `put_back`s it.
//!
//! How a course is routed is `cfg.topology`'s to say, read at
//! [`Runner::try_run`] as the threaded driver reads it: a star routes
//! nothing; a hierarchy realizes its `TopologyPlan` as a tree router that
//! meters per-tier traffic at send time and walks server-bound messages up
//! through edge aggregators at delivery time; a serverless gossip course
//! realizes its plan and runs the peers' lockstep rounds over the same
//! clients, fleet, evaluator and monitor (crate-private `gossip` module),
//! not this event loop.
//!
//! # Event order
//!
//! The global event order is the `(VirtualTime, seq)` order of the queue,
//! where `seq` counts pushes. A server broadcast to `m` clients occupies one
//! heap entry, not `m`: it reserves `m` consecutive sequence numbers up
//! front — one per recipient, in send order — and is re-armed member by
//! member at those reserved keys. Every recipient therefore pops at exactly
//! the `(at, seq)` an individual push would have given it, so batching
//! changes memory, never order: sampler draws, timestamps and monitor
//! records are the same bit for bit.
//!
//! # Parallel execution (`FlConfig::parallelism`)
//!
//! With `parallelism > 1` the loop speculatively executes client handlers
//! on an `fs-exec` worker pool while keeping the simulation bit-identical to
//! serial execution. When the server emits a message to a client, the loop
//! already knows the exact virtual delivery time, and between that emission
//! and the delivery pop no other event can touch the client *in the common
//! case* — so the client is taken out of the store into a worker job that
//! snapshots its state and runs the handler immediately, in parallel with
//! the rest of the simulation. The speculation is remembered under the client
//! it borrowed together with the `seq` of the delivery it predicts. When a
//! delivery to that client pops with that `seq`, the loop *adopts* the
//! precomputed result (re-emitting its outputs and its dispatch span at
//! exactly the serial program point, so queue sequence numbers, RNG draws,
//! timestamps, and report fields all match serially produced ones; a client
//! handler records nothing in the monitor, which the server owns); a
//! delivery with any other `seq` got there first, so a *recall* undoes the
//! speculation — the client is rolled back to its snapshot. That is the one
//! reason work is ever undone: whether a broadcast is lost to a simulated
//! device crash is a function of (seed, receiver, delivery time), known when
//! the delivery is scheduled, so a doomed delivery is never started.
//! Because speculation only uses `take`/`put_back`, it works over either kind
//! of slot.
//! See DESIGN.md ("Determinism contract") for the full argument.

use crate::client::{Client, ClientSnapshot};
use crate::ctx::{Broadcast, Ctx, Intent, Outgoing};
use crate::eval::EvalRecord;
use crate::event::Condition;
use crate::server::Server;
use crate::store::ClientStore;
use crate::tree::{Ascent, TreeRouter};
use fs_exec::{JobHandle, WorkerPool};
use fs_monitor::{counters, MonitorHandle};
use fs_net::{Message, MessageKind, ParticipantId, Payload, Topology, SERVER_ID};
use fs_sim::{Fleet, IndexedEventQueue, VirtualTime};
use fs_verify::{verify_topology_plan, Code, Diagnostic, VerifyReport};
use std::collections::btree_map::{BTreeMap, Entry};

/// Outcome summary of a finished course.
///
/// `PartialEq` compares every field — the serial-vs-parallel determinism
/// tests assert whole-report equality.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CourseReport {
    /// Final virtual time.
    pub final_time_secs: f64,
    /// Aggregation rounds completed.
    pub rounds: u64,
    /// The global learning curve.
    pub history: Vec<EvalRecord>,
    /// Why the course ended.
    pub finish_reason: String,
    /// Updates dropped for any reason (stale or unreconstructable).
    pub dropped_updates: u64,
    /// Subset of `dropped_updates` rejected specifically by the staleness
    /// gate (the remainder failed payload reconstruction).
    pub stale_drops: u64,
    /// Total updates received.
    pub total_updates: u64,
    /// Broadcast deliveries lost to device crashes.
    pub crashed_deliveries: u64,
    /// Remedial-measure activations.
    pub remedial_count: u64,
    /// Total payload bytes sent client → server (exact wire sizes, so
    /// compressed uploads show their real savings).
    pub uploaded_bytes: u64,
    /// Total payload bytes sent server → clients.
    pub downloaded_bytes: u64,
    /// The effective `<event, handler>` pairs that took effect, per
    /// participant group — "printed out and recorded in the experimental
    /// logs" (§3.2).
    pub effective_handlers: Vec<String>,
    /// Registry overwrite warnings collected while assembling the course.
    pub registry_warnings: Vec<String>,
    /// Emit-conformance violations observed during dispatch (`FSV040`):
    /// handlers that emitted events absent from their declared `emits` list.
    pub conformance_violations: Vec<String>,
    /// Clients dropped from the course after their connection died
    /// (distributed runs only; standalone simulation never drops).
    pub dropouts: Vec<fs_net::ParticipantId>,
    /// Successful client reconnections (distributed TCP runs only).
    pub reconnects: u64,
}

impl CourseReport {
    /// The server's share of a report: rounds, learning curve, finish
    /// reason, ledger totals, dropouts, its registry output, and the
    /// effective-handler log over `clients` (representatives plus the ids
    /// they stand for; empty when the clients are gone, as after a
    /// distributed run, and for a gossip course, which runs no handler). Everything a runner meters itself — virtual time,
    /// crash and payload-byte totals — is left at zero for the runner to
    /// fill in.
    pub fn from_server(server: &Server, clients: &[(&Client, Vec<ParticipantId>)]) -> Self {
        let s = &server.state;
        CourseReport {
            rounds: s.round,
            history: s.history.clone(),
            finish_reason: s
                .finish_reason
                .clone()
                .unwrap_or_else(|| "queue drained".to_string()),
            dropped_updates: s.ledger.dropped_updates,
            stale_drops: s.ledger.stale_drops,
            total_updates: s.ledger.total_updates,
            remedial_count: s.ledger.remedial_count,
            effective_handlers: match s.cfg.topology {
                Topology::Gossip { .. } => Vec::new(),
                _ => crate::verify::effective_handler_log(server, clients),
            },
            registry_warnings: server.warnings().to_vec(),
            conformance_violations: server.violations().to_vec(),
            dropouts: s.dropouts.clone(),
            reconnects: s.reconnects,
            ..Default::default()
        }
    }

    /// Total payload bytes moved in either direction.
    pub fn total_bytes(&self) -> u64 {
        self.uploaded_bytes + self.downloaded_bytes
    }

    /// The learning-curve point with the highest accuracy, if any.
    pub fn best(&self) -> Option<&EvalRecord> {
        self.history
            .iter()
            .max_by(|a, b| a.metrics.accuracy.total_cmp(&b.metrics.accuracy))
    }

    /// Best global accuracy observed over the course (0 when never evaluated).
    pub fn best_accuracy(&self) -> f32 {
        self.best().map_or(0.0, |r| r.metrics.accuracy)
    }

    /// First virtual time (seconds) at which global accuracy reached
    /// `target`, if it ever did.
    pub fn time_to_accuracy(&self, target: f32) -> Option<f64> {
        self.history
            .iter()
            .find(|r| r.metrics.accuracy >= target)
            .map(|r| r.time_secs)
    }
}

/// Per-tier traffic totals of a finished topology course. Index `level - 1`
/// holds tier `level`; tier 1 is the root link (server ↔ top tier) and the
/// deepest tier is the leaf (client) link.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TopoReport {
    /// Number of link levels in the tree (1 for a star).
    pub levels: usize,
    /// Encoded payload bytes crossing each tier toward the root.
    pub bytes_up: Vec<u64>,
    /// Encoded payload bytes crossing each tier toward the clients.
    pub bytes_down: Vec<u64>,
    /// Messages crossing each tier toward the root.
    pub msgs_up: Vec<u64>,
    /// Messages crossing each tier toward the clients.
    pub msgs_down: Vec<u64>,
    /// Edge aggregators in the plan.
    pub edge_count: usize,
}

impl TopoReport {
    /// Bytes crossing the root link (tier 1) toward the server.
    pub fn root_bytes_up(&self) -> u64 {
        self.bytes_up.first().copied().unwrap_or(0)
    }

    /// Bytes crossing the leaf (client) tier toward the server — reconciles
    /// with `CourseReport::uploaded_bytes` by construction.
    pub fn leaf_bytes_up(&self) -> u64 {
        self.bytes_up.last().copied().unwrap_or(0)
    }
}

/// Which way a batched message fan travels.
#[derive(Clone, Copy)]
enum BatchDir {
    /// Many clients → server (the t = 0 join wave); `sender` varies.
    ToServer,
    /// Server → many clients (a broadcast); `receiver` varies.
    ToClients,
}

/// One member of a batch: its delivery key and the client it involves.
#[derive(Clone, Copy)]
struct BatchMember {
    at: VirtualTime,
    seq: u64,
    client: ParticipantId,
}

/// A message fan scheduled as a single heap entry, re-armed member by
/// member in global `(at, seq)` order.
struct Batch {
    /// The shared message; `sender`/`receiver`/`timestamp` are stamped per
    /// member at delivery.
    template: Message,
    /// Members sorted by `(at, seq)`.
    members: Vec<BatchMember>,
    /// Index of the next member to deliver.
    next: usize,
    dir: BatchDir,
}

/// An entry in the simulation's event queue.
enum SimEvent {
    /// Deliver a message to its receiver. Boxed so that the queue's slot
    /// table — sized by the widest variant and by the most events ever
    /// pending at once — stays a few words per entry.
    Deliver(Box<Message>),
    /// Deliver a message of a kind the client store does not handle. Nobody
    /// will read it, so only what its delivery records survives the queue —
    /// a million joins mean a million `IdAssignment`s in flight.
    Unread {
        receiver: ParticipantId,
        kind: MessageKind,
    },
    /// Deliver the next member of a batch.
    Batch(Box<Batch>),
    /// Fire a timer-armed condition on a participant.
    Timer {
        /// The participant the timer belongs to (only the server's fire).
        to: ParticipantId,
        condition: Condition,
        /// The round the timer was armed in.
        round: u64,
    },
}

/// What a speculation job sends back to the simulation thread.
struct SpecResult {
    /// The client, moved back. Post-dispatch state when `run` is `Some`,
    /// untouched when `None`.
    client: Box<Client>,
    /// The executed speculation, or `None` when the client's trainer could
    /// not be snapshotted (it then runs serially at the delivery pop).
    run: Option<SpecRun>,
}

/// The outputs of a speculatively executed dispatch.
struct SpecRun {
    /// Pre-dispatch client state, for rollback on recall.
    snapshot: ClientSnapshot,
    /// The handler's recorded intents, to be enqueued at adopt time.
    ctx: Ctx,
}

impl SpecResult {
    /// The client as it was before the speculation touched it.
    fn rolled_back(self) -> Box<Client> {
        let mut client = self.client;
        if let Some(run) = self.run {
            client.restore(run.snapshot);
        }
        client
    }
}

/// A client handler started ahead of its delivery.
struct Speculation {
    /// Queue sequence number of the delivery the job predicts. The message
    /// itself stays in its ordinary queue entry; a delivery to the client
    /// under any other `seq` falsifies the prediction.
    seq: u64,
    job: JobHandle<SpecResult>,
}

/// Runs an FL course under virtual time.
pub struct Runner {
    /// The server participant.
    pub server: Server,
    /// The client participants.
    pub clients: ClientStore,
    /// Device profiles.
    pub fleet: Fleet,
    /// The hierarchy `cfg.topology` names, realized at [`Runner::try_run`];
    /// `None` for a star, which routes nothing, and for gossip.
    tree: Option<TreeRouter>,
    /// A finished gossip course's traffic.
    gossip: Option<TopoReport>,
    /// Current virtual time.
    pub now: VirtualTime,
    /// Broadcast deliveries dropped by simulated device crashes.
    pub crashed_deliveries: u64,
    /// Payload bytes sent toward the server so far.
    pub uploaded_bytes: u64,
    /// Payload bytes sent toward clients so far.
    pub downloaded_bytes: u64,
    queue: IndexedEventQueue<SimEvent>,
    max_events: u64,
    events_processed: u64,
    pub(crate) monitor: MonitorHandle,
    /// Worker pool for speculative client execution; `None` runs serially.
    pool: Option<WorkerPool>,
    /// The (single) outstanding speculation per borrowed client.
    speculations: BTreeMap<ParticipantId, Speculation>,
    /// The context every serial dispatch runs in, reset before each one so
    /// its buffers are allocated once per course.
    ctx: Ctx,
}

/// What every `CourseBuilder::build` returns.
pub type StandaloneRunner = Runner;

impl Runner {
    /// Assembles a runner; the course starts when [`Runner::run`] is called.
    pub(crate) fn new(server: Server, clients: ClientStore, fleet: Fleet) -> Self {
        assert_eq!(
            fleet.len(),
            clients.ids().len(),
            "fleet size must match client count"
        );
        Self {
            server,
            clients,
            fleet,
            tree: None,
            gossip: None,
            now: VirtualTime::ZERO,
            crashed_deliveries: 0,
            uploaded_bytes: 0,
            downloaded_bytes: 0,
            queue: IndexedEventQueue::new(),
            max_events: 50_000_000,
            events_processed: 0,
            monitor: MonitorHandle::null(),
            pool: None,
            speculations: BTreeMap::new(),
            ctx: Ctx::at(VirtualTime::ZERO),
        }
    }

    /// Caps the number of processed events (safety valve for tests).
    pub fn with_max_events(mut self, max: u64) -> Self {
        self.max_events = max;
        self
    }

    /// Attaches an observability sink. Dispatch spans, charged virtual-time
    /// intervals, byte/message counters, and per-round metrics flow into it;
    /// the default null handle keeps all of that free.
    pub fn with_monitor(mut self, monitor: MonitorHandle) -> Self {
        self.monitor = monitor;
        self
    }

    /// Number of simulation events processed by the last run.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Per-tier traffic of a hierarchical course so far, or a finished
    /// gossip course's one tier of peer links; `None` for a star, whose
    /// single tier already *is* the report's byte pair.
    pub fn topo_report(&self) -> Option<TopoReport> {
        let tree = self.tree.as_ref().map(|tree| tree.report().clone());
        tree.or_else(|| self.gossip.clone())
    }

    /// Runs the course to completion and returns the report, or the
    /// verification report when the preflight finds an Error: static
    /// analysis and config lints, the realized plan's findings or a
    /// topology that does not fit the course (`FSV050`), or a fleet that
    /// can crash clients under a rule with no round timer (`FSV065`). A
    /// gossip course is gated on its plan alone, and no fleet crash applies
    /// to it: it sends no broadcast a crash could lose.
    pub fn try_run(&mut self) -> Result<CourseReport, Box<VerifyReport>> {
        let cfg = &self.server.state.cfg;
        let mut extra = Vec::new();
        match cfg.topology {
            // a star routes nothing and so builds nothing
            Topology::Star => {}
            Topology::Hierarchical { .. } => {
                match crate::verify::course_plan(cfg, self.fleet.len()) {
                    Ok(plan) => {
                        extra = verify_topology_plan(&plan).diagnostics;
                        self.tree = Some(TreeRouter::new(plan, cfg));
                    }
                    Err(refused) => extra.push(refused),
                }
            }
            Topology::Gossip { .. } => {
                let plan = crate::gossip::gossip_plan(cfg, self.fleet.len())?;
                self.gossip = Some(self.run_gossip(&plan));
                return Ok(self.report());
            }
        }
        // a crashed broadcast leaves its client busy for good; only a
        // timer-armed rule has a remedial measure that re-arms the round
        if cfg.rule.round_timer().is_none()
            && self.fleet.profiles().iter().any(|p| p.crash_prob > 0.0)
        {
            extra.push(
                Diagnostic::new(
                    Code::CrashesWithoutTimer,
                    "rule",
                    "the fleet can crash clients but the rule arms no round timer: \
                     the first crashed broadcast stalls its round for good",
                )
                .with_suggestion("use a timer-armed rule (time_up) or a crash-free fleet"),
            );
        }
        crate::verify::preflight(&self.server, &self.clients.groups(), extra)?;
        Ok(self.run_unchecked())
    }

    /// Runs the course to completion (queue drained or event cap reached) and
    /// returns the report.
    ///
    /// # Panics
    /// Panics with the rendered diagnostic table when the course is refused
    /// (see [`Runner::try_run`], the recoverable form).
    pub fn run(&mut self) -> CourseReport {
        match self.try_run() {
            Ok(report) => report,
            #[expect(
                clippy::panic,
                reason = "the doc-comment contract: run() panics on a refusal, try_run is the recoverable path"
            )]
            Err(verify) => panic!("course rejected by static verification:\n{verify}"),
        }
    }

    fn run_unchecked(&mut self) -> CourseReport {
        // counter adds from the event loop (delivery, participation, remedial
        // and timer paths) go to a lock-free sharded bank and are folded into
        // the monitor once at the flush below — commutative totals, so the
        // deferred fold is observably identical
        self.monitor = self.monitor.clone().sharded();
        self.server.state.monitor = self.monitor.clone();
        // the parallelism knob: 1 = serial (no pool), 0 = one worker per
        // available core, n > 1 = n workers
        let parallelism = self.server.state.cfg.parallelism;
        if parallelism != 1 && self.pool.is_none() {
            self.pool = Some(WorkerPool::new(parallelism));
        }
        self.kickoff();
        let mut events = 0u64;
        while let Some((at, seq, ev)) = self.queue.pop() {
            if events == self.max_events {
                self.server.state.finish_reason =
                    Some(format!("event cap {} reached", self.max_events));
                break;
            }
            events += 1;
            self.now = at;
            if let Err(why) = self.handle_event(at, seq, ev) {
                self.server.state.finish_reason = Some(why);
                break;
            }
        }
        self.events_processed = events;
        // undone speculations (possible only when the loop broke early) must
        // be rolled back so client state matches the serial run
        self.drain_speculations();
        self.monitor.flush_counters();
        self.report()
    }

    /// Kick off: every client asks to join at t = 0. Joining is not a
    /// registered handler — [`Client::join_request`] is all a client does —
    /// so the wave is charged and scheduled as one batch without taking a
    /// single client out of its store.
    fn kickoff(&mut self) {
        let ids = self.clients.ids();
        let Some(&first) = ids.first() else {
            return;
        };
        let mut template = Client::join_request(first);
        let payload_bytes = template.payload_bytes();
        let seq0 = self.queue.reserve_seqs(ids.len() as u64);
        let mut members = Vec::with_capacity(ids.len());
        for (i, id) in ids.into_iter().enumerate() {
            self.monitor
                .enter(id, "start", "dispatch", VirtualTime::ZERO);
            self.monitor.exit(id, VirtualTime::ZERO);
            template.sender = id;
            let at = self.charge_send(id, &template, payload_bytes, 0.0, VirtualTime::ZERO);
            members.push(BatchMember {
                at,
                seq: seq0 + i as u64,
                client: id,
            });
        }
        self.schedule_batch(template, members, BatchDir::ToServer);
    }

    fn handle_event(&mut self, at: VirtualTime, seq: u64, ev: SimEvent) -> Result<(), String> {
        if !matches!(ev, SimEvent::Timer { .. }) {
            self.monitor.add(counters::MESSAGES_DELIVERED, 1);
        }
        match ev {
            SimEvent::Deliver(msg) => {
                if msg.receiver == SERVER_ID {
                    self.deliver_server(at, &msg)?;
                } else {
                    self.deliver_client(at, seq, &msg);
                }
            }
            SimEvent::Unread { receiver, kind } => {
                let header = Message::new(SERVER_ID, receiver, kind, 0, Payload::Empty);
                self.deliver_client(at, seq, &header);
            }
            SimEvent::Batch(mut batch) => {
                let m = batch.members[batch.next];
                batch.next += 1;
                batch.template.timestamp = m.at.as_secs();
                let delivered = match batch.dir {
                    BatchDir::ToServer => {
                        batch.template.sender = m.client;
                        self.deliver_server(at, &batch.template)
                    }
                    BatchDir::ToClients => {
                        batch.template.receiver = m.client;
                        self.deliver_client(at, seq, &batch.template);
                        Ok(())
                    }
                };
                // re-arm at the next member's reserved key
                if let Some(next) = batch.members.get(batch.next) {
                    let (at, seq) = (next.at, next.seq);
                    self.queue.push_at_seq(at, seq, SimEvent::Batch(batch));
                }
                delivered?;
            }
            SimEvent::Timer {
                to,
                condition,
                round,
            } => {
                if to == SERVER_ID {
                    self.dispatch_server(at, "timer", |server, ctx| {
                        server.handle_timer(condition, round, ctx)
                    });
                }
            }
        }
        Ok(())
    }

    /// Delivers a server-bound message: up through the tree, if there is
    /// one, then into the server's handler.
    fn deliver_server(&mut self, at: VirtualTime, msg: &Message) -> Result<(), String> {
        let merged;
        let msg = match self.tree.as_mut() {
            None => msg,
            Some(tree) => match tree.ascend(at, msg, &self.monitor)? {
                Ascent::Through => msg,
                Ascent::Absorbed => return Ok(()),
                Ascent::Merged(m) => {
                    merged = m;
                    &merged
                }
            },
        };
        self.dispatch_server(at, msg.kind.name(), |server, ctx| server.handle(msg, ctx));
        Ok(())
    }

    /// Runs one server dispatch and realizes its intents.
    fn dispatch_server(
        &mut self,
        at: VirtualTime,
        label: &'static str,
        dispatch: impl FnOnce(&mut Server, &mut Ctx),
    ) {
        self.dispatch_in_ctx(SERVER_ID, at, |runner, ctx| {
            runner.monitor.enter(SERVER_ID, label, "dispatch", at);
            dispatch(&mut runner.server, ctx);
            runner.monitor.exit(SERVER_ID, at);
        });
    }

    /// Runs `dispatch` for `from` in the loop's context, reset to `at`, then
    /// realizes what it recorded.
    fn dispatch_in_ctx(
        &mut self,
        from: ParticipantId,
        at: VirtualTime,
        dispatch: impl FnOnce(&mut Self, &mut Ctx),
    ) {
        // lent out for the dispatch, which needs the rest of `self`
        let mut ctx = std::mem::replace(&mut self.ctx, Ctx::at(at));
        ctx.reset(at);
        dispatch(self, &mut ctx);
        self.realize(from, &mut ctx);
        self.ctx = ctx;
    }

    /// Whether a `ModelParams` broadcast reaching `receiver` at `at` is lost
    /// to a device crash: keyed by (course seed, receiver, delivery time), so
    /// the answer is the same when the delivery is scheduled as when it pops.
    fn doomed(&self, receiver: ParticipantId, at: VirtualTime) -> bool {
        self.fleet
            .delivery_lost(self.server.state.cfg.seed, receiver, at)
    }

    /// The crash outcome of a popped delivery and the crash/participation
    /// counter that follows from it. The serial and the speculated delivery
    /// path both come through here, at the pop, so the monitor stream is the
    /// same on both.
    fn lost_to_crash(
        &mut self,
        receiver: ParticipantId,
        kind: MessageKind,
        at: VirtualTime,
    ) -> bool {
        if kind != MessageKind::ModelParams {
            return false;
        }
        let lost = self.doomed(receiver, at);
        if lost {
            self.crashed_deliveries += 1;
            self.monitor.add(counters::CRASHED_DELIVERIES, 1);
        } else {
            self.monitor.add(counters::PARTICIPATION, 1);
        }
        lost
    }

    /// Delivers a client-bound message popped under `seq`: adopts the
    /// speculation that predicted exactly this delivery, otherwise takes the
    /// serial path — crash outcome, then dispatch.
    fn deliver_client(&mut self, at: VirtualTime, seq: u64, msg: &Message) {
        match self.speculations.entry(msg.receiver) {
            Entry::Occupied(spec) if spec.get().seq == seq => {
                let res = spec.remove().job.join();
                self.deliver_speculated(at, msg, res);
            }
            // a lost broadcast never reaches the client (and any speculation
            // on it stays valid — the client handles nothing)
            _ => {
                if !self.lost_to_crash(msg.receiver, msg.kind, at) {
                    self.dispatch_client(at, msg);
                }
            }
        }
    }

    /// Runs a client handler inline on the simulation thread. Recalls any
    /// outstanding speculation on the receiver first — its prediction is
    /// invalidated by this earlier delivery.
    fn dispatch_client(&mut self, at: VirtualTime, msg: &Message) {
        let id = msg.receiver;
        if !self.clients.handles(msg.kind) {
            // only the dispatch span is observable
            self.monitor.enter(id, msg.kind.name(), "dispatch", at);
            self.monitor.exit(id, at);
            return;
        }
        self.recall(id);
        if let Some(mut client) = self.clients.take(id) {
            self.dispatch_in_ctx(id, at, |runner, ctx| {
                runner.monitor.enter(id, msg.kind.name(), "dispatch", at);
                client.handle(msg, ctx);
                runner.monitor.exit(id, at);
                runner.clients.put_back(client, &runner.server);
            });
        }
    }

    /// The delivery a speculation predicted has popped: adopt the
    /// precomputed dispatch, or dispatch serially when nothing could be
    /// precomputed. A doomed delivery is never speculated on, so there is no
    /// crash to undo here.
    fn deliver_speculated(&mut self, at: VirtualTime, msg: &Message, res: SpecResult) {
        let (receiver, kind) = (msg.receiver, msg.kind);
        let lost = self.lost_to_crash(receiver, kind, at);
        debug_assert!(!lost, "a doomed delivery was speculated on");
        self.clients.put_back(res.client, &self.server);
        match res.run {
            Some(mut run) => {
                // adopt: re-emit outputs and the dispatch span at exactly the
                // serial program point
                self.monitor.enter(receiver, kind.name(), "dispatch", at);
                self.monitor.exit(receiver, at);
                self.realize(receiver, &mut run.ctx);
            }
            // trainer not snapshotable: nothing ran, dispatch serially now
            None => self.dispatch_client(at, msg),
        }
    }

    /// Realizes one dispatch's intents: sends and cohort broadcasts in
    /// emission order (so sequence numbers are assigned in that order), then
    /// timers. Leaves `ctx`'s lists empty.
    fn realize(&mut self, from: ParticipantId, ctx: &mut Ctx) {
        let now = ctx.now;
        for intent in ctx.outbox.drain(..) {
            match intent {
                Intent::Send(out) => self.send_one(from, now, out),
                Intent::Broadcast(b) => self.send_batch(now, b),
            }
        }
        for t in ctx.timers.drain(..) {
            self.queue.push(
                now + t.delay_secs,
                SimEvent::Timer {
                    to: from,
                    condition: t.condition,
                    round: t.round,
                },
            );
        }
    }

    /// Charges one send and returns its delivery time: message and byte
    /// counters (the monitor's are bumped at the same statements that charge
    /// the report's totals, so they reconcile exactly), the tree's
    /// bookkeeping, and the device delay with its spans — server time is
    /// negligible so the receiver pays the download; a client pays its
    /// compute, then its upload.
    fn charge_send(
        &mut self,
        from: ParticipantId,
        msg: &Message,
        payload_bytes: usize,
        compute_work: f64,
        now: VirtualTime,
    ) -> VirtualTime {
        let bytes = payload_bytes as u64;
        self.monitor.add(counters::MESSAGES_SENT, 1);
        if msg.receiver == SERVER_ID {
            self.uploaded_bytes += bytes;
            self.monitor.add(counters::UPLOADED_BYTES, bytes);
        } else {
            self.downloaded_bytes += bytes;
            self.monitor.add(counters::DOWNLOADED_BYTES, bytes);
        }
        if let Some(tree) = self.tree.as_mut() {
            tree.on_send(from, msg, bytes, &self.monitor);
        }
        let live = self.monitor.is_live();
        let delay = if from == SERVER_ID {
            let comm = self.fleet.profile(msg.receiver).comm_secs(payload_bytes);
            if live && comm > 0.0 {
                self.monitor
                    .span(msg.receiver, "download", "comm", now, comm);
            }
            comm
        } else {
            let p = self.fleet.profile(from);
            let compute = p.compute_secs(compute_work.round() as usize);
            let comm = p.comm_secs(payload_bytes);
            if live && compute > 0.0 {
                self.monitor
                    .span(from, "local_train", "compute", now, compute);
            }
            if live && comm > 0.0 {
                self.monitor
                    .span(from, "upload", "comm", now + compute, comm);
            }
            compute + comm
        };
        now + delay
    }

    /// One individual send.
    fn send_one(&mut self, from: ParticipantId, now: VirtualTime, out: Outgoing) {
        let mut msg = out.msg;
        let at = self.charge_send(from, &msg, msg.payload_bytes(), out.compute_work, now);
        msg.timestamp = at.as_secs();
        let (receiver, kind) = (msg.receiver, msg.kind);
        let seq = self.queue.reserve_seqs(1);
        let ev = if receiver != SERVER_ID && !self.clients.handles(kind) {
            SimEvent::Unread { receiver, kind }
        } else {
            self.speculate(from, at, seq, &msg);
            SimEvent::Deliver(Box::new(msg))
        };
        self.queue.push_at_seq(at, seq, ev);
    }

    /// One cohort broadcast: per-target counters, spans, and delivery keys
    /// exactly as if each copy had been sent individually, stored as a single
    /// [`Batch`] occupying one heap entry.
    fn send_batch(&mut self, now: VirtualTime, b: Broadcast) {
        let mut template = Message::new(SERVER_ID, SERVER_ID, b.kind, b.round, b.payload);
        let payload_bytes = template.payload_bytes();
        let seq0 = self.queue.reserve_seqs(b.targets.len() as u64);
        let mut members = Vec::with_capacity(b.targets.len());
        for (j, &c) in b.targets.iter().enumerate() {
            template.receiver = c;
            let at = self.charge_send(SERVER_ID, &template, payload_bytes, 0.0, now);
            let seq = seq0 + j as u64;
            template.timestamp = at.as_secs();
            self.speculate(SERVER_ID, at, seq, &template);
            members.push(BatchMember { at, seq, client: c });
        }
        self.schedule_batch(template, members, BatchDir::ToClients);
    }

    /// Sorts a batch's members into `(at, seq)` order and schedules its
    /// first member.
    fn schedule_batch(&mut self, template: Message, mut members: Vec<BatchMember>, dir: BatchDir) {
        members.sort_by_key(|m| (m.at, m.seq));
        let Some(first) = members.first().copied() else {
            return;
        };
        let batch = Box::new(Batch {
            template,
            members,
            next: 0,
            dir,
        });
        self.queue
            .push_at_seq(first.at, first.seq, SimEvent::Batch(batch));
    }

    /// Starts handling `msg` — which will be delivered at `deliver_at` under
    /// queue key `seq` — on a worker now, if it may: only server → client
    /// traffic of the kinds that trigger real work (training, evaluation) is
    /// worth speculating, only one speculation per client at a time, never
    /// a broadcast a device crash will eat, and only when the receiver is
    /// there to take. The client moves into a job
    /// that snapshots it and runs the handler on a copy of the message
    /// (tensor storage is shared, copy-on-write).
    fn speculate(&mut self, from: ParticipantId, deliver_at: VirtualTime, seq: u64, msg: &Message) {
        let Some(pool) = self.pool.as_ref() else {
            return;
        };
        let worthwhile = matches!(
            msg.kind,
            MessageKind::ModelParams | MessageKind::EvalRequest | MessageKind::Finish
        );
        if from != SERVER_ID
            || msg.receiver == SERVER_ID
            || !worthwhile
            || self.speculations.contains_key(&msg.receiver)
            || (msg.kind == MessageKind::ModelParams && self.doomed(msg.receiver, deliver_at))
        {
            return;
        }
        let Some(mut client) = self.clients.take(msg.receiver) else {
            return;
        };
        let msg = msg.clone();
        let receiver = msg.receiver;
        let job = pool.spawn(move || {
            let Some(snapshot) = client.snapshot() else {
                return SpecResult { client, run: None };
            };
            let mut ctx = Ctx::at(deliver_at);
            client.handle(&msg, &mut ctx);
            SpecResult {
                client,
                run: Some(SpecRun { snapshot, ctx }),
            }
        });
        self.speculations.insert(receiver, Speculation { seq, job });
    }

    /// Recalls the outstanding speculation on `id`, if any: joins the job
    /// and rolls the client back to its pre-dispatch snapshot. The predicted
    /// delivery is still queued with its message; it finds no speculation
    /// under its `seq` and dispatches serially.
    fn recall(&mut self, id: ParticipantId) {
        if let Some(spec) = self.speculations.remove(&id) {
            self.clients
                .put_back(spec.job.join().rolled_back(), &self.server);
        }
    }

    /// Rolls back every outstanding speculation (used when the run stops
    /// with queued events still pending, e.g. at the event cap, so client
    /// state matches a serial run that never dispatched them).
    fn drain_speculations(&mut self) {
        let ids: Vec<ParticipantId> = self.speculations.keys().copied().collect();
        for id in ids {
            self.recall(id);
        }
    }

    /// Builds the course report from the current state.
    pub fn report(&self) -> CourseReport {
        let mut report = CourseReport::from_server(&self.server, &self.clients.groups());
        for (warnings, violations) in self.clients.registry_output() {
            merge_unique(&mut report.registry_warnings, warnings);
            merge_unique(&mut report.conformance_violations, violations);
        }
        report.final_time_secs = self.now.as_secs();
        report.crashed_deliveries = self.crashed_deliveries;
        report.uploaded_bytes = self.uploaded_bytes;
        report.downloaded_bytes = self.downloaded_bytes;
        report
    }
}

/// Appends the lines of `from` not already in `into`, keeping first-seen
/// order (how registry warnings and conformance violations are collected).
pub(crate) fn merge_unique(into: &mut Vec<String>, from: &[String]) {
    for line in from {
        if !into.contains(line) {
            into.push(line.clone());
        }
    }
}
