//! Where a course's clients live between dispatches.
//!
//! One type, [`ClientStore`], holds every course's clients: a `Vec` of slots
//! indexed by `id − 1` (every builder numbers its clients `1..=n`). A slot
//! is either a **resident** client — built up front by
//! [`crate::CourseBuilder::new`] and held for the whole course — or a client
//! built on demand (by `CourseBuilder::from_dataset` / `synthetic`) from one
//! shared factory:
//!
//! * **untouched** — never dispatched: the factory's template state *is*
//!   this client. A `Finish` it receives while the server does not count
//!   it busy is answered without building it: a trainer over a pooled
//!   model evaluates the final model through the `finalize` handler's own
//!   function, and the slot goes straight to finished;
//! * **active** — out of the store, mid-dispatch or inside a speculation
//!   job (a taken resident client leaves the same mark);
//! * **dormant** — dispatched before; only the small resumable state is
//!   kept (optimizer, RNG stream, counters, codec state and, under a
//!   partial share filter, the private parameters);
//! * **finished** — done and out of the server's reach: only its count of
//!   rounds trained is kept, inline in the slot. Its final metrics are the
//!   server's `client_reports` entry.
//!
//! So an idle on-demand client costs one 16-byte slot, a full [`Client`]
//! exists only while the loop has it out, and model tensors are recycled
//! through a pool. Which kind of slot a store holds is fixed by the builder
//! constructor; nothing in `FlConfig` chooses it.
//!
//! The loop is the only caller of [`ClientStore::dispatch`] (a serial
//! delivery), [`ClientStore::take`] and [`ClientStore::put_back`] (a
//! speculation), and holds at most one client per id out of the store at a
//! time. The store sees the ids it is asked for, the clients handed back,
//! the context a dispatch writes into and (in `dispatch` and `put_back`)
//! the server at that program point; it never sees the queue or the
//! monitor, so it cannot perturb event order.
//!
//! # Determinism contract
//!
//! A client built on demand is indistinguishable from a resident one: its
//! first activation builds it from the shared `ClientBlueprint` exactly as
//! the up-front builder would (same template, same per-index seed, same
//! codec), and every later activation resumes the retained optimizer, RNG
//! stream, counters, codec state and private parameters. The data closure
//! must be pure — identical splits for identical indices — because it is
//! re-run on every activation, possibly on the send side of a speculation
//! rather than at delivery.

use crate::client::{evaluate_and_report, Client, ClientState};
use crate::course::{ClientBlueprint, DataSource};
use crate::ctx::Ctx;
use crate::runner::merge_unique;
use crate::server::Server;
use crate::trainer::LocalTrainer;
use fs_net::{Message, MessageKind, ParticipantId};
use fs_tensor::model::{Metrics, Model};
use fs_tensor::optim::Sgd;
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::mem;

/// The resumable state of an on-demand client between dispatches.
struct Dormant {
    opt: Sgd,
    rng: StdRng,
    rounds_trained: u64,
    last_val: Option<Metrics>,
    perf_drop_count: u64,
    done: bool,
    final_test: Option<Metrics>,
    compressor: Option<Box<dyn fs_compress::Compressor>>,
    private: ParamMap,
}

/// One client's place in the store (see the module docs for the states).
enum Slot {
    Resident(Box<Client>),
    Untouched,
    Active,
    Dormant(Box<Dormant>),
    /// Done, with this many rounds trained.
    Finished(u64),
}

/// Builds on-demand clients and keeps what they leave behind.
struct ClientFactory {
    blueprint: ClientBlueprint,
    /// Template parameters failing the share filter. Empty when everything
    /// is shared (then every key is overwritten by `incorporate` before any
    /// observation, so no restore is needed on materialization).
    template_private: ParamMap,
    data: DataSource,
    /// Recycled model allocations (one deep under serial dispatch, up to the
    /// cohort size under speculation).
    pool: Vec<Box<dyn Model>>,
    /// Client 1 in its initial state, never dispatched: what verification
    /// and the handler log see (every on-demand client has the default
    /// handler table). `None` for an empty course.
    rep: Option<Box<Client>>,
    /// Registry warnings and conformance violations per client id,
    /// harvested as clients go dormant.
    harvested: BTreeMap<ParticipantId, (Vec<String>, Vec<String>)>,
}

/// Every client of a course, resident or built on demand, one slot each.
pub struct ClientStore {
    slots: Vec<Slot>,
    /// `None` when every client is resident.
    factory: Option<Box<ClientFactory>>,
}

impl ClientStore {
    /// A store of resident clients, `clients[i]` being client `i + 1`.
    pub(crate) fn resident(clients: Vec<Client>) -> Self {
        let slots = clients.into_iter().map(|c| Slot::Resident(Box::new(c)));
        Self {
            slots: slots.collect(),
            factory: None,
        }
    }

    /// A store of `n` untouched clients built on demand from `blueprint`
    /// and the split `data` returns for each index.
    pub(crate) fn on_demand(blueprint: ClientBlueprint, data: DataSource, n: usize) -> Self {
        let share = &blueprint.share;
        let template_private = blueprint.template.get_params().filter(|k| !share(k));
        let mut factory = ClientFactory {
            blueprint,
            template_private,
            data,
            pool: Vec::new(),
            rep: None,
            harvested: BTreeMap::new(),
        };
        factory.rep = (n > 0).then(|| factory.build(0, Slot::Untouched));
        Self {
            slots: (0..n).map(|_| Slot::Untouched).collect(),
            factory: Some(Box::new(factory)),
        }
    }

    /// Every client id in the course, ascending.
    pub fn ids(&self) -> Vec<ParticipantId> {
        (1..=self.slots.len() as ParticipantId).collect()
    }

    /// Moves client `id` out of the store for a dispatch (or a speculation),
    /// building it first when it is not resident. `None` when the id is
    /// unknown or the client is already out. A finished on-demand client
    /// comes back done, with its rounds trained and nothing else: its final
    /// metrics are the server's `client_reports` entry.
    pub fn take(&mut self, id: ParticipantId) -> Option<Box<Client>> {
        let idx = (id as usize).checked_sub(1)?;
        let slot = self.slots.get_mut(idx)?;
        match mem::replace(slot, Slot::Active) {
            Slot::Resident(client) => Some(client),
            Slot::Active => None,
            state => Some(self.factory.as_mut()?.build(idx, state)),
        }
    }

    /// Hands `msg` to client `msg.receiver` in the dispatch context `ctx`:
    /// takes the client out, lets it handle the message and puts it back.
    /// `false`, with nothing done, when the client is unknown or out.
    ///
    /// A `Finish` to an untouched on-demand client that `server` no longer
    /// counts as busy is answered without building the client: a trainer
    /// from the blueprint evaluates the final model and reports, exactly as
    /// the `finalize` handler would, and the slot ends finished with no
    /// rounds trained, as `put_back` would have left it.
    pub fn dispatch(&mut self, msg: &Message, ctx: &mut Ctx, server: &Server) -> bool {
        let id = msg.receiver;
        let idx = (id as usize).wrapping_sub(1);
        let unbuilt = msg.kind == MessageKind::Finish
            && matches!(self.slots.get(idx), Some(Slot::Untouched))
            && !server.state.busy.contains(&id);
        match self.factory.as_mut() {
            Some(factory) if unbuilt => {
                let mut trainer = factory.trainer(idx, None);
                evaluate_and_report(id, &mut trainer, msg, ctx);
                factory.pool.push(trainer.model);
                self.slots[idx] = Slot::Finished(0);
                ctx.finished = true;
            }
            _ => {
                let Some(mut client) = self.take(id) else {
                    return false;
                };
                client.handle(msg, ctx);
                self.put_back(client, server);
            }
        }
        true
    }

    /// Returns a client after its dispatch (or a rolled-back speculation).
    /// An on-demand client is dismantled to what it needs to resume —
    /// nothing once it is done and `server` (at this program point, the same
    /// under serial and speculative execution) can no longer reach it.
    pub fn put_back(&mut self, client: Box<Client>, server: &Server) {
        let idx = (client.state.id - 1) as usize;
        self.slots[idx] = match self.factory.as_mut() {
            None => Slot::Resident(client),
            Some(factory) => factory.dismantle(*client, server),
        };
    }

    /// Representative clients and the ids each stands for: what static
    /// verification and the effective-handler log are computed over.
    pub fn groups(&self) -> Vec<(&Client, Vec<ParticipantId>)> {
        match &self.factory {
            Some(f) => f.rep.iter().map(|rep| (&**rep, self.ids())).collect(),
            None => crate::verify::singleton_groups(self.values()),
        }
    }

    /// Every client's registry warnings and conformance violations, in id
    /// order.
    pub fn registry_output(&self) -> impl Iterator<Item = (&[String], &[String])> {
        let harvested = self.factory.iter().flat_map(|f| f.harvested.values());
        self.values()
            .map(|c| (c.warnings(), c.violations()))
            .chain(harvested.map(|(w, v)| (&w[..], &v[..])))
    }

    /// `false` when every client's handler for `kind` is known to have no
    /// effect, so the loop can record the dispatch without taking the
    /// receiver out: an on-demand client's `IdAssignment` lands on the
    /// default `confirm_id` handler, a pure debug assertion not worth
    /// building a client per join for.
    pub fn handles(&self, kind: MessageKind) -> bool {
        self.factory.is_none() || kind != MessageKind::IdAssignment
    }

    /// Every client, in id order (built, when not resident; see
    /// [`ClientStore::take`] for what a finished on-demand client keeps).
    pub fn into_values(mut self) -> impl Iterator<Item = Client> {
        (1..=self.slots.len() as ParticipantId).filter_map(move |id| self.take(id).map(|c| *c))
    }

    /// The resident clients, in id order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Client> {
        self.slots.iter_mut().filter_map(|slot| match slot {
            Slot::Resident(client) => Some(&mut **client),
            _ => None,
        })
    }

    /// Resident client `id`, if it is in the store.
    pub fn get_mut(&mut self, id: &ParticipantId) -> Option<&mut Client> {
        self.values_mut().find(|c| c.state.id == *id)
    }

    fn values(&self) -> impl Iterator<Item = &Client> {
        self.slots.iter().filter_map(|slot| match slot {
            Slot::Resident(client) => Some(&**client),
            _ => None,
        })
    }
}

impl ClientFactory {
    /// Builds client `idx + 1` from its slot: a pooled (or fresh) model
    /// allocation, the deterministic data split, and either the blueprint's
    /// initial state (untouched, or finished — done, with its rounds
    /// trained; a finished client is only ever rebuilt by a delivery the
    /// server can no longer produce, or to be read) or the retained dormant
    /// state.
    fn build(&mut self, idx: usize, slot: Slot) -> Box<Client> {
        let Slot::Dormant(d) = slot else {
            let trainer = self.trainer(idx, None);
            let mut client = Box::new(self.blueprint.client(idx, Box::new(trainer)));
            if let Slot::Finished(rounds_trained) = slot {
                client.state.rounds_trained = rounds_trained;
                client.state.done = true;
            }
            return client;
        };
        let d = *d;
        let mut trainer = self.trainer(idx, Some(&d.private));
        trainer.opt = d.opt;
        trainer.rng = d.rng;
        let mut client = Box::new(self.blueprint.client(idx, Box::new(trainer)));
        let state = &mut client.state;
        state.rounds_trained = d.rounds_trained;
        state.last_val = d.last_val;
        state.perf_drop_count = d.perf_drop_count;
        state.done = d.done;
        state.final_test = d.final_test;
        state.compressor = d.compressor;
        client
    }

    /// Client `idx + 1`'s initial trainer on a pooled (or fresh) model
    /// allocation and its deterministic data split, the model holding
    /// `private` (default: the template's) as its unshared parameters.
    fn trainer(&mut self, idx: usize, private: Option<&ParamMap>) -> LocalTrainer {
        let blueprint = &self.blueprint;
        let mut model = self
            .pool
            .pop()
            .unwrap_or_else(|| blueprint.template.clone_model());
        model.set_params(private.unwrap_or(&self.template_private));
        blueprint.local_trainer(idx, model, (self.data)(idx))
    }

    /// Dismantles a client after its dispatch: harvests its registry
    /// output, recycles the model allocation into the pool, and keeps only
    /// the resumable state (or nothing, when the client is provably done).
    fn dismantle(&mut self, client: Client, server: &Server) -> Slot {
        let id = client.state.id;
        if !client.warnings().is_empty() || !client.violations().is_empty() {
            let (warnings, violations) = self.harvested.entry(id).or_default();
            merge_unique(warnings, client.warnings());
            merge_unique(violations, client.violations());
        }
        let Client { state, .. } = client;
        let ClientState {
            trainer,
            rounds_trained,
            last_val,
            perf_drop_count,
            compressor,
            done,
            final_test,
            ..
        } = state;
        #[expect(
            clippy::expect_used,
            reason = "build() gives every on-demand client a LocalTrainer"
        )]
        let trainer = trainer
            .into_local()
            .expect("an on-demand client is LocalTrainer-backed");
        let private = if self.template_private.is_empty() {
            ParamMap::new()
        } else {
            let share = &self.blueprint.share;
            trainer.model.get_params().filter(|k| !share(k))
        };
        self.pool.push(trainer.model);
        // a done client still in the server's busy set may yet receive an
        // in-flight ModelParams (post-Finish training is legal and must be
        // bit-identical), so it keeps its dormant state
        if done && !server.state.busy.contains(&id) {
            return Slot::Finished(rounds_trained);
        }
        Slot::Dormant(Box::new(Dormant {
            opt: trainer.opt,
            rng: trainer.rng,
            rounds_trained,
            last_val,
            perf_drop_count,
            done,
            final_test,
            compressor,
            private,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A million idle clients are a million slots: a `Client` stored inline
    /// would add hundreds of bytes to each.
    #[test]
    fn a_slot_is_at_most_16_bytes() {
        assert!(mem::size_of::<Slot>() <= 16, "{}", mem::size_of::<Slot>());
    }
}
