//! The lazy client store.
//!
//! Plugs into `fs_core`'s one virtual-time loop through
//! [`fs_core::ClientStore`], and is built for cohorts an eager store cannot
//! hold: an idle client is an O(1) slot, a full [`Client`] exists only while
//! the loop has it out (mid-dispatch, or inside a speculation job), and model
//! tensors are recycled through a pool.
//!
//! # Determinism contract
//!
//! A client taken out of this store is indistinguishable from one that had
//! stayed resident: first activation builds it from the shared
//! [`ClientBlueprint`] exactly as the eager builder would (same template,
//! same per-index seed, same codec), and every later activation resumes the
//! retained optimizer, RNG stream, counters, codec state and private
//! parameters. The data closure must be pure — identical splits for
//! identical indices — because it is re-run on every activation, possibly on
//! the send side of a speculation rather than at delivery.

use crate::NullTrainer;
use fs_core::client::Client;
use fs_core::course::ClientBlueprint;
use fs_core::runner::merge_unique;
use fs_core::server::Server;
use fs_core::trainer::{LocalTrainer, TrainerParts};
use fs_core::ClientStore;
use fs_data::ClientSplit;
use fs_net::{MessageKind, ParticipantId};
use fs_tensor::model::{Metrics, Model};
use fs_tensor::optim::Sgd;
use fs_tensor::ParamMap;
use rand::rngs::StdRng;
use std::collections::BTreeMap;
use std::mem;
use std::sync::Arc;

/// Recreates the full state of any client on demand.
///
/// Everything a dormant client needs that is *common* across clients lives
/// here once, instead of once per client: the blueprint (template model,
/// training configuration, share filter) and a deterministic data source
/// mapping a 0-based client index to its split.
pub struct ClientFactory {
    /// What every client is built from.
    pub blueprint: ClientBlueprint,
    /// Template parameters failing the share filter. Empty when everything
    /// is shared (then every key is overwritten by `incorporate` before any
    /// observation, so no restore is needed on materialization).
    pub template_private: ParamMap,
    /// Deterministic data source: client index → its split. Called on every
    /// materialization; must return identical data for identical indices.
    pub data: Arc<dyn Fn(usize) -> ClientSplit + Send + Sync>,
}

/// The resumable state of a client between dispatches, small enough to keep
/// a million of: optimizer state, RNG stream, bookkeeping, codec state, and
/// (only under a partial share filter) the private parameter subset.
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

/// Per-client lifecycle slot.
enum SlotState {
    /// Never materialized: the factory's template state *is* this client.
    Untouched,
    /// Currently out of the store.
    Active,
    /// Materialized at least once; resumable state retained.
    Dormant(Box<Dormant>),
    /// Done and unreachable: no further delivery can need its state.
    Finished,
}

/// Clients as slots, materialized only while the loop has them out.
pub struct LazyStore {
    factory: ClientFactory,
    slots: Vec<SlotState>,
    /// Recycled model allocations (one deep under serial dispatch, up to the
    /// cohort size under speculation).
    pool: Vec<Box<dyn Model>>,
    /// A representative client for verification and handler logs; never
    /// dispatched. All lazy clients share the default handler table.
    rep_client: Client,
    /// Registry warnings and conformance violations per client id,
    /// harvested as clients go dormant.
    registry_output: BTreeMap<ParticipantId, (Vec<String>, Vec<String>)>,
}

impl LazyStore {
    /// A store of `num_clients` untouched clients.
    pub fn new(factory: ClientFactory, num_clients: usize) -> Self {
        Self {
            factory,
            slots: (0..num_clients).map(|_| SlotState::Untouched).collect(),
            pool: Vec::new(),
            rep_client: Client::new(1, Box::new(NullTrainer)),
            registry_output: BTreeMap::new(),
        }
    }
}

impl ClientStore for LazyStore {
    fn ids(&self) -> Vec<ParticipantId> {
        (1..=self.slots.len() as ParticipantId).collect()
    }

    /// Builds the full [`Client`] for `id` from its slot: a pooled (or
    /// fresh) model allocation, the deterministic data split, and either the
    /// blueprint's initial state (first activation) or the retained dormant
    /// state.
    fn take(&mut self, id: ParticipantId) -> Option<Client> {
        let idx = (id as usize).checked_sub(1)?;
        let slot = self.slots.get_mut(idx)?;
        if matches!(slot, SlotState::Active) {
            return None;
        }
        let slot = mem::replace(slot, SlotState::Active);
        let blueprint = &self.factory.blueprint;
        let mut model = self
            .pool
            .pop()
            .unwrap_or_else(|| blueprint.template.clone_model());
        let data = (self.factory.data)(idx);
        Some(match slot {
            SlotState::Dormant(d) => {
                let d = *d;
                model.set_params(&d.private);
                let fresh = blueprint.local_trainer(idx, model, data).into_parts();
                let trainer = LocalTrainer::from_parts(TrainerParts {
                    opt: d.opt,
                    rng: d.rng,
                    ..fresh
                });
                let mut client = blueprint.client(idx, Box::new(trainer));
                client.state.rounds_trained = d.rounds_trained;
                client.state.last_val = d.last_val;
                client.state.perf_drop_count = d.perf_drop_count;
                client.state.done = d.done;
                client.state.final_test = d.final_test;
                client.state.compressor = d.compressor;
                client
            }
            // Untouched (Finished slots hold no state either; a Finished
            // client is only ever rematerialized by a delivery the server
            // can no longer produce)
            _ => {
                model.set_params(&self.factory.template_private);
                blueprint.client(idx, Box::new(blueprint.local_trainer(idx, model, data)))
            }
        })
    }

    /// Dismantles a client after its dispatch: harvests registry output,
    /// recycles the model allocation into the pool, and retains only the
    /// resumable state (or nothing, when the client is provably done).
    fn put_back(&mut self, mut client: Client, server: &Server) {
        let id = client.state.id;
        let idx = (id - 1) as usize;
        if !client.warnings().is_empty() || !client.violations().is_empty() {
            let (warnings, violations) = self.registry_output.entry(id).or_default();
            merge_unique(warnings, client.warnings());
            merge_unique(violations, client.violations());
        }
        let trainer = mem::replace(&mut client.state.trainer, Box::new(NullTrainer));
        #[expect(
            clippy::expect_used,
            reason = "this store only ever builds LocalTrainer clients in take()"
        )]
        let parts = trainer
            .into_local()
            .expect("the lazy store requires LocalTrainer-backed clients")
            .into_parts();
        let private = if self.factory.template_private.is_empty() {
            ParamMap::new()
        } else {
            let share = &self.factory.blueprint.share;
            parts.model.get_params().filter(|k| !share(k))
        };
        self.pool.push(parts.model);
        // a done client still in the server's busy set may yet receive an
        // in-flight ModelParams (post-Finish training is legal and must be
        // bit-identical), so it keeps its dormant state
        let finished = client.state.done && !server.state.busy.contains(&id);
        self.slots[idx] = if finished {
            SlotState::Finished
        } else {
            SlotState::Dormant(Box::new(Dormant {
                opt: parts.opt,
                rng: parts.rng,
                rounds_trained: client.state.rounds_trained,
                last_val: client.state.last_val,
                perf_drop_count: client.state.perf_drop_count,
                done: client.state.done,
                final_test: client.state.final_test,
                compressor: mem::take(&mut client.state.compressor),
                private,
            }))
        };
    }

    fn groups(&self) -> Vec<(&Client, Vec<ParticipantId>)> {
        vec![(&self.rep_client, self.ids())]
    }

    fn registry_output(&self, visit: &mut dyn FnMut(&[String], &[String])) {
        for (warnings, violations) in self.registry_output.values() {
            visit(warnings, violations);
        }
    }

    /// `IdAssignment` lands on the default `confirm_id` handler, a pure
    /// debug assertion: not worth materializing a client per join.
    fn handles(&self, kind: MessageKind) -> bool {
        kind != MessageKind::IdAssignment
    }
}
