//! Course assembly over the lazy client store.
//!
//! [`ScaleCourseBuilder`] is `fs_core`'s [`CourseWiring`] — the one
//! server/sampler/evaluator/aggregator wiring every course goes through —
//! plus a data *source* in place of a materialized client set.
//! Handing the builder a closure from client index to split (or a shared
//! dataset to index into) is what selects the lazy store; nothing in
//! `FlConfig` does. The course itself is the *same course*: same RNG draws in
//! the same order, same server, run by the same loop.

use crate::store::{ClientFactory, LazyStore};
use fs_core::config::FlConfig;
use fs_core::course::{CourseWiring, ModelFactory, Wired};
use fs_core::sampler::Sampler;
use fs_core::trainer::ShareFilter;
use fs_core::Runner;
use fs_data::{ClientSplit, FedDataset};
use fs_sim::{Fleet, FleetConfig};
use std::sync::Arc;

/// The virtual-time runner over lazily materialized clients.
pub type ScaleRunner = Runner<LazyStore>;

/// Assembles courses over the [`LazyStore`].
pub struct ScaleCourseBuilder {
    /// A fully materialized dataset to index into (splits cloned per
    /// activation); also the centralized evaluator's test pool.
    dataset: Option<Arc<FedDataset>>,
    /// A deterministic closure: client index → split. The only viable form
    /// at millions of clients — data exists only while its client is active.
    data: Arc<dyn Fn(usize) -> ClientSplit + Send + Sync>,
    wiring: CourseWiring,
}

impl ScaleCourseBuilder {
    /// Starts a builder from a materialized dataset — the drop-in analogue
    /// of `CourseBuilder::new`, producing a bit-identical course.
    pub fn from_dataset(
        dataset: Arc<FedDataset>,
        model_factory: ModelFactory,
        cfg: FlConfig,
    ) -> Self {
        let source = dataset.clone();
        Self {
            wiring: CourseWiring::new(dataset.num_clients(), model_factory, cfg),
            dataset: Some(dataset),
            data: Arc::new(move |i| source.clients[i].clone()),
        }
    }

    /// Starts a builder over `num_clients` splits produced on demand by
    /// `data`. No centralized evaluator (pooling a million test splits is
    /// exactly the materialization this crate exists to avoid), so the
    /// course history stays empty.
    pub fn synthetic(
        num_clients: usize,
        data: Arc<dyn Fn(usize) -> ClientSplit + Send + Sync>,
        model_factory: ModelFactory,
        cfg: FlConfig,
    ) -> Self {
        Self {
            wiring: CourseWiring::new(num_clients, model_factory, cfg),
            dataset: None,
            data,
        }
    }

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

    /// Replaces the sampler derived from `cfg.sampler`.
    pub fn sampler(mut self, s: Sampler) -> Self {
        self.wiring.sampler = Some(s);
        self
    }

    /// Disables the centralized evaluator.
    pub fn no_central_eval(mut self) -> Self {
        self.wiring.central_eval = false;
        self
    }

    /// Enables client-side `performance_drop` detection.
    pub fn detect_perf_drop(mut self) -> Self {
        self.wiring.detect_perf_drop = true;
        self
    }

    /// Builds the runner over a lazy store of untouched clients.
    pub fn build(self) -> ScaleRunner {
        let n = self.wiring.num_clients;
        let Wired {
            server,
            fleet,
            blueprint,
        } = self.wiring.wire(self.dataset.as_deref());
        let share = &blueprint.share;
        let template_private = blueprint.template.get_params().filter(|k| !share(k));
        let factory = ClientFactory {
            blueprint,
            template_private,
            data: self.data,
        };
        Runner::new(server, LazyStore::new(factory, n), fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs_core::course::CourseBuilder;
    use fs_data::synth::{twitter_like, TwitterConfig};
    use fs_tensor::model::logistic_regression;
    use fs_tensor::optim::SgdConfig;

    fn data(n: usize) -> FedDataset {
        twitter_like(&TwitterConfig {
            num_clients: n,
            per_client: 12,
            ..Default::default()
        })
    }

    fn base_cfg() -> FlConfig {
        FlConfig {
            total_rounds: 4,
            concurrency: 4,
            sgd: SgdConfig::with_lr(0.5),
            ..Default::default()
        }
    }

    #[test]
    fn lazy_report_matches_eager_report() {
        let d = data(8);
        let dim = d.input_dim();
        let eager = CourseBuilder::new(
            d.clone(),
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            base_cfg(),
        )
        .build()
        .run();
        let scale = ScaleCourseBuilder::from_dataset(
            Arc::new(d),
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            base_cfg(),
        )
        .build()
        .run();
        assert_eq!(eager, scale);
    }

    #[test]
    fn synthetic_source_runs_without_central_eval() {
        let d = Arc::new(data(8));
        let dim = d.input_dim();
        let src = d.clone();
        let mut runner = ScaleCourseBuilder::synthetic(
            8,
            Arc::new(move |i| src.clients[i].clone()),
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            base_cfg(),
        )
        .build();
        let report = runner.run();
        assert_eq!(report.rounds, 4);
        assert!(report.history.is_empty(), "no evaluator, no history");
        assert!(report.total_updates > 0);
    }

    #[test]
    #[should_panic(expected = "sample target")]
    fn oversized_concurrency_rejected() {
        let d = data(2);
        let dim = d.input_dim();
        let cfg = FlConfig {
            concurrency: 1000,
            ..base_cfg()
        };
        let _ = ScaleCourseBuilder::from_dataset(
            Arc::new(d),
            Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
            cfg,
        )
        .build()
        .run();
    }
}
