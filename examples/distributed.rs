//! The distributed driver: an assembled course split into its participants
//! and run on real threads, every message wire-encoded over the in-process
//! bus (§3.5's message translation), with the same worker code the
//! virtual-time runner dispatches.
//!
//! ```text
//! cargo run --release --example distributed
//! ```

use fedscope::core::config::FlConfig;
use fedscope::core::course::CourseBuilder;
use fedscope::core::distributed::{run_distributed_with, BusRunOptions};
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::tensor::model::logistic_regression;
use fedscope::tensor::optim::SgdConfig;
use std::time::Duration;

fn main() {
    let data = twitter_like(&TwitterConfig {
        num_clients: 8,
        per_client: 12,
        ..Default::default()
    });
    let dim = data.input_dim();
    let cfg = FlConfig {
        total_rounds: 5,
        concurrency: 4,
        sgd: SgdConfig::with_lr(0.3),
        seed: 5,
        ..Default::default()
    };
    let runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();
    // split the assembled course into its participants and run distributed
    let server = runner.server;
    let clients: Vec<_> = runner.clients.into_values().collect();
    let server = run_distributed_with(
        server,
        clients,
        Duration::from_secs(30),
        BusRunOptions::default(),
    )
    .expect("distributed run");
    assert_eq!(server.state.round, 5, "every round ran");
    assert_eq!(
        server.state.client_reports.len(),
        8,
        "every client reported"
    );
    println!(
        "distributed course finished: {} rounds, {} client reports, reason: {}",
        server.state.round,
        server.state.client_reports.len(),
        server.state.finish_reason.unwrap_or_default()
    );
}
