//! Cross-backend FL via message translation (§3.5), plus the distributed
//! runner: the same worker code on real threads over the wire-encoded bus.
//!
//! ```text
//! cargo run --release --example cross_backend
//! ```

use fedscope::core::config::FlConfig;
use fedscope::core::course::CourseBuilder;
use fedscope::core::distributed::{run_distributed_with, BusRunOptions};
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::net::backend::{Backend, ColMajorF64Store, RowMajorF32Store};
use fedscope::tensor::model::{logistic_regression, Model};
use fedscope::tensor::optim::SgdConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn main() {
    // --- message translation between two different native layouts --------
    let mut rng = StdRng::seed_from_u64(1);
    let model = logistic_regression(16, 3, &mut rng);
    let torch_like = RowMajorF32Store::new(model.get_params());
    println!("participant A backend: {}", torch_like.name());

    // A encodes into the neutral wire format...
    let wire = torch_like.encode();
    println!("wire bytes: {}", wire.len());

    // ...and B (column-major f64 native layout) decodes into its own world
    let mut tf_like = ColMajorF64Store::new();
    tf_like.decode(&wire).expect("decode");
    println!("participant B backend: {}", tf_like.name());
    let (_, native) = tf_like.native("fc.weight").expect("entry");
    println!(
        "B's native column-major copy holds {} f64 values",
        native.len()
    );

    // round-trip equality proves translation is lossless for f32 values
    let mut back = RowMajorF32Store::default();
    back.decode(&tf_like.encode()).expect("decode");
    assert_eq!(torch_like.params(), back.params());
    println!("A -> wire -> B -> wire -> A round-trip: lossless\n");

    // --- the distributed runner: same workers, real threads --------------
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
    println!(
        "distributed course finished: {} rounds, {} client reports, reason: {}",
        server.state.round,
        server.state.client_reports.len(),
        server.state.finish_reason.unwrap_or_default()
    );
}
