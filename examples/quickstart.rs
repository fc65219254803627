//! Quickstart: a vanilla synchronous FedAvg course in ~20 lines.
//!
//! Builds a Twitter-like sentiment federation (120 tiny clients), trains a
//! logistic regression with FedAvg for 20 rounds under virtual time, and
//! prints the learning curve, the effective `<event, handler>` pairs, and the
//! static-verification report (fs-verify, §3.6 / Appendix E) of the
//! constructed course.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fedscope::core::config::FlConfig;
use fedscope::core::course::CourseBuilder;
use fedscope::data::synth::{twitter_like, TwitterConfig};
use fedscope::tensor::model::logistic_regression;
use fedscope::tensor::optim::SgdConfig;

fn main() {
    // 1. data: 120 users, each with a handful of bag-of-words texts
    // seed 21 draws a topic pair separable enough to learn well under the
    // in-repo RNG (same choice as the fs-core course tests)
    let data = twitter_like(&TwitterConfig {
        num_clients: 120,
        seed: 21,
        ..Default::default()
    });
    let dim = data.input_dim();

    // 2. course configuration: vanilla synchronous FedAvg
    let cfg = FlConfig {
        total_rounds: 20,
        concurrency: 40,
        local_steps: 4,
        batch_size: 2,
        sgd: SgdConfig::with_lr(0.5),
        seed: 1,
        ..Default::default()
    };

    // 3. build and run
    let mut runner = CourseBuilder::new(
        data,
        Box::new(move |rng| Box::new(logistic_regression(dim, 2, rng))),
        cfg,
    )
    .build();

    // the handlers that take effect are recorded, as the paper requires
    println!("effective handlers (server and one line per client group):");
    let clients = runner.clients.groups();
    for line in fedscope::core::effective_handler_log(&runner.server, &clients) {
        println!("  {line}");
    }

    // static verification (§3.6 / Appendix E): completeness, dead handlers,
    // send/receive matching, config lints — all as FSVnnn diagnostics
    let verdict =
        fedscope::core::verify_assembled(&runner.server, &clients, Some(&runner.server.state.cfg));
    println!("\nstatic verification:\n{}", verdict.render_table());
    assert!(
        !verdict.has_errors(),
        "default FedAvg course must verify without errors"
    );
    drop(clients);

    // `run` repeats the verification as a preflight and would panic on errors;
    // `try_run` is the non-panicking variant.
    let report = runner.run();
    println!("\nlearning curve (virtual time -> accuracy):");
    for r in report.history.iter().step_by(4) {
        println!(
            "  round {:>3}  t={:>7.1}s  acc={:.3}",
            r.round, r.time_secs, r.metrics.accuracy
        );
    }
    println!(
        "\nfinished: {} after {:.1} virtual seconds",
        report.finish_reason, report.final_time_secs
    );
}
