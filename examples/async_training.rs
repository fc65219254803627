//! Asynchronous training strategies (§3.3): swapping one condition event
//! turns synchronous FedAvg into FedBuff-style asynchronous FL.
//!
//! Runs the same FEMNIST-like workload under `all_received` (vanilla sync),
//! `goal_achieved` + after-receiving (FedBuff), and `time_up`, and compares
//! virtual time to the target accuracy.
//!
//! ```text
//! cargo run --release --example async_training
//! ```

use fedscope::core::config::{BroadcastManner, FlConfig, SamplerKind};
use fedscope::core::course::CourseBuilder;
use fedscope::data::synth::{femnist_like, ImageConfig};
use fedscope::sim::FleetConfig;
use fedscope::tensor::model::convnet2;
use fedscope::tensor::optim::SgdConfig;

fn main() {
    let data = femnist_like(&ImageConfig {
        num_clients: 60,
        per_client: 30,
        img: 8,
        num_classes: 10,
        ..Default::default()
    });
    let target = 0.9f32;
    let base = FlConfig {
        total_rounds: 200,
        concurrency: 20,
        local_steps: 4,
        batch_size: 20,
        sgd: SgdConfig::with_lr(0.25),
        target_accuracy: Some(target),
        seed: 2,
        ..Default::default()
    };
    let fleet_cfg = FleetConfig {
        num_clients: 60,
        speed_sigma: 1.5,
        seed: 99,
        ..Default::default()
    };

    let strategies: Vec<(&str, FlConfig)> = vec![
        ("all_received (sync vanilla)", base.clone().sync_vanilla()),
        (
            "goal_achieved + after-receiving (FedBuff)",
            base.clone()
                .async_goal(8, BroadcastManner::AfterReceiving, SamplerKind::Uniform),
        ),
        (
            "time_up + after-aggregating",
            base.clone().async_time(
                2.0,
                1,
                BroadcastManner::AfterAggregating,
                SamplerKind::Uniform,
            ),
        ),
    ];

    let mut sync_time = None;
    for (name, cfg) in strategies {
        let report = CourseBuilder::new(
            data.clone(),
            Box::new(|rng| Box::new(convnet2(1, 8, 32, 10, 0.0, rng))),
            cfg,
        )
        .fleet_config(fleet_cfg.clone())
        .build()
        .run();
        match report.time_to_accuracy(target) {
            Some(secs) => {
                let speedup = sync_time.map(|s: f64| s / secs);
                sync_time.get_or_insert(secs);
                println!(
                    "{name}: reached {:.0}% in {secs:.1} virtual seconds{}",
                    target * 100.0,
                    speedup.map_or(String::new(), |s| format!("  ({s:.2}x vs sync)"))
                );
            }
            None => println!("{name}: did not reach the target"),
        }
    }
}
