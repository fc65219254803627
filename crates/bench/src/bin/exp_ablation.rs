//! **Ablations** — the design choices DESIGN.md calls out, isolated:
//!
//! 1. *staleness discount exponent* `a` (update weight `1/(1+τ)^a`): off /
//!    mild / strong, under an aggressive async schedule that produces stale
//!    updates;
//! 2. *staleness tolerance*: drop-everything-stale (0) vs tolerate (20) —
//!    the paper's observation that Sync-OS is exactly tolerance 0;
//! 3. *aggregation goal*: the concurrency fraction that triggers
//!    `goal_achieved`, trading per-round information for round frequency;
//! 4. *server optimizer* (FedOpt family): plain averaging vs server-side
//!    Adam / Yogi on the aggregated delta.
//!
//! Claims (EXPERIMENTS.md): tolerance 0 drops the most updates; `a=0` is the
//! only discount that misses 90%; mean staleness falls as the goal rises.
//!
//! ```text
//! cargo run -p fs-bench --release --bin exp_ablation -- [--seed N] [--rounds N]
//! ```

use fs_bench::args::ExpArgs;
use fs_bench::output::{check_claims, render_table, write_json, Claim};
use fs_bench::workloads::femnist;
use fs_core::aggregator::FedAvg;
use fs_core::config::{BroadcastManner, SamplerKind};
use fs_tensor::optim::ServerOpt;
use serde::Serialize;

#[derive(Serialize)]
struct AblationRow {
    study: String,
    setting: String,
    final_accuracy: f32,
    hours_to_target: Option<f64>,
    dropped_updates: u64,
    mean_staleness: f64,
}

fn main() {
    let args = ExpArgs::parse();
    let wl = femnist(args.seed_or(7));
    let rounds = args.rounds_or(150);
    let mut rows: Vec<AblationRow> = Vec::new();

    let run = |study: &str,
               setting: &str,
               goal: usize,
               tolerance: u64,
               discount: f32,
               server_opt: Option<ServerOpt>,
               rows: &mut Vec<AblationRow>| {
        let mut cfg = wl.base_cfg.clone().async_goal(
            goal,
            BroadcastManner::AfterReceiving,
            SamplerKind::Uniform,
        );
        cfg.total_rounds = rounds;
        cfg.staleness_tolerance = tolerance;
        cfg.staleness_discount = discount;
        cfg.target_accuracy = None;
        cfg.parallelism = args.threads_or(1);
        let factory = (wl.model_factory_builder)(&wl.dataset);
        let mut builder = fs_core::course::CourseBuilder::new(wl.dataset.clone(), factory, cfg)
            .fleet_config(wl.fleet_cfg.clone());
        if let Some(opt) = server_opt {
            builder = builder.aggregator(Box::new(FedAvg::with_server_opt(opt, discount)));
        }
        let mut runner = builder.build();
        let report = runner.run();
        let final_accuracy = report
            .history
            .last()
            .map(|r| r.metrics.accuracy)
            .unwrap_or(0.0);
        let hours = report
            .time_to_accuracy(wl.target_accuracy)
            .map(|s| s / 3600.0);
        let log = &runner.server.state.ledger.staleness_log;
        let mean_staleness = log.iter().sum::<u64>() as f64 / log.len().max(1) as f64;
        eprintln!(
            "  {study} / {setting}: acc {final_accuracy:.4}, hours {hours:?}, dropped {}, staleness {mean_staleness:.2}",
            report.dropped_updates
        );
        rows.push(AblationRow {
            study: study.to_string(),
            setting: setting.to_string(),
            final_accuracy,
            hours_to_target: hours,
            dropped_updates: report.dropped_updates,
            mean_staleness,
        });
    };

    // 1. staleness discount sweep (small goal -> lots of staleness)
    for a in [0.0f32, 0.5, 2.0] {
        run("discount", &format!("a={a}"), 4, 20, a, None, &mut rows);
    }
    // 2. staleness tolerance sweep
    for tol in [0u64, 2, 20] {
        run(
            "tolerance",
            &format!("tol={tol}"),
            4,
            tol,
            0.5,
            None,
            &mut rows,
        );
    }
    // 3. aggregation goal sweep
    for goal in [4usize, 8, 16] {
        run(
            "goal",
            &format!("goal={goal}"),
            goal,
            20,
            0.5,
            None,
            &mut rows,
        );
    }
    // 4. server optimizer (FedOpt family)
    run(
        "server_opt",
        "sgd(lr=1)",
        8,
        20,
        0.5,
        Some(ServerOpt::fedavg()),
        &mut rows,
    );
    run(
        "server_opt",
        "adam(lr=0.1)",
        8,
        20,
        0.5,
        Some(ServerOpt::adam(0.1)),
        &mut rows,
    );
    run(
        "server_opt",
        "yogi(lr=0.1)",
        8,
        20,
        0.5,
        Some(ServerOpt::yogi(0.1)),
        &mut rows,
    );

    println!("\nAblations on FEMNIST-like (async, after-receiving)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.study.clone(),
                r.setting.clone(),
                format!("{:.4}", r.final_accuracy),
                r.hours_to_target.map_or("—".into(), |h| format!("{h:.4}")),
                r.dropped_updates.to_string(),
                format!("{:.2}", r.mean_staleness),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "study",
                "setting",
                "final acc",
                "hours to 90%",
                "dropped",
                "mean staleness"
            ],
            &table
        )
    );
    let path = write_json("ablation", &rows).expect("write results");
    println!("wrote {path}");

    // rows in run order: discount a=0/0.5/2, tolerance 0/2/20, goal 4/8/16,
    // then the server optimizers
    let tol0 = rows[3].dropped_updates;
    check_claims(&[
        Claim::new(
            "Ablation: tol=0 drops the most updates",
            rows.iter()
                .enumerate()
                .all(|(i, r)| i == 3 || r.dropped_updates < tol0),
        ),
        Claim::new(
            "Ablation: a=0 is the only discount that misses 90%",
            rows[0].hours_to_target.is_none()
                && rows[1..3].iter().all(|r| r.hours_to_target.is_some()),
        ),
        Claim::new(
            "Ablation: mean staleness falls as the goal rises",
            rows[6..9]
                .windows(2)
                .all(|w| w[1].mean_staleness < w[0].mean_staleness),
        ),
    ]);
}
