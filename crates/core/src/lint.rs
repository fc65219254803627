//! Config lints: range and consistency checks over [`FlConfig`]
//! (`FSV02x`–`FSV03x`, `FSV05x`, `FSV06x`).
//!
//! They live next to the config they read, so a new [`AggregationRule`] or
//! [`CodecSpec`] variant is spelled once; `fs-verify` keeps the vocabulary
//! they report in ([`Code`], [`Diagnostic`]) and the protocol checks over the
//! flow graph. [`crate::verify`] appends these findings to a course's report,
//! and an Error among them refuses the course at
//! [`crate::verify::preflight`]: they are the only copy of these rules (the
//! course builder checks nothing).

use crate::config::{AggregationRule, BroadcastManner, CodecSpec, FlConfig};
use fs_net::Topology;
use fs_verify::{Code, Diagnostic};

fn lint_codec(direction: &str, codec: CodecSpec, out: &mut Vec<Diagnostic>) {
    match codec {
        CodecSpec::Identity => {}
        CodecSpec::UniformQuant { bits } => {
            if bits != 4 && bits != 8 {
                out.push(
                    Diagnostic::new(
                        Code::QuantBitsInvalid,
                        format!("compression.{direction}"),
                        format!("uniform quantization supports 4 or 8 bits, got {bits}"),
                    )
                    .with_suggestion("use UniformQuant { bits: 8 } or { bits: 4 }"),
                );
            }
        }
        CodecSpec::TopK { ratio } => {
            if !(ratio > 0.0 && ratio <= 1.0) {
                out.push(
                    Diagnostic::new(
                        Code::TopKRatioInvalid,
                        format!("compression.{direction}"),
                        format!("top-k keep ratio must lie in (0, 1], got {ratio}"),
                    )
                    .with_suggestion("a typical sparsification ratio is 0.01–0.2"),
                );
            }
        }
    }
}

/// Runs every config lint, returning the findings in field order.
/// `num_clients` is the population size when the course is assembled.
pub fn lint_config(cfg: &FlConfig, num_clients: Option<usize>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let sample_target = cfg.sample_target();

    if cfg.total_rounds == 0 {
        out.push(
            Diagnostic::new(
                Code::ZeroRounds,
                "total_rounds",
                "zero rounds: the course terminates before any aggregation",
            )
            .with_suggestion("set total_rounds >= 1"),
        );
    }

    if cfg.concurrency == 0 || sample_target == 0 {
        out.push(
            Diagnostic::new(
                Code::EmptySampleTarget,
                "concurrency",
                format!(
                    "the sampler target is empty (concurrency = {}, sample_target = {}): \
                     no client is ever asked to train",
                    cfg.concurrency, sample_target
                ),
            )
            .with_suggestion("set concurrency >= 1"),
        );
    }

    if cfg.rule == AggregationRule::AllReceived
        && (cfg.staleness_tolerance > 0 || cfg.staleness_discount != 0.0)
    {
        out.push(Diagnostic::new(
            Code::StalenessInertUnderSync,
            "staleness_tolerance",
            "staleness settings have no effect under the synchronous all_received \
             scheduler (no update can be stale when every round waits for all \
             sampled clients); they are never consulted",
        ));
    }

    if cfg.over_selection.is_nan() || cfg.over_selection < 0.0 {
        out.push(
            Diagnostic::new(
                Code::OverSelectionNegative,
                "over_selection",
                format!(
                    "over_selection must be a non-negative fraction, got {}",
                    cfg.over_selection
                ),
            )
            .with_suggestion("the paper's Sync-OS uses 0.3"),
        );
    } else if cfg.over_selection >= 1.0 {
        out.push(
            Diagnostic::new(
                Code::OverSelectionHuge,
                "over_selection",
                format!(
                    "over_selection = {} looks like a multiplicative factor; it is the \
                     *extra* fraction sampled beyond concurrency",
                    cfg.over_selection
                ),
            )
            .with_suggestion("for 30% extra clients use 0.3, not 1.3"),
        );
    }

    if cfg.compression.upload_delta && cfg.compression.upload.is_none() {
        out.push(
            Diagnostic::new(
                Code::DeltaWithoutUploadCodec,
                "compression.upload_delta",
                "upload_delta is set but no upload codec is configured, so delta \
                 encoding never runs",
            )
            .with_suggestion("set compression.upload (e.g. UniformQuant { bits: 8 })"),
        );
    }

    if cfg.broadcast == BroadcastManner::AfterReceiving && cfg.rule == AggregationRule::AllReceived
    {
        out.push(
            Diagnostic::new(
                Code::AfterReceivingUnderAllReceived,
                "broadcast",
                "after_receiving broadcast under the all_received rule keeps adding \
                 newly sampled clients to the set the rule waits for; the round may \
                 never close",
            )
            .with_suggestion("use after_aggregating, or switch to goal_achieved/time_up"),
        );
    }

    if let Some(codec) = cfg.compression.upload {
        lint_codec("upload", codec, &mut out);
    }
    if let Some(codec) = cfg.compression.download {
        lint_codec("download", codec, &mut out);
    }

    if cfg.eval_every == 0 {
        out.push(
            Diagnostic::new(
                Code::ZeroEvalEvery,
                "eval_every",
                "eval_every is zero: the evaluation cadence is undefined",
            )
            .with_suggestion("set eval_every >= 1"),
        );
    } else if cfg.total_rounds > 0 && cfg.eval_every > cfg.total_rounds {
        out.push(
            Diagnostic::new(
                Code::EvalEveryExceedsRounds,
                "eval_every",
                format!(
                    "eval_every ({}) exceeds total_rounds ({}): the model is never \
                     evaluated during the course",
                    cfg.eval_every, cfg.total_rounds
                ),
            )
            .with_suggestion("set eval_every <= total_rounds"),
        );
    }

    if let Some(acc) = cfg.target_accuracy {
        if !(acc > 0.0 && acc <= 1.0) {
            out.push(
                Diagnostic::new(
                    Code::TargetAccuracyUnreachable,
                    "target_accuracy",
                    format!("target accuracy {acc} lies outside (0, 1] and can never be reached"),
                )
                .with_suggestion("accuracy is a fraction, e.g. 0.9 for 90%"),
            );
        }
    }

    if cfg.sgd.lr.is_nan() || cfg.sgd.lr <= 0.0 {
        out.push(
            Diagnostic::new(
                Code::NonPositiveLr,
                "sgd.lr",
                format!("learning rate must be positive, got {}", cfg.sgd.lr),
            )
            .with_suggestion("a typical range is 0.01–1.0 for the in-repo models"),
        );
    }

    if cfg.batch_size == 0 {
        out.push(
            Diagnostic::new(Code::ZeroBatchSize, "batch_size", "batch size of zero")
                .with_suggestion("set batch_size >= 1"),
        );
    }

    if cfg.local_steps == 0 {
        out.push(
            Diagnostic::new(
                Code::ZeroLocalSteps,
                "local_steps",
                "zero local steps: every client returns the broadcast model unchanged",
            )
            .with_suggestion("set local_steps >= 1"),
        );
    }

    if let Some(n) = num_clients {
        if sample_target > n {
            out.push(
                Diagnostic::new(
                    Code::SampleTargetExceedsClients,
                    "concurrency",
                    format!(
                        "the sample target ({}) exceeds the client population ({n})",
                        sample_target
                    ),
                )
                .with_suggestion("lower concurrency/over_selection or add clients"),
            );
        }
    }

    lint_topology(cfg, num_clients, &mut out);
    lint_scheduler(cfg, num_clients, &mut out);

    out
}

/// The buffered-async / tiered modes drive one central server loop (FSV060).
fn lint_star_only(cfg: &FlConfig, out: &mut Vec<Diagnostic>) {
    if !cfg.topology.is_star() {
        out.push(
            Diagnostic::new(
                Code::SchedTopologyUnsupported,
                "rule",
                "buffered-async / tiered schedulers drive one central server \
                 loop and require the star topology (gossip has no server; \
                 hierarchical edges close their rounds with all_received \
                 semantics)",
            )
            .with_suggestion("use topology = star, or one of the classic rules"),
        );
    }
}

/// Per-rule config lints: the classic rules' thresholds (FSV036/037/039)
/// and the buffered / tiered modes (FSV060–FSV063).
fn lint_scheduler(cfg: &FlConfig, num_clients: Option<usize>, out: &mut Vec<Diagnostic>) {
    let sample_target = cfg.sample_target();
    match cfg.rule {
        AggregationRule::AllReceived => {}
        AggregationRule::GoalAchieved { goal } => {
            if goal == 0 {
                out.push(
                    Diagnostic::new(
                        Code::ZeroGoal,
                        "rule.goal",
                        "goal_achieved with a goal of zero fires before any update arrives",
                    )
                    .with_suggestion("set goal >= 1"),
                );
            } else if goal > sample_target {
                out.push(
                    Diagnostic::new(
                        Code::ThresholdExceedsSampleTarget,
                        "rule.goal",
                        format!(
                            "goal ({goal}) exceeds the sample target ({}): with \
                             after_aggregating broadcast the condition can never fire",
                            sample_target
                        ),
                    )
                    .with_suggestion("keep goal <= concurrency × (1 + over_selection)"),
                );
            }
        }
        AggregationRule::TimeUp {
            budget_secs,
            min_feedback,
        } => {
            if budget_secs.is_nan() || budget_secs <= 0.0 {
                out.push(
                    Diagnostic::new(
                        Code::NonPositiveBudget,
                        "rule.budget_secs",
                        format!("time_up budget must be positive, got {budget_secs}"),
                    )
                    .with_suggestion("give each round a positive virtual-time budget"),
                );
            }
            if min_feedback > sample_target {
                out.push(
                    Diagnostic::new(
                        Code::ThresholdExceedsSampleTarget,
                        "rule.min_feedback",
                        format!(
                            "min_feedback ({min_feedback}) exceeds the sample target ({}): \
                             every round triggers the remedial measure",
                            sample_target
                        ),
                    )
                    .with_suggestion("keep min_feedback <= the number of sampled clients"),
                );
            }
        }
        AggregationRule::Buffered { k, .. } => {
            lint_star_only(cfg, out);
            if k == 0 {
                out.push(
                    Diagnostic::new(
                        Code::SchedBufferInvalid,
                        "rule.k",
                        "buffered-async with a buffer size of zero fires before \
                         any update arrives",
                    )
                    .with_suggestion("set k >= 1"),
                );
            } else if k > sample_target && cfg.broadcast != BroadcastManner::AfterReceiving {
                // under after_receiving the buffer keeps filling between
                // aggregations, so k may legitimately exceed the sample target
                out.push(
                    Diagnostic::new(
                        Code::ThresholdExceedsSampleTarget,
                        "rule.k",
                        format!(
                            "buffer size ({k}) exceeds the sample target ({}): with \
                             after_aggregating broadcast the buffer can never fill",
                            sample_target
                        ),
                    )
                    .with_suggestion(
                        "keep k <= concurrency × (1 + over_selection), or use \
                         after_receiving broadcast",
                    ),
                );
            }
        }
        AggregationRule::Tiered { tiers } => {
            lint_star_only(cfg, out);
            if tiers == 0 {
                out.push(
                    Diagnostic::new(
                        Code::SchedTiersInvalid,
                        "rule.tiers",
                        "tiered scheduler with zero tiers partitions nobody",
                    )
                    .with_suggestion("set tiers >= 2"),
                );
            } else if tiers == 1 {
                out.push(Diagnostic::new(
                    Code::SchedTiersDegenerate,
                    "rule.tiers",
                    "a single tier contains every client, so the tiered scheduler \
                     degenerates to plain synchronous aggregation",
                ));
            } else if num_clients.is_some_and(|n| tiers > n) {
                out.push(Diagnostic::new(
                    Code::SchedTiersDegenerate,
                    "rule.tiers",
                    format!(
                        "more tiers ({tiers}) than clients ({}): some tiers are \
                         permanently empty",
                        num_clients.unwrap_or(0)
                    ),
                ));
            }
        }
    }
}

/// Topology-specific config lints (FSV050–FSV056).
fn lint_topology(cfg: &FlConfig, num_clients: Option<usize>, out: &mut Vec<Diagnostic>) {
    match cfg.topology {
        Topology::Star => {}
        Topology::Hierarchical { tiers, fanout } => {
            if tiers < 2 {
                out.push(
                    Diagnostic::new(
                        Code::TopologyInvalid,
                        "topology.tiers",
                        format!("hierarchical topology needs >= 2 tiers, got {tiers}"),
                    )
                    .with_suggestion("tiers counts aggregation layers including the root server"),
                );
            }
            if fanout == 0 {
                out.push(
                    Diagnostic::new(
                        Code::TopologyInvalid,
                        "topology.fanout",
                        "aggregator fanout of zero places no child under any edge",
                    )
                    .with_suggestion("set fanout >= 1"),
                );
            }
            if cfg.compression.upload_delta {
                out.push(
                    Diagnostic::new(
                        Code::DeltaUploadUnsupportedInHier,
                        "compression.upload_delta",
                        "delta-encoded uploads reference the server's broadcast history, \
                         which edge aggregators do not hold; hierarchical tiers cannot \
                         reconstruct them",
                    )
                    .with_suggestion("disable upload_delta or run the star topology"),
                );
            }
            if cfg.rule != AggregationRule::AllReceived {
                out.push(
                    Diagnostic::new(
                        Code::TopologyRuleUnsupported,
                        "topology",
                        "partial edge aggregation needs the all_received rule (edges must \
                         know their full subtree replied); under this rule edges relay \
                         updates losslessly instead of merging",
                    )
                    .with_suggestion("use all_received to enable merging edges"),
                );
            }
        }
        Topology::Gossip { degree, .. } => {
            if degree == 0 {
                out.push(
                    Diagnostic::new(
                        Code::TopologyInvalid,
                        "topology.degree",
                        "gossip degree of zero exchanges nothing",
                    )
                    .with_suggestion("set degree >= 1"),
                );
            } else if let Some(n) = num_clients {
                if degree >= n {
                    out.push(
                        Diagnostic::new(
                            Code::GossipDegreeTooLarge,
                            "topology.degree",
                            format!(
                                "gossip degree ({degree}) must be smaller than the peer \
                                 population ({n}) to sample distinct neighbors"
                            ),
                        )
                        .with_suggestion("keep degree <= n - 1"),
                    );
                }
            }
            out.push(Diagnostic::new(
                Code::GossipIgnoresStrategy,
                "topology",
                "gossip runs serverless synchronous rounds: the aggregation rule, \
                 broadcast manner, sampler, and concurrency settings are ignored",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionConfig;
    use fs_verify::Severity;

    const HIER_2X4: Topology = Topology::Hierarchical {
        tiers: 2,
        fanout: 4,
    };

    fn codes(cfg: &FlConfig, num_clients: Option<usize>) -> Vec<Code> {
        lint_config(cfg, num_clients)
            .iter()
            .map(|d| d.code)
            .collect()
    }

    fn with_rule(rule: AggregationRule) -> FlConfig {
        FlConfig {
            rule,
            ..Default::default()
        }
    }

    fn buffered(k: usize) -> AggregationRule {
        AggregationRule::Buffered { k }
    }

    #[test]
    fn default_config_lints_to_notes_only() {
        let ds = lint_config(&FlConfig::default(), None);
        // default FlConfig keeps staleness settings under all_received → Note
        assert!(ds.iter().all(|d| d.severity == Severity::Note), "{ds:?}");
        assert!(ds.iter().any(|d| d.code == Code::StalenessInertUnderSync));
    }

    #[test]
    fn zero_rounds_and_empty_target_are_errors() {
        let cfg = FlConfig {
            total_rounds: 0,
            concurrency: 0,
            ..Default::default()
        };
        let found = codes(&cfg, None);
        assert!(found.contains(&Code::ZeroRounds));
        assert!(found.contains(&Code::EmptySampleTarget));
    }

    #[test]
    fn codec_range_lints() {
        let cfg = FlConfig {
            compression: CompressionConfig {
                upload: Some(CodecSpec::UniformQuant { bits: 3 }),
                download: Some(CodecSpec::TopK { ratio: 1.5 }),
                ..Default::default()
            },
            ..Default::default()
        };
        let found = codes(&cfg, None);
        assert!(found.contains(&Code::QuantBitsInvalid));
        assert!(found.contains(&Code::TopKRatioInvalid));
        let nan = FlConfig {
            compression: CompressionConfig {
                upload: Some(CodecSpec::TopK { ratio: f32::NAN }),
                ..Default::default()
            },
            ..Default::default()
        };
        assert!(codes(&nan, None).contains(&Code::TopKRatioInvalid));
    }

    #[test]
    fn threshold_lints_respect_sample_target() {
        let cfg = with_rule(AggregationRule::GoalAchieved { goal: 40 });
        assert!(codes(&cfg, None).contains(&Code::ThresholdExceedsSampleTarget));
        let cfg = with_rule(AggregationRule::TimeUp {
            budget_secs: -1.0,
            min_feedback: 99,
        });
        let found = codes(&cfg, None);
        assert!(found.contains(&Code::NonPositiveBudget));
        assert!(found.contains(&Code::ThresholdExceedsSampleTarget));
    }

    #[test]
    fn topology_lints() {
        // invalid shapes are errors
        let cfg = FlConfig {
            topology: Topology::Hierarchical {
                tiers: 1,
                fanout: 0,
            },
            ..Default::default()
        };
        let invalid = codes(&cfg, None)
            .iter()
            .filter(|&&c| c == Code::TopologyInvalid)
            .count();
        assert_eq!(invalid, 2);
        // delta uploads cannot cross intermediate tiers
        let cfg = FlConfig {
            topology: HIER_2X4,
            compression: CompressionConfig {
                upload: Some(CodecSpec::UniformQuant { bits: 8 }),
                upload_delta: true,
                download: None,
            },
            ..Default::default()
        };
        assert!(codes(&cfg, None).contains(&Code::DeltaUploadUnsupportedInHier));
        // non-all_received demotes edges to relays (warning, not error)
        let cfg = FlConfig {
            topology: HIER_2X4,
            ..with_rule(AggregationRule::GoalAchieved { goal: 5 })
        };
        assert!(lint_config(&cfg, None)
            .iter()
            .any(|d| d.code == Code::TopologyRuleUnsupported && d.severity == Severity::Warning));
        // gossip degree must leave room for distinct peers
        let cfg = FlConfig {
            topology: Topology::Gossip {
                degree: 8,
                rounds: 5,
            },
            ..Default::default()
        };
        let found = codes(&cfg, Some(8));
        assert!(found.contains(&Code::GossipDegreeTooLarge));
        assert!(found.contains(&Code::GossipIgnoresStrategy));
        // a valid hierarchy under defaults adds nothing beyond the usual notes
        let cfg = FlConfig {
            topology: HIER_2X4,
            ..Default::default()
        };
        assert!(lint_config(&cfg, None)
            .iter()
            .all(|d| d.severity == Severity::Note));
    }

    #[test]
    fn scheduler_lints() {
        let has = |cfg: &FlConfig, n, code: Code, severity: Severity| {
            lint_config(cfg, n)
                .iter()
                .any(|d| d.code == code && d.severity == severity)
        };
        // a buffered / tiered rule off the star topology is an error
        let cfg = FlConfig {
            topology: Topology::Gossip {
                degree: 2,
                rounds: 3,
            },
            ..with_rule(buffered(3))
        };
        assert!(has(
            &cfg,
            None,
            Code::SchedTopologyUnsupported,
            Severity::Error
        ));
        // zero-sized buffer / tier counts are errors
        let cfg = with_rule(buffered(0));
        assert!(has(&cfg, None, Code::SchedBufferInvalid, Severity::Error));
        let cfg = with_rule(AggregationRule::Tiered { tiers: 0 });
        assert!(has(&cfg, None, Code::SchedTiersInvalid, Severity::Error));
        // k beyond the sample target can never fill under after_aggregating
        let cfg = FlConfig {
            concurrency: 4,
            ..with_rule(buffered(9))
        };
        assert!(codes(&cfg, None).contains(&Code::ThresholdExceedsSampleTarget));
        // ...but may legitimately exceed it under after_receiving
        let cfg = FlConfig {
            concurrency: 4,
            broadcast: BroadcastManner::AfterReceiving,
            ..with_rule(buffered(9))
        };
        assert!(!codes(&cfg, None).contains(&Code::ThresholdExceedsSampleTarget));
        // degenerate tier shapes are notes, not errors
        let cfg = with_rule(AggregationRule::Tiered { tiers: 1 });
        assert!(has(&cfg, None, Code::SchedTiersDegenerate, Severity::Note));
        let cfg = with_rule(AggregationRule::Tiered { tiers: 40 });
        assert!(codes(&cfg, Some(10)).contains(&Code::SchedTiersDegenerate));
    }

    #[test]
    fn staleness_inert_lint_fires_only_under_all_received() {
        // under all_received the settings are never consulted
        let cfg = FlConfig {
            staleness_tolerance: 4,
            staleness_discount: 0.5,
            ..Default::default()
        };
        assert!(codes(&cfg, None).contains(&Code::StalenessInertUnderSync));
        // buffered-async consults them — the lint must not fire
        let cfg = FlConfig {
            staleness_tolerance: 4,
            staleness_discount: 0.5,
            ..with_rule(buffered(3))
        };
        assert!(!codes(&cfg, None).contains(&Code::StalenessInertUnderSync));
    }

    #[test]
    fn after_receiving_lint_fires_only_under_all_received() {
        // after_receiving + all_received: the round may never close, the
        // warning fires
        let cfg = FlConfig {
            broadcast: BroadcastManner::AfterReceiving,
            ..Default::default()
        };
        assert!(codes(&cfg, None).contains(&Code::AfterReceivingUnderAllReceived));
        // the exact shape `FlConfig::buffered_async` produces — no hazard
        let cfg = FlConfig::default().buffered_async(4);
        assert!(!codes(&cfg, None).contains(&Code::AfterReceivingUnderAllReceived));
    }

    #[test]
    fn population_bound() {
        let cfg = FlConfig {
            concurrency: 10,
            over_selection: 0.3,
            ..Default::default()
        };
        assert!(codes(&cfg, Some(8)).contains(&Code::SampleTargetExceedsClients));
    }
}
