//! Config lints over a backend-neutral projection of `FlConfig`.
//!
//! `fs-verify` sits *below* `fs-core` in the dependency graph, so it cannot
//! name `FlConfig` directly. Instead the engine lowers its config into
//! [`ConfigFacts`] — the handful of primitives the lints need — via
//! `FlConfig::facts()`. Keeping the lint input this small also makes the
//! lints trivially testable without building a course.

use crate::diag::{Code, Diagnostic};
use fs_net::Topology;

/// The aggregation rule, reduced to what the lints need.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RuleFacts {
    /// Wait for every sampled client.
    AllReceived,
    /// Aggregate once `goal` usable updates arrive.
    GoalAchieved {
        /// The update-count trigger.
        goal: usize,
    },
    /// Aggregate when the round budget runs out.
    TimeUp {
        /// Per-round virtual-time budget, seconds.
        budget_secs: f64,
        /// Minimum usable updates before remedial measures.
        min_feedback: usize,
    },
    /// FedBuff-style buffered async: aggregate every `k` buffered updates.
    Buffered {
        /// Buffer size that triggers aggregation.
        k: usize,
    },
    /// Tiered semi-async over seeded speed tiers.
    Tiered {
        /// Number of speed tiers.
        tiers: usize,
    },
}

/// One direction's codec, reduced to what the lints need.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CodecFacts {
    /// Dense passthrough.
    Identity,
    /// Uniform quantization at `bits` per value.
    Quantize {
        /// Quantization width.
        bits: u8,
    },
    /// Top-k sparsification keeping `ratio` of entries.
    TopK {
        /// Keep fraction, expected in `(0, 1]`.
        ratio: f32,
    },
}

/// Backend-neutral projection of an FL course configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ConfigFacts {
    /// Maximum number of aggregation rounds.
    pub total_rounds: u64,
    /// Target number of concurrently training clients.
    pub concurrency: usize,
    /// Clients sampled per refill (concurrency × (1 + over_selection)).
    pub sample_target: usize,
    /// Population size, when the course is already assembled.
    pub num_clients: Option<usize>,
    /// Aggregation trigger.
    pub rule: RuleFacts,
    /// Whether broadcast happens after each *receive* (FedBuff style).
    pub after_receiving_broadcast: bool,
    /// Maximum tolerated staleness.
    pub staleness_tolerance: u64,
    /// Staleness discount exponent.
    pub staleness_discount: f32,
    /// Extra sampled fraction beyond concurrency.
    pub over_selection: f32,
    /// Evaluate every this many rounds.
    pub eval_every: u64,
    /// Early-stop accuracy target.
    pub target_accuracy: Option<f32>,
    /// Early-stop patience, in evaluations.
    pub patience: Option<u64>,
    /// Local steps per round.
    pub local_steps: usize,
    /// Local minibatch size.
    pub batch_size: usize,
    /// Local learning rate.
    pub lr: f32,
    /// Upload codec, if compression is on.
    pub upload: Option<CodecFacts>,
    /// Whether uploads are delta-encoded against the broadcast model.
    pub upload_delta: bool,
    /// Download codec, if compression is on.
    pub download: Option<CodecFacts>,
    /// Communication topology (`None` is treated as the plain star).
    pub topology: Option<Topology>,
}

impl Default for ConfigFacts {
    /// Mirrors `FlConfig::default()`.
    fn default() -> Self {
        Self {
            total_rounds: 50,
            concurrency: 10,
            sample_target: 10,
            num_clients: None,
            rule: RuleFacts::AllReceived,
            after_receiving_broadcast: false,
            staleness_tolerance: 20,
            staleness_discount: 0.5,
            over_selection: 0.0,
            eval_every: 1,
            target_accuracy: None,
            patience: None,
            local_steps: 4,
            batch_size: 20,
            lr: 0.1,
            upload: None,
            upload_delta: false,
            download: None,
            topology: None,
        }
    }
}

fn lint_codec(direction: &str, codec: CodecFacts, out: &mut Vec<Diagnostic>) {
    match codec {
        CodecFacts::Identity => {}
        CodecFacts::Quantize { bits } => {
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
        CodecFacts::TopK { ratio } => {
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
pub fn lint_config(facts: &ConfigFacts) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    if facts.total_rounds == 0 {
        out.push(
            Diagnostic::new(
                Code::ZeroRounds,
                "total_rounds",
                "zero rounds: the course terminates before any aggregation",
            )
            .with_suggestion("set total_rounds >= 1"),
        );
    }

    if facts.concurrency == 0 || facts.sample_target == 0 {
        out.push(
            Diagnostic::new(
                Code::EmptySampleTarget,
                "concurrency",
                format!(
                    "the sampler target is empty (concurrency = {}, sample_target = {}): \
                     no client is ever asked to train",
                    facts.concurrency, facts.sample_target
                ),
            )
            .with_suggestion("set concurrency >= 1"),
        );
    }

    if facts.rule == RuleFacts::AllReceived
        && (facts.staleness_tolerance > 0 || facts.staleness_discount != 0.0)
    {
        out.push(Diagnostic::new(
            Code::StalenessInertUnderSync,
            "staleness_tolerance",
            "staleness settings have no effect under the synchronous all_received \
             scheduler (no update can be stale when every round waits for all \
             sampled clients); they are never consulted",
        ));
    }

    if facts.over_selection.is_nan() || facts.over_selection < 0.0 {
        out.push(
            Diagnostic::new(
                Code::OverSelectionNegative,
                "over_selection",
                format!(
                    "over_selection must be a non-negative fraction, got {}",
                    facts.over_selection
                ),
            )
            .with_suggestion("the paper's Sync-OS uses 0.3"),
        );
    } else if facts.over_selection >= 1.0 {
        out.push(
            Diagnostic::new(
                Code::OverSelectionHuge,
                "over_selection",
                format!(
                    "over_selection = {} looks like a multiplicative factor; it is the \
                     *extra* fraction sampled beyond concurrency",
                    facts.over_selection
                ),
            )
            .with_suggestion("for 30% extra clients use 0.3, not 1.3"),
        );
    }

    if facts.upload_delta && facts.upload.is_none() {
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

    if facts.after_receiving_broadcast && facts.rule == RuleFacts::AllReceived {
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

    if let Some(codec) = facts.upload {
        lint_codec("upload", codec, &mut out);
    }
    if let Some(codec) = facts.download {
        lint_codec("download", codec, &mut out);
    }

    if facts.eval_every == 0 {
        out.push(
            Diagnostic::new(
                Code::ZeroEvalEvery,
                "eval_every",
                "eval_every is zero: the evaluation cadence is undefined",
            )
            .with_suggestion("set eval_every >= 1"),
        );
    } else if facts.total_rounds > 0 && facts.eval_every > facts.total_rounds {
        out.push(
            Diagnostic::new(
                Code::EvalEveryExceedsRounds,
                "eval_every",
                format!(
                    "eval_every ({}) exceeds total_rounds ({}): the model is never \
                     evaluated during the course",
                    facts.eval_every, facts.total_rounds
                ),
            )
            .with_suggestion("set eval_every <= total_rounds"),
        );
    }

    if facts.patience == Some(0) {
        out.push(
            Diagnostic::new(
                Code::ZeroPatience,
                "patience",
                "patience of zero early-stops at the very first evaluation",
            )
            .with_suggestion("use patience >= 1, or None to disable early stopping"),
        );
    }

    if let Some(acc) = facts.target_accuracy {
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

    if facts.lr.is_nan() || facts.lr <= 0.0 {
        out.push(
            Diagnostic::new(
                Code::NonPositiveLr,
                "sgd.lr",
                format!("learning rate must be positive, got {}", facts.lr),
            )
            .with_suggestion("a typical range is 0.01–1.0 for the in-repo models"),
        );
    }

    if facts.batch_size == 0 {
        out.push(
            Diagnostic::new(Code::ZeroBatchSize, "batch_size", "batch size of zero")
                .with_suggestion("set batch_size >= 1"),
        );
    }

    if facts.local_steps == 0 {
        out.push(
            Diagnostic::new(
                Code::ZeroLocalSteps,
                "local_steps",
                "zero local steps: every client returns the broadcast model unchanged",
            )
            .with_suggestion("set local_steps >= 1"),
        );
    }

    if let Some(n) = facts.num_clients {
        if facts.sample_target > n {
            out.push(
                Diagnostic::new(
                    Code::SampleTargetExceedsClients,
                    "concurrency",
                    format!(
                        "the sample target ({}) exceeds the client population ({n})",
                        facts.sample_target
                    ),
                )
                .with_suggestion("lower concurrency/over_selection or add clients"),
            );
        }
    }

    lint_topology(facts, &mut out);
    lint_scheduler(facts, &mut out);

    out
}

/// The buffered-async / tiered modes drive one central server loop (FSV060).
fn lint_star_only(facts: &ConfigFacts, out: &mut Vec<Diagnostic>) {
    if !matches!(facts.topology, None | Some(Topology::Star)) {
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
fn lint_scheduler(facts: &ConfigFacts, out: &mut Vec<Diagnostic>) {
    match facts.rule {
        RuleFacts::AllReceived => {}
        RuleFacts::GoalAchieved { goal } => {
            if goal == 0 {
                out.push(
                    Diagnostic::new(
                        Code::ZeroGoal,
                        "rule.goal",
                        "goal_achieved with a goal of zero fires before any update arrives",
                    )
                    .with_suggestion("set goal >= 1"),
                );
            } else if goal > facts.sample_target {
                out.push(
                    Diagnostic::new(
                        Code::ThresholdExceedsSampleTarget,
                        "rule.goal",
                        format!(
                            "goal ({goal}) exceeds the sample target ({}): with \
                             after_aggregating broadcast the condition can never fire",
                            facts.sample_target
                        ),
                    )
                    .with_suggestion("keep goal <= concurrency × (1 + over_selection)"),
                );
            }
        }
        RuleFacts::TimeUp {
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
            if min_feedback > facts.sample_target {
                out.push(
                    Diagnostic::new(
                        Code::ThresholdExceedsSampleTarget,
                        "rule.min_feedback",
                        format!(
                            "min_feedback ({min_feedback}) exceeds the sample target ({}): \
                             every round triggers the remedial measure",
                            facts.sample_target
                        ),
                    )
                    .with_suggestion("keep min_feedback <= the number of sampled clients"),
                );
            }
        }
        RuleFacts::Buffered { k } => {
            lint_star_only(facts, out);
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
            } else if k > facts.sample_target && !facts.after_receiving_broadcast {
                // under after_receiving the buffer keeps filling between
                // aggregations, so k may legitimately exceed the sample target
                out.push(
                    Diagnostic::new(
                        Code::ThresholdExceedsSampleTarget,
                        "rule.k",
                        format!(
                            "buffer size ({k}) exceeds the sample target ({}): with \
                             after_aggregating broadcast the buffer can never fill",
                            facts.sample_target
                        ),
                    )
                    .with_suggestion(
                        "keep k <= concurrency × (1 + over_selection), or use \
                         after_receiving broadcast",
                    ),
                );
            }
        }
        RuleFacts::Tiered { tiers } => {
            lint_star_only(facts, out);
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
            } else if facts.num_clients.is_some_and(|n| tiers > n) {
                out.push(Diagnostic::new(
                    Code::SchedTiersDegenerate,
                    "rule.tiers",
                    format!(
                        "more tiers ({tiers}) than clients ({}): some tiers are \
                         permanently empty",
                        facts.num_clients.unwrap_or(0)
                    ),
                ));
            }
        }
    }
}

/// Topology-specific config lints (FSV050–FSV056).
fn lint_topology(facts: &ConfigFacts, out: &mut Vec<Diagnostic>) {
    match facts.topology {
        None | Some(Topology::Star) => {}
        Some(Topology::Hierarchical { tiers, fanout }) => {
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
            if facts.upload_delta {
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
            if facts.rule != RuleFacts::AllReceived {
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
        Some(Topology::Gossip { degree, .. }) => {
            if degree == 0 {
                out.push(
                    Diagnostic::new(
                        Code::TopologyInvalid,
                        "topology.degree",
                        "gossip degree of zero exchanges nothing",
                    )
                    .with_suggestion("set degree >= 1"),
                );
            } else if let Some(n) = facts.num_clients {
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
    use crate::diag::Severity;

    #[test]
    fn default_facts_lint_to_notes_only() {
        let ds = lint_config(&ConfigFacts::default());
        // default FlConfig keeps staleness settings under all_received → Note
        assert!(ds.iter().all(|d| d.severity == Severity::Note), "{ds:?}");
        assert!(ds.iter().any(|d| d.code == Code::StalenessInertUnderSync));
    }

    #[test]
    fn zero_rounds_and_empty_target_are_errors() {
        let facts = ConfigFacts {
            total_rounds: 0,
            concurrency: 0,
            sample_target: 0,
            ..Default::default()
        };
        let ds = lint_config(&facts);
        assert!(ds.iter().any(|d| d.code == Code::ZeroRounds));
        assert!(ds.iter().any(|d| d.code == Code::EmptySampleTarget));
    }

    #[test]
    fn codec_range_lints() {
        let facts = ConfigFacts {
            upload: Some(CodecFacts::Quantize { bits: 3 }),
            download: Some(CodecFacts::TopK { ratio: 1.5 }),
            ..Default::default()
        };
        let ds = lint_config(&facts);
        assert!(ds.iter().any(|d| d.code == Code::QuantBitsInvalid));
        assert!(ds.iter().any(|d| d.code == Code::TopKRatioInvalid));
        let nan = ConfigFacts {
            upload: Some(CodecFacts::TopK { ratio: f32::NAN }),
            ..Default::default()
        };
        assert!(lint_config(&nan)
            .iter()
            .any(|d| d.code == Code::TopKRatioInvalid));
    }

    #[test]
    fn threshold_lints_respect_sample_target() {
        let facts = ConfigFacts {
            rule: RuleFacts::GoalAchieved { goal: 40 },
            concurrency: 10,
            sample_target: 10,
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::ThresholdExceedsSampleTarget));
        let facts = ConfigFacts {
            rule: RuleFacts::TimeUp {
                budget_secs: -1.0,
                min_feedback: 99,
            },
            ..Default::default()
        };
        let ds = lint_config(&facts);
        assert!(ds.iter().any(|d| d.code == Code::NonPositiveBudget));
        assert!(ds
            .iter()
            .any(|d| d.code == Code::ThresholdExceedsSampleTarget));
    }

    #[test]
    fn topology_lints() {
        // invalid shapes are errors
        let facts = ConfigFacts {
            topology: Some(Topology::Hierarchical {
                tiers: 1,
                fanout: 0,
            }),
            ..Default::default()
        };
        let ds = lint_config(&facts);
        assert_eq!(
            ds.iter()
                .filter(|d| d.code == Code::TopologyInvalid)
                .count(),
            2
        );
        // delta uploads cannot cross intermediate tiers
        let facts = ConfigFacts {
            topology: Some(Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            }),
            upload: Some(CodecFacts::Quantize { bits: 8 }),
            upload_delta: true,
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::DeltaUploadUnsupportedInHier));
        // non-all_received demotes edges to relays (warning, not error)
        let facts = ConfigFacts {
            topology: Some(Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            }),
            rule: RuleFacts::GoalAchieved { goal: 5 },
            ..Default::default()
        };
        let ds = lint_config(&facts);
        assert!(ds
            .iter()
            .any(|d| d.code == Code::TopologyRuleUnsupported && d.severity == Severity::Warning));
        // gossip degree must leave room for distinct peers
        let facts = ConfigFacts {
            topology: Some(Topology::Gossip {
                degree: 8,
                rounds: 5,
            }),
            num_clients: Some(8),
            ..Default::default()
        };
        let ds = lint_config(&facts);
        assert!(ds.iter().any(|d| d.code == Code::GossipDegreeTooLarge));
        assert!(ds.iter().any(|d| d.code == Code::GossipIgnoresStrategy));
        // a valid hierarchy under defaults adds nothing beyond the usual notes
        let facts = ConfigFacts {
            topology: Some(Topology::Hierarchical {
                tiers: 2,
                fanout: 4,
            }),
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .all(|d| d.severity == Severity::Note));
    }

    #[test]
    fn scheduler_lints() {
        // a buffered / tiered rule off the star topology is an error
        let facts = ConfigFacts {
            rule: RuleFacts::Buffered { k: 3 },
            topology: Some(Topology::Gossip {
                degree: 2,
                rounds: 3,
            }),
            ..Default::default()
        };
        let ds = lint_config(&facts);
        assert!(ds
            .iter()
            .any(|d| d.code == Code::SchedTopologyUnsupported && d.severity == Severity::Error));
        // zero-sized buffer / tier counts are errors
        let facts = ConfigFacts {
            rule: RuleFacts::Buffered { k: 0 },
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::SchedBufferInvalid && d.severity == Severity::Error));
        let facts = ConfigFacts {
            rule: RuleFacts::Tiered { tiers: 0 },
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::SchedTiersInvalid && d.severity == Severity::Error));
        // k beyond the sample target can never fill under after_aggregating
        let facts = ConfigFacts {
            rule: RuleFacts::Buffered { k: 9 },
            concurrency: 4,
            sample_target: 4,
            after_receiving_broadcast: false,
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::ThresholdExceedsSampleTarget));
        // ...but may legitimately exceed it under after_receiving
        let facts = ConfigFacts {
            rule: RuleFacts::Buffered { k: 9 },
            concurrency: 4,
            sample_target: 4,
            after_receiving_broadcast: true,
            ..Default::default()
        };
        assert!(!lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::ThresholdExceedsSampleTarget));
        // degenerate tier shapes are notes, not errors
        let facts = ConfigFacts {
            rule: RuleFacts::Tiered { tiers: 1 },
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::SchedTiersDegenerate && d.severity == Severity::Note));
        let facts = ConfigFacts {
            rule: RuleFacts::Tiered { tiers: 40 },
            num_clients: Some(10),
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::SchedTiersDegenerate));
    }

    #[test]
    fn staleness_inert_lint_fires_only_under_all_received() {
        // under all_received the settings are never consulted
        let facts = ConfigFacts {
            staleness_tolerance: 4,
            staleness_discount: 0.5,
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::StalenessInertUnderSync));
        // buffered-async consults them — the lint must not fire
        let facts = ConfigFacts {
            staleness_tolerance: 4,
            staleness_discount: 0.5,
            rule: RuleFacts::Buffered { k: 3 },
            ..Default::default()
        };
        assert!(!lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::StalenessInertUnderSync));
    }

    #[test]
    fn after_receiving_lint_fires_only_under_all_received() {
        // after_receiving + all_received: the round may never close, the
        // warning fires
        let facts = ConfigFacts {
            after_receiving_broadcast: true,
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::AfterReceivingUnderAllReceived));
        // the exact shape `FlConfig::buffered_async` produces — no hazard
        let facts = ConfigFacts {
            after_receiving_broadcast: true,
            rule: RuleFacts::Buffered { k: 4 },
            ..Default::default()
        };
        assert!(!lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::AfterReceivingUnderAllReceived));
    }

    #[test]
    fn population_bound() {
        let facts = ConfigFacts {
            num_clients: Some(8),
            concurrency: 10,
            sample_target: 13,
            ..Default::default()
        };
        assert!(lint_config(&facts)
            .iter()
            .any(|d| d.code == Code::SampleTargetExceedsClients));
    }
}
