//! FL course configuration.

use fs_compress::{Compressor, DeltaEncode, Identity, TopK, UniformQuant};
use fs_net::Topology;
use fs_tensor::optim::SgdConfig;

/// Which codec compresses a parameter payload (see `fs-compress`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CodecSpec {
    /// Dense f32 passthrough (framing only, no size reduction).
    Identity,
    /// Uniform linear quantization with per-tensor min/max.
    UniformQuant {
        /// Quantization width: 4 or 8 bits per value.
        bits: u8,
    },
    /// Top-k magnitude sparsification with error-feedback residuals.
    TopK {
        /// Fraction of entries kept per tensor, in `(0, 1]`.
        ratio: f32,
    },
}

impl CodecSpec {
    /// Instantiates the codec. Each participant gets its own instance, so
    /// stateful codecs (error feedback, delta references) stay per-sender.
    pub fn build(self) -> Box<dyn Compressor> {
        match self {
            CodecSpec::Identity => Box::new(Identity),
            CodecSpec::UniformQuant { bits } => Box::new(UniformQuant::new(bits)),
            CodecSpec::TopK { ratio } => Box::new(TopK::new(ratio)),
        }
    }
}

/// Update-compression configuration for a course.
///
/// Upload (client → server) and download (server → client) directions are
/// configured independently; `Default` disables both, preserving the dense
/// `Payload::Model` / `Payload::Update` wire behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct CompressionConfig {
    /// Codec for client updates, or `None` for dense uploads.
    pub upload: Option<CodecSpec>,
    /// Encode uploads as deltas against the received broadcast model (the
    /// server keeps a bounded history of past globals to reconstruct them).
    pub upload_delta: bool,
    /// Codec for model broadcasts, or `None` for dense downloads.
    pub download: Option<CodecSpec>,
}

impl CompressionConfig {
    /// 8-bit quantized uploads — the paper-style default for shrinking the
    /// client uplink, usually the bottleneck.
    pub fn quant8_upload() -> Self {
        Self {
            upload: Some(CodecSpec::UniformQuant { bits: 8 }),
            ..Default::default()
        }
    }

    /// Builds the (stateful) upload codec for one client.
    pub fn build_upload(&self) -> Option<Box<dyn Compressor>> {
        self.upload.map(|spec| {
            let inner = spec.build();
            if self.upload_delta {
                Box::new(DeltaEncode::new(inner)) as Box<dyn Compressor>
            } else {
                inner
            }
        })
    }

    /// Builds the download codec (one instance, held by the server).
    pub fn build_download(&self) -> Option<Box<dyn Compressor>> {
        self.download.map(CodecSpec::build)
    }
}

/// When the server performs federated aggregation — the condition-checking
/// event family of §3.3. The rule *is* the scheduling policy: the server
/// asks it (one `match` per decision, in `scheduler.rs`) which condition
/// triggers aggregation, whether rounds are timed, when aggregation is due
/// and which buffered updates it consumes. This is the only "when to
/// aggregate" setting a course has; a different behaviour is a different
/// `<event, handler>` pair (§3.6), not a new policy object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggregationRule {
    /// Wait for every sampled client (vanilla synchronous FL).
    AllReceived,
    /// Aggregate once `goal` usable updates are buffered
    /// (`goal_achieved`; FedBuff-style, also Sync-OS when tolerance = 0).
    GoalAchieved {
        /// Number of usable updates that triggers aggregation.
        goal: usize,
    },
    /// Aggregate when the round's time budget runs out (`time_up`).
    TimeUp {
        /// Per-round virtual-time budget, seconds.
        budget_secs: f64,
        /// Minimum usable updates required; fewer triggers a remedial
        /// measure (the budget is extended, §3.3.2).
        min_feedback: usize,
    },
    /// FedBuff-style buffered async: aggregate every `k` buffered updates,
    /// weighting each by `FlConfig::staleness_discount`.
    Buffered {
        /// Buffer size that triggers aggregation (clamped to the live
        /// roster, like `goal_achieved`'s effective goal).
        k: usize,
    },
    /// Tiered semi-async (FedModule-style): clients are partitioned into
    /// `tiers` speed tiers by a seeded hash; each tier aggregates
    /// synchronously (waits for its own sampled cohort), and tiers merge
    /// into the global model asynchronously with respect to each other.
    Tiered {
        /// Number of speed tiers.
        tiers: usize,
    },
}

/// When the server broadcasts models in asynchronous FL (§3.3.1 (iii)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BroadcastManner {
    /// Broadcast the new global model to freshly sampled clients after each
    /// aggregation (also the synchronous behaviour).
    AfterAggregating,
    /// Send the current model to one sampled idle client as soon as any
    /// feedback is received, keeping concurrency constant (FedBuff).
    AfterReceiving,
}

/// Client sampling strategy (§3.3.1 (ii)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplerKind {
    /// Uniform over idle clients.
    Uniform,
    /// Probability proportional to estimated response speed.
    Responsiveness,
    /// Sample within one responsiveness group per round, rotating groups.
    Group,
}

/// What a distributed runner does when a client connection dies mid-course
/// (standalone simulation has no real sockets, so it ignores this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropoutPolicy {
    /// Abort the course with the disconnect error.
    Fail,
    /// Remove the dead client from the roster and finish the course with the
    /// survivors, as long as at least `min_survivors` remain.
    Survivors {
        /// Fewest clients the course may shrink to before aborting.
        min_survivors: usize,
    },
}

impl Default for DropoutPolicy {
    fn default() -> Self {
        DropoutPolicy::Survivors { min_survivors: 1 }
    }
}

/// Full configuration of an FL course.
#[derive(Clone, Debug)]
pub struct FlConfig {
    /// Maximum number of aggregation rounds.
    pub total_rounds: u64,
    /// Target number of clients training concurrently.
    pub concurrency: usize,
    /// When to aggregate (sync / goal / time_up / buffered async / tiered
    /// semi-async): every per-rule decision the server takes reads it.
    pub rule: AggregationRule,
    /// Broadcast manner.
    pub broadcast: BroadcastManner,
    /// Sampling strategy.
    pub sampler: SamplerKind,
    /// Maximum tolerated staleness; staler updates are dropped (§3.3.1 (i)).
    pub staleness_tolerance: u64,
    /// Staleness discount exponent `a`: update weight is scaled by
    /// `1/(1+tau)^a`. Zero disables discounting.
    pub staleness_discount: f32,
    /// Extra fraction of clients sampled beyond `concurrency`
    /// (the over-selection mechanism; 0.3 in the paper's Sync-OS).
    pub over_selection: f32,
    /// Evaluate the global model every this many rounds.
    pub eval_every: u64,
    /// Stop as soon as global test accuracy reaches this value.
    pub target_accuracy: Option<f32>,
    /// Local training steps per round (the paper's `Q`).
    pub local_steps: usize,
    /// Local minibatch size.
    pub batch_size: usize,
    /// Local optimizer configuration.
    pub sgd: SgdConfig,
    /// Update compression (both directions disabled by default).
    pub compression: CompressionConfig,
    /// How distributed runners handle mid-course client disconnects.
    pub dropout: DropoutPolicy,
    /// Course RNG seed.
    pub seed: u64,
    /// Worker threads for the virtual-time course loop's speculative client
    /// execution (eager, lazy and hierarchical courses alike): `1` (the default) runs every handler serially on the
    /// simulation thread, `0` uses all available cores, `n > 1` uses `n`
    /// workers. Any setting produces bit-identical reports, RNG streams, and
    /// virtual-time accounting — parallelism only changes wall-clock time.
    pub parallelism: usize,
    /// Communication topology: star (the default), hierarchical with edge
    /// aggregators, or serverless gossip. Both clocks route by it from
    /// their ordinary entry points: the virtual-time `Runner` (`try_run`)
    /// and the threaded driver (`run_distributed_with`,
    /// `run_distributed_tcp_with`) run all three. Tier/neighborhood
    /// assignment is derived deterministically from `seed`.
    ///
    /// A gossip course has no server: the aggregation rule, broadcast
    /// manner and sampler do not apply (`FSV055`), and neither does the
    /// fleet's `crash_prob` — a device crash loses a server broadcast, and
    /// gossip sends none, so its peers never crash and the crash-fleet
    /// check for server courses (`FSV065`) does not refuse it.
    pub topology: Topology,
}

impl Default for FlConfig {
    fn default() -> Self {
        Self {
            total_rounds: 50,
            concurrency: 10,
            rule: AggregationRule::AllReceived,
            broadcast: BroadcastManner::AfterAggregating,
            sampler: SamplerKind::Uniform,
            staleness_tolerance: 20,
            staleness_discount: 0.5,
            over_selection: 0.0,
            eval_every: 1,
            target_accuracy: None,
            local_steps: 4,
            batch_size: 20,
            sgd: SgdConfig::with_lr(0.1),
            compression: CompressionConfig::default(),
            dropout: DropoutPolicy::default(),
            seed: 42,
            parallelism: 1,
            topology: Topology::Star,
        }
    }
}

impl FlConfig {
    /// Number of clients sampled when (re)filling the concurrency target,
    /// including over-selection.
    pub fn sample_target(&self) -> usize {
        ((self.concurrency as f32) * (1.0 + self.over_selection)).round() as usize
    }

    /// Convenience: the paper's `Sync-vanilla` strategy.
    pub fn sync_vanilla(mut self) -> Self {
        self.rule = AggregationRule::AllReceived;
        self.broadcast = BroadcastManner::AfterAggregating;
        self.over_selection = 0.0;
        self
    }

    /// Convenience: the paper's `Sync-OS` (over-selection) strategy —
    /// `goal_achieved` with goal = concurrency and zero staleness tolerance.
    pub fn sync_over_selection(mut self, extra: f32) -> Self {
        self.rule = AggregationRule::GoalAchieved {
            goal: self.concurrency,
        };
        self.broadcast = BroadcastManner::AfterAggregating;
        self.over_selection = extra;
        self.staleness_tolerance = 0;
        self
    }

    /// Convenience: `Async-Goal-<manner>-<sampler>` with the given goal.
    pub fn async_goal(
        mut self,
        goal: usize,
        manner: BroadcastManner,
        sampler: SamplerKind,
    ) -> Self {
        self.rule = AggregationRule::GoalAchieved { goal };
        self.broadcast = manner;
        self.sampler = sampler;
        self
    }

    /// Convenience: `Async-Time-<manner>-<sampler>` with the given budget.
    pub fn async_time(
        mut self,
        budget_secs: f64,
        min_feedback: usize,
        manner: BroadcastManner,
        sampler: SamplerKind,
    ) -> Self {
        self.rule = AggregationRule::TimeUp {
            budget_secs,
            min_feedback,
        };
        self.broadcast = manner;
        self.sampler = sampler;
        self
    }

    /// Convenience: FedBuff-style buffered async — aggregate every `k`
    /// buffered updates with staleness-discounted weights, topping
    /// concurrency up per receive so the buffer keeps filling.
    pub fn buffered_async(mut self, k: usize) -> Self {
        self.rule = AggregationRule::Buffered { k };
        self.broadcast = BroadcastManner::AfterReceiving;
        self
    }

    /// Convenience: tiered semi-async — `tiers` seeded speed tiers, each
    /// aggregating synchronously within itself and merging asynchronously
    /// into the global model.
    pub fn tiered(mut self, tiers: usize) -> Self {
        self.rule = AggregationRule::Tiered { tiers };
        self.broadcast = BroadcastManner::AfterAggregating;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_target_includes_over_selection() {
        let cfg = FlConfig {
            concurrency: 100,
            over_selection: 0.3,
            ..Default::default()
        };
        assert_eq!(cfg.sample_target(), 130);
        let cfg = FlConfig {
            concurrency: 10,
            over_selection: 0.0,
            ..Default::default()
        };
        assert_eq!(cfg.sample_target(), 10);
    }

    #[test]
    fn sync_os_is_goal_with_zero_tolerance() {
        let cfg = FlConfig {
            concurrency: 100,
            ..Default::default()
        }
        .sync_over_selection(0.3);
        assert_eq!(cfg.rule, AggregationRule::GoalAchieved { goal: 100 });
        assert_eq!(cfg.staleness_tolerance, 0);
        assert_eq!(cfg.sample_target(), 130);
    }

    #[test]
    fn builders_set_strategy_fields() {
        let cfg =
            FlConfig::default().async_goal(40, BroadcastManner::AfterReceiving, SamplerKind::Group);
        assert_eq!(cfg.rule, AggregationRule::GoalAchieved { goal: 40 });
        assert_eq!(cfg.broadcast, BroadcastManner::AfterReceiving);
        assert_eq!(cfg.sampler, SamplerKind::Group);
        let cfg = FlConfig::default().async_time(
            60.0,
            5,
            BroadcastManner::AfterAggregating,
            SamplerKind::Uniform,
        );
        match cfg.rule {
            AggregationRule::TimeUp {
                budget_secs,
                min_feedback,
            } => {
                assert_eq!(budget_secs, 60.0);
                assert_eq!(min_feedback, 5);
            }
            _ => panic!("wrong rule"),
        }
    }
}
