//! The seven benchmark courses, as plain data.
//!
//! The constants are the benchmark's own (copied once from `fs-bench`'s
//! femnist/twitter workloads and `exp_scale`, then frozen): a change to
//! `fs-bench` must not silently move the baseline. Nothing here names a type
//! of the program; `adapter.rs` turns a [`Workload`] into a course.
//!
//! Round counts are sized so that one course takes roughly 0.5–0.9 s on the
//! 2-core reference host: a run repeats the course for `--seconds` and
//! reports medians, and ten or more repeats per run keep those steady.

/// Which synthetic federated dataset a course trains on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dataset {
    /// `femnist_like`: writer-style feature skew, `img`×`img` one-channel
    /// images, 10 classes.
    Femnist {
        clients: usize,
        per_client: usize,
        img: usize,
    },
    /// `twitter_like`: many tiny users, bag-of-words, 2 classes. The corpus
    /// stays pinned at its separable seed (21) whatever `--seed` says.
    Twitter {
        users: usize,
        vocab: usize,
        per_user: usize,
    },
    /// Lazily generated per-client Gaussian clusters (the `exp_scale` data):
    /// a client's split exists only while the client is active.
    Lazy {
        clients: usize,
        dim: usize,
        classes: usize,
        per_client: usize,
    },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ModelKind {
    /// `convnet2(1, img, hidden, classes)`.
    ConvNet2 { hidden: usize },
    /// `logistic_regression(input_dim, classes)`.
    LogReg,
}

/// Which execution path of the program drives the course.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Runner {
    /// Legacy virtual-time `StandaloneRunner` with this `parallelism`.
    Legacy { parallelism: usize },
    /// `fs-scale` lazy-client runner.
    Scale,
    /// Threads + in-process bus (`run_distributed`).
    Bus,
    /// Threads + TCP loopback (`run_distributed_tcp`).
    Tcp,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// `all_received`: wait for every sampled client.
    Sync,
    /// `goal_achieved{goal}` + after-receiving broadcast + uniform sampler.
    AsyncGoal { goal: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Codec {
    /// Dense payloads both ways (no codec configured).
    Dense,
    /// `TopK{ratio}` delta-encoded uploads, `UniformQuant{8}` downloads.
    TopKDelta { ratio: f32 },
}

/// One benchmark course.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line: the layer it stresses and why it is here.
    pub why: &'static str,
    pub dataset: Dataset,
    pub model: ModelKind,
    pub runner: Runner,
    pub strategy: Strategy,
    pub codec: Codec,
    pub concurrency: usize,
    pub local_steps: usize,
    pub batch_size: usize,
    pub lr: f32,
    pub rounds: u64,
    /// Server-side evaluation every round (off for scale and distributed).
    pub central_eval: bool,
    /// Floor on the best global accuracy of a full course, where evaluated:
    /// a sanity check that learning happens (3x chance on femnist, where 16
    /// rounds reach 0.49-0.98 depending on the seed), not a quality target.
    pub min_accuracy: Option<f32>,
}

impl Workload {
    /// The course at a twentieth of its size, for tests: rounds (and the
    /// lazy client population, whose join/finish traffic is most of that
    /// course) divided by 20, no accuracy floor.
    pub fn smoke(&self) -> Workload {
        let dataset = match self.dataset {
            Dataset::Lazy {
                clients,
                dim,
                classes,
                per_client,
            } => Dataset::Lazy {
                clients: clients / 20,
                dim,
                classes,
                per_client,
            },
            other => other,
        };
        Workload {
            dataset,
            rounds: (self.rounds / 20).max(2),
            min_accuracy: None,
            ..*self
        }
    }

    /// Updates one aggregation consumes by design.
    pub fn updates_per_round(&self) -> u64 {
        match self.strategy {
            Strategy::Sync => self.concurrency as u64,
            Strategy::AsyncGoal { goal } => goal as u64,
        }
    }

    pub fn num_clients(&self) -> usize {
        match self.dataset {
            Dataset::Femnist { clients, .. } | Dataset::Lazy { clients, .. } => clients,
            Dataset::Twitter { users, .. } => users,
        }
    }
}

const FEMNIST: Dataset = Dataset::Femnist {
    clients: 60,
    per_client: 30,
    img: 8,
};
const FEMNIST_8: Dataset = Dataset::Femnist {
    clients: 8,
    per_client: 30,
    img: 8,
};
const CNN: ModelKind = ModelKind::ConvNet2 { hidden: 32 };

const FEMNIST_SYNC: Workload = Workload {
    name: "femnist_sync",
    why: "fs-tensor + trainer do >95% of the work on the serial legacy runner: the workload for training-kernel and allocation changes",
    dataset: FEMNIST,
    model: CNN,
    runner: Runner::Legacy { parallelism: 1 },
    strategy: Strategy::Sync,
    codec: Codec::Dense,
    concurrency: 20,
    local_steps: 4,
    batch_size: 20,
    lr: 0.25,
    rounds: 16,
    central_eval: true,
    min_accuracy: Some(0.3),
};

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 7] = [
    FEMNIST_SYNC,
    Workload {
        name: "femnist_par",
        why: "femnist_sync at parallelism 2: the same training reached through fs-exec speculation and CoW snapshots; must report the same fingerprint",
        runner: Runner::Legacy { parallelism: 2 },
        ..FEMNIST_SYNC
    },
    Workload {
        name: "femnist_topk",
        why: "femnist_sync with TopK(0.1) delta uploads and 8-bit downloads: fs-compress and the server's reconstruct path do visible work, ~4x fewer bytes",
        codec: Codec::TopKDelta { ratio: 0.1 },
        ..FEMNIST_SYNC
    },
    Workload {
        name: "twitter_async",
        why: "122-parameter model, goal_achieved async: per-update framework cost (server, scheduler, sampler, event queue, eval) dominates; fs-tensor does little",
        dataset: Dataset::Twitter {
            users: 120,
            vocab: 60,
            per_user: 10,
        },
        model: ModelKind::LogReg,
        runner: Runner::Legacy { parallelism: 1 },
        strategy: Strategy::AsyncGoal { goal: 16 },
        codec: Codec::Dense,
        concurrency: 40,
        local_steps: 4,
        batch_size: 2,
        lr: 0.3,
        rounds: 2000,
        central_eval: true,
        min_accuracy: Some(0.6),
    },
    Workload {
        name: "scale_lr",
        why: "100k lazy clients on the fs-scale runner: client lifecycle, IndexedEventQueue and memory; guards the one-event-loop refactor (peak_rss_mb matters most)",
        dataset: Dataset::Lazy {
            clients: 100_000,
            dim: 64,
            classes: 10,
            per_client: 12,
        },
        model: ModelKind::LogReg,
        runner: Runner::Scale,
        strategy: Strategy::Sync,
        codec: Codec::Dense,
        concurrency: 100,
        local_steps: 4,
        batch_size: 8,
        lr: 0.1,
        rounds: 20,
        central_eval: false,
        min_accuracy: None,
    },
    Workload {
        name: "bus_femnist",
        why: "8-client femnist CNN over threads + in-process bus: the distributed poll loop and wire encode/decode without sockets; the control for tcp_femnist",
        dataset: FEMNIST_8,
        runner: Runner::Bus,
        concurrency: 2,
        rounds: 250,
        central_eval: false,
        min_accuracy: None,
        ..FEMNIST_SYNC
    },
    Workload {
        name: "tcp_femnist",
        why: "the bus_femnist course over TCP loopback: fs-net::tcp framing and socket behaviour dominate; a transport fix shows here and nowhere else",
        dataset: FEMNIST_8,
        runner: Runner::Tcp,
        concurrency: 2,
        rounds: 24,
        central_eval: false,
        min_accuracy: None,
        ..FEMNIST_SYNC
    },
];

/// Looks a workload up by its name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
