//! `fs-bench` — the experiment harness.
//!
//! One binary per table/figure of the paper's evaluation (§5, Appendices G–I)
//! lives in `src/bin/`; criterion microbenchmarks live in `benches/`. This
//! library holds what they share:
//!
//! * [`workloads`] — the three benchmark setups standing in for FEMNIST,
//!   CIFAR-10, and Twitter (synthetic data, same heterogeneity structure,
//!   same model families);
//! * [`strategies`] — the named strategy grid of Table 1 / Figure 17
//!   (`Sync-vanilla`, `Sync-OS`, `Async-<Event>-<Manner>-<Sampler>`);
//! * [`args`] — the shared `--seed/--rounds/--strategies/--workloads/--quick`
//!   command-line vocabulary;
//! * [`output`] — human-readable tables plus machine-readable JSON dumped
//!   under `results/`;
//! * [`snapshot`] — the one `BENCH_*.json` document type, its five row
//!   schemas and the `--validate` gate the snapshot-writing binaries share.
//!
//! Absolute numbers differ from the paper (different hardware model, data,
//! and scale); the *shape* of each result — who wins, by roughly what factor,
//! where the crossovers sit — is what `EXPERIMENTS.md` tracks.

pub mod args;
pub mod output;
pub mod snapshot;
pub mod strategies;
pub mod sys;
pub mod workloads;

/// The products `benches/matmul.rs` and `exp_perf` time, as
/// `(lhs stored transposed, m, k, n)`.
///
/// Two square-ish full-tile shapes, then the shapes courses actually run —
/// which mostly are *not* multiples of the 4x16 tile, and went unmeasured
/// while only the first two were here: the whole-batch convolution products
/// of the old row-major lowering (kept as the remainder-tile stress: n = 8,
/// 9, 10 and 72, m = 8), the per-image products of the current lowering
/// (`femnist` `convnet2`, batch 20 on 8x8), and the classifier head.
pub const MATMUL_SHAPES: [(bool, usize, usize, usize); 10] = [
    (false, 64, 64, 64),
    (false, 128, 256, 128),
    (false, 1280, 9, 8),
    (false, 320, 72, 16),
    (true, 8, 1280, 9),
    (true, 16, 320, 72),
    (false, 20, 32, 10),
    // conv1 / conv2 forward for one image: W [OC, C·K·K] x cols [C·K·K, OH·OW]
    (false, 8, 9, 64),
    (false, 16, 72, 16),
    // conv2 weight gradient for one image: cols [C·K·K, OH·OW] x g^T [OH·OW, OC]
    (false, 72, 16, 16),
];
