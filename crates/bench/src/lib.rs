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
//! * [`args`] — the shared `--seed/--rounds/--strategies/--workloads`
//!   command-line vocabulary;
//! * [`output`] — human-readable tables, machine-readable JSON dumped under
//!   `results/`, and the named [`output::Claim`]s each binary checks against
//!   its own rows (exit 1 names a broken one).
//!
//! Absolute numbers differ from the paper (different hardware model, data,
//! and scale); the *shape* of each result — who wins, by roughly what factor,
//! where the crossovers sit — is what `EXPERIMENTS.md` tracks.

pub mod args;
pub mod output;
pub mod strategies;
pub mod sys;
pub mod workloads;
