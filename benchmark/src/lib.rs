//! The course benchmark: seven seeded FL courses, six end-to-end metrics,
//! per-layer probes and a wall-clock trace. See `README.md`.

pub mod adapter;
pub mod calibrate;
pub mod compare;
pub mod result;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

/// Where result and trace files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
