//! The result file one run writes (`benchmark/out/<workload>.json`), and the
//! set file `run all` writes.

use crate::stats::Summary;
use crate::sys::HostStamp;
use serde::{Deserialize, Serialize};

/// One metric of one run: the value reported, and how it was spread over
/// the repeats (or probe calls) behind it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MetricRow {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    /// Distance between the first and the third quartile.
    pub iqr: f64,
    pub n: u64,
}

impl MetricRow {
    pub fn new(name: &str, unit: &str, s: Summary) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.median,
            min: s.min,
            max: s.max,
            iqr: s.iqr,
            n: s.n as u64,
        }
    }
}

/// Everything one run of one workload measured.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    pub schema: u64,
    pub workload: String,
    pub why: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub smoke: bool,
    pub host: HostStamp,
    /// Median host speed over the timed courses, relative to the reference
    /// host (see `calibrate`); the end-to-end timings are scaled by it.
    pub host_speed: f64,
    pub correct: bool,
    /// Client updates the timed courses were designed to deliver.
    pub ops_attempted: u64,
    /// Updates dropped or lost to crashes; every op of a course that failed
    /// a correctness check.
    pub ops_failed: u64,
    /// Timed repeats behind the end-to-end medians.
    pub repeats: u64,
    /// FNV-1a of the course report's wall-free fields, as hex; equal on
    /// every repeat, and comparable between two commits.
    pub fingerprint: String,
    /// Best global accuracy and last global loss of the (deterministic)
    /// course, where the server evaluates.
    pub best_accuracy: Option<f64>,
    pub last_loss: Option<f64>,
    /// Correctness checks that failed, in words.
    pub failures: Vec<String>,
    /// End-to-end metrics, timings at reference host speed.
    pub end_to_end: Vec<MetricRow>,
    /// The same metrics exactly as measured on this host.
    pub raw_end_to_end: Vec<MetricRow>,
    pub per_layer: Vec<MetricRow>,
}

impl RunResult {
    pub fn metric(&self, name: &str) -> Option<&MetricRow> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("result serializes")
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// The contract's last line of output: `correct`, `attempted`, `failed`
    /// and the metrics of the mode that ran, each with all its digits.
    pub fn contract_line(&self) -> String {
        let rows = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let metrics: Vec<String> = rows
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.ops_attempted.max(1),
            self.ops_failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip form has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The runs of one `run all`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    pub runs: Vec<RunResult>,
}

impl ResultSet {
    /// Reads a set file, or a single run's file as a set of one.
    pub fn from_json(text: &str) -> Result<Self, String> {
        serde_json::from_str::<ResultSet>(text)
            .or_else(|_| RunResult::from_json(text).map(|r| ResultSet { runs: vec![r] }))
    }

    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("set serializes")
    }
}
