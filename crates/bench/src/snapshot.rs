//! The `BENCH_*.json` regression snapshots.
//!
//! Every snapshot is the same document — `schema_version`, `bench`, an
//! optional extra header, `rows` — so there is one [`Snapshot`] type generic
//! over its [`Row`], one parse-and-header check ([`Snapshot::parse`]) and one
//! `--validate` / write-reread-validate pair ([`validate_file`],
//! [`Snapshot::store`]) shared by `exp_monitor`, `exp_perf`, `exp_scale`,
//! `exp_topo` and `exp_sched`. A row type holds only its fields, its per-row
//! [`Row::check`] and, where the bench has one, its cross-row contract
//! ([`Row::check_document`]).

use crate::sys::usable_cores;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt::Debug;
use std::fs;

/// One row of a `BENCH_*.json` document.
pub trait Row: Serialize + Deserialize + Sized {
    /// Schema version of the documents holding this row; bump on
    /// incompatible changes.
    const SCHEMA_VERSION: u64;
    /// Header fields beyond `schema_version` and `bench` ([`NoExtra`] for
    /// every bench but `exp_perf`).
    type Extra: Serialize + Deserialize + Default + Clone + Debug + PartialEq;
    /// How many of `Extra`'s fields are written before `rows`; the rest
    /// follow it (the committed `BENCH_perf.json` puts `matmul` last).
    const EXTRA_BEFORE_ROWS: usize = 0;

    /// Field-level checks of one row.
    fn check(&self) -> Result<(), String>;

    /// Checks that need the whole document: the extra header and the
    /// bench's cross-row contract.
    fn check_document(_doc: &Snapshot<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// The extra header of a bench that has none.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NoExtra {}

/// A `BENCH_*.json` document.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot<R: Row> {
    /// Must equal [`Row::SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Name of the binary that wrote the document (e.g. `"exp_topo"`).
    pub bench: String,
    /// Bench-specific header fields, flattened into the document.
    pub extra: R::Extra,
    /// One row per measured cell.
    pub rows: Vec<R>,
}

impl<R: Row> Serialize for Snapshot<R> {
    fn to_value(&self) -> Value {
        let Value::Object(mut after_rows) = self.extra.to_value() else {
            panic!("a snapshot's extra header is a struct with named fields");
        };
        let mut doc = vec![
            ("schema_version".to_string(), self.schema_version.to_value()),
            ("bench".to_string(), self.bench.to_value()),
        ];
        doc.extend(after_rows.drain(..R::EXTRA_BEFORE_ROWS));
        doc.push(("rows".to_string(), self.rows.to_value()));
        doc.extend(after_rows);
        Value::Object(doc)
    }
}

impl<R: Row> Deserialize for Snapshot<R> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name: &str| v.get(name).unwrap_or(&Value::Null);
        Ok(Self {
            schema_version: u64::from_value(field("schema_version"))
                .map_err(|e| e.in_field("Snapshot", "schema_version"))?,
            bench: String::from_value(field("bench"))
                .map_err(|e| e.in_field("Snapshot", "bench"))?,
            // the extra header's fields sit beside `rows` at the top level
            extra: R::Extra::from_value(v)?,
            rows: Vec::from_value(field("rows")).map_err(|e| e.in_field("Snapshot", "rows"))?,
        })
    }
}

impl<R: Row> Snapshot<R> {
    /// An empty snapshot for `bench`.
    pub fn new(bench: &str) -> Self {
        Self {
            schema_version: R::SCHEMA_VERSION,
            bench: bench.to_string(),
            extra: R::Extra::default(),
            rows: Vec::new(),
        }
    }

    /// Serializes the snapshot as pretty JSON. Fails on a value JSON cannot
    /// hold (a non-finite float) instead of producing a document.
    pub fn to_json(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| e.to_string())
    }

    /// Parses and validates a document — the CI gate: a missing field, a
    /// wrong schema version, an empty grid, a bad row or a broken bench
    /// contract all fail.
    pub fn parse(json: &str) -> Result<Self, String> {
        let snap: Self =
            serde_json::from_str(json).map_err(|e| format!("malformed snapshot: {e}"))?;
        snap.check()?;
        Ok(snap)
    }

    /// The checks behind [`Snapshot::parse`], on an in-memory snapshot.
    pub fn check(&self) -> Result<(), String> {
        if self.schema_version != R::SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != expected {}",
                self.schema_version,
                R::SCHEMA_VERSION
            ));
        }
        if self.rows.is_empty() {
            return Err("snapshot has no rows".to_string());
        }
        for (i, row) in self.rows.iter().enumerate() {
            row.check().map_err(|e| format!("row {i}: {e}"))?;
        }
        R::check_document(self)
    }

    /// Reads and validates the document at `path`.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Self::parse(&text).map_err(|e| format!("{path} failed validation: {e}"))
    }

    /// Validates the snapshot, writes it to `path`, and proves the file
    /// round-trips through [`Snapshot::load`]. An invalid snapshot is never
    /// written over the committed one.
    pub fn store(&self, path: &str) -> Result<(), String> {
        self.check()?;
        fs::write(path, self.to_json()?).map_err(|e| format!("cannot write {path}: {e}"))?;
        Self::load(path).map(|_| ())
    }
}

/// The `--validate` mode of a bench binary: loads the committed snapshot at
/// `path` or panics with the reason.
pub fn validate_file<R: Row>(path: &str) -> Snapshot<R> {
    let snap = Snapshot::<R>::load(path).unwrap_or_else(|e| panic!("{e}"));
    println!("{path} valid: {} rows", snap.rows.len());
    snap
}

fn named(fields: &[(&str, &str)]) -> Result<(), String> {
    match fields.iter().find(|(_, v)| v.is_empty()) {
        Some((name, _)) => Err(format!("empty {name}")),
        None => Ok(()),
    }
}

fn nonzero(name: &str, v: u64) -> Result<(), String> {
    if v == 0 {
        return Err(format!("zero {name}"));
    }
    Ok(())
}

fn finite(name: &str, v: f64) -> Result<(), String> {
    if !v.is_finite() {
        return Err(format!("non-finite {name}"));
    }
    Ok(())
}

/// The one "finite and positive" rule for rates, timings and speedups.
fn positive(name: &str, v: f64) -> Result<(), String> {
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("bad {name} ({v})"));
    }
    Ok(())
}

/// One benchmarked configuration in `BENCH_monitor.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// Workload name (e.g. `"femnist"`).
    pub workload: String,
    /// Training-strategy name (e.g. `"goal_aggr_unif"`).
    pub strategy: String,
    /// Compressor name (e.g. `"identity"`, `"topk"`).
    pub compressor: String,
    /// Aggregation rounds completed.
    pub rounds: u64,
    /// Rounds completed per wall-clock second of engine time.
    pub rounds_per_sec: f64,
    /// Virtual seconds when the target accuracy was first reached
    /// (negative when the target was never reached).
    pub virtual_secs_to_target: f64,
    /// Target accuracy used for `virtual_secs_to_target`.
    pub target_accuracy: f64,
    /// Best global accuracy seen over the course.
    pub best_accuracy: f64,
    /// Payload bytes charged client → server.
    pub uploaded_bytes: u64,
    /// Payload bytes charged server → clients.
    pub downloaded_bytes: u64,
    /// Final virtual time of the course, in seconds.
    pub final_virtual_secs: f64,
}

impl Row for BenchRow {
    const SCHEMA_VERSION: u64 = 1;
    type Extra = NoExtra;

    fn check(&self) -> Result<(), String> {
        named(&[
            ("workload", &self.workload),
            ("strategy", &self.strategy),
            ("compressor", &self.compressor),
        ])?;
        nonzero("rounds", self.rounds)?;
        positive("rounds_per_sec", self.rounds_per_sec)?;
        finite("target_accuracy", self.target_accuracy)?;
        finite("best_accuracy", self.best_accuracy)?;
        finite("final_virtual_secs", self.final_virtual_secs)?;
        finite("virtual_secs_to_target", self.virtual_secs_to_target)
    }
}

/// One serial-vs-parallel grid cell in `BENCH_perf.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfRow {
    /// Workload name (e.g. `"femnist"`).
    pub workload: String,
    /// Training-strategy name (e.g. `"sync_vanilla"`).
    pub strategy: String,
    /// Aggregation rounds completed (identical for both runs by contract).
    pub rounds: u64,
    /// Worker threads used for the parallel run (`FlConfig::parallelism`).
    pub threads: usize,
    /// Wall-clock milliseconds of the serial (`parallelism = 1`) run.
    pub serial_ms: f64,
    /// Wall-clock milliseconds of the parallel run.
    pub parallel_ms: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    /// Whether the serial and parallel `CourseReport`s compared equal —
    /// the determinism contract; the validator rejects `false`.
    pub reports_identical: bool,
}

/// One matmul micro-measurement in `BENCH_perf.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MatmulRow {
    /// Left operand rows.
    pub m: usize,
    /// Inner (contraction) dimension.
    pub k: usize,
    /// Right operand columns.
    pub n: usize,
    /// Best-of-N nanoseconds for the naive triple loop.
    pub naive_ns: f64,
    /// Best-of-N nanoseconds for the blocked/SIMD kernel.
    pub blocked_ns: f64,
    /// `naive_ns / blocked_ns`.
    pub speedup: f64,
}

/// A ratcheted minimum parallel speedup for one thread count.
///
/// Floors are persisted in the snapshot itself rather than hardcoded in CI:
/// every regeneration carries the old floor forward (it can only rise, never
/// fall) and tightens it when the measuring host actually demonstrates a
/// better worst-case. The validator enforces a floor **only when the host
/// has at least `threads` cores** — a single-core container physically
/// cannot show a 4-thread win, and gating on it there would just encode
/// noise.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpeedupFloor {
    /// Worker-thread count the floor applies to.
    pub threads: usize,
    /// Minimum `speedup` an engine row at this thread count must reach when
    /// the floor is enforceable (`cores >= threads`).
    pub min_speedup: f64,
}

/// The extra header of `BENCH_perf.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PerfExtra {
    /// CPU cores available on the measurement host. Wall-clock speedup is
    /// bounded by this — a single-core host cannot show a parallel win, so
    /// readers must interpret `speedup` relative to `cores`, and the
    /// [`SpeedupFloor`] gate is enforced only where `cores >= threads`.
    pub cores: usize,
    /// Ratcheted per-thread-count speedup floors (see [`SpeedupFloor`]).
    pub speedup_floors: Vec<SpeedupFloor>,
    /// One row per benchmarked matmul shape.
    pub matmul: Vec<MatmulRow>,
}

impl Default for PerfExtra {
    /// This host's usable cores and the seed floors of a fresh baseline: the
    /// PR-9 target of ≥2.5× at four threads, plus conservative entries for
    /// the rest of the sweep. They only ratchet upward from here.
    fn default() -> Self {
        let floor = |threads, min_speedup| SpeedupFloor {
            threads,
            min_speedup,
        };
        Self {
            cores: usable_cores(),
            speedup_floors: vec![floor(2, 1.3), floor(4, 2.5), floor(8, 2.5)],
            matmul: Vec::new(),
        }
    }
}

impl Row for PerfRow {
    /// v2 added `speedup_floors` and the thread-count sweep (multiple rows
    /// per grid cell).
    const SCHEMA_VERSION: u64 = 2;
    type Extra = PerfExtra;
    const EXTRA_BEFORE_ROWS: usize = 2;

    fn check(&self) -> Result<(), String> {
        named(&[("workload", &self.workload), ("strategy", &self.strategy)])?;
        nonzero("rounds", self.rounds)?;
        nonzero("threads", self.threads as u64)?;
        positive("serial_ms", self.serial_ms)?;
        positive("parallel_ms", self.parallel_ms)?;
        positive("speedup", self.speedup)?;
        if !self.reports_identical {
            return Err("serial and parallel reports differ — determinism violated".to_string());
        }
        Ok(())
    }

    fn check_document(doc: &Snapshot<Self>) -> Result<(), String> {
        let extra = &doc.extra;
        nonzero("cores", extra.cores as u64)?;
        if extra.matmul.is_empty() {
            return Err("snapshot has no matmul rows".to_string());
        }
        if extra.speedup_floors.is_empty() {
            return Err("snapshot has no speedup floors".to_string());
        }
        for (i, floor) in extra.speedup_floors.iter().enumerate() {
            if floor.threads < 2 {
                return Err(format!(
                    "floor {i}: thread count {} below 2 (serial has no speedup)",
                    floor.threads
                ));
            }
            positive("min_speedup", floor.min_speedup).map_err(|e| format!("floor {i}: {e}"))?;
        }
        for (i, row) in extra.matmul.iter().enumerate() {
            let at = |e: String| format!("matmul row {i}: {e}");
            if row.m == 0 || row.k == 0 || row.n == 0 {
                return Err(at("zero dimension".to_string()));
            }
            positive("naive_ns", row.naive_ns).map_err(at)?;
            positive("blocked_ns", row.blocked_ns).map_err(at)?;
            positive("speedup", row.speedup).map_err(at)?;
        }
        // the ratcheted speedup gate — enforceable only where the host has
        // at least as many cores as the row used threads
        for (i, row) in doc.rows.iter().enumerate() {
            if extra.cores < row.threads {
                continue;
            }
            if let Some(floor) = doc.floor_for(row.threads) {
                if row.speedup < floor {
                    return Err(format!(
                        "row {i} ({}/{} @ {} threads): speedup {:.2} below \
                         ratcheted floor {floor:.2}",
                        row.workload, row.strategy, row.threads, row.speedup
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Snapshot<PerfRow> {
    /// The floor for `threads`, if one is set.
    pub fn floor_for(&self, threads: usize) -> Option<f64> {
        self.extra
            .speedup_floors
            .iter()
            .find(|f| f.threads == threads)
            .map(|f| f.min_speedup)
    }

    /// Ratchets `speedup_floors` against a previous baseline and this
    /// snapshot's own measurements.
    ///
    /// Two monotone moves, in order:
    /// 1. every floor from `previous` is carried forward at no less than its
    ///    old value (floors never decrease across regenerations);
    /// 2. for each thread count this host can genuinely exercise
    ///    (`cores >= threads`), the floor rises to 90% of the *worst*
    ///    speedup observed across the grid at that thread count, rounded
    ///    down to two decimals — so a future regression below today's
    ///    demonstrated performance fails the gate, with 10% noise headroom.
    ///
    /// On a host with fewer cores than the thread count the measurement is
    /// meaningless, so the floor is carried unchanged.
    pub fn ratchet_floors(&mut self, previous: Option<&Self>) {
        let floors = &mut self.extra.speedup_floors;
        if let Some(prev) = previous {
            for old in &prev.extra.speedup_floors {
                match floors.iter_mut().find(|f| f.threads == old.threads) {
                    Some(cur) => cur.min_speedup = cur.min_speedup.max(old.min_speedup),
                    None => floors.push(old.clone()),
                }
            }
            floors.sort_by_key(|f| f.threads);
        }
        for floor in floors {
            if self.extra.cores < floor.threads {
                continue;
            }
            let worst = self
                .rows
                .iter()
                .filter(|r| r.threads == floor.threads)
                .map(|r| r.speedup)
                .fold(f64::INFINITY, f64::min);
            if worst.is_finite() {
                let candidate = (worst * 0.9 * 100.0).floor() / 100.0;
                if candidate > floor.min_speedup {
                    floor.min_speedup = candidate;
                }
            }
        }
    }
}

/// One client-count sweep point in `BENCH_scale.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScaleRow {
    /// Clients in the simulated course.
    pub clients: u64,
    /// Aggregation rounds completed.
    pub rounds: u64,
    /// Simulation events processed (deliveries, batch members, timers).
    pub events: u64,
    /// Wall-clock seconds for the full course.
    pub wall_secs: f64,
    /// `clients / wall_secs` — the headline scale metric.
    pub clients_per_sec: f64,
    /// `events / wall_secs` — event-heap throughput.
    pub events_per_sec: f64,
    /// Peak resident set size in bytes (`VmHWM`), or 0 when the platform
    /// does not expose it. Measured once per process, so rows report the
    /// high-water mark *up to and including* their run.
    pub peak_rss_bytes: u64,
}

impl Row for ScaleRow {
    const SCHEMA_VERSION: u64 = 1;
    type Extra = NoExtra;

    fn check(&self) -> Result<(), String> {
        nonzero("clients", self.clients)?;
        nonzero("rounds", self.rounds)?;
        nonzero("events", self.events)?;
        positive("wall_secs", self.wall_secs)?;
        positive("clients_per_sec", self.clients_per_sec)?;
        positive("events_per_sec", self.events_per_sec)
    }
}

impl Snapshot<ScaleRow> {
    /// Minimum fraction of a baseline row's `clients_per_sec` the matching
    /// row must retain.
    pub const REGRESSION_FLOOR: f64 = 0.75;

    /// Compares against `baseline`: every row matching a baseline row on
    /// (clients, rounds) must retain [`Self::REGRESSION_FLOOR`] of its
    /// `clients_per_sec`. Returns the matched `(row, baseline row)` pairs.
    pub fn check_against<'a>(
        &'a self,
        baseline: &'a Self,
    ) -> Result<Vec<(&'a ScaleRow, &'a ScaleRow)>, String> {
        let mut matched = Vec::new();
        for row in &self.rows {
            let Some(base) = baseline
                .rows
                .iter()
                .find(|b| b.clients == row.clients && b.rounds == row.rounds)
            else {
                continue;
            };
            if row.clients_per_sec < Self::REGRESSION_FLOOR * base.clients_per_sec {
                return Err(format!(
                    "throughput regression at {} clients x {} rounds: {:.0} clients/sec \
                     < 75% of baseline {:.0}",
                    row.clients, row.rounds, row.clients_per_sec, base.clients_per_sec
                ));
            }
            matched.push((row, base));
        }
        Ok(matched)
    }
}

/// One topology grid cell in `BENCH_topo.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TopoRow {
    /// Workload name (e.g. `"femnist"`).
    pub workload: String,
    /// Topology in CLI syntax (`"star"`, `"hier:2x4"`, `"gossip:2"`).
    pub topology: String,
    /// Upload compressor name (`"identity"`, `"topk"`).
    pub compressor: String,
    /// Execution backend (`"standalone"`, `"bus"`, `"tcp"`).
    pub backend: String,
    /// Aggregation (or gossip) rounds completed.
    pub rounds: u64,
    /// Rounds completed per wall-clock second of engine time.
    pub rounds_per_sec: f64,
    /// Best global accuracy seen over the course (0 when the cell runs
    /// without a central evaluator).
    pub best_accuracy: f64,
    /// Payload bytes charged client → server (star accounting).
    pub uploaded_bytes: u64,
    /// Payload bytes charged server → clients (star accounting).
    pub downloaded_bytes: u64,
    /// Encoded bytes sent upstream per tier; index 0 is the root link
    /// (server ↔ top tier). Empty when the backend does not meter tiers.
    pub bytes_up_per_tier: Vec<u64>,
    /// Encoded bytes sent downstream per tier.
    pub bytes_down_per_tier: Vec<u64>,
    /// Whether this cell's `CourseReport` compared bit-identical to the
    /// star cell at the same seed (the lossless-equivalence contract).
    pub star_equivalent: bool,
}

impl TopoRow {
    fn standalone_hier(&self) -> bool {
        self.backend == "standalone" && self.topology.starts_with("hier")
    }
}

/// Beyond shape checks, the two topology contracts: every standalone
/// lossless hierarchy must have reproduced the star bit for bit, and a
/// standalone hierarchy with a lossy codec must move *fewer* bytes over the
/// root link than the star at the same codec (partial aggregation pays off
/// where it claims to).
impl Row for TopoRow {
    const SCHEMA_VERSION: u64 = 1;
    type Extra = NoExtra;

    fn check(&self) -> Result<(), String> {
        named(&[
            ("workload", &self.workload),
            ("topology", &self.topology),
            ("compressor", &self.compressor),
            ("backend", &self.backend),
        ])?;
        nonzero("rounds", self.rounds)?;
        positive("rounds_per_sec", self.rounds_per_sec)?;
        finite("best_accuracy", self.best_accuracy)?;
        if self.bytes_up_per_tier.len() != self.bytes_down_per_tier.len() {
            return Err("mismatched per-tier byte vectors".to_string());
        }
        if self.standalone_hier() && self.compressor == "identity" && !self.star_equivalent {
            return Err("lossless standalone hierarchy diverged from the star".to_string());
        }
        Ok(())
    }

    fn check_document(doc: &Snapshot<Self>) -> Result<(), String> {
        let lossy_hier = |r: &&TopoRow| r.standalone_hier() && r.compressor != "identity";
        for hier in doc.rows.iter().filter(lossy_hier) {
            let star = doc.rows.iter().find(|r| {
                r.backend == "standalone"
                    && r.topology == "star"
                    && r.compressor == hier.compressor
                    && r.workload == hier.workload
            });
            if let (Some(star), Some(&root)) = (star, hier.bytes_up_per_tier.first()) {
                if root >= star.uploaded_bytes {
                    return Err(format!(
                        "hierarchy {} did not reduce root-link bytes: {} >= star's {}",
                        hier.topology, root, star.uploaded_bytes
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One scheduler-mode grid cell in `BENCH_sched.json`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedRow {
    /// Workload name (e.g. `"femnist"`).
    pub workload: String,
    /// Scheduler mode in CLI syntax (`"sync"`, `"goal"`, `"time"`,
    /// `"buffered:4"`, `"tiered:2"`).
    pub scheduler: String,
    /// Aggregation rounds completed.
    pub rounds: u64,
    /// Rounds completed per wall-clock second of engine time.
    pub rounds_per_sec: f64,
    /// Virtual seconds when the target accuracy was first reached
    /// (negative when the target was never reached).
    pub virtual_secs_to_target: f64,
    /// Target accuracy used for `virtual_secs_to_target`.
    pub target_accuracy: f64,
    /// Best global accuracy seen over the course.
    pub best_accuracy: f64,
    /// Final virtual time of the course, in seconds.
    pub final_virtual_secs: f64,
    /// Payload bytes charged client → server.
    pub uploaded_bytes: u64,
    /// Payload bytes charged server → clients.
    pub downloaded_bytes: u64,
    /// Updates folded into aggregations over the whole course.
    pub updates_aggregated: u64,
    /// Updates rejected by the staleness gate.
    pub stale_drops: u64,
    /// Mean staleness (rounds behind) over every aggregated update.
    pub staleness_mean: f64,
    /// Median staleness over every aggregated update.
    pub staleness_p50: u64,
    /// 90th-percentile staleness over every aggregated update.
    pub staleness_p90: u64,
}

/// Beyond shape checks, the two scheduler contracts: the synchronous
/// baseline must aggregate only fresh updates (zero staleness throughout),
/// and the grid must actually demonstrate the buffered and tiered modes
/// completing a course (they are the point of the bench).
impl Row for SchedRow {
    const SCHEMA_VERSION: u64 = 1;
    type Extra = NoExtra;

    fn check(&self) -> Result<(), String> {
        named(&[("workload", &self.workload), ("scheduler", &self.scheduler)])?;
        nonzero("rounds", self.rounds)?;
        nonzero("updates_aggregated", self.updates_aggregated)?;
        positive("rounds_per_sec", self.rounds_per_sec)?;
        finite("target_accuracy", self.target_accuracy)?;
        finite("best_accuracy", self.best_accuracy)?;
        finite("final_virtual_secs", self.final_virtual_secs)?;
        finite("virtual_secs_to_target", self.virtual_secs_to_target)?;
        if !self.staleness_mean.is_finite() || self.staleness_mean < 0.0 {
            return Err(format!("bad staleness_mean ({})", self.staleness_mean));
        }
        if self.staleness_p50 > self.staleness_p90 {
            return Err(format!(
                "staleness p50 {} exceeds p90 {}",
                self.staleness_p50, self.staleness_p90
            ));
        }
        // the synchronous baseline aggregates a full fresh round every time
        if self.scheduler == "sync" && (self.staleness_mean != 0.0 || self.staleness_p90 != 0) {
            return Err(format!(
                "sync scheduler recorded staleness (mean {}, p90 {})",
                self.staleness_mean, self.staleness_p90
            ));
        }
        Ok(())
    }

    fn check_document(doc: &Snapshot<Self>) -> Result<(), String> {
        for prefix in ["buffered", "tiered"] {
            if !doc.rows.iter().any(|r| r.scheduler.starts_with(prefix)) {
                return Err(format!("snapshot has no {prefix} scheduler row"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_row() -> BenchRow {
        BenchRow {
            workload: "femnist".into(),
            strategy: "sync_vanilla".into(),
            compressor: "identity".into(),
            rounds: 20,
            rounds_per_sec: 85.0,
            virtual_secs_to_target: 900.0,
            target_accuracy: 0.5,
            best_accuracy: 0.62,
            uploaded_bytes: 1 << 20,
            downloaded_bytes: 1 << 21,
            final_virtual_secs: 3600.0,
        }
    }

    fn perf_row() -> PerfRow {
        PerfRow {
            workload: "femnist".into(),
            strategy: "sync_vanilla".into(),
            rounds: 8,
            threads: 4,
            serial_ms: 812.0,
            parallel_ms: 233.0,
            speedup: 812.0 / 233.0,
            reports_identical: true,
        }
    }

    fn matmul_row() -> MatmulRow {
        MatmulRow {
            m: 128,
            k: 256,
            n: 128,
            naive_ns: 3.1e6,
            blocked_ns: 0.9e6,
            speedup: 3.1 / 0.9,
        }
    }

    fn scale_row() -> ScaleRow {
        ScaleRow {
            clients: 100_000,
            rounds: 100,
            events: 1_250_000,
            wall_secs: 12.5,
            clients_per_sec: 8_000.0,
            events_per_sec: 100_000.0,
            peak_rss_bytes: 512 << 20,
        }
    }

    fn sched_row(scheduler: &str) -> SchedRow {
        let stale = scheduler != "sync";
        SchedRow {
            workload: "femnist".into(),
            scheduler: scheduler.into(),
            rounds: 6,
            rounds_per_sec: 9.0,
            virtual_secs_to_target: -1.0,
            target_accuracy: 0.9,
            best_accuracy: 0.55,
            final_virtual_secs: 480.0,
            uploaded_bytes: 9000,
            downloaded_bytes: 12000,
            updates_aggregated: 48,
            stale_drops: if stale { 2 } else { 0 },
            staleness_mean: if stale { 0.8 } else { 0.0 },
            staleness_p50: 0,
            staleness_p90: if stale { 2 } else { 0 },
        }
    }

    fn topo_row(topology: &str, compressor: &str) -> TopoRow {
        TopoRow {
            workload: "femnist".into(),
            topology: topology.into(),
            compressor: compressor.into(),
            backend: "standalone".into(),
            rounds: 5,
            rounds_per_sec: 12.0,
            best_accuracy: 0.5,
            uploaded_bytes: 4000,
            downloaded_bytes: 6000,
            bytes_up_per_tier: vec![4000, 4000],
            bytes_down_per_tier: vec![0, 6000],
            star_equivalent: true,
        }
    }

    fn bench_doc() -> Snapshot<BenchRow> {
        let mut snap = Snapshot::<BenchRow>::new("exp_monitor");
        snap.rows.push(bench_row());
        snap
    }

    fn perf_doc() -> Snapshot<PerfRow> {
        let mut snap = Snapshot::<PerfRow>::new("exp_perf");
        // a 1-core host: the sample's speedups are not gated by the floors
        snap.extra.cores = 1;
        snap.rows.push(perf_row());
        snap.extra.matmul.push(matmul_row());
        snap
    }

    fn scale_doc() -> Snapshot<ScaleRow> {
        let mut snap = Snapshot::<ScaleRow>::new("exp_scale");
        snap.rows.push(scale_row());
        snap
    }

    fn sched_doc() -> Snapshot<SchedRow> {
        let mut snap = Snapshot::<SchedRow>::new("exp_sched");
        for mode in ["sync", "goal", "time", "buffered:4", "tiered:2"] {
            snap.rows.push(sched_row(mode));
        }
        snap
    }

    fn topo_doc() -> Snapshot<TopoRow> {
        let mut snap = Snapshot::<TopoRow>::new("exp_topo");
        snap.rows.push(topo_row("star", "identity"));
        snap.rows.push(topo_row("hier:2x4", "identity"));
        snap
    }

    /// The header cases every schema shares: a valid document round-trips;
    /// malformed text, a wrong `schema_version` and an empty grid fail.
    fn header_cases<R: Row + Clone + PartialEq + Debug>(valid: Snapshot<R>) {
        let json = valid.to_json().expect("valid snapshot serializes");
        assert_eq!(Snapshot::<R>::parse(&json).expect("valid"), valid);
        assert!(Snapshot::<R>::parse("not json").is_err());
        assert!(Snapshot::<R>::parse("{}").is_err(), "missing fields");

        let mut wrong_version = valid.clone();
        wrong_version.schema_version = 999;
        let err = Snapshot::<R>::parse(&wrong_version.to_json().expect("serializes"));
        assert!(err.unwrap_err().contains("schema_version"));

        let mut empty = valid;
        empty.rows.clear();
        let err = Snapshot::<R>::parse(&empty.to_json().expect("serializes"));
        assert!(err.unwrap_err().contains("no rows"));
    }

    #[test]
    fn every_schema_shares_the_header_checks() {
        header_cases(bench_doc());
        header_cases(perf_doc());
        header_cases(scale_doc());
        header_cases(sched_doc());
        header_cases(topo_doc());
    }

    /// The text the validator must name, and the doctoring that provokes it.
    type Case<R> = (&'static str, fn(&mut Snapshot<R>));

    /// Applies each doctoring to a fresh valid snapshot and expects the
    /// validator to name `needle`.
    fn rejects<R: Row>(valid: fn() -> Snapshot<R>, cases: &[Case<R>]) {
        valid().check().expect("the undoctored snapshot is valid");
        for (needle, doctor) in cases {
            let mut snap = valid();
            doctor(&mut snap);
            let err = snap.check().expect_err(needle);
            assert!(err.contains(needle), "wanted `{needle}`, got `{err}`");
        }
    }

    #[test]
    fn bench_rows_are_checked() {
        rejects(
            bench_doc,
            &[
                ("empty strategy", |s| s.rows[0].strategy.clear()),
                ("zero rounds", |s| s.rows[0].rounds = 0),
                ("bad rounds_per_sec", |s| {
                    s.rows[0].rounds_per_sec = f64::NAN
                }),
                // the same rate rule as topo/sched/scale: not just finite
                ("bad rounds_per_sec", |s| s.rows[0].rounds_per_sec = 0.0),
                ("bad rounds_per_sec", |s| s.rows[0].rounds_per_sec = -3.0),
                ("non-finite best_accuracy", |s| {
                    s.rows[0].best_accuracy = f64::INFINITY
                }),
                ("non-finite virtual_secs_to_target", |s| {
                    s.rows[0].virtual_secs_to_target = f64::NAN
                }),
            ],
        );
    }

    #[test]
    fn perf_rows_header_and_floors_are_checked() {
        rejects(
            perf_doc,
            &[
                ("zero cores", |s| s.extra.cores = 0),
                ("no matmul rows", |s| s.extra.matmul.clear()),
                ("no speedup floors", |s| s.extra.speedup_floors.clear()),
                ("floor 0: bad min_speedup", |s| {
                    s.extra.speedup_floors[0].min_speedup = f64::NAN
                }),
                ("floor 0: thread count 1 below 2", |s| {
                    s.extra.speedup_floors[0].threads = 1
                }),
                ("matmul row 0: zero dimension", |s| s.extra.matmul[0].k = 0),
                ("matmul row 0: bad blocked_ns", |s| {
                    s.extra.matmul[0].blocked_ns = 0.0
                }),
                ("zero threads", |s| s.rows[0].threads = 0),
                ("bad parallel_ms", |s| s.rows[0].parallel_ms = -1.0),
                // the determinism contract is load-bearing: a cell whose
                // serial and parallel reports differ must fail the gate
                ("determinism violated", |s| {
                    s.rows[0].reports_identical = false
                }),
            ],
        );
        // a v1 document (no speedup_floors) must not validate as v2
        let v1 = r#"{
            "schema_version": 1, "bench": "exp_perf", "cores": 1,
            "rows": [], "matmul": []
        }"#;
        assert!(Snapshot::<PerfRow>::parse(v1).is_err());
    }

    #[test]
    fn perf_floor_gate_is_core_aware() {
        // speedup 0.95 at 4 threads, well below the 2.5 floor
        let mut snap = perf_doc();
        snap.rows[0].speedup = 0.95;
        // single-core host: the floor is not enforceable, snapshot passes
        snap.extra.cores = 1;
        snap.check()
            .expect("1-core host cannot be gated on a 4-thread floor");
        // 4-core host: the same numbers must now fail the gate
        snap.extra.cores = 4;
        let err = snap.check().unwrap_err();
        assert!(err.contains("below ratcheted floor"), "got: {err}");
    }

    #[test]
    fn perf_floors_ratchet_up_never_down() {
        // previous baseline raised the 4-thread floor to 3.0
        let mut prev = perf_doc();
        prev.extra.speedup_floors = vec![SpeedupFloor {
            threads: 4,
            min_speedup: 3.0,
        }];

        let mut snap = perf_doc(); // speedup ≈ 3.49 @ 4 threads, 1 core
        snap.ratchet_floors(Some(&prev));
        // 1-core host: carried forward, measurement cannot tighten it
        assert_eq!(snap.floor_for(4), Some(3.0));
        // the seeded 2-thread floor survives the merge
        assert_eq!(snap.floor_for(2), Some(1.3));

        // 8-core host: 90% of the worst observed cell (3.2 → 2.88) is below
        // the carried 3.0, which therefore wins (never decreases)
        let mut snap = perf_doc();
        let mut slow = perf_row();
        slow.speedup = 3.2;
        snap.rows.push(slow);
        snap.extra.cores = 8;
        snap.ratchet_floors(Some(&prev));
        assert_eq!(snap.floor_for(4), Some(3.0));

        // with a stronger measurement the floor does tighten
        let mut fast = perf_doc();
        fast.rows[0].speedup = 3.6;
        fast.extra.cores = 8;
        fast.ratchet_floors(Some(&prev));
        let floor = fast.floor_for(4).unwrap();
        assert!(
            floor > 3.0 && floor <= 3.6 * 0.9,
            "floor {floor} should tighten to ~90% of the observed 3.6"
        );
    }

    #[test]
    fn scale_rows_and_the_baseline_rule_are_checked() {
        rejects(
            scale_doc,
            &[
                ("zero clients", |s| s.rows[0].clients = 0),
                ("zero events", |s| s.rows[0].events = 0),
                ("bad clients_per_sec", |s| {
                    s.rows[0].clients_per_sec = f64::NAN
                }),
                ("bad wall_secs", |s| s.rows[0].wall_secs = 0.0),
            ],
        );
        // peak_rss_bytes = 0 is the "unavailable" sentinel and must pass
        let mut no_rss = scale_doc();
        no_rss.rows[0].peak_rss_bytes = 0;
        no_rss.check().expect("rss 0 is the unavailable sentinel");

        // SCALE_BASELINE: a matching row keeps >= 75% of the baseline rate
        let baseline = scale_doc();
        let mut now = scale_doc();
        now.rows[0].clients_per_sec = 0.8 * baseline.rows[0].clients_per_sec;
        assert_eq!(now.check_against(&baseline).expect("within 25%").len(), 1);
        now.rows[0].clients_per_sec = 0.7 * baseline.rows[0].clients_per_sec;
        let err = now.check_against(&baseline).unwrap_err();
        assert!(err.contains("throughput regression"), "got: {err}");
        // rows without a baseline counterpart are not compared
        now.rows[0].clients = 7;
        assert!(now.check_against(&baseline).expect("no match").is_empty());
    }

    #[test]
    fn sched_rows_and_contracts_are_checked() {
        rejects(
            sched_doc,
            &[
                ("bad rounds_per_sec", |s| {
                    s.rows[1].rounds_per_sec = f64::NAN
                }),
                ("staleness p50 5 exceeds p90 1", |s| {
                    s.rows[1].staleness_p50 = 5;
                    s.rows[1].staleness_p90 = 1;
                }),
                ("zero updates_aggregated", |s| {
                    s.rows[1].updates_aggregated = 0
                }),
                ("bad staleness_mean", |s| s.rows[1].staleness_mean = -0.5),
                // a sync row with recorded staleness must fail the gate
                ("sync scheduler recorded staleness", |s| {
                    s.rows[0].staleness_mean = 0.3
                }),
                // the grid must demonstrate both new modes
                ("no buffered scheduler row", |s| {
                    s.rows.retain(|r| !r.scheduler.starts_with("buffered"))
                }),
                ("no tiered scheduler row", |s| {
                    s.rows.retain(|r| !r.scheduler.starts_with("tiered"))
                }),
            ],
        );
    }

    #[test]
    fn topo_rows_and_contracts_are_checked() {
        rejects(
            topo_doc,
            &[
                ("empty backend", |s| s.rows[0].backend.clear()),
                ("bad rounds_per_sec", |s| {
                    s.rows[0].rounds_per_sec = f64::NAN
                }),
                ("mismatched per-tier byte vectors", |s| {
                    s.rows[1].bytes_down_per_tier.pop();
                }),
                // a diverged lossless hierarchy must fail the gate
                ("diverged from the star", |s| {
                    s.rows[1].star_equivalent = false
                }),
            ],
        );

        // root-link payoff: a lossy hierarchy must shrink the root link
        let mut snap: Snapshot<TopoRow> = Snapshot::new("exp_topo");
        let mut star = topo_row("star", "topk");
        star.uploaded_bytes = 1000;
        star.bytes_up_per_tier = vec![1000];
        star.bytes_down_per_tier = vec![0];
        let mut hier = topo_row("hier:2x4", "topk");
        hier.star_equivalent = false; // lossy cells need not match the star
        hier.bytes_up_per_tier = vec![1000, 4000]; // root NOT reduced
        hier.bytes_down_per_tier = vec![0, 0];
        snap.rows.push(star);
        snap.rows.push(hier);
        let err = snap.check().unwrap_err();
        assert!(err.contains("did not reduce root-link bytes"), "got: {err}");
        snap.rows[1].bytes_up_per_tier = vec![300, 4000];
        snap.check().expect("shrinking the root link passes");
    }

    #[test]
    fn unserializable_snapshot_is_an_error_and_is_never_written() {
        // JSON cannot hold NaN: the old `to_json` returned the literal "{}"
        // here, which the binary then wrote over the committed snapshot
        let mut snap = scale_doc();
        snap.rows[0].wall_secs = f64::NAN;
        assert!(snap.to_json().is_err());
        let path = std::env::temp_dir().join(format!("fs_bench_snapshot_{}", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        assert!(snap.store(path).is_err());
        assert!(!std::path::Path::new(path).exists(), "nothing was written");

        let good = scale_doc();
        good.store(path).expect("a valid snapshot stores");
        assert_eq!(Snapshot::<ScaleRow>::load(path).expect("loads"), good);
        std::fs::remove_file(path).expect("remove temp snapshot");
    }

    /// A top-level field the schema does not name (the header of an older
    /// or newer writer) is ignored, not rejected: the document is read for
    /// the fields this version knows, and writing it back drops the rest.
    #[test]
    fn unknown_top_level_fields_are_ignored() {
        let json = scale_doc().to_json().expect("serializes").replacen(
            "\"rows\"",
            "\"cores\": 1,\n  \"speedup_floors\": [{\"threads\": 2}],\n  \"rows\"",
            1,
        );
        assert!(json.contains("speedup_floors"));
        let parsed = Snapshot::<ScaleRow>::parse(&json).expect("parses");
        assert_eq!(parsed, scale_doc());
    }

    /// Each committed snapshot validates through the one generic path and
    /// re-serialises to its exact bytes.
    #[test]
    fn committed_snapshots_round_trip_byte_for_byte() {
        fn round_trip<R: Row>(text: &str) {
            let snap = Snapshot::<R>::parse(text).expect("committed snapshot validates");
            assert_eq!(snap.to_json().expect("serializes"), text);
        }
        round_trip::<BenchRow>(include_str!("../../../BENCH_monitor.json"));
        round_trip::<PerfRow>(include_str!("../../../BENCH_perf.json"));
        round_trip::<ScaleRow>(include_str!("../../../BENCH_scale.json"));
        round_trip::<SchedRow>(include_str!("../../../BENCH_sched.json"));
        round_trip::<TopoRow>(include_str!("../../../BENCH_topo.json"));
    }
}
