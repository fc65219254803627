//! The `BENCH_*.json` regression snapshots.
//!
//! Every snapshot is the same document — `schema_version`, `bench`, `rows` —
//! so there is one [`Snapshot`] type generic over its [`Row`], one
//! parse-and-header check ([`Snapshot::parse`]) and one `--validate` /
//! write-reread-validate pair ([`validate_file`], [`Snapshot::store`]) shared
//! by `exp_monitor`, `exp_scale`, `exp_topo` and `exp_sched`. A row type
//! holds only its fields, its per-row [`Row::check`] and, where the bench has
//! one, its cross-row contract ([`Row::check_document`]). The snapshots gate
//! what a course *did* (schema, counts, contracts between rows); how fast it
//! ran is the course benchmark's question (`BENCHMARK.json`), asked of parent
//! and change on one host.

use serde::{Deserialize, Serialize};
use std::fs;

/// One row of a `BENCH_*.json` document.
pub trait Row: Serialize + Deserialize + Sized {
    /// Schema version of the documents holding this row; bump on
    /// incompatible changes.
    const SCHEMA_VERSION: u64;
    /// Field-level checks of one row.
    fn check(&self) -> Result<(), String>;

    /// Checks that need the whole document: the bench's cross-row contract.
    fn check_document(_doc: &Snapshot<Self>) -> Result<(), String> {
        Ok(())
    }
}

/// A `BENCH_*.json` document. A top-level field it does not name is ignored
/// on read.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot<R: Row> {
    /// Must equal [`Row::SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Name of the binary that wrote the document (e.g. `"exp_topo"`).
    pub bench: String,
    /// One row per measured cell.
    pub rows: Vec<R>,
}

impl<R: Row> Snapshot<R> {
    /// An empty snapshot for `bench`.
    pub fn new(bench: &str) -> Self {
        Self {
            schema_version: R::SCHEMA_VERSION,
            bench: bench.to_string(),
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
pub fn validate_file<R: Row>(path: &str) {
    let snap = Snapshot::<R>::load(path).unwrap_or_else(|e| panic!("{e}"));
    println!("{path} valid: {} rows", snap.rows.len());
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

    fn check(&self) -> Result<(), String> {
        nonzero("clients", self.clients)?;
        nonzero("rounds", self.rounds)?;
        nonzero("events", self.events)?;
        positive("wall_secs", self.wall_secs)?;
        positive("clients_per_sec", self.clients_per_sec)?;
        positive("events_per_sec", self.events_per_sec)
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
    use std::fmt::Debug;

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
    fn scale_rows_are_checked() {
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
        round_trip::<ScaleRow>(include_str!("../../../BENCH_scale.json"));
        round_trip::<SchedRow>(include_str!("../../../BENCH_sched.json"));
        round_trip::<TopoRow>(include_str!("../../../BENCH_topo.json"));
    }
}
