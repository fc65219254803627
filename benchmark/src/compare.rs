//! `compare <a.json> <b.json>`: applies the end-to-end bounds to two sets of
//! runs, one row per (workload, metric), and gives every ratio with its base.

use crate::result::{MetricRow, ResultSet};
use crate::spec::{Better, EndToEnd, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound and the runs overlap:
    /// the pair cannot tell a regression from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric of one workload: `a` is the base, `b` the candidate.
pub fn judge(m: &EndToEnd, a: &MetricRow, b: &MetricRow) -> Verdict {
    let worse_by = match m.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    let allowed = (m.bound * a.value.abs()).max(m.abs_floor);
    let spread = |r: &MetricRow| {
        if r.value == 0.0 {
            0.0
        } else {
            r.iqr / r.value.abs()
        }
    };
    if spread(a).max(spread(b)) > m.bound && worse_by.abs() > 0.0 {
        // too noisy to bound, unless every run of b beats every run of a
        let b_beats_a = match m.better {
            Better::Lower => b.max < a.min,
            Better::Higher => b.min > a.max,
        };
        let within_floor = worse_by <= m.abs_floor && m.abs_floor > 0.0;
        return if b_beats_a || within_floor {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One compared row.
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub base: f64,
    pub candidate: f64,
    pub verdict: Verdict,
}

/// Compares every (workload, end-to-end metric) pair both sets hold, and the
/// exact facts (`ops_failed`, fingerprints) besides. Returns the rows and
/// the exact-fact mismatches.
pub fn compare_sets(a: &ResultSet, b: &ResultSet) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for ra in a.runs.iter().filter(|r| !r.traced) {
        let Some(rb) = b
            .runs
            .iter()
            .find(|r| !r.traced && r.workload == ra.workload)
        else {
            mismatches.push(format!("{}: missing from the second set", ra.workload));
            continue;
        };
        if ra.seed == rb.seed && ra.fingerprint != rb.fingerprint {
            mismatches.push(format!(
                "{}: fingerprint {} vs {} on the same seed",
                ra.workload, ra.fingerprint, rb.fingerprint
            ));
        }
        if ra.ops_failed != rb.ops_failed {
            mismatches.push(format!(
                "{}: ops_failed {} vs {}",
                ra.workload, ra.ops_failed, rb.ops_failed
            ));
        }
        for m in &END_TO_END {
            if let (Some(ma), Some(mb)) = (ra.metric(m.name), rb.metric(m.name)) {
                rows.push(Row {
                    workload: ra.workload.clone(),
                    metric: m.name,
                    unit: m.unit,
                    base: ma.value,
                    candidate: mb.value,
                    verdict: judge(m, ma, mb),
                });
            }
        }
    }
    (rows, mismatches)
}

/// Prints the comparison; `true` when nothing regressed or mismatched.
pub fn report(a: &ResultSet, b: &ResultSet) -> bool {
    let (rows, mismatches) = compare_sets(a, b);
    println!(
        "{:<14} {:<22} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "base", "candidate", "ratio"
    );
    for r in &rows {
        println!(
            "{:<14} {:<22} {:>14.6} {:>14.6} {:>8.4}  {} ({})",
            r.workload,
            r.metric,
            r.base,
            r.candidate,
            if r.base == 0.0 {
                1.0
            } else {
                r.candidate / r.base
            },
            r.verdict.as_str(),
            r.unit
        );
    }
    for m in &mismatches {
        println!("mismatch: {m}");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved, {} exact mismatches",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        mismatches.len()
    );
    count(Verdict::Regressed) == 0 && mismatches.is_empty()
}
