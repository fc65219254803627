//! Structured diagnostics: stable codes, severities, and the report type.
//!
//! Every finding the verifier can produce has a stable `FSVnnn` code so that
//! tests (and downstream tooling) can assert on *which* problem was found,
//! not just that something was. Severities follow the usual compiler
//! convention:
//!
//! * **Error** — the course cannot work; runners refuse to start.
//! * **Warning** — almost certainly a mistake, but the course can run.
//! * **Note** — surfaced for the experiment log; expected on many valid
//!   courses (e.g. legitimate sink events, deliberate handler overrides).

use std::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Expected on valid courses; recorded for the log.
    Note,
    /// Suspicious but runnable.
    Warning,
    /// The course is rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric ranges group the analysis families:
/// `FSV00x` protocol/graph checks, `FSV02x`–`FSV03x` config lints, `FSV04x`
/// runtime conformance, `FSV05x` topology checks, `FSV06x` scheduler/flow
/// compatibility (the `FSV02x`–`FSV03x` block is fully allocated, so
/// scheduler-related config lints live here too).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// FSV001: no path from course start (`receiving_JoinIn`) to
    /// termination (`receiving_Finish`).
    Incomplete,
    /// FSV002: a registered handler's event is unreachable from the start.
    UnreachableHandler,
    /// FSV003: a reachable event emits nothing and is not the terminal.
    DeadEndEvent,
    /// FSV004: a reachable cycle from which termination cannot be reached.
    CycleWithoutExit,
    /// FSV005: the server emits a message kind no client handles.
    ServerSendUnhandled,
    /// FSV006: a client emits a message kind neither the server nor any
    /// client handles.
    ClientSendUnhandled,
    /// FSV007: a condition is raised but the raising participant has no
    /// handler for it (conditions are participant-local).
    ConditionUnhandled,
    /// FSV009: a handler registration overwrote an earlier one.
    RegistryOverwrite,
    /// FSV020: `total_rounds` is zero.
    ZeroRounds,
    /// FSV021: the sampler target is empty (zero concurrency).
    EmptySampleTarget,
    /// FSV022: staleness settings are inert under `all_received`.
    StalenessInertUnderSync,
    /// FSV023: `over_selection` is negative or NaN.
    OverSelectionNegative,
    /// FSV024: `over_selection >= 1.0` — it is an *extra fraction*, not a
    /// multiplicative factor.
    OverSelectionHuge,
    /// FSV025: `upload_delta` without an upload codec is inert.
    DeltaWithoutUploadCodec,
    /// FSV026: `after_receiving` broadcast under `all_received` — newly
    /// broadcast clients keep extending the set the rule waits for.
    AfterReceivingUnderAllReceived,
    /// FSV027: quantization width is not 4 or 8 bits.
    QuantBitsInvalid,
    /// FSV028: top-k keep ratio outside `(0, 1]` (or NaN).
    TopKRatioInvalid,
    /// FSV029: `eval_every` exceeds `total_rounds` — no evaluation ever runs.
    EvalEveryExceedsRounds,
    /// FSV030: `eval_every` is zero.
    ZeroEvalEvery,
    /// FSV032: `target_accuracy` outside `(0, 1]` (or NaN) can never stop
    /// the course.
    TargetAccuracyUnreachable,
    /// FSV033: learning rate is non-positive or NaN.
    NonPositiveLr,
    /// FSV034: `batch_size` is zero.
    ZeroBatchSize,
    /// FSV035: `local_steps` is zero — updates equal the broadcast model.
    ZeroLocalSteps,
    /// FSV036: `goal_achieved` with a goal of zero.
    ZeroGoal,
    /// FSV037: `time_up` with a non-positive (or NaN) budget.
    NonPositiveBudget,
    /// FSV038: the sample target exceeds the number of clients.
    SampleTargetExceedsClients,
    /// FSV039: the aggregation threshold (goal / min_feedback) exceeds the
    /// sample target, so the condition can never fire.
    ThresholdExceedsSampleTarget,
    /// FSV040: a handler emitted an event absent from its declared `emits`
    /// list (runtime conformance).
    UndeclaredEmit,
    /// FSV050: the topology description is structurally invalid (too few
    /// tiers, zero fanout, or zero gossip degree).
    TopologyInvalid,
    /// FSV051: the gossip degree is not smaller than the peer population, so
    /// neighbor sampling without replacement cannot produce distinct peers.
    GossipDegreeTooLarge,
    /// FSV052: an edge aggregator has no clients anywhere beneath it — its
    /// subtree can never contribute an update.
    OrphanSubtree,
    /// FSV053: a participant's parent chain does not reach the root server —
    /// its updates can never arrive.
    TierUnreachable,
    /// FSV054: partial (merging) edge aggregation requires the `all_received`
    /// rule; under other rules edges fall back to lossless relay.
    TopologyRuleUnsupported,
    /// FSV055: gossip has no server in the loop, so the aggregation rule,
    /// broadcast manner, and sampler settings are ignored.
    GossipIgnoresStrategy,
    /// FSV056: delta-encoded uploads reference the receiver's broadcast
    /// history, which intermediate tiers do not hold — unsupported in
    /// hierarchical topologies.
    DeltaUploadUnsupportedInHier,
    /// FSV060: the buffered-async / tiered schedulers drive one central
    /// server loop and require the star topology (gossip has no server;
    /// hierarchical edges close rounds with `all_received` semantics).
    SchedTopologyUnsupported,
    /// FSV061: buffered-async with a buffer size of zero fires before any
    /// update arrives.
    SchedBufferInvalid,
    /// FSV062: tiered scheduler with zero tiers partitions nobody.
    SchedTiersInvalid,
    /// FSV063: a degenerate tier count — one tier behaves like plain sync,
    /// more tiers than clients leaves some tiers permanently empty.
    SchedTiersDegenerate,
    /// FSV065: the fleet can crash clients but the rule arms no round timer,
    /// so a crashed broadcast leaves its client busy and the round waits
    /// forever. (FSV064 is retired and stays unallocated.)
    CrashesWithoutTimer,
}

impl Code {
    /// The stable `FSVnnn` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Incomplete => "FSV001",
            Code::UnreachableHandler => "FSV002",
            Code::DeadEndEvent => "FSV003",
            Code::CycleWithoutExit => "FSV004",
            Code::ServerSendUnhandled => "FSV005",
            Code::ClientSendUnhandled => "FSV006",
            Code::ConditionUnhandled => "FSV007",
            Code::RegistryOverwrite => "FSV009",
            Code::ZeroRounds => "FSV020",
            Code::EmptySampleTarget => "FSV021",
            Code::StalenessInertUnderSync => "FSV022",
            Code::OverSelectionNegative => "FSV023",
            Code::OverSelectionHuge => "FSV024",
            Code::DeltaWithoutUploadCodec => "FSV025",
            Code::AfterReceivingUnderAllReceived => "FSV026",
            Code::QuantBitsInvalid => "FSV027",
            Code::TopKRatioInvalid => "FSV028",
            Code::EvalEveryExceedsRounds => "FSV029",
            Code::ZeroEvalEvery => "FSV030",
            Code::TargetAccuracyUnreachable => "FSV032",
            Code::NonPositiveLr => "FSV033",
            Code::ZeroBatchSize => "FSV034",
            Code::ZeroLocalSteps => "FSV035",
            Code::ZeroGoal => "FSV036",
            Code::NonPositiveBudget => "FSV037",
            Code::SampleTargetExceedsClients => "FSV038",
            Code::ThresholdExceedsSampleTarget => "FSV039",
            Code::UndeclaredEmit => "FSV040",
            Code::TopologyInvalid => "FSV050",
            Code::GossipDegreeTooLarge => "FSV051",
            Code::OrphanSubtree => "FSV052",
            Code::TierUnreachable => "FSV053",
            Code::TopologyRuleUnsupported => "FSV054",
            Code::GossipIgnoresStrategy => "FSV055",
            Code::DeltaUploadUnsupportedInHier => "FSV056",
            Code::SchedTopologyUnsupported => "FSV060",
            Code::SchedBufferInvalid => "FSV061",
            Code::SchedTiersInvalid => "FSV062",
            Code::SchedTiersDegenerate => "FSV063",
            Code::CrashesWithoutTimer => "FSV065",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::Incomplete
            | Code::ServerSendUnhandled
            | Code::ClientSendUnhandled
            | Code::ConditionUnhandled
            | Code::ZeroRounds
            | Code::EmptySampleTarget
            | Code::OverSelectionNegative
            | Code::QuantBitsInvalid
            | Code::TopKRatioInvalid
            | Code::ZeroEvalEvery
            | Code::NonPositiveLr
            | Code::ZeroBatchSize
            | Code::ZeroLocalSteps
            | Code::ZeroGoal
            | Code::NonPositiveBudget
            | Code::SampleTargetExceedsClients
            | Code::ThresholdExceedsSampleTarget
            | Code::TopologyInvalid
            | Code::GossipDegreeTooLarge
            | Code::OrphanSubtree
            | Code::TierUnreachable
            | Code::DeltaUploadUnsupportedInHier
            | Code::SchedTopologyUnsupported
            | Code::SchedBufferInvalid
            | Code::SchedTiersInvalid
            | Code::CrashesWithoutTimer => Severity::Error,
            Code::UnreachableHandler
            | Code::CycleWithoutExit
            | Code::OverSelectionHuge
            | Code::DeltaWithoutUploadCodec
            | Code::AfterReceivingUnderAllReceived
            | Code::EvalEveryExceedsRounds
            | Code::TargetAccuracyUnreachable
            | Code::UndeclaredEmit
            | Code::TopologyRuleUnsupported => Severity::Warning,
            Code::DeadEndEvent
            | Code::RegistryOverwrite
            | Code::StalenessInertUnderSync
            | Code::SchedTiersDegenerate
            | Code::GossipIgnoresStrategy => Severity::Note,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (always `code.severity()`).
    pub severity: Severity,
    /// What the finding is about — a handler, an event, a config field.
    pub subject: String,
    /// Human-readable description.
    pub message: String,
    /// Suggested fix, if one is known.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Builds a diagnostic; severity comes from the code.
    pub fn new(code: Code, subject: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.severity(),
            subject: subject.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attaches a suggested fix.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.code, self.subject, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (help: {s})")?;
        }
        Ok(())
    }
}

/// The verifier's output: an ordered list of diagnostics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// All findings, in analysis order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Adds many findings.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Count of findings at the given severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// Any Errors?
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Clean means no Errors and no Warnings (Notes are expected).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0 && self.count(Severity::Warning) == 0
    }

    /// True if any finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the findings as an aligned text table (the CLI output).
    pub fn render_table(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no findings — course verifies clean\n".to_string();
        }
        let mut rows: Vec<[String; 4]> = vec![[
            "CODE".into(),
            "SEVERITY".into(),
            "SUBJECT".into(),
            "MESSAGE".into(),
        ]];
        for d in &self.diagnostics {
            let mut msg = d.message.clone();
            if let Some(s) = &d.suggestion {
                msg.push_str(" — help: ");
                msg.push_str(s);
            }
            rows.push([
                d.code.as_str().into(),
                d.severity.to_string(),
                d.subject.clone(),
                msg,
            ]);
        }
        let mut widths = [0usize; 3];
        for row in &rows {
            for (i, w) in widths.iter_mut().enumerate() {
                *w = (*w).max(row[i].chars().count());
            }
        }
        let mut out = String::new();
        for row in &rows {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", row[i], width = w));
            }
            line.push_str(&row[3]);
            out.push_str(line.trim_end());
            out.push('\n');
        }
        let errors = self.count(Severity::Error);
        let warnings = self.count(Severity::Warning);
        let notes = self.count(Severity::Note);
        out.push_str(&format!(
            "{errors} error(s), {warnings} warning(s), {notes} note(s)\n"
        ));
        out
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            Code::Incomplete,
            Code::UnreachableHandler,
            Code::DeadEndEvent,
            Code::CycleWithoutExit,
            Code::ServerSendUnhandled,
            Code::ClientSendUnhandled,
            Code::ConditionUnhandled,
            Code::RegistryOverwrite,
            Code::ZeroRounds,
            Code::EmptySampleTarget,
            Code::StalenessInertUnderSync,
            Code::OverSelectionNegative,
            Code::OverSelectionHuge,
            Code::DeltaWithoutUploadCodec,
            Code::AfterReceivingUnderAllReceived,
            Code::QuantBitsInvalid,
            Code::TopKRatioInvalid,
            Code::EvalEveryExceedsRounds,
            Code::ZeroEvalEvery,
            Code::TargetAccuracyUnreachable,
            Code::NonPositiveLr,
            Code::ZeroBatchSize,
            Code::ZeroLocalSteps,
            Code::ZeroGoal,
            Code::NonPositiveBudget,
            Code::SampleTargetExceedsClients,
            Code::ThresholdExceedsSampleTarget,
            Code::UndeclaredEmit,
            Code::TopologyInvalid,
            Code::GossipDegreeTooLarge,
            Code::OrphanSubtree,
            Code::TierUnreachable,
            Code::TopologyRuleUnsupported,
            Code::GossipIgnoresStrategy,
            Code::DeltaUploadUnsupportedInHier,
            Code::SchedTopologyUnsupported,
            Code::SchedBufferInvalid,
            Code::SchedTiersInvalid,
            Code::SchedTiersDegenerate,
            Code::CrashesWithoutTimer,
        ];
        let mut strs: Vec<&str> = all.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        let n = strs.len();
        strs.dedup();
        assert_eq!(strs.len(), n, "duplicate FSV code strings");
        for c in all {
            assert!(c.as_str().starts_with("FSV"));
            assert_eq!(c.as_str().len(), 6);
        }
    }

    #[test]
    fn report_severity_accounting() {
        let mut r = VerifyReport::new();
        assert!(r.is_clean() && !r.has_errors());
        r.push(Diagnostic::new(Code::DeadEndEvent, "e", "sink"));
        assert!(r.is_clean(), "notes keep a report clean");
        r.push(Diagnostic::new(
            Code::UnreachableHandler,
            "h",
            "unreachable",
        ));
        assert!(!r.is_clean() && !r.has_errors());
        r.push(
            Diagnostic::new(Code::ZeroRounds, "total_rounds", "is zero")
                .with_suggestion("set total_rounds >= 1"),
        );
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert!(r.has_code(Code::ZeroRounds));
        let table = r.render_table();
        assert!(table.contains("FSV020"));
        assert!(table.contains("help: set total_rounds >= 1"));
        assert!(table.contains("1 error(s), 1 warning(s), 1 note(s)"));
    }
}
