//! Structured source-level diagnostics: stable `FSAnnn` codes, severities,
//! findings, and the report type.
//!
//! The family complements fs-verify's `FSVnnn` codes: fs-verify checks
//! *courses and configs* at runtime-construction time, fs-analyze checks
//! *source text* at CI time. Numeric ranges group the lint families:
//!
//! * `FSA00x` — determinism (ambient RNG, wall-clock in charged crates,
//!   unordered containers, float reductions)
//! * `FSA02x` — panic safety (`unwrap`/`expect`/`panic!`/indexing)
//! * `FSA04x` — concurrency (nested locks, guards across channel ops)
//! * `FSA09x` — pragma hygiene (the suppression grammar policing itself)

use std::fmt;

/// How bad a finding is. Severity is assigned by the per-crate policy tier
/// (see [`crate::policy`]), not fixed per code: the same `unwrap()` is an
/// Error in the distributed runtime and a Warning in a library crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; printed with `--notes`, never gates CI.
    Note,
    /// Fails `fsa --check`.
    Warning,
    /// Fails `fsa --check`.
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

/// Stable lint codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// FSA001: ambient RNG (`thread_rng`, `from_entropy`) — every random
    /// draw must come from a seed threaded through the call path.
    AmbientRng,
    /// FSA002: wall-clock (`Instant::now`, `SystemTime`) inside a
    /// sim-charged crate, where time must be virtual.
    WallClock,
    /// FSA003: `HashMap`/`HashSet` in a deterministic crate — iteration
    /// order can leak into delivery, roster, or fault-draw behavior.
    UnorderedContainer,
    /// FSA004: order-sensitive float reduction (`sum::<f32>`, float `fold`)
    /// outside the blessed aggregation kernels.
    FloatReduce,
    /// FSA020: `.unwrap()` in non-test code.
    Unwrap,
    /// FSA021: `.expect(..)` in non-test code.
    Expect,
    /// FSA022: `panic!`/`unreachable!`/`todo!`/`unimplemented!` in non-test
    /// code.
    PanicMacro,
    /// FSA023: direct slice/array indexing (can panic) in runtime crates.
    SliceIndex,
    /// FSA040: a second lock acquired while another guard is held.
    NestedLock,
    /// FSA041: a channel send/recv while a lock guard is held.
    GuardAcrossChannel,
    /// FSA090: an `fsa::allow` pragma without a reason.
    PragmaMissingReason,
    /// FSA091: an `fsa::allow` pragma that suppressed nothing.
    UnusedPragma,
    /// FSA092: an `fsa::allow` pragma naming an unknown code.
    UnknownPragmaCode,
}

/// Every code, in stable order (fixture corpus and docs iterate this).
pub const ALL_CODES: [Code; 13] = [
    Code::AmbientRng,
    Code::WallClock,
    Code::UnorderedContainer,
    Code::FloatReduce,
    Code::Unwrap,
    Code::Expect,
    Code::PanicMacro,
    Code::SliceIndex,
    Code::NestedLock,
    Code::GuardAcrossChannel,
    Code::PragmaMissingReason,
    Code::UnusedPragma,
    Code::UnknownPragmaCode,
];

impl Code {
    /// The stable `FSAnnn` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::AmbientRng => "FSA001",
            Code::WallClock => "FSA002",
            Code::UnorderedContainer => "FSA003",
            Code::FloatReduce => "FSA004",
            Code::Unwrap => "FSA020",
            Code::Expect => "FSA021",
            Code::PanicMacro => "FSA022",
            Code::SliceIndex => "FSA023",
            Code::NestedLock => "FSA040",
            Code::GuardAcrossChannel => "FSA041",
            Code::PragmaMissingReason => "FSA090",
            Code::UnusedPragma => "FSA091",
            Code::UnknownPragmaCode => "FSA092",
        }
    }

    /// Parses an `FSAnnn` string (the pragma grammar's code field).
    pub fn parse(s: &str) -> Option<Code> {
        ALL_CODES.iter().copied().find(|c| c.as_str() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

/// One source-level finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable code.
    pub code: Code,
    /// Tier-graded severity.
    pub severity: Severity,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// Suggested fix, if one is known.
    pub suggestion: Option<String>,
}

impl Finding {
    /// `file:line: severity [code] message (help: suggestion)` — the CLI line.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: {} [{}] {}",
            self.file, self.line, self.severity, self.code, self.message
        );
        if let Some(h) = &self.suggestion {
            s.push_str(&format!(" (help: {h})"));
        }
        s
    }

    /// Whether the finding fails `fsa --check`.
    pub fn gates(&self) -> bool {
        self.severity > Severity::Note
    }
}

/// The analyzer's output over one file or the whole workspace.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// All findings, sorted by (file, line, code).
    pub findings: Vec<Finding>,
}

impl AnalyzeReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds findings and restores the (file, line, code) sort.
    pub fn extend(&mut self, fs: impl IntoIterator<Item = Finding>) {
        self.findings.extend(fs);
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.code).cmp(&(&b.file, b.line, b.code)));
    }

    /// Count at a severity.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// The findings that fail `fsa --check` (Error + Warning).
    pub fn gating(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| f.gates()).collect()
    }

    /// True if any finding carries the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.findings.iter().any(|f| f.code == code)
    }

    /// `(errors, warnings, notes)` counts.
    pub fn tally(&self) -> (usize, usize, usize) {
        (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let mut strs: Vec<&str> = ALL_CODES.iter().map(|c| c.as_str()).collect();
        let n = strs.len();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), n, "duplicate FSA code strings");
        for c in ALL_CODES {
            assert!(c.as_str().starts_with("FSA"));
            assert_eq!(c.as_str().len(), 6);
            assert_eq!(Code::parse(c.as_str()), Some(c));
        }
        assert_eq!(Code::parse("FSA999"), None);
    }

    #[test]
    fn report_sorts_and_tallies() {
        let f = |file: &str, line: u32, code: Code, sev: Severity| Finding {
            code,
            severity: sev,
            file: file.into(),
            line,
            message: "m".into(),
            suggestion: None,
        };
        let mut r = AnalyzeReport::new();
        r.extend([
            f("b.rs", 3, Code::Unwrap, Severity::Error),
            f("a.rs", 9, Code::AmbientRng, Severity::Warning),
            f("a.rs", 2, Code::SliceIndex, Severity::Note),
        ]);
        assert_eq!(r.findings[0].file, "a.rs");
        assert_eq!(r.findings[0].line, 2);
        assert_eq!(r.tally(), (1, 1, 1));
        assert_eq!(r.gating().len(), 2);
        assert!(r.has_code(Code::Unwrap));
    }
}
