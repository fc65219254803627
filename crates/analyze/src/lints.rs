//! The lint pass: token-stream pattern matching with lightweight scope
//! tracking.
//!
//! Working on tokens (not an AST) keeps the analyzer dependency-free and
//! fast, at the cost of heuristics for the scope-sensitive lints. The
//! heuristics are tuned to this workspace's idiom; the escape hatch for a
//! justified false positive is an `fsa::allow` pragma with a reason, which
//! keeps every exception auditable in the diff.

use crate::diag::{Code, Finding};
use crate::lexer::{lex, Tok, TokKind};
use crate::policy::{grade, Tier};
use crate::pragma::collect_pragmas;

/// Everything the pass needs to know about the file being analyzed.
#[derive(Clone, Debug)]
pub struct FileContext {
    /// Workspace-relative path with forward slashes (finding identity).
    pub path: String,
    /// Owning package name (`fs-net`, `fedscope`, …).
    pub crate_name: String,
    /// Policy tier.
    pub tier: Tier,
    /// Whether `FSA002` applies (sim-charged crate).
    pub charged: bool,
    /// Whole file is test context (`tests/`, `benches/` trees).
    pub force_test: bool,
}

/// Analyzes one file's source, returning graded, pragma-filtered findings.
pub fn analyze_source(src: &str, ctx: &FileContext) -> Vec<Finding> {
    let toks = lex(src);
    let total_lines = src.lines().count().max(1);

    // Which lines hold code (drives pragma placement).
    let mut code_lines = vec![false; total_lines + 1];
    let code = code_tokens(&toks);
    for t in &code {
        if let Some(slot) = code_lines.get_mut(t.line as usize - 1) {
            *slot = true;
        }
    }

    let tests = test_regions(&code);
    let in_test = |line: u32| ctx.force_test || tests.iter().any(|&(a, b)| line >= a && line <= b);

    let mut findings = Vec::new();
    let mut emit = |code: Code, line: u32, message: String, suggestion: Option<String>| {
        if let Some(severity) = grade(code, ctx.tier, ctx.charged, in_test(line)) {
            findings.push(Finding {
                code,
                severity,
                file: ctx.path.clone(),
                line,
                message,
                suggestion,
            });
        }
    };

    scan_patterns(&code, &mut emit);
    scan_locks(&code, &mut emit);

    // Pragma application + hygiene.
    let pragmas = collect_pragmas(&toks, &code_lines);
    let mut used = vec![false; pragmas.len()];
    findings.retain(|f| {
        let hit = pragmas
            .iter()
            .position(|p| p.code == Some(f.code) && p.applies_to == f.line);
        match hit {
            Some(i) => {
                used[i] = true;
                false
            }
            None => true,
        }
    });
    for (p, used) in pragmas.iter().zip(used) {
        if let Some(severity) = grade(Code::PragmaMissingReason, ctx.tier, ctx.charged, false) {
            if p.reason.is_empty() {
                findings.push(Finding {
                    code: Code::PragmaMissingReason,
                    severity,
                    file: ctx.path.clone(),
                    line: p.at_line,
                    message: format!(
                        "pragma fsa::allow({}) has no reason — suppressions must be auditable",
                        p.code_text
                    ),
                    suggestion: Some("write fsa::allow(CODE, why this is safe)".into()),
                });
            }
        }
        match p.code {
            None => {
                if let Some(severity) = grade(Code::UnknownPragmaCode, ctx.tier, ctx.charged, false)
                {
                    findings.push(Finding {
                        code: Code::UnknownPragmaCode,
                        severity,
                        file: ctx.path.clone(),
                        line: p.at_line,
                        message: format!("pragma names unknown code {:?}", p.code_text),
                        suggestion: Some("use a code from the FSA table in DESIGN.md".into()),
                    });
                }
            }
            Some(code) if !used => {
                if let Some(severity) = grade(Code::UnusedPragma, ctx.tier, ctx.charged, false) {
                    findings.push(Finding {
                        code: Code::UnusedPragma,
                        severity,
                        file: ctx.path.clone(),
                        line: p.at_line,
                        message: format!(
                            "pragma fsa::allow({code}) suppressed nothing on line {}",
                            p.applies_to
                        ),
                        suggestion: Some("delete the stale suppression".into()),
                    });
                }
            }
            Some(_) => {}
        }
    }

    findings.sort_by_key(|a| (a.line, a.code));
    findings
}

/// The tokens that are code: everything but comments.
fn code_tokens(toks: &[Tok]) -> Vec<&Tok> {
    toks.iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect()
}

/// Lines of `src` that hold non-test code: at least one non-comment token,
/// outside every `#[cfg(test)]` / `#[test]` item — the count simplicity PRs
/// are judged by (`fsa --loc`).
pub fn count_loc(src: &str) -> usize {
    let toks = lex(src);
    let code = code_tokens(&toks);
    let tests = test_regions(&code);
    let mut lines = std::collections::BTreeSet::new();
    for t in &code {
        // only a string literal spans lines; it occupies each of them
        let extra = t.text.matches('\n').count() as u32;
        lines.extend(t.line..=t.line + extra);
    }
    lines
        .into_iter()
        .filter(|l| !tests.iter().any(|&(a, b)| (a..=b).contains(l)))
        .count()
}

/// `#[cfg(test)]` / `#[test]` regions as inclusive line ranges.
///
/// Heuristic: an attribute whose bracket group contains the ident `test`
/// marks the item that follows; the region runs to the item's closing brace
/// (or its `;` for brace-less items).
fn test_regions(code: &[&Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if !(is_punct(code, i, "#") && is_punct(code, i + 1, "[")) {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        // bracket group extent
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut saw_test = false;
        while j < code.len() {
            match (code[j].kind, code[j].text.as_str()) {
                (TokKind::Punct, "[") => depth += 1,
                (TokKind::Punct, "]") => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                (TokKind::Ident, "test") => saw_test = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test {
            i = j + 1;
            continue;
        }
        // skip any further attributes, then run to the item's end
        let mut k = j + 1;
        while is_punct(code, k, "#") && is_punct(code, k + 1, "[") {
            let mut d = 0i32;
            while k < code.len() {
                match (code[k].kind, code[k].text.as_str()) {
                    (TokKind::Punct, "[") => d += 1,
                    (TokKind::Punct, "]") => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut end_line = start_line;
        let mut brace = 0i32;
        while k < code.len() {
            match (code[k].kind, code[k].text.as_str()) {
                (TokKind::Punct, "{") => brace += 1,
                (TokKind::Punct, "}") => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = code[k].line;
                        break;
                    }
                }
                (TokKind::Punct, ";") if brace == 0 => {
                    end_line = code[k].line;
                    break;
                }
                _ => {}
            }
            end_line = code[k].line;
            k += 1;
        }
        regions.push((start_line, end_line));
        i = k + 1;
    }
    regions
}

fn is_punct(code: &[&Tok], i: usize, s: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

fn is_ident(code: &[&Tok], i: usize, s: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
}

/// The stateless token-pattern lints (FSA001–FSA023).
fn scan_patterns(code: &[&Tok], emit: &mut impl FnMut(Code, u32, String, Option<String>)) {
    for i in 0..code.len() {
        let t = code[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "thread_rng" | "from_entropy" => emit(
                    Code::AmbientRng,
                    t.line,
                    format!("ambient RNG `{}` breaks seeded replay", t.text),
                    Some("thread a seeded StdRng (or an rng split from one) through the call path".into()),
                ),
                "Instant" if is_punct(code, i + 1, ":") && is_punct(code, i + 2, ":")
                    && is_ident(code, i + 3, "now") =>
                {
                    emit(
                        Code::WallClock,
                        t.line,
                        "wall-clock `Instant::now` in a sim-charged crate".into(),
                        Some("charge virtual time via the sim clock; wall deadlines belong to the socket runtime".into()),
                    )
                }
                "SystemTime" => emit(
                    Code::WallClock,
                    t.line,
                    "wall-clock `SystemTime` in a sim-charged crate".into(),
                    Some("virtual time only on charged paths".into()),
                ),
                "HashMap" | "HashSet" => emit(
                    Code::UnorderedContainer,
                    t.line,
                    format!(
                        "`{}` in a deterministic crate — iteration order can leak into behavior",
                        t.text
                    ),
                    Some("use BTreeMap/BTreeSet, or sort before iterating and pragma the declaration".into()),
                ),
                "sum" | "product"
                    if is_punct(code, i + 1, ":")
                        && is_punct(code, i + 2, ":")
                        && is_punct(code, i + 3, "<")
                        && (is_ident(code, i + 4, "f32") || is_ident(code, i + 4, "f64")) =>
                {
                    emit(
                        Code::FloatReduce,
                        t.line,
                        format!("float `{}` reduction outside the blessed aggregation kernels", t.text),
                        Some("reduce in a fixed order (slice/Vec) and justify with a pragma, or use an fs-tensor kernel".into()),
                    )
                }
                "fold"
                    if is_punct(code, i + 1, "(")
                        && code.get(i + 2).is_some_and(|n| {
                            n.kind == TokKind::Number
                                && (n.text.contains('.')
                                    || n.text.ends_with("f32")
                                    || n.text.ends_with("f64"))
                        }) =>
                {
                    emit(
                        Code::FloatReduce,
                        t.line,
                        "float `fold` accumulation outside the blessed aggregation kernels".into(),
                        Some("reduce in a fixed order and justify with a pragma, or use an fs-tensor kernel".into()),
                    )
                }
                "unwrap" if is_punct(code, i.wrapping_sub(1), ".") && is_punct(code, i + 1, "(") => {
                    emit(
                        Code::Unwrap,
                        t.line,
                        "`.unwrap()` in non-test code".into(),
                        Some("propagate a typed error, or `.expect(\"invariant\")` with a pragma".into()),
                    )
                }
                "expect" if is_punct(code, i.wrapping_sub(1), ".") && is_punct(code, i + 1, "(") => {
                    emit(
                        Code::Expect,
                        t.line,
                        "`.expect(..)` in non-test code".into(),
                        Some("propagate a typed error where the caller can recover".into()),
                    )
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if is_punct(code, i + 1, "!") =>
                {
                    emit(
                        Code::PanicMacro,
                        t.line,
                        format!("`{}!` in non-test code", t.text),
                        Some("return a typed error; runtime crates must not take the course down".into()),
                    )
                }
                _ => {}
            }
        } else if t.kind == TokKind::Punct && t.text == "[" && i > 0 {
            let prev = code[i - 1];
            let indexes = matches!(prev.kind, TokKind::Ident)
                || (prev.kind == TokKind::Punct && (prev.text == ")" || prev.text == "]"));
            if indexes {
                emit(
                    Code::SliceIndex,
                    t.line,
                    "direct indexing can panic on out-of-range".into(),
                    Some("prefer .get()/.get_mut() with typed handling on runtime paths".into()),
                );
            }
        }
    }
}

/// The scope-tracking concurrency lints (FSA040, FSA041).
///
/// A "guard" is any `lock(` call result: let-bound guards live until their
/// block closes (or an explicit `drop(name)`), bare ones until the end of
/// their statement. A second `lock(` or a channel `.send`/`.recv` while a
/// guard is live is a finding.
fn scan_locks(code: &[&Tok], emit: &mut impl FnMut(Code, u32, String, Option<String>)) {
    struct Guard {
        name: Option<String>,
        depth: i32,
        stmt: bool,
        line: u32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    // (depth, pending binding name) of an open `let` statement
    let mut let_state: Option<(i32, Option<String>)> = None;

    for i in 0..code.len() {
        let t = code[i];
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "{") => depth += 1,
            (TokKind::Punct, "}") => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            (TokKind::Punct, ";") => {
                if let_state.as_ref().is_some_and(|(d, _)| *d == depth) {
                    let_state = None;
                }
                guards.retain(|g| !(g.stmt && g.depth == depth));
            }
            (TokKind::Ident, "let") => {
                let mut name = None;
                for n in code.iter().skip(i + 1).take(4) {
                    if n.kind == TokKind::Ident && n.text != "mut" {
                        name = Some(n.text.clone());
                        break;
                    }
                }
                let_state = Some((depth, name));
            }
            (TokKind::Ident, "drop")
                if is_punct(code, i + 1, "(") && is_punct(code, i + 3, ")") =>
            {
                if let Some(n) = code.get(i + 2) {
                    guards.retain(|g| g.name.as_deref() != Some(n.text.as_str()));
                }
            }
            (TokKind::Ident, "lock")
                if is_punct(code, i + 1, "(") && !is_ident(code, i.wrapping_sub(1), "fn") =>
            {
                if let Some(held) = guards.last() {
                    emit(
                        Code::NestedLock,
                        t.line,
                        format!(
                            "second lock acquired while a guard from line {} is held",
                            held.line
                        ),
                        Some(
                            "narrow the first guard's scope or merge the two critical sections"
                                .into(),
                        ),
                    );
                }
                match &let_state {
                    Some((_, name)) => guards.push(Guard {
                        name: name.clone(),
                        depth,
                        stmt: false,
                        line: t.line,
                    }),
                    None => guards.push(Guard {
                        name: None,
                        depth,
                        stmt: true,
                        line: t.line,
                    }),
                }
            }
            (TokKind::Ident, "send" | "recv" | "recv_timeout" | "try_recv")
                if is_punct(code, i.wrapping_sub(1), ".") && is_punct(code, i + 1, "(") =>
            {
                if let Some(held) = guards.last() {
                    emit(
                        Code::GuardAcrossChannel,
                        t.line,
                        format!(
                            "channel `{}` while a lock guard from line {} is held",
                            t.text, held.line
                        ),
                        Some("drop the guard before touching the channel".into()),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn ctx(tier: Tier, charged: bool) -> FileContext {
        FileContext {
            path: "crates/x/src/lib.rs".into(),
            crate_name: "fs-x".into(),
            tier,
            charged,
            force_test: false,
        }
    }

    fn codes(src: &str, c: &FileContext) -> Vec<(Code, u32)> {
        analyze_source(src, c)
            .into_iter()
            .map(|f| (f.code, f.line))
            .collect()
    }

    #[test]
    fn ambient_rng_flagged_outside_strings_and_comments() {
        let c = ctx(Tier::Runtime, false);
        let src =
            "// thread_rng in a comment\nlet s = \"thread_rng\";\nlet r = rand::thread_rng();\n";
        assert_eq!(codes(src, &c), vec![(Code::AmbientRng, 3)]);
    }

    #[test]
    fn wall_clock_only_in_charged_crates() {
        let src = "let t = Instant::now();\n";
        assert!(codes(src, &ctx(Tier::Runtime, false)).is_empty());
        assert_eq!(
            codes(src, &ctx(Tier::Runtime, true)),
            vec![(Code::WallClock, 1)]
        );
    }

    #[test]
    fn cfg_test_module_downgrades() {
        let c = ctx(Tier::Runtime, false);
        let src =
            "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.unwrap(); }\n}\n";
        // only the non-test unwrap survives (test unwraps grade to None)
        assert_eq!(codes(src, &c), vec![(Code::Unwrap, 1)]);
    }

    #[test]
    fn pragma_suppresses_and_stale_pragma_reports() {
        let c = ctx(Tier::Runtime, false);
        let src = "\
// fsa::allow(FSA020, startup invariant)
x.unwrap();
// fsa::allow(FSA020, nothing here)
let y = 1;
";
        let fs = analyze_source(src, &c);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code, Code::UnusedPragma);
        assert_eq!(fs[0].line, 3);
    }

    #[test]
    fn nested_lock_and_guard_across_channel() {
        let c = ctx(Tier::Runtime, false);
        let src = "\
fn f() {
    let g = state.lock();
    let h = other.lock();
    tx.send(x);
}
fn ok() {
    { let g = state.lock(); }
    let h = other.lock();
}
";
        let got = codes(src, &c);
        assert!(got.contains(&(Code::NestedLock, 3)));
        assert!(got.contains(&(Code::GuardAcrossChannel, 4)));
        assert!(!got
            .iter()
            .any(|(code, line)| *code == Code::NestedLock && *line == 8));
    }

    #[test]
    fn statement_temporary_guard_dies_at_semicolon() {
        let c = ctx(Tier::Runtime, false);
        let src = "\
fn f() {
    lock(&self.streams).insert(id, conn);
    lock(&self.registry).push(id);
}
";
        assert!(!codes(src, &c)
            .iter()
            .any(|(code, _)| *code == Code::NestedLock));
    }

    #[test]
    fn drop_releases_named_guard() {
        let c = ctx(Tier::Runtime, false);
        let src = "\
fn f() {
    let g = state.lock();
    drop(g);
    let h = other.lock();
}
";
        assert!(!codes(src, &c)
            .iter()
            .any(|(code, _)| *code == Code::NestedLock));
    }

    #[test]
    fn slice_index_is_note_in_runtime_only() {
        let src = "fn f() { let y = xs[0]; }\n";
        let fs = analyze_source(src, &ctx(Tier::Runtime, false));
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].code, Code::SliceIndex);
        assert_eq!(fs[0].severity, Severity::Note);
        assert!(!fs[0].gates());
        assert!(analyze_source(src, &ctx(Tier::Library, false)).is_empty());
    }

    #[test]
    fn attributes_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\n";
        assert!(analyze_source(src, &ctx(Tier::Runtime, false)).is_empty());
    }

    #[test]
    fn force_test_files_relax_panic_lints() {
        let mut c = ctx(Tier::Runtime, false);
        c.force_test = true;
        let src = "fn helper() { x.unwrap(); panic!(\"boom\"); }\n";
        assert!(analyze_source(src, &c).is_empty());
    }

    #[test]
    fn float_reductions_in_runtime_tier() {
        let c = ctx(Tier::Runtime, true);
        let src = "let a = xs.iter().sum::<f64>();\nlet b = xs.iter().fold(0.0, f64::max);\n";
        let got = codes(src, &c);
        assert_eq!(got, vec![(Code::FloatReduce, 1), (Code::FloatReduce, 2)]);
    }
}
