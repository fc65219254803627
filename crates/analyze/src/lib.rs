//! # fs-analyze — the code-size count simplicity changes report
//!
//! `cargo run -p fs-analyze --bin fsa -- --loc PATH...` prints, per `.rs`
//! file and in total, the lines that hold non-test code: at least one token
//! that is not a comment, outside every `#[cfg(test)]` / `#[test]` item.
//!
//! The pipeline is `lexer` (a self-contained Rust tokenizer: no `syn`, no
//! registry access) → [`count_loc`] → [`walk::collect_rs`] for directories.
//! The source rules the repo's determinism rests on (no ambient RNG, no
//! wall clock on charged paths, no unordered maps or panics in the runtime)
//! are the compiler's and clippy's: DESIGN.md "Static source analysis".

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod lexer;
pub mod walk;

use lexer::{lex, Tok, TokKind};

/// Lines of `src` that hold non-test code: at least one non-comment token,
/// outside every `#[cfg(test)]` / `#[test]` item — the count simplicity PRs
/// are judged by (`fsa --loc`).
pub fn count_loc(src: &str) -> usize {
    let toks = lex(src);
    let code: Vec<&Tok> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
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
        if !is_attr(code, i) {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        let (j, saw_test) = attr_end(code, i);
        if !saw_test {
            i = j + 1;
            continue;
        }
        // skip any further attributes, then run to the item's end
        let mut k = j + 1;
        while is_attr(code, k) {
            k = attr_end(code, k).0 + 1;
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

/// Whether an outer attribute (`#[`) starts at `i`.
fn is_attr(code: &[&Tok], i: usize) -> bool {
    is_punct(code, i, "#") && is_punct(code, i + 1, "[")
}

/// The index of the `]` that closes the attribute starting at `i` (or
/// `code.len()` when it never closes), and whether the ident `test` occurs
/// inside it.
fn attr_end(code: &[&Tok], i: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut saw_test = false;
    for (j, t) in code.iter().enumerate().skip(i + 1) {
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, "[") => depth += 1,
            (TokKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    return (j, saw_test);
                }
            }
            (TokKind::Ident, "test") => saw_test = true,
            _ => {}
        }
    }
    (code.len(), saw_test)
}

fn is_punct(code: &[&Tok], i: usize, s: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}
