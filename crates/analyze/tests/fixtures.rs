//! `fsa --loc` on a fixture file. The fixture lives in
//! `crates/analyze/fixtures/`, outside any `src/` tree, so rustc never
//! compiles it and `fsa --loc crates/*/src` never counts it.

use fs_analyze::count_loc;

/// Comments (nested ones too), blank lines and `#[cfg(test)]` items — a
/// brace-less `use` ends at its `;` — are not counted; a multi-line string,
/// raw or not, counts every line it spans.
#[test]
fn loc_counts_non_test_code_lines_only() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/loc_counting.rs");
    let src = std::fs::read_to_string(path).expect("read the fixture");
    assert_eq!(count_loc(&src), 12);
}
