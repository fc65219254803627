//! Fixture for `fsa --loc`: 12 lines count, everything else does not.

/// Doc comments and blank lines are not code.
pub fn answer() -> u32 {
    // a line comment
    let text = "a string
that spans
three lines";
    /* a block
       comment */
    text.len() as u32 // trailing comments do not add a line
}

pub const URL: &str = "http://example.com/*not-a-comment*/";

/* an outer comment /* with a nested one */
   that the inner close does not end */

pub const RAW: &str = r#"a lone " and a /* are text
// and so is this second line"#;

#[cfg(test)]
use std::collections::BTreeMap;

pub fn after_the_test_use() -> u32 {
    answer()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_counted() {
        assert_eq!(answer(), 31);
    }
}
