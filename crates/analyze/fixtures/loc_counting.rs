//! Fixture for `fsa --loc`: 7 lines count, everything else does not.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_counted() {
        assert_eq!(answer(), 31);
    }
}
