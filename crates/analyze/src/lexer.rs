//! A small self-contained Rust lexer.
//!
//! The line count only needs a faithful *token stream* — identifiers,
//! punctuation, literals, and comments with line numbers — not a parse
//! tree, so this scanner deliberately avoids a real grammar. What it must
//! get exactly right is what *isn't* code: string literals (including raw
//! and byte strings), char literals vs. lifetimes, and nested block
//! comments. A `/*` inside a string must never open a comment, and a `"`
//! inside a comment must never open a string.

/// Token classes. Punctuation is emitted one character at a time; callers
/// match multi-character operators (`::`) as token sequences.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (includes raw identifiers, `r#type`).
    Ident,
    /// Numeric literal, including any float part and type suffix.
    Number,
    /// String literal of any flavor (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'a'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`) or loop label.
    Lifetime,
    /// One punctuation character.
    Punct,
    /// `// …` comment, text excludes the newline.
    LineComment,
    /// `/* … */` comment, possibly spanning lines; text includes delimiters'
    /// interior only.
    BlockComment,
}

/// One token with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text (for comments: interior text; for strings: raw contents
    /// excluding delimiters).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Tokenizes `src`. Unterminated literals/comments are closed at EOF rather
/// than erroring: the count must keep going over a broken tree.
pub fn lex(src: &str) -> Vec<Tok> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Tok>,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(line),
                '/' if self.peek(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                'b' if self.peek(1) == Some('"') => {
                    self.bump();
                    self.string(line);
                }
                'b' if self.peek(1) == Some('\'') => {
                    self.bump();
                    self.char_lit(line);
                }
                'r' | 'b' if self.raw_string_lookahead() => {
                    self.raw_string(line);
                }
                'r' if self.peek(1) == Some('#') && self.peek(2).is_some_and(is_ident_start) => {
                    // raw identifier r#type
                    self.bump();
                    self.bump();
                    self.ident(line);
                }
                '\'' => self.lifetime_or_char(line),
                c if is_ident_start(c) => self.ident(line),
                c if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    /// True when the cursor sits on `r"`, `r#…#"`, `br"`, or `br#…#"`.
    fn raw_string_lookahead(&self) -> bool {
        let mut i = 0;
        if self.peek(0) == Some('b') {
            i = 1;
        }
        if self.peek(i) != Some('r') {
            return false;
        }
        i += 1;
        while self.peek(i) == Some('#') {
            i += 1;
        }
        self.peek(i) == Some('"')
    }

    fn line_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::LineComment, text, line);
    }

    fn block_comment(&mut self, line: u32) {
        self.bump();
        self.bump();
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                self.bump();
                self.bump();
                depth -= 1;
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::BlockComment, text, line);
    }

    fn string(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '"' {
                self.bump();
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::Str, text, line);
    }

    fn raw_string(&mut self, line: u32) {
        if self.peek(0) == Some('b') {
            self.bump();
        }
        self.bump(); // r
        let mut hashes = 0usize;
        while self.peek(0) == Some('#') {
            hashes += 1;
            self.bump();
        }
        self.bump(); // opening quote
        let mut text = String::new();
        'outer: while let Some(c) = self.peek(0) {
            if c == '"' {
                // candidate close: `"` followed by `hashes` hashes
                for i in 0..hashes {
                    if self.peek(1 + i) != Some('#') {
                        text.push(c);
                        self.bump();
                        continue 'outer;
                    }
                }
                self.bump();
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Str, text, line);
    }

    fn char_lit(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                self.bump();
                if let Some(e) = self.bump() {
                    text.push(e);
                }
            } else if c == '\'' {
                self.bump();
                break;
            } else {
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::Char, text, line);
    }

    /// Disambiguates `'a'` (char) from `'a` (lifetime/label): a lifetime is
    /// `'` + ident not closed by another `'`.
    fn lifetime_or_char(&mut self, line: u32) {
        let one = self.peek(1);
        let two = self.peek(2);
        let is_lifetime = match one {
            Some(c) if is_ident_start(c) => two != Some('\''),
            _ => false,
        };
        if is_lifetime {
            self.bump(); // '
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if is_ident_continue(c) {
                    text.push(c);
                    self.bump();
                } else {
                    break;
                }
            }
            self.push(TokKind::Lifetime, text, line);
        } else {
            self.char_lit(line);
        }
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    /// Numbers: digits, an optional fraction (only when `.` is followed by a
    /// digit, so `1..2` stays three tokens), exponent, and type suffix.
    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            let fraction = c == '.' && self.peek(1).is_some_and(|d| d.is_ascii_digit());
            if !(c.is_ascii_alphanumeric() || c == '_' || fraction) {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::Number, text, line);
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_puncts() {
        let toks = kinds("let x = foo(1.5f32, 0..2);");
        assert!(toks.contains(&(TokKind::Ident, "foo".into())));
        assert!(toks.contains(&(TokKind::Number, "1.5f32".into())));
        // `0..2` must not glom into one number
        assert!(toks.contains(&(TokKind::Number, "0".into())));
        assert!(toks.contains(&(TokKind::Number, "2".into())));
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = lex(r#"let s = "thread_rng()"; call();"#);
        assert!(toks
            .iter()
            .all(|t| !(t.kind == TokKind::Ident && t.text == "thread_rng")));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("thread_rng")));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex(r###"let s = r#"quote " inside"#; x"###);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert_eq!(strs[0].text, "quote \" inside");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "x"));
    }

    #[test]
    fn nested_block_comments() {
        let toks = lex("/* outer /* inner */ still comment */ code");
        assert_eq!(toks[0].kind, TokKind::BlockComment);
        assert!(toks[0].text.contains("inner"));
        assert_eq!(
            toks[1],
            Tok {
                kind: TokKind::Ident,
                text: "code".into(),
                line: 1
            }
        );
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n  c /* x\ny */ d");
        let find = |name: &str| toks.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 2);
        assert_eq!(find("c"), 3);
        assert_eq!(find("d"), 4);
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let toks = lex(r##"let b = b"bytes"; let r = r#type; let c = b'x';"##);
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "bytes"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "type"));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Char && t.text == "x"));
    }
}
