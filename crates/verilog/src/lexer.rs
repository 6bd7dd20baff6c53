//! Hand-written lexer for the Verilog-2005 + SVA subset.
//!
//! Skips `//` and `/* */` comments and compiler directives (`` ` ``-lines),
//! and produces [`Token`]s with byte-accurate [`Span`]s.

use crate::error::{CompileError, Result};
use crate::source::Span;
use crate::token::{Keyword, Token, TokenKind};

/// Tokenises `src` completely, appending a final [`TokenKind::Eof`] token.
///
/// # Errors
///
/// Returns a [`CompileError`] on malformed literals, unterminated block
/// comments or strings, and characters outside the supported grammar.
pub fn lex(src: &str) -> Result<Vec<Token>> {
    Lexer::new(src).run()
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    tokens: Vec<Token>,
}

impl<'s> Lexer<'s> {
    fn new(src: &'s str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
        }
    }

    fn run(mut self) -> Result<Vec<Token>> {
        loop {
            self.skip_trivia()?;
            let start = self.pos;
            let Some(c) = self.peek() else {
                self.push(TokenKind::Eof, start);
                return Ok(self.tokens);
            };
            match c {
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_word(start),
                b'\\' => self.lex_escaped_ident(start)?,
                b'0'..=b'9' | b'\'' => self.lex_number(start)?,
                b'$' => self.lex_sys_ident(start)?,
                b'"' => self.lex_string(start)?,
                _ => self.lex_punct(start)?,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        Some(c)
    }

    fn push(&mut self, kind: TokenKind, start: usize) {
        self.tokens.push(Token {
            kind,
            span: Span::new(start as u32, self.pos as u32),
        });
    }

    fn err(&self, msg: impl Into<String>, start: usize) -> CompileError {
        CompileError::single(msg, Span::new(start as u32, self.pos.max(start + 1) as u32))
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(b' ' | b'\t' | b'\r' | b'\n') => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(_) => self.pos += 1,
                            None => return Err(self.err("unterminated block comment", start)),
                        }
                    }
                }
                // Compiler directives (`timescale, `define...) are skipped
                // to end of line: the subset does not expand macros.
                Some(b'`') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    fn lex_word(&mut self, start: usize) {
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let word = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii word");
        let kind = match Keyword::from_word(word) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(word.to_string()),
        };
        self.push(kind, start);
    }

    fn lex_escaped_ident(&mut self, start: usize) -> Result<()> {
        self.pos += 1; // backslash
        let name_start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        if self.pos == name_start {
            return Err(self.err("empty escaped identifier", start));
        }
        let name = std::str::from_utf8(&self.src[name_start..self.pos])
            .map_err(|_| self.err("non-utf8 escaped identifier", start))?
            .to_string();
        self.push(TokenKind::Ident(name), start);
        Ok(())
    }

    fn lex_sys_ident(&mut self, start: usize) -> Result<()> {
        self.pos += 1; // $
        let name_start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == name_start {
            return Err(self.err("bare `$` is not a valid token", start));
        }
        let name = std::str::from_utf8(&self.src[name_start..self.pos])
            .expect("ascii sys ident")
            .to_string();
        self.push(TokenKind::SysIdent(name), start);
        Ok(())
    }

    /// Lexes a string literal. `\n` and `\t` are newline and tab, and any
    /// other escaped byte stands for itself (`\"`, `\\`). The bytes are
    /// decoded as UTF-8 once, at the closing quote.
    fn lex_string(&mut self, start: usize) -> Result<()> {
        self.pos += 1; // opening quote
        let mut bytes = Vec::new();
        loop {
            match self.bump() {
                Some(b'"') => break,
                Some(b'\\') => {
                    let esc = self
                        .bump()
                        .ok_or_else(|| self.err("unterminated string", start))?;
                    bytes.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        other => other,
                    });
                }
                Some(c) => bytes.push(c),
                None => return Err(self.err("unterminated string", start)),
            }
        }
        let text =
            String::from_utf8(bytes).map_err(|_| self.err("non-utf8 string literal", start))?;
        self.push(TokenKind::Str(text), start);
        Ok(())
    }

    /// Lexes decimal literals and based literals (`4'b1010`, `'hFF`,
    /// `8'd255`). An unsized leading integer before `'` (e.g. `4` in
    /// `4'b1010`) is consumed here as the width.
    fn lex_number(&mut self, start: usize) -> Result<()> {
        let mut width: Option<u32> = None;
        if self.peek() != Some(b'\'') {
            // Leading decimal digits: either a plain number or a size prefix.
            let num_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9') | Some(b'_')) {
                self.pos += 1;
            }
            let value = digits_value(&self.src[num_start..self.pos], 10)
                .ok_or_else(|| self.err("integer literal out of range", start))?;
            if self.peek() == Some(b'\'') {
                width = Some(
                    u32::try_from(value)
                        .map_err(|_| self.err("size prefix out of range", start))?,
                );
                if width == Some(0) || width > Some(64) {
                    return Err(self.err("bit width must be in 1..=64", start));
                }
            } else {
                self.push(
                    TokenKind::Number {
                        value,
                        width: None,
                        base: None,
                    },
                    start,
                );
                return Ok(());
            }
        }
        // Based literal: 'b / 'o / 'd / 'h with optional preceding width.
        self.pos += 1; // apostrophe
                       // Optional signedness marker 's' is accepted and ignored.
        if matches!(self.peek(), Some(b's') | Some(b'S')) {
            self.pos += 1;
        }
        let base = match self.bump() {
            Some(b'b') | Some(b'B') => 'b',
            Some(b'o') | Some(b'O') => 'o',
            Some(b'd') | Some(b'D') => 'd',
            Some(b'h') | Some(b'H') => 'h',
            _ => return Err(self.err("expected base after `'`", start)),
        };
        let radix = match base {
            'b' => 2,
            'o' => 8,
            'd' => 10,
            _ => 16,
        };
        let digits_start = self.pos;
        while let Some(c) = self.peek() {
            let ok = match radix {
                2 => matches!(c, b'0' | b'1' | b'_' | b'x' | b'X' | b'z' | b'Z' | b'?'),
                8 => matches!(c, b'0'..=b'7' | b'_'),
                10 => matches!(c, b'0'..=b'9' | b'_'),
                _ => c.is_ascii_hexdigit() || c == b'_',
            };
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == digits_start {
            return Err(self.err("missing digits in based literal", start));
        }
        let value = digits_value(&self.src[digits_start..self.pos], radix)
            .ok_or_else(|| self.err("based literal out of range", start))?;
        let value = match width {
            Some(w) if w < 64 => value & ((1u64 << w) - 1),
            _ => value,
        };
        self.push(
            TokenKind::Number {
                value,
                width,
                base: Some(base),
            },
            start,
        );
        Ok(())
    }

    fn lex_punct(&mut self, start: usize) -> Result<()> {
        use TokenKind as T;
        let c = self.bump().expect("peeked");
        let kind = match c {
            b'(' => T::LParen,
            b')' => T::RParen,
            b'[' => T::LBracket,
            b']' => T::RBracket,
            b'{' => T::LBrace,
            b'}' => T::RBrace,
            b';' => T::Semi,
            b',' => T::Comma,
            b'.' => T::Dot,
            b'@' => T::At,
            b'?' => T::Question,
            b':' => T::Colon,
            b'#' => {
                if self.peek() == Some(b'#') {
                    self.pos += 1;
                    T::HashHash
                } else {
                    T::Hash
                }
            }
            b'+' => {
                if self.peek() == Some(b':') {
                    self.pos += 1;
                    T::PlusColon
                } else {
                    T::Plus
                }
            }
            b'-' => T::Minus,
            b'*' => {
                if self.peek() == Some(b'*') {
                    self.pos += 1;
                    T::StarStar
                } else {
                    T::Star
                }
            }
            b'/' => T::Slash,
            b'%' => T::Percent,
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.pos += 1;
                    T::AmpAmp
                } else {
                    T::Amp
                }
            }
            b'|' => match (self.peek(), self.peek_at(1)) {
                (Some(b'|'), _) => {
                    self.pos += 1;
                    T::PipePipe
                }
                (Some(b'-'), Some(b'>')) => {
                    self.pos += 2;
                    T::ImplOverlap
                }
                (Some(b'='), Some(b'>')) => {
                    self.pos += 2;
                    T::ImplNonOverlap
                }
                _ => T::Pipe,
            },
            b'^' => {
                if self.peek() == Some(b'~') {
                    self.pos += 1;
                    T::TildeCaret
                } else {
                    T::Caret
                }
            }
            b'~' => match self.peek() {
                Some(b'^') => {
                    self.pos += 1;
                    T::TildeCaret
                }
                Some(b'&') => {
                    self.pos += 1;
                    T::TildeAmp
                }
                Some(b'|') => {
                    self.pos += 1;
                    T::TildePipe
                }
                _ => T::Tilde,
            },
            b'!' => match (self.peek(), self.peek_at(1)) {
                (Some(b'='), Some(b'=')) => {
                    self.pos += 2;
                    T::BangEqEq
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    T::BangEq
                }
                _ => T::Bang,
            },
            b'=' => match (self.peek(), self.peek_at(1)) {
                (Some(b'='), Some(b'=')) => {
                    self.pos += 2;
                    T::EqEqEq
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    T::EqEq
                }
                _ => T::Assign,
            },
            b'<' => match (self.peek(), self.peek_at(1)) {
                (Some(b'='), _) => {
                    self.pos += 1;
                    T::LtEq
                }
                (Some(b'<'), Some(b'<')) => {
                    self.pos += 2;
                    T::AShl
                }
                (Some(b'<'), _) => {
                    self.pos += 1;
                    T::Shl
                }
                _ => T::Lt,
            },
            b'>' => match (self.peek(), self.peek_at(1)) {
                (Some(b'='), _) => {
                    self.pos += 1;
                    T::GtEq
                }
                (Some(b'>'), Some(b'>')) => {
                    self.pos += 2;
                    T::AShr
                }
                (Some(b'>'), _) => {
                    self.pos += 1;
                    T::Shr
                }
                _ => T::Gt,
            },
            other => {
                return Err(self.err(format!("unexpected character `{}`", other as char), start))
            }
        };
        self.push(kind, start);
        Ok(())
    }
}

/// The value of a literal's digits in `radix`, skipping `_` separators;
/// `x`, `z` and `?` read as 0 (the simulator is 2-state). `None` if there
/// is no digit or the value overflows 64 bits.
fn digits_value(digits: &[u8], radix: u32) -> Option<u64> {
    let mut value: Option<u64> = None;
    for &b in digits {
        let digit = match b {
            b'_' => continue,
            b'x' | b'X' | b'z' | b'Z' | b'?' => 0,
            _ => char::from(b).to_digit(radix)?,
        };
        value = Some(
            value
                .unwrap_or(0)
                .checked_mul(u64::from(radix))?
                .checked_add(u64::from(digit))?,
        );
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind as T;

    fn kinds(src: &str) -> Vec<T> {
        lex(src)
            .expect("lex ok")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_module_header() {
        let ks = kinds("module accu(input clk);");
        assert_eq!(ks[0], T::Keyword(Keyword::Module));
        assert_eq!(ks[1], T::Ident("accu".into()));
        assert_eq!(ks[2], T::LParen);
        assert_eq!(ks[3], T::Keyword(Keyword::Input));
        assert_eq!(ks[4], T::Ident("clk".into()));
        assert_eq!(ks.last(), Some(&T::Eof));
    }

    #[test]
    fn lexes_sized_literals() {
        assert_eq!(
            kinds("4'b1010")[0],
            T::Number {
                value: 10,
                width: Some(4),
                base: Some('b')
            }
        );
        assert_eq!(
            kinds("8'hFF")[0],
            T::Number {
                value: 255,
                width: Some(8),
                base: Some('h')
            }
        );
        assert_eq!(
            kinds("16'd42")[0],
            T::Number {
                value: 42,
                width: Some(16),
                base: Some('d')
            }
        );
    }

    #[test]
    fn sized_literal_masks_to_width() {
        assert_eq!(
            kinds("4'hFF")[0],
            T::Number {
                value: 15,
                width: Some(4),
                base: Some('h')
            }
        );
    }

    #[test]
    fn xz_digits_become_zero() {
        assert_eq!(
            kinds("4'b1x0z")[0],
            T::Number {
                value: 0b1000,
                width: Some(4),
                base: Some('b')
            }
        );
    }

    #[test]
    fn number_literal_limits() {
        assert_eq!(
            kinds("18446744073709551615 64'hFFFF_FFFF_FFFF_FFFF")[..2],
            [
                T::Number {
                    value: u64::MAX,
                    width: None,
                    base: None
                },
                T::Number {
                    value: u64::MAX,
                    width: Some(64),
                    base: Some('h')
                }
            ]
        );
        let message = |src: &str| lex(src).expect_err(src).primary().message.clone();
        assert_eq!(
            message("18446744073709551616"),
            "integer literal out of range"
        );
        assert_eq!(
            message("'h1_0000_0000_0000_0000"),
            "based literal out of range"
        );
        assert_eq!(message("4'b__"), "based literal out of range");
        assert_eq!(message("4'q1"), "expected base after `'`");
        assert_eq!(message("4'h"), "missing digits in based literal");
    }

    #[test]
    fn lexes_sva_operators() {
        let ks = kinds("a |-> ##1 b |=> c");
        assert!(ks.contains(&T::ImplOverlap));
        assert!(ks.contains(&T::HashHash));
        assert!(ks.contains(&T::ImplNonOverlap));
    }

    #[test]
    fn comments_and_directives_are_skipped() {
        let ks = kinds("`timescale 1ns/1ps\n// line\n/* block\nstill */ wire");
        assert_eq!(ks, vec![T::Keyword(Keyword::Wire), T::Eof]);
    }

    #[test]
    fn nonblocking_vs_le_is_single_token() {
        // `<=` is one token; statement vs comparison context is resolved by
        // the parser.
        let ks = kinds("a <= b");
        assert_eq!(ks[1], T::LtEq);
    }

    #[test]
    fn sys_idents() {
        let ks = kinds("$past(a, 2) $error(\"m\")");
        assert_eq!(ks[0], T::SysIdent("past".into()));
        assert!(ks.iter().any(|k| *k == T::SysIdent("error".into())));
        assert!(ks.iter().any(|k| *k == T::Str("m".into())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("module \u{7f}?").is_err() || lex("€").is_err());
        assert!(lex("4'q10").is_err());
        assert!(lex("\"unterminated").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn spans_are_byte_accurate() {
        let toks = lex("wire abc;").expect("lex ok");
        assert_eq!(toks[1].span.start, 5);
        assert_eq!(toks[1].span.end, 8);
    }

    #[test]
    fn triple_ops() {
        let ks = kinds("a === b !== c >>> 2 <<< 1 ** 2");
        assert!(ks.contains(&T::EqEqEq));
        assert!(ks.contains(&T::BangEqEq));
        assert!(ks.contains(&T::AShr));
        assert!(ks.contains(&T::AShl));
        assert!(ks.contains(&T::StarStar));
    }
}
