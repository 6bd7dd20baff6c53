//! Verilog-aware tokenizer for the statistical language model.
//!
//! A lightweight, lossless-enough segmentation: identifiers, numbers
//! (with base prefixes kept intact) and multi-character operators each
//! become one token. This plays the role of the BPE tokenizer in the
//! paper's base model; the LM consuming it only needs consistent units.

/// Splits a line of Verilog into owned tokens (see [`tokens`]).
///
/// ```
/// use assertsolver_core::tokenizer::tokenize;
/// assert_eq!(
///     tokenize("q <= q + 4'd1;"),
///     vec!["q", "<=", "q", "+", "4'd1", ";"]
/// );
/// ```
pub fn tokenize(line: &str) -> Vec<String> {
    tokens(line).into_iter().map(str::to_string).collect()
}

/// Splits a line of Verilog into tokens, each a slice of `line`.
pub fn tokens(line: &str) -> Vec<&str> {
    let mut out = Vec::new();
    tokens_into(line, &mut out);
    out
}

/// Appends the [`tokens`] of `line` to `out`.
pub(crate) fn tokens_into<'a>(line: &'a str, out: &mut Vec<&'a str>) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        // Identifier / keyword.
        if c.is_ascii_alphabetic() || c == b'_' || c == b'$' {
            let start = i;
            i += 1;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            out.push(&line[start..i]);
            continue;
        }
        // Number, optionally with a based suffix (4'd10, 'hFF).
        if c.is_ascii_digit() || c == b'\'' {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'\'' {
                i += 1;
                if i < bytes.len() && matches!(bytes[i], b's' | b'S') {
                    i += 1;
                }
                if i < bytes.len()
                    && matches!(bytes[i].to_ascii_lowercase(), b'b' | b'o' | b'd' | b'h')
                {
                    i += 1;
                }
                while i < bytes.len()
                    && (bytes[i].is_ascii_hexdigit()
                        || matches!(bytes[i], b'_' | b'x' | b'X' | b'z' | b'Z' | b'?'))
                {
                    i += 1;
                }
            }
            if i == start {
                i += 1; // lone apostrophe; consume to make progress
            }
            out.push(&line[start..i]);
            continue;
        }
        // Multi-character operators, longest first; anything else is one
        // character, taken whole when it is not ASCII.
        const OPS: [&str; 20] = [
            "|->", "|=>", "<<<", ">>>", "===", "!==", "##", "&&", "||", "==", "!=", "<=", ">=",
            "<<", ">>", "**", "~^", "~&", "~|", "+:",
        ];
        let rest = &line[i..];
        let len = match OPS.iter().find(|op| rest.starts_with(**op)) {
            Some(op) => op.len(),
            None => rest.chars().next().map_or(1, char::len_utf8),
        };
        out.push(&rest[..len]);
        i += len;
    }
}

/// Tokenizes a multi-line text, inserting a line-break sentinel between
/// lines so the LM learns statement boundaries.
pub fn tokenize_text(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let toks = tokenize(line);
        if toks.is_empty() {
            continue;
        }
        out.extend(toks);
        out.push("<nl>".to_string());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_operators_and_idents() {
        assert_eq!(
            tokenize("assign y = a_1 && !b;"),
            vec!["assign", "y", "=", "a_1", "&&", "!", "b", ";"]
        );
    }

    #[test]
    fn keeps_based_literals_whole() {
        assert_eq!(tokenize("8'hFF + 'b10"), vec!["8'hFF", "+", "'b10"]);
    }

    #[test]
    fn sva_operators_are_single_tokens() {
        assert_eq!(tokenize("a |-> ##1 b"), vec!["a", "|->", "##", "1", "b"]);
    }

    #[test]
    fn sys_idents_keep_dollar() {
        assert_eq!(
            tokenize("$past(d, 1)"),
            vec!["$past", "(", "d", ",", "1", ")"]
        );
    }

    #[test]
    fn text_gets_line_sentinels() {
        let toks = tokenize_text("a;\n\nb;");
        assert_eq!(toks, vec!["a", ";", "<nl>", "b", ";", "<nl>"]);
    }

    #[test]
    fn non_ascii_characters_are_whole_tokens() {
        assert_eq!(
            tokenize("$error(\"café failed\");"),
            vec!["$error", "(", "\"", "caf", "é", "failed", "\"", ")", ";"]
        );
        assert_eq!(
            tokenize("a = b; // ✓"),
            vec!["a", "=", "b", ";", "/", "/", "✓"]
        );
        assert_eq!(
            tokenize_text("a = b; // ✓\n$error(\"café failed\");"),
            vec![
                "a", "=", "b", ";", "/", "/", "✓", "<nl>", "$error", "(", "\"", "caf", "é",
                "failed", "\"", ")", ";", "<nl>"
            ]
        );
    }

    #[test]
    fn never_loses_progress_on_garbage() {
        let toks = tokenize("@#%^&*'");
        assert!(!toks.is_empty());
    }
}
