//! Source text handling: byte spans and line/column mapping.
//!
//! Every AST node produced by the [`crate::parser`] carries a [`Span`]
//! pointing back into the original source. The repair pipeline depends on
//! this to report *line-accurate* bug locations, exactly as the paper's
//! model must emit the buggy line snippet.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// A half-open byte range `[start, end)` into a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "span start must not exceed end");
        Span { start, end }
    }

    /// A zero-length span at a position (used for synthesised nodes).
    pub fn point(at: u32) -> Self {
        Span { start: at, end: at }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Length of the span in bytes.
    pub fn len(self) -> u32 {
        self.end - self.start
    }

    /// Whether the span is empty.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }
}

/// Hashes nothing: a span says where a node was written, not what it is.
/// The verification service keys a design by the hash of its AST, and
/// two spellings of one design (other whitespace, other comments) must
/// share that key. This agrees with the derived `Eq`, as `Hash`
/// requires: equal spans hash alike.
impl Hash for Span {
    fn hash<H: Hasher>(&self, _state: &mut H) {}
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A 1-based line/column position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// A source file with a precomputed line-offset table.
///
/// ```
/// use asv_verilog::source::SourceFile;
/// let src = SourceFile::new("module m;\nendmodule\n");
/// assert_eq!(src.line_count(), 2);
/// assert_eq!(src.line_col(10).line, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceFile {
    text: String,
    line_starts: Vec<u32>,
}

impl SourceFile {
    /// Wraps source text, computing the line table.
    pub fn new(text: impl Into<String>) -> Self {
        let text = text.into();
        let mut line_starts = vec![0u32];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        SourceFile { text, line_starts }
    }

    /// The raw source text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of lines (a trailing newline does not add an empty line
    /// unless followed by content).
    pub fn line_count(&self) -> u32 {
        let n = self.line_starts.len() as u32;
        if self.text.ends_with('\n') && n > 1 {
            n - 1
        } else {
            n
        }
    }

    /// Maps a byte offset to a 1-based line/column.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - self.line_starts[line_idx] + 1,
        }
    }

    /// The full text of a 1-based line, without the trailing newline.
    ///
    /// Returns `None` if `line` is out of range.
    pub fn line_text(&self, line: u32) -> Option<&str> {
        let idx = line.checked_sub(1)? as usize;
        let start = *self.line_starts.get(idx)? as usize;
        if start >= self.text.len() && !self.text.is_empty() {
            return None; // phantom line after a trailing newline
        }
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(self.text.len());
        Some(self.text[start..end].trim_end_matches(['\n', '\r']))
    }

    /// The source slice covered by `span`.
    pub fn slice(&self, span: Span) -> &str {
        &self.text[span.start as usize..span.end as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merge_covers_both() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(b.merge(a), Span::new(3, 12));
    }

    #[test]
    fn span_len_and_empty() {
        assert_eq!(Span::new(2, 6).len(), 4);
        assert!(Span::point(9).is_empty());
        assert!(!Span::new(0, 1).is_empty());
    }

    #[test]
    fn line_col_maps_offsets() {
        let f = SourceFile::new("abc\ndef\nxyz");
        assert_eq!(f.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(f.line_col(3), LineCol { line: 1, col: 4 });
        assert_eq!(f.line_col(4), LineCol { line: 2, col: 1 });
        assert_eq!(f.line_col(9), LineCol { line: 3, col: 2 });
    }

    #[test]
    fn line_text_returns_lines() {
        let f = SourceFile::new("module m;\n  wire w;\nendmodule\n");
        assert_eq!(f.line_text(1), Some("module m;"));
        assert_eq!(f.line_text(2), Some("  wire w;"));
        assert_eq!(f.line_text(3), Some("endmodule"));
        assert_eq!(f.line_text(4), None);
    }

    #[test]
    fn line_count_ignores_trailing_newline() {
        assert_eq!(SourceFile::new("a\nb\n").line_count(), 2);
        assert_eq!(SourceFile::new("a\nb").line_count(), 2);
        assert_eq!(SourceFile::new("").line_count(), 1);
    }

    #[test]
    fn slice_extracts_span() {
        let f = SourceFile::new("assign y = a & b;");
        assert_eq!(f.slice(Span::new(11, 16)), "a & b");
    }
}
