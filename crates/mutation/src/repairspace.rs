//! Repair-candidate enumeration: the search space the repair model scores.
//!
//! Given a *buggy* design, the space of single-token edits enumerated by
//! [`crate::inject::enumerate`] is closed under inversion (operator swaps
//! are involutions, literal tweaks cover ±1 and msb-flip, identifier swaps
//! cover all same-width peers, negation insert/remove invert each other),
//! so the golden fix is always reachable as one candidate. The model's job
//! — like the paper's LLM — is to *rank* it first.
//!
//! # Render once, splice per candidate
//!
//! [`candidates`] renders the buggy design once and records where each
//! slot root lands (`asv_verilog::pretty::render_module_slots`). Each
//! candidate clones only the root expression that holds its site, applies
//! its edit in place, renders that root into a buffer the enumeration
//! reuses, and builds its new line once, at its final trimmed size, from
//! the root's line around it; the printer renders every root on one line
//! at precedence 0, so the result equals rendering the whole mutated
//! module. A candidate owns only that line: it shares the design's
//! rendering, its line's old text and its statement's `assigned` list with
//! its siblings. [`Candidate::patched_source`] builds the full source only
//! when asked, with [`splice_line`], and [`golden_candidates`] finds the
//! candidates that restore a golden source by comparing the one line where
//! the two differ.

use crate::inject::{enumerate_sites, Mutation, Rendering};
use crate::sites::collect_sites;
use asv_verilog::sema::Design;
use std::ops::Range;
use std::sync::Arc;

/// One candidate repair: a single-line rewrite of the buggy source.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Stable candidate index within the enumeration.
    pub id: usize,
    /// 1-based line number changed in the canonical rendering.
    pub line_no: u32,
    /// The line as it appears in the buggy source (trimmed), shared by
    /// the candidates that edit the line.
    pub old_line: Arc<str>,
    /// The proposed replacement line (trimmed).
    pub new_line: String,
    /// The underlying mutation (site/edit/classification).
    pub mutation: Mutation,
    /// The buggy design's canonical rendering, shared by its candidates.
    source: Arc<str>,
}

impl Candidate {
    /// A short human-readable description of the edit.
    pub fn describe(&self) -> String {
        format!(
            "line {}: `{}` -> `{}`",
            self.line_no, self.old_line, self.new_line
        )
    }

    /// Full rendered source with the candidate applied: the buggy design's
    /// rendering with line `line_no` spliced (see [`splice_line`]). Built on
    /// each call.
    pub fn patched_source(&self) -> String {
        splice_line(&self.source, self.line_no, &self.new_line)
            .expect("a candidate's line is in its design's rendering")
    }
}

/// Enumerates all repair candidates of a buggy design.
///
/// Candidates that fail to apply (no-ops after rendering) are skipped.
/// Order is deterministic.
pub fn candidates(buggy: &Design) -> Vec<Candidate> {
    let sites = collect_sites(&buggy.module);
    let rendering = Rendering::new(&buggy.module, &sites);
    let mutations = enumerate_sites(buggy, &sites);
    let mut out = Vec::with_capacity(mutations.len());
    let mut scratch = String::new();
    for (id, m) in mutations.into_iter().enumerate() {
        let Ok(edit) = rendering.edit(&m, &mut scratch) else {
            continue;
        };
        out.push(Candidate {
            id,
            line_no: edit.line_no,
            old_line: edit.old_line,
            new_line: edit.new_line,
            mutation: m,
            source: Arc::clone(&rendering.source),
        });
    }
    out
}

/// Checks whether a candidate reproduces the golden source exactly
/// (canonical-rendering string equality). This is the *strict* correctness
/// notion used for challenging-case mining; the evaluation harness uses
/// the verifier-backed notion (assertion failures actually resolved).
pub fn matches_golden(candidate: &Candidate, golden_source: &str) -> bool {
    candidate.patched_source() == golden_source
}

/// Indices of the candidates that reproduce `golden_source` exactly, as
/// [`matches_golden`] decides, for the candidates of one design as
/// [`candidates`] returns them. Builds no patched source: a candidate
/// matches when its line is the one line where the design's rendering and
/// `golden_source` differ and its new text is the golden line's.
pub fn golden_candidates(cands: &[Candidate], golden_source: &str) -> Vec<usize> {
    let Some(first) = cands.first() else {
        return Vec::new();
    };
    debug_assert!(cands.iter().all(|c| Arc::ptr_eq(&c.source, &first.source)));
    let Some((line_no, text)) = line_edit(&first.source, golden_source) else {
        return Vec::new();
    };
    cands
        .iter()
        .enumerate()
        .filter(|(_, c)| c.line_no == line_no && c.new_line == text)
        .map(|(i, _)| i)
        .collect()
}

/// Replaces the text of 1-based line `line_no` of `source` by `text`. The
/// line's leading and trailing whitespace and every other byte of `source`
/// are kept. `None` when `source` has no such line.
pub fn splice_line(source: &str, line_no: u32, text: &str) -> Option<String> {
    let keep = line_text(source, line_range(source, line_no)?);
    Some([&source[..keep.start], text, &source[keep.end..]].concat())
}

/// Byte range of 1-based line `line_no` in `source`, without its newline.
fn line_range(source: &str, line_no: u32) -> Option<Range<usize>> {
    let start = match line_no.checked_sub(1)? {
        0 => 0,
        n => source.match_indices('\n').nth(n as usize - 1)?.0 + 1,
    };
    let end = source[start..]
        .find('\n')
        .map_or(source.len(), |i| start + i);
    Some(start..end)
}

/// Byte range of the text of the line at `line` in `source`: the line
/// without its leading and trailing whitespace.
fn line_text(source: &str, line: Range<usize>) -> Range<usize> {
    let full = &source[line.clone()];
    let start = line.start + (full.len() - full.trim_start().len());
    start..start + full.trim().len()
}

/// The [`splice_line`] edit that turns `source` into `target`: the line
/// number and its new text. `None` when the two are equal, differ in more
/// than one line, or the differing line of `target` does not keep the
/// leading and trailing whitespace of `source`'s.
fn line_edit<'t>(source: &str, target: &'t str) -> Option<(u32, &'t str)> {
    let same = source
        .bytes()
        .zip(target.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    if same == source.len() && same == target.len() {
        return None;
    }
    let start = source.as_bytes()[..same]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let source_end = source[start..]
        .find('\n')
        .map_or(source.len(), |i| start + i);
    let target_end = target[start..]
        .find('\n')
        .map_or(target.len(), |i| start + i);
    if source[source_end..] != target[target_end..] {
        return None;
    }
    let line_no = source[..start].matches('\n').count() as u32 + 1;
    let keep = line_text(source, start..source_end);
    let text = target[start..target_end]
        .strip_prefix(&source[start..keep.start])?
        .strip_suffix(&source[keep.end..source_end])?;
    Some((line_no, text))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{self, first_diff_line, InjectError};
    use crate::sites::transform_site;
    use asv_verilog::compile;
    use asv_verilog::pretty::render_module;

    const SRC: &str = "module m(input clk, input rst_n, input g, input [3:0] a,\n\
        input [3:0] b, output reg [3:0] y);\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) y <= 4'd0;\n\
          else if (g) y <= a + b;\n\
          else y <= b;\n\
        end\n\
        property p; @(posedge clk) disable iff (!rst_n) g |-> ##1 y == $past(a) + $past(b); endproperty\n\
        chk: assert property (p) else $error(\"sum wrong\");\nendmodule";

    #[test]
    fn golden_fix_is_always_in_the_candidate_space() {
        let golden = compile(SRC).expect("compile golden");
        let golden_src = render_module(&golden.module);
        // Inject each enumerable bug, then verify the candidate space of
        // the buggy design contains a candidate restoring the golden text.
        let mut tested = 0;
        for m in inject::enumerate(&golden) {
            let Ok(inj) = inject::apply(&golden, &m) else {
                continue;
            };
            let Ok(buggy) = compile(&inj.buggy_source) else {
                continue; // syntax-/semantics-breaking bugs are filtered in stage 2
            };
            let cands = candidates(&buggy);
            assert!(
                cands.iter().any(|c| matches_golden(c, &golden_src)),
                "no inverse candidate for mutation: {m:?}"
            );
            tested += 1;
            if tested >= 25 {
                break; // bounded for test runtime; kinds are interleaved
            }
        }
        assert!(tested >= 10, "too few injections compiled: {tested}");
    }

    #[test]
    fn candidates_are_deterministic_and_line_accurate() {
        let golden = compile(SRC).expect("compile");
        let cands = candidates(&golden);
        assert_eq!(cands, candidates(&golden));
        let src = render_module(&golden.module);
        for c in &cands {
            let line = src
                .lines()
                .nth(c.line_no as usize - 1)
                .expect("line exists");
            assert_eq!(line.trim(), &*c.old_line, "old_line must match source");
        }
    }

    #[test]
    fn describe_mentions_both_lines() {
        let golden = compile(SRC).expect("compile");
        let c = &candidates(&golden)[0];
        let d = c.describe();
        assert!(d.contains(&*c.old_line));
        assert!(d.contains(&c.new_line));
    }

    /// Else-if chains, a multi-label case arm, ternaries (nested in a
    /// binary operator too), negations to insert and drop, and an `if`
    /// whose body is a `case` without `begin`: the printer ends that `if`
    /// line with a space.
    const SHAPES: &str = "module s(input clk, input rst_n, input en, input a, input b,\n\
        input c, input [1:0] k, input [3:0] p, input [3:0] q,\n\
        output reg [3:0] y, output reg z, output [3:0] w, output v, output u);\n\
        assign w = (k[0] ? p : q) + 4'd1;\n\
        assign v = !(a | b);\n\
        assign u = a & b ? c : ~c;\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) y <= 4'd0;\n\
          else if (a) y <= p + q;\n\
          else if (b & c) y <= k[1] ? p - q : q;\n\
          else y <= q;\n\
        end\n\
        always @(posedge clk) begin\n\
          if (en)\n\
            case (k)\n\
              2'd0, 2'd1: z <= a & b;\n\
              2'd2: z <= ~c;\n\
              default: z <= 1'b0;\n\
            endcase\n\
        end\n\
        property pz; @(posedge clk) en |-> ##1 z == a; endproperty\n\
        chk: assert property (pz);\nendmodule";

    /// The full re-render of `design` with `m` applied: the oracle the
    /// spliced edits must equal.
    fn rerender(design: &Design, m: &Mutation) -> String {
        let mutated = transform_site(&design.module, m.site_id, |e| {
            m.edit.rewrite(e).expect("the edit fits its site")
        })
        .expect("the site exists");
        render_module(&mutated)
    }

    /// Checks every candidate and every injection of `design` against the
    /// full re-render and returns the candidates.
    fn assert_splices_equal_rerender(design: &Design) -> Vec<Candidate> {
        let golden = render_module(&design.module);
        let cands = candidates(design);
        assert!(!cands.is_empty());
        for (i, c) in cands.iter().enumerate() {
            let full = rerender(design, &c.mutation);
            assert_eq!(c.patched_source(), full, "{}", c.describe());
            assert_eq!(
                first_diff_line(&golden, &full),
                Some((c.line_no, c.old_line.to_string(), c.new_line.clone()))
            );
            assert!(matches_golden(c, &full));
            assert!(golden_candidates(&cands, &full).contains(&i));
        }
        for m in inject::enumerate(design) {
            let full = rerender(design, &m);
            match inject::apply(design, &m) {
                Ok(inj) => {
                    assert_eq!(inj.golden_source, golden);
                    assert_eq!(inj.buggy_source, full);
                    assert_eq!(
                        first_diff_line(&golden, &full),
                        Some((inj.line_no, inj.fixed_line, inj.buggy_line))
                    );
                }
                Err(e) => {
                    assert_eq!(e, InjectError::NoOp);
                    assert_eq!(full, golden);
                }
            }
        }
        cands
    }

    fn shapes() -> Design {
        compile(SHAPES).unwrap_or_else(|e| panic!("compile: {e}"))
    }

    #[test]
    fn else_if_chain_edits_splice_exactly() {
        let cands = assert_splices_equal_rerender(&shapes());
        assert!(cands
            .iter()
            .any(|c| c.new_line == "else if (b | c) y <= k[1] ? p - q : q;"));
        assert!(cands
            .iter()
            .any(|c| c.new_line == "else if (!a) y <= p + q;"));
    }

    #[test]
    fn multi_label_case_arm_edits_splice_exactly() {
        let cands = assert_splices_equal_rerender(&shapes());
        assert!(cands
            .iter()
            .any(|c| c.new_line == "2'd0, 2'd2: z <= a & b;"));
        assert!(cands
            .iter()
            .any(|c| c.new_line == "2'd0, 2'd1: z <= a | b;"));
    }

    #[test]
    fn ternary_edits_splice_exactly() {
        let cands = assert_splices_equal_rerender(&shapes());
        assert!(cands
            .iter()
            .any(|c| c.new_line == "assign w = (k[0] ? p : q) - 4'd1;"));
        assert!(cands
            .iter()
            .any(|c| c.new_line == "assign u = a | b ? c : ~c;"));
        assert!(cands
            .iter()
            .any(|c| c.new_line == "else if (b & c) y <= k[1] ? p + q : q;"));
    }

    #[test]
    fn negate_and_unnegate_reparenthesise() {
        let cands = assert_splices_equal_rerender(&shapes());
        let edited = |line: &str| cands.iter().any(|c| c.new_line == line);
        assert!(
            edited("assign v = a | b;"),
            "unnegate drops the parentheses"
        );
        assert!(edited("2'd2: z <= c;"), "unnegate drops `~`");
        assert!(edited("assign u = !(a & b ? c : ~c);"), "negate adds them");
        assert!(edited("else if (!a) y <= p + q;"), "a primary needs none");
    }

    #[test]
    fn trailing_space_line_matches_its_candidate() {
        let golden = shapes();
        let golden_src = render_module(&golden.module);
        let line_no = golden_src
            .lines()
            .position(|l| l == "    if (en) ")
            .expect("the printer ends the `if` line with a space") as u32
            + 1;
        let inj = inject::enumerate(&golden)
            .iter()
            .filter(|m| m.edit == inject::Edit::Negate)
            .filter_map(|m| inject::apply(&golden, m).ok())
            .find(|inj| inj.line_no == line_no)
            .expect("negation of the `if` condition");
        assert_eq!(
            (inj.line_no, inj.buggy_line.as_str()),
            (line_no, "if (!en)")
        );
        assert!(inj.buggy_source.contains("\n    if (!en) \n"));
        // Splicing the fixed line back keeps the trailing space, so the
        // rebuilt golden source is the golden rendering.
        assert_eq!(
            splice_line(&inj.buggy_source, inj.line_no, &inj.fixed_line).as_deref(),
            Some(golden_src.as_str())
        );
        let buggy = compile(&inj.buggy_source).expect("compile buggy");
        let cands = assert_splices_equal_rerender(&buggy);
        let restoring = golden_candidates(&cands, &golden_src);
        assert!(
            !restoring.is_empty(),
            "the inverse edit restores the golden source"
        );
        for i in restoring {
            assert_eq!(cands[i].patched_source(), golden_src);
        }
    }

    #[test]
    fn splice_keeps_surrounding_whitespace() {
        let src = "a\n  b;  \nc";
        assert_eq!(splice_line(src, 2, "B;").as_deref(), Some("a\n  B;  \nc"));
        assert_eq!(splice_line(src, 1, "A").as_deref(), Some("A\n  b;  \nc"));
        assert_eq!(splice_line(src, 3, "C").as_deref(), Some("a\n  b;  \nC"));
        assert_eq!(splice_line(src, 0, "x"), None);
        assert_eq!(splice_line(src, 4, "x"), None);
    }

    #[test]
    fn golden_candidates_need_exactly_one_changed_line() {
        let design = shapes();
        let cands = candidates(&design);
        let src = render_module(&design.module);
        assert!(
            golden_candidates(&cands, &src).is_empty(),
            "no candidate is a no-op"
        );
        let two =
            splice_line(&cands[0].patched_source(), cands[0].line_no + 1, "x;").expect("line");
        assert!(golden_candidates(&cands, &two).is_empty());
        assert!(golden_candidates(&cands, &(cands[0].patched_source() + "\n")).is_empty());
        assert!(golden_candidates(&[], &src).is_empty());
    }
}
