//! Feature extraction: the representation the repair policy scores.
//!
//! Each repair candidate (a single-line edit of the buggy design) is
//! mapped to a fixed-length vector combining structural evidence (fault
//! localisation), statistical evidence (LM likelihood delta from the PT
//! phase), and lexical evidence (spec and log overlap) — the same signals
//! a verification engineer weighs in the paper's Fig. 1.
//!
//! [`CaseContext::new`] builds the case's evidence once, with one
//! vocabulary table that answers whether a word occurs in the spec, the
//! logs or the checked properties in a single lookup. [`extract_all`]
//! derives each line's side of the edit (its tokens, LM score, shape and
//! index coherence) in buffers it reuses for the whole case, borrowing
//! every token from the candidate's lines. So a candidate allocates
//! nothing beyond its feature vector, except a string to lowercase a word
//! with capitals. The buggy line's side is derived once for each run of
//! consecutive candidates that edit the same line. [`extract`] is the
//! one-candidate case.

use crate::lm::NgramLm;
use crate::localize::Localization;
use crate::tokenizer::{tokenize, tokens_into};
use asv_mutation::kinds::SyntacticKind;
use asv_mutation::Candidate;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Number of features (dimension of the policy weight vector).
pub const FEATURE_DIM: usize = 14;

/// Human-readable feature names, index-aligned with the vectors.
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "bias",
    "localization",
    "lm_delta",
    "edit_var",
    "edit_value",
    "edit_op",
    "in_condition",
    "spec_overlap",
    "log_overlap",
    "edit_distance",
    "property_overlap",
    "sibling_consistency",
    "index_coherence",
    "property_affinity",
];

/// A feature vector for one candidate.
pub type Features = [f64; FEATURE_DIM];

/// Vocabulary bit: a lowercased word of the spec.
const SPEC: u8 = 1;
/// Vocabulary bit: a lowercased signal-like word of the failure logs.
const LOG: u8 = 2;
/// Vocabulary bit: a token of a checked property, as written.
const PROPERTY: u8 = 4;

/// Shared per-case context used to extract candidate features.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CaseContext {
    /// Localisation of the failing assertions.
    pub localization: Localization,
    /// The case's evidence, one entry per word or token with its
    /// [`SPEC`], [`LOG`] and [`PROPERTY`] bits:
    /// - lowercased spec words;
    /// - lowercased signal-like words of the failure logs (assertion names
    ///   split on `.`/`_`, message words);
    /// - tokens of the failing properties (identifiers, operators,
    ///   literals), as written: golden fixes usually mirror the checked
    ///   expression.
    vocabulary: HashMap<String, u8>,
    /// Digit/identifier-index-normalised line shapes of the design, with
    /// occurrence counts: replicated structures (lanes, unrolled stages)
    /// make a correct fix restore a shape its siblings already have.
    pub line_shapes: BTreeMap<String, usize>,
}

impl CaseContext {
    /// Builds the context for one repair case.
    pub fn new(module: &asv_verilog::ast::Module, spec: &str, logs: &[String]) -> Self {
        // Focus all evidence on the assertions the logs report as failing.
        let failing = crate::localize::failing_assertions(logs);
        let localization = crate::localize::localize_filtered(
            module,
            if failing.is_empty() {
                None
            } else {
                Some(&failing)
            },
        );
        let mut vocabulary: HashMap<String, u8> = HashMap::new();
        let mut mark = |word: String, bit: u8| *vocabulary.entry(word).or_insert(0) |= bit;
        for w in spec.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
            if w.len() > 1 {
                mark(w.to_lowercase(), SPEC);
            }
        }
        for log in logs {
            for w in log.split(|c: char| !c.is_ascii_alphanumeric() && c != '_') {
                if w.len() > 1 {
                    mark(w.to_lowercase(), LOG);
                    // Assertion labels often concatenate signal names.
                    for part in w.split('_') {
                        if part.len() > 1 {
                            mark(part.to_lowercase(), LOG);
                        }
                    }
                }
            }
        }
        // Property tokens restricted to the failing assertions (fall back
        // to all properties when the logs name none).
        let failing_props: Vec<String> = module
            .assertions()
            .filter(|a| failing.is_empty() || failing.iter().any(|n| n == a.log_name()))
            .map(|a| match &a.target {
                asv_verilog::ast::AssertTarget::Named(n) => n.clone(),
                asv_verilog::ast::AssertTarget::Inline(p) => p.name.clone(),
            })
            .collect();
        let mut bodies = Vec::new();
        for p in module.properties() {
            if failing_props.is_empty() || failing_props.contains(&p.name) {
                bodies.push(&p.body);
            }
        }
        for a in module.assertions() {
            if let asv_verilog::ast::AssertTarget::Inline(p) = &a.target {
                if failing.is_empty() || failing.iter().any(|n| n == a.log_name()) {
                    bodies.push(&p.body);
                }
            }
        }
        for body in bodies {
            for tok in tokenize(&asv_verilog::pretty::render_prop(body)) {
                // Strip history wrappers: `$past(a)` contributes `a`, `+`, ...
                if !tok.starts_with('$') {
                    mark(tok, PROPERTY);
                }
            }
        }
        let mut line_shapes: BTreeMap<String, usize> = BTreeMap::new();
        for line in asv_verilog::pretty::render_module(module).lines() {
            let shape = line_shape(line);
            if !shape.is_empty() {
                *line_shapes.entry(shape).or_insert(0) += 1;
            }
        }
        CaseContext {
            localization,
            vocabulary,
            line_shapes,
        }
    }

    /// The vocabulary bits of `word`: 0 when the case's evidence never
    /// mentions it.
    fn lookup(&self, word: &str) -> u8 {
        self.vocabulary.get(word).copied().unwrap_or(0)
    }
}

/// Normalises a source line to its *shape*: digits collapse to `#` so that
/// lane indices and literal values do not distinguish replicated lines.
pub fn line_shape(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    push_line_shape(&mut out, line);
    out
}

/// Appends the [`line_shape`] of `line` to `out`.
fn push_line_shape(out: &mut String, line: &str) {
    let mut prev_hash = false;
    for c in line.trim().chars() {
        if c.is_ascii_digit() {
            if !prev_hash {
                out.push('#');
                prev_hash = true;
            }
        } else {
            out.push(c);
            prev_hash = false;
        }
    }
}

/// One side of an edit, the buggy line or its replacement: what the
/// features need of it. [`Side::fill`] reuses its buffers.
#[derive(Default)]
struct Side<'a> {
    /// Tokens in line order.
    tokens: Vec<&'a str>,
    /// Distinct tokens, sorted.
    set: Vec<&'a str>,
    /// [`NgramLm::score_tokens`] of the tokens.
    score: f64,
    /// [`line_shape`] of the line.
    shape: String,
    /// [`index_coherence`] of the tokens.
    coherence: f64,
}

impl<'a> Side<'a> {
    /// Derives the side of `line`; `indices` is scratch for its index
    /// coherence.
    fn fill(&mut self, lm: &NgramLm, line: &'a str, indices: &mut Vec<u64>) {
        self.tokens.clear();
        tokens_into(line, &mut self.tokens);
        self.set.clear();
        self.set.extend_from_slice(&self.tokens);
        self.set.sort_unstable();
        self.set.dedup();
        self.score = lm.score_tokens(&self.tokens);
        self.shape.clear();
        push_line_shape(&mut self.shape, line);
        self.coherence = index_coherence(&self.tokens, indices);
    }
}

/// Extracts the feature vector of one candidate.
pub fn extract(ctx: &CaseContext, lm: &NgramLm, candidate: &Candidate) -> Features {
    extract_all(ctx, lm, std::slice::from_ref(candidate))[0]
}

/// Extracts the feature vectors of a case's candidates, equal to
/// [`extract`] on each. One set of buffers serves every candidate, and
/// the buggy line's side is derived once per run of consecutive candidates
/// with the same `old_line`.
pub fn extract_all(ctx: &CaseContext, lm: &NgramLm, candidates: &[Candidate]) -> Vec<Features> {
    let mut out = Vec::with_capacity(candidates.len());
    let (mut old, mut new, mut indices) = (Side::default(), Side::default(), Vec::new());
    for run in candidates.chunk_by(|a, b| a.old_line == b.old_line) {
        old.fill(lm, &run[0].old_line, &mut indices);
        for c in run {
            new.fill(lm, &c.new_line, &mut indices);
            out.push(features(ctx, &old, &new, c));
        }
    }
    out
}

/// The features of `candidate`, whose buggy line is `old` and whose
/// replacement is `new`.
fn features(ctx: &CaseContext, old: &Side, new: &Side, candidate: &Candidate) -> Features {
    let mut f = [0.0; FEATURE_DIM];
    f[0] = 1.0;
    // Structural: how close the edited statement's targets sit to the
    // failing assertion.
    f[1] = ctx
        .localization
        .max_over(candidate.mutation.assigned.iter().map(String::as_str));
    // Statistical: does the rewritten line look more idiomatic? Clamped so
    // one feature cannot dominate the linear score.
    let delta = new.score - old.score;
    f[2] = delta.clamp(-2.0, 2.0) / 2.0;
    // Edit-type one-hot (priors learned in SFT).
    match candidate.mutation.class.syntactic {
        SyntacticKind::Var => f[3] = 1.0,
        SyntacticKind::Value => f[4] = 1.0,
        SyntacticKind::Op => f[5] = 1.0,
    }
    f[6] = f64::from(u8::from(candidate.mutation.class.cond));
    // Lexical: overlap of the *new* line's words with the spec and logs,
    // and of all its tokens with the checked properties. Words start with
    // a letter, so they are ASCII identifiers.
    let (mut words, mut spec_hits, mut log_hits, mut property_hits) = (0usize, 0, 0, 0);
    for t in &new.tokens {
        let mut found = ctx.lookup(t);
        property_hits += usize::from(found & PROPERTY != 0);
        if !t.starts_with(|c: char| c.is_ascii_alphabetic()) {
            continue;
        }
        if t.bytes().any(|b| b.is_ascii_uppercase()) {
            found = ctx.lookup(&t.to_ascii_lowercase());
        }
        words += 1;
        spec_hits += usize::from(found & SPEC != 0);
        log_hits += usize::from(found & LOG != 0);
    }
    if words > 0 {
        f[7] = spec_hits as f64 / words as f64;
        f[8] = log_hits as f64 / words as f64;
    }
    // Edit size: token-level symmetric difference, normalised.
    let (mut introduced, mut introduced_hits) = (0usize, 0usize);
    for t in &new.set {
        if old.set.binary_search(t).is_err() {
            introduced += 1;
            introduced_hits += usize::from(ctx.lookup(t) & PROPERTY != 0);
        }
    }
    let common = new.set.len() - introduced;
    let sym = (old.set.len() - common) + introduced;
    let denom = (old.set.len() + new.set.len()).max(1);
    f[9] = 1.0 - (sym as f64 / denom as f64);
    // Property mirror: how much of the *changed* content matches tokens of
    // the checked properties. Measured on the tokens the edit introduced,
    // so an unchanged context line does not dilute the signal.
    if introduced > 0 {
        f[10] = introduced_hits as f64 / introduced as f64;
    }
    // Sibling consistency: does the repaired line's shape match replicated
    // lines elsewhere in the design? The bug breaks lane symmetry; the
    // golden fix restores it.
    let mut siblings = ctx.line_shapes.get(&new.shape).copied().unwrap_or(0);
    // Exclude the candidate's own (pre-edit) line when the edit does not
    // change the shape (pure literal tweaks).
    if new.shape == old.shape {
        siblings = siblings.saturating_sub(1);
    }
    f[11] = (siblings.min(2) as f64) / 2.0;
    // Index coherence *delta*: does the edit make the line's lane/stage
    // indices agree more (`pulse4 = din[4] & ~prev3` -> `~prev4`)? A delta
    // (rather than the absolute coherence) keeps legitimately mixed-index
    // lines, like priority-arbiter chains, unpenalised.
    let delta = new.coherence - old.coherence;
    f[12] = (delta + 1.0) / 2.0;
    // Line affinity with the failing property: the repaired line should
    // share vocabulary (case labels, operands, operators) with the checked
    // expression — this is what points at the right case arm of an ALU.
    if !new.tokens.is_empty() {
        f[13] = property_hits as f64 / new.tokens.len() as f64;
    }
    f
}

/// Fraction of a line's numeric indices that agree with the most common
/// one, given the line's tokens; `indices` is scratch. Lines with fewer
/// than two indices score a neutral 0.5.
fn index_coherence(tokens: &[&str], indices: &mut Vec<u64>) -> f64 {
    indices.clear();
    indices.extend(tokens.iter().filter_map(|t| index_of(t)));
    if indices.len() < 2 {
        return 0.5;
    }
    let max = indices
        .iter()
        .map(|i| indices.iter().filter(|&j| j == i).count())
        .max()
        .unwrap_or(0);
    max as f64 / indices.len() as f64
}

/// The index a token carries: an identifier's digit suffix (`prev4`) or a
/// bare bracket index (`din[4]`). Sized literals like `4'd1` are values,
/// not indices.
fn index_of(tok: &str) -> Option<u64> {
    if tok.starts_with(|c: char| c.is_ascii_alphabetic()) {
        let stem = tok.trim_end_matches(|c: char| c.is_ascii_digit());
        tok[stem.len()..].parse().ok()
    } else if tok.bytes().all(|b| b.is_ascii_digit()) {
        tok.parse().ok()
    } else {
        None
    }
}

/// Dot product of weights and features.
pub fn dot(weights: &Features, features: &Features) -> f64 {
    weights
        .iter()
        .zip(features.iter())
        .map(|(w, f)| w * f)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_mutation::repairspace::candidates;
    use asv_verilog::compile;

    const SRC: &str = "module m(input clk, input rst_n, input en, input [3:0] a,\n\
        input [3:0] b, output reg [3:0] q, output reg aux);\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) q <= 4'd0;\n\
          else if (en) q <= a - b;\n\
        end\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) aux <= 1'b0;\n\
          else aux <= en;\n\
        end\n\
        property p; @(posedge clk) disable iff (!rst_n) en |-> ##1 q == $past(a) + $past(b); endproperty\n\
        chk: assert property (p) else $error(\"q must be the sum\");\nendmodule";

    fn setup() -> (CaseContext, NgramLm, Vec<asv_mutation::Candidate>) {
        let d = compile(SRC).expect("compile");
        let ctx = CaseContext::new(
            &d.module,
            "Module m: q accumulates the sum of operands a and b when en is high",
            &["failed assertion m.chk at cycle 4: q must be the sum".to_string()],
        );
        let mut lm = NgramLm::new();
        lm.train_text(SRC);
        let cands = candidates(&d);
        (ctx, lm, cands)
    }

    #[test]
    fn feature_dim_matches_names() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
    }

    #[test]
    fn localization_feature_separates_cone_from_outside() {
        let (ctx, lm, cands) = setup();
        let on_q = cands
            .iter()
            .find(|c| c.mutation.assigned[..] == ["q"])
            .expect("candidate on q");
        let on_aux = cands
            .iter()
            .find(|c| c.mutation.assigned[..] == ["aux"])
            .expect("candidate on aux");
        let fq = extract(&ctx, &lm, on_q);
        let fa = extract(&ctx, &lm, on_aux);
        assert!(fq[1] > fa[1], "q is in the cone, aux is not");
        assert_eq!(fa[1], 0.0);
    }

    #[test]
    fn edit_type_one_hot_is_exclusive() {
        let (ctx, lm, cands) = setup();
        for c in &cands {
            let f = extract(&ctx, &lm, c);
            let hot = f[3] + f[4] + f[5];
            assert!((hot - 1.0).abs() < 1e-9, "one-hot violated: {f:?}");
        }
    }

    #[test]
    fn features_are_bounded() {
        let (ctx, lm, cands) = setup();
        for c in &cands {
            let f = extract(&ctx, &lm, c);
            for (i, v) in f.iter().enumerate() {
                assert!(
                    (-1.0..=1.0).contains(v),
                    "feature {} = {v} out of range",
                    FEATURE_NAMES[i]
                );
            }
        }
    }

    #[test]
    fn spec_overlap_rewards_spec_vocabulary() {
        let (ctx, lm, cands) = setup();
        // The golden fix `q <= a + b` mentions spec words a, b, q.
        let golden = cands
            .iter()
            .find(|c| c.new_line.contains("a + b"))
            .expect("inverse op candidate");
        let f = extract(&ctx, &lm, golden);
        assert!(f[7] > 0.0);
    }

    #[test]
    fn dot_is_linear() {
        let w: Features = [
            1.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0,
        ];
        let f: Features = [
            1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.0,
        ];
        assert!((dot(&w, &f) - (1.0 + 1.0 - 0.25)).abs() < 1e-12);
    }
}
