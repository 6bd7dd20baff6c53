//! Trigram language model with add-k smoothing.
//!
//! This is the pretraining (PT) substrate of the reproduction: trained on
//! the Verilog-PT corpus it captures which token sequences look like
//! idiomatic Verilog, and the repair policy uses the *likelihood delta*
//! between a candidate fix and the buggy line as a feature — a repaired
//! line should look at least as idiomatic as the bug.
//!
//! Training interns each token to an integer id, and every context stores
//! its total next to its continuation counts, as n-gram toolkits store
//! each context's normaliser when the model is built. Scoring a line
//! looks each token up once and allocates nothing.

use crate::tokenizer::{tokenize_text, tokens};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A token's id: its index in `unigrams` and `bigrams`.
type Id = u32;

/// The context before a text's first token; no token has this id.
const BOS: Id = 0;

/// The id of every token training never saw; indexes nothing.
const UNSEEN: Id = Id::MAX;

/// FxHash's multiply-rotate over ids. The keys it hashes are ids the
/// model assigned, so it needs none of the default hasher's resistance to
/// keys crafted to collide.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(id)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// The continuations seen after one context.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
struct Counts {
    /// Sum of `next`'s counts.
    total: u32,
    next: IdMap<Id, u32>,
}

impl Counts {
    fn add(&mut self, token: Id) {
        self.total += 1;
        *self.next.entry(token).or_insert(0) += 1;
    }

    /// Add-1 estimate of `token` after this context, with `v` the smoothed
    /// vocabulary size.
    fn log_prob(&self, token: Id, v: f64) -> f64 {
        let c = self.next.get(&token).copied().unwrap_or(0);
        (f64::from(c) + 1.0).ln() - (f64::from(self.total) + v).ln()
    }
}

/// A trained trigram model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NgramLm {
    /// Token → id; ids count up from 1, after `BOS`.
    ids: HashMap<String, Id>,
    /// Training count of each id.
    unigrams: Vec<u32>,
    /// Continuations of each id.
    bigrams: Vec<Counts>,
    /// Continuations of each `(prev2, prev1)` pair.
    trigrams: IdMap<(Id, Id), Counts>,
    total: u64,
}

impl Default for NgramLm {
    fn default() -> Self {
        NgramLm {
            ids: HashMap::new(),
            unigrams: vec![0],
            bigrams: vec![Counts::default()],
            trigrams: IdMap::default(),
            total: 0,
        }
    }
}

impl NgramLm {
    /// Creates an empty (untrained) model; scores are uniform.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct tokens seen in training.
    pub fn vocab_size(&self) -> usize {
        self.ids.len()
    }

    /// Total training tokens consumed.
    pub fn token_count(&self) -> u64 {
        self.total
    }

    /// Trains on one text (accumulative; call repeatedly per document).
    pub fn train_text(&mut self, text: &str) {
        let (mut prev2, mut prev1) = (BOS, BOS);
        for t in tokenize_text(text) {
            let fresh = Id::try_from(self.unigrams.len()).expect("fewer than 2^32 distinct tokens");
            let id = *self.ids.entry(t).or_insert(fresh);
            if id == fresh {
                self.unigrams.push(0);
                self.bigrams.push(Counts::default());
            }
            self.unigrams[id as usize] += 1;
            self.bigrams[prev1 as usize].add(id);
            self.trigrams.entry((prev2, prev1)).or_default().add(id);
            (prev2, prev1) = (prev1, id);
            self.total += 1;
        }
    }

    /// Log-probability of `token` given the two preceding tokens, with
    /// back-off through bigram and unigram estimates (add-1 smoothing).
    fn log_prob(&self, prev2: Id, prev1: Id, token: Id) -> f64 {
        let v = (self.ids.len().max(1) + 1) as f64;
        let context = self
            .trigrams
            .get(&(prev2, prev1))
            .filter(|c| c.total >= 2)
            .or_else(|| self.bigrams.get(prev1 as usize).filter(|c| c.total >= 2));
        if let Some(counts) = context {
            return counts.log_prob(token, v);
        }
        let c = self.unigrams.get(token as usize).copied().unwrap_or(0);
        (f64::from(c) + 1.0).ln() - (self.total as f64 + v).ln()
    }

    /// Mean per-token log-probability of a token sequence that starts a
    /// line (length-normalised so short and long lines are comparable);
    /// 0 for no tokens.
    pub fn score_tokens(&self, toks: &[&str]) -> f64 {
        if toks.is_empty() {
            return 0.0;
        }
        let (mut prev2, mut prev1) = (BOS, BOS);
        let mut sum = 0.0;
        for &t in toks {
            let id = self.ids.get(t).copied().unwrap_or(UNSEEN);
            sum += self.log_prob(prev2, prev1, id);
            (prev2, prev1) = (prev1, id);
        }
        sum / toks.len() as f64
    }

    /// [`score_tokens`](Self::score_tokens) of a source line's tokens.
    pub fn score_line(&self, line: &str) -> f64 {
        self.score_tokens(&tokens(line))
    }

    /// Perplexity of a text under the model (diagnostic).
    pub fn perplexity(&self, text: &str) -> f64 {
        let toks = tokenize_text(text);
        if toks.is_empty() {
            return f64::INFINITY;
        }
        let toks: Vec<&str> = toks.iter().map(String::as_str).collect();
        (-self.score_tokens(&toks)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn trained() -> NgramLm {
        let mut lm = NgramLm::new();
        for _ in 0..8 {
            lm.train_text(
                "always @(posedge clk or negedge rst_n) begin\n\
                 if (!rst_n) q <= 4'd0;\n\
                 else q <= q + 4'd1;\n\
                 end\n\
                 assign y = a & b;\n\
                 assign z = a | b;\n",
            );
        }
        lm
    }

    #[test]
    fn trained_text_scores_higher_than_noise() {
        let lm = trained();
        let idiom = lm.score_line("q <= q + 4'd1;");
        let noise = lm.score_line("endmodule begin <= |-> posedge q q q");
        assert!(idiom > noise, "idiomatic {idiom} should beat noise {noise}");
    }

    #[test]
    fn perplexity_separates_idiom_from_scramble() {
        let lm = trained();
        let idiom = "assign y = a & b;";
        let scrambled = "b & ; = y a assign";
        assert!(
            lm.perplexity(idiom) < lm.perplexity(scrambled),
            "idiom {} vs scrambled {}",
            lm.perplexity(idiom),
            lm.perplexity(scrambled)
        );
    }

    #[test]
    fn untrained_model_is_uniform() {
        let lm = NgramLm::new();
        let a = lm.score_line("assign y = a;");
        let b = lm.score_line("zz 99 ##");
        assert!((a - b).abs() < 1e-9, "untrained scores must be equal");
    }

    #[test]
    fn vocab_and_tokens_grow() {
        let lm = trained();
        assert!(lm.vocab_size() > 10);
        assert!(lm.token_count() > 100);
    }

    /// Which estimate the reference took.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Branch {
        Trigram,
        Bigram,
        Unigram,
        Unseen,
    }

    /// The back-off formula recomputing each context's total from its
    /// continuation counts.
    fn reference_log_prob(lm: &NgramLm, prev2: Id, prev1: Id, token: Id) -> (f64, Branch) {
        let v = (lm.ids.len().max(1) + 1) as f64;
        let estimate = |counts: &Counts| {
            let ctx: u32 = counts.next.values().sum();
            (ctx >= 2).then(|| {
                let c = counts.next.get(&token).copied().unwrap_or(0);
                (f64::from(c) + 1.0).ln() - (f64::from(ctx) + v).ln()
            })
        };
        if let Some(p) = lm.trigrams.get(&(prev2, prev1)).and_then(estimate) {
            return (p, Branch::Trigram);
        }
        if let Some(p) = lm.bigrams.get(prev1 as usize).and_then(estimate) {
            return (p, Branch::Bigram);
        }
        let c = lm.unigrams.get(token as usize).copied().unwrap_or(0);
        let branch = if c == 0 {
            Branch::Unseen
        } else {
            Branch::Unigram
        };
        let p = (f64::from(c) + 1.0).ln() - (lm.total as f64 + v).ln();
        (p, branch)
    }

    #[test]
    fn stored_totals_score_like_summed_counts_on_every_branch() {
        let mut lm = NgramLm::new();
        lm.train_text("p q r\np q s\nu v\n");
        for counts in lm.trigrams.values().chain(&lm.bigrams) {
            assert_eq!(counts.total, counts.next.values().sum::<u32>());
        }
        // `p` at the line start backs off to the unigram (the start was
        // followed by one token), `q` after the start and `p` to the bigram
        // (`p` was followed twice), `p q → r` is a trigram seen twice, and
        // `zz` is unseen.
        let mut branches = Vec::new();
        for line in ["p q r", "p zz", "u v q", "zz zz"] {
            let toks = tokenize(line);
            let (mut prev2, mut prev1) = (BOS, BOS);
            let mut sum = 0.0;
            for t in &toks {
                let id = lm.ids.get(t).copied().unwrap_or(UNSEEN);
                let (p, branch) = reference_log_prob(&lm, prev2, prev1, id);
                branches.push(branch);
                sum += p;
                (prev2, prev1) = (prev1, id);
            }
            let reference = sum / toks.len() as f64;
            assert_eq!(lm.score_line(line).to_bits(), reference.to_bits(), "{line}");
        }
        branches.sort();
        branches.dedup();
        let all = [
            Branch::Trigram,
            Branch::Bigram,
            Branch::Unigram,
            Branch::Unseen,
        ];
        assert_eq!(branches, all);
    }

    #[test]
    fn clone_round_trips() {
        let lm = trained();
        assert_eq!(lm.clone(), lm);
    }
}
