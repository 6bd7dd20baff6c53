//! Execution coverage instrumentation for the compiled backend.
//!
//! The coverage-guided fuzzer (`asv-fuzz`) needs a feedback signal from
//! each simulation run. Three point classes are tracked in a [`CovMap`]:
//!
//! * **Branch arms** — every `if` arm (taken/not-taken) and every `case`
//!   arm (including the implicit default) of a compiled statement carries
//!   a *branch site* id assigned at lowering time; executing the arm marks
//!   the site.
//! * **Signal toggles** — for every bit of every signal, whether the bit
//!   has been observed at both 0 and 1 across the sampled states of the
//!   run (2-state toggle coverage).
//! * **Assertion antecedents** — whether each assertion directive
//!   completed at least one non-vacuous attempt (recorded by the SVA
//!   checker in `asv-sva`, which owns property semantics).
//!
//! Instrumentation is **zero-cost when disabled**: the lane executor
//! ([`crate::compile::batch`]) is generic over a private per-lane sink,
//! and its uninstrumented instantiation monomorphises every probe away.

use crate::compile::CompiledDesign;
use crate::value::Value;
use serde::{Deserialize, Serialize};

fn width_mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

#[inline]
fn set_bit(words: &mut [u64], i: u32) {
    let (w, b) = ((i / 64) as usize, i % 64);
    if w < words.len() {
        words[w] |= 1u64 << b;
    }
}

#[inline]
fn get_bit(words: &[u64], i: u32) -> bool {
    let (w, b) = ((i / 64) as usize, i % 64);
    w < words.len() && (words[w] >> b) & 1 == 1
}

fn popcount(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// A coverage map for one design: branch-arm bits, per-signal toggle
/// masks and per-assertion antecedent-fired bits.
///
/// Maps for the same design are mergeable; [`CovMap::merge`] returns the
/// number of newly covered points, which is the fuzzer's novelty signal.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CovMap {
    /// Bitset over branch sites (see [`CompiledDesign::branch_sites`]).
    branch: Vec<u64>,
    n_branch: u32,
    /// Per-signal mask of bits observed at 0.
    seen0: Vec<u64>,
    /// Per-signal mask of bits observed at 1.
    seen1: Vec<u64>,
    /// Declared signal widths (denominator of toggle coverage).
    widths: Vec<u32>,
    /// Bitset over assertion directives whose antecedent fired.
    antecedent: Vec<u64>,
    n_assert: u32,
}

impl CovMap {
    /// An empty map sized for `compiled`, with `assertions` antecedent
    /// slots (the assertion axis is owned by the SVA layer, which knows
    /// the directive count).
    pub fn new(compiled: &CompiledDesign, assertions: usize) -> Self {
        let n_branch = compiled.branch_sites();
        let widths: Vec<u32> = (0..compiled.names().len())
            .map(|i| compiled.width(crate::compile::SigId(i as u32)))
            .collect();
        let n_sig = widths.len();
        CovMap {
            branch: vec![0; n_branch.div_ceil(64) as usize],
            n_branch,
            seen0: vec![0; n_sig],
            seen1: vec![0; n_sig],
            widths,
            antecedent: vec![0; assertions.div_ceil(64)],
            n_assert: assertions as u32,
        }
    }

    /// Marks branch site `site` as executed (out-of-range sites are
    /// ignored).
    #[inline]
    pub fn branch(&mut self, site: u32) {
        if site < self.n_branch {
            set_bit(&mut self.branch, site);
        }
    }

    /// Records one sampled state row (toggle coverage). `row` must follow
    /// the compiled design's signal order.
    pub fn record_row(&mut self, row: &[Value]) {
        debug_assert_eq!(row.len(), self.widths.len());
        for (i, v) in row.iter().enumerate() {
            let mask = width_mask(self.widths[i]);
            self.seen1[i] |= v.bits();
            self.seen0[i] |= !v.bits() & mask;
        }
    }

    /// Marks assertion directive `idx` as having completed a non-vacuous
    /// attempt.
    pub fn record_antecedent(&mut self, idx: usize) {
        if (idx as u32) < self.n_assert {
            set_bit(&mut self.antecedent, idx as u32);
        }
    }

    /// True when branch site `site` has been executed.
    pub fn branch_hit(&self, site: u32) -> bool {
        get_bit(&self.branch, site)
    }

    /// True when assertion directive `idx` completed non-vacuously.
    pub fn antecedent_hit(&self, idx: usize) -> bool {
        get_bit(&self.antecedent, idx as u32)
    }

    /// Merges `other` into `self`, returning how many coverage points
    /// (branch arms, fully toggled bits, antecedents) became newly
    /// covered — the fuzzer's novelty score for the run behind `other`.
    ///
    /// # Panics
    ///
    /// Panics when the maps were built for different designs.
    pub fn merge(&mut self, other: &CovMap) -> usize {
        assert_eq!(self.widths, other.widths, "coverage maps of one design");
        let mut new = 0usize;
        for (a, b) in self.branch.iter_mut().zip(&other.branch) {
            new += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        for i in 0..self.widths.len() {
            let before = self.seen0[i] & self.seen1[i];
            self.seen0[i] |= other.seen0[i];
            self.seen1[i] |= other.seen1[i];
            let after = self.seen0[i] & self.seen1[i];
            new += (after & !before).count_ones() as usize;
        }
        for (a, b) in self.antecedent.iter_mut().zip(&other.antecedent) {
            new += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        new
    }

    /// `(covered, total)` branch arms.
    pub fn branch_coverage(&self) -> (usize, usize) {
        (popcount(&self.branch), self.n_branch as usize)
    }

    /// `(covered, total)` toggle bits (a bit counts once observed at both
    /// 0 and 1).
    pub fn toggle_coverage(&self) -> (usize, usize) {
        let covered = self
            .seen0
            .iter()
            .zip(&self.seen1)
            .map(|(z, o)| (z & o).count_ones() as usize)
            .sum();
        let total = self.widths.iter().map(|&w| w as usize).sum();
        (covered, total)
    }

    /// `(covered, total)` assertion antecedents.
    pub fn antecedent_coverage(&self) -> (usize, usize) {
        (popcount(&self.antecedent), self.n_assert as usize)
    }

    /// Total covered points across all three classes.
    pub fn covered_points(&self) -> usize {
        self.branch_coverage().0 + self.toggle_coverage().0 + self.antecedent_coverage().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Simulator;
    use asv_verilog::compile as velab;
    use std::sync::Arc;

    const MUX: &str = "module m(input s, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
         always @(*) begin if (s) y = a; else y = b; end\nendmodule";

    fn compiled(src: &str) -> CompiledDesign {
        CompiledDesign::compile(&velab(src).expect("compile"))
    }

    #[test]
    fn branch_sites_are_allocated() {
        let c = compiled(MUX);
        assert_eq!(c.branch_sites(), 2, "then + else arms");
    }

    #[test]
    fn branch_hits_are_recorded_per_arm() {
        let mut sim = Simulator::from_compiled(Arc::new(compiled(MUX)));
        sim.enable_coverage(0);
        sim.step(&[("s", 1)]).expect("ok");
        let cov = sim.coverage().expect("enabled");
        assert!(cov.branch_hit(0) && !cov.branch_hit(1));
        sim.step(&[("s", 0)]).expect("ok");
        assert_eq!(sim.coverage().expect("enabled").branch_coverage(), (2, 2));
    }

    #[test]
    fn toggle_coverage_needs_both_polarities() {
        let c = compiled(MUX);
        let mut cov = CovMap::new(&c, 0);
        let zeros = c.init_slice();
        cov.record_row(zeros);
        assert_eq!(cov.toggle_coverage().0, 0, "only zeros seen");
        let ones: Vec<Value> = zeros.iter().map(|v| Value::ones(v.width())).collect();
        cov.record_row(&ones);
        let (covered, total) = cov.toggle_coverage();
        assert_eq!(covered, total, "every bit saw both polarities");
    }

    #[test]
    fn merge_counts_only_new_points() {
        let c = compiled(MUX);
        let mut a = CovMap::new(&c, 2);
        let mut b = CovMap::new(&c, 2);
        a.branch(0);
        b.branch(0);
        b.branch(1);
        b.record_antecedent(1);
        let new = a.merge(&b);
        assert_eq!(new, 2, "one new branch arm + one new antecedent");
        assert_eq!(a.merge(&b), 0, "idempotent re-merge");
        assert!(a.antecedent_hit(1) && !a.antecedent_hit(0));
    }

    #[test]
    fn out_of_range_probes_are_ignored() {
        let c = compiled(MUX);
        let mut cov = CovMap::new(&c, 1);
        cov.branch(999);
        cov.record_antecedent(999);
        assert_eq!(cov.covered_points(), 0);
    }
}
