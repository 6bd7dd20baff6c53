//! Effectiveness judging: does a response actually solve the assertion
//! failure?
//!
//! The paper deems a solution *effective if it successfully solves the
//! assertion failure* — not merely if it textually matches the golden fix.
//! The judge therefore: (1) fast-paths exact golden matches; (2) otherwise
//! applies the patch, recompiles and re-verifies with the bounded checker.
//! Results are memoised by patched-source hash, since the 20 samples per
//! case repeat candidates heavily.

use assertsolver_core::Response;
use asv_datagen::SvaBugEntry;
use asv_sva::bmc::{Engine, Verifier};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// A memoising effectiveness judge.
#[derive(Debug, Clone)]
pub struct Judge {
    verifier: Verifier,
    cache: HashMap<u64, bool>,
    /// Cache statistics: `(hits, misses)`.
    pub stats: (u64, u64),
}

impl Judge {
    /// Creates a judge with the given verification bounds.
    pub fn new(verifier: Verifier) -> Self {
        Judge {
            verifier,
            cache: HashMap::new(),
            stats: (0, 0),
        }
    }

    /// A judge with bounds tuned for evaluation throughput: strong enough
    /// to reject wrong patches on the generated designs, cheap enough for
    /// `915 cases × 20 samples`.
    pub fn fast() -> Self {
        Judge::new(Verifier {
            depth: 10,
            reset_cycles: 2,
            exhaustive_limit: 256,
            random_runs: 16,
            seed: 0x007E_57ED,
            engine: Engine::Auto,
        })
    }

    /// The verification bounds this judge applies (the batched runner
    /// uses them to build `asv-serve` jobs that reproduce this judge's
    /// verdicts exactly).
    pub fn verifier(&self) -> Verifier {
        self.verifier
    }

    /// Judges one response against its entry.
    pub fn effective(&mut self, entry: &SvaBugEntry, response: &Response) -> bool {
        // Fast path: textual golden match is correct by construction.
        if response.patched_source == entry.golden_source {
            return true;
        }
        let mut h = DefaultHasher::new();
        response.patched_source.hash(&mut h);
        entry.module_name.hash(&mut h);
        let key = h.finish();
        if let Some(&v) = self.cache.get(&key) {
            self.stats.0 += 1;
            return v;
        }
        self.stats.1 += 1;
        let v = self.check(&response.patched_source);
        self.cache.insert(key, v);
        v
    }

    fn check(&self, patched: &str) -> bool {
        let Ok(design) = asv_verilog::compile(patched) else {
            return false;
        };
        // A patch only counts when *every* assertion holds non-vacuously:
        // silencing the failing property by making its antecedent
        // unreachable does not solve it.
        matches!(self.verifier.check(&design), Ok(v) if v.holds_non_vacuously())
    }

    /// Counts effective responses among `responses` (the `c` of pass@k).
    pub fn count_effective(&mut self, entry: &SvaBugEntry, responses: &[Response]) -> usize {
        responses
            .iter()
            .filter(|r| self.effective(entry, r))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_datagen::dataset::LengthBin;
    use asv_mutation::kinds::{BugClass, SyntacticKind};

    fn entry() -> SvaBugEntry {
        let golden = "module latch1 (\n  input clk,\n  input rst_n,\n  input d,\n  output reg q\n);\n  always @(posedge clk or negedge rst_n) \n    if (!rst_n) q <= 1'b0;\n    else q <= d;\n  property follow;\n    @(posedge clk) disable iff (!rst_n)\n    d |-> ##1 q;\n  endproperty\n  chk: assert property (follow) else $error(\"q must follow d\");\nendmodule\n";
        let buggy = golden.replace("q <= d;", "q <= !d;");
        SvaBugEntry {
            module_name: "latch1".into(),
            spec: "q follows d".into(),
            buggy_source: buggy,
            golden_source: golden.into(),
            logs: vec!["failed assertion latch1.chk at cycle 3: q must follow d".into()],
            line_no: 9,
            buggy_line: "else q <= !d;".into(),
            fixed_line: "else q <= d;".into(),
            class: BugClass {
                syntactic: SyntacticKind::Op,
                cond: false,
                direct: Some(true),
            },
            length_bin: LengthBin::B50,
            cot: None,
        }
    }

    fn response(patched: &str) -> Response {
        Response {
            line_no: 9,
            buggy_line: "else q <= !d;".into(),
            fix: "else q <= d;".into(),
            patched_source: patched.to_string(),
            cot: String::new(),
        }
    }

    #[test]
    fn golden_match_is_effective_without_verification() {
        let e = entry();
        let mut j = Judge::fast();
        assert!(j.effective(&e, &response(&e.golden_source)));
        assert_eq!(j.stats, (0, 0), "fast path must skip the verifier");
    }

    #[test]
    fn unfixed_patch_is_rejected() {
        let e = entry();
        let mut j = Judge::fast();
        // "Patch" that re-submits the buggy source.
        assert!(!j.effective(&e, &response(&e.buggy_source)));
    }

    #[test]
    fn semantically_valid_alternative_fix_is_accepted() {
        let e = entry();
        // An alternative fix: q <= d | d (equivalent to q <= d).
        let alt = e.buggy_source.replace("q <= !d;", "q <= d | d;");
        let mut j = Judge::fast();
        assert!(
            j.effective(&e, &response(&alt)),
            "equivalent fix must count as effective"
        );
    }

    #[test]
    fn uncompilable_patch_is_rejected() {
        let e = entry();
        let mut j = Judge::fast();
        assert!(!j.effective(&e, &response("garbage")));
    }

    #[test]
    fn cache_hits_on_repeat() {
        let e = entry();
        let mut j = Judge::fast();
        let r = response(&e.buggy_source);
        let _ = j.effective(&e, &r);
        let _ = j.effective(&e, &r);
        assert_eq!(j.stats.0, 1, "second query must hit the cache");
        assert_eq!(j.stats.1, 1);
    }

    #[test]
    fn count_effective_counts() {
        let e = entry();
        let mut j = Judge::fast();
        let rs = vec![
            response(&e.golden_source),
            response(&e.buggy_source),
            response(&e.golden_source),
        ];
        assert_eq!(j.count_effective(&e, &rs), 2);
    }
}
