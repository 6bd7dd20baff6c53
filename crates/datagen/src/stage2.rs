//! Stage 2: key-component generation and validation (paper Fig. 2-I).
//!
//! For each compiled design: (1) the embedded/mined SVAs are proven valid
//! on the golden code with the bounded verifier; (2) random bugs are drawn
//! from the mutation engine; (3) each bug is injected, re-compiled (syntax
//! errors introduced by generation are discarded, as in the paper) and
//! verified. Bugs that trip an assertion become SVA-Bug instances carrying
//! the verifier's failure logs; bugs that survive all assertions become
//! Verilog-Bug instances.
//!
//! Verification goes through the `asv-serve` job service in two batches —
//! all golden validations, then all injected-bug confirmations — so the
//! whole corpus fans out across worker threads while bug *sampling* stays
//! a sequential, seeded walk. Outputs are identical to the old one-design-
//! at-a-time loop: designs are processed in order, the RNG stream is
//! consumed per surviving design exactly as before, and every verdict is
//! deterministic in `(design, verifier)`.

use crate::corpus::GeneratedDesign;
use crate::dataset::{LengthBin, SvaBugEntry, VerilogBugEntry};
use asv_mutation::inject::{apply, classify_direct, enumerate, Injection};
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sva::bmc::{Verdict, Verifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Stage-2 configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Stage2 {
    /// Maximum bugs sampled per design.
    pub bugs_per_design: usize,
    /// Seed for bug sampling.
    pub seed: u64,
    /// Verifier used for both SVA validation and bug confirmation.
    pub verifier: Verifier,
}

impl Default for Stage2 {
    fn default() -> Self {
        Stage2 {
            bugs_per_design: 8,
            seed: 0x57A6_E002,
            verifier: Verifier::default(),
        }
    }
}

/// Output of Stage 2 for a corpus.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stage2Output {
    /// Assertion-failure instances (before the train/test split).
    pub sva_bug: Vec<SvaBugEntry>,
    /// Bugs not caught by any SVA.
    pub verilog_bug: Vec<VerilogBugEntry>,
    /// Designs whose golden SVAs failed validation (generator bugs; should
    /// stay empty).
    pub rejected_designs: Vec<String>,
    /// Injections discarded because the mutated code no longer compiles.
    pub discarded_syntax: usize,
}

impl Stage2 {
    /// Runs Stage 2 over compiled designs through an internally
    /// constructed [`VerifyService`] (all cores).
    pub fn run(&self, designs: &[GeneratedDesign]) -> Stage2Output {
        self.run_with(designs, &VerifyService::new(ServeOptions::default()))
    }

    /// Runs Stage 2, submitting every verification through `service`.
    ///
    /// Output-identical to the historical sequential loop for any worker
    /// count: batching changes wall time only.
    pub fn run_with(&self, designs: &[GeneratedDesign], service: &VerifyService) -> Stage2Output {
        let mut out = Stage2Output::default();
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Batch 1: golden SVA validation (SymbiYosys step 1) for every
        // design that compiles.
        let goldens: Vec<Option<std::sync::Arc<asv_verilog::Design>>> = designs
            .iter()
            .map(|gd| {
                asv_verilog::compile(&gd.source)
                    .ok()
                    .map(std::sync::Arc::new)
            })
            .collect();
        let golden_jobs: Vec<VerifyJob> = goldens
            .iter()
            .flatten()
            .map(|g| VerifyJob::new(std::sync::Arc::clone(g), self.verifier))
            .collect();
        let golden_verdicts = service.verify_batch(&golden_jobs);
        let mut verdict_iter = golden_verdicts.into_iter();
        let mut surviving: Vec<(&GeneratedDesign, &asv_verilog::Design)> = Vec::new();
        for (gd, golden) in designs.iter().zip(&goldens) {
            match golden {
                None => out.rejected_designs.push(gd.name.clone()),
                Some(g) => match verdict_iter.next().expect("one verdict per golden") {
                    Ok(Verdict::Holds { .. }) => surviving.push((gd, g.as_ref())),
                    _ => out.rejected_designs.push(gd.name.clone()),
                },
            }
        }

        // Sequential, seeded bug sampling (the RNG stream is consumed per
        // surviving design in corpus order, exactly like the old loop),
        // plus the compiler gate (SymbiYosys step 2 pre-check): bugs that
        // break elaboration are discarded, mirroring the paper's removal
        // of syntax errors introduced by generation.
        struct Candidate<'a> {
            gd: &'a GeneratedDesign,
            injection: Injection,
            class: asv_mutation::kinds::BugClass,
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut bug_jobs: Vec<VerifyJob> = Vec::new();
        for (gd, golden) in &surviving {
            let mut mutations = enumerate(golden);
            mutations.shuffle(&mut rng);
            mutations.truncate(self.bugs_per_design);
            for m in &mutations {
                let Ok(injection) = apply(golden, m) else {
                    continue;
                };
                let Ok(buggy) = asv_verilog::compile(&injection.buggy_source) else {
                    out.discarded_syntax += 1;
                    continue;
                };
                let mut class = m.class;
                class.direct = classify_direct(golden, m);
                bug_jobs.push(VerifyJob::new(buggy, self.verifier));
                candidates.push(Candidate {
                    gd,
                    injection,
                    class,
                });
            }
        }

        // Batch 2: confirm every injected bug, then fold the verdicts
        // back in (design, mutation) order.
        for (candidate, verdict) in candidates.iter().zip(service.verify_batch(&bug_jobs)) {
            let injection = &candidate.injection;
            match verdict {
                Ok(Verdict::Fails(cex)) => {
                    out.sva_bug.push(SvaBugEntry {
                        module_name: candidate.gd.name.clone(),
                        spec: candidate.gd.spec.clone(),
                        length_bin: LengthBin::of_lines(injection.buggy_source.lines().count()),
                        buggy_source: injection.buggy_source.clone(),
                        golden_source: injection.golden_source.clone(),
                        logs: cex.logs.clone(),
                        line_no: injection.line_no,
                        buggy_line: injection.buggy_line.clone(),
                        fixed_line: injection.fixed_line.clone(),
                        class: candidate.class,
                        cot: None,
                    });
                }
                Ok(Verdict::Holds { .. }) => {
                    // Functional bug below SVA coverage: Verilog-Bug.
                    out.verilog_bug.push(VerilogBugEntry {
                        module_name: candidate.gd.name.clone(),
                        spec: candidate.gd.spec.clone(),
                        buggy_source: injection.buggy_source.clone(),
                        line_no: injection.line_no,
                        buggy_line: injection.buggy_line.clone(),
                        fixed_line: injection.fixed_line.clone(),
                    });
                }
                _ => {
                    // Simulation divergence (e.g. a mutation created a
                    // combinational loop): treat like a syntax reject.
                    out.discarded_syntax += 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusGen;
    use asv_mutation::BugCategory;

    fn small_verifier() -> Verifier {
        Verifier {
            depth: 8,
            random_runs: 12,
            exhaustive_limit: 256,
            ..Verifier::default()
        }
    }

    #[test]
    fn produces_both_dataset_kinds() {
        let designs = CorpusGen::new(21).generate(12);
        let stage2 = Stage2 {
            bugs_per_design: 6,
            seed: 1,
            verifier: small_verifier(),
        };
        let out = stage2.run(&designs);
        assert!(
            out.rejected_designs.is_empty(),
            "{:?}",
            out.rejected_designs
        );
        assert!(
            out.sva_bug.len() >= 10,
            "too few SVA-Bug instances: {}",
            out.sva_bug.len()
        );
        // Some bugs escape SVA coverage (the Verilog-Bug stream).
        assert!(!out.verilog_bug.is_empty(), "expected uncaught bugs");
    }

    #[test]
    fn batched_output_is_identical_across_worker_counts() {
        let designs = CorpusGen::new(24).generate(8);
        let stage2 = Stage2 {
            bugs_per_design: 4,
            seed: 7,
            verifier: small_verifier(),
        };
        let reference = stage2.run_with(&designs, &VerifyService::with_workers(1));
        for workers in [2, 8] {
            let out = stage2.run_with(&designs, &VerifyService::with_workers(workers));
            assert_eq!(
                out, reference,
                "worker count {workers} changed Stage 2 output"
            );
        }
        assert_eq!(stage2.run(&designs), reference, "default service agrees");
    }

    #[test]
    fn sva_bug_entries_are_well_formed() {
        let designs = CorpusGen::new(22).generate(6);
        let out = Stage2 {
            bugs_per_design: 5,
            seed: 2,
            verifier: small_verifier(),
        }
        .run(&designs);
        for e in &out.sva_bug {
            assert!(!e.logs.is_empty(), "logs required");
            assert!(e.logs[0].contains("failed assertion"));
            assert_ne!(e.buggy_line, e.fixed_line);
            assert!(e.class.direct.is_some(), "direct classification required");
            // The recorded line number must point at the buggy line.
            let line = e
                .buggy_source
                .lines()
                .nth(e.line_no as usize - 1)
                .expect("line in range");
            assert_eq!(line.trim(), e.buggy_line);
            // The golden fix differs from the buggy source at that line.
            let gline = e
                .golden_source
                .lines()
                .nth(e.line_no as usize - 1)
                .expect("line in range");
            assert_eq!(gline.trim(), e.fixed_line);
        }
    }

    #[test]
    fn direct_and_indirect_both_occur() {
        let designs = CorpusGen::new(23).generate(12);
        let out = Stage2 {
            bugs_per_design: 8,
            seed: 3,
            verifier: small_verifier(),
        }
        .run(&designs);
        let direct = out
            .sva_bug
            .iter()
            .filter(|e| e.class.is(BugCategory::Direct))
            .count();
        let indirect = out
            .sva_bug
            .iter()
            .filter(|e| e.class.is(BugCategory::Indirect))
            .count();
        assert!(direct > 0, "no Direct bugs");
        assert!(indirect > 0, "no Indirect bugs");
    }

    #[test]
    fn stage2_is_deterministic() {
        let designs = CorpusGen::new(24).generate(4);
        let cfg = Stage2 {
            bugs_per_design: 4,
            seed: 9,
            verifier: small_verifier(),
        };
        assert_eq!(cfg.run(&designs), cfg.run(&designs));
    }
}
