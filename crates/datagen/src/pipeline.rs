//! End-to-end data augmentation pipeline (paper Fig. 2-I) producing all
//! datasets: Verilog-PT, Verilog-Bug, SVA-Bug (train) and SVA-Eval
//! (machine + human).

use crate::corpus::CorpusGen;
use crate::cot::CotGen;
use crate::dataset::{split_by_module, SvaBugEntry, VerilogBugEntry, VerilogPtEntry};
use crate::human;
use crate::stage1::{self, RawItem};
use crate::stage2::Stage2;
use asv_serve::{ServeOptions, VerifyService};
use asv_sva::bmc::{Engine, Verifier};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Master seed; everything downstream derives from it.
    pub seed: u64,
    /// Number of corpus designs to generate.
    pub corpus_size: usize,
    /// One in `corrupt_every` designs additionally contributes a
    /// syntactically corrupted copy to the Stage-1 stream.
    pub corrupt_every: usize,
    /// Bugs sampled per design in Stage 2.
    pub bugs_per_design: usize,
    /// Fraction of module names (per length bin) kept for training.
    pub train_frac: f64,
    /// CoT error-channel rate (paper: 25.45% of chains invalid).
    pub cot_error_rate: f64,
    /// Verifier bounds shared by all validation steps.
    pub verifier: Verifier,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            seed: 0xDA7A_6E4E,
            corpus_size: 160,
            corrupt_every: 4,
            bugs_per_design: 8,
            train_frac: 0.9,
            cot_error_rate: 0.2545,
            verifier: Verifier {
                depth: 10,
                reset_cycles: 2,
                exhaustive_limit: 512,
                random_runs: 24,
                seed: 0xA55E_7501,
                engine: Engine::Auto,
            },
        }
    }
}

impl PipelineConfig {
    /// A small configuration for tests and examples (seconds, not minutes).
    pub fn quick() -> Self {
        PipelineConfig {
            corpus_size: 24,
            bugs_per_design: 4,
            verifier: Verifier {
                depth: 8,
                reset_cycles: 2,
                exhaustive_limit: 128,
                random_runs: 10,
                seed: 0xA55E_7501,
                engine: Engine::Auto,
            },
            ..Self::default()
        }
    }

    /// The configuration used to regenerate the paper's tables: sized so
    /// SVA-Eval lands near the paper's 915 instances.
    pub fn paper_scale() -> Self {
        PipelineConfig {
            corpus_size: 1300,
            ..Self::default()
        }
    }
}

/// Everything the pipeline produces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Datasets {
    /// Pretraining text (dataset (a)).
    pub verilog_pt: Vec<VerilogPtEntry>,
    /// Bugs below SVA coverage (dataset (b)).
    pub verilog_bug: Vec<VerilogBugEntry>,
    /// Assertion-failure training instances (dataset (c)), CoTs attached.
    pub sva_bug: Vec<SvaBugEntry>,
    /// Held-out machine-generated benchmark.
    pub sva_eval_machine: Vec<SvaBugEntry>,
    /// Hand-curated benchmark.
    pub sva_eval_human: Vec<SvaBugEntry>,
    /// Pipeline statistics for reporting.
    pub stats: PipelineStats,
}

impl Datasets {
    /// The full SVA-Eval benchmark (machine + human), as used by RQ1/RQ2.
    pub fn sva_eval(&self) -> Vec<SvaBugEntry> {
        let mut all = self.sva_eval_machine.clone();
        all.extend(self.sva_eval_human.clone());
        all
    }
}

/// Counters reported alongside the datasets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Designs generated.
    pub corpus: usize,
    /// Raw items entering Stage 1 (incl. corrupted and junk).
    pub raw_items: usize,
    /// Items dropped by the Stage-1 filter.
    pub filtered: usize,
    /// Compile failures recorded into Verilog-PT.
    pub compile_failures: usize,
    /// Injections discarded for syntax/elaboration errors.
    pub discarded_syntax: usize,
    /// CoT drafts that survived golden-solution validation.
    pub cot_kept: usize,
    /// CoT drafts generated in total.
    pub cot_drafted: usize,
}

/// Runs the full pipeline.
///
/// Verification-heavy stages submit batches to one shared
/// [`VerifyService`]: Stage 2 validates every golden design and confirms
/// every injected bug across the service's worker pool, with verdicts
/// memoised so the pipeline never re-verifies a design it has already
/// decided. Results are bit-identical to the historical sequential loop.
pub fn run(config: &PipelineConfig) -> Datasets {
    let service = VerifyService::new(ServeOptions::default());
    let gen = CorpusGen::new(config.seed);
    let designs = gen.generate(config.corpus_size);
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC0FF_EE00);

    // Stage 1 input: golden designs, some corrupted copies, and junk items
    // exercising the filter (as the scraped corpus would).
    let mut raw = Vec::new();
    for (i, d) in designs.iter().enumerate() {
        raw.push(RawItem {
            name: d.name.clone(),
            code: d.source.clone(),
            spec: d.spec.clone(),
        });
        if config.corrupt_every > 0 && i % config.corrupt_every == 0 {
            let (code, _note) = gen.corrupt(d, &mut rng);
            raw.push(RawItem {
                name: format!("{}_broken", d.name),
                code,
                spec: d.spec.clone(),
            });
        }
        if i % 10 == 0 {
            raw.push(RawItem {
                name: format!("junk_{i}"),
                code: "// snippet without a module\nassign y = a & b;".into(),
                spec: "not a module".into(),
            });
            raw.push(RawItem {
                name: format!("const_{i}"),
                code: format!("module const_{i}(output y); assign y = 1'b0; endmodule"),
                spec: "constant driver".into(),
            });
        }
    }
    let raw_items = raw.len();
    let s1 = stage1::run(raw);
    let compiled_names: std::collections::BTreeSet<&str> =
        s1.compiled.iter().map(|i| i.name.as_str()).collect();
    let surviving: Vec<_> = designs
        .iter()
        .filter(|d| compiled_names.contains(d.name.as_str()))
        .cloned()
        .collect();

    // Stage 2.
    let stage2 = Stage2 {
        bugs_per_design: config.bugs_per_design,
        seed: config.seed ^ 0x57A6_E002,
        verifier: config.verifier,
    };
    let s2 = stage2.run_with(&surviving, &service);

    // Train/test split on module names per length bin (the 90/10 rule).
    let split = split_by_module(s2.sva_bug, config.train_frac, config.seed ^ 0x5711);

    // Stage 3: CoTs for training entries only (the paper runs Stage 3 on
    // the 90% selected for training).
    let cot_gen = CotGen {
        error_rate: config.cot_error_rate,
    };
    let mut cot_rng = StdRng::seed_from_u64(config.seed ^ 0xC07);
    let mut train = split.train;
    let mut cot_kept = 0;
    for e in &mut train {
        e.cot = cot_gen.generate(e, &mut cot_rng);
        if e.cot.is_some() {
            cot_kept += 1;
        }
    }
    let cot_drafted = train.len();

    let human = human::sva_eval_human(&config.verifier, config.seed ^ 0x4A11);

    let stats = PipelineStats {
        corpus: designs.len(),
        raw_items,
        filtered: s1.dropped.len(),
        compile_failures: s1
            .verilog_pt
            .iter()
            .filter(|e| e.analysis.is_some())
            .count(),
        discarded_syntax: s2.discarded_syntax,
        cot_kept,
        cot_drafted,
    };
    Datasets {
        verilog_pt: s1.verilog_pt,
        verilog_bug: s2.verilog_bug,
        sva_bug: train,
        sva_eval_machine: split.test,
        sva_eval_human: human,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_pipeline_produces_all_datasets() {
        let ds = run(&PipelineConfig::quick());
        assert!(!ds.verilog_pt.is_empty(), "Verilog-PT empty");
        assert!(!ds.verilog_bug.is_empty(), "Verilog-Bug empty");
        assert!(!ds.sva_bug.is_empty(), "SVA-Bug empty");
        assert!(!ds.sva_eval_machine.is_empty(), "SVA-Eval-Machine empty");
        assert_eq!(ds.sva_eval_human.len(), 38);
        assert!(ds.stats.compile_failures > 0, "no PT failure entries");
        assert!(ds.stats.filtered > 0, "junk must be filtered");
    }

    #[test]
    fn train_and_eval_share_no_modules() {
        let ds = run(&PipelineConfig::quick());
        let train: std::collections::BTreeSet<_> =
            ds.sva_bug.iter().map(|e| e.module_name.as_str()).collect();
        let eval: std::collections::BTreeSet<_> = ds
            .sva_eval_machine
            .iter()
            .map(|e| e.module_name.as_str())
            .collect();
        assert!(train.is_disjoint(&eval));
    }

    #[test]
    fn cots_only_on_training_side_and_gated() {
        let ds = run(&PipelineConfig::quick());
        assert!(ds.sva_bug.iter().any(|e| e.cot.is_some()), "no CoTs kept");
        assert!(
            ds.sva_bug.iter().any(|e| e.cot.is_none()),
            "error channel should drop some CoTs"
        );
        assert!(ds.sva_eval_machine.iter().all(|e| e.cot.is_none()));
        assert!(ds.stats.cot_kept < ds.stats.cot_drafted);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let a = run(&PipelineConfig::quick());
        let b = run(&PipelineConfig::quick());
        assert_eq!(a, b);
    }
}
