//! Benchmark runner: drives a repair engine over SVA-Eval and aggregates
//! pass@k, per-category and per-length-bin results.
//!
//! Verification — the dominant cost of the `n = 20` pass@k protocol —
//! is submitted through the `asv-serve` job service: every candidate
//! patch of every case becomes one [`VerifyJob`], the whole benchmark
//! fans out across the service's workers, and repeated candidates (the
//! 20 samples repeat patches heavily, and wrong patches repeat *across*
//! cases) are deduplicated by job key and answered from the sharded
//! verdict memo. Verdicts are bit-identical to the sequential
//! [`Judge`] path — [`evaluate_sequential`] remains as the reference
//! oracle and the test suite asserts equality.

use crate::judge::Judge;
use crate::passk::mean_pass_at_k;
use assertsolver_core::{RepairEngine, RepairTask};
use asv_datagen::dataset::{LengthBin, SvaBugEntry};
use asv_mutation::BugCategory;
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sim::pool;
use asv_sva::bmc::Verifier;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Evaluation protocol parameters (paper: n = 20, k ∈ {1, 5}, temp 0.2).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Samples per case.
    pub n: usize,
    /// Base seed; each case uses `seed + case index`.
    pub seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            n: 20,
            seed: 0xE7A1_0001,
        }
    }
}

/// One benchmark case annotated with provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// The underlying entry.
    pub entry: SvaBugEntry,
    /// True for SVA-Eval-Human cases.
    pub human: bool,
}

/// Builds the combined benchmark from machine and human entries.
pub fn benchmark(machine: &[SvaBugEntry], human: &[SvaBugEntry]) -> Vec<BenchCase> {
    let mut out: Vec<BenchCase> = machine
        .iter()
        .cloned()
        .map(|entry| BenchCase {
            entry,
            human: false,
        })
        .collect();
    out.extend(
        human
            .iter()
            .cloned()
            .map(|entry| BenchCase { entry, human: true }),
    );
    out
}

/// Per-case outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Module name.
    pub module: String,
    /// Table I categories of the injected bug.
    pub categories: Vec<BugCategory>,
    /// Code-length bin.
    pub bin: LengthBin,
    /// Human-curated case?
    pub human: bool,
    /// Number of effective responses.
    pub c: usize,
    /// Number of responses requested.
    pub n: usize,
}

/// A full evaluation of one engine over the benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRun {
    /// Engine display name.
    pub engine: String,
    /// Per-case outcomes, in benchmark order.
    pub cases: Vec<CaseResult>,
}

impl EvalRun {
    /// pass@k over all cases.
    pub fn pass_at(&self, k: usize) -> f64 {
        mean_pass_at_k(self.cases.iter().map(|c| (c.n, c.c)), k)
    }

    /// pass@k over cases matching a predicate.
    pub fn pass_at_where<F: Fn(&CaseResult) -> bool>(&self, k: usize, pred: F) -> f64 {
        mean_pass_at_k(self.cases.iter().filter(|c| pred(c)).map(|c| (c.n, c.c)), k)
    }

    /// pass@k restricted to a bug category.
    pub fn pass_at_category(&self, k: usize, cat: BugCategory) -> f64 {
        self.pass_at_where(k, |c| c.categories.contains(&cat))
    }

    /// pass@k restricted to a length bin.
    pub fn pass_at_bin(&self, k: usize, bin: LengthBin) -> f64 {
        self.pass_at_where(k, |c| c.bin == bin)
    }

    /// pass@k over the machine/human subset.
    pub fn pass_at_subset(&self, k: usize, human: bool) -> f64 {
        self.pass_at_where(k, |c| c.human == human)
    }

    /// Histogram of `c` (correct-out-of-n) — the paper's Fig. 3 series.
    /// Index `i` counts cases with exactly `i` effective responses.
    pub fn histogram(&self) -> Vec<usize> {
        let n = self.cases.iter().map(|c| c.n).max().unwrap_or(0);
        let mut h = vec![0usize; n + 1];
        for c in &self.cases {
            h[c.c] += 1;
        }
        h
    }
}

/// Evaluates one engine over the benchmark, fanning verification out
/// across an internally constructed [`VerifyService`] (all cores).
///
/// Deterministic in `(engine, benchmark, config)`: each case derives its
/// sampling seed from the config seed and the case index, and the
/// service's verdict vector is a pure function of the submitted jobs.
/// `judge` supplies the verification bounds; its verdicts are
/// reproduced exactly (see [`evaluate_sequential`]).
pub fn evaluate(
    engine: &dyn RepairEngine,
    benchmark: &[BenchCase],
    config: &EvalConfig,
    judge: &mut Judge,
) -> EvalRun {
    let service = VerifyService::new(ServeOptions::default());
    evaluate_with_service(engine, benchmark, config, judge.verifier(), &service)
}

/// The pre-serve sequential reference: one [`Judge`] call per response.
/// Kept as the oracle the batched path is differential-tested against.
pub fn evaluate_sequential(
    engine: &dyn RepairEngine,
    benchmark: &[BenchCase],
    config: &EvalConfig,
    judge: &mut Judge,
) -> EvalRun {
    let mut cases = Vec::with_capacity(benchmark.len());
    for (i, bc) in benchmark.iter().enumerate() {
        let task = RepairTask::from(&bc.entry);
        let responses = engine.respond(&task, config.n, config.seed.wrapping_add(i as u64));
        let c = judge.count_effective(&bc.entry, &responses);
        cases.push(CaseResult {
            module: bc.entry.module_name.clone(),
            categories: bc.entry.class.categories(),
            bin: bc.entry.length_bin,
            human: bc.human,
            c,
            n: config.n,
        });
    }
    EvalRun {
        engine: engine.name().to_string(),
        cases,
    }
}

/// How one response of one case resolves to effective/ineffective.
enum Resolution {
    /// Textual golden match: effective with no verification.
    Golden,
    /// Does not compile: ineffective with no verification.
    NoCompile,
    /// Awaiting the service verdict for the job at this index.
    Pending(usize),
}

/// Evaluates one engine, submitting every verification through `service`.
///
/// Reproduces the [`Judge`] semantics exactly: a response is effective
/// iff it textually matches the golden source, or it compiles and every
/// assertion of the patched design holds non-vacuously under
/// `verifier`'s bounds. The cases' responses are sampled in parallel on
/// every core ([`asv_sim::pool::map`], so `engine.respond` must not start
/// a pool of its own), and all candidate patches of the whole benchmark
/// are submitted as **one batch**, so the `n = 20` pass@k protocol fans
/// out across the service's workers and repeated candidates verify once.
pub fn evaluate_with_service(
    engine: &dyn RepairEngine,
    benchmark: &[BenchCase],
    config: &EvalConfig,
    verifier: Verifier,
    service: &VerifyService,
) -> EvalRun {
    // Phase 1: sample every case's responses in parallel on every core
    // (each case seeds from its index, so the samples do not depend on
    // scheduling). Then compile each case's distinct patched sources
    // once, and turn every non-trivial response into a job: a repeated
    // source submits a clone of its first job, so the service sees one
    // submission per response, exactly as if each had been compiled.
    let indices: Vec<usize> = (0..benchmark.len()).collect();
    let sampled = pool::map(&indices, pool::cores(), |&i| {
        let task = RepairTask::from(&benchmark[i].entry);
        engine.respond(&task, config.n, config.seed.wrapping_add(i as u64))
    });
    let mut jobs: Vec<VerifyJob> = Vec::new();
    let mut per_case: Vec<Vec<Resolution>> = Vec::with_capacity(benchmark.len());
    for (bc, responses) in benchmark.iter().zip(&sampled) {
        // Index of the first job of each distinct source compiled so far
        // (`None`: it did not compile).
        let mut first_job: HashMap<&str, Option<usize>> = HashMap::new();
        let mut resolutions = Vec::with_capacity(responses.len());
        for r in responses {
            if r.patched_source == bc.entry.golden_source {
                resolutions.push(Resolution::Golden);
                continue;
            }
            let job = match first_job.get(r.patched_source.as_str()) {
                Some(first) => first.map(|j| jobs[j].clone()),
                None => {
                    let job = asv_verilog::compile(&r.patched_source)
                        .ok()
                        .map(|design| VerifyJob::new(design, verifier));
                    first_job.insert(&r.patched_source, job.as_ref().map(|_| jobs.len()));
                    job
                }
            };
            resolutions.push(match job {
                Some(job) => {
                    jobs.push(job);
                    Resolution::Pending(jobs.len() - 1)
                }
                None => Resolution::NoCompile,
            });
        }
        per_case.push(resolutions);
    }
    // Phase 2: one batch across the service's worker pool (deduplicated
    // by job key, memoised across calls).
    let verdicts = service.verify_batch(&jobs);
    // Phase 3: fold verdicts back into per-case effective counts.
    let mut cases = Vec::with_capacity(benchmark.len());
    for (bc, resolutions) in benchmark.iter().zip(per_case) {
        let c = resolutions
            .iter()
            .filter(|res| match res {
                Resolution::Golden => true,
                Resolution::NoCompile => false,
                // A patch counts only when *every* assertion holds
                // non-vacuously — silencing the failing property by
                // making its antecedent unreachable does not solve it.
                Resolution::Pending(j) => {
                    matches!(&verdicts[*j], Ok(v) if v.holds_non_vacuously())
                }
            })
            .count();
        cases.push(CaseResult {
            module: bc.entry.module_name.clone(),
            categories: bc.entry.class.categories(),
            bin: bc.entry.length_bin,
            human: bc.human,
            c,
            n: config.n,
        });
    }
    EvalRun {
        engine: engine.name().to_string(),
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use assertsolver_core::prelude::*;
    use asv_datagen::pipeline::{run as run_pipeline, PipelineConfig};

    fn small_eval() -> (Vec<BenchCase>, EvalConfig) {
        let ds = run_pipeline(&PipelineConfig::quick());
        let bench: Vec<BenchCase> = benchmark(&ds.sva_eval_machine, &ds.sva_eval_human)
            .into_iter()
            .take(12)
            .collect();
        (bench, EvalConfig { n: 10, seed: 1 })
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let a = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        let b = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        assert_eq!(a, b);
    }

    #[test]
    fn service_path_matches_the_sequential_judge() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let sequential = evaluate_sequential(&engine, &bench, &cfg, &mut Judge::fast());
        let batched = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        assert_eq!(
            batched, sequential,
            "service-batched evaluation must reproduce the judge verdicts"
        );
        // And across worker counts, including single-threaded.
        for workers in [1, 8] {
            let service = VerifyService::with_workers(workers);
            let run =
                evaluate_with_service(&engine, &bench, &cfg, Judge::fast().verifier(), &service);
            assert_eq!(run, sequential, "worker count {workers} changed results");
        }
    }

    #[test]
    fn evaluation_and_service_stats_are_pinned() {
        // Pinned when every response was compiled on its own: compiling
        // each case's distinct sources once must submit the same jobs.
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let service = VerifyService::default();
        let run = evaluate_with_service(&engine, &bench, &cfg, Judge::fast().verifier(), &service);
        let per_case: Vec<(&str, usize)> =
            run.cases.iter().map(|c| (c.module.as_str(), c.c)).collect();
        assert_eq!(
            per_case,
            vec![
                ("pwm_9", 0),
                ("pwm_21", 2),
                ("pwm_21", 2),
                ("handshake_23", 0),
                ("clkdiv3", 0),
                ("clkdiv3", 0),
                ("clkdiv3", 0),
                ("clkdiv3", 1),
                ("debounce", 1),
                ("debounce", 0),
                ("debounce", 3),
                ("debounce", 0),
            ],
            "per-case results moved"
        );
        let stats = service.stats();
        assert_eq!(
            (
                stats.submitted,
                stats.deduped,
                stats.memo_hits,
                stats.executed
            ),
            (113, 29, 0, 84),
            "submitted, deduped, memo hits, executed"
        );
    }

    #[test]
    fn repeated_evaluation_hits_the_verdict_memo() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let service = VerifyService::with_workers(2);
        let verifier = Judge::fast().verifier();
        let a = evaluate_with_service(&engine, &bench, &cfg, verifier, &service);
        let executed_cold = service.stats().executed;
        let b = evaluate_with_service(&engine, &bench, &cfg, verifier, &service);
        assert_eq!(a, b);
        assert_eq!(
            service.stats().executed,
            executed_cold,
            "re-evaluation must be answered entirely from the verdict memo"
        );
    }

    #[test]
    fn results_cover_every_case() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let run = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        assert_eq!(run.cases.len(), bench.len());
        for c in &run.cases {
            assert!(c.c <= c.n);
            assert!(!c.categories.is_empty());
        }
    }

    #[test]
    fn histogram_sums_to_case_count() {
        let (bench, cfg) = small_eval();
        let engine = Solver::new(base_model(&[]));
        let run = evaluate(&engine, &bench, &cfg, &mut Judge::fast());
        let h = run.histogram();
        assert_eq!(h.iter().sum::<usize>(), run.cases.len());
        assert_eq!(h.len(), cfg.n + 1);
    }

    #[test]
    fn pass_at_filters_work() {
        let run = EvalRun {
            engine: "t".into(),
            cases: vec![
                CaseResult {
                    module: "a".into(),
                    categories: vec![BugCategory::Direct, BugCategory::Op],
                    bin: LengthBin::B50,
                    human: false,
                    c: 10,
                    n: 10,
                },
                CaseResult {
                    module: "b".into(),
                    categories: vec![BugCategory::Indirect, BugCategory::Var],
                    bin: LengthBin::B100,
                    human: true,
                    c: 0,
                    n: 10,
                },
            ],
        };
        assert_eq!(run.pass_at(1), 0.5);
        assert_eq!(run.pass_at_category(1, BugCategory::Direct), 1.0);
        assert_eq!(run.pass_at_category(1, BugCategory::Var), 0.0);
        assert_eq!(run.pass_at_bin(1, LengthBin::B50), 1.0);
        assert_eq!(run.pass_at_subset(1, true), 0.0);
        assert_eq!(run.pass_at_subset(1, false), 1.0);
    }
}
