//! The coverage-guided fuzzing loop.
//!
//! Rounds alternate between a seeded *scheduler* (parent selection,
//! mutation, dedup — cheap) and an *executor* (the simulations — the
//! cost) that runs the round's lane groups in stimulus-index order on the
//! calling thread. Results are merged in that order and the corpus is
//! updated as they arrive, so a campaign is a pure function of
//! `(design, options)`. Parallelism is across campaigns: the verification
//! service runs each job on one of its workers.

use crate::corpus::Corpus;
use crate::mutate::Mutator;
use asv_sim::cancel::{Budget, Exhausted};
use asv_sim::compile::CompiledDesign;
use asv_sim::cover::{CovMap, CoverageReport};
use asv_sim::exec::{SimError, Simulator};
use asv_sim::interp::AstSimulator;
use asv_sim::run_stimulus_group;
use asv_sim::stimulus::{Stimulus, StimulusGen};
use asv_sim::trace::Trace;
use asv_trace::{probe, Cost, SpanKind, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// Assertion evaluation plugged in by the caller (the SVA layer), keeping
/// property semantics out of this crate.
pub trait AssertionOracle {
    /// Number of assertion directives (sizes the antecedent coverage
    /// axis).
    fn assertions(&self) -> usize;

    /// Judges one trace, recording antecedent-fired events into `cov`.
    /// Returns `true` when any assertion failed on the trace.
    ///
    /// # Errors
    ///
    /// Returns a rendered monitor error (treated as fatal by the engine).
    fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String>;
}

/// Fuzzing campaign configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzOptions {
    /// Post-reset cycles per run.
    pub cycles: usize,
    /// Reset cycles at the head of every run.
    pub reset_cycles: usize,
    /// Total execution budget (number of simulated stimuli).
    pub budget: usize,
    /// Campaign seed; equal seeds reproduce the campaign exactly.
    pub seed: u64,
    /// Executions scheduled per round (scheduling granularity).
    pub batch: usize,
    /// Simulation lanes per bytecode pass (`asv_sim::LaneBatch`
    /// widths 8/16/32; anything else — including 1, the differential
    /// configuration — runs one single-lane batch per stimulus). Results
    /// are bit-identical at every setting; only throughput changes.
    pub lanes: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            cycles: 12,
            reset_cycles: 2,
            budget: 256,
            seed: 0xF0_77E12,
            batch: 16,
            lanes: 16,
        }
    }
}

/// Outcome of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzVerdict {
    /// An assertion-violating stimulus was found (and replayed on the
    /// interpreter oracle).
    Failure {
        /// The violating stimulus.
        stimulus: Stimulus,
        /// Zero-based index of the violating run within the campaign.
        run_index: usize,
    },
    /// The budget was exhausted without a violation.
    NoFailure,
}

/// Result of a fuzzing campaign.
#[derive(Debug, Clone)]
pub struct FuzzResult {
    /// Failure or budget exhaustion.
    pub verdict: FuzzVerdict,
    /// Coverage accumulated over every merged run.
    pub coverage: CovMap,
    /// Percentage summary of `coverage`.
    pub report: CoverageReport,
    /// Stimuli actually executed and merged.
    pub runs: usize,
    /// Coverage-increasing stimuli retained.
    pub corpus_size: usize,
    /// Order-sensitive corpus fingerprint (determinism checks).
    pub corpus_fingerprint: u64,
}

/// Errors raised by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuzzError {
    /// A stimulus failed to simulate (e.g. input-dependent combinational
    /// divergence).
    Sim(SimError),
    /// The assertion oracle failed (rendered monitor error).
    Oracle(String),
    /// A failing stimulus did not replay bit-identically on the
    /// interpreter oracle — a simulator bug, never a design property.
    OracleDivergence,
    /// A [`Budget`] fault probe injected an exhaustion before a verdict.
    Exhausted(Exhausted),
}

impl fmt::Display for FuzzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzError::Sim(e) => write!(f, "simulation error: {e}"),
            FuzzError::Oracle(m) => write!(f, "assertion oracle error: {m}"),
            FuzzError::OracleDivergence => {
                write!(f, "failure did not replay on the interpreter oracle")
            }
            FuzzError::Exhausted(e) => write!(f, "fuzzing campaign {e}"),
        }
    }
}

impl std::error::Error for FuzzError {}

impl From<SimError> for FuzzError {
    fn from(e: SimError) -> Self {
        FuzzError::Sim(e)
    }
}

impl From<Exhausted> for FuzzError {
    fn from(e: Exhausted) -> Self {
        FuzzError::Exhausted(e)
    }
}

/// Judges one completed run, returning its coverage map and whether an
/// assertion failed.
fn judge<O: AssertionOracle>(
    oracle: &O,
    run: asv_sim::LaneRun,
) -> Result<(CovMap, bool), FuzzError> {
    let mut cov = run.coverage.expect("coverage was enabled");
    let failed = oracle
        .failed(&run.trace, &mut cov)
        .map_err(FuzzError::Oracle)?;
    Ok((cov, failed))
}

/// Replays `stim` on both backends and demands bit-identical traces: a
/// reported failure must be a property of the design, not an artefact of
/// the compiled simulator.
fn replay_on_interpreter(compiled: &Arc<CompiledDesign>, stim: &Stimulus) -> Result<(), FuzzError> {
    let mut csim = Simulator::from_compiled(Arc::clone(compiled));
    let mut isim = AstSimulator::new(compiled.design());
    for t in 0..stim.len() {
        csim.step(&stim.cycle(t))?;
        isim.step(&stim.cycle(t))?;
    }
    if csim.into_trace() == isim.into_trace() {
        Ok(())
    } else {
        Err(FuzzError::OracleDivergence)
    }
}

/// Per-stimulus execution outcome: the run's coverage map and whether an
/// assertion failed.
type RunOutcome = Result<(CovMap, bool), FuzzError>;

/// Executes a round's `batch` in lane groups, returning per-stimulus
/// results in index order up to and including the first failure or
/// error — later indices cannot affect the round.
fn run_chunk<O: AssertionOracle>(
    compiled: &Arc<CompiledDesign>,
    oracle: &O,
    batch: &[Stimulus],
    lanes: usize,
) -> Vec<RunOutcome> {
    let mut out = Vec::with_capacity(batch.len());
    for group in batch.chunks(lanes.max(1)) {
        // The whole group simulates together; results are still judged
        // and reported in index order, and everything after the batch's
        // first failure/error is dropped — exactly what a one-at-a-time
        // loop produces.
        for outcome in run_stimulus_group(compiled, group, lanes, Some(oracle.assertions()), false)
        {
            let r = match outcome {
                Ok(run) => judge(oracle, run),
                Err(e) => Err(e.into()),
            };
            let stop = matches!(&r, Err(_) | Ok((_, true)));
            out.push(r);
            if stop {
                return out;
            }
        }
    }
    out
}

/// Runs a coverage-guided fuzzing campaign against `compiled`.
///
/// Deterministic from [`FuzzOptions::seed`]. A found failure is always
/// replayed on the [`AstSimulator`] interpreter oracle before it is
/// reported.
///
/// # Errors
///
/// Returns [`FuzzError`] on simulation failures, oracle failures, or a
/// failure that does not replay on the interpreter — always the
/// lowest-index event of the campaign.
pub fn fuzz<O: AssertionOracle>(
    compiled: &Arc<CompiledDesign>,
    oracle: &O,
    opts: &FuzzOptions,
) -> Result<FuzzResult, FuzzError> {
    fuzz_budgeted(compiled, oracle, opts, &Budget::unbounded())
}

/// [`fuzz`] under a [`Budget`]: spans go to its trace handle, and its
/// fault probe runs before every round.
///
/// # Errors
///
/// As [`fuzz`], plus [`FuzzError::Exhausted`] when a fault probe fires
/// an exhaustion.
pub fn fuzz_budgeted<O: AssertionOracle>(
    compiled: &Arc<CompiledDesign>,
    oracle: &O,
    opts: &FuzzOptions,
    budget: &Budget,
) -> Result<FuzzResult, FuzzError> {
    let gen = StimulusGen::new(compiled.design());
    let mutator = Mutator::new(compiled, opts.reset_cycles);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut corpus = Corpus::new();
    let mut coverage = CovMap::new(compiled, oracle.assertions());
    let batch_size = opts.batch.max(1);
    let mut runs = 0usize;
    let mut rounds = 0u64;
    let mut verdict = FuzzVerdict::NoFailure;

    let sink = budget.trace().clone();
    'campaign: while runs < opts.budget {
        budget.probe(probe::FUZZ_ROUND)?;
        rounds += 1;
        // Cost accrues incrementally so the span stays honest on every
        // exit path (verdict, error) via its drop guard.
        let mut round_span = sink.span(probe::FUZZ_ROUND, SpanKind::FuzzRound);
        round_span.set_code(rounds);
        round_span.add_cost(Cost {
            rounds: 1,
            ..Cost::default()
        });
        let n = batch_size.min(opts.budget - runs);
        let batch = schedule(&gen, &mutator, &mut corpus, &mut rng, n, opts);
        if opts.lanes > 1 {
            let batches = (batch.len().div_ceil(opts.lanes)) as u64;
            sink.instant(
                probe::SIM_BATCH,
                SpanKind::Batch,
                0,
                Cost {
                    batches,
                    lanes_occupied: batch.len() as u64,
                    lanes_total: batches * opts.lanes as u64,
                    ..Cost::default()
                },
            );
        }
        let results = run_chunk(compiled, oracle, &batch, opts.lanes);
        for (stim, result) in batch.iter().zip(results) {
            let (cov, failed) = result?;
            let new_points = coverage.merge(&cov);
            runs += 1;
            round_span.add_cost(Cost {
                stimuli: 1,
                ..Cost::default()
            });
            if failed {
                replay_on_interpreter(compiled, stim)?;
                verdict = FuzzVerdict::Failure {
                    stimulus: stim.clone(),
                    run_index: runs - 1,
                };
                break 'campaign;
            }
            if new_points > 0 {
                corpus.add(stim.clone(), new_points);
            }
        }
    }

    Ok(FuzzResult {
        report: CoverageReport::of(&coverage),
        verdict,
        runs,
        corpus_size: corpus.len(),
        corpus_fingerprint: corpus.fingerprint(),
        coverage,
    })
}

/// Produces one round's candidate stimuli: seeded randoms while the corpus
/// is empty (plus a standing exploration share), energy-weighted parents
/// with mutation and occasional crossover afterwards, deduplicated
/// against everything scheduled so far.
fn schedule(
    gen: &StimulusGen,
    mutator: &Mutator,
    corpus: &mut Corpus,
    rng: &mut StdRng,
    n: usize,
    opts: &FuzzOptions,
) -> Vec<Stimulus> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut stim = if corpus.is_empty() || rng.gen::<u64>() % 8 == 0 {
            gen.random(opts.cycles, opts.reset_cycles, rng)
        } else {
            let mut child = if corpus.len() >= 2 && rng.gen::<u64>() % 4 == 0 {
                let a = corpus.pick(rng).clone();
                let b = corpus.pick(rng).clone();
                mutator.crossover(&a, &b, rng)
            } else {
                corpus.pick(rng).clone()
            };
            mutator.mutate(&mut child, rng);
            child
        };
        for _ in 0..3 {
            if corpus.note(&stim) {
                break;
            }
            // Already scheduled once: push the child further out.
            mutator.mutate(&mut stim, rng);
        }
        out.push(stim);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An oracle for tests that flags a failure whenever the named signal
    /// samples 1 after reset.
    struct SignalHigh {
        col: usize,
    }

    impl AssertionOracle for SignalHigh {
        fn assertions(&self) -> usize {
            1
        }
        fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String> {
            cov.record_antecedent(0);
            Ok((0..trace.len()).any(|t| trace.get(t, self.col).is_truthy()))
        }
    }

    const RARE: &str = "module r(input clk, input rst_n, input [7:0] a, output reg hit);\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) hit <= 1'b0; else hit <= (a == 8'hA5);\n\
         end\nendmodule";

    fn compiled(src: &str) -> Arc<CompiledDesign> {
        Arc::new(CompiledDesign::compile(
            &asv_verilog::compile(src).expect("compile"),
        ))
    }

    fn rare_oracle(cd: &Arc<CompiledDesign>) -> SignalHigh {
        SignalHigh {
            col: cd.sig("hit").expect("hit").idx(),
        }
    }

    #[test]
    fn dictionary_guided_fuzzing_hits_the_magic_value() {
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let opts = FuzzOptions {
            budget: 512,
            seed: 11,
            ..FuzzOptions::default()
        };
        let res = fuzz(&cd, &oracle, &opts).expect("fuzz");
        let FuzzVerdict::Failure { stimulus, .. } = res.verdict else {
            panic!("dictionary mutation must find a == 8'hA5 within budget");
        };
        assert!(
            stimulus
                .vectors
                .iter()
                .any(|v| v.iter().any(|(n, x)| n == "a" && *x == 0xA5)),
            "the failing stimulus must contain the trigger"
        );
    }

    #[test]
    fn campaign_results_are_pinned() {
        // The round schedule and the in-order merge decide every field
        // below: a change to either moves them. Pin one campaign that
        // ends in a failure as the canary.
        let cd = compiled(RARE);
        let opts = FuzzOptions {
            budget: 96,
            seed: 3,
            ..FuzzOptions::default()
        };
        let res = fuzz(&cd, &rare_oracle(&cd), &opts).expect("fuzz");
        let a = [0, 0, 255, 159, 70, 57, 1, 194, 237, 195, 9, 182, 165, 141];
        let stimulus = Stimulus {
            vectors: a
                .iter()
                .enumerate()
                .map(|(t, &a)| {
                    vec![
                        ("rst_n".to_string(), u64::from(t >= 2)),
                        ("a".to_string(), a),
                    ]
                })
                .collect(),
            reset_cycles: 2,
        };
        assert_eq!(
            res.verdict,
            FuzzVerdict::Failure {
                stimulus,
                run_index: 18
            }
        );
        assert_eq!(res.runs, 19);
        assert_eq!(res.corpus_size, 1);
        assert_eq!(res.corpus_fingerprint, 0x0de6_d69d_9645_bdc8);
    }

    #[test]
    fn campaign_is_deterministic_across_lane_widths() {
        let cd = compiled(RARE);
        let oracle = rare_oracle(&cd);
        let base = FuzzOptions {
            budget: 96,
            seed: 3,
            ..FuzzOptions::default()
        };
        let single = fuzz(&cd, &oracle, &FuzzOptions { lanes: 1, ..base }).expect("lanes=1");
        for lanes in [8, 16, 32] {
            let batched = fuzz(&cd, &oracle, &FuzzOptions { lanes, ..base })
                .unwrap_or_else(|e| panic!("lanes={lanes}: {e}"));
            assert_eq!(single.verdict, batched.verdict, "lanes={lanes}");
            assert_eq!(single.runs, batched.runs, "lanes={lanes}");
            assert_eq!(single.coverage, batched.coverage, "lanes={lanes}");
            assert_eq!(
                single.corpus_fingerprint, batched.corpus_fingerprint,
                "lanes={lanes}"
            );
        }
    }

    #[test]
    fn no_failure_reports_coverage_and_exhausted_budget() {
        let cd = compiled(
            "module ok(input clk, input rst_n, input [3:0] a, output reg [3:0] q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 4'd0; else q <= a;\n\
             end\nendmodule",
        );
        struct Never;
        impl AssertionOracle for Never {
            fn assertions(&self) -> usize {
                0
            }
            fn failed(&self, _: &Trace, _: &mut CovMap) -> Result<bool, String> {
                Ok(false)
            }
        }
        let opts = FuzzOptions {
            budget: 40,
            seed: 1,
            ..FuzzOptions::default()
        };
        let res = fuzz(&cd, &Never, &opts).expect("fuzz");
        assert_eq!(res.verdict, FuzzVerdict::NoFailure);
        assert_eq!(res.runs, 40);
        assert!(res.report.toggle_pct() > 50.0, "got {}", res.report);
        assert!(res.corpus_size >= 1, "coverage-increasing runs retained");
    }
}
