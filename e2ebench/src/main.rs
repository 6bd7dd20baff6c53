//! End-to-end benchmark of the AssertSolver reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <candidate_prep|judge_cold|judge_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop with one client: it submits one pass of
//! candidate preparation or of judging, waits for it, and repeats until
//! `--seconds` of measured time have passed. All load comes from this
//! process; the verification service gets one worker per core. End-to-end
//! times are reported in reference seconds (see `floors.rs`).
//!
//! `--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
//! is a separate run that times each layer from outside, around its public
//! calls, and drains the spans the verification crates already emit. The
//! report text comes first on stdout; the last line is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. Workload
//! rationale, metric definitions and the layer-to-metric mapping are in
//! README.md next to this package.

mod floors;
mod judge;
mod layers;
mod paper;

use asv_datagen::PipelineConfig;
use asv_serve::{JobOutcome, ServeOptions, VerdictError, VerifyService};
use asv_sva::{Verdict, VerifyError};

/// End-to-end metrics `(name, unit)`; every workload reports all of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("table3_s", "s"),
    ("assertsolver_pass1", "ratio"),
    ("patches_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`. A layer a workload does not exercise
/// reads 0 on that workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.run_s", "s"),
    ("core.pretrain_s", "s"),
    ("core.sft_s", "s"),
    ("core.dpo_prep_s", "s"),
    ("core.dpo_s", "s"),
    ("eval.base_s", "s"),
    ("eval.sft_s", "s"),
    ("eval.assertsolver_s", "s"),
    ("table3.untimed_s", "s"),
    ("mutation.candidates_s", "s"),
    ("mutation.candidates", "count"),
    ("mutation.candidates_per_case", "count"),
    ("core.extract_s", "s"),
    ("core.features", "count"),
    ("eval.respond_s", "s"),
    ("eval.judge_s", "s"),
    ("verilog.compile_s", "s"),
    ("verilog.compiles", "count"),
    ("serve.verify_batch_s", "s"),
    ("serve.executed", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.job_p50_ms", "ms"),
    ("serve.job_p99_ms", "ms"),
    ("sva.rungs_symbolic", "count"),
    ("sva.rungs_enumeration", "count"),
    ("sva.rungs_fuzz", "count"),
    ("sva.rungs_sampling", "count"),
    ("sva.symbolic_self_ms", "ms"),
    ("sat.blast_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("sat.conflicts", "count"),
    ("sat.aig_nodes", "count"),
    ("sim.compile_ms", "ms"),
    ("sim.compiles", "count"),
    ("fuzz.round_ms", "ms"),
    ("sim.lane_occupancy", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CandidatePrep,
    JudgeCold,
    JudgeWarm,
}

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: e2ebench --workload <candidate_prep|judge_cold|judge_warm> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "candidate_prep" => Workload::CandidatePrep,
                        "judge_cold" => Workload::JudgeCold,
                        "judge_warm" => Workload::JudgeWarm,
                        _ => return Err(format!("unknown workload `{value}`")),
                    })
                }
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s.is_finite()) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The corpus every workload draws from: the repository's default pipeline
/// seed (the one `table3` uses) at a mid scale, between
/// `PipelineConfig::quick()` (whose profile is dominated by fixed costs)
/// and the default `table3` scale (too long to repeat 22 times).
///
/// The corpus does not vary with the workload seed. At any scale that fits
/// the run budget, the corpus seed alone changes the work of a chain two-
/// to threefold (one generated FIFO can carry 70% of all repair
/// candidates), so no bound on a seed-to-seed spread could hold. The
/// workload seed drives response sampling instead.
fn pipeline_config() -> PipelineConfig {
    PipelineConfig {
        corpus_size: 40,
        bugs_per_design: 8,
        ..PipelineConfig::default()
    }
}

/// An independent seed for one random stream of a workload.
fn derive(seed: u64, stream: u64) -> u64 {
    mix(mix(seed) ^ stream)
}

/// splitmix64 finaliser.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fresh verification service with one worker per core.
fn service() -> VerifyService {
    VerifyService::new(ServeOptions {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..ServeOptions::default()
    })
}

/// An outcome where judging failed: an inconclusive verdict, or an error
/// that is not the patched design's own. A simulation or monitor error of
/// the patched design (say, a combinational loop the patch introduced) is
/// a deterministic rejection, which the evaluator counts as an ineffective
/// response, not a failed operation.
fn failed(outcome: &JobOutcome) -> bool {
    match outcome {
        Ok(verdict) => matches!(verdict, Verdict::Inconclusive { .. }),
        Err(VerdictError::Verify(
            VerifyError::Sim(_) | VerifyError::Monitor(_) | VerifyError::NoAssertions,
        )) => false,
        Err(_) => true,
    }
}

/// An outcome that makes a patch effective (every assertion holds
/// non-vacuously — the judge's rule).
fn effective(outcome: &JobOutcome) -> bool {
    matches!(outcome, Ok(v) if v.holds_non_vacuously())
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` and adds its wall time in seconds to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = std::time::Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// What one run reports: metric values, operation counts and failed
/// correctness checks.
struct Report {
    trace: bool,
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    fn new(trace: bool) -> Self {
        Report {
            trace,
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn schema(&self) -> &'static [(&'static str, &'static str)] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Sets a metric of this run's kind (end-to-end or per-layer).
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.schema().iter().any(|(n, _)| *n == name),
            "`{name}` is not a metric of this run"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// Records a failed correctness check unless `ok`.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("e2ebench: check failed: {msg}");
            self.problems.push(msg);
        }
    }

    /// Counts operations: `attempted` of them, `failed` of which failed as
    /// [`failed`] defines it.
    fn count(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// The result line. An end-to-end metric left unset is a bug; a
    /// per-layer metric left unset was not exercised and reads 0.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .schema()
            .iter()
            .map(|(name, unit)| {
                let value = self.values.iter().find(|(n, _)| n == name).map(|v| v.1);
                let value = match value {
                    Some(v) => v,
                    None if self.trace => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                assert!(value.is_finite(), "metric `{name}` is {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new(args.trace);
    match args.workload {
        Workload::CandidatePrep => paper::run(&args, &mut report),
        Workload::JudgeCold => judge::cold(&args, &mut report),
        Workload::JudgeWarm => judge::warm(&args, &mut report),
    }
    if !args.trace {
        match peak_rss_mb() {
            Ok(mb) => report.set("peak_rss_mb", mb),
            Err(e) => {
                eprintln!("e2ebench: {e}");
                std::process::exit(1);
            }
        }
    }
    report.check(report.attempted > 0, || "no operation was attempted".into());
    println!("{}", report.json());
}
