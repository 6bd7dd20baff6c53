//! `judge_cold` and `judge_warm`: judging the candidate patches the
//! untrained Base model samples for SVA-Eval, on a fresh service with an
//! empty compile cache (cold) or on the service whose memo a cold pass
//! filled (warm, as the SFT and AssertSolver evaluations run after Base).

use crate::floors::Floors;
use crate::{derive, layers, median, pipeline_config, service, timed, Args, Report, SETUP_REPS};
use assertsolver_core::prelude::*;
use asv_datagen::pipeline;
use asv_eval::{benchmark, mean_pass_at_k, EvalConfig, Judge};
use asv_serve::{JobOutcome, ServeStats, VerifyJob, VerifyService};
use asv_trace::Tracer;
use std::time::Instant;

/// Sampling seeds per SVA-Eval case: each draws `n = 20` patches, and
/// duplicates are kept, as real evaluation traffic has them.
const SAMPLING_SEEDS: u64 = 8;

/// The judged traffic: patch sources in submission order, grouped into
/// `n`-sample groups of one (case, sampling seed). Each sampling seed's
/// groups are consecutive and form one batch, as one model evaluation
/// submits them.
#[derive(PartialEq)]
struct Patches {
    sources: Vec<String>,
    /// True when the patch is textually the golden source.
    golden: Vec<bool>,
    /// Start of each group in `sources`, and its end as the last entry.
    bounds: Vec<usize>,
    /// Groups per batch: the SVA-Eval cases.
    cases: usize,
}

impl Patches {
    fn groups(&self) -> usize {
        self.bounds.len() - 1
    }

    fn group(&self, g: usize) -> std::ops::Range<usize> {
        self.bounds[g]..self.bounds[g + 1]
    }

    /// Timed slots of a pass: one per group and one per batch.
    fn floors(&self) -> Floors {
        Floors::new(self.groups() + self.groups() / self.cases)
    }
}

/// Set-up timers, in seconds.
#[derive(Default)]
struct SetupTimes {
    datagen: f64,
    pretrain: f64,
    respond: f64,
}

/// Generates the Base model's patches for every SVA-Eval case.
fn sample_patches(args: &Args, t: &mut SetupTimes) -> Patches {
    let datasets = timed(&mut t.datagen, || pipeline::run(&pipeline_config()));
    let base = timed(&mut t.pretrain, || base_model(&datasets.verilog_pt));
    let bench = benchmark(&datasets.sva_eval_machine, &datasets.sva_eval_human);
    let solver = Solver::new(base);
    let n = EvalConfig::default().n;
    let mut p = Patches {
        sources: Vec::new(),
        golden: Vec::new(),
        bounds: vec![0],
        cases: bench.len(),
    };
    timed(&mut t.respond, || {
        for s in 0..SAMPLING_SEEDS {
            let seed = derive(args.seed, s);
            for (i, bc) in bench.iter().enumerate() {
                let task = RepairTask::from(&bc.entry);
                for r in solver.respond(&task, n, seed.wrapping_add(i as u64)) {
                    p.golden.push(r.patched_source == bc.entry.golden_source);
                    p.sources.push(r.patched_source);
                }
                p.bounds.push(p.sources.len());
            }
        }
    });
    p
}

/// One judging pass: one batch per sampling seed, each compiled patch by
/// patch and then verified with one `verify_batch`. `None` marks a patch
/// that does not compile.
struct Judged {
    verdicts: Vec<Option<JobOutcome>>,
    compile_s: f64,
    verify_s: f64,
    wall: f64,
}

/// Judges every patch. Each group's compile and each batch's
/// `verify_batch` is a slot of `floors`: group `g` is slot `g`, batch `b`
/// slot `groups + b`.
fn judge(patches: &Patches, service: &VerifyService, floors: &mut Floors) -> Judged {
    let verifier = Judge::fast().verifier();
    let start = Instant::now();
    let groups = patches.groups();
    let mut verdicts = Vec::with_capacity(patches.sources.len());
    let (mut compile_s, mut verify_s) = (0.0, 0.0);
    for (b, first) in (0..groups).step_by(patches.cases).enumerate() {
        let mut jobs = Vec::new();
        let mut slots = Vec::new();
        for g in first..first + patches.cases {
            floors.time(g, || {
                timed(&mut compile_s, || {
                    for src in &patches.sources[patches.group(g)] {
                        slots.push(asv_verilog::compile(src).ok().map(|design| {
                            jobs.push(VerifyJob::new(design, verifier));
                            jobs.len() - 1
                        }));
                    }
                })
            });
        }
        let outcomes = floors.time(groups + b, || {
            timed(&mut verify_s, || service.verify_batch(&jobs))
        });
        verdicts.extend(
            slots
                .into_iter()
                .map(|slot| slot.map(|k| outcomes[k].clone())),
        );
    }
    Judged {
        verdicts,
        compile_s,
        verify_s,
        wall: start.elapsed().as_secs_f64(),
    }
}

impl Judged {
    /// Patches whose judging failed (see [`crate::failed`]).
    fn failures(&self) -> usize {
        self.verdicts
            .iter()
            .flatten()
            .filter(|o| crate::failed(o))
            .count()
    }

    /// Mean pass@1 over the (case, sampling seed) groups: a patch is
    /// effective when it is the golden source or all assertions hold
    /// non-vacuously.
    fn pass1(&self, patches: &Patches) -> f64 {
        let n = EvalConfig::default().n;
        let counts = (0..patches.groups()).map(|g| {
            let c = patches
                .group(g)
                .filter(|&i| {
                    patches.golden[i] || self.verdicts[i].as_ref().is_some_and(crate::effective)
                })
                .count();
            (n, c)
        });
        mean_pass_at_k(counts, 1)
    }
}

/// A cold pass: empty compile cache, fresh memo.
fn cold_pass(patches: &Patches, service: &VerifyService, floors: &mut Floors) -> Judged {
    asv_serve::clear_design_cache();
    judge(patches, service, floors)
}

fn delta(after: ServeStats, before: ServeStats) -> ServeStats {
    ServeStats {
        submitted: after.submitted - before.submitted,
        executed: after.executed - before.executed,
        memo_hits: after.memo_hits - before.memo_hits,
        deduped: after.deduped - before.deduped,
        store_hits: after.store_hits - before.store_hits,
        store_misses: after.store_misses - before.store_misses,
        store_puts: after.store_puts - before.store_puts,
    }
}

/// Runs set-up `SETUP_REPS` times (once when tracing, which reports no
/// `setup_s`), checks that it is deterministic, and returns the last
/// result with the median set-up time.
fn setup<T>(
    args: &Args,
    report: &mut Report,
    mut once: impl FnMut(&mut SetupTimes) -> (Patches, T),
) -> (Patches, T, SetupTimes, f64) {
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let mut t = SetupTimes::default();
        let start = Instant::now();
        let (patches, extra) = once(&mut t);
        walls.push(start.elapsed().as_secs_f64());
        if let Some((prev, _, _)) = &last {
            report.check(prev == &patches, || {
                "set-up sampled different patches".into()
            });
        }
        last = Some((patches, extra, t));
    }
    let (patches, extra, t) = last.expect("set-up ran");
    (patches, extra, t, median(&walls))
}

fn print_traffic(patches: &Patches, judged: &Judged, stats: ServeStats) {
    let compiled = judged.verdicts.iter().flatten().count();
    let design_errors = judged
        .verdicts
        .iter()
        .flatten()
        .filter(|o| o.is_err())
        .count();
    println!(
        "traffic: {} groups, {} patches ({} golden, {} compile, {} rejected by a design \
         error, {} failed), {} submitted, {} deduped, {} memo hits, {} executed",
        patches.groups(),
        patches.sources.len(),
        patches.golden.iter().filter(|g| **g).count(),
        compiled,
        design_errors - judged.failures(),
        judged.failures(),
        stats.submitted,
        stats.deduped,
        stats.memo_hits,
        stats.executed
    );
}

/// Reports the setup-side layers every judge workload pays.
fn report_setup_layers(t: &SetupTimes, report: &mut Report) {
    report.set("datagen.run_s", t.datagen);
    report.set("core.pretrain_s", t.pretrain);
    report.set("eval.respond_s", t.respond);
}

/// Reports the layers of one traced judging pass.
fn report_pass_layers(patches: &Patches, traced: &Judged, plain_wall: f64, report: &mut Report) {
    report.set("eval.judge_s", traced.wall);
    report.set("verilog.compile_s", traced.compile_s);
    report.set("verilog.compiles", patches.sources.len() as f64);
    report.set("serve.verify_batch_s", traced.verify_s);
    report.set("trace.overhead_s", traced.wall - plain_wall);
}

/// Describes a run's passes for the floor line of the text report.
fn passes(kind: &str, walls: &[f64]) -> String {
    format!(
        "{kind} passes: n={} wall median {:.4} min {:.4}",
        walls.len(),
        median(walls),
        walls.iter().copied().fold(f64::INFINITY, f64::min)
    )
}

pub fn cold(args: &Args, report: &mut Report) {
    let (patches, (), times, setup_s) = setup(args, report, |t| (sample_patches(args, t), ()));
    let misses = || asv_sim::cache::global().stats().1;
    if args.trace {
        report_setup_layers(&times, report);
        let plain = cold_pass(&patches, &service(), &mut patches.floors());
        let tracer = Tracer::with_capacity(layers::RING_CAP);
        let svc = service().traced(tracer.clone());
        let traced = cold_pass(&patches, &svc, &mut patches.floors());
        let events = tracer.drain();
        report.check(tracer.dropped() == 0, || {
            format!("{} trace events dropped", tracer.dropped())
        });
        report.check(traced.verdicts == plain.verdicts, || {
            "traced verdicts differ from untraced".into()
        });
        report.count(patches.sources.len(), plain.failures());
        report.count(patches.sources.len(), traced.failures());
        report_pass_layers(&patches, &traced, plain.wall, report);
        let counters = layers::verification(&events, svc.stats(), report);
        report.check(counters.compiles > 0, || {
            "the traced cold pass lowered no design".into()
        });
        print_traffic(&patches, &traced, svc.stats());
        layers::print_profile(&events);
        return;
    }
    let mut floors = patches.floors();
    let mut walls = Vec::new();
    let mut first: Option<Judged> = None;
    while walls.iter().sum::<f64>() < args.seconds {
        let svc = service();
        let lowered = misses();
        let j = cold_pass(&patches, &svc, &mut floors);
        let lowered = misses() - lowered;
        walls.push(j.wall);
        let stats = svc.stats();
        report.check(stats.executed > 0 && lowered > 0, || {
            format!(
                "cold pass ran {} jobs and lowered {lowered} designs",
                stats.executed
            )
        });
        report.count(patches.sources.len(), j.failures());
        match &first {
            Some(f) => report.check(f.verdicts == j.verdicts, || {
                "verdicts differ between cold passes".into()
            }),
            None => {
                print_traffic(&patches, &j, stats);
                first = Some(j);
            }
        }
    }
    let first = first.expect("at least one pass ran");
    let table3_s = floors.total(&passes("cold", &walls));
    report.set("setup_s", setup_s);
    report.set("table3_s", table3_s);
    report.set("patches_per_s", patches.sources.len() as f64 / table3_s);
    report.set("assertsolver_pass1", first.pass1(&patches));
}

pub fn warm(args: &Args, report: &mut Report) {
    // Set-up ends with the cold pass that fills the memo.
    let (patches, (svc, cold), times, setup_s) = setup(args, report, |t| {
        let patches = sample_patches(args, t);
        let svc = service();
        let cold = cold_pass(&patches, &svc, &mut patches.floors());
        (patches, (svc, cold))
    });
    report.count(patches.sources.len(), cold.failures());
    let warm_pass = |svc: &VerifyService, floors: &mut Floors, report: &mut Report| {
        let before = svc.stats();
        let j = judge(&patches, svc, floors);
        let stats = delta(svc.stats(), before);
        report.check(stats.executed == 0, || {
            format!("warm pass executed {} jobs", stats.executed)
        });
        report.check(j.verdicts == cold.verdicts, || {
            "warm verdicts differ from the cold pass".into()
        });
        report.count(patches.sources.len(), j.failures());
        (j, stats)
    };
    if args.trace {
        report_setup_layers(&times, report);
        let (plain, _) = warm_pass(&svc, &mut patches.floors(), report);
        let tracer = Tracer::with_capacity(layers::RING_CAP);
        let traced_svc = service().traced(tracer.clone());
        cold_pass(&patches, &traced_svc, &mut patches.floors());
        tracer.drain();
        let (traced, stats) = warm_pass(&traced_svc, &mut patches.floors(), report);
        let events = tracer.drain();
        report.check(tracer.dropped() == 0, || {
            format!("{} trace events dropped", tracer.dropped())
        });
        report_pass_layers(&patches, &traced, plain.wall, report);
        layers::verification(&events, stats, report);
        print_traffic(&patches, &traced, stats);
        layers::print_profile(&events);
        return;
    }
    let mut floors = patches.floors();
    let mut walls = Vec::new();
    while walls.iter().sum::<f64>() < args.seconds {
        let (j, stats) = warm_pass(&svc, &mut floors, report);
        if walls.is_empty() {
            print_traffic(&patches, &j, stats);
        }
        walls.push(j.wall);
    }
    let table3_s = floors.total(&passes("warm", &walls));
    report.set("setup_s", setup_s);
    report.set("table3_s", table3_s);
    report.set("patches_per_s", patches.sources.len() as f64 / table3_s);
    report.set("assertsolver_pass1", cold.pass1(&patches));
}
