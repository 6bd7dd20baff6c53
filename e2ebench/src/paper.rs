//! `candidate_prep`: the Table III chain — datagen → PT → SFT → DPO prep →
//! DPO → evaluation of Base, SFT and AssertSolver on one shared service —
//! runs in set-up; the timed loop repeats its dominant work, repair
//! candidate preparation (`mutation` and `core`), case by case.

use crate::floors::Floors;
use crate::{derive, layers, median, pipeline_config, service, timed, Args, Report, SETUP_REPS};
use assertsolver_core::features::{extract, CaseContext};
use assertsolver_core::prelude::*;
use assertsolver_core::train::{prepare_case, PreparedCase};
use asv_datagen::{pipeline, Datasets, PipelineConfig};
use asv_eval::{
    benchmark, evaluate_with_service, BenchCase, CaseResult, EvalConfig, EvalRun, Judge,
};
use asv_serve::{VerifyJob, VerifyService};
use asv_sva::Verifier;
use asv_trace::Tracer;
use std::time::Instant;

const MODELS: [&str; 3] = ["Base Model", "SFT Model", "AssertSolver"];

/// The chain's random streams. Training keeps `table3`'s seeds; the
/// workload seed drives response sampling in the evaluation.
struct Seeds {
    sft: SftConfig,
    dpo: DpoConfig,
    eval: EvalConfig,
}

impl Seeds {
    fn new(seed: u64) -> Self {
        Seeds {
            sft: SftConfig::default(),
            dpo: DpoConfig::default(),
            eval: EvalConfig {
                seed: derive(seed, 0),
                ..EvalConfig::default()
            },
        }
    }
}

/// Wall time of each stage of one chain, in seconds.
#[derive(Default)]
struct Stages {
    datagen: f64,
    pretrain: f64,
    sft: f64,
    dpo_prep: f64,
    dpo: f64,
    eval: [f64; 3],
}

impl Stages {
    fn sum(&self) -> f64 {
        self.datagen
            + self.pretrain
            + self.sft
            + self.dpo_prep
            + self.dpo
            + self.eval.iter().sum::<f64>()
    }
}

/// One finished chain, with what the checks after it need.
struct Chain {
    wall: f64,
    stages: Stages,
    table: String,
    runs: Vec<EvalRun>,
    datasets: Datasets,
    engines: [Solver; 3],
    bench: Vec<BenchCase>,
    service: VerifyService,
    /// The eval split's timers, when the chain evaluated through it.
    split: Option<Split>,
}

/// Runs the chain once. The evaluation goes through
/// `evaluate_with_service`, or through the respond → compile →
/// `verify_batch` split when `split` is set (the traced run).
fn chain(cfg: &PipelineConfig, seeds: &Seeds, service: VerifyService, split: bool) -> Chain {
    let mut st = Stages::default();
    let start = Instant::now();
    let datasets = timed(&mut st.datagen, || pipeline::run(cfg));
    let base = timed(&mut st.pretrain, || base_model(&datasets.verilog_pt));
    let sft_model = timed(&mut st.sft, || {
        sft(&base, &datasets.sva_bug, &datasets.verilog_bug, &seeds.sft)
    });
    let cases = timed(&mut st.dpo_prep, || {
        prepare_cases(&datasets.sva_bug, &sft_model.lm)
    });
    let solver = timed(&mut st.dpo, || dpo(&sft_model, &cases, &seeds.dpo));
    let bench = benchmark(&datasets.sva_eval_machine, &datasets.sva_eval_human);
    let engines = [
        Solver::with_name(base, MODELS[0]),
        Solver::with_name(sft_model, MODELS[1]),
        Solver::with_name(solver, MODELS[2]),
    ];
    let verifier = Judge::fast().verifier();
    let mut total_split: Option<Split> = split.then(Split::default);
    let mut runs = Vec::with_capacity(3);
    for (k, engine) in engines.iter().enumerate() {
        let run = timed(&mut st.eval[k], || match &mut total_split {
            None => evaluate_with_service(engine, &bench, &seeds.eval, verifier, &service),
            Some(total) => {
                let (run, s) = eval_split(engine, &bench, &seeds.eval, verifier, &service);
                total.add(&s);
                run
            }
        });
        runs.push(run);
    }
    let table = table3(&runs);
    Chain {
        wall: start.elapsed().as_secs_f64(),
        stages: st,
        table,
        runs,
        datasets,
        engines,
        bench,
        service,
        split: total_split,
    }
}

/// The Table III text, exactly as the `table3` binary renders it.
fn table3(runs: &[EvalRun]) -> String {
    let refs: Vec<&EvalRun> = runs.iter().collect();
    asv_eval::report::pass_table(
        "Table III: model performance as pass@k",
        &[
            ("pass@1", &|r: &EvalRun| r.pass_at(1)),
            ("pass@5", &|r: &EvalRun| r.pass_at(5)),
        ],
        &refs,
    )
}

/// How one response resolves, as in `evaluate_with_service`.
enum Resolution {
    Golden,
    NoCompile,
    Pending(usize),
}

/// `evaluate_with_service` taken apart into respond → compile →
/// `verify_batch` → fold, each timed; must reproduce it case for case.
#[derive(Default)]
struct Split {
    cases: usize,
    failed_cases: usize,
    respond_s: f64,
    compile_s: f64,
    compiles: usize,
    verify_s: f64,
    judge_s: f64,
}

impl Split {
    fn add(&mut self, other: &Split) {
        self.cases += other.cases;
        self.failed_cases += other.failed_cases;
        self.respond_s += other.respond_s;
        self.compile_s += other.compile_s;
        self.compiles += other.compiles;
        self.verify_s += other.verify_s;
        self.judge_s += other.judge_s;
    }
}

fn eval_split(
    engine: &Solver,
    bench: &[BenchCase],
    config: &EvalConfig,
    verifier: Verifier,
    service: &VerifyService,
) -> (EvalRun, Split) {
    let mut s = Split::default();
    let mut jobs = Vec::new();
    let mut per_case = Vec::with_capacity(bench.len());
    for (i, bc) in bench.iter().enumerate() {
        let task = RepairTask::from(&bc.entry);
        let responses = timed(&mut s.respond_s, || {
            engine.respond(&task, config.n, config.seed.wrapping_add(i as u64))
        });
        let resolutions: Vec<Resolution> = timed(&mut s.compile_s, || {
            responses
                .iter()
                .map(|r| {
                    if r.patched_source == bc.entry.golden_source {
                        return Resolution::Golden;
                    }
                    s.compiles += 1;
                    match asv_verilog::compile(&r.patched_source) {
                        Ok(design) => {
                            jobs.push(VerifyJob::new(design, verifier));
                            Resolution::Pending(jobs.len() - 1)
                        }
                        Err(_) => Resolution::NoCompile,
                    }
                })
                .collect()
        });
        per_case.push(resolutions);
    }
    let fold_start = Instant::now();
    let outcomes = timed(&mut s.verify_s, || service.verify_batch(&jobs));
    let mut cases = Vec::with_capacity(bench.len());
    for (bc, resolutions) in bench.iter().zip(&per_case) {
        if resolutions
            .iter()
            .any(|r| matches!(r, Resolution::Pending(j) if crate::failed(&outcomes[*j])))
        {
            s.failed_cases += 1;
        }
        let c = resolutions
            .iter()
            .filter(|r| match r {
                Resolution::Golden => true,
                Resolution::NoCompile => false,
                Resolution::Pending(j) => crate::effective(&outcomes[*j]),
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
    s.judge_s = s.compile_s + fold_start.elapsed().as_secs_f64();
    s.cases = bench.len();
    let run = EvalRun {
        engine: engine.name().to_string(),
        cases,
    };
    (run, s)
}

/// What later chains of a run are compared with: the first chain's
/// Table III text and per-case results.
type Reference = (String, Vec<EvalRun>);

/// Checks shared by every chain: one result per case, `c ≤ n`, and the
/// same Table III as the reference chain of this run.
fn check_chain(chain: &Chain, reference: Option<&Reference>, report: &mut Report) {
    for run in &chain.runs {
        report.check(run.cases.len() == chain.bench.len(), || {
            format!(
                "{}: {} results for {} cases",
                run.engine,
                run.cases.len(),
                chain.bench.len()
            )
        });
        report.check(run.cases.iter().all(|c| c.c <= c.n), || {
            format!("{}: a case has c > n", run.engine)
        });
    }
    if let Some((table, runs)) = reference {
        report.check(chain.table == *table && chain.runs == *runs, || {
            format!(
                "Table III differs between chains:\n{table}\n{}",
                chain.table
            )
        });
    }
}

/// Re-judges every model through the split on the chain's (memo-warm)
/// service and compares with `evaluate_with_service` case for case;
/// counts evaluated cases and failed ones.
fn check_split(chain: &Chain, seeds: &Seeds, report: &mut Report) {
    let verifier = Judge::fast().verifier();
    for (engine, run) in chain.engines.iter().zip(&chain.runs) {
        let (split_run, s) =
            eval_split(engine, &chain.bench, &seeds.eval, verifier, &chain.service);
        report.check(&split_run == run, || {
            format!(
                "{}: split evaluation differs from evaluate_with_service",
                run.engine
            )
        });
        report.count(s.cases, s.failed_cases);
    }
}

/// The same preparation, compared field by field (`PreparedCase` has no
/// `PartialEq`).
fn same_case(a: &PreparedCase, b: &PreparedCase) -> bool {
    a.features == b.features && a.golden == b.golden && a.meta == b.meta
}

/// `0..n` in an order drawn from `seed` (Fisher–Yates over splitmix64).
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = crate::mix(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

pub fn run(args: &Args, report: &mut Report) {
    let cfg = pipeline_config();
    let seeds = Seeds::new(args.seed);
    if args.trace {
        traced(&cfg, &seeds, report);
        return;
    }
    // Set-up: whole chains, each started as a fresh `table3` process would
    // (no compiled design carried over). `setup_s` is the median chain; the
    // last chain's LMs and SVA-Bug feed the timed loop.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut reference: Option<Reference> = None;
    let mut last = None;
    for _ in 0..SETUP_REPS {
        asv_serve::clear_design_cache();
        let c = chain(&cfg, &seeds, service(), false);
        setups.push(c.wall);
        println!(
            "chain {}: {:.3} s (datagen {:.3}, pt {:.3}, sft {:.3}, dpo prep {:.3}, dpo {:.3}, eval {:.3})",
            setups.len(),
            c.wall,
            c.stages.datagen,
            c.stages.pretrain,
            c.stages.sft,
            c.stages.dpo_prep,
            c.stages.dpo,
            c.stages.eval.iter().sum::<f64>()
        );
        check_chain(&c, reference.as_ref(), report);
        check_split(&c, &seeds, report);
        if reference.is_none() {
            print!("{}", c.table);
            reference = Some((c.table.clone(), c.runs.clone()));
        }
        last = Some(c);
    }
    let c = last.expect("set-up ran");

    // Timed: `prepare_case` over SVA-Bug, against the base model's LM (as
    // SFT prepares its cases) and the SFT model's LM (as DPO prep does),
    // in an order drawn from the seed. Each (LM, case) is a slot of
    // `floors` (see `floors.rs`).
    let entries = &c.datasets.sva_bug;
    let lms = [&c.engines[0].model().lm, &c.engines[1].model().lm];
    let order = shuffled(entries.len(), derive(args.seed, 1));
    let mut floors = Floors::new(lms.len() * entries.len());
    let mut first: Option<Vec<Option<PreparedCase>>> = None;
    let mut walls = Vec::new();
    let mut measured = 0.0;
    while measured < args.seconds {
        let start = Instant::now();
        let mut prepared: Vec<Option<PreparedCase>> = vec![None; lms.len() * entries.len()];
        for (k, lm) in lms.iter().enumerate() {
            for &i in &order {
                let slot = k * entries.len() + i;
                prepared[slot] = floors.time(slot, || prepare_case(&entries[i], lm));
            }
        }
        let wall = start.elapsed().as_secs_f64();
        measured += wall;
        walls.push(wall);
        match &first {
            Some(f) => report.check(
                f.iter().zip(&prepared).all(|(a, b)| match (a, b) {
                    (Some(a), Some(b)) => same_case(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                }),
                || "candidate preparation differs between passes".into(),
            ),
            None => first = Some(prepared),
        }
    }
    let first = first.expect("at least one pass ran");
    for (k, lm) in lms.iter().enumerate() {
        let mine: Vec<&PreparedCase> = first[k * entries.len()..(k + 1) * entries.len()]
            .iter()
            .flatten()
            .collect();
        let whole = prepare_cases(entries, lm);
        report.check(
            mine.len() == whole.len() && mine.iter().zip(&whole).all(|(a, b)| same_case(a, b)),
            || "per-case preparation differs from prepare_cases".into(),
        );
    }
    let candidates: usize = first.iter().flatten().map(|p| p.features.len()).sum();
    let table3_s = floors.total(&format!(
        "candidate preparation: {} cases x {} LMs, {candidates} candidates; passes n={} wall \
         median {:.4} min {:.4}",
        entries.len(),
        lms.len(),
        walls.len(),
        median(&walls),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
    ));
    let (_, runs) = reference.expect("set-up ran");
    report.set("setup_s", median(&setups));
    report.set("table3_s", table3_s);
    report.set("patches_per_s", candidates as f64 / table3_s);
    report.set("assertsolver_pass1", runs[2].pass_at(1));
}

/// The traced run: one untraced chain for the stage timers, one chain whose
/// evaluation goes through the split on a traced service, and a replay of
/// `prepare_case`'s steps over SVA-Bug.
fn traced(cfg: &PipelineConfig, seeds: &Seeds, report: &mut Report) {
    asv_serve::clear_design_cache();
    let plain = chain(cfg, seeds, service(), false);
    check_chain(&plain, None, report);
    let st = &plain.stages;
    for (name, v) in [
        ("datagen.run_s", st.datagen),
        ("core.pretrain_s", st.pretrain),
        ("core.sft_s", st.sft),
        ("core.dpo_prep_s", st.dpo_prep),
        ("core.dpo_s", st.dpo),
        ("eval.base_s", st.eval[0]),
        ("eval.sft_s", st.eval[1]),
        ("eval.assertsolver_s", st.eval[2]),
        ("table3.untimed_s", plain.wall - st.sum()),
    ] {
        report.set(name, v);
    }

    asv_serve::clear_design_cache();
    let tracer = Tracer::with_capacity(layers::RING_CAP);
    let traced = chain(cfg, seeds, service().traced(tracer.clone()), true);
    let events = tracer.drain();
    check_chain(
        &traced,
        Some(&(plain.table.clone(), plain.runs.clone())),
        report,
    );
    report.check(tracer.dropped() == 0, || {
        format!("{} trace events dropped", tracer.dropped())
    });
    let split = traced
        .split
        .as_ref()
        .expect("the traced chain evaluates through the split");
    report.count(split.cases, split.failed_cases);
    report.set("eval.respond_s", split.respond_s);
    report.set("eval.judge_s", split.judge_s);
    report.set("verilog.compile_s", split.compile_s);
    report.set("verilog.compiles", split.compiles as f64);
    report.set("serve.verify_batch_s", split.verify_s);
    // Only the evaluation runs traced, so compare it alone: the rest of
    // the chain would add its own noise and no overhead.
    let eval_s = |c: &Chain| c.stages.eval.iter().sum::<f64>();
    report.set("trace.overhead_s", eval_s(&traced) - eval_s(&plain));
    layers::verification(&events, traced.service.stats(), report);

    // Replay of `prepare_case` over SVA-Bug against the SFT model's LM (the
    // DPO-prep inputs), timing candidate enumeration and feature
    // extraction separately.
    let lm = &traced.engines[1].model().lm;
    let (mut cand_s, mut extract_s) = (0.0, 0.0);
    let (mut prepared, mut candidates, mut features) = (0usize, 0usize, 0usize);
    for entry in &traced.datasets.sva_bug {
        let Ok(design) = asv_verilog::compile(&entry.buggy_source) else {
            continue;
        };
        let ctx = CaseContext::new(&design.module, &entry.spec, &entry.logs);
        let cands = timed(&mut cand_s, || asv_mutation::candidates(&design));
        if cands.is_empty() {
            continue;
        }
        let feats: Vec<_> = timed(&mut extract_s, || {
            cands.iter().map(|c| extract(&ctx, lm, c)).collect()
        });
        prepared += 1;
        candidates += cands.len();
        features += feats.len();
    }
    let reference = prepare_cases(&traced.datasets.sva_bug, lm);
    report.check(
        prepared == reference.len()
            && features == reference.iter().map(|c| c.features.len()).sum::<usize>(),
        || "the replay does not match prepare_cases".into(),
    );
    report.set("mutation.candidates_s", cand_s);
    report.set("mutation.candidates", candidates as f64);
    report.set(
        "mutation.candidates_per_case",
        candidates as f64 / prepared.max(1) as f64,
    );
    report.set("core.extract_s", extract_s);
    report.set("core.features", features as f64);

    let stats = traced.datasets.stats;
    println!("{}", plain.table);
    println!(
        "datagen funnel: corpus {} → raw items {} → filtered {} → compile failures {} → \
         injections discarded {} → SVA-Bug {} (CoT kept {}/{}), Verilog-Bug {}, \
         SVA-Eval machine {} + human {}",
        stats.corpus,
        stats.raw_items,
        stats.filtered,
        stats.compile_failures,
        stats.discarded_syntax,
        traced.datasets.sva_bug.len(),
        stats.cot_kept,
        stats.cot_drafted,
        traced.datasets.verilog_bug.len(),
        traced.datasets.sva_eval_machine.len(),
        traced.datasets.sva_eval_human.len(),
    );
    println!(
        "stages (untraced chain, {:.3} s): datagen {:.3} pt {:.3} sft {:.3} dpo-prep {:.3} dpo {:.3} \
         eval {:.3}/{:.3}/{:.3} untimed {:.3}",
        plain.wall,
        st.datagen,
        st.pretrain,
        st.sft,
        st.dpo_prep,
        st.dpo,
        st.eval[0],
        st.eval[1],
        st.eval[2],
        plain.wall - st.sum()
    );
    println!(
        "candidate prep replay: {prepared} cases, {candidates} candidates, \
         candidates {cand_s:.3} s, extract {extract_s:.3} s"
    );
    println!(
        "tracing overhead: traced evaluation {:.3} s − untraced {:.3} s = {:.3} s \
         (whole chains {:.3} s and {:.3} s)",
        eval_s(&traced),
        eval_s(&plain),
        eval_s(&traced) - eval_s(&plain),
        traced.wall,
        plain.wall
    );
    layers::print_profile(&events);
}
