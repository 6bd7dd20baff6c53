//! Engine comparison table: verdict fidelity on **rare-trigger** scenarios
//! for the symbolic engine and the coverage-guided fuzzer.
//!
//! Two scenario families:
//!
//! * **In-subset** — levelizable designs whose bug fires only for one
//!   exact wide-input value. The symbolic engine decides these
//!   exhaustively; blind random stimuli are overwhelmingly likely to miss
//!   them.
//! * **Out-of-subset** — the same rare triggers inside designs the
//!   symbolic engine rejects (latch-style combinational blocks). This is
//!   the scenario class the coverage-guided fuzzer exists for: its
//!   dictionary + corpus search finds every violation within a
//!   192-stimulus budget (asserted below, so CI enforces the claim).
//!
//! `Engine::Auto` must land on the ground truth of every scenario: it
//! *is* the best single-engine chain per scenario. After the table, a
//! **mixed-batch service comparison** runs: a cache-cold batch of 64
//! `Engine::Auto` jobs over the `perf_matrix` design pool (every
//! archetype, golden and bug-injected) through the `asv-serve` worker
//! pool must beat the sequential Auto loop by ≥ 2× wall-clock (asserted
//! when ≥ 4 cores are available), with memoised re-verification
//! answering in O(hash).
//!
//! Run with `cargo run --release -p asv-bench --bin table_engines`.

use asv_bench::perf::{bench_verifier, design_pool};
use asv_datagen::corpus::{Archetype, CorpusGen, SizeHint};
use asv_sat::engine::{unroll_stats, BmcOptions};
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sim::{CompiledDesign, OptLevel};
use asv_sva::bmc::{Engine, Verdict, Verifier, VerifyError};
use std::time::{Duration, Instant};

struct Scenario {
    name: &'static str,
    src: String,
    /// Ground truth: does a violating input sequence exist within bounds?
    violable: bool,
    /// Outside the symbolic engine's subset (latch-style block)?
    out_of_subset: bool,
}

/// A register pipeline that misbehaves only when `a` equals `trigger`.
fn rare_design(width: u32, trigger: u64, buggy: bool) -> String {
    let bad = if buggy { "hit" } else { "1'b0" };
    format!(
        "module rare(input clk, input rst_n, input [{msb}:0] a, output reg hit, output reg bad);\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) hit <= 1'b0;\n\
           else hit <= (a == {width}'d{trigger});\n\
         end\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) bad <= 1'b0;\n\
           else bad <= {bad};\n\
         end\n\
         p_rare: assert property (@(posedge clk) disable iff (!rst_n)\n\
           a == {width}'d{trigger} |-> ##1 !bad) else $error(\"rare trigger\");\n\
         endmodule\n",
        msb = width - 1,
    )
}

/// The rare trigger inside a design with a latch-style combinational
/// block, which pushes it outside the symbolic subset: the bug fires one
/// cycle after `a == trigger`.
fn latch_rare_design(width: u32, trigger: u64, buggy: bool) -> String {
    let bad = if buggy {
        format!("(a == {width}'d{trigger})")
    } else {
        "1'b0".to_string()
    };
    format!(
        "module lrare(input clk, input rst_n, input [{msb}:0] a, output reg bad);\n\
         reg shadow;\n\
         always @(*) begin if (a[0]) shadow = a[1]; end\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) bad <= 1'b0;\n\
           else bad <= {bad};\n\
         end\n\
         p_rare: assert property (@(posedge clk) disable iff (!rst_n)\n\
           a == {width}'d{trigger} |-> ##1 !bad) else $error(\"rare trigger\");\n\
         endmodule\n",
        msb = width - 1,
    )
}

/// Out-of-subset design violable only by **two consecutive** trigger
/// cycles (`bad` registers last cycle's hit): blind random odds fall
/// quadratically, while the fuzzer's corpus keeps single-hit stimuli
/// (new toggle coverage on `hit`) and the duplicate-cycle mutation turns
/// them into back-to-back hits.
fn latch_rare2_design(width: u32, trigger: u64) -> String {
    format!(
        "module lrare2(input clk, input rst_n, input [{msb}:0] a, output reg hit, output reg bad);\n\
         reg shadow;\n\
         always @(*) begin if (a[0]) shadow = a[1]; end\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) hit <= 1'b0;\n\
           else hit <= (a == {width}'d{trigger});\n\
         end\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) bad <= 1'b0;\n\
           else bad <= hit;\n\
         end\n\
         p_rare: assert property (@(posedge clk) disable iff (!rst_n)\n\
           a == {width}'d{trigger} |-> ##1 !bad) else $error(\"rare trigger\");\n\
         endmodule\n",
        msb = width - 1,
    )
}

/// A two-stage lock: `armed` latches after `a == 8'hA5`, the violation
/// needs a later `a == 8'h5A` — a sequencing bug blind random stimuli
/// essentially never reproduce, while the fuzzer's corpus keeps the
/// armed prefix and mutates the suffix.
fn lock_design() -> String {
    "module lock2(input clk, input rst_n, input [7:0] a, output reg armed, output reg bad);\n\
     reg shadow;\n\
     always @(*) begin if (a[0]) shadow = a[1]; end\n\
     always @(posedge clk or negedge rst_n) begin\n\
       if (!rst_n) armed <= 1'b0;\n\
       else if (a == 8'hA5) armed <= 1'b1;\n\
     end\n\
     always @(posedge clk or negedge rst_n) begin\n\
       if (!rst_n) bad <= 1'b0;\n\
       else bad <= armed && (a == 8'h5A);\n\
     end\n\
     p_lock: assert property (@(posedge clk) disable iff (!rst_n)\n\
       (armed && (a == 8'h5A)) |-> ##1 !bad) else $error(\"two-stage trigger\");\n\
     endmodule\n"
        .to_string()
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "rare8_buggy",
            src: rare_design(8, 0xA5, true),
            violable: true,
            out_of_subset: false,
        },
        Scenario {
            name: "rare8_fixed",
            src: rare_design(8, 0xA5, false),
            violable: false,
            out_of_subset: false,
        },
        Scenario {
            name: "rare16_buggy",
            src: rare_design(16, 0xBEEF, true),
            violable: true,
            out_of_subset: false,
        },
        Scenario {
            name: "rare16_fixed",
            src: rare_design(16, 0xBEEF, false),
            violable: false,
            out_of_subset: false,
        },
        Scenario {
            name: "lat_rare8x2_buggy",
            src: latch_rare2_design(8, 0xA5),
            violable: true,
            out_of_subset: true,
        },
        Scenario {
            name: "lat_rare16_buggy",
            src: latch_rare_design(16, 0xBEEF, true),
            violable: true,
            out_of_subset: true,
        },
        Scenario {
            name: "lat_rare16_fixed",
            src: latch_rare_design(16, 0xBEEF, false),
            violable: false,
            out_of_subset: true,
        },
        Scenario {
            name: "lat_lock2_buggy",
            src: lock_design(),
            violable: true,
            out_of_subset: true,
        },
    ]
}

fn verdict_cell(v: &Result<Verdict, VerifyError>) -> String {
    match v {
        Ok(Verdict::Holds {
            exhaustive,
            vacuous,
            ..
        }) => format!(
            "Holds({}{})",
            if *exhaustive { "exhaustive" } else { "fuzzed" },
            if vacuous.is_empty() { "" } else { ", vacuous!" }
        ),
        Ok(Verdict::Fails(_)) => "Fails(cex)".to_string(),
        Ok(Verdict::Inconclusive {}) => "inconclusive".to_string(),
        // Expected for the symbolic engine on out-of-subset scenarios;
        // anything else (oracle divergence, simulation errors) is a
        // harness failure the asserts below turn into a CI failure.
        Err(VerifyError::Symbolic(_)) => "out of subset".to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// A violable scenario must fail; a safe one must hold non-vacuously.
fn matches_truth(verdict: &Result<Verdict, VerifyError>, violable: bool) -> bool {
    match (verdict, violable) {
        (Ok(Verdict::Fails(_)), true) => true,
        (Ok(Verdict::Holds { vacuous, .. }), false) => vacuous.is_empty(),
        _ => false,
    }
}

fn main() {
    let budget = 192;
    println!("== Verification engines on rare-trigger scenarios (budget {budget}) ==");
    println!(
        "{:<18} {:<8} {:<12} {:<28} {:>10}",
        "scenario", "truth", "engine", "verdict", "time"
    );
    let mut fuzz_found = 0usize;
    let mut rare_out_of_subset = 0usize;
    for sc in scenarios() {
        let design = asv_verilog::compile(&sc.src).expect("scenario compiles");
        // Auto is exactly the best-single-engine chain (symbolic in
        // subset, fuzz beyond it on these non-enumerable input spaces),
        // so it must land on the ground truth everywhere.
        let auto_verdict = Verifier {
            depth: 8,
            random_runs: budget,
            engine: Engine::Auto,
            ..Verifier::default()
        }
        .check(&design);
        assert!(
            matches_truth(&auto_verdict, sc.violable),
            "{}: Engine::Auto must land on the ground truth, got {:?}",
            sc.name,
            auto_verdict
        );
        for (engine, label) in [(Engine::Symbolic, "symbolic"), (Engine::Fuzz, "fuzz")] {
            let verifier = Verifier {
                depth: 8,
                random_runs: budget,
                engine,
                ..Verifier::default()
            };
            let start = Instant::now();
            let verdict = verifier.check(&design);
            let elapsed = start.elapsed();
            let truth = if sc.violable { "violable" } else { "safe" };
            let correct = matches_truth(&verdict, sc.violable);
            println!(
                "{:<18} {:<8} {:<12} {:<28} {:>8.1?} {}",
                sc.name,
                truth,
                label,
                verdict_cell(&verdict),
                elapsed,
                if correct {
                    "✓"
                } else if verdict.is_err() {
                    "—"
                } else {
                    "✗ (misses bug or vacuous)"
                }
            );
            if engine == Engine::Fuzz && sc.violable && sc.out_of_subset {
                fuzz_found += usize::from(matches!(&verdict, Ok(Verdict::Fails(_))));
            }
            // In-subset scenarios: the symbolic engine must land on the
            // ground truth; out-of-subset ones must be rejected, not
            // silently mislabelled. The fuzzer may miss bugs but must
            // never error — an error there is a harness bug.
            if engine == Engine::Symbolic {
                if sc.out_of_subset {
                    assert!(
                        matches!(verdict, Err(VerifyError::Symbolic(_))),
                        "{}: must be out of subset, got {:?}",
                        sc.name,
                        verdict
                    );
                } else {
                    assert!(correct, "{}: symbolic engine must match truth", sc.name);
                }
            } else {
                assert!(
                    verdict.is_ok(),
                    "{}/{label}: fuzzer errored: {:?}",
                    sc.name,
                    verdict
                );
            }
        }
        rare_out_of_subset += usize::from(sc.violable && sc.out_of_subset);
    }
    println!(
        "\nrare out-of-subset violations found: fuzz {fuzz_found}/{rare_out_of_subset} \
         ({budget}-stimulus budget)"
    );
    assert!(
        rare_out_of_subset >= 3,
        "need at least 3 rare out-of-subset scenarios"
    );
    assert_eq!(
        fuzz_found, rare_out_of_subset,
        "the fuzzer must find every rare out-of-subset violation"
    );

    optimizing_ir_table();
    mixed_batch_comparison();
}

/// Per-archetype before/after table of the IR pass pipeline: bytecode
/// length (the simulator's program size) and the AIG node count of a
/// depth-8 unrolling (the SAT engine's problem size), at
/// `OptLevel::None` vs `OptLevel::Full`.
fn optimizing_ir_table() {
    println!("\n== Optimizing IR: bytecode and AIG reduction per archetype (depth 8) ==");
    println!(
        "{:<14} {:>9} {:>9} {:>6}  {:>9} {:>9} {:>6}",
        "archetype", "ops·raw", "ops·opt", "Δ%", "aig·raw", "aig·opt", "Δ%"
    );
    let gen = CorpusGen::new(0x17AB);
    let opts = BmcOptions {
        depth: 8,
        reset_cycles: 2,
        ..BmcOptions::default()
    };
    let pct = |raw: usize, opt: usize| -> f64 {
        if raw == 0 {
            0.0
        } else {
            (raw as f64 - opt as f64) * 100.0 / raw as f64
        }
    };
    let (mut ops_raw_t, mut ops_opt_t) = (0usize, 0usize);
    let (mut aig_raw_t, mut aig_opt_t) = (0usize, 0usize);
    for (ai, arch) in Archetype::ALL.iter().enumerate() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(ai as u64);
        let gd = gen.instantiate(
            *arch,
            ai,
            SizeHint {
                stages: 2,
                width: 4,
            },
            &mut rng,
        );
        let design = asv_verilog::compile(&gd.source).expect("archetype compiles");
        let raw = CompiledDesign::compile_opt(&design, OptLevel::None);
        let opt = CompiledDesign::compile_opt(&design, OptLevel::Full);
        let (ops_raw, ops_opt) = (raw.bytecode_len(), opt.bytecode_len());
        assert!(
            ops_opt <= ops_raw,
            "{arch}: optimization must not grow the bytecode"
        );
        ops_raw_t += ops_raw;
        ops_opt_t += ops_opt;
        let (stats_raw, stats_opt) = (unroll_stats(&raw, opts), unroll_stats(&opt, opts));
        let (ar, ao) = match (&stats_raw, &stats_opt) {
            (Ok(r), Ok(o)) => (r.aig_nodes, o.aig_nodes),
            // Out-of-subset designs must be rejected identically.
            (Err(_), Err(_)) => (0, 0),
            (r, o) => panic!("{arch}: symbolic subset flipped across opt levels: {r:?} vs {o:?}"),
        };
        assert!(ao <= ar, "{arch}: optimization must not grow the AIG");
        aig_raw_t += ar;
        aig_opt_t += ao;
        println!(
            "{:<14} {:>9} {:>9} {:>5.1}%  {:>9} {:>9} {:>5.1}%",
            format!("{arch}"),
            ops_raw,
            ops_opt,
            pct(ops_raw, ops_opt),
            ar,
            ao,
            pct(ar, ao),
        );
    }
    println!(
        "{:<14} {:>9} {:>9} {:>5.1}%  {:>9} {:>9} {:>5.1}%",
        "TOTAL",
        ops_raw_t,
        ops_opt_t,
        pct(ops_raw_t, ops_opt_t),
        aig_raw_t,
        aig_opt_t,
        pct(aig_raw_t, aig_opt_t),
    );
    assert!(
        ops_opt_t < ops_raw_t,
        "the pipeline must shrink total bytecode across the archetypes"
    );
    assert!(
        aig_opt_t < aig_raw_t,
        "the pipeline must shrink total AIG size across the archetypes"
    );
}

/// 64 `Engine::Auto` jobs cycling over the `perf_matrix` design pool
/// (golden + first-injectable-bug designs over all 12 archetypes).
fn mixed_batch() -> Vec<VerifyJob> {
    let pool = design_pool(false).pool;
    (0..64)
        .map(|i| {
            VerifyJob::new(
                std::sync::Arc::clone(&pool[i % pool.len()]),
                bench_verifier(Engine::Auto),
            )
        })
        .collect()
}

/// Cache-cold wall-clock: sequential `Engine::Auto` loop vs the service
/// across all cores, verdicts asserted bit-identical.
fn mixed_batch_comparison() {
    let jobs = mixed_batch();
    let workers = asv_sim::pool::cores();

    // Cache-cold timings, best of two rounds per leg: one slow round on
    // a noisy shared runner must not fail CI, and both legs get the same
    // treatment so the comparison stays fair.
    let mut t_seq = Duration::MAX;
    let mut t_par = Duration::MAX;
    let mut sequential = Vec::new();
    let mut batched = Vec::new();
    for _ in 0..2 {
        let t0 = Instant::now();
        sequential = jobs
            .iter()
            .map(|j| {
                j.verifier()
                    .check(j.design())
                    .map_err(asv_serve::VerdictError::from)
            })
            .collect();
        t_seq = t_seq.min(t0.elapsed());

        // A fresh service per round keeps every round verdict-cold.
        let service = VerifyService::default();
        let t0 = Instant::now();
        batched = service.verify_batch(&jobs);
        t_par = t_par.min(t0.elapsed());
    }

    assert_eq!(
        batched, sequential,
        "service verdicts must be bit-identical to the sequential loop"
    );

    // Warm re-verification: O(hash) per job, no engine runs.
    let memo_service = VerifyService::new(ServeOptions::default());
    let prime = memo_service.verify_batch(&jobs);
    assert_eq!(prime, sequential);
    let executed_cold = memo_service.stats().executed;
    let mut t_warm = Duration::MAX;
    for _ in 0..2 {
        let t0 = Instant::now();
        let warm = memo_service.verify_batch(&jobs);
        t_warm = t_warm.min(t0.elapsed());
        assert_eq!(warm, sequential);
    }
    assert_eq!(
        memo_service.stats().executed,
        executed_cold,
        "memoised re-verification must not run any engine"
    );

    let speedup = t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9);
    let memo_speedup = t_seq.as_secs_f64() / t_warm.as_secs_f64().max(1e-9);
    println!(
        "\nmixed batch of 64 archetype jobs ({workers} workers): sequential Auto {t_seq:.1?}, \
         service {t_par:.1?} ({speedup:.1}x), memoised re-verify {t_warm:.1?} \
         ({memo_speedup:.0}x)"
    );
    assert!(
        memo_speedup > speedup,
        "memoised re-verification must beat even the parallel cold run"
    );
    if workers >= 4 {
        assert!(
            speedup >= 2.0,
            "the service must be ≥ 2x faster than the sequential loop \
             on the cache-cold mixed batch (got {speedup:.2}x with {workers} workers)"
        );
    } else {
        println!("(< 4 cores: the ≥ 2x speedup assertion is reported, not enforced)");
    }
}
