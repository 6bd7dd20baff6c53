//! Fuzzing-engine guarantees, end to end:
//!
//! 1. **Determinism** — the same seed yields an identical corpus,
//!    coverage map and verdict.
//! 2. **Oracle fidelity** — across all 12 datagen archetypes, every
//!    fuzzer-found failure on a mutated design replays bit-identically on
//!    the `AstSimulator` interpreter oracle: same trace, same failure
//!    logs. A fuzzer verdict is only ever a property of the design.

use asv_datagen::corpus::{Archetype, CorpusGen, SizeHint};
use asv_fuzz::{fuzz, AssertionOracle, FuzzOptions};
use asv_sim::cover::CovMap;
use asv_sim::{AstSimulator, CompiledDesign, Trace};
use asv_sva::bmc::{Engine, Verdict, Verifier};
use asv_sva::monitor::{failure_logs, CompiledChecker};
use asv_verilog::sema::Design;
use std::sync::Arc;

/// The SVA checker bridged into the fuzzer, as `asv-sva` wires it.
struct Oracle<'a> {
    checker: &'a CompiledChecker,
}

impl AssertionOracle for Oracle<'_> {
    fn assertions(&self) -> usize {
        self.checker.assertion_count()
    }
    fn failed(&self, trace: &Trace, cov: &mut CovMap) -> Result<bool, String> {
        let out = self
            .checker
            .outcomes_cov(trace, cov)
            .map_err(|e| e.to_string())?;
        Ok(out.iter().any(|(_, o)| o.is_failure()))
    }
}

fn archetype_designs() -> Vec<(String, Design)> {
    let gen = CorpusGen::new(31);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(57);
    let mut out = Vec::new();
    for (i, arch) in Archetype::ALL.iter().enumerate() {
        let gd = gen.instantiate(
            *arch,
            i,
            SizeHint {
                stages: 2,
                width: 3,
            },
            &mut rng,
        );
        let design = asv_verilog::compile(&gd.source)
            .unwrap_or_else(|e| panic!("{arch}: golden source must compile: {e}"));
        out.push((format!("{arch}"), design));
    }
    out
}

#[test]
fn same_seed_same_corpus_coverage_and_verdict() {
    let (_, design) = archetype_designs().swap_remove(5); // FifoCtrl
    let compiled = Arc::new(CompiledDesign::compile(&design));
    let col = |name: &str| compiled.sig(name).map(|s| s.idx());
    let checker = CompiledChecker::new(&design.module, col).expect("checker");
    let oracle = Oracle { checker: &checker };
    let base = FuzzOptions {
        cycles: 10,
        reset_cycles: 2,
        budget: 64,
        seed: 0xDEED,
    };
    let a = fuzz(&compiled, &oracle, &base).expect("fuzz a");
    let b = fuzz(&compiled, &oracle, &base).expect("fuzz b");
    assert_eq!(a.verdict, b.verdict);
    assert_eq!(a.runs, b.runs);
    assert_eq!(a.coverage, b.coverage, "identical coverage map");
    assert_eq!(a.corpus_fingerprint, b.corpus_fingerprint);
    assert_eq!(a.corpus_size, b.corpus_size);
    let different = fuzz(
        &compiled,
        &oracle,
        &FuzzOptions {
            seed: 0xFEED,
            ..base
        },
    )
    .expect("fuzz d");
    assert_ne!(
        a.corpus_fingerprint, different.corpus_fingerprint,
        "a different seed must explore differently"
    );
}

#[test]
fn fuzz_failures_replay_on_the_interpreter_across_all_archetypes() {
    let verifier = Verifier {
        depth: 10,
        reset_cycles: 2,
        random_runs: 48,
        engine: Engine::Fuzz,
        ..Verifier::default()
    };
    let mut found = 0usize;
    for (label, design) in archetype_designs() {
        for (mi, mutation) in asv_mutation::enumerate(&design).iter().take(4).enumerate() {
            let Ok(injection) = asv_mutation::apply(&design, mutation) else {
                continue;
            };
            let Ok(buggy) = asv_verilog::compile(&injection.buggy_source) else {
                continue;
            };
            let tag = format!("{label}/mut{mi}");
            let verdict = match verifier.check(&buggy) {
                Ok(v) => v,
                // Mutations can create input-dependent divergence
                // (combinational loops); those are not fuzzable runs.
                Err(_) => continue,
            };
            let Verdict::Fails(cex) = verdict else {
                continue;
            };
            found += 1;
            // Replay the stimulus on both backends: bit-identical traces
            // and identical failure logs.
            let compiled = Arc::new(CompiledDesign::compile(&buggy));
            let mut csim = asv_sim::Simulator::from_compiled(Arc::clone(&compiled));
            let mut isim = AstSimulator::new(&buggy);
            for t in 0..cex.stimulus.len() {
                let inputs = cex.stimulus.cycle(t);
                csim.step(&inputs).unwrap_or_else(|e| panic!("{tag}: {e}"));
                isim.step(&inputs).unwrap_or_else(|e| panic!("{tag}: {e}"));
            }
            let ctrace = csim.into_trace();
            let itrace = isim.into_trace();
            assert_eq!(ctrace, itrace, "{tag}: backends must agree bit for bit");
            let ilogs = failure_logs(&buggy.module, &itrace).expect("monitor");
            assert_eq!(
                ilogs, cex.logs,
                "{tag}: interpreter oracle must reproduce the reported logs"
            );
        }
    }
    assert!(
        found >= 8,
        "expected the fuzzer to refute a healthy share of mutants, found {found}"
    );
}
