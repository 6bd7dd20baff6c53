//! Observability suite: tracing is an observer, never a participant.
//!
//! * **Verdict invariance** — the verdict vector of a mixed-archetype
//!   batch is bit-identical with tracing off and on, across worker
//!   counts {1, 2, 8}. Spans and metrics must not perturb scheduling,
//!   budgets, or any engine decision.
//! * **Bytecode invariance** — `CompiledDesign::compile_traced` produces
//!   identical bytecode under [`NoTrace`] and under a live [`Tracer`]:
//!   tracing observes lowering, it never participates in it.
//! * **Provenance** — a cache-cold 64-job batch through a traced service
//!   yields one [`JobReport`] per submission slot; engine-tier slots
//!   carry rungs with engine tags, end reasons and wall time, and the
//!   batch's raw events render to structurally valid Chrome-trace JSON
//!   and Prometheus exposition.

use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_mutation::inject::{apply, enumerate};
use asv_serve::{AnswerTier, ServeOptions, VerifyJob, VerifyService};
use asv_sim::CompiledDesign;
use asv_sva::bmc::{Engine, Verifier};
use asv_trace::{chrome_trace_json, NoTrace, TraceSink, Tracer};
use asv_verilog::sema::Design;
use std::sync::Arc;

fn bounds(engine: Engine) -> Verifier {
    Verifier {
        depth: 8,
        reset_cycles: 2,
        exhaustive_limit: 256,
        random_runs: 24,
        engine,
        ..Verifier::default()
    }
}

/// Golden + first-compilable-mutant designs covering every archetype.
fn archetype_designs() -> Vec<Design> {
    let designs = CorpusGen::new(0x7ACE_u64).generate(Archetype::ALL.len());
    let mut out = Vec::new();
    for gd in &designs {
        let golden = asv_verilog::compile(&gd.source)
            .unwrap_or_else(|e| panic!("{}: golden must compile: {e}", gd.name));
        if let Some(buggy) = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            asv_verilog::compile(&injection.buggy_source).ok()
        }) {
            out.push(buggy);
        }
        out.push(golden);
    }
    out
}

/// A 64-job batch mixing engines over the archetype pool, with in-batch
/// duplicates so the dedup tier is exercised too.
fn mixed_batch() -> Vec<VerifyJob> {
    let pool: Vec<Arc<Design>> = archetype_designs().into_iter().map(Arc::new).collect();
    let engines = [Engine::Auto, Engine::Simulation];
    (0..64)
        .map(|i| {
            VerifyJob::new(
                Arc::clone(&pool[i % pool.len()]),
                bounds(engines[i % engines.len()]),
            )
        })
        .collect()
}

#[test]
fn verdicts_identical_with_tracing_on_and_off_across_workers() {
    let jobs = mixed_batch();
    let reference = VerifyService::with_workers(1).verify_batch(&jobs);
    for workers in [1usize, 2, 8] {
        let plain = VerifyService::with_workers(workers);
        assert_eq!(
            plain.verify_batch(&jobs),
            reference,
            "untraced service with {workers} workers changed the verdict vector"
        );
        let traced = VerifyService::with_workers(workers).traced(Tracer::new());
        assert_eq!(
            traced.verify_batch(&jobs),
            reference,
            "traced service with {workers} workers changed the verdict vector"
        );
    }
}

#[test]
fn compiled_bytecode_is_identical_under_notrace_and_live_tracer() {
    for design in archetype_designs() {
        let silent = CompiledDesign::compile_traced(&design, &NoTrace);
        let tracer = Tracer::new();
        let live = CompiledDesign::compile_traced(&design, &tracer.handle());
        // Deterministic projections of the lowered program (the HashMap
        // signal index is excluded: its Debug order is seeded per
        // instance, not per content).
        assert_eq!(
            format!(
                "{:?}|{:?}|{:?}",
                silent.comb_steps(),
                silent.comb_order(),
                silent.seq_blocks()
            ),
            format!(
                "{:?}|{:?}|{:?}",
                live.comb_steps(),
                live.comb_order(),
                live.seq_blocks()
            ),
            "tracing changed the lowered bytecode"
        );
        assert!(
            !tracer.drain().is_empty(),
            "the live tracer must have observed the compile"
        );
    }
}

#[test]
fn cold_batch_reports_provenance_and_exports_cleanly() {
    let jobs = mixed_batch();
    let service = VerifyService::new(ServeOptions::default()).traced(Tracer::new());
    let (outcomes, reports, events) = service.verify_batch_traced(&jobs);
    assert_eq!(outcomes.len(), jobs.len());
    assert_eq!(reports.len(), jobs.len(), "one report per submission slot");
    assert!(!events.is_empty(), "a cold traced batch must emit events");

    let mut engine_slots = 0usize;
    for (i, r) in reports.iter().enumerate() {
        assert_eq!(r.key, jobs[i].key(), "report {i} keyed to wrong job");
        match r.tier {
            AnswerTier::Engine => {
                engine_slots += 1;
                assert!(!r.rungs.is_empty(), "engine-tier slot {i} has no rungs");
                assert!(r.wall_ns > 0, "engine-tier slot {i} has zero wall time");
                for rung in &r.rungs {
                    assert!(rung.wall_ns > 0, "rung with zero wall time in slot {i}");
                }
            }
            AnswerTier::Deduped | AnswerTier::Memo => {
                assert!(r.rungs.is_empty(), "non-engine slot {i} reports rungs");
            }
        }
    }
    assert!(engine_slots > 0, "cache-cold batch must reach the engines");

    // ≥ 2 engine families across the mixed batch.
    let families: std::collections::BTreeSet<&'static str> = reports
        .iter()
        .flat_map(|r| r.rungs.iter().map(|rung| rung.engine.slug()))
        .collect();
    assert!(
        families.len() >= 2,
        "expected ≥ 2 families, got {families:?}"
    );

    // Chrome-trace JSON: structurally an object with a traceEvents
    // array, one complete-duration record per event.
    let chrome = chrome_trace_json(&events);
    assert!(chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    assert_eq!(
        chrome.matches("\"ph\":\"X\"").count(),
        events.len(),
        "every event renders exactly one complete-duration record"
    );

    // Prometheus exposition: spans drove the span/rung counters, the
    // service drove the job counters, and every metric is typed.
    let dump = service.metrics().dump_prometheus();
    for needle in [
        "asv_jobs_submitted_total 64",
        "asv_jobs_executed_total",
        "asv_span_job_total",
        "asv_span_rung_total",
        "# TYPE asv_jobs_submitted_total counter",
    ] {
        assert!(
            dump.contains(needle),
            "exposition missing {needle}:\n{dump}"
        );
    }
    let executed = service
        .metrics()
        .counter_value("asv_jobs_executed_total")
        .unwrap_or(0);
    assert_eq!(
        executed as usize, engine_slots,
        "executed == engine-tier slots"
    );

    // Warm re-submission: memo tier only, no new rungs, verdicts stable.
    let (warm, warm_reports) = service.verify_batch_reported(&jobs);
    assert_eq!(warm, outcomes, "memoised verdicts drifted");
    assert!(warm_reports
        .iter()
        .all(|r| matches!(r.tier, AnswerTier::Memo | AnswerTier::Deduped)));
    assert!(warm_reports.iter().all(|r| r.rungs.is_empty()));
}

#[test]
fn notrace_spans_read_no_clock_and_emit_nothing() {
    // The inert sink's span is a pure ZST dance: no event can surface
    // anywhere. (The zero-*cost* claim is enforced by monomorphization —
    // this guards the observable half: silence.)
    let sink = NoTrace;
    let mut span = sink.span("sat.solve", asv_trace::SpanKind::SatSolve);
    span.set_code(7);
    span.add_cost(asv_trace::Cost {
        conflicts: 3,
        ..asv_trace::Cost::default()
    });
    drop(span);
    // A disabled handle behaves identically and is what every untraced
    // engine entry point passes down.
    let handle = asv_trace::TraceHandle::disabled();
    assert!(!handle.is_enabled());
    let mut span = handle.span("sat.solve", asv_trace::SpanKind::SatSolve);
    span.set_end(asv_trace::EndReason::Holds);
}
