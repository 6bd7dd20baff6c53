//! The batched verification job service.
//!
//! [`VerifyService::verify_batch`] takes a slice of [`VerifyJob`]s and
//! returns their outcomes **in submission order**. Internally:
//!
//! 1. jobs are deduplicated by the [`JobKey`] each computed when it was
//!    built — only the first occurrence of a key is executed, later
//!    occurrences clone its verdict, sharing any counterexample (repair
//!    evaluation submits the same patched design many times across the
//!    20-sample protocol);
//! 2. keys already in the [`VerdictCache`] are answered in O(hash);
//! 3. the remaining jobs go to a self-scheduling worker pool: each
//!    worker claims the next unclaimed job from a shared atomic cursor,
//!    so a batch mixing microsecond enumerations with millisecond
//!    symbolic proofs stays load-balanced without any up-front
//!    partitioning (idle workers steal whatever is left);
//! 4. results land in their submission slot and *cacheable* verdicts are
//!    memoised.
//!
//! Every engine is deterministic in `(design, Verifier)`, outcomes are
//! keyed per job, and the collection order is the submission order — so
//! the returned vector is a pure function of the batch, whatever the
//! worker count and however the OS schedules the workers.
//!
//! ## Failure semantics
//!
//! The service is fault-tolerant per job:
//!
//! * each job runs under its own [`Budget`]: the service's trace handle
//!   tagged with the job key and, under the `fault-inject` feature, a
//!   per-job fault session from [`ServeOptions::fault_plan`] salted by
//!   the job key;
//! * every engine invocation is wrapped in `catch_unwind`: a panicking
//!   job yields [`VerdictError::Panic`] in its own slot and its batch
//!   siblings are untouched;
//! * only *deterministic* outcomes are memoised — verdicts and
//!   [`VerdictError::Verify`] errors, which are pure functions of the
//!   job key. `Inconclusive` verdicts, panics and exhaustion may come
//!   from injected faults and are never cached, so a degraded run can
//!   never poison a later, healthier one;
//! * each job takes one verdict path: in-batch dedup, a memo hit, or an
//!   engine run whose cacheable outcome is memoised. Two batches that
//!   threads submit to one service at once may both run a key that
//!   neither found in the memo; the engine is deterministic in the key
//!   and the memo insert is idempotent, so both get the same outcome.

use crate::cache::VerdictCache;
use crate::job::{JobKey, JobOutcome, VerdictError, VerifyJob};
use crate::report::{assemble_reports, AnswerTier, JobReport};
use asv_sim::cancel::Budget;
use asv_sim::FaultPlan;
use asv_sva::bmc::Verdict;
use asv_trace::{probe, Counter, EndReason, Registry, SpanKind, TraceHandle, TraceSink, Tracer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Service configuration. The default runs one worker per core with no
/// fault injection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads; 0 means `std::thread::available_parallelism`.
    pub workers: usize,
    /// Deterministic fault-injection plan for the chaos suite. Each job
    /// gets a session salted by [`JobKey::fault_salt`], so the fault
    /// schedule is a pure function of `(plan, job)` — independent of
    /// worker count and scheduling. Inert unless the `fault-inject`
    /// feature is enabled (probes compile to `Ok(())`).
    pub fault_plan: Option<FaultPlan>,
}

/// Cumulative service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs submitted across all batches (including duplicates and
    /// cache hits).
    pub submitted: u64,
    /// Jobs that actually ran an engine.
    pub executed: u64,
    /// Jobs answered from the verdict memo.
    pub memo_hits: u64,
    /// Jobs answered by in-batch deduplication.
    pub deduped: u64,
    /// Always 0: the service has no persistent store tier. Kept so that
    /// callers building `ServeStats` field by field still compile.
    pub store_hits: u64,
    /// Always 0 (see `store_hits`).
    pub store_misses: u64,
    /// Always 0 (see `store_hits`).
    pub store_puts: u64,
}

/// A verification job service with sharded verdict memoisation.
///
/// Counters are [`Counter`] views over the service's private metrics
/// [`Registry`] (one registry per service keeps concurrent services and
/// tests isolated): [`VerifyService::stats`] and a
/// [`Registry::dump_prometheus`] scrape read the same values from one
/// bookkeeping site. An optional [`Tracer`] (see
/// [`VerifyService::traced`]) adds structured spans and per-job
/// [`JobReport`] provenance on top.
pub struct VerifyService {
    opts: ServeOptions,
    registry: Registry,
    tracer: Option<Tracer>,
    verdicts: VerdictCache,
    submitted: Counter,
    executed: Counter,
    memo_hits: Counter,
    deduped: Counter,
}

/// True if `outcome` is a pure function of the job key and may be
/// memoised. Degraded outcomes (inconclusive verdicts, panics, budget
/// exhaustion) may come from injected faults — caching one would poison
/// every later call with this key.
fn cacheable(outcome: &JobOutcome) -> bool {
    match outcome {
        Ok(Verdict::Inconclusive { .. }) => false,
        Ok(_) => true,
        Err(VerdictError::Verify(_)) => true,
        Err(_) => false,
    }
}

/// Renders a caught panic payload for [`VerdictError::Panic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(injected) = payload.downcast_ref::<asv_sim::fault::InjectedPanic>() {
        format!("injected fault at probe `{}`", injected.0)
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// [`EndReason`] of a finished job, recorded on its `serve.job` span.
fn job_end(outcome: &JobOutcome) -> EndReason {
    match outcome {
        Ok(Verdict::Holds { .. }) => EndReason::Holds,
        Ok(Verdict::Fails(_)) => EndReason::Fails,
        Ok(Verdict::Inconclusive { .. }) => EndReason::Exhausted,
        Err(VerdictError::Panic(_)) => EndReason::Panicked,
        Err(VerdictError::Exhausted(_)) => EndReason::Exhausted,
        Err(VerdictError::Verify(_)) => EndReason::Unknown,
    }
}

/// Runs one job under `budget`, catching panics so one bad job never
/// takes down its worker (or the batch).
fn run_job(job: &VerifyJob, budget: &Budget) -> JobOutcome {
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        job.verifier().check_budgeted(job.design(), budget)
    }));
    match unwound {
        Ok(Ok(verdict)) => Ok(verdict),
        Ok(Err(e)) => Err(VerdictError::from(e)),
        Err(payload) => Err(VerdictError::Panic(panic_message(payload.as_ref()))),
    }
}

impl VerifyService {
    /// Creates a service.
    pub fn new(opts: ServeOptions) -> Self {
        let registry = Registry::new();
        VerifyService {
            verdicts: VerdictCache::with_registry(&registry),
            submitted: registry.counter(
                "asv_jobs_submitted_total",
                "Jobs submitted across all batches (duplicates and cache hits included)",
            ),
            executed: registry.counter("asv_jobs_executed_total", "Jobs that ran an engine"),
            memo_hits: registry.counter(
                "asv_jobs_memo_hits_total",
                "Jobs answered from the verdict memo",
            ),
            deduped: registry.counter(
                "asv_jobs_deduped_total",
                "Jobs answered by in-batch deduplication",
            ),
            registry,
            tracer: None,
            opts,
        }
    }

    /// Attaches a [`Tracer`]: engines emit spans into it, span-derived
    /// metrics land in this service's registry, and
    /// [`VerifyService::verify_batch_reported`] can assemble per-job
    /// provenance. Tracing never affects verdicts — only observes them.
    pub fn traced(mut self, tracer: Tracer) -> Self {
        tracer.bind_metrics(&self.registry);
        self.tracer = Some(tracer);
        self
    }

    /// This service's metrics registry (scrape with
    /// [`Registry::dump_prometheus`] or [`Registry::dump_json`]).
    pub fn metrics(&self) -> &Registry {
        &self.registry
    }

    /// The root trace handle jobs derive from (disabled when no tracer
    /// is attached — all span emission compiles down to no-ops).
    fn trace_handle(&self) -> TraceHandle {
        self.tracer
            .as_ref()
            .map_or_else(TraceHandle::disabled, Tracer::handle)
    }

    /// A service with an explicit worker count (0 = all cores).
    pub fn with_workers(workers: usize) -> Self {
        Self::new(ServeOptions {
            workers,
            ..ServeOptions::default()
        })
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        if self.opts.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.opts.workers
        }
    }

    /// Builds the per-job budget: the job's fault session, if the
    /// service has a plan, and its trace handle. The trace handle is
    /// observational only, so traced and untraced runs take identical
    /// paths.
    fn job_budget(&self, key: JobKey) -> Budget {
        let mut budget = Budget::unbounded();
        if let Some(plan) = self.opts.fault_plan {
            budget = budget.with_fault(plan.session(key.fault_salt()));
        }
        budget.with_trace(self.trace_handle().for_job(key.0))
    }

    /// Executes one pending job under the per-job budget and memoises a
    /// cacheable outcome.
    fn execute(&self, job: &VerifyJob) -> JobOutcome {
        self.executed.inc();
        let outcome = self.run_job_traced(job);
        if cacheable(&outcome) {
            self.verdicts.insert(job.key(), outcome.clone());
        }
        outcome
    }

    /// [`run_job`] under a `serve.job` span carrying the outcome's
    /// [`EndReason`] — the root of the job's trace tree.
    fn run_job_traced(&self, job: &VerifyJob) -> JobOutcome {
        let trace = self.trace_handle().for_job(job.key().0);
        let mut span = trace.span(probe::SERVE_JOB, SpanKind::Job);
        let outcome = run_job(job, &self.job_budget(job.key()));
        span.set_end(job_end(&outcome));
        outcome
    }

    /// Verifies one job (a batch of one).
    pub fn verify_one(&self, job: &VerifyJob) -> JobOutcome {
        self.verify_batch(std::slice::from_ref(job))
            .pop()
            .expect("one job in, one outcome out")
    }

    /// Verifies a batch, returning outcomes in submission order. A job
    /// that errors (panics, exhausts its budget) fills only its own slot
    /// — the rest of the batch completes normally.
    ///
    /// The result vector is deterministic in the batch: worker count and
    /// scheduling change wall time only. Jobs sharing a [`JobKey`] are
    /// executed once.
    pub fn verify_batch(&self, jobs: &[VerifyJob]) -> Vec<JobOutcome> {
        self.verify_batch_tiered(jobs)
            .into_iter()
            .map(|(outcome, _)| outcome)
            .collect()
    }

    /// [`VerifyService::verify_batch`] plus per-job provenance: one
    /// [`JobReport`] per submission slot recording which tier answered,
    /// which ladder rungs ran (with engine, end reason, wall time, and
    /// engine-tagged resource costs), and the engine wall time.
    ///
    /// Rung detail requires an attached tracer ([`VerifyService::traced`])
    /// and drains its event buffer, so interleaving this call with other
    /// traced batches on the same service attributes spans to whichever
    /// call drains first. Without a tracer the reports still carry
    /// correct tiers — the rung lists are simply empty.
    pub fn verify_batch_reported(&self, jobs: &[VerifyJob]) -> (Vec<JobOutcome>, Vec<JobReport>) {
        let (outcomes, reports, _) = self.verify_batch_traced(jobs);
        (outcomes, reports)
    }

    /// [`VerifyService::verify_batch_reported`] plus the raw trace
    /// events the batch emitted, for export (e.g. to
    /// [`asv_trace::chrome_trace_json`]). Empty without a tracer.
    pub fn verify_batch_traced(
        &self,
        jobs: &[VerifyJob],
    ) -> (Vec<JobOutcome>, Vec<JobReport>, Vec<asv_trace::Event>) {
        let tiered = self.verify_batch_tiered(jobs);
        let events = self.tracer.as_ref().map(Tracer::drain).unwrap_or_default();
        let tiers: Vec<AnswerTier> = tiered.iter().map(|(_, tier)| *tier).collect();
        let keys: Vec<JobKey> = jobs.iter().map(VerifyJob::key).collect();
        let reports = assemble_reports(&keys, &tiers, &events);
        (
            tiered.into_iter().map(|(outcome, _)| outcome).collect(),
            reports,
            events,
        )
    }

    /// The batch pipeline, returning each slot's outcome and the tier
    /// that answered it.
    fn verify_batch_tiered(&self, jobs: &[VerifyJob]) -> Vec<(JobOutcome, AnswerTier)> {
        self.submitted.add(jobs.len() as u64);
        let root_trace = self.trace_handle();
        let mut results: Vec<Option<(JobOutcome, AnswerTier)>> = vec![None; jobs.len()];
        // In-batch dedup: first submission index per key runs the job.
        let mut first_of: HashMap<JobKey, usize> = HashMap::with_capacity(jobs.len());
        let mut owners: Vec<usize> = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            owners.push(*first_of.entry(job.key()).or_insert(i));
        }
        // Memo lookups for the unique jobs.
        let mut pending: Vec<usize> = Vec::new();
        for (i, &owner) in owners.iter().enumerate() {
            if owner != i {
                continue; // duplicate; filled from its owner below
            }
            let key = jobs[i].key();
            if let Some(hit) = self.verdicts.get(key) {
                self.memo_hits.inc();
                root_trace.for_job(key.0).instant(
                    probe::SERVE_MEMO,
                    SpanKind::MemoLookup,
                    1, // hit
                    asv_trace::Cost::default(),
                );
                results[i] = Some((hit, AnswerTier::Memo));
                continue;
            }
            // The miss is observable too: deterministic cost accounting
            // (asv_trace::cost) reads hit *and* miss counts off the event
            // stream alone.
            root_trace.for_job(key.0).instant(
                probe::SERVE_MEMO,
                SpanKind::MemoLookup,
                0, // miss
                asv_trace::Cost::default(),
            );
            pending.push(i);
        }
        // Self-scheduling pool over the pending jobs.
        if !pending.is_empty() {
            let workers = self.workers().min(pending.len()).max(1);
            let cursor = AtomicUsize::new(0);
            let mut per_worker: Vec<Vec<(usize, JobOutcome)>> = Vec::with_capacity(workers);
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(workers);
                for _ in 0..workers {
                    let cursor = &cursor;
                    let pending = &pending;
                    handles.push(scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            let at = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&job_idx) = pending.get(at) else {
                                break;
                            };
                            done.push((job_idx, self.execute(&jobs[job_idx])));
                        }
                        done
                    }));
                }
                for h in handles {
                    // Engine panics are caught inside `execute`; a panic
                    // escaping here is a bug in the service itself.
                    per_worker.push(h.join().expect("verification worker panicked"));
                }
            });
            for (job_idx, outcome) in per_worker.into_iter().flatten() {
                results[job_idx] = Some((outcome, AnswerTier::Engine));
            }
        }
        // Copy duplicates from their owners, in submission order.
        for i in 0..jobs.len() {
            if results[i].is_none() {
                let owner = owners[i];
                self.deduped.inc();
                let outcome = results[owner]
                    .as_ref()
                    .expect("owner job resolved before its duplicates")
                    .0
                    .clone();
                results[i] = Some((outcome, AnswerTier::Deduped));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot resolved"))
            .collect()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.get(),
            executed: self.executed.get(),
            memo_hits: self.memo_hits.get(),
            deduped: self.deduped.get(),
            store_hits: 0,
            store_misses: 0,
            store_puts: 0,
        }
    }

    /// The verdict memo (benchmarks clear it between cold runs).
    pub fn verdict_cache(&self) -> &VerdictCache {
        &self.verdicts
    }
}

impl Default for VerifyService {
    fn default() -> Self {
        Self::new(ServeOptions::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::cancel::{Exhausted, Resource};
    use asv_sva::bmc::{CounterExample, Engine, TriedEngine, Verdict, Verifier, VerifyError};
    use asv_verilog::sema::Design;
    use std::collections::HashSet;

    fn design(follow: bool, tag: u64) -> Design {
        let rhs = if follow { "d" } else { "!d" };
        asv_verilog::compile(&format!(
            "module m{tag}(input clk, input rst_n, input d, output reg q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 1'b0; else q <= {rhs};\n\
             end\n\
             p: assert property (@(posedge clk) disable iff (!rst_n) d |-> ##1 q);\n\
             endmodule"
        ))
        .expect("compile")
    }

    fn batch(n: usize, engine: Engine) -> Vec<VerifyJob> {
        let verifier = Verifier {
            depth: 6,
            engine,
            ..Verifier::default()
        };
        (0..n)
            .map(|i| VerifyJob::new(design(i % 3 != 0, (i % 5) as u64), verifier))
            .collect()
    }

    #[test]
    fn outcomes_follow_submission_order() {
        let service = VerifyService::default();
        let jobs = batch(10, Engine::Auto);
        let out = service.verify_batch(&jobs);
        assert_eq!(out.len(), 10);
        for (i, o) in out.iter().enumerate() {
            let fails = i % 3 == 0;
            match o.as_ref().expect("verdict") {
                Verdict::Fails(_) => assert!(fails, "job {i} must hold"),
                Verdict::Holds { .. } => assert!(!fails, "job {i} must fail"),
                Verdict::Inconclusive { tried } => panic!("unexpected inconclusive: {tried:?}"),
            }
        }
    }

    #[test]
    fn verdicts_are_identical_across_worker_counts() {
        let jobs = batch(12, Engine::Auto);
        let reference = VerifyService::with_workers(1).verify_batch(&jobs);
        for workers in [2, 8] {
            let out = VerifyService::with_workers(workers).verify_batch(&jobs);
            assert_eq!(out, reference, "worker count {workers} changed verdicts");
        }
    }

    #[test]
    fn batch_deduplicates_identical_jobs() {
        let service = VerifyService::default();
        let one = batch(1, Engine::Auto).remove(0);
        let jobs: Vec<VerifyJob> = (0..20).map(|_| one.clone()).collect();
        let out = service.verify_batch(&jobs);
        assert!(out.iter().all(|o| o == &out[0]));
        let stats = service.stats();
        assert_eq!(stats.executed, 1, "one engine run for 20 identical jobs");
        assert_eq!(stats.deduped, 19);
    }

    #[test]
    fn memo_answers_repeat_batches_without_executing() {
        let service = VerifyService::default();
        let jobs = batch(6, Engine::Auto);
        let first = service.verify_batch(&jobs);
        let executed_cold = service.stats().executed;
        let second = service.verify_batch(&jobs);
        assert_eq!(first, second, "memoised verdicts must be bit-identical");
        assert_eq!(
            service.stats().executed,
            executed_cold,
            "warm batch must not run any engine"
        );
        assert!(service.stats().memo_hits > 0);
    }

    #[test]
    fn cold_batch_counts_one_memo_miss_per_executed_job() {
        let jobs = batch(4, Engine::Auto);
        let distinct: HashSet<JobKey> = jobs.iter().map(VerifyJob::key).collect();
        assert_eq!(distinct.len(), 4, "the batch must hold 4 distinct jobs");
        let service = VerifyService::default().traced(asv_trace::Tracer::new());
        let (_, _, events) = service.verify_batch_traced(&jobs);
        assert_eq!(service.stats().executed, 4);
        assert_eq!(service.verdict_cache().stats().misses, 4);
        assert_eq!(
            service.metrics().counter_value("asv_memo_misses_total"),
            Some(4)
        );
        assert_eq!(asv_trace::CostCounters::from_events(&events).memo_misses, 4);
    }

    #[test]
    fn concurrent_batches_on_one_service_match_a_one_worker_run() {
        let jobs = batch(12, Engine::Auto);
        let reference = VerifyService::with_workers(1).verify_batch(&jobs);
        let service = VerifyService::with_workers(2);
        // Both threads submit once both exist, so their batches overlap.
        let start = std::sync::Barrier::new(2);
        let outs: Vec<Vec<JobOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        service.verify_batch(&jobs)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitting thread"))
                .collect()
        });
        for out in &outs {
            assert_eq!(out, &reference);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 2 * jobs.len() as u64);
        assert_eq!(
            stats.executed + stats.memo_hits + stats.deduped,
            stats.submitted
        );
    }

    #[test]
    fn no_assertions_error_propagates_per_job() {
        let d =
            asv_verilog::compile("module n(input a, output y); assign y = a; endmodule").unwrap();
        let service = VerifyService::default();
        let out = service.verify_one(&VerifyJob::new(d, Verifier::default()));
        assert_eq!(out, Err(VerdictError::Verify(VerifyError::NoAssertions)));
    }

    #[test]
    fn deterministic_errors_are_memoised_but_degraded_outcomes_are_not() {
        let d =
            asv_verilog::compile("module n(input a, output y); assign y = a; endmodule").unwrap();
        let service = VerifyService::default();
        let job = VerifyJob::new(d, Verifier::default());
        let cold = service.verify_one(&job);
        assert!(matches!(cold, Err(VerdictError::Verify(_))));
        let warm = service.verify_one(&job);
        assert_eq!(cold, warm);
        assert!(
            service.stats().memo_hits >= 1,
            "deterministic errors memoise like verdicts"
        );
    }

    #[test]
    fn mixed_ok_and_error_batches_fill_every_slot() {
        let verifier = Verifier {
            depth: 6,
            ..Verifier::default()
        };
        let holds = VerifyJob::new(design(true, 0), verifier);
        let empty =
            asv_verilog::compile("module n(input a, output y); assign y = a; endmodule").unwrap();
        let broken = VerifyJob::new(empty, verifier);
        let service = VerifyService::default();
        let out = service.verify_batch(&[holds.clone(), broken.clone(), holds, broken]);
        assert_eq!(out.len(), 4);
        assert!(matches!(&out[0], Ok(Verdict::Holds { .. })));
        assert_eq!(out[1], Err(VerdictError::Verify(VerifyError::NoAssertions)));
        assert_eq!(out[2], out[0]);
        assert_eq!(out[3], out[1]);
    }

    #[test]
    fn only_deterministic_outcomes_are_cacheable() {
        let exhausted = Exhausted {
            resource: Resource::SatConflicts,
            spent: 4,
            limit: 4,
        };
        let inconclusive = Verdict::Inconclusive {
            tried: vec![TriedEngine {
                engine: Engine::Symbolic,
                reason: exhausted.to_string(),
                exhausted: Some(exhausted),
            }],
        };
        let holds = Verdict::Holds {
            exhaustive: true,
            stimuli: 0,
            vacuous: vec![],
        };
        let fails = Verdict::Fails(std::sync::Arc::new(CounterExample {
            stimulus: asv_sim::Stimulus {
                vectors: vec![],
                reset_cycles: 0,
            },
            failures: vec![],
            logs: vec![],
        }));
        assert!(!cacheable(&Ok(inconclusive)));
        assert!(!cacheable(&Err(VerdictError::Panic("boom".into()))));
        assert!(!cacheable(&Err(VerdictError::Exhausted(exhausted))));
        assert!(cacheable(&Ok(holds)));
        assert!(cacheable(&Ok(fails)));
        assert!(cacheable(&Err(VerdictError::Verify(
            VerifyError::NoAssertions
        ))));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_exhaustion_on_forced_engine_is_not_memoised() {
        use asv_sim::{FaultKinds, FaultPlan};
        let plan = FaultPlan {
            rate_per_1024: 1024,
            victims_per_16: 16,
            kinds: FaultKinds::EXHAUST,
            ..FaultPlan::new(13)
        };
        let service = VerifyService::new(ServeOptions {
            fault_plan: Some(plan),
            ..ServeOptions::default()
        });
        let out = service.verify_one(&batch(1, Engine::Symbolic).remove(0));
        match out {
            Err(VerdictError::Exhausted(e)) => assert_eq!(e.resource, Resource::Injected),
            other => panic!("expected injected exhaustion, got {other:?}"),
        }
        assert!(
            service.verdict_cache().is_empty(),
            "degraded outcomes must not be memoised"
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_panics_in_forced_engines_are_isolated_per_job() {
        use asv_sim::{FaultKinds, FaultPlan};
        asv_sim::fault::silence_injected_panics();
        let plan = FaultPlan {
            rate_per_1024: 1024,
            victims_per_16: 16,
            kinds: FaultKinds::PANIC,
            ..FaultPlan::new(11)
        };
        let service = VerifyService::new(ServeOptions {
            fault_plan: Some(plan),
            ..ServeOptions::default()
        });
        let jobs = batch(4, Engine::Fuzz);
        let out = service.verify_batch(&jobs);
        for (i, o) in out.iter().enumerate() {
            match o {
                Err(VerdictError::Panic(m)) => assert!(
                    m.contains("injected fault at probe"),
                    "job {i}: unexpected panic message {m:?}"
                ),
                other => panic!("job {i}: expected isolated panic, got {other:?}"),
            }
        }
        assert!(
            service.verdict_cache().is_empty(),
            "panic outcomes must not be memoised"
        );
        // The service survives and still answers healthy jobs.
        let healthy = VerifyService::default().verify_batch(&batch(2, Engine::Auto));
        assert!(healthy.iter().all(|o| o.is_ok()));
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(VerifyService::default().verify_batch(&[]).is_empty());
    }

    #[test]
    fn traced_batches_report_provenance_and_identical_verdicts() {
        let jobs = batch(8, Engine::Auto);
        let untraced = VerifyService::default().verify_batch(&jobs);
        let service = VerifyService::default().traced(asv_trace::Tracer::new());
        let (out, reports) = service.verify_batch_reported(&jobs);
        assert_eq!(out, untraced, "tracing must never change verdicts");
        assert_eq!(reports.len(), jobs.len());
        // Cold batch: every unique job ran an engine and has rung detail.
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.key, jobs[i].key());
            match r.tier {
                crate::report::AnswerTier::Engine => {
                    assert!(!r.rungs.is_empty(), "slot {i}: engine run without rungs");
                    assert!(r.wall_ns > 0, "slot {i}: engine run without wall time");
                }
                crate::report::AnswerTier::Deduped => assert!(r.rungs.is_empty()),
                other => panic!("slot {i}: unexpected tier {other:?} on a cold batch"),
            }
        }
        // A warm repeat answers from the memo — no rungs anywhere.
        let (_, warm) = service.verify_batch_reported(&jobs);
        assert!(warm.iter().all(|r| matches!(
            r.tier,
            crate::report::AnswerTier::Memo | crate::report::AnswerTier::Deduped
        )));
        assert!(warm.iter().all(|r| r.rungs.is_empty()));
        // Span-derived metrics landed in the service registry.
        let dump = service.metrics().dump_prometheus();
        assert!(dump.contains("asv_jobs_executed_total"));
        assert!(dump.contains("asv_span_job_total"));
    }
}
