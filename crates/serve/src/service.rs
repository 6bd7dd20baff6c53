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
//! 3. the remaining jobs go to the workspace's one worker pool,
//!    [`asv_sim::pool::map`]: each worker claims the next unclaimed job
//!    from a shared atomic cursor, so a batch mixing microsecond
//!    enumerations with millisecond symbolic proofs stays load-balanced
//!    without any up-front partitioning, and the outcomes come back in
//!    order, re-homed on the calling thread. A batch with one pending
//!    job runs it inline, and a batch answered wholly by dedup and the
//!    memo starts no thread;
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
//! * each job's check emits its spans through the service's trace handle
//!   tagged with the job key;
//! * each check runs behind one `catch_unwind` barrier, the only one in
//!   the stack: a panicking job yields [`VerdictError::Panic`] in its own
//!   slot and its batch siblings are untouched;
//! * only verdicts and [`VerdictError::Verify`] errors are memoised. A
//!   panic or a spent `BmcOptions` cap is the engine failing, not a
//!   verdict on the design, so it is never cached and a later
//!   submission of the key runs the engine again;
//! * each job takes one verdict path: in-batch dedup, a memo hit, or an
//!   engine run whose cacheable outcome is memoised. Two batches that
//!   threads submit to one service at once may both run a key that
//!   neither found in the memo; the engine is deterministic in the key
//!   and the memo insert is idempotent, so both get the same outcome.

use crate::cache::VerdictCache;
use crate::job::{JobKey, JobOutcome, VerdictError, VerifyJob};
use crate::report::{assemble_reports, AnswerTier, JobReport};
use asv_sim::pool;
use asv_sva::bmc::{Verdict, VerifyError};
use asv_trace::{probe, Counter, EndReason, Registry, SpanKind, TraceHandle, TraceSink, Tracer};
use std::collections::HashMap;

/// Service configuration. The default runs one worker per core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads; 0 means one per core ([`asv_sim::pool::cores`]).
    pub workers: usize,
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

/// True if `outcome` may be memoised: a verdict or a
/// [`VerdictError::Verify`] error. A panic or a spent cap is the engine
/// failing rather than a verdict on the design, so it is not kept.
fn cacheable(outcome: &JobOutcome) -> bool {
    matches!(outcome, Ok(_) | Err(VerdictError::Verify(_)))
}

/// Renders a caught panic payload for [`VerdictError::Panic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
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
        Ok(Verdict::Inconclusive {}) => EndReason::Exhausted,
        Err(VerdictError::Panic(_)) => EndReason::Panicked,
        Err(VerdictError::Exhausted(_)) => EndReason::Exhausted,
        Err(VerdictError::Verify(_)) => EndReason::Unknown,
    }
}

/// Runs `check` behind the service's panic barrier, so one bad job
/// never takes down its worker (or the batch): a panic becomes
/// [`VerdictError::Panic`] carrying the rendered payload.
///
/// A check builds everything it touches from its own job (it lowers its
/// own design), so unwinding out of it leaves no shared state half
/// updated — `AssertUnwindSafe` is sound here.
fn isolated(check: impl FnOnce() -> Result<Verdict, VerifyError>) -> JobOutcome {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)) {
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
        Self::new(ServeOptions { workers })
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        if self.opts.workers == 0 {
            pool::cores()
        } else {
            self.opts.workers
        }
    }

    /// Executes one pending job and memoises a cacheable outcome.
    fn execute(&self, job: &VerifyJob) -> JobOutcome {
        self.executed.inc();
        let outcome = self.run_job_traced(job);
        if cacheable(&outcome) {
            self.verdicts.insert(job.key(), outcome.clone());
        }
        outcome
    }

    /// Checks one job behind the panic barrier ([`isolated`]), under a
    /// `serve.job` span carrying the outcome's [`EndReason`] — the root
    /// of the job's trace tree. The job's engines trace through the same
    /// job-tagged handle; it only observes, so traced and untraced runs
    /// take identical paths.
    fn run_job_traced(&self, job: &VerifyJob) -> JobOutcome {
        let trace = self.trace_handle().for_job(job.key().0);
        let mut span = trace.span(probe::SERVE_JOB, SpanKind::Job);
        let outcome = isolated(|| job.verifier().check_traced(job.design(), &trace));
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
    /// that errors (panics, spends a cap) fills only its own slot
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
    /// which rungs ran (with engine, end reason, wall time, and
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
        // The pending jobs on the workspace's one worker pool. Engine
        // panics are caught inside `execute`.
        let outcomes = pool::map(&pending, self.workers(), |&i| self.execute(&jobs[i]));
        for (job_idx, outcome) in pending.into_iter().zip(outcomes) {
            results[job_idx] = Some((outcome, AnswerTier::Engine));
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
    use asv_sva::bmc::{CounterExample, Engine, Verifier};
    use asv_trace::EngineTag;
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
                Verdict::Inconclusive {} => panic!("unexpected inconclusive verdict"),
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

    /// `e2ebench` reads the process-wide lowering count to check that a
    /// cold pass lowered designs, and calls `clear_design_cache` before
    /// each cold pass: both must keep meaning what they did.
    #[test]
    fn cold_batch_lowers_every_distinct_job_and_clearing_changes_no_verdict() {
        let jobs = batch(6, Engine::Auto);
        let distinct: HashSet<JobKey> = jobs.iter().map(VerifyJob::key).collect();
        assert_eq!(distinct.len(), 6, "the batch must hold 6 distinct jobs");
        let lowerings = || asv_sim::cache::global().stats();
        let before = lowerings().1;
        let first = VerifyService::default().verify_batch(&jobs);
        // Sibling tests lower designs in this process too, so the count
        // is only bounded below.
        let lowered = lowerings().1 - before;
        assert!(
            lowered >= 6,
            "6 distinct cold jobs lowered {lowered} designs"
        );
        assert_eq!(lowerings().0, 0, "nothing is reused");
        crate::clear_design_cache();
        let second = VerifyService::default().verify_batch(&jobs);
        assert_eq!(first, second, "clearing must change no verdict");
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
        assert!(!cacheable(&Err(VerdictError::Panic("boom".into()))));
        assert!(!cacheable(&Err(VerdictError::Exhausted(exhausted))));
        assert!(cacheable(&Ok(holds)));
        assert!(cacheable(&Ok(fails)));
        assert!(cacheable(&Err(VerdictError::Verify(
            VerifyError::NoAssertions
        ))));
    }

    #[test]
    fn a_panicking_check_fills_its_slot_and_is_not_memoised() {
        let literal = isolated(|| panic!("engine bug"));
        assert_eq!(literal, Err(VerdictError::Panic("engine bug".into())));
        assert!(!cacheable(&literal));
        let formatted = isolated(|| panic!("engine bug at depth {}", 3));
        assert_eq!(
            formatted,
            Err(VerdictError::Panic("engine bug at depth 3".into()))
        );
        let opaque = isolated(|| std::panic::panic_any(7_u32));
        assert_eq!(
            opaque,
            Err(VerdictError::Panic("opaque panic payload".into()))
        );
        // Outcomes that return pass through the barrier unchanged.
        assert_eq!(
            isolated(|| Err(VerifyError::NoAssertions)),
            Err(VerdictError::Verify(VerifyError::NoAssertions))
        );
    }

    /// A 16-bit latch-style design with a rare trigger: outside the
    /// symbolic subset, and too wide to enumerate.
    const LATCH_RARE: &str = r#"
module lrare(input clk, input rst_n, input [15:0] a, output reg bad);
  reg shadow;
  always @(*) begin if (a[0]) shadow = a[1]; end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) bad <= 1'b0;
    else bad <= (a == 16'hBEEF);
  end
  p_rare: assert property (@(posedge clk) disable iff (!rst_n)
    a == 16'hBEEF |-> ##1 !bad) else $error("rare trigger");
endmodule
"#;

    /// A latch with one 1-bit input, outside the symbolic subset: 2^8
    /// stimuli over reset and a depth of 6.
    fn latch() -> Design {
        asv_verilog::compile(
            "module lat(input clk, input d, output reg q);\n\
             always @(*) begin if (d) q = 1'b1; end\n\
             p: assert property (@(posedge clk) 1'b1 |-> 1'b1);\nendmodule",
        )
        .expect("compile")
    }

    /// One job's outcome and `(engine, end)` rungs on a traced service.
    fn traced_rungs(
        design: Design,
        verifier: Verifier,
    ) -> (JobOutcome, Vec<(EngineTag, EndReason)>) {
        let service = VerifyService::default().traced(asv_trace::Tracer::new());
        let (mut out, reports) = service.verify_batch_reported(&[VerifyJob::new(design, verifier)]);
        let rungs = reports[0].rungs.iter().map(|r| (r.engine, r.end)).collect();
        (out.remove(0), rungs)
    }

    #[test]
    fn auto_runs_symbolic_then_at_most_one_concrete_rung() {
        let rungs = |design: Design, verifier: Verifier| -> Vec<(EngineTag, EndReason)> {
            let (out, rungs) = traced_rungs(design, verifier);
            assert!(out.is_ok(), "{out:?}");
            rungs
        };
        let verifier = Verifier {
            depth: 6,
            ..Verifier::default()
        };
        assert_eq!(
            rungs(design(true, 0), verifier),
            [(EngineTag::Symbolic, EndReason::Holds)]
        );
        assert_eq!(
            rungs(latch(), verifier),
            [
                (EngineTag::Symbolic, EndReason::Unsupported),
                (EngineTag::Enumeration, EndReason::Holds)
            ]
        );
        let wide = Verifier {
            depth: 8,
            random_runs: 64,
            ..Verifier::default()
        };
        assert_eq!(
            rungs(asv_verilog::compile(LATCH_RARE).expect("compile"), wide),
            [
                (EngineTag::Symbolic, EndReason::Unsupported),
                (EngineTag::Fuzz, EndReason::Fails)
            ]
        );
    }

    #[test]
    fn forced_simulation_takes_autos_concrete_rung() {
        let cases = [
            (
                latch(),
                Verifier {
                    depth: 6,
                    ..Verifier::default()
                },
                (EngineTag::Enumeration, EndReason::Holds),
            ),
            (
                asv_verilog::compile(LATCH_RARE).expect("compile"),
                Verifier {
                    depth: 8,
                    random_runs: 64,
                    ..Verifier::default()
                },
                (EngineTag::Fuzz, EndReason::Fails),
            ),
        ];
        for (design, auto, rung) in cases {
            let forced = Verifier {
                engine: Engine::Simulation,
                ..auto
            };
            let (out, rungs) = traced_rungs(design.clone(), forced);
            assert_eq!(rungs, [rung]);
            assert_eq!(out, traced_rungs(design, auto).0, "verdict equals Auto's");
        }
    }

    #[test]
    fn forced_symbolic_on_an_unsupported_design_ends_unsupported() {
        let forced = Verifier {
            depth: 6,
            engine: Engine::Symbolic,
            ..Verifier::default()
        };
        let (out, rungs) = traced_rungs(latch(), forced);
        assert_eq!(rungs, [(EngineTag::Symbolic, EndReason::Unsupported)]);
        let Err(VerdictError::Verify(err @ VerifyError::Symbolic(_))) = out else {
            panic!("forced symbolic must reject the latch, got {out:?}");
        };
        let text = err.to_string();
        assert_eq!(text.matches("symbolic engine").count(), 1, "{text}");
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
