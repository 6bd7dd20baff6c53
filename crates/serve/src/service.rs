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
//! * each job runs under its own [`Budget`] built from the service's
//!   [`ServeOptions`] (wall-clock deadline measured from the job's own
//!   start, SAT-conflict / fuzz-round / AIG-node caps, and — under the
//!   `fault-inject` feature — a per-job fault session salted by the job
//!   key);
//! * every engine invocation is wrapped in `catch_unwind`: a panicking
//!   job yields [`VerdictError::Panic`] in its own slot and its batch
//!   siblings are untouched;
//! * only *deterministic* outcomes are memoised — verdicts and
//!   [`VerdictError::Verify`] errors, which are pure functions of the
//!   job key. `Inconclusive` verdicts, panics, cancellations and budget
//!   exhaustion depend on the per-call budget or injected faults and are
//!   never cached, so a degraded run can never poison a later, healthier
//!   one;
//! * concurrent submissions of the same key (within or across batches)
//!   are collapsed through an in-flight table: one caller executes, the
//!   rest wait and reuse the memoised outcome. If the owner's outcome
//!   was not cacheable, a waiter re-executes rather than inheriting the
//!   degraded result — and the table's leases are drop-guarded, so a
//!   panicking owner always releases its claim and can never strand a
//!   waiter.

use crate::cache::VerdictCache;
use crate::job::{JobKey, JobOutcome, VerdictError, VerifyJob};
use crate::persist;
use crate::report::{assemble_reports, AnswerTier, JobReport};
use asv_sim::cancel::Budget;
use asv_sim::FaultPlan;
use asv_store::{ArtifactStore, StoreKey};
use asv_sva::bmc::Verdict;
use asv_trace::{probe, Counter, EndReason, Registry, SpanKind, TraceHandle, TraceSink, Tracer};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Service configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Worker threads; 0 means `std::thread::available_parallelism`.
    pub workers: usize,
    /// Memoise verdicts across batches (disable for cache-cold
    /// benchmarking; in-batch deduplication always applies).
    pub memoize: bool,
    /// Per-job wall-clock deadline, measured from the moment a worker
    /// starts the job (`None` = unbounded). Auto jobs that run out
    /// degrade to `Verdict::Inconclusive`; forced single-engine
    /// jobs report [`VerdictError::Exhausted`].
    pub deadline: Option<Duration>,
    /// Per-job cap on SAT solver conflicts (`None` = unbounded).
    pub max_conflicts: Option<u64>,
    /// Per-job cap on fuzzing rounds (`None` = unbounded).
    pub max_fuzz_rounds: Option<u64>,
    /// Per-job cap on symbolic-unrolling AIG nodes (`None` = unbounded).
    pub max_aig_nodes: Option<u64>,
    /// Deterministic fault-injection plan for the chaos suite. Each job
    /// gets a session salted by [`JobKey::fault_salt`], so the fault
    /// schedule is a pure function of `(plan, job)` — independent of
    /// worker count and scheduling. Inert unless the `fault-inject`
    /// feature is enabled (probes compile to plain budget polls).
    pub fault_plan: Option<FaultPlan>,
    /// Root directory of the persistent artifact store (`None` = no
    /// second tier). When set, deterministic outcomes survive process
    /// restarts: misses in the in-memory memo fall through to the
    /// [`ArtifactStore`] before any engine runs, and store hits are
    /// promoted back into the memo. The directory is created on demand;
    /// a store that fails to open is a hard error at service
    /// construction (a silently absent tier would turn every warm
    /// restart into a cold one).
    pub store_dir: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            memoize: true,
            deadline: None,
            max_conflicts: None,
            max_fuzz_rounds: None,
            max_aig_nodes: None,
            fault_plan: None,
            store_dir: None,
        }
    }
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
    /// Jobs answered from the persistent store tier (subset of
    /// `executed`'s complement: a store hit runs no engine).
    pub store_hits: u64,
    /// Store lookups that found nothing (the job went to an engine).
    pub store_misses: u64,
    /// Outcomes written to the persistent store.
    pub store_puts: u64,
}

/// Cross-batch in-flight job table: collapses concurrent executions of
/// one key into a single engine run.
///
/// A worker either *claims* a key (getting a [`InflightLease`]) or
/// waits on the condvar until the current owner finishes. Leases release
/// on drop — including panic unwinds — so an owner can never strand its
/// waiters; waiters re-check the verdict memo on wake-up and re-execute
/// themselves if the owner's outcome was not cacheable.
#[derive(Default)]
struct InflightTable {
    keys: Mutex<HashSet<JobKey>>,
    done: Condvar,
}

/// What [`InflightTable::claim`] resolved to.
enum Claim<'a> {
    /// Another owner finished first; here is its memoised outcome.
    Hit(JobOutcome),
    /// The caller owns the key until the lease drops.
    Claimed(InflightLease<'a>),
}

/// Drop-guarded ownership of an in-flight key.
struct InflightLease<'a> {
    table: &'a InflightTable,
    key: JobKey,
}

impl InflightTable {
    /// Claims `key` for execution, or waits for the current owner and
    /// returns its memoised outcome. Recovers from lock poisoning: the
    /// set is structurally valid at every point, and leases release on
    /// unwind.
    fn claim<'a>(&'a self, key: JobKey, memo: &VerdictCache) -> Claim<'a> {
        let mut keys = lock_inflight(&self.keys);
        loop {
            if let Some(hit) = memo.get(key) {
                return Claim::Hit(hit);
            }
            if keys.insert(key) {
                return Claim::Claimed(InflightLease { table: self, key });
            }
            keys = self.done.wait(keys).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for InflightLease<'_> {
    fn drop(&mut self) {
        let mut keys = lock_inflight(&self.table.keys);
        keys.remove(&self.key);
        self.table.done.notify_all();
    }
}

/// Locks the in-flight set, recovering from poisoning (a worker panic
/// between `insert` and `remove` leaves the set valid — the lease's
/// drop guard still runs and removes the key).
fn lock_inflight(m: &Mutex<HashSet<JobKey>>) -> MutexGuard<'_, HashSet<JobKey>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
    store: Option<ArtifactStore>,
    inflight: InflightTable,
    submitted: Counter,
    executed: Counter,
    memo_hits: Counter,
    deduped: Counter,
    store_hits: Counter,
    store_misses: Counter,
    store_puts: Counter,
}

/// True if `outcome` is a pure function of the job key and may be
/// memoised. Degraded outcomes (inconclusive verdicts, panics,
/// cancellations, budget exhaustion) depend on the per-call budget,
/// scheduling, or injected faults — caching one would poison every
/// later call with this key.
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
        Err(VerdictError::Cancelled) => EndReason::Cancelled,
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
    ///
    /// # Panics
    ///
    /// When `opts.store_dir` is set but the store cannot be opened
    /// (unwritable directory, undeletable corruption). Persistence is
    /// opt-in; asking for it and silently not getting it would be worse
    /// than failing loudly.
    pub fn new(opts: ServeOptions) -> Self {
        let store = opts.store_dir.as_deref().map(|dir| {
            ArtifactStore::open(dir)
                .unwrap_or_else(|e| panic!("opening artifact store at {}: {e}", dir.display()))
        });
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
            store_hits: registry.counter(
                "asv_store_hits_total",
                "Jobs answered from the persistent store tier",
            ),
            store_misses: registry
                .counter("asv_store_misses_total", "Store lookups that found nothing"),
            store_puts: registry.counter(
                "asv_store_puts_total",
                "Outcomes written to the persistent store",
            ),
            registry,
            tracer: None,
            opts,
            store,
            inflight: InflightTable::default(),
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

    /// Builds the per-job budget from the service options. Called at
    /// job start inside the worker, so a wall-clock deadline measures
    /// the job's own runtime, not its queueing delay.
    fn job_budget(&self, key: JobKey) -> Budget {
        let mut budget = Budget::unbounded();
        if let Some(limit) = self.opts.deadline {
            budget = budget.with_deadline(limit);
        }
        if let Some(n) = self.opts.max_conflicts {
            budget = budget.with_max_conflicts(n);
        }
        if let Some(n) = self.opts.max_fuzz_rounds {
            budget = budget.with_max_fuzz_rounds(n);
        }
        if let Some(n) = self.opts.max_aig_nodes {
            budget = budget.with_max_aig_nodes(n);
        }
        if let Some(plan) = self.opts.fault_plan {
            budget = budget.with_fault(plan.session(key.fault_salt()));
        }
        // The trace handle is observational only: `Budget::is_plain`
        // ignores it, so traced and untraced runs take identical paths.
        budget.with_trace(self.trace_handle().for_job(key.0))
    }

    /// Looks up `job` in the persistent store tier: the cone key first
    /// (maximal reuse — it survives edits outside every assertion
    /// cone), then the exact key. Returns `None` on miss *or* when no
    /// store is configured; counters move only when a store exists.
    fn store_get(&self, job: &VerifyJob, trace: &TraceHandle) -> Option<JobOutcome> {
        let store = self.store.as_ref()?;
        let mut span = trace.span(probe::STORE_GET, SpanKind::StoreGet);
        let stored = persist::cone_outcome_key(job)
            .and_then(|k| store.get_outcome(k))
            .or_else(|| store.get_outcome(persist::exact_outcome_key(job)));
        match stored {
            Some(outcome) => {
                span.set_code(1); // hit
                self.store_hits.inc();
                Some(persist::from_persisted(outcome))
            }
            None => {
                self.store_misses.inc();
                None
            }
        }
    }

    /// Persists a deterministic outcome. Symbolic-shaped outcomes of
    /// cone-eligible jobs go under the cone key (warm hits stay
    /// bit-identical to a cold symbolic solve — see `persist`);
    /// everything else deterministic goes under the exact key. Write
    /// errors are swallowed: persistence is an accelerator, and a full
    /// disk must degrade to cold verification, not failed verification.
    fn store_put(&self, job: &VerifyJob, outcome: &JobOutcome, trace: &TraceHandle) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let Some(persisted) = persist::to_persisted(outcome) else {
            return;
        };
        let mut span = trace.span(probe::STORE_PUT, SpanKind::StorePut);
        let key: StoreKey = persist::symbolic_shaped(outcome)
            .then(|| persist::cone_outcome_key(job))
            .flatten()
            .unwrap_or_else(|| persist::exact_outcome_key(job));
        if let Ok(Some(_)) = store.put_outcome(key, &persisted) {
            span.set_code(1); // newly written
            self.store_puts.inc();
        }
    }

    /// Executes one pending job: claims it in the in-flight table (when
    /// memoising), consults the persistent store tier, runs the engine
    /// under the per-job budget, and memoises/persists cacheable
    /// outcomes before releasing the claim.
    fn execute(&self, job: &VerifyJob) -> (JobOutcome, AnswerTier) {
        let key = job.key();
        let trace = self.trace_handle().for_job(key.0);
        if !self.opts.memoize {
            // `memoize: false` means *always execute* — both cache
            // tiers are bypassed (cache-cold benchmarking relies on it).
            self.executed.inc();
            return (self.run_job_traced(job, &trace), AnswerTier::Engine);
        }
        match self.inflight.claim(key, &self.verdicts) {
            Claim::Hit(outcome) => {
                self.memo_hits.inc();
                (outcome, AnswerTier::Memo)
            }
            Claim::Claimed(lease) => {
                // Second tier: the persistent store. A hit is promoted
                // into the in-memory memo (waiters and repeat batches
                // then hit tier one) and runs no engine.
                if let Some(outcome) = self.store_get(job, &trace) {
                    self.verdicts.insert(key, outcome.clone());
                    drop(lease);
                    return (outcome, AnswerTier::Store);
                }
                self.executed.inc();
                let outcome = self.run_job_traced(job, &trace);
                // Memoise before releasing the claim so woken waiters
                // find the result; a non-cacheable outcome leaves the
                // memo untouched and waiters execute for themselves.
                if cacheable(&outcome) {
                    self.verdicts.insert(key, outcome.clone());
                    self.store_put(job, &outcome, &trace);
                }
                drop(lease);
                (outcome, AnswerTier::Engine)
            }
        }
    }

    /// [`run_job`] under a `serve.job` span carrying the outcome's
    /// [`EndReason`] — the root of the job's trace tree.
    fn run_job_traced(&self, job: &VerifyJob, trace: &TraceHandle) -> JobOutcome {
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
    /// that errors (panics, exhausts its budget, is cancelled) fills only
    /// its own slot — the rest of the batch completes normally.
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
            if self.opts.memoize {
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
                // The miss is observable too: deterministic cost
                // accounting (asv_trace::cost) reads hit *and* miss
                // counts off the event stream alone.
                root_trace.for_job(key.0).instant(
                    probe::SERVE_MEMO,
                    SpanKind::MemoLookup,
                    0, // miss
                    asv_trace::Cost::default(),
                );
            }
            pending.push(i);
        }
        // Self-scheduling pool over the pending jobs.
        if !pending.is_empty() {
            let workers = self.workers().min(pending.len()).max(1);
            let cursor = AtomicUsize::new(0);
            let mut per_worker: Vec<Vec<(usize, (JobOutcome, AnswerTier))>> =
                Vec::with_capacity(workers);
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
                results[job_idx] = Some(outcome);
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
            store_hits: self.store_hits.get(),
            store_misses: self.store_misses.get(),
            store_puts: self.store_puts.get(),
        }
    }

    /// The verdict memo (benchmarks clear it between cold runs).
    pub fn verdict_cache(&self) -> &VerdictCache {
        &self.verdicts
    }

    /// The persistent store tier, when configured (eval's incremental
    /// path garbage-collects and inspects it through this).
    pub fn store(&self) -> Option<&ArtifactStore> {
        self.store.as_ref()
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
    use asv_sim::cancel::Resource;
    use asv_sva::bmc::{Engine, Verdict, Verifier, VerifyError};
    use asv_verilog::sema::Design;

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
    fn memoize_false_always_executes() {
        let service = VerifyService::new(ServeOptions {
            memoize: false,
            ..ServeOptions::default()
        });
        let jobs = batch(4, Engine::Auto);
        let a = service.verify_batch(&jobs);
        let b = service.verify_batch(&jobs);
        assert_eq!(a, b);
        assert_eq!(service.stats().memo_hits, 0);
        assert!(service.stats().executed >= 2 * 3); // unique jobs per batch
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
    fn expired_deadline_degrades_auto_jobs_without_caching() {
        let service = VerifyService::new(ServeOptions {
            deadline: Some(Duration::ZERO),
            ..ServeOptions::default()
        });
        let jobs = batch(4, Engine::Auto);
        let out = service.verify_batch(&jobs);
        for (i, o) in out.iter().enumerate() {
            assert!(
                matches!(o, Ok(Verdict::Inconclusive { .. })),
                "job {i}: expected inconclusive under an expired deadline, got {o:?}"
            );
        }
        assert!(
            service.verdict_cache().is_empty(),
            "degraded outcomes must not be memoised"
        );
    }

    #[test]
    fn expired_deadline_on_forced_engine_reports_structured_exhaustion() {
        let service = VerifyService::new(ServeOptions {
            deadline: Some(Duration::ZERO),
            ..ServeOptions::default()
        });
        let out = service.verify_one(&batch(1, Engine::Symbolic).remove(0));
        match out {
            Err(VerdictError::Exhausted(e)) => assert_eq!(e.resource, Resource::WallClock),
            other => panic!("expected wall-clock exhaustion, got {other:?}"),
        }
        assert!(service.verdict_cache().is_empty());
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

    /// A scratch store directory, removed on drop.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            use std::sync::atomic::AtomicU32;
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "asv-serve-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn stored_service(dir: &ScratchDir) -> VerifyService {
        VerifyService::new(ServeOptions {
            store_dir: Some(dir.0.clone()),
            ..ServeOptions::default()
        })
    }

    #[test]
    fn store_tier_answers_a_fresh_service_without_executing() {
        let dir = ScratchDir::new("warm");
        let jobs = batch(6, Engine::Auto);
        let cold = stored_service(&dir);
        let first = cold.verify_batch(&jobs);
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.store_hits, 0);
        assert!(cold_stats.store_puts > 0, "cacheable verdicts must persist");
        drop(cold);
        // A fresh service on the same directory: everything answers from
        // disk, bit-identically, with zero engine executions.
        let warm = stored_service(&dir);
        let second = warm.verify_batch(&jobs);
        assert_eq!(first, second, "disk-warm verdicts must be bit-identical");
        let warm_stats = warm.stats();
        assert_eq!(warm_stats.executed, 0, "warm batch must run no engine");
        assert!(warm_stats.store_hits > 0);
        // Store hits are promoted to tier one: a repeat batch on the
        // same service is pure memo.
        let third = warm.verify_batch(&jobs);
        assert_eq!(second, third);
        assert_eq!(warm.stats().store_hits, warm_stats.store_hits);
        assert!(warm.stats().memo_hits > 0);
    }

    #[test]
    fn store_tier_persists_deterministic_errors() {
        let dir = ScratchDir::new("errs");
        let empty =
            asv_verilog::compile("module n(input a, output y); assign y = a; endmodule").unwrap();
        let job = VerifyJob::new(empty, Verifier::default());
        let cold = stored_service(&dir);
        let out = cold.verify_one(&job);
        assert!(matches!(out, Err(VerdictError::Verify(_))));
        drop(cold);
        let warm = stored_service(&dir);
        assert_eq!(warm.verify_one(&job), out);
        assert_eq!(warm.stats().executed, 0);
    }

    #[test]
    fn degraded_outcomes_never_reach_the_store() {
        let dir = ScratchDir::new("degraded");
        let service = VerifyService::new(ServeOptions {
            deadline: Some(Duration::ZERO),
            store_dir: Some(dir.0.clone()),
            ..ServeOptions::default()
        });
        let out = service.verify_batch(&batch(3, Engine::Auto));
        assert!(out
            .iter()
            .all(|o| matches!(o, Ok(Verdict::Inconclusive { .. }))));
        assert_eq!(service.stats().store_puts, 0);
        assert!(service.store().expect("store configured").is_empty());
    }

    #[test]
    fn memoize_false_bypasses_the_store_tier() {
        let dir = ScratchDir::new("bypass");
        let service = VerifyService::new(ServeOptions {
            memoize: false,
            store_dir: Some(dir.0.clone()),
            ..ServeOptions::default()
        });
        let jobs = batch(3, Engine::Auto);
        service.verify_batch(&jobs);
        let stats = service.stats();
        assert_eq!(stats.store_puts, 0);
        assert_eq!(stats.store_hits, 0);
        assert_eq!(stats.store_misses, 0);
    }
}
