//! Spans, events, sinks and the [`Tracer`] collection substrate.
//!
//! The shape mirrors the per-lane coverage sinks of
//! `asv_sim::compile::batch`: instrumented code is generic over a
//! [`TraceSink`], the default [`NoTrace`] sink is a ZST
//! whose methods are empty `#[inline(always)]` bodies, and the compiler
//! monomorphizes the untraced instantiation down to nothing. The live
//! sink is a [`TraceHandle`] — a cheap clonable pointer at a [`Tracer`]
//! plus the job/engine attribution the event should carry — passed
//! down the stack to each engine's `*_traced` entry point.
//!
//! Events land in per-thread rings: each recording thread appends to its
//! own buffer (registered with the tracer on first use), so writers
//! never contend with each other; [`Tracer::drain`] collects and clears
//! all rings. Rings are bounded — a runaway loop drops events (counted)
//! rather than growing without limit.
//!
//! Timestamps are nanosecond offsets from the tracer's construction
//! instant and exist only inside [`Event`]s — never in verdicts or cache
//! keys, so tracing cannot perturb determinism contracts.

use crate::metrics::{Counter, Histogram, Registry};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// What a span measured. The discriminant indexes the per-kind metric
/// arrays, so the set is closed and ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum SpanKind {
    /// Whole-design lowering (`CompiledDesign::compile`).
    Compile = 0,
    /// Bit-blasting one unrolled frame into the AIG.
    AigBlast = 1,
    /// One CDCL solve call (per depth, or a vacuity query).
    SatSolve = 2,
    /// One fuzzing campaign round.
    FuzzRound = 3,
    /// An exhaustive-enumeration run over a stimulus set.
    Enumeration = 4,
    /// Verdict-memo lookup.
    MemoLookup = 5,
    /// One rung: one engine's attempt at a check (carries an
    /// [`EndReason`] code).
    Rung = 6,
    /// One whole job as the service executed it.
    Job = 7,
    /// A lane-batched simulation pass (`LaneBatch` stimulus groups).
    Batch = 8,
}

impl SpanKind {
    /// Every kind, in discriminant order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Compile,
        SpanKind::AigBlast,
        SpanKind::SatSolve,
        SpanKind::FuzzRound,
        SpanKind::Enumeration,
        SpanKind::MemoLookup,
        SpanKind::Rung,
        SpanKind::Job,
        SpanKind::Batch,
    ];

    /// Metric-name-safe slug.
    pub fn slug(self) -> &'static str {
        match self {
            SpanKind::Compile => "compile",
            SpanKind::AigBlast => "aig_blast",
            SpanKind::SatSolve => "sat_solve",
            SpanKind::FuzzRound => "fuzz_round",
            SpanKind::Enumeration => "enumeration",
            SpanKind::MemoLookup => "memo_lookup",
            SpanKind::Rung => "rung",
            SpanKind::Job => "job",
            SpanKind::Batch => "sim_batch",
        }
    }
}

/// Which engine an event is attributed to: the rung that ran, which for
/// `asv_sva::bmc::Engine::Simulation` is enumeration or the fuzzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum EngineTag {
    /// The symbolic (BMC/CDCL) prover.
    Symbolic = 0,
    /// Exhaustive enumeration.
    Enumeration = 1,
    /// The coverage-guided fuzzer.
    Fuzz = 2,
}

impl EngineTag {
    /// Every tag, in discriminant order.
    pub const ALL: [EngineTag; 3] = [EngineTag::Symbolic, EngineTag::Enumeration, EngineTag::Fuzz];

    /// Metric-name-safe slug.
    pub fn slug(self) -> &'static str {
        match self {
            EngineTag::Symbolic => "symbolic",
            EngineTag::Enumeration => "enumeration",
            EngineTag::Fuzz => "fuzz",
        }
    }
}

/// Why a ladder rung (or a whole job) ended, carried as the
/// [`Event::code`] of `Rung` spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndReason {
    /// No end reason was recorded (non-rung spans, or a rung that never
    /// closed — e.g. an unwinding panic caught above the span).
    Unknown,
    /// The rung proved the property holds.
    Holds,
    /// The rung found a counterexample.
    Fails,
    /// A resource budget ran out.
    Exhausted,
    /// The job's check panicked (recorded on `serve.job` spans, whose
    /// service caught the unwind).
    Panicked,
    /// The engine cannot handle the design at all.
    Unsupported,
}

impl EndReason {
    /// Stable numeric code stored in [`Event::code`]. Code 5 is
    /// unassigned and decodes to `Unknown`.
    pub fn code(self) -> u64 {
        match self {
            EndReason::Unknown => 0,
            EndReason::Holds => 1,
            EndReason::Fails => 2,
            EndReason::Exhausted => 3,
            EndReason::Panicked => 4,
            EndReason::Unsupported => 6,
        }
    }

    /// Inverse of [`EndReason::code`]; unknown codes map to `Unknown`.
    pub fn from_code(code: u64) -> Self {
        match code {
            1 => EndReason::Holds,
            2 => EndReason::Fails,
            3 => EndReason::Exhausted,
            4 => EndReason::Panicked,
            6 => EndReason::Unsupported,
            _ => EndReason::Unknown,
        }
    }

    /// Short human label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            EndReason::Unknown => "unknown",
            EndReason::Holds => "holds",
            EndReason::Fails => "fails",
            EndReason::Exhausted => "exhausted",
            EndReason::Panicked => "panicked",
            EndReason::Unsupported => "unsupported",
        }
    }
}

/// Resource deltas a span carries: the engines' own work counts (SAT
/// conflicts, decisions and propagations, fuzz rounds, AIG nodes),
/// stimulus counts and lane-batch occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// CDCL conflicts spent.
    pub conflicts: u64,
    /// CDCL decisions taken.
    pub decisions: u64,
    /// CDCL unit propagations performed.
    pub propagations: u64,
    /// Fuzz campaign rounds run.
    pub rounds: u64,
    /// AIG nodes built.
    pub aig_nodes: u64,
    /// Stimuli simulated (enumeration and fuzz executions).
    pub stimuli: u64,
    /// Bytecode operations dispatched by the compiled simulator (at
    /// statement-expression program granularity; see
    /// `asv_sim::Simulator::ops_executed`).
    pub ops: u64,
    /// Lane-batched executor passes scheduled (`ceil(stimuli / K)`).
    pub batches: u64,
    /// Lanes actually carrying a stimulus across those passes.
    pub lanes_occupied: u64,
    /// Lane slots available across those passes (`batches * K`); the
    /// occupancy ratio is the lane-utilization metric.
    pub lanes_total: u64,
}

impl Cost {
    /// Saturating component-wise sum.
    pub fn add(&mut self, other: Cost) {
        self.conflicts = self.conflicts.saturating_add(other.conflicts);
        self.decisions = self.decisions.saturating_add(other.decisions);
        self.propagations = self.propagations.saturating_add(other.propagations);
        self.rounds = self.rounds.saturating_add(other.rounds);
        self.aig_nodes = self.aig_nodes.saturating_add(other.aig_nodes);
        self.stimuli = self.stimuli.saturating_add(other.stimuli);
        self.ops = self.ops.saturating_add(other.ops);
        self.batches = self.batches.saturating_add(other.batches);
        self.lanes_occupied = self.lanes_occupied.saturating_add(other.lanes_occupied);
        self.lanes_total = self.lanes_total.saturating_add(other.lanes_total);
    }
}

/// One recorded span (or instant event, when `dur_ns == 0`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Canonical site name (see [`crate::probe`]).
    pub name: &'static str,
    /// What was measured.
    pub kind: SpanKind,
    /// The `JobKey` bits of the job this event belongs to (0 when the
    /// event predates job attribution, e.g. a compile outside any job).
    pub job: u128,
    /// Engine attribution, when known.
    pub engine: Option<EngineTag>,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Span duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    /// Kind-specific discriminator: an [`EndReason`] code for `Rung` and
    /// `Job` spans, hit (1) / miss (0) for memo lookups.
    pub code: u64,
    /// Resource deltas attributed to this span.
    pub cost: Cost,
}

/// Where instrumented code sends events. Implemented by [`NoTrace`]
/// (everything compiles away) and [`TraceHandle`] (records into a
/// [`Tracer`]). Code generic over `S: TraceSink` monomorphizes per sink,
/// so the untraced instantiation carries no branches, no clock reads and
/// no stores — the same zero-cost idiom as the lane executor's
/// coverage sinks in `asv-sim`.
pub trait TraceSink {
    /// True when events are actually collected; guards clock reads.
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    /// Records a finished event.
    #[inline(always)]
    fn emit(&self, event: Event) {
        let _ = event;
    }

    /// The tracer's epoch, when enabled.
    #[inline(always)]
    fn epoch(&self) -> Option<Instant> {
        None
    }

    /// Job attribution for emitted events.
    #[inline(always)]
    fn job(&self) -> u128 {
        0
    }

    /// Engine attribution for emitted events.
    #[inline(always)]
    fn engine(&self) -> Option<EngineTag> {
        None
    }

    /// Opens a span guard; the event is emitted when the guard drops.
    #[inline(always)]
    fn span(&self, name: &'static str, kind: SpanKind) -> SinkSpan<'_, Self>
    where
        Self: Sized,
    {
        SinkSpan::begin(self, name, kind)
    }
}

/// The zero-cost sink: every method is an empty inlined body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoTrace;

impl TraceSink for NoTrace {}

/// A drop-guarded span over any [`TraceSink`]. Disabled sinks never read
/// the clock: `start` stays `None` and the drop is a no-op.
pub struct SinkSpan<'a, S: TraceSink> {
    sink: &'a S,
    name: &'static str,
    kind: SpanKind,
    start: Option<Instant>,
    code: u64,
    cost: Cost,
    engine: Option<EngineTag>,
}

impl<'a, S: TraceSink> SinkSpan<'a, S> {
    /// Starts the span now (no-op for a disabled sink).
    #[inline]
    pub fn begin(sink: &'a S, name: &'static str, kind: SpanKind) -> Self {
        SinkSpan {
            sink,
            name,
            kind,
            start: if sink.enabled() {
                Some(Instant::now())
            } else {
                None
            },
            code: 0,
            cost: Cost::default(),
            engine: None,
        }
    }

    /// Sets the kind-specific discriminator (see [`Event::code`]).
    #[inline]
    pub fn set_code(&mut self, code: u64) {
        self.code = code;
    }

    /// Sets the rung/job end reason as the code.
    #[inline]
    pub fn set_end(&mut self, end: EndReason) {
        self.code = end.code();
    }

    /// Overrides the sink's engine attribution for this span.
    #[inline]
    pub fn set_engine(&mut self, tag: EngineTag) {
        self.engine = Some(tag);
    }

    /// Accumulates resource deltas onto the span.
    #[inline]
    pub fn add_cost(&mut self, cost: Cost) {
        self.cost.add(cost);
    }
}

impl<S: TraceSink> Drop for SinkSpan<'_, S> {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let Some(epoch) = self.sink.epoch() else {
            return;
        };
        let start_ns = start
            .checked_duration_since(epoch)
            .unwrap_or_default()
            .as_nanos() as u64;
        self.sink.emit(Event {
            name: self.name,
            kind: self.kind,
            job: self.sink.job(),
            engine: self.engine.or_else(|| self.sink.engine()),
            start_ns,
            dur_ns: start.elapsed().as_nanos() as u64,
            code: self.code,
            cost: self.cost,
        });
    }
}

/// Per-kind counters/histograms plus per-engine rung counters, bumped on
/// every recorded event once [`Tracer::bind_metrics`] has attached a
/// [`Registry`].
struct SpanMetrics {
    counts: Vec<Counter>,
    durations: Vec<Histogram>,
    rungs: Vec<Counter>,
}

impl SpanMetrics {
    fn new(registry: &Registry) -> Self {
        let counts = SpanKind::ALL
            .iter()
            .map(|k| {
                registry.counter(
                    &format!("asv_span_{}_total", k.slug()),
                    &format!("Spans of kind `{}` recorded", k.slug()),
                )
            })
            .collect();
        let durations = SpanKind::ALL
            .iter()
            .map(|k| {
                registry.histogram(
                    &format!("asv_span_{}_ns", k.slug()),
                    &format!("Duration of `{}` spans in nanoseconds", k.slug()),
                )
            })
            .collect();
        let rungs = EngineTag::ALL
            .iter()
            .map(|t| {
                registry.counter(
                    &format!("asv_rung_{}_total", t.slug()),
                    &format!("Rungs run on the {} engine", t.slug()),
                )
            })
            .collect();
        SpanMetrics {
            counts,
            durations,
            rungs,
        }
    }

    fn observe(&self, event: &Event) {
        let i = event.kind as usize;
        self.counts[i].inc();
        self.durations[i].observe_ns(event.dur_ns);
        if event.kind == SpanKind::Rung {
            if let Some(tag) = event.engine {
                self.rungs[tag as usize].inc();
            }
        }
    }
}

/// One thread's append-only event buffer. Only its owning thread writes;
/// [`Tracer::drain`] reads and clears. The mutex is therefore
/// uncontended on the hot path.
#[derive(Default)]
struct Ring {
    events: Mutex<Vec<Event>>,
}

struct TracerInner {
    id: u64,
    epoch: Instant,
    cap: usize,
    rings: Mutex<Vec<Arc<Ring>>>,
    dropped: AtomicU64,
    metrics: OnceLock<SpanMetrics>,
}

/// Default per-thread ring capacity (events beyond it are dropped and
/// counted, bounding memory under runaway instrumentation).
const DEFAULT_RING_CAP: usize = 1 << 16;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    /// This thread's rings, keyed by tracer id (a thread can record into
    /// several tracers over its lifetime — tests do).
    static LOCAL_RINGS: RefCell<Vec<(u64, Arc<Ring>)>> = const { RefCell::new(Vec::new()) };
}

/// Collects [`Event`]s from any number of threads into per-thread rings.
/// Cloning shares the underlying collector.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("id", &self.inner.id)
            .finish()
    }
}

impl Tracer {
    /// A fresh tracer with the default per-thread ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RING_CAP)
    }

    /// A tracer whose per-thread rings hold at most `cap` events between
    /// drains (overflow is dropped and counted).
    pub fn with_capacity(cap: usize) -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Tracer {
            inner: Arc::new(TracerInner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                cap: cap.max(1),
                rings: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
                metrics: OnceLock::new(),
            }),
        }
    }

    /// The instant event timestamps are measured from.
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// A root [`TraceHandle`] recording into this tracer (no job or
    /// engine attribution yet).
    pub fn handle(&self) -> TraceHandle {
        TraceHandle {
            tracer: Some(self.clone()),
            job: 0,
            engine: None,
        }
    }

    /// Derives span counters/histograms (per [`SpanKind`]) and
    /// per-engine rung counters in `registry`, bumped on every event
    /// from now on. One-shot: later bindings are ignored.
    pub fn bind_metrics(&self, registry: &Registry) {
        let _ = self.inner.metrics.set(SpanMetrics::new(registry));
    }

    /// Events dropped to ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Records one event into the calling thread's ring.
    pub fn record(&self, event: Event) {
        if let Some(metrics) = self.inner.metrics.get() {
            metrics.observe(&event);
        }
        LOCAL_RINGS.with(|cell| {
            let mut local = cell.borrow_mut();
            let ring = match local.iter().find(|(id, _)| *id == self.inner.id) {
                Some((_, ring)) => Arc::clone(ring),
                None => {
                    // Drop local entries whose tracer is gone (their ring
                    // is no longer registered anywhere else).
                    local.retain(|(_, r)| Arc::strong_count(r) > 1);
                    let ring = Arc::new(Ring::default());
                    lock(&self.inner.rings).push(Arc::clone(&ring));
                    local.push((self.inner.id, Arc::clone(&ring)));
                    ring
                }
            };
            let mut events = lock(&ring.events);
            if events.len() >= self.inner.cap {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                events.push(event);
            }
        });
    }

    /// Collects and clears every thread's events, sorted by start time.
    /// Rings of threads that have exited are unregistered.
    pub fn drain(&self) -> Vec<Event> {
        let mut rings = lock(&self.inner.rings);
        let mut out = Vec::new();
        rings.retain(|ring| {
            out.append(&mut lock(&ring.events));
            // Strong count 1 == only the registry holds it: the owning
            // thread's TLS slot is gone, so the ring can never fill again.
            Arc::strong_count(ring) > 1
        });
        drop(rings);
        out.sort_by_key(|e| (e.start_ns, e.dur_ns, e.kind as usize));
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// A cheap, clonable recording context: which [`Tracer`] (if any) plus
/// the job/engine attribution events should carry. The default handle is
/// disabled — recording through it is a single `Option` branch, which is
/// why every engine can take one without a feature gate.
#[derive(Clone, Default)]
pub struct TraceHandle {
    tracer: Option<Tracer>,
    job: u128,
    engine: Option<EngineTag>,
}

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.tracer.is_some())
            .field("job", &self.job)
            .field("engine", &self.engine)
            .finish()
    }
}

impl TraceHandle {
    /// The inert handle (same as `Default`).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// True when a tracer is attached (inherent mirror of
    /// [`TraceSink::enabled`], usable without importing the trait).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// A sibling handle attributing events to `job`.
    pub fn for_job(&self, job: u128) -> Self {
        TraceHandle {
            tracer: self.tracer.clone(),
            job,
            engine: self.engine,
        }
    }

    /// A sibling handle attributing events to `tag`.
    pub fn with_engine(&self, tag: EngineTag) -> Self {
        TraceHandle {
            tracer: self.tracer.clone(),
            job: self.job,
            engine: Some(tag),
        }
    }

    /// Records an instant (zero-duration) event.
    pub fn instant(&self, name: &'static str, kind: SpanKind, code: u64, cost: Cost) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        let start_ns = Instant::now()
            .checked_duration_since(tracer.epoch())
            .unwrap_or_default()
            .as_nanos() as u64;
        tracer.record(Event {
            name,
            kind,
            job: self.job,
            engine: self.engine,
            start_ns,
            dur_ns: 0,
            code,
            cost,
        });
    }
}

impl TraceSink for TraceHandle {
    #[inline]
    fn enabled(&self) -> bool {
        self.tracer.is_some()
    }

    fn emit(&self, event: Event) {
        if let Some(tracer) = &self.tracer {
            tracer.record(event);
        }
    }

    #[inline]
    fn epoch(&self) -> Option<Instant> {
        self.tracer.as_ref().map(Tracer::epoch)
    }

    #[inline]
    fn job(&self) -> u128 {
        self.job
    }

    #[inline]
    fn engine(&self) -> Option<EngineTag> {
        self.engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe;

    #[test]
    fn disabled_handle_records_nothing_and_reads_no_clock() {
        let h = TraceHandle::disabled();
        assert!(!h.enabled());
        let mut span = h.span(probe::SAT_SOLVE, SpanKind::SatSolve);
        assert!(
            span.start.is_none(),
            "disabled sink must not read the clock"
        );
        span.set_end(EndReason::Holds);
        drop(span);
        h.instant(probe::SERVE_MEMO, SpanKind::MemoLookup, 1, Cost::default());
        // Nothing to drain — there is no tracer at all.
    }

    #[test]
    fn no_trace_sink_is_inert() {
        let sink = NoTrace;
        assert!(!sink.enabled());
        let span = sink.span(probe::SIM_COMPILE, SpanKind::Compile);
        assert!(span.start.is_none());
    }

    #[test]
    fn span_guard_records_name_kind_attribution_and_cost() {
        let tracer = Tracer::new();
        let h = tracer.handle().for_job(42).with_engine(EngineTag::Fuzz);
        {
            let mut span = h.span(probe::FUZZ_ROUND, SpanKind::FuzzRound);
            span.add_cost(Cost {
                rounds: 3,
                stimuli: 17,
                ..Cost::default()
            });
            span.set_code(9);
        }
        let events = tracer.drain();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.name, probe::FUZZ_ROUND);
        assert_eq!(e.kind, SpanKind::FuzzRound);
        assert_eq!(e.job, 42);
        assert_eq!(e.engine, Some(EngineTag::Fuzz));
        assert_eq!(e.code, 9);
        assert_eq!(e.cost.rounds, 3);
        assert_eq!(e.cost.stimuli, 17);
        // Drain clears.
        assert!(tracer.drain().is_empty());
    }

    #[test]
    fn events_from_many_threads_are_collected_and_sorted() {
        let tracer = Tracer::new();
        std::thread::scope(|scope| {
            for t in 0..4u128 {
                let h = tracer.handle().for_job(t);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let _s = h.span(probe::SVA_ENUM, SpanKind::Enumeration);
                    }
                });
            }
        });
        let events = tracer.drain();
        assert_eq!(events.len(), 32);
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let tracer = Tracer::with_capacity(4);
        let h = tracer.handle();
        for i in 0..10 {
            h.instant(probe::SERVE_JOB, SpanKind::Job, i, Cost::default());
        }
        assert_eq!(tracer.drain().len(), 4);
        assert_eq!(tracer.dropped(), 6);
    }

    #[test]
    fn bound_metrics_count_kinds_and_rung_engines() {
        let registry = Registry::new();
        let tracer = Tracer::new();
        tracer.bind_metrics(&registry);
        let h = tracer.handle();
        {
            let mut s = h.span(probe::RUNG_SYMBOLIC, SpanKind::Rung);
            s.set_engine(EngineTag::Symbolic);
            s.set_end(EndReason::Holds);
        }
        {
            let mut s = h.span(probe::RUNG_FUZZ, SpanKind::Rung);
            s.set_engine(EngineTag::Fuzz);
            s.set_end(EndReason::Exhausted);
        }
        h.instant(probe::SERVE_MEMO, SpanKind::MemoLookup, 1, Cost::default());
        assert_eq!(registry.counter_value("asv_span_rung_total"), Some(2));
        assert_eq!(
            registry.counter_value("asv_span_memo_lookup_total"),
            Some(1)
        );
        assert_eq!(registry.counter_value("asv_rung_symbolic_total"), Some(1));
        assert_eq!(registry.counter_value("asv_rung_fuzz_total"), Some(1));
        assert_eq!(
            registry.counter_value("asv_rung_enumeration_total"),
            Some(0)
        );
    }

    #[test]
    fn end_reason_codes_round_trip() {
        for end in [
            EndReason::Unknown,
            EndReason::Holds,
            EndReason::Fails,
            EndReason::Exhausted,
            EndReason::Panicked,
            EndReason::Unsupported,
        ] {
            assert_eq!(EndReason::from_code(end.code()), end);
        }
    }
}
