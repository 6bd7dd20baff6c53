//! **asv-trace**: the observability substrate shared by every crate in
//! the verification stack — structured spans, a process- or
//! service-scoped metrics registry, and the vocabulary (`probe` names,
//! span kinds, engine tags) that traces and per-job provenance reports
//! agree on.
//!
//! Three layers, all dependency-free:
//!
//! * **Spans & events** ([`span`]): a [`Tracer`] collects typed
//!   [`Event`]s into per-thread append-only rings (writers never contend
//!   with each other); engines emit through the [`TraceHandle`] passed
//!   to their `*_traced` entry points, whose disabled default records
//!   nothing. Code generic over the [`TraceSink`] trait (design
//!   lowering) is monomorphized like the per-lane coverage sinks of
//!   `asv_sim::compile::batch`, so its instantiation against the
//!   [`NoTrace`] sink compiles to nothing at all.
//! * **Metrics** ([`metrics`]): hand-rolled counters and log-scale
//!   latency histograms in a [`metrics::Registry`], with a
//!   Prometheus-compatible text exposition and a JSON snapshot. No
//!   registry dependencies.
//! * **Vocabulary** ([`probe`]): one canonical `&'static str` span name
//!   per instrumented location, shared by the code that emits a span and
//!   the code that reads it back.
//!
//! On top of the substrate, two derived views of a drained event
//! vector: [`cost::CostCounters`] folds events into deterministic,
//! machine-independent work counters (the perf harness's regression
//! signal), and [`profile::Profile`] rebuilds the span hierarchy into
//! folded stacks (flamegraph input) with inclusive/exclusive time.
//!
//! Determinism contract: timestamps exist only inside trace output
//! (events, histograms). Nothing here feeds verdicts, cache keys or
//! schedules — tracing on vs. off is asserted bit-identical by
//! `tests/trace_observability.rs`.

pub mod chrome;
pub mod cost;
pub mod metrics;
pub mod probe;
pub mod profile;
pub mod span;

pub use chrome::chrome_trace_json;
pub use cost::CostCounters;
pub use metrics::{Counter, Histogram, Registry};
pub use profile::{FrameStat, Profile};
pub use span::{
    Cost, EndReason, EngineTag, Event, NoTrace, SinkSpan, SpanKind, TraceHandle, TraceSink, Tracer,
};
