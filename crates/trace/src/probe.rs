//! Canonical span names of every instrumented location in the stack.
//!
//! One constant per site, recorded as the span (or instant) name in a
//! [`Tracer`](crate::Tracer) ring. Engines, reports and tests name a
//! site through the constant, so a trace timeline and the code that
//! emits it cannot drift apart.
//!
//! The values are part of the observable contract (dashboards, folded
//! stacks and the Chrome export key on span names) — do not rename one
//! without updating its readers.

/// Design lowering: one span per `CompiledDesign::compile` call.
pub const SIM_COMPILE: &str = "sim.compile";
/// SAT: bit-blasting one unrolled frame into the AIG.
pub const SAT_BLAST: &str = "sat.blast";
/// SAT: one CDCL solve call at a given depth.
pub const SAT_SOLVE: &str = "sat.solve";
/// SAT: per-assertion vacuity query after a `Holds` verdict.
pub const SAT_VACUITY: &str = "sat.vacuity";
/// Fuzzer: one span per campaign round.
pub const FUZZ_ROUND: &str = "fuzz.round";
/// Enumeration oracle: one span per enumerated rung.
pub const SVA_ENUM: &str = "sva.enum";
/// Lane-batched simulation: batch scheduling instant carrying batch
/// count and lane occupancy (emitted at sequential points, so the cost
/// vector is identical however many workers drain the groups).
pub const SIM_BATCH: &str = "sim.batch";
/// Rung: symbolic proof attempt.
pub const RUNG_SYMBOLIC: &str = "rung.symbolic";
/// Rung: exhaustive enumeration.
pub const RUNG_ENUM: &str = "rung.enum";
/// Rung: coverage-guided fuzzing.
pub const RUNG_FUZZ: &str = "rung.fuzz";
/// Service: verdict-memo lookup.
pub const SERVE_MEMO: &str = "serve.memo";
/// Service: whole-job execution span.
pub const SERVE_JOB: &str = "serve.job";
