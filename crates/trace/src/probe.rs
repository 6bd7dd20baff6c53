//! Canonical names of every instrumented location in the stack.
//!
//! One constant per site, used for **both** purposes a name serves:
//!
//! * as the probe name passed to `Budget::probe` — the deterministic
//!   fault-injection point the chaos suite (`asv_sim::fault`) keys its
//!   per-probe hit counters and `FaultPlan` draws on;
//! * as the span name recorded into a [`Tracer`](crate::Tracer) ring.
//!
//! Engines previously spelled these as string literals at each call
//! site (and the chaos tests spelled them again); a renamed probe would
//! have silently decoupled the two. With the constants, a chaos test, a
//! trace timeline and the engine loop can only ever agree.
//!
//! The values are part of the observable contract (fault schedules are
//! deterministic per probe name; dashboards key on span names) — do not
//! rename without bumping the chaos suite.

/// Design lowering: one span per `CompiledDesign::compile_opt` call.
pub const SIM_COMPILE: &str = "sim.compile";
/// The `asv-ir` optimization pass pipeline inside a `Full` compile.
pub const SIM_OPT: &str = "sim.opt";
/// SAT: bit-blasting one unrolled frame into the AIG.
pub const SAT_BLAST: &str = "sat.blast";
/// SAT: per-depth probe at the head of the CDCL unrolling loop.
pub const SAT_DEPTH: &str = "sat.depth";
/// SAT: one CDCL solve call at a given depth.
pub const SAT_SOLVE: &str = "sat.solve";
/// SAT: per-assertion vacuity query after a `Holds` verdict.
pub const SAT_VACUITY: &str = "sat.vacuity";
/// Fuzzer: per-campaign-round probe and span.
pub const FUZZ_ROUND: &str = "fuzz.round";
/// Enumeration oracle: per-stimulus probe; one span per enumerated rung.
pub const SVA_ENUM: &str = "sva.enum";
/// Sampling oracle: per-rung probe (fired once, before the parallel
/// workers start) and span.
pub const SVA_SAMPLE: &str = "sva.sample";
/// Lane-batched simulation: batch scheduling instant carrying batch
/// count and lane occupancy (emitted at sequential points, so the cost
/// vector is identical however many workers drain the groups).
pub const SIM_BATCH: &str = "sim.batch";
/// Degradation-ladder rung: symbolic proof attempt.
pub const RUNG_SYMBOLIC: &str = "rung.symbolic";
/// Degradation-ladder rung: exhaustive enumeration.
pub const RUNG_ENUM: &str = "rung.enum";
/// Degradation-ladder rung: coverage-guided fuzzing.
pub const RUNG_FUZZ: &str = "rung.fuzz";
/// Degradation-ladder rung: blind random sampling (last resort).
pub const RUNG_SAMPLE: &str = "rung.sample";
/// Service: verdict-memo lookup.
pub const SERVE_MEMO: &str = "serve.memo";
/// Service: whole-job execution span.
pub const SERVE_JOB: &str = "serve.job";
