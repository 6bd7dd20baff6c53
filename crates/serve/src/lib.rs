//! # asv-serve
//!
//! The serving layer of the verification stack: a batched, concurrent
//! job service in front of the four verification engines (compiled
//! simulation, exhaustive enumeration, symbolic BMC, coverage-guided
//! fuzzing).
//!
//! Every caller used to drive `asv_sva::Verifier` one design at a time —
//! the eval runner's `n = 20` pass@k protocol, the datagen pipeline's
//! golden-SVA validation and bug confirmation, the bench tables. This
//! crate turns those call sites into batch submitters:
//!
//! * **[`VerifyJob`]** — one design plus the verifier bounds/engine to
//!   check it with, hashed once, when the job is built, into a
//!   [`JobKey`] of `(design, verifier)`: the design's AST with its
//!   properties and assertion directives, and every verifier knob
//!   (engine, bounds, budget, seed, opt level).
//! * **[`VerifyService`]** — runs a batch's pending jobs on the
//!   workspace's one worker pool, [`asv_sim::pool::map`]: jobs are
//!   claimed index-by-index from a shared atomic cursor (idle workers
//!   steal the next unclaimed job, so a slow symbolic proof never blocks
//!   the rest of the batch) and results are collected in
//!   submission-index order, making the returned verdict vector
//!   *deterministic in the batch alone* — worker count changes wall
//!   time, never output.
//! * **[`VerdictCache`]** — a sharded memo of finished verdicts. Repeat
//!   jobs — which dominate repair evaluation, where 20 candidate repairs
//!   share one design and candidates repeat across samples — are
//!   answered in O(hash) without touching an engine. The memo is the
//!   only verdict tier and lives as long as its service: nothing is
//!   written to disk. Each job takes one verdict path: in-batch dedup,
//!   a memo hit, or an engine run whose cacheable outcome is memoised.
//!   No compiled design outlives its job: each engine run lowers its own
//!   design, and repeats are answered by dedup and the memo instead.
//! * **Fault tolerance** — each job's check traces through a job-tagged
//!   [`TraceHandle`](asv_trace::TraceHandle) and runs behind one
//!   `catch_unwind` barrier: a job that panics or spends a
//!   `BmcOptions` cap yields a [`VerdictError`] in its own slot while its
//!   batch siblings finish normally. Neither failure is memoised, so a
//!   later submission of the key runs the engine again.
//!
//! ```
//! use asv_serve::{ServeOptions, VerifyJob, VerifyService};
//! use asv_sva::bmc::{Engine, Verifier};
//!
//! let design = asv_verilog::compile(
//!     "module m(input clk, input rst_n, input d, output reg q);\n\
//!      always @(posedge clk or negedge rst_n) begin\n\
//!        if (!rst_n) q <= 1'b0; else q <= d;\n\
//!      end\n\
//!      p: assert property (@(posedge clk) disable iff (!rst_n) d |-> ##1 q);\n\
//!      endmodule",
//! )?;
//! let verifier = Verifier { engine: Engine::Auto, ..Verifier::default() };
//! let service = VerifyService::new(ServeOptions::default());
//! let verdicts = service.verify_batch(&[VerifyJob::new(design, verifier)]);
//! assert!(verdicts[0].as_ref().expect("verdict").holds_non_vacuously());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod job;
pub mod report;
pub mod service;

pub use cache::{CacheStats, VerdictCache};
pub use job::{JobKey, JobOutcome, VerdictError, VerifyJob};
pub use report::{AnswerTier, JobReport, RungReport};
pub use service::{ServeOptions, ServeStats, VerifyService};

/// Does nothing: no compiled design outlives the job that lowered it,
/// so there is no process state to clear before a cold run. Verdict
/// memos are per-service (drop the service or use
/// [`VerifyService::verdict_cache`]`().clear()`).
///
/// Kept because the repository benchmark (`e2ebench`) calls it before
/// each cold pass, until its next change (ROADMAP item 3).
pub fn clear_design_cache() {}
