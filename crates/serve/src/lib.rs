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
//! * **[`VerifyService`]** — a self-scheduling worker pool: jobs are
//!   claimed index-by-index from a shared atomic cursor (idle workers
//!   steal the next unclaimed job, so a slow symbolic proof never blocks
//!   the rest of the batch) and results are collected in
//!   submission-index order, making the returned verdict vector
//!   *deterministic in the batch alone* — worker count changes wall
//!   time, never output.
//! * **[`VerdictCache`]** — a sharded memo of finished verdicts. Repeat
//!   jobs — which dominate repair evaluation, where 20 candidate repairs
//!   share one design and candidates repeat across samples — are
//!   answered in O(hash) without touching an engine. Compiled designs
//!   are additionally shared process-wide through the sharded
//!   [`asv_sim::cache`], so a design submitted under several engines or
//!   budgets is lowered once.
//! * **Fault tolerance** — each job runs under its own
//!   [`Budget`](asv_sim::cancel::Budget) (deadline, SAT-conflict /
//!   fuzz-round / AIG-node caps from [`ServeOptions`]) behind a
//!   `catch_unwind` barrier: a job that panics, exhausts its budget or
//!   is cancelled yields a [`VerdictError`] in its own slot while its
//!   batch siblings finish normally. Only deterministic outcomes are
//!   memoised, so degraded runs never poison the verdict cache, and the
//!   whole schedule is reproducible under the seeded fault-injection
//!   plans of the `fault-inject` feature (see `asv_sim::fault`).
//! * **Persistence** — with [`ServeOptions::store_dir`] set, cacheable
//!   outcomes also land in an on-disk content-addressed
//!   [`ArtifactStore`](asv_store::ArtifactStore), making it a second
//!   cache tier under the in-memory memo: a fresh process re-verifying
//!   known work answers from disk without running an engine. Symbolic
//!   verdicts are additionally stored under *cone keys* that survive
//!   edits outside every assertion cone, so incremental re-verification
//!   of a patched design re-runs only what the patch can affect (see
//!   [`persist`]).
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
pub mod persist;
pub mod report;
pub mod service;

pub use cache::{CacheStats, VerdictCache};
pub use job::{JobKey, JobOutcome, VerdictError, VerifyJob};
pub use report::{AnswerTier, JobReport, RungReport};
pub use service::{ServeOptions, ServeStats, VerifyService};

/// Clears the process-wide compiled-design cache (`asv_sim::cache`).
///
/// Benchmarks measuring *cold* verification call this between runs: a
/// warm compile cache would let a "cold" run skip design lowering and
/// understate the speedup of the persistent store tier. Verdict memos
/// are per-service (drop the service or use
/// [`VerifyService::verdict_cache`]`().clear()`); the compile cache is
/// the one shared piece of process state, and this is its one reset.
pub fn clear_design_cache() {
    asv_sim::cache::global().clear();
}
