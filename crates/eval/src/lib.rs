//! # asv-eval
//!
//! Evaluation harness for the AssertSolver reproduction: the unbiased
//! pass@k estimator, the verifier-backed effectiveness [`judge`], the
//! benchmark [`runner`] and the table/figure [`report`] renderers.
//!
//! ## Quick start
//!
//! ```no_run
//! use asv_eval::{evaluate, benchmark, EvalConfig, Judge};
//! use assertsolver_core::prelude::*;
//!
//! let ds = asv_datagen::pipeline::run(&asv_datagen::PipelineConfig::quick());
//! let bench = benchmark(&ds.sva_eval_machine, &ds.sva_eval_human);
//! let engine = Solver::new(base_model(&ds.verilog_pt));
//! let run = evaluate(&engine, &bench, &EvalConfig::default(), &mut Judge::fast());
//! println!("pass@1 = {:.2}%", run.pass_at(1) * 100.0);
//! ```

pub mod incremental;
pub mod judge;
pub mod passk;
pub mod report;
pub mod runner;

pub use incremental::evaluate_incremental;
pub use judge::Judge;
pub use passk::{mean_pass_at_k, pass_at_k};
pub use runner::{
    benchmark, evaluate, evaluate_sequential, evaluate_with_service, BenchCase, CaseResult,
    EvalConfig, EvalRun,
};
