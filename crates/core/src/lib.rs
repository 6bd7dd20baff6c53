//! # assertsolver-core
//!
//! The paper's primary contribution, reproduced as a trainable repair
//! policy in place of the paper's fine-tuned LLM, which an offline,
//! from-scratch build cannot train:
//!
//! * [`tokenizer`] + [`lm`] — the pretraining (PT) substrate;
//! * [`localize`] + [`features`] — evidence extraction (cone of
//!   influence, LM likelihood, spec/log grounding);
//! * [`policy`] — the softmax repair policy with temperature sampling;
//! * [`train`] — the PT → SFT → DPO pipeline, including challenging-case
//!   mining ("learning from error responses", paper §III-C);
//! * [`infer`] — Spec + buggy SV + logs → n JSON responses;
//! * [`baselines`] — the closed/open-source comparator proxies for RQ2.
//!
//! ## Quick start
//!
//! ```no_run
//! use assertsolver_core::prelude::*;
//!
//! let ds = asv_datagen::pipeline::run(&asv_datagen::PipelineConfig::quick());
//! let base = base_model(&ds.verilog_pt);
//! let sft_model = sft(&base, &ds.sva_bug, &ds.verilog_bug, &SftConfig::default());
//! let cases = prepare_cases(&ds.sva_bug, &sft_model.lm);
//! let assert_solver = dpo(&sft_model, &cases, &DpoConfig::default());
//! let solver = Solver::new(assert_solver);
//! let task = RepairTask::from(&ds.sva_eval_machine[0]);
//! let responses = solver.respond(&task, 20, 0);
//! assert_eq!(responses.len(), 20);
//! ```

pub mod baselines;
pub mod features;
pub mod infer;
pub mod lm;
pub mod localize;
pub mod policy;
pub mod tokenizer;
pub mod train;

/// Common imports for building and running solvers.
pub mod prelude {
    pub use crate::baselines::{HeuristicEngine, SelfVerifyEngine};
    pub use crate::infer::{RepairEngine, RepairTask, Response, Solver};
    pub use crate::lm::NgramLm;
    pub use crate::policy::Policy;
    pub use crate::train::{
        base_model, dpo, mine_challenging, prepare_cases, sft, DpoConfig, Model, SftConfig,
        TrainStage,
    };
}

pub use infer::{RepairEngine, RepairTask, Response, Solver};
pub use train::{Model, TrainStage};
