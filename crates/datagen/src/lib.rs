//! # asv-datagen
//!
//! The AssertSolver data-augmentation pipeline (paper Fig. 2-I): synthetic
//! corpus generation, Stage 1 filtering + syntax checking, Stage 2 bug/SVA
//! generation + validation, Stage 3 CoT generation + validation, and the
//! hand-curated SVA-Eval-Human benchmark.
//!
//! ## Quick start
//!
//! ```no_run
//! use asv_datagen::pipeline::{run, PipelineConfig};
//!
//! let datasets = run(&PipelineConfig::quick());
//! assert!(!datasets.sva_bug.is_empty());
//! assert_eq!(datasets.sva_eval_human.len(), 38);
//! ```

pub mod corpus;
pub mod cot;
pub mod dataset;
pub mod human;
pub mod pipeline;
pub mod stage1;
pub mod stage2;

pub use corpus::{Archetype, CorpusGen, GeneratedDesign, SizeHint};
pub use dataset::{LengthBin, Split, SvaBugEntry, VerilogBugEntry, VerilogPtEntry};
pub use pipeline::{Datasets, PipelineConfig, PipelineStats};
