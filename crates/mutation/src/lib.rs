//! # asv-mutation
//!
//! Bug injection and repair-space enumeration for the AssertSolver
//! reproduction: the stand-in for the paper's LLM-based random bug
//! generator (Stage 2), covering the full Table I taxonomy by construction.
//!
//! * [`kinds`] — the bug taxonomy (`Direct`/`Indirect`, `Var`/`Value`/`Op`,
//!   `Cond`/`Non_cond`);
//! * [`sites`] — deterministic expression-site enumeration;
//! * [`inject`] — mutation enumeration, application and classification;
//! * [`repairspace`] — the inverse problem: candidate single-line fixes a
//!   repair model ranks.
//!
//! ## Quick start
//!
//! ```
//! use asv_mutation::inject;
//!
//! let design = asv_verilog::compile(
//!     "module m(input a, input b, output y); assign y = a & b; endmodule",
//! )?;
//! let mutations = inject::enumerate(&design);
//! let injection = inject::apply(&design, &mutations[0])?;
//! assert_ne!(injection.buggy_line, injection.fixed_line);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod inject;
pub mod kinds;
pub mod repairspace;
pub mod sites;

pub use inject::{apply, classify_direct, enumerate, Edit, InjectError, Injection, Mutation};
pub use kinds::{BugCategory, BugClass, SyntacticKind};
pub use repairspace::{candidates, golden_candidates, matches_golden, splice_line, Candidate};
