//! # asv-fuzz
//!
//! Coverage-guided stimulus fuzzing — the reproduction's third
//! verification backend, next to the symbolic bounded model checker
//! (`asv-sat`) and exhaustive enumeration.
//!
//! Designs outside the symbolic engine's subset (non-levelizable logic,
//! dynamic bit indices, latch loops) whose input space is too wide to
//! enumerate are checked here. Blind random sampling almost never
//! exercises rare-trigger assertions, so this crate runs a directed
//! greybox search in the AFL lineage:
//!
//! * every run records a [`CovMap`](asv_sim::CovMap) (branch arms, signal
//!   toggles, assertion antecedents) through the zero-cost-when-disabled
//!   instrumentation in `asv-sim`;
//! * stimuli that reach new coverage enter a deduplicated [`Corpus`] with
//!   an energy proportional to how much they discovered (the power
//!   schedule);
//! * the [`Mutator`] derives children by bit/word flips, corner-value and
//!   design-dictionary substitution (constants harvested from the
//!   compiled bytecode — the AFL dictionary trick that cracks
//!   `a == 8'hA5`-style triggers), cycle splice/duplicate/truncate and
//!   two-parent crossover;
//! * each round runs up to [`asv_sim::LANES`] stimuli as one lane group
//!   on the calling thread and merges them in stimulus-index order, so
//!   the result is deterministic from a single seed (the verification
//!   service runs campaigns in parallel, one per worker);
//! * every failure is replayed on the `AstSimulator` interpreter oracle
//!   before it is reported.
//!
//! Property semantics stay in `asv-sva`: the verifier passes its compiled
//! checker in through the [`AssertionOracle`] trait, keeping this crate
//! free of SVA knowledge (and the dependency graph acyclic).

pub mod corpus;
pub mod engine;
pub mod mutate;

pub use corpus::{Corpus, CorpusEntry};
pub use engine::{
    fuzz, fuzz_traced, AssertionOracle, FuzzError, FuzzOptions, FuzzResult, FuzzVerdict,
};
pub use mutate::{design_dictionary, Mutator};
