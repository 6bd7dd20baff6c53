//! # asv-ir
//!
//! The word-level optimizing IR: **one canonical, optimized design form
//! shared by all four engines**.
//!
//! Before this crate existed, every backend consumed the raw bytecode
//! lowered straight from the AST: the simulator executed unfolded
//! constants, the SAT engine bit-blasted duplicate logic into the AIG,
//! and the fuzzer instrumented branches that could never fire. The IR
//! moves that work to the front-end, once:
//!
//! ```text
//!   Verilog AST ──lower──▶ asv-ir (hash-consed word-level DAG)
//!                              │  passes: const fold + param prop,
//!                              │          algebraic simplification,
//!                              │          strength reduction, copy prop,
//!                              │          CSE (structural hashing)
//!                              ▼
//!                     optimized IR ──emit──▶ asv-sim bytecode
//!                                              ├─▶ compiled simulator
//!                                              ├─▶ asv-sat AIG blaster
//!                                              └─▶ asv-fuzz coverage ids
//! ```
//!
//! [`OptLevel`] selects the pipeline: `None` is the bit-exact reference
//! form (the bytecode is byte-identical to the pre-IR lowering), `Full`
//! runs every pass. The two are differentially tested to produce
//! identical traces, verdicts, counterexamples and coverage maps
//! (`tests/differential_opt.rs` at the workspace root).

pub mod eval;
pub mod ir;
pub mod opt;
pub mod value;

pub use eval::EvalError;
pub use ir::{Arena, IrCaseArm, IrCombStep, IrDesign, IrExpr, IrLValue, IrStmt, NodeId};
pub use value::Value;

use serde::{Deserialize, Serialize};

/// Dense index of an interned signal: position in the compiled state
/// vector and, equivalently, the trace column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SigId(pub u32);

impl SigId {
    /// The index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The width a parameter value evaluates at: 32 bits (the numeric-literal
/// default) unless the value needs more.
pub fn param_value(v: u64) -> Value {
    Value::new(v, if v >> 32 != 0 { 64 } else { 32 })
}

/// How aggressively the IR pipeline rewrites a design before emission.
///
/// `None` keeps the raw lowering alive as the differential reference;
/// `Full` (the default) runs every pass. Both forms are bit-identical on
/// every observable: traces, verdicts, counterexamples, coverage maps.
/// Compiled-artifact caches key on `(design hash, OptLevel)` so the two
/// forms never alias.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum OptLevel {
    /// Raw lowering, no passes: the reference form.
    None,
    /// The full pass pipeline.
    #[default]
    Full,
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            OptLevel::None => "none",
            OptLevel::Full => "full",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_width_rule() {
        assert_eq!(param_value(5).width(), 32);
        assert_eq!(param_value(u64::MAX).width(), 64);
    }

    #[test]
    fn opt_level_defaults_to_full() {
        assert_eq!(OptLevel::default(), OptLevel::Full);
        assert_eq!(OptLevel::Full.to_string(), "full");
    }
}
