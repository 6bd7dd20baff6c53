//! # asv-ir
//!
//! The word-level IR: **one canonical design form shared by all four
//! engines**. The elaborated AST lowers here once; `asv-sim` emits its
//! bytecode from the result, and every backend consumes that bytecode:
//!
//! ```text
//!   Verilog AST ──lower──▶ asv-ir (hash-consed word-level DAG:
//!                          parameters folded, branch sites numbered,
//!                          lazy `Fail` nodes, sym-clean flags)
//!                              │
//!                              ▼
//!                          emit (tree expansion) ──▶ asv-sim bytecode
//!                                                     ├─▶ compiled simulator
//!                                                     ├─▶ asv-sat AIG blaster
//!                                                     └─▶ asv-fuzz coverage ids
//! ```
//!
//! No pass rewrites the IR. The symbolic engine restricts its own
//! unrolling to the assertion cone, skipping only steps the IR marks as
//! guaranteed to bit-blast ([`IrDesign::sym_clean_steps`]).

pub mod eval;
pub mod ir;
pub mod value;

pub use eval::EvalError;
pub use ir::{Arena, IrCaseArm, IrCombStep, IrDesign, IrExpr, IrLValue, IrStmt, NodeId};
pub use value::Value;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_width_rule() {
        assert_eq!(param_value(5).width(), 32);
        assert_eq!(param_value(u64::MAX).width(), 64);
    }
}
