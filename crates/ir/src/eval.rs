//! Pure 2-state operator semantics shared by every backend.
//!
//! These functions are the single source of truth for what each Verilog
//! operator *means* on [`Value`]s: the AST interpreter, the compiled
//! bytecode executor and the AIG bit-blaster all call (or mirror)
//! exactly this code, which is what makes cross-backend
//! bit-identity a local property instead of a suite-wide prayer.

use crate::value::Value;
use asv_verilog::ast::{BinaryOp, UnaryOp};
use std::fmt;

/// Errors raised during expression evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EvalError {
    /// Identifier not bound in the environment.
    UnknownSignal(String),
    /// A system function unsupported in this context.
    UnsupportedSysCall(String),
    /// Division or modulo by zero.
    DivideByZero,
    /// Malformed construct (e.g. non-constant replication count).
    Malformed(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownSignal(s) => write!(f, "unknown signal `{s}`"),
            EvalError::UnsupportedSysCall(s) => write!(f, "unsupported system call `${s}`"),
            EvalError::DivideByZero => write!(f, "division by zero"),
            EvalError::Malformed(m) => write!(f, "malformed expression: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The default system-call semantics shared by the AST interpreter and
/// the compiled backend.
///
/// # Errors
///
/// Returns [`EvalError::UnsupportedSysCall`] for anything but the purely
/// combinational `$countones`/`$onehot`/`$onehot0`.
pub fn default_sys_call(name: &str, args: &[Value]) -> Result<Value, EvalError> {
    match (name, args) {
        ("countones", [v]) => Ok(Value::new(u64::from(v.count_ones()), 32)),
        ("onehot", [v]) => Ok(Value::bit(v.count_ones() == 1)),
        ("onehot0", [v]) => Ok(Value::bit(v.count_ones() <= 1)),
        _ => Err(EvalError::UnsupportedSysCall(name.to_string())),
    }
}

/// Applies a unary operator (2-state semantics shared by all backends).
// `#[inline]`: the workspace builds without LTO, and the sim/sat/fuzz hot
// loops dispatch through here from other crates; without the hint every
// bytecode op pays a cross-crate call.
#[inline]
pub fn unary(op: UnaryOp, v: Value) -> Value {
    match op {
        UnaryOp::Neg => Value::new(v.bits().wrapping_neg(), v.width()),
        UnaryOp::LogicNot => Value::bit(!v.is_truthy()),
        UnaryOp::BitNot => Value::new(!v.bits(), v.width()),
        UnaryOp::RedAnd => Value::bit(v.reduce_and()),
        UnaryOp::RedOr => Value::bit(v.reduce_or()),
        UnaryOp::RedXor => Value::bit(v.reduce_xor()),
        UnaryOp::RedNand => Value::bit(!v.reduce_and()),
        UnaryOp::RedNor => Value::bit(!v.reduce_or()),
        UnaryOp::RedXnor => Value::bit(!v.reduce_xor()),
        UnaryOp::Plus => v,
    }
}

/// Applies a binary operator (2-state semantics shared by all backends).
///
/// Both operands are always evaluated — `&&`/`||` are *not* short-circuit
/// in this subset, matching event-driven simulators that evaluate whole
/// expressions.
///
/// # Errors
///
/// Returns [`EvalError::DivideByZero`] for `/`/`%` with a zero divisor.
// `#[inline]`: see [`unary`] — with a constant `op` the callee folds to a
// single arm, which is what lets the lane-batched executor's per-operator
// loops vectorize.
#[inline]
pub fn binary(op: BinaryOp, a: Value, b: Value) -> Result<Value, EvalError> {
    use BinaryOp as B;
    let w = a.width().max(b.width());
    let (x, y) = (a.bits(), b.bits());
    Ok(match op {
        B::Add => Value::new(x.wrapping_add(y), w),
        B::Sub => Value::new(x.wrapping_sub(y), w),
        B::Mul => Value::new(x.wrapping_mul(y), w),
        B::Div => Value::new(x.checked_div(y).ok_or(EvalError::DivideByZero)?, w),
        B::Mod => Value::new(x.checked_rem(y).ok_or(EvalError::DivideByZero)?, w),
        B::Pow => Value::new(x.wrapping_pow(u32::try_from(y).unwrap_or(u32::MAX)), w),
        B::BitAnd => Value::new(x & y, w),
        B::BitOr => Value::new(x | y, w),
        B::BitXor => Value::new(x ^ y, w),
        B::BitXnor => Value::new(!(x ^ y), w),
        B::LogicAnd => Value::bit(x != 0 && y != 0),
        B::LogicOr => Value::bit(x != 0 || y != 0),
        B::Eq | B::CaseEq => Value::bit(x == y),
        B::Ne | B::CaseNe => Value::bit(x != y),
        B::Lt => Value::bit(x < y),
        B::Le => Value::bit(x <= y),
        B::Gt => Value::bit(x > y),
        B::Ge => Value::bit(x >= y),
        B::Shl | B::AShl => Value::new(x.checked_shl(shift_amount(y)).unwrap_or(0), w),
        B::Shr => Value::new(x.checked_shr(shift_amount(y)).unwrap_or(0), w),
        // Arithmetic right shift on an unsigned domain: sign-extend from
        // the operand's declared msb.
        B::AShr => {
            let sh = shift_amount(y);
            let aw = a.width();
            let sign = a.get_bit(aw - 1);
            let mut bits = x.checked_shr(sh).unwrap_or(0);
            if sign && sh > 0 {
                let fill = if sh >= aw {
                    if aw >= 64 {
                        u64::MAX
                    } else {
                        (1u64 << aw) - 1
                    }
                } else {
                    let ones = (1u64 << sh.min(63)) - 1;
                    ones << (aw - sh.min(aw))
                };
                bits |= fill;
            }
            Value::new(bits, w)
        }
    })
}

fn shift_amount(y: u64) -> u32 {
    u32::try_from(y).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_wraps_at_common_width() {
        let v = binary(BinaryOp::Add, Value::new(15, 4), Value::new(1, 4)).expect("eval");
        assert_eq!(v.bits(), 0, "4-bit wraparound");
        assert_eq!(v.width(), 4);
    }

    #[test]
    fn divide_by_zero_is_error() {
        assert_eq!(
            binary(BinaryOp::Div, Value::new(4, 4), Value::zero(4)),
            Err(EvalError::DivideByZero)
        );
        assert_eq!(
            binary(BinaryOp::Mod, Value::new(4, 4), Value::zero(4)),
            Err(EvalError::DivideByZero)
        );
    }

    #[test]
    fn ashr_sign_extends_from_declared_msb() {
        let v = binary(BinaryOp::AShr, Value::new(0x80, 8), Value::new(2, 4)).expect("eval");
        assert_eq!(v.bits() & 0xFF, 0xE0);
    }

    #[test]
    fn sys_calls_have_default_semantics() {
        assert_eq!(
            default_sys_call("countones", &[Value::new(0b1011, 4)]),
            Ok(Value::new(3, 32))
        );
        assert!(matches!(
            default_sys_call("display", &[]),
            Err(EvalError::UnsupportedSysCall(_))
        ));
    }
}
