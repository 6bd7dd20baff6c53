//! Expression interpreter shared by the simulator and the SVA monitor.
//!
//! Evaluation is generic over an [`Env`], so the same code evaluates design
//! expressions against live simulator state and property expressions
//! against sampled trace history (where `$past`/`$rose`/... are resolved by
//! the environment).

use crate::value::Value;
use asv_verilog::ast::{Expr, LValue};

// The pure operator semantics live in `asv-ir`, below every backend;
// they are re-exported here so every historical
// `asv_sim::eval::{unary, binary, …}` path keeps working.
pub use asv_ir::eval::{binary, default_sys_call, unary, EvalError};

/// Value-lookup environment for expression evaluation.
pub trait Env {
    /// Current value of a signal or parameter.
    fn value_of(&self, name: &str) -> Option<Value>;

    /// Resolves a system call. The default rejects everything except
    /// `$countones`/`$onehot`/`$onehot0`, which are purely combinational.
    fn sys_call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        default_sys_call(name, args)
    }
}

/// Evaluates `expr` in `env`.
///
/// All arithmetic is unsigned and wraps at 64 bits; results are masked by
/// assignment-target width at write time (see [`crate::exec`]).
///
/// # Errors
///
/// Returns [`EvalError`] for unknown identifiers, unsupported system calls
/// and division by zero.
pub fn eval<E: Env + ?Sized>(expr: &Expr, env: &E) -> Result<Value, EvalError> {
    match expr {
        Expr::Number { value, width, .. } => Ok(Value::new(*value, width.unwrap_or(32).min(64))),
        Expr::Ident { name, .. } => env
            .value_of(name)
            .ok_or_else(|| EvalError::UnknownSignal(name.clone())),
        Expr::Unary { op, operand, .. } => Ok(unary(*op, eval(operand, env)?)),
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = eval(lhs, env)?;
            let b = eval(rhs, env)?;
            binary(*op, a, b)
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            if eval(cond, env)?.is_truthy() {
                eval(then_expr, env)
            } else {
                eval(else_expr, env)
            }
        }
        Expr::Concat { parts, .. } => {
            let mut acc: Option<Value> = None;
            for p in parts {
                let v = eval(p, env)?;
                acc = Some(match acc {
                    None => v,
                    Some(hi) => hi.concat(v),
                });
            }
            acc.ok_or_else(|| EvalError::Malformed("empty concatenation".into()))
        }
        Expr::Repeat { count, value, .. } => {
            let n = eval(count, env)?.bits();
            if n == 0 || n > 64 {
                return Err(EvalError::Malformed(format!(
                    "replication count {n} outside 1..=64"
                )));
            }
            let v = eval(value, env)?;
            let mut acc = v;
            for _ in 1..n {
                acc = acc.concat(v);
            }
            Ok(acc)
        }
        Expr::Bit { name, index, .. } => {
            let base = env
                .value_of(name)
                .ok_or_else(|| EvalError::UnknownSignal(name.clone()))?;
            let i = eval(index, env)?.bits();
            Ok(Value::bit(
                u32::try_from(i).map(|i| base.get_bit(i)).unwrap_or(false),
            ))
        }
        Expr::Part { name, range, .. } => {
            let base = env
                .value_of(name)
                .ok_or_else(|| EvalError::UnknownSignal(name.clone()))?;
            Ok(base.slice(range.msb, range.lsb))
        }
        Expr::SysCall { name, args, .. } => {
            // History-dependent calls ($past/$rose/...) are intercepted by
            // the SVA environment before argument evaluation; reaching here
            // means the env wants plain evaluated arguments.
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env)?);
            }
            env.sys_call(name, &vals)
        }
    }
}

/// Applies an assignment of `value` to `lv` over a mutable store via
/// callbacks, honouring bit- and part-selects and concat targets.
///
/// `read` fetches the current value of a signal (for read-modify-write of
/// selects); `write` commits the new full-width value.
///
/// # Errors
///
/// Propagates [`EvalError`] from index evaluation and unknown signals.
pub fn assign_lvalue<E, R, W>(
    lv: &LValue,
    value: Value,
    env: &E,
    read: &mut R,
    write: &mut W,
) -> Result<(), EvalError>
where
    E: Env + ?Sized,
    R: FnMut(&str) -> Option<Value>,
    W: FnMut(&str, Value),
{
    match lv {
        LValue::Ident { name, .. } => {
            let width = read(name)
                .ok_or_else(|| EvalError::UnknownSignal(name.clone()))?
                .width();
            write(name, value.resize(width));
            Ok(())
        }
        LValue::Bit { name, index, .. } => {
            let cur = read(name).ok_or_else(|| EvalError::UnknownSignal(name.clone()))?;
            let i = eval(index, env)?.bits();
            let i = u32::try_from(i).unwrap_or(u32::MAX);
            write(name, cur.set_bit(i, value.is_truthy() && value.get_bit(0)));
            Ok(())
        }
        LValue::Part { name, range, .. } => {
            let cur = read(name).ok_or_else(|| EvalError::UnknownSignal(name.clone()))?;
            write(name, cur.set_slice(range.msb, range.lsb, value));
            Ok(())
        }
        LValue::Concat { parts, .. } => {
            // Assign from the high part downward.
            let mut widths = Vec::with_capacity(parts.len());
            for p in parts {
                widths.push(lvalue_width(p, read)?);
            }
            let total: u32 = widths.iter().sum();
            let mut consumed = 0;
            for (p, w) in parts.iter().zip(widths) {
                let hi = total - consumed - 1;
                let lo = total - consumed - w;
                let field = value.resize(total.min(64)).slice(hi.min(63), lo.min(63));
                assign_lvalue(p, field, env, read, write)?;
                consumed += w;
            }
            Ok(())
        }
    }
}

fn lvalue_width<R: FnMut(&str) -> Option<Value>>(
    lv: &LValue,
    read: &mut R,
) -> Result<u32, EvalError> {
    match lv {
        LValue::Ident { name, .. } => read(name)
            .map(|v| v.width())
            .ok_or_else(|| EvalError::UnknownSignal(name.clone())),
        LValue::Bit { .. } => Ok(1),
        LValue::Part { range, .. } => Ok(range.width()),
        LValue::Concat { parts, .. } => {
            let mut total = 0;
            for p in parts {
                total += lvalue_width(p, read)?;
            }
            Ok(total)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::ast::Item;
    use asv_verilog::parse;
    use std::collections::BTreeMap;

    struct MapEnv(BTreeMap<String, Value>);

    impl Env for MapEnv {
        fn value_of(&self, name: &str) -> Option<Value> {
            self.0.get(name).copied()
        }
    }

    fn eval_src(expr_src: &str, bindings: &[(&str, u64, u32)]) -> Result<Value, EvalError> {
        let decls: String = bindings
            .iter()
            .map(|(n, _, w)| format!("input [{}:0] {n}, ", w - 1))
            .collect();
        let src = format!("module t({decls}output [63:0] y);\nassign y = {expr_src};\nendmodule");
        let unit = parse(&src).expect("parse ok");
        let Item::Assign(ca) = unit.modules[0]
            .items
            .iter()
            .find(|i| matches!(i, Item::Assign(_)))
            .expect("assign present")
        else {
            unreachable!()
        };
        let env = MapEnv(
            bindings
                .iter()
                .map(|(n, v, w)| (n.to_string(), Value::new(*v, *w)))
                .collect(),
        );
        eval(&ca.rhs, &env)
    }

    #[test]
    fn arithmetic_wraps_at_width() {
        let v = eval_src("a + b", &[("a", 15, 4), ("b", 1, 4)]).expect("eval");
        assert_eq!(v.bits(), 0, "4-bit wraparound");
    }

    #[test]
    fn comparison_yields_single_bit() {
        let v = eval_src("a < b", &[("a", 3, 4), ("b", 7, 4)]).expect("eval");
        assert_eq!(v.bits(), 1);
        assert_eq!(v.width(), 1);
    }

    #[test]
    fn ternary_selects() {
        assert_eq!(
            eval_src("sel ? a : b", &[("sel", 1, 1), ("a", 5, 4), ("b", 9, 4)])
                .expect("eval")
                .bits(),
            5
        );
        assert_eq!(
            eval_src("sel ? a : b", &[("sel", 0, 1), ("a", 5, 4), ("b", 9, 4)])
                .expect("eval")
                .bits(),
            9
        );
    }

    #[test]
    fn reduction_and_logical_ops() {
        assert_eq!(eval_src("&a", &[("a", 0xF, 4)]).expect("eval").bits(), 1);
        assert_eq!(
            eval_src("a && b", &[("a", 2, 4), ("b", 0, 4)])
                .expect("eval")
                .bits(),
            0
        );
        assert_eq!(eval_src("!a", &[("a", 0, 4)]).expect("eval").bits(), 1);
    }

    #[test]
    fn concat_and_repeat() {
        let v = eval_src("{a, b}", &[("a", 0xA, 4), ("b", 0x5, 4)]).expect("eval");
        assert_eq!(v.bits(), 0xA5);
        let r = eval_src("{2{a}}", &[("a", 0xA, 4)]).expect("eval");
        assert_eq!(r.bits(), 0xAA);
    }

    #[test]
    fn bit_and_part_select() {
        assert_eq!(
            eval_src("a[2]", &[("a", 0b0100, 4)]).expect("eval").bits(),
            1
        );
        assert_eq!(
            eval_src("a[3:2]", &[("a", 0b1100, 4)])
                .expect("eval")
                .bits(),
            0b11
        );
    }

    #[test]
    fn divide_by_zero_is_error() {
        assert_eq!(
            eval_src("a / b", &[("a", 4, 4), ("b", 0, 4)]),
            Err(EvalError::DivideByZero)
        );
    }

    #[test]
    fn unknown_signal_is_error() {
        let env = MapEnv(BTreeMap::new());
        let unit = parse("module t(input zz, output y); assign y = zz; endmodule").expect("ok");
        let Item::Assign(ca) = &unit.modules[0].items[0] else {
            panic!("expected assign item");
        };
        assert!(matches!(
            eval(&ca.rhs, &env),
            Err(EvalError::UnknownSignal(_))
        ));
    }

    #[test]
    fn countones_sys_call() {
        assert_eq!(
            eval_src("$countones(a)", &[("a", 0b1011, 4)])
                .expect("eval")
                .bits(),
            3
        );
    }

    #[test]
    fn ashr_sign_extends() {
        // a = 8'b1000_0000 >>> 2 = 8'b1110_0000 when msb set.
        let v = eval_src("a >>> b", &[("a", 0x80, 8), ("b", 2, 4)]).expect("eval");
        assert_eq!(v.bits() & 0xFF, 0xE0);
    }

    #[test]
    fn assign_lvalue_bit_select() {
        let store: BTreeMap<String, Value> = BTreeMap::from([("y".to_string(), Value::new(0, 4))]);
        let mut written: BTreeMap<String, Value> = BTreeMap::new();
        let env = MapEnv(store.clone());
        let unit = parse(
            "module t(input clk, output reg [3:0] y); always @(posedge clk) y[2] = 1'b1; endmodule",
        )
        .expect("parse");
        let Item::Always(al) = &unit.modules[0].items[0] else {
            panic!()
        };
        let asv_verilog::ast::Stmt::Assign { lhs, .. } = &al.body else {
            panic!()
        };
        assign_lvalue(
            lhs,
            Value::bit(true),
            &env,
            &mut |n| store.get(n).copied(),
            &mut |n, v| {
                written.insert(n.to_string(), v);
            },
        )
        .expect("assign ok");
        assert_eq!(written["y"].bits(), 0b0100);
    }
}
