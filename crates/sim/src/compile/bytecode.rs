//! Postfix expression bytecode and its stack machine.
//!
//! [`ExprProg`] is the executable form of one expression: a flat postfix
//! [`Op`] stream run by the non-recursive [`run`] interpreter, generic
//! over an [`ExecEnv`] so the same programs evaluate design expressions
//! against live simulator state and (via `asv-sva`) property expressions
//! against sampled traces.
//!
//! Programs come from two lowerings of the same shape:
//!
//! * **Design expressions** are emitted from the `asv-ir` form by tree
//!   expansion (see [`super::lower`]).
//! * **Property expressions** are compiled directly from the AST by
//!   [`compile_expr`]; they run against traces.

use crate::eval::{default_sys_call, EvalError};
use crate::value::Value;
use asv_ir::SigId;
use asv_verilog::ast::{BinaryOp, Expr, UnaryOp};

/// How a name resolves during expression compilation.
#[derive(Debug, Clone)]
pub enum NameRef {
    /// A live signal, read from the environment at execution time.
    Sig(SigId),
    /// A compile-time constant (parameter).
    Const(Value),
    /// Not resolvable; evaluating the reference raises
    /// [`EvalError::UnknownSignal`] *at execution time*, preserving the
    /// interpreter's lazy error behaviour (an unknown name in an untaken
    /// ternary branch never errors).
    Unknown,
}

/// History system function kinds resolved by the environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistoryKind {
    /// `$past(e [, n])`
    Past,
    /// `$rose(e)`
    Rose,
    /// `$fell(e)`
    Fell,
    /// `$stable(e)`
    Stable,
}

/// One postfix instruction of an expression program.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Push a constant.
    Const(Value),
    /// Push the environment's value of a signal.
    Load(SigId),
    /// Apply a unary operator to the top of stack.
    Unary(UnaryOp),
    /// Apply a binary operator to the top two values.
    Binary(BinaryOp),
    /// Pop the condition; jump to the absolute op index when it is falsy.
    JumpIfFalse(u32),
    /// Unconditional jump to the absolute op index.
    Jump(u32),
    /// Fold the top `n` values into one concatenation (deepest = msb
    /// part, matching source order).
    ConcatN(u16),
    /// Validate the replication count on top of stack (kept there).
    RepeatGuard,
    /// Pop the value, pop the count, push the replication.
    Repeat,
    /// Pop the index, pop the base, push the selected bit.
    BitIndex,
    /// Replace the top of stack with its `[msb:lsb]` slice.
    Slice(u32, u32),
    /// Pop `argc` arguments and apply a system function.
    SysCall {
        /// Function name without the `$`.
        name: Box<str>,
        /// Argument count.
        argc: u8,
    },
    /// Resolve a history call via [`ExecEnv::history`]. `arg` and `n`
    /// index [`ExprProg::subs`].
    History {
        /// Which history function.
        kind: HistoryKind,
        /// Sub-program for the sampled expression.
        arg: u32,
        /// Sub-program for `$past`'s cycle count (evaluated at the current
        /// tick), if present.
        n: Option<u32>,
    },
    /// Raise a compile-time-known error lazily, when (and only when) this
    /// operand would actually be evaluated.
    Fail(EvalError),
}

/// A compiled expression: a postfix program plus nested sub-programs for
/// history calls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExprProg {
    /// Postfix instruction stream.
    pub ops: Vec<Op>,
    /// Sub-programs referenced by [`Op::History`].
    pub subs: Vec<ExprProg>,
}

impl ExprProg {
    /// True when the program is a lone constant (used to classify static
    /// bit-select indices during levelization).
    pub(crate) fn is_const(&self) -> bool {
        matches!(self.ops.as_slice(), [Op::Const(_)])
    }

    /// Appends every signal the program (including sub-programs) reads to
    /// `out`, deduplicated against its current contents.
    pub fn collect_sigs(&self, out: &mut Vec<SigId>) {
        let push = |s: SigId, out: &mut Vec<SigId>| {
            if !out.contains(&s) {
                out.push(s);
            }
        };
        for op in &self.ops {
            if let Op::Load(s) = op {
                push(*s, out);
            }
        }
        for sub in &self.subs {
            sub.collect_sigs(out);
        }
    }
}

/// Value environment of the stack machine.
pub trait ExecEnv {
    /// Current value of an interned signal.
    fn load(&self, sig: SigId) -> Value;

    /// Resolves a non-history system call (same default as
    /// [`crate::eval::Env::sys_call`]).
    fn sys_call(&self, name: &str, args: &[Value]) -> Result<Value, EvalError> {
        default_sys_call(name, args)
    }

    /// Resolves a history call (`$past` and friends). Environments without
    /// sampled history reject it, matching the interpreter reaching
    /// [`crate::eval::Env::sys_call`] with an unsupported name.
    fn history(&self, kind: HistoryKind, _arg: &ExprProg, _n: usize) -> Result<Value, EvalError> {
        let name = match kind {
            HistoryKind::Past => "past",
            HistoryKind::Rose => "rose",
            HistoryKind::Fell => "fell",
            HistoryKind::Stable => "stable",
        };
        Err(EvalError::UnsupportedSysCall(name.to_string()))
    }
}

/// Executes a compiled expression program.
///
/// `stack` is caller-provided scratch so hot loops don't allocate; it may
/// be non-empty (nested evaluation) and is restored to its entry length on
/// both success and error.
///
/// # Errors
///
/// Returns the same [`EvalError`]s the AST interpreter raises for the
/// source expression.
pub fn run<E: ExecEnv + ?Sized>(
    prog: &ExprProg,
    env: &E,
    stack: &mut Vec<Value>,
) -> Result<Value, EvalError> {
    let base = stack.len();
    match run_inner(prog, env, stack, base) {
        Ok(v) => {
            stack.truncate(base);
            Ok(v)
        }
        Err(e) => {
            stack.truncate(base);
            Err(e)
        }
    }
}

fn run_inner<E: ExecEnv + ?Sized>(
    prog: &ExprProg,
    env: &E,
    stack: &mut Vec<Value>,
    base: usize,
) -> Result<Value, EvalError> {
    let ops = &prog.ops;
    let mut pc = 0usize;
    while pc < ops.len() {
        match &ops[pc] {
            Op::Const(v) => stack.push(*v),
            Op::Load(sig) => stack.push(env.load(*sig)),
            Op::Unary(op) => {
                let v = stack.pop().expect("unary operand");
                stack.push(crate::eval::unary(*op, v));
            }
            Op::Binary(op) => {
                let b = stack.pop().expect("binary rhs");
                let a = stack.pop().expect("binary lhs");
                stack.push(crate::eval::binary(*op, a, b)?);
            }
            Op::JumpIfFalse(target) => {
                let c = stack.pop().expect("jump condition");
                if !c.is_truthy() {
                    pc = *target as usize;
                    continue;
                }
            }
            Op::Jump(target) => {
                pc = *target as usize;
                continue;
            }
            Op::ConcatN(n) => {
                let n = *n as usize;
                debug_assert!(n >= 1 && stack.len() >= base + n);
                let first = stack.len() - n;
                let mut acc = stack[first];
                for v in &stack[first + 1..] {
                    acc = acc.concat(*v);
                }
                stack.truncate(first);
                stack.push(acc);
            }
            Op::RepeatGuard => {
                let n = stack.last().expect("repeat count").bits();
                if n == 0 || n > 64 {
                    return Err(EvalError::Malformed(format!(
                        "replication count {n} outside 1..=64"
                    )));
                }
            }
            Op::Repeat => {
                let v = stack.pop().expect("repeat value");
                let n = stack.pop().expect("repeat count").bits();
                let mut acc = v;
                for _ in 1..n {
                    acc = acc.concat(v);
                }
                stack.push(acc);
            }
            Op::BitIndex => {
                let i = stack.pop().expect("bit index").bits();
                let bse = stack.pop().expect("bit base");
                stack.push(Value::bit(
                    u32::try_from(i).map(|i| bse.get_bit(i)).unwrap_or(false),
                ));
            }
            Op::Slice(msb, lsb) => {
                let bse = stack.pop().expect("slice base");
                stack.push(bse.slice(*msb, *lsb));
            }
            Op::SysCall { name, argc } => {
                let argc = *argc as usize;
                debug_assert!(stack.len() >= base + argc);
                let first = stack.len() - argc;
                let r = env.sys_call(name, &stack[first..])?;
                stack.truncate(first);
                stack.push(r);
            }
            Op::History { kind, arg, n } => {
                let n = match n {
                    Some(id) => {
                        let v = run(&prog.subs[*id as usize], env, stack)?;
                        usize::try_from(v.bits()).unwrap_or(usize::MAX)
                    }
                    None => 1,
                };
                let v = env.history(*kind, &prog.subs[*arg as usize], n)?;
                stack.push(v);
            }
            Op::Fail(e) => return Err(e.clone()),
        }
        pc += 1;
    }
    Ok(stack.pop().expect("program result"))
}

// ---------------------------------------------------------------------------
// Direct AST → bytecode compilation (property programs)
// ---------------------------------------------------------------------------

/// Compiles `expr` into a postfix program.
///
/// `resolve` maps identifiers to signals/constants; `history` enables
/// [`Op::History`] lowering of `$past`/`$rose`/`$fell`/`$stable` (trace
/// environments). With `history` disabled those calls compile to plain
/// [`Op::SysCall`]s, which the default environment rejects at execution
/// time exactly like the interpreter.
pub fn compile_expr<R>(expr: &Expr, resolve: &R, history: bool) -> ExprProg
where
    R: Fn(&str) -> NameRef,
{
    let mut prog = ExprProg::default();
    emit(expr, resolve, history, &mut prog);
    prog
}

fn emit<R>(expr: &Expr, resolve: &R, history: bool, prog: &mut ExprProg)
where
    R: Fn(&str) -> NameRef,
{
    match expr {
        Expr::Number { value, width, .. } => {
            prog.ops
                .push(Op::Const(Value::new(*value, width.unwrap_or(32).min(64))));
        }
        Expr::Ident { name, .. } => emit_name(name, resolve, prog),
        Expr::Unary { op, operand, .. } => {
            emit(operand, resolve, history, prog);
            prog.ops.push(Op::Unary(*op));
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            emit(lhs, resolve, history, prog);
            emit(rhs, resolve, history, prog);
            prog.ops.push(Op::Binary(*op));
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            emit(cond, resolve, history, prog);
            let jif = prog.ops.len();
            prog.ops.push(Op::JumpIfFalse(0));
            emit(then_expr, resolve, history, prog);
            let jend = prog.ops.len();
            prog.ops.push(Op::Jump(0));
            let else_start = prog.ops.len() as u32;
            emit(else_expr, resolve, history, prog);
            let end = prog.ops.len() as u32;
            prog.ops[jif] = Op::JumpIfFalse(else_start);
            prog.ops[jend] = Op::Jump(end);
        }
        Expr::Concat { parts, .. } => {
            if parts.is_empty() {
                prog.ops
                    .push(Op::Fail(EvalError::Malformed("empty concatenation".into())));
                return;
            }
            for p in parts {
                emit(p, resolve, history, prog);
            }
            prog.ops
                .push(Op::ConcatN(u16::try_from(parts.len()).unwrap_or(u16::MAX)));
        }
        Expr::Repeat { count, value, .. } => {
            emit(count, resolve, history, prog);
            prog.ops.push(Op::RepeatGuard);
            emit(value, resolve, history, prog);
            prog.ops.push(Op::Repeat);
        }
        Expr::Bit { name, index, .. } => {
            emit_name(name, resolve, prog);
            emit(index, resolve, history, prog);
            prog.ops.push(Op::BitIndex);
        }
        Expr::Part { name, range, .. } => {
            emit_name(name, resolve, prog);
            prog.ops.push(Op::Slice(range.msb, range.lsb));
        }
        Expr::SysCall { name, args, .. } => {
            let kind = match name.as_str() {
                "past" => Some(HistoryKind::Past),
                "rose" => Some(HistoryKind::Rose),
                "fell" => Some(HistoryKind::Fell),
                "stable" => Some(HistoryKind::Stable),
                _ => None,
            };
            match kind {
                Some(kind) if history => {
                    let Some(arg0) = args.first() else {
                        prog.ops.push(Op::Fail(EvalError::Malformed(format!(
                            "${name} requires an argument"
                        ))));
                        return;
                    };
                    let mut sub = ExprProg::default();
                    emit(arg0, resolve, history, &mut sub);
                    let arg = prog.subs.len() as u32;
                    prog.subs.push(sub);
                    let n = (kind == HistoryKind::Past)
                        .then(|| args.get(1))
                        .flatten()
                        .map(|e| {
                            let mut sub = ExprProg::default();
                            emit(e, resolve, history, &mut sub);
                            let id = prog.subs.len() as u32;
                            prog.subs.push(sub);
                            id
                        });
                    prog.ops.push(Op::History { kind, arg, n });
                }
                _ => {
                    for a in args {
                        emit(a, resolve, history, prog);
                    }
                    prog.ops.push(Op::SysCall {
                        name: name.as_str().into(),
                        argc: u8::try_from(args.len()).unwrap_or(u8::MAX),
                    });
                }
            }
        }
    }
}

fn emit_name<R>(name: &str, resolve: &R, prog: &mut ExprProg)
where
    R: Fn(&str) -> NameRef,
{
    match resolve(name) {
        NameRef::Sig(s) => prog.ops.push(Op::Load(s)),
        NameRef::Const(v) => prog.ops.push(Op::Const(v)),
        NameRef::Unknown => prog
            .ops
            .push(Op::Fail(EvalError::UnknownSignal(name.to_string()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct NoEnv;
    impl ExecEnv for NoEnv {
        fn load(&self, _: SigId) -> Value {
            unreachable!()
        }
    }

    #[test]
    fn stack_is_restored_after_errors() {
        let prog = ExprProg {
            ops: vec![
                Op::Const(Value::new(1, 4)),
                Op::Fail(EvalError::DivideByZero),
            ],
            ..ExprProg::default()
        };
        let mut stack = vec![Value::bit(true)];
        assert!(run(&prog, &NoEnv, &mut stack).is_err());
        assert_eq!(stack.len(), 1, "scratch stack must be restored");
    }
}
