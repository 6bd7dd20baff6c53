//! Bit-blasting: symbolic execution of `asv_sim` expression bytecode over
//! AIG literals.
//!
//! [`SymVec`] is the symbolic twin of [`asv_sim::value::Value`]: a vector
//! of 1..=64 AIG literals, least-significant bit first, with identical
//! width rules (results masked to `max(lhs, rhs)` width, arithmetic
//! wrapping, unsigned comparisons, the arithmetic-shift sign fill of the
//! interpreter). Word-level operators expand to ripple-carry adders,
//! shift-and-add multipliers, barrel shifters and mux networks.
//!
//! [`run_sym`] executes a compiled [`ExprProg`] symbolically. Control flow
//! with *constant* conditions follows the concrete jump (preserving the
//! interpreter's lazy-error semantics); a *symbolic* ternary condition
//! evaluates both branches and muxes them. Constructs whose concrete
//! evaluation could raise a runtime error that cannot be ruled out at
//! lowering time (division by a non-constant, unsupported system calls,
//! unresolved names) return a [`BlastError`], which the engine
//! turns into a fallback to the simulation oracle.

use crate::aig::{Aig, NLit};
use asv_sim::compile::{ExprProg, HistoryKind, Op, SigId};
use asv_sim::eval as sim_eval;
use asv_sim::value::Value;
use asv_verilog::ast::{BinaryOp, UnaryOp};
use std::fmt;

/// Raised when a construct cannot be lowered to 2-state AIG logic with
/// semantics provably identical to the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlastError(pub String);

impl fmt::Display for BlastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not bit-blastable: {}", self.0)
    }
}

impl std::error::Error for BlastError {}

fn unsupported<T>(msg: impl Into<String>) -> Result<T, BlastError> {
    Err(BlastError(msg.into()))
}

/// A symbolic bit vector: the AIG counterpart of [`Value`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymVec {
    bits: Vec<NLit>,
}

impl SymVec {
    /// Builds a vector from literals (LSB first).
    ///
    /// # Panics
    ///
    /// Panics when the width is outside 1..=64, mirroring [`Value::new`].
    pub fn new(bits: Vec<NLit>) -> Self {
        assert!((1..=64).contains(&bits.len()), "width must be in 1..=64");
        SymVec { bits }
    }

    /// A constant vector from a concrete [`Value`].
    pub fn from_value(v: Value) -> Self {
        SymVec {
            bits: (0..v.width())
                .map(|i| NLit::constant(v.get_bit(i)))
                .collect(),
        }
    }

    /// An all-zero vector of `width` bits.
    pub fn zeros(width: u32) -> Self {
        SymVec::from_value(Value::zero(width))
    }

    /// The declared width.
    pub fn width(&self) -> u32 {
        self.bits.len() as u32
    }

    /// The literals, LSB first.
    pub fn lits(&self) -> &[NLit] {
        &self.bits
    }

    /// The concrete value, when every bit is constant.
    pub fn as_const(&self) -> Option<Value> {
        let mut bits = 0u64;
        for (i, l) in self.bits.iter().enumerate() {
            if l.as_const()? {
                bits |= 1 << i;
            }
        }
        Some(Value::new(bits, self.width()))
    }

    /// Bit `i`, or constant false out of range (mirrors [`Value::get_bit`]).
    pub fn get(&self, i: u32) -> NLit {
        self.bits.get(i as usize).copied().unwrap_or(NLit::FALSE)
    }

    /// Reinterprets at a new width, truncating or zero-extending
    /// (mirrors [`Value::resize`]).
    pub fn resize(&self, width: u32) -> Self {
        SymVec {
            bits: (0..width).map(|i| self.get(i)).collect(),
        }
    }

    /// `self != 0`.
    pub fn is_truthy(&self, g: &mut Aig) -> NLit {
        g.or_many(&self.bits)
    }

    /// Extracts `[msb:lsb]` (mirrors [`Value::slice`]).
    pub fn slice(&self, msb: u32, lsb: u32) -> Self {
        debug_assert!(msb >= lsb);
        let w = (msb - lsb + 1).min(64);
        SymVec {
            bits: (0..w).map(|j| self.get(lsb.saturating_add(j))).collect(),
        }
    }

    /// Writes `[msb:lsb]` from the low bits of `v`
    /// (mirrors [`Value::set_slice`]).
    pub fn set_slice(&self, msb: u32, lsb: u32, v: &SymVec) -> Self {
        debug_assert!(msb >= lsb);
        let w = msb - lsb + 1;
        SymVec {
            bits: (0..self.width())
                .map(|j| {
                    if j >= lsb && j < lsb.saturating_add(w.min(64)) {
                        v.get(j - lsb)
                    } else {
                        self.get(j)
                    }
                })
                .collect(),
        }
    }

    /// Concatenates `self` (high) with `low`, clamping to 64 bits
    /// (mirrors [`Value::concat`]).
    pub fn concat(&self, low: &SymVec) -> Self {
        let w = (self.width() + low.width()).min(64);
        SymVec {
            bits: (0..w)
                .map(|j| {
                    if j < low.width() {
                        low.get(j)
                    } else {
                        self.get(j - low.width())
                    }
                })
                .collect(),
        }
    }

    /// Per-bit mux: `cond ? then_v : else_v`. Both sides must share a width.
    pub fn mux(g: &mut Aig, cond: NLit, then_v: &SymVec, else_v: &SymVec) -> Self {
        debug_assert_eq!(then_v.width(), else_v.width());
        SymVec {
            bits: (0..then_v.width() as usize)
                .map(|j| g.mux(cond, then_v.bits[j], else_v.bits[j]))
                .collect(),
        }
    }

    /// `self == j` for a constant `j` (false when `j` needs more bits).
    pub fn eq_const(&self, g: &mut Aig, j: u64) -> NLit {
        if self.width() < 64 && j >> self.width() != 0 {
            return NLit::FALSE;
        }
        let lits: Vec<NLit> = (0..self.width())
            .map(|i| {
                if j >> i & 1 == 1 {
                    self.get(i)
                } else {
                    !self.get(i)
                }
            })
            .collect();
        g.and_many(&lits)
    }

    /// Raw-bits equality with another vector (operands zero-extended to a
    /// common width; this is the comparison `case` labels use).
    pub fn eq_bits(&self, g: &mut Aig, other: &SymVec) -> NLit {
        let w = self.width().max(other.width());
        let lits: Vec<NLit> = (0..w).map(|i| g.eq(self.get(i), other.get(i))).collect();
        g.and_many(&lits)
    }

    /// Selects bit `index` where the index is itself symbolic: a one-hot
    /// mux network, with out-of-range indices reading 0.
    pub fn bit_index(&self, g: &mut Aig, index: &SymVec) -> NLit {
        if let Some(iv) = index.as_const() {
            return self.get(u32::try_from(iv.bits()).unwrap_or(u32::MAX));
        }
        let mut acc = NLit::FALSE;
        for j in 0..self.width() {
            let hit = index.eq_const(g, u64::from(j));
            let sel = g.and(hit, self.get(j));
            acc = g.or(acc, sel);
        }
        acc
    }

    /// Writes bit `index` (symbolic) to `b`, a no-op out of range
    /// (mirrors [`Value::set_bit`]).
    pub fn set_bit(&self, g: &mut Aig, index: &SymVec, b: NLit) -> Self {
        SymVec {
            bits: (0..self.width())
                .map(|j| {
                    let hit = index.eq_const(g, u64::from(j));
                    g.mux(hit, b, self.get(j))
                })
                .collect(),
        }
    }
}

/// Ripple-carry addition of equal-width vectors (result that width).
fn ripple_add(g: &mut Aig, a: &SymVec, b: &SymVec, mut carry: NLit) -> SymVec {
    debug_assert_eq!(a.width(), b.width());
    let mut bits = Vec::with_capacity(a.width() as usize);
    for i in 0..a.width() {
        let (x, y) = (a.get(i), b.get(i));
        let xy = g.xor(x, y);
        bits.push(g.xor(xy, carry));
        let c1 = g.and(x, y);
        let c2 = g.and(xy, carry);
        carry = g.or(c1, c2);
    }
    SymVec { bits }
}

/// Unsigned `a < b` over equal-width vectors.
fn ult(g: &mut Aig, a: &SymVec, b: &SymVec) -> NLit {
    debug_assert_eq!(a.width(), b.width());
    let mut lt = NLit::FALSE;
    for i in 0..a.width() {
        let (x, y) = (a.get(i), b.get(i));
        let diff = g.xor(x, y);
        let y_wins = g.and(!x, y);
        lt = g.mux(diff, y_wins, lt);
    }
    lt
}

/// `shift >= bound` for a constant bound (used to saturate shifters).
fn shift_ge(g: &mut Aig, shift: &SymVec, bound: u32) -> NLit {
    let bv = SymVec::from_value(Value::new(u64::from(bound), 64));
    let s64 = shift.resize(64);
    let lt = ult(g, &s64, &bv);
    !lt
}

/// Logical left shift of `v` by symbolic amount, zero when the amount
/// reaches the vector width.
fn barrel_shl(g: &mut Aig, v: &SymVec, shift: &SymVec) -> SymVec {
    let w = v.width();
    let mut cur = v.clone();
    for i in 0..shift.width().min(7) {
        let k = 1u64 << i;
        if k >= u64::from(w) {
            break;
        }
        let shifted = SymVec {
            bits: (0..w)
                .map(|j| {
                    if u64::from(j) >= k {
                        cur.get(j - k as u32)
                    } else {
                        NLit::FALSE
                    }
                })
                .collect(),
        };
        cur = SymVec::mux(g, shift.get(i), &shifted, &cur);
    }
    let sat = shift_ge(g, shift, w);
    let zero = SymVec::zeros(w);
    SymVec::mux(g, sat, &zero, &cur)
}

/// Logical right shift by a symbolic amount.
fn barrel_shr(g: &mut Aig, v: &SymVec, shift: &SymVec) -> SymVec {
    let w = v.width();
    let mut cur = v.clone();
    for i in 0..shift.width().min(7) {
        let k = 1u64 << i;
        if k >= u64::from(w) {
            break;
        }
        let shifted = SymVec {
            bits: (0..w).map(|j| cur.get(j + k as u32)).collect(),
        };
        cur = SymVec::mux(g, shift.get(i), &shifted, &cur);
    }
    let sat = shift_ge(g, shift, w);
    let zero = SymVec::zeros(w);
    SymVec::mux(g, sat, &zero, &cur)
}

/// Arithmetic right shift over the operand's *declared* width, filling
/// with its msb — the interpreter's `>>>` on the unsigned domain.
fn barrel_ashr(g: &mut Aig, v: &SymVec, shift: &SymVec) -> SymVec {
    let w = v.width();
    let sign = v.get(w - 1);
    let mut cur = v.clone();
    for i in 0..shift.width().min(7) {
        let k = 1u64 << i;
        if k >= u64::from(w) {
            break;
        }
        let shifted = SymVec {
            bits: (0..w)
                .map(|j| {
                    if j + (k as u32) < w {
                        cur.get(j + k as u32)
                    } else {
                        sign
                    }
                })
                .collect(),
        };
        cur = SymVec::mux(g, shift.get(i), &shifted, &cur);
    }
    let sat = shift_ge(g, shift, w);
    let all_sign = SymVec {
        bits: vec![sign; w as usize],
    };
    SymVec::mux(g, sat, &all_sign, &cur)
}

/// Applies a unary operator with [`sim_eval::unary`] semantics.
pub fn unary_sym(g: &mut Aig, op: UnaryOp, v: &SymVec) -> SymVec {
    if let Some(cv) = v.as_const() {
        return SymVec::from_value(sim_eval::unary(op, cv));
    }
    match op {
        UnaryOp::Neg => {
            let zero = SymVec::zeros(v.width());
            let inv = SymVec {
                bits: v.bits.iter().map(|&b| !b).collect(),
            };
            ripple_add(g, &zero, &inv, NLit::TRUE)
        }
        UnaryOp::LogicNot => {
            let t = v.is_truthy(g);
            SymVec { bits: vec![!t] }
        }
        UnaryOp::BitNot => SymVec {
            bits: v.bits.iter().map(|&b| !b).collect(),
        },
        UnaryOp::RedAnd => SymVec {
            bits: vec![g.and_many(&v.bits)],
        },
        UnaryOp::RedOr => SymVec {
            bits: vec![v.is_truthy(g)],
        },
        UnaryOp::RedXor => {
            let mut acc = NLit::FALSE;
            for &b in &v.bits {
                acc = g.xor(acc, b);
            }
            SymVec { bits: vec![acc] }
        }
        UnaryOp::RedNand => {
            let a = g.and_many(&v.bits);
            SymVec { bits: vec![!a] }
        }
        UnaryOp::RedNor => {
            let t = v.is_truthy(g);
            SymVec { bits: vec![!t] }
        }
        UnaryOp::RedXnor => {
            let mut acc = NLit::FALSE;
            for &b in &v.bits {
                acc = g.xor(acc, b);
            }
            SymVec { bits: vec![!acc] }
        }
        UnaryOp::Plus => v.clone(),
    }
}

/// `$countones` as a 32-bit popcount network.
fn popcount32(g: &mut Aig, v: &SymVec) -> SymVec {
    let mut acc = SymVec::zeros(32);
    for i in 0..v.width() {
        let mut addend = SymVec::zeros(32);
        addend.bits[0] = v.get(i);
        acc = ripple_add(g, &acc, &addend, NLit::FALSE);
    }
    acc
}

/// Applies a binary operator with [`sim_eval::binary`] semantics.
///
/// # Errors
///
/// [`BlastError`] for operators whose concrete evaluation can raise a
/// runtime error that constant analysis cannot rule out (`/`, `%`, `**`
/// with non-constant operands).
pub fn binary_sym(g: &mut Aig, op: BinaryOp, a: &SymVec, b: &SymVec) -> Result<SymVec, BlastError> {
    use BinaryOp as B;
    if let (Some(av), Some(bv)) = (a.as_const(), b.as_const()) {
        return match sim_eval::binary(op, av, bv) {
            Ok(v) => Ok(SymVec::from_value(v)),
            Err(e) => unsupported(format!("constant evaluation raises `{e}`")),
        };
    }
    let w = a.width().max(b.width());
    let (x, y) = (a.resize(w), b.resize(w));
    Ok(match op {
        B::Add => ripple_add(g, &x, &y, NLit::FALSE),
        B::Sub => {
            let inv = SymVec {
                bits: y.bits.iter().map(|&l| !l).collect(),
            };
            ripple_add(g, &x, &inv, NLit::TRUE)
        }
        B::Mul => {
            let mut acc = SymVec::zeros(w);
            for i in 0..w.min(b.width()) {
                let shifted = SymVec {
                    bits: (0..w)
                        .map(|j| if j >= i { x.get(j - i) } else { NLit::FALSE })
                        .collect(),
                };
                let zero = SymVec::zeros(w);
                let addend = SymVec::mux(g, y.get(i), &shifted, &zero);
                acc = ripple_add(g, &acc, &addend, NLit::FALSE);
            }
            acc
        }
        B::Div | B::Mod => {
            // A constant power-of-two divisor is a pure rewire: `x / 2^k`
            // is a logical right shift, `x % 2^k` keeps the low k bits
            // (the cones `Arena::sym_clean` marks clean). Any other
            // divisor can raise DivideByZero (or needs a divider network)
            // and stays unsupported.
            let Some(bv) = b.as_const() else {
                return unsupported(format!("`{}` with non-constant operands", op.as_str()));
            };
            if !bv.bits().is_power_of_two() {
                return unsupported(format!("`{}` by a non-power-of-two constant", op.as_str()));
            }
            let k = bv.bits().trailing_zeros();
            match op {
                B::Div => SymVec {
                    bits: (0..w).map(|j| x.get(j + k)).collect(),
                },
                _ => SymVec {
                    bits: (0..w)
                        .map(|j| if j < k { x.get(j) } else { NLit::FALSE })
                        .collect(),
                },
            }
        }
        B::Pow => {
            return unsupported(format!("`{}` with non-constant operands", op.as_str()));
        }
        B::BitAnd => SymVec {
            bits: (0..w as usize)
                .map(|j| g.and(x.bits[j], y.bits[j]))
                .collect(),
        },
        B::BitOr => SymVec {
            bits: (0..w as usize)
                .map(|j| g.or(x.bits[j], y.bits[j]))
                .collect(),
        },
        B::BitXor => SymVec {
            bits: (0..w as usize)
                .map(|j| g.xor(x.bits[j], y.bits[j]))
                .collect(),
        },
        B::BitXnor => SymVec {
            bits: (0..w as usize)
                .map(|j| g.eq(x.bits[j], y.bits[j]))
                .collect(),
        },
        B::LogicAnd => {
            let ta = a.is_truthy(g);
            let tb = b.is_truthy(g);
            SymVec {
                bits: vec![g.and(ta, tb)],
            }
        }
        B::LogicOr => {
            let ta = a.is_truthy(g);
            let tb = b.is_truthy(g);
            SymVec {
                bits: vec![g.or(ta, tb)],
            }
        }
        B::Eq | B::CaseEq => SymVec {
            bits: vec![x.eq_bits(g, &y)],
        },
        B::Ne | B::CaseNe => {
            let e = x.eq_bits(g, &y);
            SymVec { bits: vec![!e] }
        }
        B::Lt => SymVec {
            bits: vec![ult(g, &x, &y)],
        },
        B::Le => {
            let gt = ult(g, &y, &x);
            SymVec { bits: vec![!gt] }
        }
        B::Gt => SymVec {
            bits: vec![ult(g, &y, &x)],
        },
        B::Ge => {
            let lt = ult(g, &x, &y);
            SymVec { bits: vec![!lt] }
        }
        B::Shl | B::AShl => barrel_shl(g, &x, b),
        B::Shr => barrel_shr(g, &x, b),
        B::AShr => {
            let shifted = barrel_ashr(g, a, b);
            shifted.resize(w)
        }
    })
}

/// Resolves system calls the simulator supports combinationally.
fn sys_call_sym(g: &mut Aig, name: &str, args: &[SymVec]) -> Result<SymVec, BlastError> {
    match (name, args) {
        ("countones", [v]) => Ok(popcount32(g, v)),
        ("onehot", [v]) => {
            let c = popcount32(g, v);
            Ok(SymVec {
                bits: vec![c.eq_const(g, 1)],
            })
        }
        ("onehot0", [v]) => {
            let c = popcount32(g, v);
            let one = c.eq_const(g, 1);
            let zero = c.eq_const(g, 0);
            Ok(SymVec {
                bits: vec![g.or(one, zero)],
            })
        }
        _ => unsupported(format!("system call `${name}`")),
    }
}

/// Value environment of symbolic bytecode execution.
pub trait SymEnv {
    /// Symbolic value of an interned signal.
    fn load(&self, sig: SigId) -> SymVec;

    /// Resolves a history call (`$past`/`$rose`/`$fell`/`$stable`).
    /// Environments without sampled history cannot lower these.
    fn history(
        &self,
        _g: &mut Aig,
        kind: HistoryKind,
        _arg: &ExprProg,
        _n: usize,
    ) -> Result<SymVec, BlastError> {
        unsupported(format!("history call {kind:?} outside a trace context"))
    }
}

/// Executes a compiled expression program symbolically.
///
/// # Errors
///
/// [`BlastError`] for constructs outside the 2-state encodable subset.
pub fn run_sym<E: SymEnv + ?Sized>(
    g: &mut Aig,
    prog: &ExprProg,
    env: &E,
) -> Result<SymVec, BlastError> {
    exec_range(g, prog, 0, prog.ops.len(), env)
}

/// Executes `prog.ops[start..end]`, which must form a self-contained
/// expression (pushes exactly one net value).
fn exec_range<E: SymEnv + ?Sized>(
    g: &mut Aig,
    prog: &ExprProg,
    start: usize,
    end: usize,
    env: &E,
) -> Result<SymVec, BlastError> {
    let mut stack: Vec<SymVec> = Vec::new();
    let mut pc = start;
    while pc < end {
        match &prog.ops[pc] {
            Op::Const(v) => stack.push(SymVec::from_value(*v)),
            Op::Load(sig) => stack.push(env.load(*sig)),
            Op::Unary(op) => {
                let v = stack.pop().expect("unary operand");
                stack.push(unary_sym(g, *op, &v));
            }
            Op::Binary(op) => {
                let b = stack.pop().expect("binary rhs");
                let a = stack.pop().expect("binary lhs");
                stack.push(binary_sym(g, *op, &a, &b)?);
            }
            Op::JumpIfFalse(target) => {
                let c = stack.pop().expect("jump condition");
                let t = c.is_truthy(g);
                match t.as_const() {
                    Some(true) => {} // fall through into the then branch
                    Some(false) => {
                        pc = *target as usize;
                        continue;
                    }
                    None => {
                        // Structured ternary: `emit` always places an
                        // unconditional Jump(end) immediately before the
                        // else branch.
                        let else_start = *target as usize;
                        let Some(Op::Jump(end_t)) = prog.ops.get(else_start.wrapping_sub(1)) else {
                            return unsupported("unstructured branch in bytecode");
                        };
                        let end_t = *end_t as usize;
                        let tv = exec_range(g, prog, pc + 1, else_start - 1, env)?;
                        let ev = exec_range(g, prog, else_start, end_t, env)?;
                        if tv.width() != ev.width() {
                            return unsupported(
                                "ternary branches of different widths under a symbolic condition",
                            );
                        }
                        stack.push(SymVec::mux(g, t, &tv, &ev));
                        pc = end_t;
                        continue;
                    }
                }
            }
            Op::Jump(target) => {
                pc = *target as usize;
                continue;
            }
            Op::ConcatN(n) => {
                let n = *n as usize;
                debug_assert!(n >= 1 && stack.len() >= n);
                let first = stack.len() - n;
                let mut acc = stack[first].clone();
                for v in &stack[first + 1..] {
                    acc = acc.concat(v);
                }
                stack.truncate(first);
                stack.push(acc);
            }
            Op::RepeatGuard => {
                let Some(cv) = stack.last().expect("repeat count").as_const() else {
                    return unsupported("non-constant replication count");
                };
                let n = cv.bits();
                if n == 0 || n > 64 {
                    return unsupported(format!("replication count {n} outside 1..=64"));
                }
            }
            Op::Repeat => {
                let v = stack.pop().expect("repeat value");
                let n = stack
                    .pop()
                    .expect("repeat count")
                    .as_const()
                    .expect("guard checked constness")
                    .bits();
                let mut acc = v.clone();
                for _ in 1..n {
                    acc = acc.concat(&v);
                }
                stack.push(acc);
            }
            Op::BitIndex => {
                let i = stack.pop().expect("bit index");
                let base = stack.pop().expect("bit base");
                let bit = base.bit_index(g, &i);
                stack.push(SymVec { bits: vec![bit] });
            }
            Op::Slice(msb, lsb) => {
                let base = stack.pop().expect("slice base");
                stack.push(base.slice(*msb, *lsb));
            }
            Op::SysCall { name, argc } => {
                let argc = *argc as usize;
                debug_assert!(stack.len() >= argc);
                let first = stack.len() - argc;
                let r = sys_call_sym(g, name, &stack[first..])?;
                stack.truncate(first);
                stack.push(r);
            }
            Op::History { kind, arg, n } => {
                let n = match n {
                    Some(id) => {
                        let nv = run_sym(g, &prog.subs[*id as usize], env)?;
                        let Some(cv) = nv.as_const() else {
                            return unsupported("non-constant $past cycle count");
                        };
                        usize::try_from(cv.bits()).unwrap_or(usize::MAX)
                    }
                    None => 1,
                };
                let v = env.history(g, *kind, &prog.subs[*arg as usize], n)?;
                stack.push(v);
            }
            Op::Fail(e) => return unsupported(format!("evaluation would raise `{e}`")),
        }
        pc += 1;
    }
    let v = stack.pop().expect("program result");
    debug_assert!(stack.is_empty(), "expression must be self-contained");
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;

    /// Evaluates `op` symbolically on fully-constant inputs and checks the
    /// result against the concrete evaluator.
    fn check_binary(op: BinaryOp, a: Value, b: Value) {
        let mut g = Aig::new();
        let sa = SymVec::from_value(a);
        let sb = SymVec::from_value(b);
        let expected = sim_eval::binary(op, a, b).expect("concrete eval");
        let got = binary_sym(&mut g, op, &sa, &sb).expect("blast");
        assert_eq!(got.as_const(), Some(expected), "{op:?} {a} {b}");
    }

    /// Same check but through the symbolic network: inputs are AIG inputs
    /// constrained only by substituting the model afterwards — here we
    /// instead enumerate the full truth table of small widths.
    fn check_binary_symbolic(op: BinaryOp, aw: u32, bw: u32) {
        for xa in 0..(1u64 << aw) {
            for xb in 0..(1u64 << bw) {
                let (a, b) = (Value::new(xa, aw), Value::new(xb, bw));
                let mut g = Aig::new();
                // Route through symbolic inputs then substitute: exercises
                // the gate network rather than the constant fast path.
                let sa = SymVec::new((0..aw).map(|_| g.input()).collect());
                let sb = SymVec::new((0..bw).map(|_| g.input()).collect());
                let out = match binary_sym(&mut g, op, &sa, &sb) {
                    Ok(o) => o,
                    Err(_) => return, // unsupported symbolically: nothing to check
                };
                let expected = sim_eval::binary(op, a, b).expect("concrete eval");
                let inputs: Vec<bool> = (0..aw)
                    .map(|i| xa >> i & 1 == 1)
                    .chain((0..bw).map(|i| xb >> i & 1 == 1))
                    .collect();
                let got = eval_aig(&g, out.lits(), &inputs);
                assert_eq!(
                    got,
                    (0..expected.width())
                        .map(|i| expected.get_bit(i))
                        .collect::<Vec<_>>(),
                    "{op:?} {a} {b}"
                );
            }
        }
    }

    /// Concrete cofactoring of an AIG: inputs valued in allocation order.
    fn eval_aig(g: &Aig, outs: &[NLit], inputs: &[bool]) -> Vec<bool> {
        use crate::aig::Node;
        let mut val = vec![false; g.len()];
        let mut next_input = 0usize;
        for idx in 0..g.len() {
            val[idx] = match g.node(idx as u32) {
                Node::Const => false,
                Node::Input => {
                    let v = inputs[next_input];
                    next_input += 1;
                    v
                }
                Node::And(a, b) => {
                    let va = val[a.node() as usize] ^ a.is_inverted();
                    let vb = val[b.node() as usize] ^ b.is_inverted();
                    va && vb
                }
            };
        }
        outs.iter()
            .map(|l| val[l.node() as usize] ^ l.is_inverted())
            .collect()
    }

    #[test]
    fn constant_folding_matches_interpreter() {
        use BinaryOp as B;
        for op in [
            B::Add,
            B::Sub,
            B::Mul,
            B::Div,
            B::Mod,
            B::BitAnd,
            B::BitOr,
            B::BitXor,
            B::BitXnor,
            B::LogicAnd,
            B::LogicOr,
            B::Eq,
            B::Ne,
            B::Lt,
            B::Le,
            B::Gt,
            B::Ge,
            B::Shl,
            B::Shr,
            B::AShr,
        ] {
            check_binary(op, Value::new(13, 4), Value::new(6, 4));
            check_binary(op, Value::new(200, 8), Value::new(3, 4));
        }
    }

    #[test]
    fn symbolic_networks_match_interpreter_exhaustively() {
        use BinaryOp as B;
        for op in [
            B::Add,
            B::Sub,
            B::Mul,
            B::BitAnd,
            B::BitXor,
            B::LogicAnd,
            B::LogicOr,
            B::Eq,
            B::Ne,
            B::Lt,
            B::Le,
            B::Gt,
            B::Ge,
            B::Shl,
            B::Shr,
            B::AShr,
        ] {
            check_binary_symbolic(op, 3, 3);
            check_binary_symbolic(op, 2, 4); // mixed widths
        }
    }

    #[test]
    fn unary_networks_match_interpreter_exhaustively() {
        use UnaryOp as U;
        for op in [
            U::Neg,
            U::LogicNot,
            U::BitNot,
            U::RedAnd,
            U::RedOr,
            U::RedXor,
            U::RedNand,
            U::RedNor,
            U::RedXnor,
            U::Plus,
        ] {
            for x in 0..16u64 {
                let v = Value::new(x, 4);
                let mut g = Aig::new();
                let sv = SymVec::new((0..4).map(|_| g.input()).collect());
                let out = unary_sym(&mut g, op, &sv);
                let expected = sim_eval::unary(op, v);
                let inputs: Vec<bool> = (0..4).map(|i| x >> i & 1 == 1).collect();
                let got = eval_aig(&g, out.lits(), &inputs);
                assert_eq!(
                    got,
                    (0..expected.width())
                        .map(|i| expected.get_bit(i))
                        .collect::<Vec<_>>(),
                    "{op:?} {v}"
                );
            }
        }
    }

    #[test]
    fn division_by_symbolic_operand_is_unsupported() {
        let mut g = Aig::new();
        let a = SymVec::new(vec![g.input()]);
        let b = SymVec::new(vec![g.input()]);
        assert!(binary_sym(&mut g, BinaryOp::Div, &a, &b).is_err());
    }

    #[test]
    fn concat_and_slice_mirror_value() {
        let hi = Value::new(0xA, 4);
        let lo = Value::new(0x5, 4);
        let sh = SymVec::from_value(hi);
        let sl = SymVec::from_value(lo);
        assert_eq!(sh.concat(&sl).as_const(), Some(hi.concat(lo)));
        let v = Value::new(0b1101_0110, 8);
        let sv = SymVec::from_value(v);
        assert_eq!(sv.slice(7, 4).as_const(), Some(v.slice(7, 4)));
        assert_eq!(
            sv.set_slice(7, 4, &SymVec::from_value(Value::new(0x3, 4)))
                .as_const(),
            Some(v.set_slice(7, 4, Value::new(0x3, 4)))
        );
    }

    #[test]
    fn popcount_matches_countones() {
        for x in 0..256u64 {
            let v = Value::new(x, 8);
            let mut g = Aig::new();
            let sv = SymVec::from_value(v);
            let c = popcount32(&mut g, &sv);
            assert_eq!(
                c.as_const(),
                Some(Value::new(u64::from(v.count_ones()), 32))
            );
        }
    }
}
