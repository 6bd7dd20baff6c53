//! Lane-batched (structure-of-arrays) execution: run `K` independent
//! simulation states through every bytecode op in one pass.
//!
//! This is the one statement executor of compiled designs. [`LaneBatch`]
//! amortises the stack machine's dispatch/decode cost over `K` stimuli:
//! the value store holds `K` lanes per signal (`state[sig * K + lane]`,
//! lane-minor so one op touches one contiguous block), the operand stack
//! holds slots of `K` values, and each op applies the *exact* scalar
//! semantics from [`crate::eval`] to every active lane in a tight
//! constant-operator loop the optimizer can autovectorize. The
//! single-stimulus [`Simulator`](crate::Simulator) is `LaneBatch<1>`
//! with its lane fixed at 0, and the AST interpreter
//! ([`crate::interp::AstSimulator`]) is the oracle every width is
//! differential-tested against.
//!
//! ## Masking and divergence rules (bit-identity contract)
//!
//! Lanes are tracked by two `u64` masks:
//!
//! - **`alive`** — lanes that have not raised a [`SimError`]. A lane's
//!   first error is recorded and the lane is masked out of *all*
//!   subsequent evaluation, exactly like a single-stimulus run stopping
//!   at its first error (first-use error order is preserved because a
//!   masked-out lane can never evaluate — and therefore never error —
//!   again).
//! - **`exec`** — lanes executing the current straight-line region.
//!   Ternaries compile to `JumpIfFalse`/`Jump`; when lanes disagree on
//!   the condition the executor pushes a divergence frame, runs the THEN
//!   region with the truthy lanes, re-runs the ELSE region with the
//!   falsy lanes, and merges per-lane results at the join. Lazy-error
//!   semantics hold: a lane only evaluates (and can only fault on) the
//!   ops of its own path, so `1/0` in an untaken branch stays silent.
//!
//! Data-dependent-cost ops (`Repeat`, `SysCall`, lvalue concat writes)
//! and error sources are always lane-masked; errorless constant-cost ops
//! (unary/binary arithmetic, slices, concats) may compute garbage in
//! inactive lanes — any [`Value`] is a valid operand, and inactive
//! results are never observed.
//!
//! Statement execution (`if`/`case`) re-applies the same discipline at
//! statement granularity, charging coverage probes and op counts per
//! lane, so each lane's instrumented results equal those of a
//! single-lane run of its stimulus. Every stimulus-bound consumer (the
//! verifier's enumeration sweep, the fuzzer's rounds) runs its stimuli
//! through [`run_stimulus_group`], [`LANES`] per bytecode pass.

use super::bytecode::{run, ExecEnv, ExprProg, Op};
use super::{CLValue, CStmt, CombStep, CompiledDesign, SigId, MAX_SETTLE_ITERS};
use crate::cover::CovMap;
use crate::eval::EvalError;
use crate::exec::SimError;
use crate::stimulus::Stimulus;
use crate::trace::Trace;
use crate::value::Value;
use asv_verilog::ast::{BinaryOp, UnaryOp};
use std::sync::Arc;

/// Lanes per [`run_stimulus_group`] pass: the most stimuli one group
/// holds. Outcomes do not depend on it.
pub const LANES: usize = 16;

/// Mask with the low `K` lane bits set.
#[inline(always)]
fn full<const K: usize>() -> u64 {
    if K >= 64 {
        u64::MAX
    } else {
        (1u64 << K) - 1
    }
}

#[inline(always)]
fn lane_bit(l: usize) -> u64 {
    1u64 << l
}

/// Calls `f` for every set lane in `mask`, with a dense fast path when
/// all `K` lanes are active.
#[inline(always)]
fn for_lanes<const K: usize>(mask: u64, mut f: impl FnMut(usize)) {
    if mask == full::<K>() {
        for l in 0..K {
            f(l);
        }
    } else {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            f(l);
        }
    }
}

/// Records a lane's first error and masks it out of execution.
#[cold]
fn kill(errors: &mut [Option<SimError>], alive: &mut u64, exec: &mut u64, l: usize, e: SimError) {
    if errors[l].is_none() {
        errors[l] = Some(e);
    }
    *alive &= !lane_bit(l);
    *exec &= !lane_bit(l);
}

/// One open ternary divergence region during expression evaluation.
///
/// Pushed at a `JumpIfFalse` whose condition splits the active lanes.
/// The THEN region then runs with the truthy lanes; its closing `Jump`
/// (recognised by sitting immediately before the frame's else target,
/// where the structured emitter always places it) records the THEN
/// result slot, reveals the join point, and switches execution to the
/// falsy lanes. When the program counter reaches the join, the THEN
/// lanes' results are merged back into the top slot.
#[derive(Clone)]
struct Frame<const K: usize> {
    /// First op of the ELSE region (the `JumpIfFalse` target).
    else_start: u32,
    /// Join point; `u32::MAX` until the THEN-exit `Jump` reveals it.
    end: u32,
    /// `exec` at the divergence point.
    save: u64,
    /// Lanes that took the THEN region.
    then_mask: u64,
    /// Their results, captured at the THEN exit.
    then_vals: [Value; K],
}

/// Per-block blocking-write journal for the clock edge: the first write
/// to a signal inside a clocked block records its pre-block lane values,
/// so the edge commit can diff and restore exactly the touched signals
/// instead of cloning and scanning the whole state per block.
#[derive(Debug, Clone)]
struct EdgeLog<const K: usize> {
    /// Journaling enabled (only while a clocked block executes).
    on: bool,
    /// Current block generation (`touched` entries from other
    /// generations are stale).
    gen: u64,
    /// Per-signal generation stamp of the last journal entry.
    touched: Vec<u64>,
    /// `(signal, pre-block lane values)`, in first-write order.
    entries: Vec<(SigId, [Value; K])>,
}

/// Journals `sig`'s pre-write lane values if the edge log is on and the
/// signal has not been written yet in this block.
#[inline]
fn log_write<const K: usize>(ctx: &mut Ctx<'_, K>, sig: SigId) {
    let i = sig.idx();
    if ctx.edge_log.touched[i] != ctx.edge_log.gen {
        ctx.edge_log.touched[i] = ctx.edge_log.gen;
        let b = i * K;
        let mut old = [Value::zero(1); K];
        old.copy_from_slice(&ctx.state[b..b + K]);
        ctx.edge_log.entries.push((sig, old));
    }
}

/// Journals every signal `lv` can write (concats recurse into parts).
fn log_lvalue<const K: usize>(ctx: &mut Ctx<'_, K>, lv: &CLValue) {
    match lv {
        CLValue::Whole(sig) | CLValue::Bit { sig, .. } | CLValue::Part { sig, .. } => {
            log_write(ctx, *sig);
        }
        CLValue::Concat(parts) => {
            for p in parts {
                log_lvalue(ctx, p);
            }
        }
        CLValue::Unknown(_) => {}
    }
}

/// The mutable lane-state threaded through the batched executor:
/// disjoint borrows of a [`LaneBatch`]'s buffers, so `CompiledDesign`
/// methods can hold bytecode borrows (`&'a CLValue` pending writes)
/// without aliasing the batch.
struct Ctx<'a, const K: usize> {
    /// SoA value store: `state[sig * K + lane]`.
    state: &'a mut Vec<Value>,
    /// Operand stack in slots of `K` values.
    stack: &'a mut Vec<Value>,
    /// Divergence frames (cleared per program).
    frames: &'a mut Vec<Frame<K>>,
    /// Lanes that have not errored.
    alive: &'a mut u64,
    /// First error per lane.
    errors: &'a mut [Option<SimError>],
    /// Scalar scratch stack for the per-lane fallback paths.
    scalar_stack: &'a mut Vec<Value>,
    /// Per-lane extracted state column (concat-lvalue fallback).
    lane_state: &'a mut Vec<Value>,
    /// Pre-write snapshot of the same (concat-lvalue semantics).
    lane_snapshot: &'a mut Vec<Value>,
    /// Clock-edge blocking-write journal.
    edge_log: &'a mut EdgeLog<K>,
}

/// Per-lane instrumentation: branch probes and op tallies carry the lane
/// index, and preponed row samples are routed to the lane's coverage
/// map. One monomorphised implementation per combination of coverage and
/// op counting, so the uninstrumented path compiles to nothing.
trait LaneSink {
    /// Whether [`row`](LaneSink::row) observes sample rows. When false
    /// (the uninstrumented paths) the tick loop skips the per-lane row
    /// transpose entirely and only appends to the batch's flat sample
    /// log.
    const NEEDS_ROWS: bool = false;
    /// A branch site was taken by `lane`.
    fn branch(&mut self, lane: usize, site: u32);
    /// `n` bytecode ops were dispatched for every lane in `mask`.
    fn ops(&mut self, mask: u64, n: u64);
    /// The preponed sample row of `lane` (coverage toggle axis).
    fn row(&mut self, lane: usize, row: &[Value]);
}

/// No instrumentation (the default hot path).
struct NoLaneSink;

impl LaneSink for NoLaneSink {
    #[inline(always)]
    fn branch(&mut self, _lane: usize, _site: u32) {}
    #[inline(always)]
    fn ops(&mut self, _mask: u64, _n: u64) {}
    #[inline(always)]
    fn row(&mut self, _lane: usize, _row: &[Value]) {}
}

/// Per-lane op tallies only. A tally is a pure function of bytecode and
/// stimulus, so it is deterministic across thread counts and reruns.
struct OpsLanes<'a> {
    ops: &'a mut [u64],
}

impl LaneSink for OpsLanes<'_> {
    #[inline(always)]
    fn branch(&mut self, _lane: usize, _site: u32) {}
    #[inline]
    fn ops(&mut self, mask: u64, n: u64) {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            self.ops[l] = self.ops[l].saturating_add(n);
        }
    }
    #[inline(always)]
    fn row(&mut self, _lane: usize, _row: &[Value]) {}
}

/// Per-lane coverage maps (branch + toggle axes). Op tallies never land
/// in a coverage map: maps must stay bit-identical across opt levels
/// while optimized programs are shorter.
struct CovLanes<'a> {
    covs: &'a mut [CovMap],
}

impl LaneSink for CovLanes<'_> {
    const NEEDS_ROWS: bool = true;
    #[inline]
    fn branch(&mut self, lane: usize, site: u32) {
        self.covs[lane].branch(site);
    }
    #[inline(always)]
    fn ops(&mut self, _mask: u64, _n: u64) {}
    #[inline]
    fn row(&mut self, lane: usize, row: &[Value]) {
        self.covs[lane].record_row(row);
    }
}

/// Coverage and op tallies together.
struct CovOpsLanes<'a> {
    covs: &'a mut [CovMap],
    ops: &'a mut [u64],
}

impl LaneSink for CovOpsLanes<'_> {
    const NEEDS_ROWS: bool = true;
    #[inline]
    fn branch(&mut self, lane: usize, site: u32) {
        self.covs[lane].branch(site);
    }
    #[inline]
    fn ops(&mut self, mask: u64, n: u64) {
        let mut m = mask;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            self.ops[l] = self.ops[l].saturating_add(n);
        }
    }
    #[inline]
    fn row(&mut self, lane: usize, row: &[Value]) {
        self.covs[lane].record_row(row);
    }
}

/// Scalar [`ExecEnv`] view of one lane's column of the SoA store, for
/// the rare per-lane fallback (history sub-programs).
struct LaneView<'a, const K: usize> {
    state: &'a [Value],
    lane: usize,
}

impl<const K: usize> ExecEnv for LaneView<'_, K> {
    #[inline]
    fn load(&self, sig: SigId) -> Value {
        self.state[sig.idx() * K + self.lane]
    }
}

/// Applies `op` to the top slot in place. Unary operators are errorless
/// and constant-cost, so all `K` lanes are computed unconditionally
/// (inactive lanes hold valid-but-unobserved values).
#[inline(always)]
fn unary_slot<const K: usize>(op: UnaryOp, a: &mut [Value]) {
    let a: &mut [Value; K] = a.try_into().expect("slot width");
    macro_rules! arm {
        ($o:expr) => {{
            for v in a.iter_mut() {
                *v = crate::eval::unary($o, *v);
            }
        }};
    }
    use UnaryOp as U;
    match op {
        U::Neg => arm!(U::Neg),
        U::LogicNot => arm!(U::LogicNot),
        U::BitNot => arm!(U::BitNot),
        U::RedAnd => arm!(U::RedAnd),
        U::RedOr => arm!(U::RedOr),
        U::RedXor => arm!(U::RedXor),
        U::RedNand => arm!(U::RedNand),
        U::RedNor => arm!(U::RedNor),
        U::RedXnor => arm!(U::RedXnor),
        U::Plus => {}
    }
}

/// Applies `op` lane-wise, `a[l] = a[l] op b[l]`, delegating every lane
/// to the scalar [`crate::eval::binary`] with a constant operator — the
/// match unswitches the loop so each arm is a tight single-operator
/// kernel. Only active lanes are computed (division can fault);
/// failures are reported through `on_err`.
#[inline(always)]
fn binary_slot<const K: usize>(
    op: BinaryOp,
    a: &mut [Value],
    b: &[Value],
    exec: u64,
    mut on_err: impl FnMut(usize, EvalError),
) {
    let a: &mut [Value; K] = a.try_into().expect("slot width");
    let b: &[Value; K] = b.try_into().expect("slot width");
    macro_rules! arm {
        ($o:expr) => {{
            if exec == full::<K>() {
                for l in 0..K {
                    match crate::eval::binary($o, a[l], b[l]) {
                        Ok(v) => a[l] = v,
                        Err(e) => on_err(l, e),
                    }
                }
            } else {
                let mut m = exec;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    match crate::eval::binary($o, a[l], b[l]) {
                        Ok(v) => a[l] = v,
                        Err(e) => on_err(l, e),
                    }
                }
            }
        }};
    }
    use BinaryOp as B;
    match op {
        B::Add => arm!(B::Add),
        B::Sub => arm!(B::Sub),
        B::Mul => arm!(B::Mul),
        B::Div => arm!(B::Div),
        B::Mod => arm!(B::Mod),
        B::Pow => arm!(B::Pow),
        B::BitAnd => arm!(B::BitAnd),
        B::BitOr => arm!(B::BitOr),
        B::BitXor => arm!(B::BitXor),
        B::BitXnor => arm!(B::BitXnor),
        B::LogicAnd => arm!(B::LogicAnd),
        B::LogicOr => arm!(B::LogicOr),
        B::Eq => arm!(B::Eq),
        B::Ne => arm!(B::Ne),
        B::CaseEq => arm!(B::CaseEq),
        B::CaseNe => arm!(B::CaseNe),
        B::Lt => arm!(B::Lt),
        B::Le => arm!(B::Le),
        B::Gt => arm!(B::Gt),
        B::Ge => arm!(B::Ge),
        B::Shl => arm!(B::Shl),
        B::Shr => arm!(B::Shr),
        B::AShl => arm!(B::AShl),
        B::AShr => arm!(B::AShr),
    }
}

/// A pending nonblocking write of a lane group.
struct LaneNba<'a, const K: usize> {
    lhs: &'a CLValue,
    mask: u64,
    vals: [Value; K],
}

/// A pending clock-edge commit.
enum EdgeUpdate<'a, const K: usize> {
    /// Whole-signal commit of a blocking-write diff, for the masked lanes.
    Whole(SigId, u64, [Value; K]),
    /// Deferred `<=` write through a compiled lvalue.
    Lv(LaneNba<'a, K>),
}

impl CompiledDesign {
    /// Evaluates `prog` for every lane in `mask` (callers guarantee
    /// `mask ⊆ alive`), writing per-lane results into `out` and
    /// returning the survivor mask. Erroring lanes are recorded and
    /// masked out; their `out` entries are unspecified.
    fn eval_lanes<const K: usize>(
        &self,
        ctx: &mut Ctx<'_, K>,
        prog: &ExprProg,
        mask: u64,
        out: &mut [Value; K],
    ) -> u64 {
        let state: &[Value] = ctx.state;
        let stack: &mut Vec<Value> = ctx.stack;
        let frames: &mut Vec<Frame<K>> = ctx.frames;
        let alive: &mut u64 = ctx.alive;
        let errors: &mut [Option<SimError>] = ctx.errors;

        let base = stack.len();
        for _ in 0..prog.n_tmps {
            let n = stack.len();
            stack.resize(n + K, Value::zero(1));
        }
        frames.clear();
        let ops = &prog.ops;
        let mut exec = mask;
        let mut pc = 0usize;
        loop {
            // Merge every frame whose join point is here: THEN lanes get
            // their captured results, execution widens back to the lanes
            // that entered the ternary (minus any that died inside it).
            while let Some(f) = frames.last() {
                if f.end != u32::MAX && f.end as usize == pc {
                    let f = frames.pop().expect("frame");
                    let top = stack.len() - K;
                    for_lanes::<K>(f.then_mask, |l| stack[top + l] = f.then_vals[l]);
                    exec = f.save & *alive;
                } else {
                    break;
                }
            }
            if pc >= ops.len() {
                break;
            }
            match &ops[pc] {
                Op::Const(v) => {
                    let n = stack.len();
                    stack.resize(n + K, *v);
                }
                Op::Load(sig) => {
                    let b = sig.idx() * K;
                    stack.extend_from_slice(&state[b..b + K]);
                }
                Op::Unary(op) => {
                    let n = stack.len();
                    unary_slot::<K>(*op, &mut stack[n - K..]);
                }
                Op::Binary(op) => {
                    let n = stack.len();
                    let (head, b) = stack.split_at_mut(n - K);
                    let hl = head.len();
                    binary_slot::<K>(*op, &mut head[hl - K..], b, exec, |l, e| {
                        kill(errors, alive, &mut exec, l, SimError::Eval(e));
                    });
                    stack.truncate(n - K);
                }
                Op::BinConst { op, rhs } => {
                    let n = stack.len();
                    let b = [*rhs; K];
                    binary_slot::<K>(*op, &mut stack[n - K..], &b, exec, |l, e| {
                        kill(errors, alive, &mut exec, l, SimError::Eval(e));
                    });
                }
                Op::LoadBin { op, a, b } => {
                    let pa = a.idx() * K;
                    let pb = b.idx() * K;
                    stack.extend_from_slice(&state[pa..pa + K]);
                    let n = stack.len();
                    binary_slot::<K>(
                        *op,
                        &mut stack[n - K..],
                        &state[pb..pb + K],
                        exec,
                        |l, e| {
                            kill(errors, alive, &mut exec, l, SimError::Eval(e));
                        },
                    );
                }
                Op::LoadBinConst { op, sig, rhs } => {
                    let p = sig.idx() * K;
                    stack.extend_from_slice(&state[p..p + K]);
                    let n = stack.len();
                    let b = [*rhs; K];
                    binary_slot::<K>(*op, &mut stack[n - K..], &b, exec, |l, e| {
                        kill(errors, alive, &mut exec, l, SimError::Eval(e));
                    });
                }
                Op::LoadUnary { op, sig } => {
                    let p = sig.idx() * K;
                    stack.extend_from_slice(&state[p..p + K]);
                    let n = stack.len();
                    unary_slot::<K>(*op, &mut stack[n - K..]);
                }
                Op::StoreTmp(i) => {
                    // Only emitted at unconditional positions, so the
                    // whole slot (every lane) is current.
                    let n = stack.len();
                    let (head, top) = stack.split_at_mut(n - K);
                    let t = base + *i as usize * K;
                    head[t..t + K].copy_from_slice(top);
                }
                Op::LoadTmp(i) => {
                    let t = base + *i as usize * K;
                    stack.extend_from_within(t..t + K);
                }
                Op::JumpIfFalse(target) => {
                    let n = stack.len();
                    let mut t = 0u64;
                    {
                        let c = &stack[n - K..];
                        for_lanes::<K>(exec, |l| {
                            if c[l].is_truthy() {
                                t |= lane_bit(l);
                            }
                        });
                    }
                    stack.truncate(n - K);
                    if t == exec {
                        // Uniformly true (or no lanes running): fall
                        // through into the THEN region.
                    } else if t == 0 {
                        pc = *target as usize;
                        continue;
                    } else {
                        frames.push(Frame {
                            else_start: *target,
                            end: u32::MAX,
                            save: exec,
                            then_mask: t,
                            then_vals: [Value::zero(1); K],
                        });
                        exec = t;
                    }
                }
                Op::Jump(target) => {
                    // A jump sitting immediately before the innermost open
                    // frame's ELSE start is that ternary's THEN exit (the
                    // structured emitter places it there and nowhere
                    // else): capture the THEN results, reveal the join,
                    // and switch to the falsy lanes.
                    let matched = frames
                        .last()
                        .is_some_and(|f| f.end == u32::MAX && pc + 1 == f.else_start as usize);
                    if matched {
                        let f = frames.last_mut().expect("frame");
                        f.end = *target;
                        let top = stack.len() - K;
                        f.then_vals.copy_from_slice(&stack[top..]);
                        stack.truncate(top);
                        exec = f.save & !f.then_mask & *alive;
                        pc = f.else_start as usize;
                    } else {
                        pc = *target as usize;
                    }
                    continue;
                }
                Op::ConcatN(n) => {
                    let n = *n as usize;
                    let first = stack.len() - n * K;
                    for l in 0..K {
                        let mut acc = stack[first + l];
                        for j in 1..n {
                            acc = acc.concat(stack[first + j * K + l]);
                        }
                        stack[first + l] = acc;
                    }
                    stack.truncate(first + K);
                }
                Op::RepeatGuard => {
                    let top = stack.len() - K;
                    let mut bad = 0u64;
                    for_lanes::<K>(exec, |l| {
                        let n = stack[top + l].bits();
                        if n == 0 || n > 64 {
                            bad |= lane_bit(l);
                        }
                    });
                    for_lanes::<K>(bad, |l| {
                        let n = stack[top + l].bits();
                        kill(
                            errors,
                            alive,
                            &mut exec,
                            l,
                            SimError::Eval(EvalError::Malformed(format!(
                                "replication count {n} outside 1..=64"
                            ))),
                        );
                    });
                }
                Op::Repeat => {
                    // Data-dependent cost: only active lanes (whose counts
                    // RepeatGuard just validated) are expanded.
                    let n = stack.len();
                    let vtop = n - K;
                    let ctop = n - 2 * K;
                    for_lanes::<K>(exec, |l| {
                        let v = stack[vtop + l];
                        let cnt = stack[ctop + l].bits();
                        let mut acc = v;
                        for _ in 1..cnt {
                            acc = acc.concat(v);
                        }
                        stack[ctop + l] = acc;
                    });
                    stack.truncate(n - K);
                }
                Op::BitIndex => {
                    let n = stack.len();
                    let itop = n - K;
                    let btop = n - 2 * K;
                    for l in 0..K {
                        let i = stack[itop + l].bits();
                        let bse = stack[btop + l];
                        stack[btop + l] =
                            Value::bit(u32::try_from(i).map(|i| bse.get_bit(i)).unwrap_or(false));
                    }
                    stack.truncate(n - K);
                }
                Op::Slice(msb, lsb) => {
                    let n = stack.len();
                    for v in &mut stack[n - K..] {
                        *v = v.slice(*msb, *lsb);
                    }
                }
                Op::SysCall { name, argc } => {
                    let argc = *argc as usize;
                    let first = stack.len() - argc * K;
                    let mut args = Vec::with_capacity(argc);
                    let mut m = exec;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        args.clear();
                        args.extend((0..argc).map(|j| stack[first + j * K + l]));
                        match crate::eval::default_sys_call(name, &args) {
                            // Lane l's arg columns are consumed before its
                            // result lands in the slot that remains.
                            Ok(v) => stack[first + l] = v,
                            Err(e) => kill(errors, alive, &mut exec, l, SimError::Eval(e)),
                        }
                    }
                    stack.truncate(first + K);
                }
                Op::History { kind, arg, n } => {
                    // Design programs never contain history ops (they are
                    // only emitted for property compilation); this mirrors
                    // the scalar env's rejection exactly, per lane, should
                    // one ever appear: evaluate `n` first (its errors win),
                    // then raise the env's unsupported-history error.
                    let mut m = exec;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let env = LaneView::<K> { state, lane: l };
                        let nv = match n {
                            Some(id) => {
                                match run(&prog.subs[*id as usize], &env, ctx.scalar_stack) {
                                    Ok(v) => usize::try_from(v.bits()).unwrap_or(usize::MAX),
                                    Err(e) => {
                                        kill(errors, alive, &mut exec, l, SimError::Eval(e));
                                        continue;
                                    }
                                }
                            }
                            None => 1,
                        };
                        match env.history(*kind, &prog.subs[*arg as usize], nv) {
                            Ok(v) => {
                                // Unreachable today (the default env always
                                // rejects), kept for trait fidelity.
                                let top = stack.len();
                                if top == base + prog.n_tmps as usize * K {
                                    let n = stack.len();
                                    stack.resize(n + K, Value::zero(1));
                                }
                                let top = stack.len() - K;
                                stack[top + l] = v;
                            }
                            Err(e) => kill(errors, alive, &mut exec, l, SimError::Eval(e)),
                        }
                    }
                    // Keep the stack shape coherent for whatever follows.
                    if exec == 0 {
                        let n = stack.len();
                        stack.resize(n + K, Value::zero(1));
                    }
                }
                Op::Fail(e) => {
                    let mut m = exec;
                    while m != 0 {
                        let l = m.trailing_zeros() as usize;
                        m &= m - 1;
                        kill(errors, alive, &mut exec, l, SimError::Eval(e.clone()));
                    }
                    let n = stack.len();
                    stack.resize(n + K, Value::zero(1));
                }
            }
            pc += 1;
        }
        debug_assert!(frames.is_empty(), "unbalanced divergence frames");
        if exec != 0 {
            let top = stack.len() - K;
            out.copy_from_slice(&stack[top..]);
        }
        stack.truncate(base);
        exec
    }

    /// Settles combinational logic: levelized designs settle in one
    /// ordered pass; otherwise each lane runs the interpreter's
    /// declaration-order fixpoint until *its own* column stabilises, so
    /// per-lane iteration counts (and thus coverage/op tallies) never
    /// depend on the other lanes. A lane still changing after
    /// `MAX_SETTLE_ITERS` passes dies with [`SimError::CombDivergence`].
    fn settle_lanes<const K: usize, S: LaneSink>(
        &self,
        ctx: &mut Ctx<'_, K>,
        mask: u64,
        sink: &mut S,
        before: &mut Vec<Value>,
    ) {
        let mask = mask & *ctx.alive;
        if mask == 0 {
            return;
        }
        if self.levelized {
            for &i in &self.order {
                let m = mask & *ctx.alive;
                if m == 0 {
                    return;
                }
                self.run_comb_step_lanes(ctx, &self.comb[i], m, sink);
            }
            return;
        }
        let n_sigs = self.names.len();
        let mut pending = mask;
        for _ in 0..MAX_SETTLE_ITERS {
            pending &= *ctx.alive;
            if pending == 0 {
                return;
            }
            before.clone_from(ctx.state);
            for step in &self.comb {
                let m = pending & *ctx.alive;
                if m == 0 {
                    break;
                }
                self.run_comb_step_lanes(ctx, step, m, sink);
            }
            let mut still = 0u64;
            for_lanes::<K>(pending & *ctx.alive, |l| {
                for s in 0..n_sigs {
                    if ctx.state[s * K + l] != before[s * K + l] {
                        still |= lane_bit(l);
                        break;
                    }
                }
            });
            pending = still;
        }
        let diverged = pending & *ctx.alive;
        let mut m = diverged;
        while m != 0 {
            let l = m.trailing_zeros() as usize;
            m &= m - 1;
            let mut dummy = 0u64;
            kill(
                ctx.errors,
                ctx.alive,
                &mut dummy,
                l,
                SimError::CombDivergence,
            );
        }
    }

    fn run_comb_step_lanes<'a, const K: usize, S: LaneSink>(
        &'a self,
        ctx: &mut Ctx<'_, K>,
        step: &'a CombStep,
        mask: u64,
        sink: &mut S,
    ) {
        match step {
            CombStep::Assign { lhs, rhs } => {
                let mut out = [Value::zero(1); K];
                let sur = self.eval_lanes(ctx, rhs, mask, &mut out);
                sink.ops(sur, rhs.ops.len() as u64);
                if sur != 0 {
                    self.write_lvalue_lanes(ctx, lhs, &out, sur);
                }
            }
            CombStep::Block(body) => {
                let mut nba: Vec<LaneNba<'a, K>> = Vec::new();
                self.exec_stmt_lanes(ctx, body, mask, &mut nba, sink);
                for up in nba {
                    self.write_lvalue_lanes(ctx, up.lhs, &up.vals, up.mask);
                }
            }
        }
    }

    /// Executes every clocked block against the pre-edge state and
    /// commits the updates atomically, in the interpreter's order: per
    /// block, blocking diffs in signal order and then that block's
    /// nonblocking writes in execution order — chronologically across
    /// blocks, each update masked to the lanes it belongs to (and to
    /// whatever is still alive when it applies: a lane that errors
    /// mid-commit stops committing).
    ///
    /// Blocks execute in place under the [`EdgeLog`] journal: the first
    /// write to a signal saves its pre-block lane values, and after the
    /// block only the journaled signals are diffed (ascending signal id)
    /// and restored to their pre-edge values — no whole-state clone or
    /// scan per block.
    fn clock_edge_lanes<const K: usize, S: LaneSink>(
        &self,
        ctx: &mut Ctx<'_, K>,
        mask: u64,
        sink: &mut S,
    ) {
        let mask = mask & *ctx.alive;
        if mask == 0 {
            return;
        }
        let mut updates: Vec<EdgeUpdate<'_, K>> = Vec::new();
        for block in &self.seq {
            let m = mask & *ctx.alive;
            if m == 0 {
                break;
            }
            ctx.edge_log.gen += 1;
            ctx.edge_log.entries.clear();
            ctx.edge_log.on = true;
            let mut nba: Vec<LaneNba<'_, K>> = Vec::new();
            self.exec_stmt_lanes(ctx, block, m, &mut nba, sink);
            ctx.edge_log.on = false;
            let m = m & *ctx.alive;
            let mut entries = std::mem::take(&mut ctx.edge_log.entries);
            entries.sort_unstable_by_key(|(sig, _)| sig.idx());
            for (sig, old) in &entries {
                let b = sig.idx() * K;
                let mut dm = 0u64;
                for_lanes::<K>(m, |l| {
                    if ctx.state[b + l] != old[l] {
                        dm |= lane_bit(l);
                    }
                });
                if dm != 0 {
                    let mut vals = [Value::zero(1); K];
                    for_lanes::<K>(dm, |l| vals[l] = ctx.state[b + l]);
                    updates.push(EdgeUpdate::Whole(*sig, dm, vals));
                }
                // Later blocks and the final commit all observe the same
                // pre-edge snapshot.
                ctx.state[b..b + K].copy_from_slice(old);
            }
            entries.clear();
            ctx.edge_log.entries = entries;
            updates.extend(nba.into_iter().map(EdgeUpdate::Lv));
        }
        for up in updates {
            match up {
                EdgeUpdate::Whole(sig, dm, vals) => {
                    let m = dm & *ctx.alive;
                    let w = self.widths[sig.idx()];
                    let b = sig.idx() * K;
                    for_lanes::<K>(m, |l| ctx.state[b + l] = vals[l].resize(w));
                }
                EdgeUpdate::Lv(u) => self.write_lvalue_lanes(ctx, u.lhs, &u.vals, u.mask),
            }
        }
    }

    fn exec_stmt_lanes<'a, const K: usize, S: LaneSink>(
        &'a self,
        ctx: &mut Ctx<'_, K>,
        s: &'a CStmt,
        mask: u64,
        nba: &mut Vec<LaneNba<'a, K>>,
        sink: &mut S,
    ) {
        match s {
            CStmt::Block(stmts) => {
                for st in stmts {
                    let m = mask & *ctx.alive;
                    if m == 0 {
                        return;
                    }
                    self.exec_stmt_lanes(ctx, st, m, nba, sink);
                }
            }
            CStmt::If {
                cond,
                then_branch,
                else_branch,
                site,
            } => {
                let mut out = [Value::zero(1); K];
                let sur = self.eval_lanes(ctx, cond, mask, &mut out);
                sink.ops(sur, cond.ops.len() as u64);
                let mut t = 0u64;
                for_lanes::<K>(sur, |l| {
                    if out[l].is_truthy() {
                        t |= lane_bit(l);
                    }
                });
                let f = sur & !t;
                for_lanes::<K>(t, |l| sink.branch(l, *site));
                for_lanes::<K>(f, |l| sink.branch(l, *site + 1));
                if t != 0 {
                    self.exec_stmt_lanes(ctx, then_branch, t, nba, sink);
                }
                if f != 0 {
                    if let Some(e) = else_branch {
                        self.exec_stmt_lanes(ctx, e, f, nba, sink);
                    }
                }
            }
            CStmt::Case {
                scrutinee,
                arms,
                default,
                site,
            } => {
                let mut sv = [Value::zero(1); K];
                let mut remaining = self.eval_lanes(ctx, scrutinee, mask, &mut sv);
                sink.ops(remaining, scrutinee.ops.len() as u64);
                let mut lv = [Value::zero(1); K];
                for (i, arm) in arms.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    for label in &arm.labels {
                        if remaining == 0 {
                            break;
                        }
                        let lsur = self.eval_lanes(ctx, label, remaining, &mut lv);
                        sink.ops(lsur, label.ops.len() as u64);
                        let mut matched = 0u64;
                        for_lanes::<K>(lsur, |l| {
                            if lv[l].bits() == sv[l].bits() {
                                matched |= lane_bit(l);
                            }
                        });
                        if matched != 0 {
                            for_lanes::<K>(matched, |l| sink.branch(l, *site + i as u32));
                            self.exec_stmt_lanes(ctx, &arm.body, matched, nba, sink);
                        }
                        remaining = lsur & !matched & *ctx.alive;
                    }
                }
                if remaining != 0 {
                    for_lanes::<K>(remaining, |l| sink.branch(l, *site + arms.len() as u32));
                    if let Some(d) = default {
                        self.exec_stmt_lanes(ctx, d, remaining, nba, sink);
                    }
                }
            }
            CStmt::Assign {
                lhs,
                rhs,
                nonblocking,
            } => {
                let mut out = [Value::zero(1); K];
                let sur = self.eval_lanes(ctx, rhs, mask, &mut out);
                sink.ops(sur, rhs.ops.len() as u64);
                if sur == 0 {
                    return;
                }
                if *nonblocking {
                    nba.push(LaneNba {
                        lhs,
                        mask: sur,
                        vals: out,
                    });
                } else {
                    self.write_lvalue_lanes(ctx, lhs, &out, sur);
                }
            }
            CStmt::Empty => {}
        }
    }

    fn write_lvalue_lanes<const K: usize>(
        &self,
        ctx: &mut Ctx<'_, K>,
        lv: &CLValue,
        vals: &[Value; K],
        mask: u64,
    ) {
        let mask = mask & *ctx.alive;
        if mask == 0 {
            return;
        }
        if ctx.edge_log.on {
            log_lvalue(ctx, lv);
        }
        match lv {
            CLValue::Whole(sig) => {
                let w = self.widths[sig.idx()];
                let b = sig.idx() * K;
                for_lanes::<K>(mask, |l| ctx.state[b + l] = vals[l].resize(w));
            }
            CLValue::Bit { sig, index } => {
                // Index programs are not charged to op tallies.
                let mut iv = [Value::zero(1); K];
                let sur = self.eval_lanes(ctx, index, mask, &mut iv);
                let b = sig.idx() * K;
                for_lanes::<K>(sur, |l| {
                    let i = u32::try_from(iv[l].bits()).unwrap_or(u32::MAX);
                    let cur = ctx.state[b + l];
                    ctx.state[b + l] = cur.set_bit(i, vals[l].is_truthy() && vals[l].get_bit(0));
                });
            }
            CLValue::Part { sig, msb, lsb } => {
                let b = sig.idx() * K;
                for_lanes::<K>(mask, |l| {
                    let cur = ctx.state[b + l];
                    ctx.state[b + l] = cur.set_slice(*msb, *lsb, vals[l]);
                });
            }
            CLValue::Concat(_) => {
                // Concat targets are written one lane at a time: extract
                // the lane's column, snapshot it (nested reads observe
                // pre-write values throughout, exactly like the
                // interpreter), run `write_concat_part` on it, and copy
                // back only on success — a failed write kills the lane
                // and leaves its column untouched.
                let n_sigs = self.names.len();
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    ctx.lane_state.clear();
                    ctx.lane_state
                        .extend((0..n_sigs).map(|s| ctx.state[s * K + l]));
                    ctx.lane_snapshot.clone_from(ctx.lane_state);
                    match self.write_concat_part(
                        lv,
                        vals[l],
                        ctx.lane_snapshot,
                        ctx.lane_state,
                        ctx.scalar_stack,
                    ) {
                        Ok(()) => {
                            for s in 0..n_sigs {
                                ctx.state[s * K + l] = ctx.lane_state[s];
                            }
                        }
                        Err(e) => {
                            let mut dummy = 0u64;
                            kill(ctx.errors, ctx.alive, &mut dummy, l, e);
                        }
                    }
                }
            }
            CLValue::Unknown(name) => {
                let mut m = mask;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mut dummy = 0u64;
                    kill(
                        ctx.errors,
                        ctx.alive,
                        &mut dummy,
                        l,
                        SimError::Eval(EvalError::UnknownSignal(name.clone())),
                    );
                }
            }
        }
    }
}

/// The completed run of one lane's stimulus.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneRun {
    /// The recorded waveform (one preponed sample per tick).
    pub trace: Trace,
    /// The lane's coverage map, when coverage was enabled.
    pub coverage: Option<CovMap>,
    /// Bytecode ops dispatched for this lane, when op counting was
    /// enabled (0 otherwise).
    pub ops: u64,
}

/// Per-lane result: a completed run, or the first error the lane raised.
pub type LaneOutcome = Result<LaneRun, SimError>;

/// A lane-batched simulation of up to `K` independent stimuli over one
/// compiled design. See the module docs for the execution model.
#[derive(Debug, Clone)]
pub struct LaneBatch<const K: usize> {
    compiled: Arc<CompiledDesign>,
    n_sigs: usize,
    lanes: usize,
    /// SoA store: `state[sig * K + lane]`.
    state: Vec<Value>,
    stack: Vec<Value>,
    frames: Vec<Frame<K>>,
    alive: u64,
    errors: Vec<Option<SimError>>,
    /// Tick-major sample log: each recorded tick appends the full
    /// lane-minor state (`n_sigs * K` values). Per-lane traces are
    /// transposed out once in [`LaneBatch::into_outcomes`] — recording a
    /// tick during the run is a single bulk append instead of `K`
    /// per-lane row pushes.
    flat_samples: Vec<Value>,
    /// Which lanes actually sampled each recorded tick (errored and
    /// finished lanes drop out).
    live_rows: Vec<u64>,
    covs: Vec<CovMap>,
    ops: Vec<u64>,
    count_ops: bool,
    // Reused tick buffers.
    settle_before: Vec<Value>,
    row_scratch: Vec<Value>,
    edge_log: EdgeLog<K>,
    scalar_stack: Vec<Value>,
    lane_state: Vec<Value>,
    lane_snapshot: Vec<Value>,
}

impl<const K: usize> std::fmt::Debug for Frame<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frame")
            .field("else_start", &self.else_start)
            .field("end", &self.end)
            .field("save", &self.save)
            .field("then_mask", &self.then_mask)
            .finish()
    }
}

impl<const K: usize> LaneBatch<K> {
    /// Creates a batch of `lanes` (`1..=K`) zero-initialised simulation
    /// states over a compiled design.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is 0 or exceeds `K`, or `K` is outside
    /// `1..=64`.
    pub fn new(compiled: Arc<CompiledDesign>, lanes: usize) -> Self {
        assert!(K >= 1 && K <= 64, "lane width {K} outside 1..=64");
        assert!(lanes >= 1 && lanes <= K, "{lanes} lanes outside 1..={K}");
        let n_sigs = compiled.names().len();
        let init = compiled.init_slice();
        let mut state = Vec::with_capacity(n_sigs * K);
        for v in init {
            for _ in 0..K {
                state.push(*v);
            }
        }
        let alive = if lanes >= 64 {
            u64::MAX
        } else {
            (1u64 << lanes) - 1
        };
        LaneBatch {
            compiled,
            n_sigs,
            lanes,
            state,
            stack: Vec::with_capacity(16 * K),
            frames: Vec::new(),
            alive,
            errors: vec![None; lanes],
            flat_samples: Vec::new(),
            live_rows: Vec::new(),
            covs: Vec::new(),
            ops: vec![0; lanes],
            count_ops: false,
            settle_before: Vec::new(),
            row_scratch: Vec::new(),
            edge_log: EdgeLog {
                on: false,
                gen: 0,
                touched: vec![0; n_sigs],
                entries: Vec::new(),
            },
            scalar_stack: Vec::new(),
            lane_state: Vec::new(),
            lane_snapshot: Vec::new(),
        }
    }

    /// Number of occupied lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask of lanes that have not errored.
    pub fn alive(&self) -> u64 {
        self.alive
    }

    /// Enables per-lane coverage recording (branch arms + signal
    /// toggles) for subsequent ticks. `assertions` sizes the antecedent
    /// axis the SVA checker fills in (pass 0 when no checker is
    /// attached). Without this call ticks run uninstrumented.
    pub fn enable_coverage(&mut self, assertions: usize) {
        self.covs = (0..self.lanes)
            .map(|_| CovMap::new(&self.compiled, assertions))
            .collect();
    }

    /// Enables per-lane bytecode op counting for subsequent ticks, at
    /// statement-expression program granularity. Like coverage this is
    /// opt-in; unlike coverage, the tally is a pure function of bytecode
    /// and stimulus — the deterministic work metric the perf harness
    /// records.
    pub fn enable_op_count(&mut self) {
        self.count_ops = true;
    }

    /// Drives an input of one lane for subsequent ticks.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known signal or `lane` is out of range.
    pub fn set_input(&mut self, lane: usize, name: &str, value: u64) {
        let sig = self
            .compiled
            .sig(name)
            .unwrap_or_else(|| panic!("unknown signal `{name}`"));
        self.set_input_sig(lane, sig, value);
    }

    /// [`LaneBatch::set_input`] with a pre-resolved [`SigId`]: the input
    /// names of a stimulus are identical every tick, so hot drivers
    /// resolve once and write by id ([`run_stimulus_group`] does this).
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range.
    pub fn set_input_sig(&mut self, lane: usize, sig: SigId, value: u64) {
        assert!(lane < self.lanes, "lane {lane} out of range");
        self.state[sig.idx() * K + lane] = Value::new(value, self.compiled.width(sig));
    }

    /// Current (post-settle) value of a signal in one lane; `None` for an
    /// unknown signal or a lane outside `0..lanes()`.
    pub fn value(&self, lane: usize, name: &str) -> Option<Value> {
        if lane >= self.lanes {
            return None;
        }
        self.compiled
            .sig(name)
            .map(|s| self.state[s.idx() * K + lane])
    }

    /// The shared compiled design.
    pub(crate) fn compiled(&self) -> &Arc<CompiledDesign> {
        &self.compiled
    }

    /// The first error `lane` raised, if any.
    pub(crate) fn error(&self, lane: usize) -> Option<&SimError> {
        self.errors[lane].as_ref()
    }

    /// `lane`'s coverage map, when coverage is enabled.
    pub(crate) fn coverage(&self, lane: usize) -> Option<&CovMap> {
        self.covs.get(lane)
    }

    /// Bytecode ops `lane` dispatched (0 unless op counting is enabled).
    pub(crate) fn ops_executed(&self, lane: usize) -> u64 {
        self.ops[lane]
    }

    /// Runs one clock tick for every lane in `active` (errored and
    /// out-of-range lanes are ignored): settle, sample the preponed row,
    /// run the clock edge, settle again (see [`crate::exec`]). Ragged
    /// batches simply leave finished lanes out of `active`.
    pub fn step_active(&mut self, active: u64) {
        let occupied = if self.lanes >= 64 {
            u64::MAX
        } else {
            (1u64 << self.lanes) - 1
        };
        let active = active & occupied & self.alive;
        if active == 0 {
            return;
        }
        let mut covs = std::mem::take(&mut self.covs);
        let mut ops = std::mem::take(&mut self.ops);
        match (covs.is_empty(), self.count_ops) {
            (true, false) => self.tick(active, &mut NoLaneSink),
            (true, true) => self.tick(active, &mut OpsLanes { ops: &mut ops }),
            (false, false) => self.tick(active, &mut CovLanes { covs: &mut covs }),
            (false, true) => self.tick(
                active,
                &mut CovOpsLanes {
                    covs: &mut covs,
                    ops: &mut ops,
                },
            ),
        }
        self.covs = covs;
        self.ops = ops;
    }

    fn tick<S: LaneSink>(&mut self, active: u64, sink: &mut S) {
        let cd = Arc::clone(&self.compiled);
        let n_sigs = self.n_sigs;
        let mut ctx = Ctx {
            state: &mut self.state,
            stack: &mut self.stack,
            frames: &mut self.frames,
            alive: &mut self.alive,
            errors: &mut self.errors,
            scalar_stack: &mut self.scalar_stack,
            lane_state: &mut self.lane_state,
            lane_snapshot: &mut self.lane_snapshot,
            edge_log: &mut self.edge_log,
        };
        cd.settle_lanes(&mut ctx, active, sink, &mut self.settle_before);
        // Preponed sample: lanes that errored while settling record no
        // row. The whole lane-minor state is appended to the flat log in
        // one bulk copy; per-lane rows are transposed out in
        // `into_outcomes`. Only coverage sinks need rows right now (the
        // toggle axis is per tick), so only they pay for a transpose.
        let live = active & *ctx.alive;
        if live != 0 {
            if S::NEEDS_ROWS {
                self.row_scratch.resize(K * n_sigs, Value::zero(1));
                for_lanes::<K>(live, |l| {
                    let base = l * n_sigs;
                    for (d, lanes) in self.row_scratch[base..base + n_sigs]
                        .iter_mut()
                        .zip(ctx.state.chunks_exact(K))
                    {
                        *d = lanes[l];
                    }
                    sink.row(l, &self.row_scratch[base..base + n_sigs]);
                });
            }
            self.flat_samples.extend_from_slice(ctx.state);
            self.live_rows.push(live);
        }
        let live = active & *ctx.alive;
        cd.clock_edge_lanes(&mut ctx, live, sink);
        let live = active & *ctx.alive;
        cd.settle_lanes(&mut ctx, live, sink, &mut self.settle_before);
    }

    /// Consumes the batch, returning each lane's outcome in lane order.
    /// This is where per-lane traces materialise: each surviving lane's
    /// ticks are transposed out of the flat lane-minor sample log in one
    /// sequential pass.
    pub fn into_outcomes(self) -> Vec<LaneOutcome> {
        let LaneBatch {
            compiled,
            n_sigs,
            lanes,
            errors,
            flat_samples,
            live_rows,
            covs,
            ops,
            ..
        } = self;
        let has_cov = !covs.is_empty();
        let mut covs = covs.into_iter();
        let header = compiled.trace_header();
        let stride = n_sigs * K;
        let mut out = Vec::with_capacity(lanes);
        for l in 0..lanes {
            let coverage = if has_cov { covs.next() } else { None };
            out.push(match &errors[l] {
                Some(e) => Err(e.clone()),
                None => {
                    let bit = 1u64 << l;
                    let mut samples = Vec::with_capacity(live_rows.len() * n_sigs);
                    for (t, &live) in live_rows.iter().enumerate() {
                        if live & bit != 0 {
                            let base = t * stride + l;
                            samples.extend((0..n_sigs).map(|s| flat_samples[base + s * K]));
                        }
                    }
                    Ok(LaneRun {
                        trace: Trace::from_parts(Arc::clone(header), samples),
                        coverage,
                        ops: ops[l],
                    })
                }
            });
        }
        out
    }

    /// Runs a group of stimuli (`1..=K` of them) to completion, one
    /// stimulus per lane: per cycle, each lane still inside its stimulus
    /// applies that cycle's inputs and steps; lanes whose stimulus ended
    /// (ragged groups) or that errored sit the cycle out. Returns one
    /// outcome per stimulus, in order.
    ///
    /// # Panics
    ///
    /// Panics when `group` is empty or longer than `K`.
    pub fn run_group(
        compiled: &Arc<CompiledDesign>,
        group: &[Stimulus],
        assertions: Option<usize>,
        count_ops: bool,
    ) -> Vec<LaneOutcome> {
        assert!(
            !group.is_empty() && group.len() <= K,
            "group of {} outside 1..={K}",
            group.len()
        );
        let mut batch = LaneBatch::<K>::new(Arc::clone(compiled), group.len());
        if let Some(a) = assertions {
            batch.enable_coverage(a);
        }
        if count_ops {
            batch.enable_op_count();
        }
        let max_len = group.iter().map(Stimulus::len).max().unwrap_or(0);
        // Stimulus vectors normally name the same inputs every tick and
        // every lane (the generators emit one fixed sequence). Verify
        // that once up front per lane; uniform lanes then drive inputs
        // through a shared name → signal-id table with zero per-tick
        // allocation or comparison, and only hand-built irregular
        // stimuli take the per-tick resolution path.
        let resolve = |names: &[(String, u64)]| -> Vec<SigId> {
            names
                .iter()
                .map(|(name, _)| {
                    compiled
                        .sig(name)
                        .unwrap_or_else(|| panic!("unknown signal `{name}`"))
                })
                .collect()
        };
        let first = group
            .iter()
            .find(|s| !s.is_empty())
            .map(|s| s.vector(0))
            .unwrap_or(&[]);
        let shared_ids: Vec<SigId> = resolve(first);
        let names_match = |v: &[(String, u64)]| {
            v.len() == first.len() && v.iter().zip(first.iter()).all(|((n, _), (f, _))| n == f)
        };
        let uniform: Vec<bool> = group
            .iter()
            .map(|s| s.vectors.iter().all(|v| names_match(v)))
            .collect();
        for t in 0..max_len {
            let mut active = 0u64;
            for (l, stim) in group.iter().enumerate() {
                if t < stim.len() && batch.alive & lane_bit(l) != 0 {
                    active |= lane_bit(l);
                    let cycle = stim.vector(t);
                    if uniform[l] {
                        for ((_, v), sig) in cycle.iter().zip(&shared_ids) {
                            batch.set_input_sig(l, *sig, *v);
                        }
                    } else {
                        for ((_, v), sig) in cycle.iter().zip(resolve(cycle)) {
                            batch.set_input_sig(l, sig, *v);
                        }
                    }
                }
            }
            if active == 0 {
                break;
            }
            batch.step_active(active);
        }
        batch.into_outcomes()
    }
}

/// Runs a group of at most [`LANES`] stimuli in one `LaneBatch<LANES>`,
/// one stimulus per lane; an empty group runs nothing. Each outcome
/// equals a single-lane run of its stimulus.
///
/// # Panics
///
/// Panics when `group` holds more than [`LANES`] stimuli.
pub fn run_stimulus_group(
    compiled: &Arc<CompiledDesign>,
    group: &[Stimulus],
    assertions: Option<usize>,
    count_ops: bool,
) -> Vec<LaneOutcome> {
    if group.is_empty() {
        return Vec::new();
    }
    LaneBatch::<LANES>::run_group(compiled, group, assertions, count_ops)
}

impl LaneBatch<1> {
    /// Consumes a single-lane batch, returning its trace and coverage
    /// map whether or not the lane errored (a [`crate::Simulator`] keeps
    /// the rows recorded before its first error). With one lane every
    /// logged row is that lane's, so the flat sample log *is* the trace.
    pub(crate) fn into_trace_and_coverage(self) -> (Trace, Option<CovMap>) {
        let header = Arc::clone(self.compiled.trace_header());
        (
            Trace::from_parts(header, self.flat_samples),
            self.covs.into_iter().next(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::AstSimulator;
    use crate::stimulus::StimulusGen;
    use asv_verilog::compile as velab;

    fn compiled(src: &str) -> Arc<CompiledDesign> {
        Arc::new(CompiledDesign::compile(&velab(src).expect("compile")))
    }

    /// The AST interpreter oracle's outcome for one stimulus: its trace,
    /// or its first error.
    fn oracle(cd: &CompiledDesign, stim: &Stimulus) -> Result<Trace, SimError> {
        let mut sim = AstSimulator::new(cd.design());
        for t in 0..stim.len() {
            sim.step(&stim.cycle(t))?;
        }
        Ok(sim.into_trace())
    }

    /// Differential harness: runs `n` seeded stimuli through
    /// `LaneBatch::<K>` groups and requires each lane's trace or first
    /// error to equal the interpreter oracle's, and its coverage map and
    /// op tally (which the interpreter does not record) to equal a
    /// single-lane run of the same stimulus.
    fn assert_differential<const K: usize>(src: &str, n: usize, cycles: usize) {
        let cd = compiled(src);
        let gen = StimulusGen::new(cd.design());
        let stimuli: Vec<Stimulus> = (0..n)
            .map(|i| gen.random_seeded(cycles, 2, 0xBA7C_4000 + i as u64))
            .collect();
        let single: Vec<LaneOutcome> = stimuli
            .iter()
            .flat_map(|s| LaneBatch::<1>::run_group(&cd, std::slice::from_ref(s), Some(3), true))
            .collect();
        let mut batched = Vec::new();
        for group in stimuli.chunks(K) {
            batched.extend(LaneBatch::<K>::run_group(&cd, group, Some(3), true));
        }
        assert_eq!(single.len(), batched.len());
        for (i, (b, s)) in batched.iter().zip(&single).enumerate() {
            match (oracle(&cd, &stimuli[i]), b) {
                (Ok(trace), Ok(run)) => assert_eq!(trace, run.trace, "trace diverged at {i}"),
                (Err(oe), Err(be)) => assert_eq!(oe, *be, "error diverged at stimulus {i}"),
                (o, _) => panic!("outcome kind diverged at stimulus {i}: {o:?} vs {b:?}"),
            }
            assert_eq!(b, s, "K={K} diverged from the single-lane run at {i}");
        }
    }

    const COUNTER: &str = "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) q <= 4'd0; else if (en) q <= q + 4'd1;\n\
        end\nendmodule";

    #[test]
    fn counter_matches_scalar_ragged() {
        // 13 stimuli at K=8: one full group and a ragged 5-lane tail.
        assert_differential::<8>(COUNTER, 13, 10);
    }

    #[test]
    fn divergent_ternary_is_lazy_per_lane() {
        // The untaken branch divides by zero: lanes taking `s = 0` must
        // not fault even while sibling lanes take `s = 1` and do.
        let src = "module t(input clk, input s, input [3:0] a, input [3:0] b,\n\
             output reg [3:0] y);\n\
             always @(posedge clk) y <= s ? a / b : a;\nendmodule";
        assert_differential::<8>(src, 16, 8);
    }

    #[test]
    fn case_and_concat_lvalues_match_scalar() {
        let src = "module m(input clk, input [1:0] sel, input [3:0] a, input [3:0] b,\n\
             output reg [3:0] hi, output reg [3:0] lo, output reg [3:0] y);\n\
             always @(posedge clk) begin\n\
               case (sel)\n\
                 2'd0: y <= a;\n\
                 2'd1: y <= b;\n\
                 2'd2: y <= a ^ b;\n\
                 default: y <= 4'd0;\n\
               endcase\n\
               {hi, lo} <= {a, b};\n\
             end\nendmodule";
        assert_differential::<8>(src, 12, 8);
    }

    #[test]
    fn mid_batch_lane_errors_match_scalar() {
        // Division faults whenever b == 0 — lanes die at different ticks
        // mid-batch while survivors keep stepping.
        let src = "module d(input clk, input [3:0] a, input [3:0] b, output reg [3:0] q);\n\
             always @(posedge clk) q <= a / b;\nendmodule";
        assert_differential::<8>(src, 16, 6);
        assert_differential::<16>(src, 16, 6);
    }

    #[test]
    fn nonlevelized_fixpoint_matches_scalar() {
        // Latch-style block: falls back to the fixpoint discipline.
        let src = "module l(input clk, input en, input [3:0] d, output reg [3:0] q,\n\
             output reg [3:0] r);\n\
             always @(*) begin if (en) q = d; end\n\
             always @(posedge clk) r <= q;\nendmodule";
        assert_differential::<8>(src, 12, 8);
    }

    #[test]
    fn all_lane_widths_match_scalar() {
        assert_differential::<8>(COUNTER, 11, 6);
        assert_differential::<16>(COUNTER, 19, 6);
        assert_differential::<32>(COUNTER, 35, 6);
    }

    #[test]
    fn per_lane_comb_divergence() {
        // `n = ~n | a` oscillates exactly when a == 0: lanes with a == 1
        // settle, lanes with a == 0 must report CombDivergence.
        let cd = compiled(
            "module osc(input clk, input a, output y);\nwire n;\n\
             assign n = ~n | a;\nassign y = n;\nendmodule",
        );
        let mk = |a: u64| Stimulus {
            vectors: vec![vec![("a".to_string(), a)]; 3],
            reset_cycles: 0,
        };
        let group = [mk(1), mk(0), mk(1), mk(0)];
        let out = LaneBatch::<8>::run_group(&cd, &group, None, false);
        assert!(out[0].is_ok(), "a=1 settles");
        assert_eq!(out[1], Err(SimError::CombDivergence));
        assert!(out[2].is_ok());
        assert_eq!(out[3], Err(SimError::CombDivergence));
    }

    #[test]
    fn scalar_fallback_dispatch() {
        let cd = compiled(COUNTER);
        let gen = StimulusGen::new(cd.design());
        let stimuli: Vec<Stimulus> = (0..5).map(|i| gen.random_seeded(6, 2, i)).collect();
        // A group runs as one LANES-wide batch; each lane's outcome must
        // equal the scalar (single-lane) run of its stimulus, and an
        // empty group dispatches nothing.
        let batch = run_stimulus_group(&cd, &stimuli, Some(0), true);
        let single: Vec<LaneOutcome> = stimuli
            .iter()
            .flat_map(|s| LaneBatch::<1>::run_group(&cd, std::slice::from_ref(s), Some(0), true))
            .collect();
        assert_eq!(single, batch);
        assert!(batch.iter().all(Result::is_ok));
        assert!(run_stimulus_group(&cd, &[], None, false).is_empty());
    }

    #[test]
    fn ragged_groups_leave_finished_lanes_untouched() {
        let cd = compiled(COUNTER);
        let gen = StimulusGen::new(cd.design());
        // Lane 0 runs 9 cycles, lane 1 only 3: lane 1's trace must stop
        // at 3 rows and match the oracle's run exactly.
        let long = gen.random_seeded(7, 2, 1);
        let short = gen.random_seeded(1, 2, 2);
        let out = LaneBatch::<8>::run_group(&cd, &[long.clone(), short.clone()], None, false);
        let o_long = oracle(&cd, &long).expect("oracle");
        let o_short = oracle(&cd, &short).expect("oracle");
        assert_eq!(out[0].as_ref().expect("lane 0").trace, o_long);
        assert_eq!(out[1].as_ref().expect("lane 1").trace, o_short);
        assert_eq!(out[1].as_ref().expect("lane 1").trace.len(), 3);
    }

    #[test]
    fn traces_share_the_compiled_header() {
        let cd = compiled(COUNTER);
        let gen = StimulusGen::new(cd.design());
        let stim = gen.random_seeded(3, 1, 9);
        let out = LaneBatch::<8>::run_group(&cd, &[stim], None, false);
        let run = out[0].as_ref().expect("lane 0");
        assert!(Arc::ptr_eq(run.trace.header(), cd.trace_header()));
    }

    #[test]
    fn value_is_none_for_out_of_range_lanes() {
        let cd = compiled(
            "module m(input clk, input [3:0] a, input [3:0] b, output [3:0] y);\n\
             assign y = a + b;\nendmodule",
        );
        assert_eq!(cd.names(), &["a", "b", "clk", "y"]);
        let mut batch = LaneBatch::<8>::new(Arc::clone(&cd), 2);
        batch.set_input(1, "b", 7);
        batch.step_active(0b11);
        assert_eq!(batch.value(1, "b"), Some(Value::new(7, 4)));
        assert_eq!(batch.value(1, "y"), Some(Value::new(7, 4)));
        // Lane 9 of `a` would alias `b`'s lane 1, and lane 5 never ran.
        assert_eq!(batch.value(9, "a"), None);
        assert_eq!(batch.value(5, "b"), None);
        assert_eq!(batch.value(2, "y"), None);
        assert_eq!(batch.value(0, "ghost"), None);
    }
}
