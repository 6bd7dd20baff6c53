//! Time-frame symbolic execution of a [`CompiledDesign`].
//!
//! The functions here mirror the concrete lane executor
//! (`asv_sim::compile::batch`) step for step — [`settle_sym`] is its
//! combinational settle (levelized order only), [`clock_edge_sym`] its
//! clock edge with the exact commit discipline (per block:
//! blocking-write diffs in signal order, then nonblocking assignments in
//! execution order, all applied atomically) — but over [`SymVec`] state.
//!
//! Control flow with symbolic conditions is handled by *guarded updates*:
//! each assignment under an `if`/`case` becomes a per-bit mux between the
//! new value and the old one, selected by the path condition. Branches
//! whose guard folds to constant false are skipped entirely, preserving
//! the interpreter's lazy evaluation (an unsupported construct in a
//! statically dead branch never poisons the lowering).

use crate::aig::{Aig, NLit};
use crate::blast::{run_sym, BlastError, SymEnv, SymVec};
use asv_sim::compile::{CLValue, CStmt, CombStep, CompiledDesign, SigId};
use asv_sim::value::Value;

/// Symbolic signal store: one [`SymVec`] per interned signal, always kept
/// at the signal's declared width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymState {
    /// Values indexed by [`SigId`].
    pub vals: Vec<SymVec>,
}

impl SymState {
    /// The all-zero initial state of a design (the simulator's initial
    /// state).
    pub fn init(cd: &CompiledDesign) -> Self {
        SymState {
            vals: (0..cd.names().len())
                .map(|i| SymVec::from_value(Value::zero(cd.width(SigId(i as u32)))))
                .collect(),
        }
    }
}

/// Environment reading a flat symbolic store (no history).
pub struct SliceEnv<'a> {
    vals: &'a [SymVec],
}

impl<'a> SliceEnv<'a> {
    /// Wraps a value slice.
    pub fn new(vals: &'a [SymVec]) -> Self {
        SliceEnv { vals }
    }
}

impl SymEnv for SliceEnv<'_> {
    fn load(&self, sig: SigId) -> SymVec {
        self.vals[sig.idx()].clone()
    }
}

fn unsupported<T>(msg: impl Into<String>) -> Result<T, BlastError> {
    Err(BlastError(msg.into()))
}

/// Declared width of a compiled lvalue (mirrors the executor's private
/// `lvalue_width`).
fn lvalue_width(cd: &CompiledDesign, lv: &CLValue) -> Result<u32, BlastError> {
    match lv {
        CLValue::Whole(sig) => Ok(cd.width(*sig)),
        CLValue::Bit { .. } => Ok(1),
        CLValue::Part { msb, lsb, .. } => Ok(msb - lsb + 1),
        CLValue::Concat(parts) => parts.iter().map(|p| lvalue_width(cd, p)).sum(),
        CLValue::Unknown(name) => unsupported(format!("unresolved lvalue `{name}`")),
    }
}

/// Applies a (possibly guarded) write through a compiled lvalue.
pub fn write_lvalue_sym(
    g: &mut Aig,
    cd: &CompiledDesign,
    lv: &CLValue,
    value: &SymVec,
    guard: NLit,
    state: &mut SymState,
) -> Result<(), BlastError> {
    match lv {
        CLValue::Whole(sig) => {
            let nv = value.resize(cd.width(*sig));
            let cur = &state.vals[sig.idx()];
            state.vals[sig.idx()] = if guard == NLit::TRUE {
                nv
            } else {
                SymVec::mux(g, guard, &nv, cur)
            };
            Ok(())
        }
        CLValue::Bit { sig, index } => {
            let iv = run_sym(g, index, &SliceEnv::new(&state.vals))?;
            let cur = state.vals[sig.idx()].clone();
            let nv = cur.set_bit(g, &iv, value.get(0));
            state.vals[sig.idx()] = SymVec::mux(g, guard, &nv, &cur);
            Ok(())
        }
        CLValue::Part { sig, msb, lsb } => {
            let cur = state.vals[sig.idx()].clone();
            let nv = cur.set_slice(*msb, *lsb, value);
            state.vals[sig.idx()] = SymVec::mux(g, guard, &nv, &cur);
            Ok(())
        }
        CLValue::Concat(_) => {
            // The concrete executor snapshots the store on entry: nested
            // reads (including index programs) observe pre-write values
            // throughout the concat.
            let snapshot = state.vals.clone();
            write_concat_sym(g, cd, lv, value, guard, &snapshot, state)
        }
        CLValue::Unknown(name) => unsupported(format!("write to unresolved `{name}`")),
    }
}

fn write_concat_sym(
    g: &mut Aig,
    cd: &CompiledDesign,
    lv: &CLValue,
    value: &SymVec,
    guard: NLit,
    snapshot: &[SymVec],
    state: &mut SymState,
) -> Result<(), BlastError> {
    match lv {
        CLValue::Whole(sig) => {
            let nv = value.resize(cd.width(*sig));
            let cur = state.vals[sig.idx()].clone();
            state.vals[sig.idx()] = SymVec::mux(g, guard, &nv, &cur);
            Ok(())
        }
        CLValue::Bit { sig, index } => {
            let iv = run_sym(g, index, &SliceEnv::new(snapshot))?;
            let base = snapshot[sig.idx()].clone();
            let nv = base.set_bit(g, &iv, value.get(0));
            let cur = state.vals[sig.idx()].clone();
            state.vals[sig.idx()] = SymVec::mux(g, guard, &nv, &cur);
            Ok(())
        }
        CLValue::Part { sig, msb, lsb } => {
            let base = snapshot[sig.idx()].clone();
            let nv = base.set_slice(*msb, *lsb, value);
            let cur = state.vals[sig.idx()].clone();
            state.vals[sig.idx()] = SymVec::mux(g, guard, &nv, &cur);
            Ok(())
        }
        CLValue::Concat(parts) => {
            let total: u32 = parts
                .iter()
                .map(|p| lvalue_width(cd, p))
                .sum::<Result<u32, BlastError>>()?;
            let mut consumed = 0u32;
            for p in parts {
                let w = lvalue_width(cd, p)?;
                let hi = total - consumed - 1;
                let lo = total - consumed - w;
                let field = value.resize(total.min(64)).slice(hi.min(63), lo.min(63));
                write_concat_sym(g, cd, p, &field, guard, snapshot, state)?;
                consumed += w;
            }
            Ok(())
        }
        CLValue::Unknown(name) => unsupported(format!("write to unresolved `{name}`")),
    }
}

/// A pending nonblocking assignment: target, path guard, value.
type NbaSym<'a> = (&'a CLValue, NLit, SymVec);

/// Executes a compiled statement under a path guard. Blocking writes are
/// guard-muxed into `state` immediately; nonblocking writes are recorded
/// with their guard for the caller's commit phase.
pub fn exec_stmt_sym<'a>(
    g: &mut Aig,
    cd: &CompiledDesign,
    s: &'a CStmt,
    guard: NLit,
    state: &mut SymState,
    nba: &mut Vec<NbaSym<'a>>,
) -> Result<(), BlastError> {
    match s {
        CStmt::Block(stmts) => {
            for st in stmts {
                exec_stmt_sym(g, cd, st, guard, state, nba)?;
            }
            Ok(())
        }
        CStmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let cv = run_sym(g, cond, &SliceEnv::new(&state.vals))?;
            let c = cv.is_truthy(g);
            let g_then = g.and(guard, c);
            if g_then != NLit::FALSE {
                exec_stmt_sym(g, cd, then_branch, g_then, state, nba)?;
            }
            if let Some(e) = else_branch {
                let g_else = g.and(guard, !c);
                if g_else != NLit::FALSE {
                    exec_stmt_sym(g, cd, e, g_else, state, nba)?;
                }
            }
            Ok(())
        }
        CStmt::Case {
            scrutinee,
            arms,
            default,
            ..
        } => {
            let sv = run_sym(g, scrutinee, &SliceEnv::new(&state.vals))?;
            // `no_prior` tracks "no earlier arm matched"; arms and labels
            // whose reachability folds to false are skipped, matching the
            // interpreter's first-match short circuit.
            let mut no_prior = NLit::TRUE;
            for arm in arms {
                if no_prior == NLit::FALSE {
                    break;
                }
                let mut m = NLit::FALSE;
                for label in &arm.labels {
                    let lv = run_sym(g, label, &SliceEnv::new(&state.vals))?;
                    let e = lv.eq_bits(g, &sv);
                    m = g.or(m, e);
                }
                let reach = g.and(guard, no_prior);
                let g_arm = g.and(reach, m);
                if g_arm != NLit::FALSE {
                    exec_stmt_sym(g, cd, &arm.body, g_arm, state, nba)?;
                }
                no_prior = g.and(no_prior, !m);
            }
            if let Some(d) = default {
                let g_def = g.and(guard, no_prior);
                if g_def != NLit::FALSE {
                    exec_stmt_sym(g, cd, d, g_def, state, nba)?;
                }
            }
            Ok(())
        }
        CStmt::Assign {
            lhs,
            rhs,
            nonblocking,
        } => {
            let v = run_sym(g, rhs, &SliceEnv::new(&state.vals))?;
            if *nonblocking {
                nba.push((lhs, guard, v));
            } else {
                write_lvalue_sym(g, cd, lhs, &v, guard, state)?;
            }
            Ok(())
        }
        CStmt::Empty => Ok(()),
    }
}

/// Settles combinational logic symbolically: one pass over the levelized
/// schedule.
///
/// `live` optionally masks the steps to execute (dead-logic elimination
/// for the symbolic path — see `CompiledDesign::sym_live`); `None` runs
/// everything. Skipped steps are provably outside every assertion's cone
/// *and* statically guaranteed to bit-blast, so skipping can change
/// neither the verdict nor the engine's accept/reject decision.
///
/// # Errors
///
/// [`BlastError`] when a step cannot be lowered. Must only be called on
/// levelized designs (the engine checks); the fixpoint fallback is not
/// symbolically executable.
pub fn settle_sym(
    g: &mut Aig,
    cd: &CompiledDesign,
    state: &mut SymState,
    live: Option<&[bool]>,
) -> Result<(), BlastError> {
    debug_assert!(cd.is_levelized(), "symbolic settle requires levelization");
    for &i in cd.comb_order() {
        if live.is_some_and(|m| !m[i]) {
            continue;
        }
        match &cd.comb_steps()[i] {
            CombStep::Assign { lhs, rhs } => {
                let v = run_sym(g, rhs, &SliceEnv::new(&state.vals))?;
                write_lvalue_sym(g, cd, lhs, &v, NLit::TRUE, state)?;
            }
            CombStep::Block(body) => {
                let mut nba = Vec::new();
                exec_stmt_sym(g, cd, body, NLit::TRUE, state, &mut nba)?;
                for (lv, guard, v) in nba {
                    write_lvalue_sym(g, cd, lv, &v, guard, state)?;
                }
            }
        }
    }
    Ok(())
}

/// One pending commit of the clock-edge phase.
enum Commit<'a> {
    /// A blocking-write diff: committed when the value actually changed
    /// (the symbolic form of the executor's pre-edge vs post-block
    /// comparison).
    Whole {
        sig: usize,
        val: SymVec,
        changed: NLit,
    },
    /// A deferred nonblocking write through a compiled lvalue.
    Lv {
        lv: &'a CLValue,
        guard: NLit,
        val: SymVec,
    },
}

/// Executes every clocked block against the pre-edge state and commits
/// updates atomically, mirroring the lane executor's clock edge.
///
/// `live` masks clocked blocks exactly like [`settle_sym`]'s comb mask.
///
/// # Errors
///
/// [`BlastError`] when a statement cannot be lowered.
pub fn clock_edge_sym(
    g: &mut Aig,
    cd: &CompiledDesign,
    state: &mut SymState,
    live: Option<&[bool]>,
) -> Result<(), BlastError> {
    let pre = state.clone();
    let mut commits: Vec<Commit<'_>> = Vec::new();
    for (bi, block) in cd.seq_blocks().iter().enumerate() {
        if live.is_some_and(|m| !m[bi]) {
            continue;
        }
        let mut scratch = pre.clone();
        let mut nba = Vec::new();
        exec_stmt_sym(g, cd, block, NLit::TRUE, &mut scratch, &mut nba)?;
        for (i, v) in scratch.vals.iter().enumerate() {
            if *v != pre.vals[i] {
                let eq = v.eq_bits(g, &pre.vals[i]);
                commits.push(Commit::Whole {
                    sig: i,
                    val: v.clone(),
                    changed: !eq,
                });
            }
        }
        commits.extend(
            nba.into_iter()
                .map(|(lv, guard, val)| Commit::Lv { lv, guard, val }),
        );
    }
    for c in commits {
        match c {
            Commit::Whole { sig, val, changed } => {
                let cur = state.vals[sig].clone();
                state.vals[sig] = SymVec::mux(g, changed, &val, &cur);
            }
            Commit::Lv { lv, guard, val } => write_lvalue_sym(g, cd, lv, &val, guard, state)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::Simulator;
    use std::sync::Arc;

    /// Concrete cofactor of the symbolic state under an input assignment
    /// (inputs valued in AIG allocation order).
    fn eval_state(g: &Aig, state: &SymState, inputs: &[bool]) -> Vec<Value> {
        use crate::aig::Node;
        let mut val = vec![false; g.len()];
        let mut next = 0usize;
        for idx in 0..g.len() {
            val[idx] = match g.node(idx as u32) {
                Node::Const => false,
                Node::Input => {
                    let v = inputs.get(next).copied().unwrap_or(false);
                    next += 1;
                    v
                }
                Node::And(a, b) => {
                    (val[a.node() as usize] ^ a.is_inverted())
                        && (val[b.node() as usize] ^ b.is_inverted())
                }
            };
        }
        state
            .vals
            .iter()
            .map(|sv| {
                let mut bits = 0u64;
                for (i, l) in sv.lits().iter().enumerate() {
                    if val[l.node() as usize] ^ l.is_inverted() {
                        bits |= 1 << i;
                    }
                }
                Value::new(bits, sv.width())
            })
            .collect()
    }

    /// Symbolically steps a design with one symbolic input bit per tick
    /// and checks every cofactor against the concrete simulator.
    fn assert_symbolic_step_matches(src: &str, input: &str, ticks: usize) {
        let design = asv_verilog::compile(src).expect("compile");
        let cd = Arc::new(asv_sim::CompiledDesign::compile(&design));
        assert!(cd.is_levelized(), "test design must levelize");
        let sig = cd.sig(input).expect("input signal");
        let w = cd.width(sig);

        let mut g = Aig::new();
        let mut state = SymState::init(&cd);
        let mut frames = Vec::new();
        for _ in 0..ticks {
            let bits: Vec<NLit> = (0..w).map(|_| g.input()).collect();
            state.vals[sig.idx()] = SymVec::new(bits);
            settle_sym(&mut g, &cd, &mut state, None).expect("settle");
            frames.push(state.clone());
            clock_edge_sym(&mut g, &cd, &mut state, None).expect("edge");
            settle_sym(&mut g, &cd, &mut state, None).expect("settle");
        }

        // Enumerate all concrete input sequences and compare sampled rows.
        let total_bits = w as usize * ticks;
        assert!(total_bits <= 12, "keep the cofactor enumeration small");
        for asg in 0u64..(1 << total_bits) {
            let inputs: Vec<bool> = (0..total_bits).map(|i| asg >> i & 1 == 1).collect();
            let mut sim = Simulator::from_compiled(Arc::clone(&cd));
            for t in 0..ticks {
                let mut v = 0u64;
                for i in 0..w as usize {
                    if inputs[t * w as usize + i] {
                        v |= 1 << i;
                    }
                }
                sim.step(&[(input, v)]).expect("step");
            }
            let trace = sim.into_trace();
            for (t, frame) in frames.iter().enumerate() {
                let row = eval_state(&g, frame, &inputs);
                for (col, name) in cd.names().iter().enumerate() {
                    assert_eq!(
                        row[col],
                        trace.value(t, name).expect("trace value"),
                        "signal {name} tick {t} under assignment {asg:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn counter_unrolls_bit_identically() {
        assert_symbolic_step_matches(
            "module c(input clk, input en, output reg [3:0] q);\n\
             always @(posedge clk) begin if (en) q <= q + 4'd1; end\n\
             endmodule",
            "en",
            4,
        );
    }

    #[test]
    fn mux_case_block_unrolls_bit_identically() {
        assert_symbolic_step_matches(
            "module m(input clk, input [1:0] s, output reg [2:0] y);\n\
             always @(posedge clk) begin\n\
               case (s) 2'd0: y <= 3'd1; 2'd1: y <= y + 3'd2; default: y <= 3'd0; endcase\n\
             end\nendmodule",
            "s",
            3,
        );
    }

    #[test]
    fn blocking_and_nonblocking_mix_matches() {
        assert_symbolic_step_matches(
            "module b(input clk, input d, output reg [1:0] q);\n\
             reg t;\n\
             always @(posedge clk) begin\n\
               t = d & ~q[0];\n\
               q <= {q[0], t};\n\
             end\nendmodule",
            "d",
            4,
        );
    }

    #[test]
    fn shift_and_compare_datapath_matches() {
        assert_symbolic_step_matches(
            "module s(input clk, input [2:0] a, output reg [2:0] acc, output hi);\n\
             assign hi = acc > 3'd4;\n\
             always @(posedge clk) begin\n\
               acc <= (acc << 1) ^ a;\n\
             end\nendmodule",
            "a",
            3,
        );
    }
}
