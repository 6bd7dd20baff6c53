//! The symbolic bounded model checker.
//!
//! [`check`] unrolls a [`CompiledDesign`] over time frames (reset protocol
//! and free-input symbolics exactly as [`asv_sim::StimulusGen`] drives the
//! concrete simulator), compiles every SVA directive into the same frame
//! logic — including `$past`/`$rose`/`$fell`/`$stable` history
//! sub-programs evaluated at shifted frames — and asks the embedded CDCL
//! solver, depth by depth, whether any input sequence makes any assertion
//! attempt fail. Depth *k+1* reuses the solver state (and thus all learned
//! clauses) of depth *k*; the first satisfiable depth yields a
//! minimal-depth counterexample, decoded back into a concrete
//! [`Stimulus`]. It reuses the AIG too: each property program is blasted
//! once per tick, and an attempt whose window has closed is built once
//! and read at every later depth.
//!
//! Each implication attempt's consequent is cofactored by its antecedent
//! ([`Aig::cofactor`]): the attempt fails only where the antecedent
//! matches, so the consequent is rebuilt with the antecedent's nodes fixed
//! true. A register loaded through `if (c) r <= f; else r <= g;` and
//! checked by `c |-> ##1 r == f` then folds to true in the AIG, instead
//! of leaving the solver to case-split on `c` bit by bit. The rebuilt
//! literals are the same Boolean functions wherever the antecedent
//! matches, so verdicts, vacuity and witnesses do not change.
//!
//! When every depth up to the bound is unsatisfiable the result is a
//! bounded *proof*: `Holds` with per-assertion vacuity decided by a second
//! round of queries (an assertion is vacuous iff *no* input sequence
//! completes a non-vacuous attempt — strictly stronger than the observed
//! notion the fuzzer reports).

use crate::aig::{Aig, NLit, Node};
use crate::blast::{run_sym, BlastError, SymEnv, SymVec};
use crate::solver::{Lit, SolveResult, Solver, Var};
use crate::unroll::{clock_edge_sym, settle_sym, SymState};
use asv_sim::cancel::{Exhausted, Resource};
use asv_sim::compile::{compile_expr, CompiledDesign, ExprProg, HistoryKind, NameRef, SigId};
use asv_sim::stimulus::{InputVector, Stimulus};
use asv_sim::value::Value;
use asv_trace::{probe, Cost, SpanKind, TraceHandle, TraceSink};
use asv_verilog::ast::{AssertTarget, Expr, Module, PropExpr, PropertyDecl, SeqExpr};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Bounds and budgets of a symbolic check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmcOptions {
    /// Post-reset cycles (matches `Verifier::depth`).
    pub depth: usize,
    /// Reset cycles at the head of every run.
    pub reset_cycles: usize,
    /// Conflict budget per SAT call (`None` = unbounded).
    pub conflict_budget: Option<u64>,
    /// Cap on AIG nodes before the engine gives up.
    pub node_limit: usize,
}

impl Default for BmcOptions {
    fn default() -> Self {
        BmcOptions {
            depth: 12,
            reset_cycles: 2,
            conflict_budget: Some(1 << 20),
            node_limit: 4_000_000,
        }
    }
}

/// Per-probe conflict budget during witness canonicalisation: bit-fixing
/// probes after the main solve are near-pure propagation, so a small cap
/// bounds the worst case without ever costing a verdict (a probe that
/// runs out ends canonicalisation with the last satisfying model, which
/// is still a counterexample).
const MINIMIZE_CONFLICT_BUDGET: u64 = 50_000;

/// Result of a symbolic check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcVerdict {
    /// Some input sequence violates an assertion; `stimulus` is a
    /// minimal-depth witness (replay it on the simulator for logs).
    Fails {
        /// The violating input sequence.
        stimulus: Stimulus,
    },
    /// No input sequence up to the bound violates any assertion.
    Holds {
        /// Assertions that cannot fire non-vacuously on any input
        /// sequence of the bounded length (directive order).
        vacuous: Vec<String>,
    },
}

/// Why a symbolic check could not produce a verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcError {
    /// The design or its properties fall outside the encodable subset;
    /// callers fall back to enumeration or the fuzzer.
    Unsupported(String),
    /// A resource cap (conflicts, AIG nodes) was hit; the structured
    /// record says which and by how much.
    Exhausted(Exhausted),
}

impl fmt::Display for BmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcError::Unsupported(m) => write!(f, "symbolic engine unsupported: {m}"),
            BmcError::Exhausted(e) => write!(f, "symbolic engine {e}"),
        }
    }
}

impl From<Exhausted> for BmcError {
    fn from(e: Exhausted) -> Self {
        BmcError::Exhausted(e)
    }
}

impl std::error::Error for BmcError {}

impl From<BlastError> for BmcError {
    fn from(e: BlastError) -> Self {
        BmcError::Unsupported(e.0)
    }
}

// ---------------------------------------------------------------------------
// Property compilation
// ---------------------------------------------------------------------------

/// A property program with its id: [`compile_props`] numbers the
/// programs of a directive set (sequence atoms and disable guards)
/// densely from 0, so the engine can keep one blasted literal per
/// `(tick, id)`.
#[derive(Debug)]
struct Prog {
    id: usize,
    code: ExprProg,
}

/// One boolean of a linear sequence, evaluated `tick_off` ticks after the
/// attempt start.
#[derive(Debug)]
struct Atom {
    tick_off: u32,
    prog: Prog,
}

/// A flattened linear sequence: atoms in evaluation order plus the end
/// offset (`SeqExpr::duration`).
#[derive(Debug)]
struct SeqProg {
    atoms: Vec<Atom>,
    end_off: u32,
}

#[derive(Debug)]
enum PropBody {
    Seq(SeqProg),
    Implication {
        antecedent: SeqProg,
        overlapping: bool,
        consequent: SeqProg,
    },
}

/// A directive compiled against the design's signal interning.
#[derive(Debug)]
struct PropSym {
    /// `AssertDirective::log_name`.
    name: String,
    disable: Option<Prog>,
    body: PropBody,
    /// Ticks beyond the start the attempt may observe
    /// ([`PropExpr::window`]).
    window: u32,
}

impl PropSym {
    /// Programs this directive holds: its sequence atoms and its disable
    /// guard.
    fn prog_count(&self) -> usize {
        let atoms = match &self.body {
            PropBody::Seq(sp) => sp.atoms.len(),
            PropBody::Implication {
                antecedent,
                consequent,
                ..
            } => antecedent.atoms.len() + consequent.atoms.len(),
        };
        atoms + usize::from(self.disable.is_some())
    }
}

fn flatten_seq(
    seq: &SeqExpr,
    off: u32,
    compile: &mut impl FnMut(&Expr) -> Prog,
    out: &mut Vec<Atom>,
) -> u32 {
    match seq {
        SeqExpr::Expr(e) => {
            out.push(Atom {
                tick_off: off,
                prog: compile(e),
            });
            off
        }
        SeqExpr::Delay {
            lhs, cycles, rhs, ..
        } => {
            let end_l = flatten_seq(lhs, off, compile, out);
            flatten_seq(rhs, end_l + cycles, compile, out)
        }
    }
}

fn compile_seq(seq: &SeqExpr, compile: &mut impl FnMut(&Expr) -> Prog) -> SeqProg {
    let mut atoms = Vec::new();
    let end_off = flatten_seq(seq, 0, compile, &mut atoms);
    SeqProg { atoms, end_off }
}

fn resolve_property(module: &Module, dir_idx: usize) -> Option<&PropertyDecl> {
    let dir = module.assertions().nth(dir_idx)?;
    match &dir.target {
        AssertTarget::Named(n) => module.properties().find(|p| &p.name == n),
        AssertTarget::Inline(p) => Some(p),
    }
}

fn compile_props(cd: &CompiledDesign) -> Result<Vec<PropSym>, BmcError> {
    let module = &cd.design().module;
    let resolve = |name: &str| match cd.sig(name) {
        Some(sig) => NameRef::Sig(sig),
        None => NameRef::Unknown,
    };
    let mut next_id = 0;
    let mut compile = |e: &Expr| {
        next_id += 1;
        Prog {
            id: next_id - 1,
            code: compile_expr(e, &resolve, true),
        }
    };
    let mut props = Vec::new();
    for (i, dir) in module.assertions().enumerate() {
        let Some(prop) = resolve_property(module, i) else {
            return Err(BmcError::Unsupported(format!(
                "directive `{}` references an unknown property",
                dir.log_name()
            )));
        };
        let window = prop.body.window();
        let body = match &prop.body {
            PropExpr::Seq(s) => PropBody::Seq(compile_seq(s, &mut compile)),
            PropExpr::Implication {
                antecedent,
                overlapping,
                consequent,
                ..
            } => PropBody::Implication {
                antecedent: compile_seq(antecedent, &mut compile),
                overlapping: *overlapping,
                consequent: compile_seq(consequent, &mut compile),
            },
        };
        props.push(PropSym {
            name: dir.log_name().to_string(),
            disable: prop.disable.as_ref().map(&mut compile),
            body,
            window,
        });
    }
    Ok(props)
}

// ---------------------------------------------------------------------------
// Trace environment
// ---------------------------------------------------------------------------

/// Environment evaluating property programs over sampled symbolic rows,
/// the symbolic twin of the monitor's `TraceExecEnv`.
struct TraceSymEnv<'a> {
    rows: &'a [SymState],
    t: usize,
}

impl SymEnv for TraceSymEnv<'_> {
    fn load(&self, sig: SigId) -> SymVec {
        self.rows[self.t].vals[sig.idx()].clone()
    }

    fn history(
        &self,
        g: &mut Aig,
        kind: HistoryKind,
        arg: &ExprProg,
        n: usize,
    ) -> Result<SymVec, BlastError> {
        let at = |t: usize| TraceSymEnv { rows: self.rows, t };
        match kind {
            HistoryKind::Past => run_sym(g, arg, &at(self.t.saturating_sub(n))),
            HistoryKind::Rose | HistoryKind::Fell | HistoryKind::Stable => {
                let now = run_sym(g, arg, self)?;
                let before = if self.t == 0 {
                    match kind {
                        HistoryKind::Stable => now.clone(),
                        _ => SymVec::zeros(now.width()),
                    }
                } else {
                    run_sym(g, arg, &at(self.t - 1))?
                };
                let bit = match kind {
                    HistoryKind::Rose => g.and(now.get(0), !before.get(0)),
                    HistoryKind::Fell => g.and(!now.get(0), before.get(0)),
                    HistoryKind::Stable => {
                        // `Value` equality compares width and bits.
                        if now.width() == before.width() {
                            now.eq_bits(g, &before)
                        } else {
                            NLit::FALSE
                        }
                    }
                    HistoryKind::Past => unreachable!(),
                };
                Ok(SymVec::new(vec![bit]))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// CNF encoding
// ---------------------------------------------------------------------------

/// Incremental Tseitin encoder: AIG nodes map to solver variables once and
/// stay valid across depths.
#[derive(Default)]
struct Encoder {
    var_of: Vec<Option<Var>>,
}

impl Encoder {
    fn var(&mut self, g: &Aig, s: &mut Solver, node: u32) -> Var {
        if self.var_of.len() < g.len() {
            self.var_of.resize(g.len(), None);
        }
        if let Some(v) = self.var_of[node as usize] {
            return v;
        }
        // Iterative post-order over the unencoded cone.
        let mut stack = vec![node];
        while let Some(&n) = stack.last() {
            if self.var_of[n as usize].is_some() {
                stack.pop();
                continue;
            }
            match g.node(n) {
                Node::Const => {
                    // Constants are folded away during construction; a
                    // constant root is handled by callers. Encode it as a
                    // frozen-false variable for completeness.
                    let v = s.new_var();
                    s.add_clause(&[Lit::neg(v)]);
                    self.var_of[n as usize] = Some(v);
                    stack.pop();
                }
                Node::Input => {
                    self.var_of[n as usize] = Some(s.new_var());
                    stack.pop();
                }
                Node::And(a, b) => {
                    let (na, nb) = (a.node() as usize, b.node() as usize);
                    if self.var_of[na].is_none() {
                        stack.push(a.node());
                        continue;
                    }
                    if self.var_of[nb].is_none() {
                        stack.push(b.node());
                        continue;
                    }
                    let la = Lit::new(self.var_of[na].expect("encoded"), a.is_inverted());
                    let lb = Lit::new(self.var_of[nb].expect("encoded"), b.is_inverted());
                    let v = s.new_var();
                    // v <-> la & lb
                    s.add_clause(&[Lit::neg(v), la]);
                    s.add_clause(&[Lit::neg(v), lb]);
                    s.add_clause(&[Lit::pos(v), !la, !lb]);
                    self.var_of[n as usize] = Some(v);
                    stack.pop();
                }
            }
        }
        self.var_of[node as usize].expect("just encoded")
    }

    fn lit(&mut self, g: &Aig, s: &mut Solver, l: NLit) -> Lit {
        let v = self.var(g, s, l.node());
        Lit::new(v, l.is_inverted())
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

struct Engine<'a> {
    cd: &'a CompiledDesign,
    /// The directives under check, as [`compile_props`] returned them.
    props: &'a [PropSym],
    /// Programs numbered across `props` (ids are `0..n_progs`).
    n_progs: usize,
    opts: BmcOptions,
    trace: TraceHandle,
    g: Aig,
    solver: Solver,
    enc: Encoder,
    /// Free inputs (name, width), in `StimulusGen` order.
    free_inputs: Vec<(String, u32)>,
    reset: Option<(String, bool)>,
    state: SymState,
    rows: Vec<SymState>,
    /// Per frame, the symbolic free inputs in `free_inputs` order.
    frame_inputs: Vec<Vec<SymVec>>,
    /// Dead-logic elimination masks for the unrolling: `(comb, seq)`
    /// liveness from `CompiledDesign::sym_live` (None = blast everything,
    /// as `OptLevel::None` designs do).
    live: Option<(Vec<bool>, Vec<bool>)>,
    /// Truthiness of program `id` at tick `t`, at `t * n_progs + id` once
    /// blasted. A pushed row never changes, so re-blasting a program at a
    /// tick would rebuild the same gates, which structural hashing turns
    /// into this same literal: each program blasts once per tick.
    blasted: Vec<Option<NLit>>,
}

impl<'a> Engine<'a> {
    fn new(
        cd: &'a CompiledDesign,
        props: &'a [PropSym],
        opts: BmcOptions,
        trace: &TraceHandle,
        live: Option<(Vec<bool>, Vec<bool>)>,
    ) -> Result<Self, BmcError> {
        if !cd.is_levelized() {
            return Err(BmcError::Unsupported(
                "combinational logic is not levelizable (cyclic, latch-style, \
                 or dynamically indexed)"
                    .into(),
            ));
        }
        let design = cd.design();
        if design.module.assertions().count() == 0 {
            return Err(BmcError::Unsupported("design has no assertions".into()));
        }
        let gen = asv_sim::StimulusGen::new(design);
        let free_inputs = gen.free_inputs().to_vec();
        let reset = design.reset().map(|(n, al)| (n.to_string(), al));
        let mut solver = Solver::new();
        solver.conflict_budget = opts.conflict_budget;
        let n_progs = props.iter().map(PropSym::prog_count).sum();
        Ok(Engine {
            cd,
            props,
            n_progs,
            opts,
            trace: trace.clone(),
            g: Aig::new(),
            solver,
            enc: Encoder::default(),
            free_inputs,
            reset,
            state: SymState::init(cd),
            rows: Vec::new(),
            frame_inputs: Vec::new(),
            live,
            blasted: Vec::new(),
        })
    }

    /// The structured error for a solve that reported
    /// [`SolveResult::Unknown`] (conflict budget spent). The budget holds
    /// per solve call, so `spent` counts the conflicts of that call alone:
    /// those since `conflicts_before`, the solver's total when it began.
    fn conflicts_exhausted(&self, conflicts_before: u64) -> BmcError {
        BmcError::Exhausted(Exhausted {
            resource: Resource::SatConflicts,
            spent: self.solver.conflicts - conflicts_before,
            limit: self.opts.conflict_budget.unwrap_or(u64::MAX),
        })
    }

    /// Unrolls one more frame: drive inputs, settle, sample, clock, settle
    /// — the exact shape of `Simulator::step`.
    fn push_frame(&mut self) -> Result<(), BmcError> {
        let t = self.rows.len();
        let in_reset = t < self.opts.reset_cycles;
        if let Some((rname, active_low)) = &self.reset {
            let asserted = u64::from(!*active_low);
            let deasserted = 1 - asserted;
            let sig = self.cd.sig(rname).expect("reset is a known signal");
            let v = if in_reset { asserted } else { deasserted };
            self.state.vals[sig.idx()] = SymVec::from_value(Value::new(v, self.cd.width(sig)));
        }
        let mut frame = Vec::with_capacity(self.free_inputs.len());
        for (name, _) in &self.free_inputs {
            let sig = self.cd.sig(name).expect("input is a known signal");
            let w = self.cd.width(sig);
            let sv = if in_reset {
                SymVec::zeros(w)
            } else {
                SymVec::new((0..w).map(|_| self.g.input()).collect())
            };
            self.state.vals[sig.idx()] = sv.clone();
            frame.push(sv);
        }
        self.frame_inputs.push(frame);
        let comb_live = self.live.as_ref().map(|l| l.0.as_slice());
        let seq_live = self.live.as_ref().map(|l| l.1.as_slice());
        settle_sym(&mut self.g, self.cd, &mut self.state, comb_live)?;
        self.rows.push(self.state.clone());
        self.blasted.resize(self.rows.len() * self.n_progs, None);
        clock_edge_sym(&mut self.g, self.cd, &mut self.state, seq_live)?;
        settle_sym(&mut self.g, self.cd, &mut self.state, comb_live)?;
        if self.g.len() > self.opts.node_limit {
            return Err(BmcError::Exhausted(Exhausted {
                resource: Resource::AigNodes,
                spent: self.g.len() as u64,
                limit: self.opts.node_limit as u64,
            }));
        }
        Ok(())
    }

    /// Truthiness of a property program at tick `t`, blasted on first
    /// request.
    fn eval_at(&mut self, prog: &Prog, t: usize) -> Result<NLit, BmcError> {
        let slot = t * self.n_progs + prog.id;
        if let Some(lit) = self.blasted[slot] {
            return Ok(lit);
        }
        let env = TraceSymEnv {
            rows: &self.rows,
            t,
        };
        let lit = run_sym(&mut self.g, &prog.code, &env)?.is_truthy(&mut self.g);
        self.blasted[slot] = Some(lit);
        Ok(lit)
    }

    /// `(match, no_match)` of a linear sequence starting at `s` over a
    /// trace of length `len` — the symbolic form of the monitor's
    /// `match_seq`, where out-of-range atoms are *pending* and contribute
    /// to neither outcome.
    fn seq_lits(&mut self, sp: &SeqProg, s: usize, len: usize) -> Result<(NLit, NLit), BmcError> {
        let mut prefix = NLit::TRUE;
        let mut no_match = NLit::FALSE;
        for atom in &sp.atoms {
            let t = s + atom.tick_off as usize;
            if t >= len {
                break;
            }
            let e = self.eval_at(&atom.prog, t)?;
            let miss = self.g.and(prefix, !e);
            no_match = self.g.or(no_match, miss);
            prefix = self.g.and(prefix, e);
        }
        let matches = if s + (sp.end_off as usize) < len {
            prefix
        } else {
            NLit::FALSE
        };
        Ok((matches, no_match))
    }

    /// `(fail, pass)` of one attempt of `prop` starting at `s` over a
    /// trace of length `len` — the symbolic form of the monitor's
    /// `attempt`.
    ///
    /// An implication's attempt fails exactly when `enabled ∧ am ∧ cnm`
    /// holds and passes when `enabled ∧ am ∧ cm`, so the consequent's
    /// `(cm, cnm)` only matter where `enabled` and the antecedent match
    /// `am` are true. They are rebuilt under those two facts
    /// ([`Aig::cofactor`]) before the conjunctions are formed. The
    /// rebuilt literals differ from the old ones only where a fact is
    /// false, so `fail` and `pass` keep their Boolean functions, and with
    /// them every depth's satisfiability, the vacuity answers and the
    /// canonical witness, which depends only on the set of violating
    /// input sequences. What changes is the CNF: a next-state bit
    /// `ite(c, f, g)` whose select `c` the antecedent fixes becomes `f`,
    /// an equality `f == f` folds to true, and the solver no longer
    /// case-splits on what the antecedent already decides.
    fn attempt_lits(
        &mut self,
        prop: &PropSym,
        s: usize,
        len: usize,
    ) -> Result<(NLit, NLit), BmcError> {
        let disabled = match &prop.disable {
            Some(dis) => {
                let end = (s + prop.window as usize).min(len.saturating_sub(1));
                let mut acc = NLit::FALSE;
                for t in s..=end {
                    let d = self.eval_at(dis, t)?;
                    acc = self.g.or(acc, d);
                }
                acc
            }
            None => NLit::FALSE,
        };
        let enabled = !disabled;
        let (fail, pass) = match &prop.body {
            PropBody::Seq(sp) => {
                let (m, nm) = self.seq_lits(sp, s, len)?;
                (nm, m)
            }
            PropBody::Implication {
                antecedent,
                overlapping,
                consequent,
            } => {
                let (am, _) = self.seq_lits(antecedent, s, len)?;
                if am == NLit::FALSE {
                    // Antecedent pending or refuted on every path:
                    // the attempt is vacuous.
                    (NLit::FALSE, NLit::FALSE)
                } else {
                    let cstart = s + antecedent.end_off as usize + usize::from(!overlapping);
                    let (cm, cnm) = self.seq_lits(consequent, cstart, len)?;
                    let [cm, cnm] = self.g.cofactor([cm, cnm], &[am, enabled]);
                    (self.g.and(am, cnm), self.g.and(am, cm))
                }
            }
        };
        Ok((self.g.and(enabled, fail), self.g.and(enabled, pass)))
    }

    /// Canonicalises the current SAT model into the *lexicographically
    /// smallest* violating input assignment: every free input bit, in
    /// `(frame, input, bit)` order, is fixed to 0 when the instance stays
    /// satisfiable under the bits fixed before it, else to 1. The result
    /// depends only on the set of violating input sequences — not on the
    /// CNF's shape, variable numbering or VSIDS history — so the witness
    /// is identical across opt levels and engine revisions, and the
    /// differential suites can compare counterexamples bit-for-bit.
    ///
    /// Only a bit that the last satisfying model sets to 1 costs a solver
    /// call. That model satisfies every bit fixed so far, so a bit it sets
    /// to 0 is fixed to 0 without asking. After a satisfiable probe the
    /// probe's model becomes the last model; after an unsatisfiable one
    /// the bit is fixed to 1, as the last model already has it. The last
    /// model is thus the witness, and needs no final solve.
    ///
    /// Probes run under their own small conflict budget
    /// ([`MINIMIZE_CONFLICT_BUDGET`]): after the main solve, fixing bits
    /// is almost always pure propagation, so a genuinely hard probe means
    /// canonicalisation is not worth its cost. A probe that runs out of
    /// budget ends canonicalisation with the last model, which
    /// still satisfies every bit fixed so far — the raw model when no
    /// probe was satisfiable — so abandoning never loses the
    /// counterexample.
    ///
    /// Returns the witness's value of each free input, `words[t][k]`
    /// (zero in reset frames).
    fn minimize_witness(&mut self, fail: Lit, len: usize) -> Vec<Vec<u64>> {
        let saved = self.solver.conflict_budget;
        self.solver.conflict_budget = Some(saved.map_or(MINIMIZE_CONFLICT_BUDGET, |b| {
            b.min(MINIMIZE_CONFLICT_BUDGET)
        }));
        // Every free input bit as `(frame, input, bit, solver literal)`;
        // reset-frame constants are not free.
        let mut bits = Vec::new();
        for t in 0..len {
            for k in 0..self.free_inputs.len() {
                for (i, &l) in self.frame_inputs[t][k].lits().iter().enumerate() {
                    if l.as_const().is_none() {
                        bits.push((t, k, i, self.enc.lit(&self.g, &mut self.solver, l)));
                    }
                }
            }
        }
        // A variable the last solve never saw (an input outside the fail
        // cone) reads as 0, which satisfies every clause: it has none.
        let value = |s: &Solver, l: Lit| s.model_value(l.var()) != l.is_neg();
        let mut model: Vec<bool> = bits.iter().map(|b| value(&self.solver, b.3)).collect();
        let mut assumps = vec![fail];
        for j in 0..bits.len() {
            let sl = bits[j].3;
            assumps.push(!sl);
            if !model[j] {
                continue;
            }
            match self.solver.solve(&assumps) {
                SolveResult::Sat => {
                    for (m, b) in model[j..].iter_mut().zip(&bits[j..]) {
                        *m = value(&self.solver, b.3);
                    }
                }
                SolveResult::Unsat => *assumps.last_mut().expect("just pushed") = sl,
                SolveResult::Unknown => break,
            }
        }
        self.solver.conflict_budget = saved;
        let mut words = vec![vec![0u64; self.free_inputs.len()]; len];
        for (&(t, k, i, _), &one) in bits.iter().zip(&model) {
            words[t][k] |= u64::from(one) << i;
        }
        words
    }

    /// Builds a stimulus of length `len` from each free input's value
    /// `word(t, k)`, shaped exactly like `StimulusGen` output so replays
    /// drive the simulator identically (reset frames drive zeros).
    fn extract_stimulus(&self, len: usize, word: impl Fn(usize, usize) -> u64) -> Stimulus {
        let mut vectors = Vec::with_capacity(len);
        for t in 0..len {
            let in_reset = t < self.opts.reset_cycles;
            let mut vec: InputVector = Vec::with_capacity(self.free_inputs.len() + 1);
            if let Some((r, active_low)) = &self.reset {
                let asserted = u64::from(!*active_low);
                vec.push((r.clone(), if in_reset { asserted } else { 1 - asserted }));
            }
            for (k, (name, _)) in self.free_inputs.iter().enumerate() {
                vec.push((name.clone(), if in_reset { 0 } else { word(t, k) }));
            }
            vectors.push(vec);
        }
        Stimulus {
            vectors,
            reset_cycles: self.opts.reset_cycles,
        }
    }

    fn run(&mut self) -> Result<BmcVerdict, BmcError> {
        let props = self.props;
        let max_len = self.opts.reset_cycles + self.opts.depth;
        if max_len == 0 {
            return Ok(BmcVerdict::Holds {
                vacuous: props.iter().map(|p| p.name.clone()).collect(),
            });
        }
        let trace = self.trace.clone();
        // `attempts[p][s]`: `(fail, pass)` of directive `p`'s attempt from
        // tick `s` at the latest depth. Once `s + window < len` the attempt
        // has seen every tick it can observe and its literals are final:
        // the first `closed[p]` entries are reused at every later depth
        // and in the vacuity phase. A rebuild would return the same
        // literals through structural hashing and add no node, so the
        // AIG (and the CNF encoded from it) is what rebuilding gives.
        let mut attempts: Vec<Vec<(NLit, NLit)>> = vec![Vec::new(); props.len()];
        let mut closed = vec![0usize; props.len()];
        for len in 1..=max_len {
            let mut blast = trace.span(probe::SAT_BLAST, SpanKind::AigBlast);
            blast.set_code(len as u64);
            let nodes_before = self.g.len();
            self.push_frame()?;
            let mut fail = NLit::FALSE;
            for (p, prop) in props.iter().enumerate() {
                let reused = closed[p];
                attempts[p].truncate(reused);
                for s in 0..len {
                    let f = if s < reused {
                        attempts[p][s].0
                    } else {
                        let lits = self.attempt_lits(prop, s, len)?;
                        attempts[p].push(lits);
                        if s + (prop.window as usize) < len {
                            closed[p] = s + 1;
                        }
                        lits.0
                    };
                    fail = self.g.or(fail, f);
                }
            }
            blast.add_cost(Cost {
                aig_nodes: (self.g.len() - nodes_before) as u64,
                ..Cost::default()
            });
            drop(blast);
            match fail.as_const() {
                Some(false) => continue,
                Some(true) => {
                    // Every input sequence fails; the all-zero one will do.
                    return Ok(BmcVerdict::Fails {
                        stimulus: self.extract_stimulus(len, |_, _| 0),
                    });
                }
                None => {
                    let q = self.enc.lit(&self.g, &mut self.solver, fail);
                    let mut solve = trace.span(probe::SAT_SOLVE, SpanKind::SatSolve);
                    solve.set_code(len as u64);
                    let conflicts_before = self.solver.conflicts;
                    let decisions_before = self.solver.decisions;
                    let propagations_before = self.solver.propagations;
                    let res = self.solver.solve(&[q]);
                    solve.add_cost(Cost {
                        conflicts: self.solver.conflicts - conflicts_before,
                        decisions: self.solver.decisions - decisions_before,
                        propagations: self.solver.propagations - propagations_before,
                        ..Cost::default()
                    });
                    drop(solve);
                    match res {
                        SolveResult::Sat => {
                            let words = self.minimize_witness(q, len);
                            return Ok(BmcVerdict::Fails {
                                stimulus: self.extract_stimulus(len, |t, k| words[t][k]),
                            });
                        }
                        SolveResult::Unsat => continue,
                        SolveResult::Unknown => {
                            return Err(self.conflicts_exhausted(conflicts_before))
                        }
                    }
                }
            }
        }
        // Bounded proof; decide vacuity per assertion name, mirroring the
        // oracle's `fired` bookkeeping (a name counts as fired when any
        // directive bearing it can complete a non-vacuous attempt).
        // The last depth had `len == max_len`, so `attempts` holds every
        // start's literals at exactly this length.
        let mut pass_by_name: BTreeMap<&str, NLit> = BTreeMap::new();
        for (prop, lits) in props.iter().zip(&attempts) {
            let mut pass = NLit::FALSE;
            for &(_, pl) in lits {
                pass = self.g.or(pass, pl);
            }
            let entry = pass_by_name.entry(&prop.name).or_insert(NLit::FALSE);
            *entry = self.g.or(*entry, pass);
        }
        let mut fired: BTreeSet<&str> = BTreeSet::new();
        for (name, lit) in &pass_by_name {
            let can_fire = match lit.as_const() {
                Some(b) => b,
                None => {
                    let q = self.enc.lit(&self.g, &mut self.solver, *lit);
                    let mut solve = trace.span(probe::SAT_VACUITY, SpanKind::SatSolve);
                    let conflicts_before = self.solver.conflicts;
                    let decisions_before = self.solver.decisions;
                    let propagations_before = self.solver.propagations;
                    let res = self.solver.solve(&[q]);
                    solve.add_cost(Cost {
                        conflicts: self.solver.conflicts - conflicts_before,
                        decisions: self.solver.decisions - decisions_before,
                        propagations: self.solver.propagations - propagations_before,
                        ..Cost::default()
                    });
                    drop(solve);
                    match res {
                        SolveResult::Sat => true,
                        SolveResult::Unsat => false,
                        SolveResult::Unknown => {
                            return Err(self.conflicts_exhausted(conflicts_before))
                        }
                    }
                }
            };
            if can_fire {
                fired.insert(name);
            }
        }
        let vacuous = props
            .iter()
            .map(|p| p.name.clone())
            .filter(|n| !fired.contains(n.as_str()))
            .collect();
        Ok(BmcVerdict::Holds { vacuous })
    }
}

/// Symbolically model-checks every assertion of a compiled design.
///
/// # Errors
///
/// [`BmcError::Unsupported`] when the design falls outside the encodable
/// subset (non-levelizable logic, non-constant division, unsupported
/// system calls); [`BmcError::Exhausted`] when
/// [`BmcOptions::conflict_budget`] or [`BmcOptions::node_limit`] is hit.
/// Both are signals to fall back to the simulation oracle.
pub fn check(cd: &CompiledDesign, opts: BmcOptions) -> Result<BmcVerdict, BmcError> {
    check_traced(cd, opts, &TraceHandle::disabled())
}

/// [`check`] emitting its blast and solve spans through `trace`.
///
/// # Errors
///
/// As [`check`].
pub fn check_traced(
    cd: &CompiledDesign,
    opts: BmcOptions,
    trace: &TraceHandle,
) -> Result<BmcVerdict, BmcError> {
    let props = compile_props(cd)?;
    // Dead-logic elimination: restrict the unrolling to the assertion
    // cone. Gated on the opt level so `OptLevel::None` stays the
    // untouched reference unrolling; steps that might not bit-blast are
    // pinned live inside `sym_live`, so the accept/reject decision is
    // identical either way.
    let live =
        (cd.opt_level() == asv_sim::OptLevel::Full).then(|| cd.sym_live(&prop_roots(&props)));
    Engine::new(cd, &props, opts, trace, live)?.run()
}

/// Observability roots of the properties: every signal any compiled
/// property program (body atoms, disable guards, history sub-programs)
/// reads.
fn prop_roots(props: &[PropSym]) -> Vec<SigId> {
    let mut roots = Vec::new();
    let seq = |sp: &SeqProg, roots: &mut Vec<SigId>| {
        for a in &sp.atoms {
            a.prog.code.collect_sigs(roots);
        }
    };
    for p in props {
        if let Some(d) = &p.disable {
            d.code.collect_sigs(&mut roots);
        }
        match &p.body {
            PropBody::Seq(sp) => seq(sp, &mut roots),
            PropBody::Implication {
                antecedent,
                consequent,
                ..
            } => {
                seq(antecedent, &mut roots);
                seq(consequent, &mut roots);
            }
        }
    }
    roots
}

/// Size metrics of a bounded unrolling (for `table_engines` and the
/// README's before/after table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrollStats {
    /// AIG nodes after unrolling every frame and building the combined
    /// fail cone.
    pub aig_nodes: usize,
}

/// Unrolls the full bound (same schedule, cone restriction and property
/// logic as [`check`]) and builds the combined fail cone — without
/// encoding or solving it. The resulting size quantifies what the IR
/// pipeline saves the SAT engine per design.
///
/// # Errors
///
/// As [`check`], minus anything solver-related.
pub fn unroll_stats(cd: &CompiledDesign, opts: BmcOptions) -> Result<UnrollStats, BmcError> {
    let props = compile_props(cd)?;
    let live =
        (cd.opt_level() == asv_sim::OptLevel::Full).then(|| cd.sym_live(&prop_roots(&props)));
    let mut engine = Engine::new(cd, &props, opts, &TraceHandle::disabled(), live)?;
    let max_len = opts.reset_cycles + opts.depth;
    for _ in 0..max_len {
        engine.push_frame()?;
    }
    let mut fail = NLit::FALSE;
    for prop in &props {
        for s in 0..max_len {
            let (f, _) = engine.attempt_lits(prop, s, max_len)?;
            fail = engine.g.or(fail, f);
        }
    }
    Ok(UnrollStats {
        aig_nodes: engine.g.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::Simulator;
    use std::sync::Arc;

    fn compiled(src: &str) -> Arc<CompiledDesign> {
        let d = asv_verilog::compile(src).expect("compile");
        Arc::new(CompiledDesign::compile(&d))
    }

    const GOOD: &str = r#"
module latch1(input clk, input rst_n, input d, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= d;
  end
  property follow;
    @(posedge clk) disable iff (!rst_n) d |-> ##1 q;
  endproperty
  chk: assert property (follow) else $error("q must follow d");
endmodule
"#;

    #[test]
    fn good_design_holds_non_vacuously() {
        let cd = compiled(GOOD);
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 6,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        assert_eq!(verdict, BmcVerdict::Holds { vacuous: vec![] });
    }

    #[test]
    fn buggy_design_yields_replaying_counterexample() {
        let cd = compiled(&GOOD.replace("q <= d;", "q <= !d;"));
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 6,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        let BmcVerdict::Fails { stimulus } = verdict else {
            panic!("bug must be refuted");
        };
        // The witness must replay to a concrete assertion failure. (The
        // sva monitor cannot be used here — it depends on this crate — so
        // re-check `d |-> ##1 q` by hand: some post-reset tick must show
        // d=1 with q=0 one tick later.)
        let mut sim = Simulator::from_compiled(Arc::clone(&cd));
        for t in 0..stimulus.len() {
            sim.step(&stimulus.cycle(t)).expect("step");
        }
        let trace = sim.into_trace();
        let bit = |t: usize, name: &str| trace.value(t, name).map(|v| v.bits()).unwrap_or(0);
        let violated = (0..trace.len().saturating_sub(1)).any(|t| {
            bit(t, "rst_n") == 1
                && bit(t + 1, "rst_n") == 1
                && bit(t, "d") == 1
                && bit(t + 1, "q") == 0
        });
        assert!(violated, "replay must fail the assertion");
    }

    #[test]
    fn rare_trigger_bug_is_found() {
        // The antecedent fires only for a == 0xA5: random sampling has a
        // 1/256-per-cycle chance; the solver finds it directly.
        let src = r#"
module rare(input clk, input rst_n, input [7:0] a, output reg bad);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) bad <= 1'b0;
    else bad <= (a == 8'hA5);
  end
  p_rare: assert property (@(posedge clk) disable iff (!rst_n)
    a == 8'hA5 |-> ##1 !bad) else $error("rare trigger");
endmodule
"#;
        let cd = compiled(src);
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 8,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        let BmcVerdict::Fails { stimulus } = verdict else {
            panic!("rare-trigger bug must be refuted symbolically");
        };
        // The witness must actually drive a to 0xA5 at some post-reset tick.
        let hit = (0..stimulus.len()).any(|t| {
            stimulus
                .cycle(t)
                .iter()
                .any(|(n, v)| *n == "a" && *v == 0xA5)
        });
        assert!(hit, "witness must contain the rare trigger value");
    }

    #[test]
    fn vacuous_assertion_is_reported() {
        // The antecedent can never hold (a > 15 on a 4-bit input).
        let src = r#"
module vac(input clk, input rst_n, input [3:0] a, output reg q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 1'b0;
    else q <= 1'b1;
  end
  p_vac: assert property (@(posedge clk) disable iff (!rst_n)
    a > 4'd15 |-> ##1 q) else $error("unreachable");
endmodule
"#;
        let cd = compiled(src);
        let verdict = check(
            &cd,
            BmcOptions {
                depth: 6,
                reset_cycles: 2,
                ..BmcOptions::default()
            },
        )
        .expect("symbolic check");
        assert_eq!(
            verdict,
            BmcVerdict::Holds {
                vacuous: vec!["p_vac".to_string()]
            }
        );
    }

    #[test]
    fn non_levelizable_designs_are_unsupported() {
        let src = r#"
module lat(input clk, input en, input d, output reg q);
  always @(*) begin if (en) q = d; end
  p: assert property (@(posedge clk) 1'b1 |-> 1'b1);
endmodule
"#;
        let cd = compiled(src);
        assert!(matches!(
            check(&cd, BmcOptions::default()),
            Err(BmcError::Unsupported(_))
        ));
    }

    #[test]
    fn aig_node_cap_reports_structured_exhaustion() {
        let cd = compiled(GOOD);
        let opts = BmcOptions {
            node_limit: 4,
            ..BmcOptions::default()
        };
        match check(&cd, opts) {
            Err(BmcError::Exhausted(e)) => {
                assert_eq!(e.resource, Resource::AigNodes);
                assert_eq!(e.limit, 4);
                assert!(e.spent > 4);
            }
            other => panic!("expected AIG-node exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn conflict_budget_reports_structured_exhaustion() {
        // Two products of the same 8-bit operands, in swapped order: the
        // multiplier trees blast to different gates, so proving them equal
        // takes real search that four conflicts cannot finish.
        let src = r#"
module mul(input clk, input rst_n, input [7:0] a, input [7:0] b,
           output reg [7:0] p, output reg [7:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin p <= 8'd0; q <= 8'd0; end
    else begin p <= a * b; q <= b * a; end
  end
  eq: assert property (@(posedge clk) 1'b1 |-> ##1 p == q);
endmodule
"#;
        let cd = compiled(src);
        let opts = BmcOptions {
            depth: 8,
            conflict_budget: Some(4),
            ..BmcOptions::default()
        };
        assert_eq!(
            check(&cd, opts),
            Err(BmcError::Exhausted(Exhausted {
                resource: Resource::SatConflicts,
                spent: 4,
                limit: 4,
            }))
        );
    }

    #[test]
    fn conflict_budget_exhaustion_counts_only_the_call_that_ran_out() {
        // At 5 bits the earlier depths' solves finish within the budget,
        // so the solve that runs out starts with conflicts already spent.
        let src = r#"
module mul(input clk, input rst_n, input [4:0] a, input [4:0] b,
           output reg [4:0] p, output reg [4:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin p <= 5'd0; q <= 5'd0; end
    else begin p <= a * b; q <= b * a; end
  end
  eq: assert property (@(posedge clk) 1'b1 |-> ##1 p == q);
endmodule
"#;
        let cd = compiled(src);
        let opts = BmcOptions {
            depth: 8,
            conflict_budget: Some(512),
            ..BmcOptions::default()
        };
        match check(&cd, opts) {
            Err(BmcError::Exhausted(Exhausted {
                resource: Resource::SatConflicts,
                spent,
                limit: 512,
            })) => assert!(spent <= 512, "spent {spent} of a per-call budget of 512"),
            other => panic!("expected conflict exhaustion, got {other:?}"),
        }
    }
}
