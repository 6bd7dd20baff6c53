//! Compile-once/run-many execution backend, lowered through the shared
//! word-level IR (`asv-ir`).
//!
//! [`CompiledDesign::compile`] turns an elaborated [`Design`] into a form
//! the simulator can execute without touching the AST again. Lowering is
//! a three-stage pipeline, split across this module's children:
//!
//! 1. **IR lowering & optimization** — the AST lowers to the hash-consed
//!    word-level IR once; at [`OptLevel::Full`] (the default) the pass
//!    pipeline in `asv_ir::opt` folds constants, simplifies algebra,
//!    strength-reduces and copy-propagates. [`OptLevel::None`] keeps the
//!    raw form alive as the bit-exact differential reference.
//! 2. **Bytecode emission** ([`lower`]) — IR programs become postfix
//!    [`Op`] streams ([`bytecode`]); optimized emission materialises
//!    shared subexpressions into temporaries and fuses superinstructions.
//! 3. **Levelized scheduling** (`levelize`) — combinational steps are
//!    topologically sorted so settling is one ordered pass. The
//!    *levelizability verdict* is always taken on the raw emission, so
//!    optimization can never flip a design between the one-pass and
//!    fixpoint disciplines (or between verification engines).
//!
//! Every backend consumes this one compiled form: the simulator executes
//! it, the `asv-sat` bit-blaster walks the same bytecode symbolically
//! (through [`CompiledDesign::comb_steps`]/[`CompiledDesign::seq_blocks`]
//! with [`CompiledDesign::sym_live`] masking logic outside the assertion
//! cone), and the fuzzer reads branch-site ids and dictionary constants
//! assigned here. Branch sites are allocated at IR lowering — before any
//! pass — so coverage maps are identical at every opt level.

pub mod batch;
pub mod bytecode;
mod levelize;
pub mod lower;

pub use asv_ir::{param_value, OptLevel, SigId};
pub use bytecode::{compile_expr, run, ExecEnv, ExprProg, HistoryKind, NameRef, Op};

use crate::eval::EvalError;
use crate::exec::SimError;
use crate::trace::TraceHeader;
use crate::value::Value;
use asv_ir::IrDesign;
use asv_verilog::sema::Design;
use levelize::{levelize, StepFx};
use std::collections::HashMap;
use std::sync::Arc;

/// Maximum delta iterations of the fallback fixpoint loop (mirrors the
/// AST interpreter).
const MAX_SETTLE_ITERS: usize = 64;

/// A compiled assignment target.
#[derive(Debug, Clone)]
pub enum CLValue {
    /// Whole signal (write masked to declared width).
    Whole(SigId),
    /// Single bit with a (possibly dynamic) index program.
    Bit {
        /// Target signal.
        sig: SigId,
        /// Index program, evaluated at write time.
        index: ExprProg,
    },
    /// Constant part select.
    Part {
        /// Target signal.
        sig: SigId,
        /// Most significant bit.
        msb: u32,
        /// Least significant bit.
        lsb: u32,
    },
    /// Concatenated target, assigned from the high part downward.
    Concat(Vec<CLValue>),
    /// Target that elaboration never resolved; writing raises
    /// [`EvalError::UnknownSignal`] like the interpreter.
    Unknown(String),
}

/// A compiled procedural statement.
#[derive(Debug, Clone)]
pub enum CStmt {
    /// `begin ... end`
    Block(Vec<CStmt>),
    /// `if (cond) ... else ...`
    If {
        /// Condition program.
        cond: ExprProg,
        /// Taken branch.
        then_branch: Box<CStmt>,
        /// Else branch.
        else_branch: Option<Box<CStmt>>,
        /// Branch-site id of the then arm; the (possibly implicit) else
        /// arm is `site + 1`. See [`CompiledDesign::branch_sites`].
        site: u32,
    },
    /// `case (scrutinee) ... endcase`
    Case {
        /// Scrutinee program.
        scrutinee: ExprProg,
        /// Arms in source order.
        arms: Vec<CCaseArm>,
        /// Default arm.
        default: Option<Box<CStmt>>,
        /// Branch-site id of the first arm; arm *i* is `site + i` and the
        /// (possibly implicit) default is `site + arms.len()`.
        site: u32,
    },
    /// Blocking or nonblocking assignment.
    Assign {
        /// Target.
        lhs: CLValue,
        /// Value program.
        rhs: ExprProg,
        /// `<=` if true.
        nonblocking: bool,
    },
    /// `;`
    Empty,
}

/// One compiled case arm.
#[derive(Debug, Clone)]
pub struct CCaseArm {
    /// Label programs.
    pub labels: Vec<ExprProg>,
    /// Arm body.
    pub body: CStmt,
}

/// One combinational process in source order.
///
/// Public so that second consumers of the compiled form (the `asv-sat`
/// bit-blaster walks the same bytecode symbolically) can traverse the
/// schedule without re-lowering the AST.
#[derive(Debug, Clone)]
pub enum CombStep {
    /// Continuous assignment.
    Assign {
        /// Compiled target.
        lhs: CLValue,
        /// Compiled value program.
        rhs: ExprProg,
    },
    /// Combinational always block (nonblocking writes inside commit at
    /// block end — delta-cycle collapse, as in the interpreter).
    Block(CStmt),
}

/// A design lowered for execution. Cheap to share (`Arc`) across many
/// simulator instances; restarting a simulation is an O(#signals) state
/// reset instead of a `Design` clone.
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    design: Design,
    names: Vec<String>,
    index: HashMap<String, SigId>,
    widths: Vec<u32>,
    init: Vec<Value>,
    comb: Vec<CombStep>,
    /// Execution order over `comb` (levelized when `levelized`, identity
    /// declaration order otherwise).
    order: Vec<usize>,
    /// True when a single ordered pass settles combinational logic.
    levelized: bool,
    seq: Vec<CStmt>,
    /// Number of branch sites allocated across all statements.
    branch_sites: u32,
    /// The pipeline this design was lowered with.
    opt: OptLevel,
    /// Constants harvested from the *raw* emission (opt-level-invariant
    /// fuzzer dictionary).
    dict_consts: Vec<u64>,
    /// Per comb step: statically guaranteed to bit-blast (see
    /// [`CompiledDesign::sym_live`]).
    sym_clean_comb: Vec<bool>,
    /// Per clocked block: statically guaranteed to bit-blast.
    sym_clean_seq: Vec<bool>,
    /// Interned trace name table, shared by every trace of this design so
    /// simulator restarts are O(#signals) in state only.
    trace_header: Arc<TraceHeader>,
}

impl CompiledDesign {
    /// Lowers an elaborated design at the default (full) optimization
    /// level. Never fails: unresolvable constructs compile to
    /// instructions that raise the interpreter's runtime error when (and
    /// only when) they execute.
    pub fn compile(design: &Design) -> Self {
        Self::compile_opt(design, OptLevel::default())
    }

    /// [`CompiledDesign::compile`] with an explicit [`OptLevel`].
    /// `OptLevel::None` reproduces the historical direct lowering
    /// byte-for-byte; `OptLevel::Full` runs the IR pass pipeline. Both
    /// forms are observationally identical (traces, errors, coverage,
    /// verdicts) — the `differential_opt` suite is the enforcement.
    pub fn compile_opt(design: &Design, opt: OptLevel) -> Self {
        Self::compile_traced(design, opt, &asv_trace::NoTrace)
    }

    /// [`CompiledDesign::compile_opt`] emitting `sim.compile` /
    /// `sim.opt` spans into `sink`. Monomorphized per sink: with
    /// [`NoTrace`](asv_trace::NoTrace) (the `compile_opt` path) the
    /// instrumentation compiles to nothing, and the produced bytecode is
    /// identical whichever sink is passed — tracing observes lowering,
    /// it never participates in it.
    pub fn compile_traced<S: asv_trace::TraceSink>(
        design: &Design,
        opt: OptLevel,
        sink: &S,
    ) -> Self {
        let _span = sink.span(asv_trace::probe::SIM_COMPILE, asv_trace::SpanKind::Compile);
        crate::cache::count_lowering();
        Self::compile_inner(design, opt, sink)
    }

    fn compile_inner<S: asv_trace::TraceSink>(design: &Design, opt: OptLevel, sink: &S) -> Self {
        let names: Vec<String> = design.signals.keys().cloned().collect();
        let index: HashMap<String, SigId> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), SigId(i as u32)))
            .collect();
        let widths: Vec<u32> = design.signals.values().map(|s| s.width).collect();
        let init: Vec<Value> = widths.iter().map(|&w| Value::zero(w)).collect();

        let ir = IrDesign::from_design(design);
        let branch_sites = ir.branch_sites;
        let (sym_clean_comb, sym_clean_seq) = ir.sym_clean_steps();

        // Raw emission always happens: it supplies the levelizability
        // verdict, the opt-invariant fuzzer dictionary, and (at
        // OptLevel::None) the executable form itself.
        let raw = lower::emit_design(&ir, lower::EmitMode::Raw);
        let (raw_order, raw_lev) = levelize(&raw.comb, names.len());
        let dict_consts = lower::harvest_consts(&raw.comb, &raw.seq);

        let (comb, seq, order, levelized) = match opt {
            OptLevel::None => (raw.comb, raw.seq, raw_order, raw_lev),
            OptLevel::Full => {
                let mut oir = ir;
                {
                    let _opt_span =
                        sink.span(asv_trace::probe::SIM_OPT, asv_trace::SpanKind::OptPass);
                    asv_ir::opt::optimize(&mut oir, raw_lev);
                }
                let ob = lower::emit_design(&oir, lower::EmitMode::Optimized);
                let (o_order, o_lev) = levelize(&ob.comb, names.len());
                // Optimization only removes dependencies, so a
                // raw-levelizable design must stay levelizable; if the
                // optimized schedule were ever rejected, the raw order is
                // still a valid topological order for the (sparser)
                // optimized dependency graph.
                debug_assert!(
                    o_lev || !raw_lev,
                    "optimization must not break levelization"
                );
                let order = if o_lev { o_order } else { raw_order };
                (ob.comb, ob.seq, order, raw_lev)
            }
        };

        let trace_header = Arc::new(TraceHeader::new(names.clone()));
        CompiledDesign {
            design: design.clone(),
            names,
            index,
            widths,
            init,
            comb,
            order,
            levelized,
            seq,
            branch_sites,
            opt,
            dict_consts,
            sym_clean_comb,
            sym_clean_seq,
            trace_header,
        }
    }

    /// The elaborated design this was compiled from.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The optimization level this design was lowered with.
    pub fn opt_level(&self) -> OptLevel {
        self.opt
    }

    /// Interned signal names, in state/trace column order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Looks up the interned id of a signal.
    pub fn sig(&self, name: &str) -> Option<SigId> {
        self.index.get(name).copied()
    }

    /// Declared width of an interned signal.
    pub fn width(&self, sig: SigId) -> u32 {
        self.widths[sig.idx()]
    }

    /// The initial state as a slice (the lane executor replicates it into
    /// every lane).
    pub(crate) fn init_slice(&self) -> &[Value] {
        &self.init
    }

    /// The interned trace name table shared by every trace of this design
    /// (see [`crate::trace::Trace::from_parts`]).
    pub fn trace_header(&self) -> &Arc<TraceHeader> {
        &self.trace_header
    }

    /// True when combinational logic settles in one levelized pass (the
    /// fallback is the declaration-order fixpoint loop). Decided on the
    /// raw lowering, so the answer is identical at every opt level.
    pub fn is_levelized(&self) -> bool {
        self.levelized
    }

    /// The combinational steps in declaration order. Walk them in
    /// [`CompiledDesign::comb_order`] to replay the levelized schedule.
    pub fn comb_steps(&self) -> &[CombStep] {
        &self.comb
    }

    /// Execution order over [`CompiledDesign::comb_steps`] (levelized when
    /// [`CompiledDesign::is_levelized`], declaration order otherwise).
    pub fn comb_order(&self) -> &[usize] {
        &self.order
    }

    /// The clocked `always` bodies in declaration order, as executed on
    /// every clock edge.
    pub fn seq_blocks(&self) -> &[CStmt] {
        &self.seq
    }

    /// Number of branch sites ([`CStmt::If`]/[`CStmt::Case`] arms)
    /// allocated during lowering — the size of a [`crate::cover::CovMap`]'s
    /// branch axis. Allocated on the IR before any pass runs, so the id
    /// space (and every recorded hit) is identical at every opt level.
    pub fn branch_sites(&self) -> u32 {
        self.branch_sites
    }

    /// Every constant appearing in the *raw* bytecode of the design — the
    /// fuzzer's dictionary. Harvested before optimization so fuzzing
    /// campaigns are bit-identical across opt levels.
    pub fn dict_consts(&self) -> &[u64] {
        &self.dict_consts
    }

    /// Total `Op` count across all programs of the compiled form (the
    /// bytecode-length metric of `table_engines` and the README).
    pub fn bytecode_len(&self) -> usize {
        lower::bytecode_len(&self.comb, &self.seq)
    }

    /// Dead-logic elimination for the symbolic path: given observability
    /// roots (the signals the assertions read), returns
    /// `(comb_live, seq_live)` masks of the steps a symbolic unrolling
    /// must execute. A step is live when it (transitively) feeds a root —
    /// or when it is not statically guaranteed to bit-blast, in which
    /// case it is kept so that the symbolic engine's accept/reject
    /// decision cannot differ between opt levels.
    ///
    /// The *simulation* path never uses these masks: every signal is
    /// observable through traces and toggle coverage, so the simulator
    /// executes everything.
    pub fn sym_live(&self, roots: &[SigId]) -> (Vec<bool>, Vec<bool>) {
        let comb_fx: Vec<StepFx> = self.comb.iter().map(StepFx::of_step).collect();
        let seq_fx: Vec<StepFx> = self.seq.iter().map(StepFx::of_stmt).collect();
        let mut live_sig = vec![false; self.names.len()];
        for r in roots {
            live_sig[r.idx()] = true;
        }
        let mut comb_live: Vec<bool> = self.sym_clean_comb.iter().map(|clean| !clean).collect();
        let mut seq_live: Vec<bool> = self.sym_clean_seq.iter().map(|clean| !clean).collect();
        // Defensive: mask lengths track the emitted step lists.
        comb_live.resize(self.comb.len(), true);
        seq_live.resize(self.seq.len(), true);
        let mut done_comb = vec![false; comb_live.len()];
        let mut done_seq = vec![false; seq_live.len()];
        loop {
            let mut changed = false;
            let visit =
                |live: &mut bool, done: &mut bool, fx: &StepFx, live_sig: &mut Vec<bool>| -> bool {
                    if *live && !*done {
                        // Newly live: its reads become observability roots.
                        *done = true;
                        for r in &fx.reads {
                            live_sig[r.idx()] = true;
                        }
                        return true;
                    }
                    if !*live && fx.writes.iter().any(|w| live_sig[w.idx()]) {
                        *live = true;
                        return true;
                    }
                    false
                };
            for (i, fx) in comb_fx.iter().enumerate() {
                changed |= visit(&mut comb_live[i], &mut done_comb[i], fx, &mut live_sig);
            }
            for (i, fx) in seq_fx.iter().enumerate() {
                changed |= visit(&mut seq_live[i], &mut done_seq[i], fx, &mut live_sig);
            }
            if !changed {
                break;
            }
        }
        (comb_live, seq_live)
    }

    /// Writes `value` through `lv` into one lane's `state`, reading
    /// every index and pre-write value from `snapshot` (the store as it
    /// was on entry to the enclosing concat: nested reads observe
    /// pre-write values throughout, like the interpreter). Parts are
    /// assigned from the high end downward.
    fn write_concat_part(
        &self,
        lv: &CLValue,
        value: Value,
        snapshot: &[Value],
        state: &mut Vec<Value>,
        stack: &mut Vec<Value>,
    ) -> Result<(), SimError> {
        match lv {
            CLValue::Whole(sig) => {
                state[sig.idx()] = value.resize(self.widths[sig.idx()]);
                Ok(())
            }
            CLValue::Bit { sig, index } => {
                let i = run(index, &StateEnv { state: snapshot }, stack)?.bits();
                let i = u32::try_from(i).unwrap_or(u32::MAX);
                let cur = snapshot[sig.idx()];
                state[sig.idx()] = cur.set_bit(i, value.is_truthy() && value.get_bit(0));
                Ok(())
            }
            CLValue::Part { sig, msb, lsb } => {
                let cur = snapshot[sig.idx()];
                state[sig.idx()] = cur.set_slice(*msb, *lsb, value);
                Ok(())
            }
            CLValue::Concat(parts) => {
                let total: u32 = parts
                    .iter()
                    .map(|p| self.lvalue_width(p))
                    .sum::<Result<u32, EvalError>>()?;
                let mut consumed = 0u32;
                for p in parts {
                    let w = self.lvalue_width(p)?;
                    let hi = total - consumed - 1;
                    let lo = total - consumed - w;
                    let field = value.resize(total.min(64)).slice(hi.min(63), lo.min(63));
                    self.write_concat_part(p, field, snapshot, state, stack)?;
                    consumed += w;
                }
                Ok(())
            }
            CLValue::Unknown(name) => Err(SimError::Eval(EvalError::UnknownSignal(name.clone()))),
        }
    }

    fn lvalue_width(&self, lv: &CLValue) -> Result<u32, EvalError> {
        match lv {
            CLValue::Whole(sig) => Ok(self.widths[sig.idx()]),
            CLValue::Bit { .. } => Ok(1),
            CLValue::Part { msb, lsb, .. } => Ok(msb - lsb + 1),
            CLValue::Concat(parts) => parts.iter().map(|p| self.lvalue_width(p)).sum(),
            CLValue::Unknown(name) => Err(EvalError::UnknownSignal(name.clone())),
        }
    }
}

/// State environment over one lane's flat value store.
struct StateEnv<'a> {
    state: &'a [Value],
}

impl ExecEnv for StateEnv<'_> {
    #[inline]
    fn load(&self, sig: SigId) -> Value {
        self.state[sig.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Simulator;
    use asv_verilog::compile as velab;

    fn compiled(src: &str) -> CompiledDesign {
        CompiledDesign::compile(&velab(src).expect("compile"))
    }

    fn compiled_at(src: &str, opt: OptLevel) -> CompiledDesign {
        CompiledDesign::compile_opt(&velab(src).expect("compile"), opt)
    }

    #[test]
    fn interns_signals_in_sorted_order() {
        let c = compiled("module m(input b, input a, output y);\nassign y = a & b;\nendmodule");
        assert_eq!(c.names(), &["a", "b", "y"]);
        assert_eq!(c.sig("a"), Some(SigId(0)));
        assert_eq!(c.sig("y"), Some(SigId(2)));
        assert_eq!(c.sig("ghost"), None);
    }

    #[test]
    fn acyclic_designs_levelize() {
        let c = compiled(
            "module m(input a, output y);\nwire t;\nassign y = t;\nassign t = ~a;\nendmodule",
        );
        assert!(c.is_levelized());
        // `t`'s driver must be scheduled before `y`'s reader.
        assert_eq!(c.order, vec![1, 0]);
    }

    #[test]
    fn cyclic_designs_fall_back() {
        let c = compiled(
            "module osc(input a, output y);\nwire n;\nassign n = ~n | a;\nassign y = n;\nendmodule",
        );
        assert!(!c.is_levelized());
    }

    #[test]
    fn latch_style_blocks_fall_back() {
        let c = compiled(
            "module l(input en, input d, output reg q);\n\
             always @(*) begin if (en) q = d; end\nendmodule",
        );
        assert!(!c.is_levelized());
    }

    #[test]
    fn complete_mux_blocks_levelize() {
        let c = compiled(
            "module m(input [1:0] s, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
             always @(*) begin\n\
               case (s) 2'd0: y = a; 2'd1: y = b; default: y = 4'd0; endcase\n\
             end\nendmodule",
        );
        assert!(c.is_levelized());
    }

    #[test]
    fn dynamic_bit_writes_fall_back() {
        let c = compiled(
            "module d(input [1:0] i, input v, output [3:0] y);\n\
             assign y[i] = v;\nendmodule",
        );
        assert!(!c.is_levelized());
    }

    #[test]
    fn ternary_only_evaluates_taken_branch() {
        // Division by zero in the untaken branch must not error — at
        // either opt level.
        for opt in [OptLevel::None, OptLevel::Full] {
            let c = compiled_at(
                "module t(input s, input [3:0] a, input [3:0] b, output [3:0] y);\n\
                 assign y = s ? a / b : a;\nendmodule",
                opt,
            );
            let mut sim = Simulator::from_compiled(Arc::new(c));
            sim.step(&[("s", 0), ("b", 0), ("a", 5)])
                .expect("no div-by-zero");
            assert_eq!(sim.value("y").map(Value::bits), Some(5));
            assert_eq!(
                sim.step(&[("s", 1)]),
                Err(SimError::Eval(EvalError::DivideByZero)),
                "at {opt}"
            );
        }
    }

    #[test]
    fn params_fold_to_32_bit_constants() {
        let c = compiled(
            "module p #(parameter W = 5)(input [7:0] a, output [7:0] y);\n\
             assign y = a + W;\nendmodule",
        );
        let mut sim = Simulator::from_compiled(Arc::new(c));
        sim.step(&[("a", 2)]).expect("settle");
        assert_eq!(sim.value("y").map(Value::bits), Some(7));
        assert_eq!(param_value(5).width(), 32);
        assert_eq!(param_value(u64::MAX).width(), 64);
    }

    #[test]
    fn optimization_shortens_bytecode_without_changing_results() {
        let src = "module m #(parameter W = 2)(input [7:0] a, input [7:0] b, output [7:0] x,\n\
             output [7:0] y);\n\
             wire [7:0] t;\n\
             assign t = a;\n\
             assign x = (t ^ b) & (t ^ b);\n\
             assign y = (a * 8'd4) + (W * 8'd3 + 8'd0);\nendmodule";
        let none = compiled_at(src, OptLevel::None);
        let full = compiled_at(src, OptLevel::Full);
        assert_eq!(none.opt_level(), OptLevel::None);
        assert_eq!(full.opt_level(), OptLevel::Full);
        assert!(
            full.bytecode_len() < none.bytecode_len(),
            "opt: {} vs raw: {}",
            full.bytecode_len(),
            none.bytecode_len()
        );
        assert_eq!(none.branch_sites(), full.branch_sites());
        assert_eq!(none.dict_consts(), full.dict_consts());
        let mut sn = Simulator::from_compiled(Arc::new(none));
        let mut sf = Simulator::from_compiled(Arc::new(full));
        for (av, bv) in [(3u64, 5u64), (0, 255), (170, 85)] {
            for sim in [&mut sn, &mut sf] {
                sim.step(&[("a", av), ("b", bv)]).expect("settle");
            }
            for name in sn.compiled().names() {
                assert_eq!(
                    sn.value(name),
                    sf.value(name),
                    "`{name}` diverged for a={av} b={bv}"
                );
            }
        }
    }

    #[test]
    fn sym_live_masks_keep_the_assertion_cone() {
        let src = "module m(input clk, input [3:0] a, output reg [3:0] q, output [3:0] dead);\n\
             wire [3:0] t;\n\
             assign t = a + 4'd1;\n\
             assign dead = a ^ 4'hF;\n\
             always @(posedge clk) q <= t;\nendmodule";
        let c = compiled(src);
        let roots = [c.sig("q").unwrap()];
        let (comb_live, seq_live) = c.sym_live(&roots);
        assert_eq!(comb_live, vec![true, false], "dead cone must drop");
        assert_eq!(seq_live, vec![true]);
        // With `dead` as a root everything is live.
        let (all, _) = c.sym_live(&[c.sig("q").unwrap(), c.sig("dead").unwrap()]);
        assert_eq!(all, vec![true, true]);
    }

    #[test]
    fn sym_live_keeps_unclean_steps_alive() {
        // The division can't bit-blast: the step must stay live even
        // though nothing observes it, so the symbolic engine rejects the
        // design identically at every opt level.
        let src = "module m(input clk, input [3:0] a, input [3:0] b, output reg [3:0] q,\n\
             output [3:0] dead);\n\
             assign dead = a / b;\n\
             always @(posedge clk) q <= a;\nendmodule";
        let c = compiled(src);
        let (comb_live, _) = c.sym_live(&[c.sig("q").unwrap()]);
        assert_eq!(comb_live, vec![true], "unclean step is pinned live");
    }

    #[test]
    fn levelization_verdict_is_opt_invariant() {
        // `n & 1'b0` folds the self-cycle away at Full, but the design
        // must stay on the fixpoint discipline (and outside the symbolic
        // subset) at both levels.
        let src = "module m(input a, output y);\nwire n;\n\
             assign n = (n & 1'b0) | a;\nassign y = n;\nendmodule";
        let none = compiled_at(src, OptLevel::None);
        let full = compiled_at(src, OptLevel::Full);
        assert!(!none.is_levelized());
        assert!(
            !full.is_levelized(),
            "verdict must come from the raw structure"
        );
    }
}
