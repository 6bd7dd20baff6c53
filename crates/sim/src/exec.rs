//! Cycle-accurate simulation of elaborated designs on the compiled
//! backend ([`crate::compile`]).
//!
//! The simulator advances in clock ticks. Each [`Simulator::step`]:
//!
//! 1. applies the caller's input assignments,
//! 2. settles combinational logic (one levelized pass for acyclic
//!    designs; the interpreter's declaration-order fixpoint otherwise),
//! 3. samples all signals into the [`Trace`] (the SVA *preponed* sample),
//! 4. executes every clocked `always` block against the sampled state,
//!    collecting nonblocking updates, then commits them atomically,
//! 5. settles combinational logic again.
//!
//! Asynchronous resets are handled at tick granularity: stimulus asserts
//! reset across whole cycles, so the reset branch executes at the next tick
//! — the documented 2-state/cycle-level substitution for event-driven
//! simulation.
//!
//! A [`Simulator`] is a single-lane [`LaneBatch`]: the lane executor in
//! [`crate::compile::batch`] is the one implementation of statement
//! semantics, whether it runs one stimulus or a group of them.
//! `Simulator::new` compiles the design once; [`Simulator::from_compiled`]
//! shares an existing [`CompiledDesign`], so starting another simulation
//! of the same design (the bounded verifier does this once per stimulus)
//! is an O(#signals) state initialisation instead of a `Design` clone.
//! The original tree-walking executor survives as
//! [`crate::interp::AstSimulator`], the reference oracle the differential
//! tests compare against.

use crate::compile::batch::LaneBatch;
use crate::compile::CompiledDesign;
use crate::cover::CovMap;
use crate::eval::EvalError;
use crate::trace::Trace;
use crate::value::Value;
use asv_verilog::sema::Design;
use std::fmt;
use std::sync::Arc;

/// Errors raised while running a design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Expression evaluation failed.
    Eval(EvalError),
    /// Combinational logic did not reach a fixpoint (ring oscillator or
    /// delta-cycle explosion).
    CombDivergence,
    /// The design has no clock but a clocked step was requested.
    NoClock,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Eval(e) => write!(f, "evaluation error: {e}"),
            SimError::CombDivergence => write!(f, "combinational logic failed to settle"),
            SimError::NoClock => write!(f, "design has no recognisable clock"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<EvalError> for SimError {
    fn from(e: EvalError) -> Self {
        SimError::Eval(e)
    }
}

/// A running simulation of one elaborated [`Design`]: a [`LaneBatch`]
/// of one lane.
#[derive(Debug, Clone)]
pub struct Simulator {
    batch: LaneBatch<1>,
}

impl Simulator {
    /// Creates a simulator with all signals initialised to zero,
    /// compiling the design first. To run many simulations of one design,
    /// compile once and use [`Simulator::from_compiled`].
    pub fn new(design: &Design) -> Self {
        Simulator::from_compiled(Arc::new(CompiledDesign::compile(design)))
    }

    /// Creates a simulator over an already-compiled design: O(#signals)
    /// state initialisation, no AST work. Traces share the design's
    /// interned name table.
    pub fn from_compiled(compiled: Arc<CompiledDesign>) -> Self {
        Simulator {
            batch: LaneBatch::new(compiled, 1),
        }
    }

    /// Enables coverage recording (branch arms + signal toggles) for
    /// subsequent steps. `assertions` sizes the antecedent axis the SVA
    /// checker fills in (pass 0 when no checker is attached). Without this
    /// call the hot path runs fully uninstrumented.
    pub fn enable_coverage(&mut self, assertions: usize) {
        self.batch.enable_coverage(assertions);
    }

    /// The coverage recorded so far, if enabled.
    pub fn coverage(&self) -> Option<&CovMap> {
        self.batch.coverage(0)
    }

    /// Enables bytecode op counting for subsequent steps (see
    /// [`Simulator::ops_executed`]). Like coverage, this is opt-in so
    /// the default hot path stays fully uninstrumented; unlike
    /// coverage, the tally is a pure function of bytecode and stimulus
    /// — the deterministic work metric the perf harness records.
    pub fn enable_op_count(&mut self) {
        self.batch.enable_op_count();
    }

    /// Bytecode operations dispatched so far (0 unless
    /// [`Simulator::enable_op_count`] was called), counted at
    /// statement-expression program granularity.
    pub fn ops_executed(&self) -> u64 {
        self.batch.ops_executed(0)
    }

    /// Consumes the simulator, returning the trace and the coverage map
    /// (present only after [`Simulator::enable_coverage`]).
    pub fn into_trace_and_coverage(self) -> (Trace, Option<CovMap>) {
        self.batch.into_trace_and_coverage()
    }

    /// The design under simulation.
    pub fn design(&self) -> &Design {
        self.batch.compiled().design()
    }

    /// The shared compiled form of the design.
    pub fn compiled(&self) -> &Arc<CompiledDesign> {
        self.batch.compiled()
    }

    /// Current (post-settle) value of a signal.
    pub fn value(&self, name: &str) -> Option<Value> {
        self.batch.value(0, name)
    }

    /// Drives an input port for subsequent ticks.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known signal (programming error in the
    /// harness, not recoverable data).
    pub fn set_input(&mut self, name: &str, value: u64) {
        self.batch.set_input(0, name, value);
    }

    /// Consumes the simulator, returning the trace.
    pub fn into_trace(self) -> Trace {
        self.into_trace_and_coverage().0
    }

    /// Runs one clock tick with the given input assignments.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on evaluation failure or non-settling
    /// combinational logic. Errors are sticky: the failing tick may
    /// have updated some signals, but after an `Err` every later `step`
    /// returns the same error without applying its inputs, and changes
    /// neither [`value`](Simulator::value)s nor the trace.
    pub fn step(&mut self, inputs: &[(&str, u64)]) -> Result<(), SimError> {
        if self.batch.alive() != 0 {
            for (name, v) in inputs {
                self.set_input(name, *v);
            }
            self.batch.step_active(1);
        }
        match self.batch.error(0) {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Runs `n` ticks with constant inputs.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn run(&mut self, n: usize, inputs: &[(&str, u64)]) -> Result<(), SimError> {
        for _ in 0..n {
            self.step(inputs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::compile;

    fn sim(src: &str) -> Simulator {
        let d = compile(src).unwrap_or_else(|e| panic!("compile failed: {e}"));
        Simulator::new(&d)
    }

    #[test]
    fn combinational_gate_settles() {
        let mut s = sim("module g(input a, input b, output y); assign y = a & b; endmodule");
        s.step(&[("a", 1), ("b", 1)]).expect("step");
        assert_eq!(s.value("y").map(Value::bits), Some(1));
        s.step(&[("a", 1), ("b", 0)]).expect("step");
        assert_eq!(s.value("y").map(Value::bits), Some(0));
    }

    #[test]
    fn chained_assign_settles_in_order_independent_way() {
        // y depends on t which depends on a: must settle regardless of
        // declaration order.
        let mut s = sim("module g(input a, output y);\n\
             wire t;\n assign y = t;\n assign t = ~a;\nendmodule");
        s.step(&[("a", 0)]).expect("step");
        assert_eq!(s.value("y").map(Value::bits), Some(1));
    }

    const COUNTER: &str = "module c(input clk, input rst_n, input en, output reg [3:0] q);\n\
        always @(posedge clk or negedge rst_n) begin\n\
          if (!rst_n) q <= 4'd0;\n\
          else if (en) q <= q + 4'd1;\n\
        end\nendmodule";

    #[test]
    fn counter_counts() {
        let mut s = sim(COUNTER);
        s.step(&[("rst_n", 0), ("en", 0)]).expect("reset");
        assert_eq!(s.value("q").map(Value::bits), Some(0));
        for i in 1..=5u64 {
            s.step(&[("rst_n", 1), ("en", 1)]).expect("step");
            assert_eq!(s.value("q").map(Value::bits), Some(i));
        }
        s.step(&[("rst_n", 1), ("en", 0)]).expect("hold");
        assert_eq!(s.value("q").map(Value::bits), Some(5));
    }

    #[test]
    fn counter_wraps_at_width() {
        let mut s = sim(COUNTER);
        s.step(&[("rst_n", 0), ("en", 0)]).expect("reset");
        for _ in 0..16 {
            s.step(&[("rst_n", 1), ("en", 1)]).expect("step");
        }
        assert_eq!(s.value("q").map(Value::bits), Some(0), "wraps mod 16");
    }

    #[test]
    fn nba_reads_pre_edge_values() {
        // Classic swap: both registers must exchange values in one tick.
        let mut s = sim(
            "module swap(input clk, input ld, input [3:0] a0, input [3:0] b0,\n\
              output reg [3:0] x, output reg [3:0] y);\n\
             always @(posedge clk) begin\n\
               if (ld) begin x <= a0; y <= b0; end\n\
               else begin x <= y; y <= x; end\n\
             end\nendmodule",
        );
        s.step(&[("ld", 1), ("a0", 3), ("b0", 9)]).expect("load");
        assert_eq!(s.value("x").map(Value::bits), Some(3));
        s.step(&[("ld", 0)]).expect("swap");
        assert_eq!(s.value("x").map(Value::bits), Some(9));
        assert_eq!(s.value("y").map(Value::bits), Some(3));
    }

    #[test]
    fn trace_samples_preponed_values() {
        let mut s = sim(COUNTER);
        s.step(&[("rst_n", 0), ("en", 0)]).expect("reset");
        s.step(&[("rst_n", 1), ("en", 1)]).expect("step");
        s.step(&[("rst_n", 1), ("en", 1)]).expect("step");
        assert_eq!(s.value("q").map(Value::bits), Some(2));
        // At tick t the trace holds the value *before* that tick's edge.
        let trace = s.into_trace();
        assert_eq!(trace.value(1, "q").map(Value::bits), Some(0));
        assert_eq!(trace.value(2, "q").map(Value::bits), Some(1));
    }

    #[test]
    fn comb_always_block_behaves_like_assign() {
        let mut s = sim(
            "module m(input [1:0] sel, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
             always @(*) begin\n\
               case (sel) 2'd0: y = a; 2'd1: y = b; default: y = 4'd0; endcase\n\
             end\nendmodule",
        );
        s.step(&[("sel", 0), ("a", 7), ("b", 2)]).expect("step");
        assert_eq!(s.value("y").map(Value::bits), Some(7));
        s.step(&[("sel", 1)]).expect("step");
        assert_eq!(s.value("y").map(Value::bits), Some(2));
        s.step(&[("sel", 2)]).expect("step");
        assert_eq!(s.value("y").map(Value::bits), Some(0));
    }

    #[test]
    fn blocking_assign_in_seq_block_is_sequential() {
        let mut s = sim("module m(input clk, input [3:0] a, output reg [3:0] y);\n\
             reg [3:0] t;\n\
             always @(posedge clk) begin\n\
               t = a + 4'd1;\n\
               y <= t;\n\
             end\nendmodule");
        s.step(&[("a", 4)]).expect("step");
        assert_eq!(s.value("y").map(Value::bits), Some(5));
    }

    #[test]
    fn divergent_comb_loop_is_reported() {
        let mut s = sim(
            "module osc(input a, output y);\nwire n;\nassign n = ~n | a;\nassign y = n;\nendmodule",
        );
        // `n = ~n | a` with a=0 oscillates.
        let r = s.step(&[("a", 0)]);
        assert_eq!(r, Err(SimError::CombDivergence));
    }

    #[test]
    fn set_input_masks_to_width() {
        let mut s = sim(COUNTER);
        s.set_input("en", 0xFF);
        assert_eq!(s.value("en").map(Value::bits), Some(1));
    }

    #[test]
    fn op_counting_is_opt_in_deterministic_and_invisible() {
        let d = compile(COUNTER).expect("compile");
        let compiled = Arc::new(CompiledDesign::compile(&d));
        let run_counted = |n: usize| {
            let mut s = Simulator::from_compiled(Arc::clone(&compiled));
            s.enable_op_count();
            for _ in 0..n {
                s.step(&[("rst_n", 1), ("en", 1)]).expect("step");
            }
            (s.value("q").map(Value::bits), s.ops_executed())
        };
        let (q8a, ops8a) = run_counted(8);
        let (q8b, ops8b) = run_counted(8);
        assert!(ops8a > 0, "counting enabled must observe work");
        assert_eq!(ops8a, ops8b, "op count is a pure function of the run");
        assert_eq!(q8a, q8b);
        let (_, ops4) = run_counted(4);
        assert!(ops4 < ops8a, "more cycles, more ops");

        // Without opt-in the tally stays zero, and counting never
        // changes simulation results or coverage.
        let mut plain = Simulator::from_compiled(Arc::clone(&compiled));
        plain.enable_coverage(0);
        let mut counted = Simulator::from_compiled(Arc::clone(&compiled));
        counted.enable_coverage(0);
        counted.enable_op_count();
        for _ in 0..8 {
            plain.step(&[("rst_n", 1), ("en", 1)]).expect("step");
            counted.step(&[("rst_n", 1), ("en", 1)]).expect("step");
        }
        assert_eq!(plain.ops_executed(), 0);
        assert_eq!(plain.value("q"), counted.value("q"));
        assert_eq!(
            plain.coverage(),
            counted.coverage(),
            "op counting must not leak into coverage maps"
        );
    }

    #[test]
    fn restart_from_compiled_resets_state() {
        let d = compile(COUNTER).expect("compile");
        let compiled = Arc::new(CompiledDesign::compile(&d));
        let mut s = Simulator::from_compiled(Arc::clone(&compiled));
        s.step(&[("rst_n", 0), ("en", 0)]).expect("reset");
        s.step(&[("rst_n", 1), ("en", 1)]).expect("step");
        assert_eq!(s.value("q").map(Value::bits), Some(1));
        // A fresh simulator over the same compiled design starts at zero
        // with an empty trace.
        let s2 = Simulator::from_compiled(Arc::clone(&compiled));
        assert_eq!(s2.value("q").map(Value::bits), Some(0));
        assert!(s2.into_trace().is_empty());
        // Traces never own their name table: they share the compiled
        // design's interned header.
        let trace = s.into_trace();
        assert_eq!(trace.len(), 2);
        assert!(Arc::ptr_eq(trace.header(), compiled.trace_header()));
    }

    /// Steps `s` once more with `inputs`, asserting the sticky error
    /// contract: the same error, no signal or trace change.
    fn assert_sticky(s: &mut Simulator, inputs: &[(&str, u64)], err: &SimError) {
        let before = s.clone();
        assert_eq!(s.step(inputs).as_ref(), Err(err));
        for name in before.compiled().names() {
            assert_eq!(s.value(name), before.value(name), "`{name}` changed");
        }
        assert_eq!(s.clone().into_trace(), before.into_trace());
    }

    #[test]
    fn errors_are_sticky() {
        let mut s = sim(
            "module d(input clk, input [3:0] a, input [3:0] b, output reg [3:0] q);\n\
             always @(posedge clk) q <= a / b;\nendmodule",
        );
        s.step(&[("a", 6), ("b", 3)]).expect("6 / 3");
        assert_eq!(s.value("q").map(Value::bits), Some(2));
        let err = SimError::Eval(EvalError::DivideByZero);
        assert_eq!(s.step(&[("a", 5), ("b", 0)]), Err(err.clone()));
        // Valid inputs no longer revive the run.
        assert_sticky(&mut s, &[("a", 8), ("b", 2)], &err);
        assert_sticky(&mut s, &[], &err);
        assert_eq!(s.run(3, &[("b", 1)]), Err(err));
        assert_eq!(s.into_trace().len(), 2, "the failing tick sampled first");

        let mut osc = sim(
            "module osc(input a, output y);\nwire n;\nassign n = ~n | a;\nassign y = n;\nendmodule",
        );
        osc.step(&[("a", 1)]).expect("a = 1 settles");
        assert_eq!(osc.step(&[("a", 0)]), Err(SimError::CombDivergence));
        assert_sticky(&mut osc, &[("a", 1)], &SimError::CombDivergence);
        assert_eq!(osc.value("a").map(Value::bits), Some(0));
        assert_eq!(
            osc.into_trace().len(),
            1,
            "divergence aborts before sampling"
        );
    }
}
