//! # asv-sim
//!
//! Cycle-accurate, 2-state RTL simulator for elaborated
//! [`asv_verilog::Design`]s — the reproduction's substitute for the
//! event-driven simulation step the AssertSolver paper performs with
//! Icarus Verilog (substitution rationale in DESIGN.md).
//!
//! Two backends share identical semantics (see README "Simulation
//! backends"): the compiled core in [`compile`] (interned signals,
//! bytecode expressions, levelized combinational scheduling) executes
//! statements in one place, the lane executor [`LaneBatch`], which the
//! default [`Simulator`] runs with a single lane; [`interp::AstSimulator`]
//! keeps the original tree-walking executor as the reference oracle for
//! differential testing.
//!
//! ## Quick start
//!
//! ```
//! use asv_sim::{Simulator, Value};
//!
//! let design = asv_verilog::compile(
//!     "module c(input clk, input rst_n, output reg [3:0] q);\n\
//!      always @(posedge clk or negedge rst_n) begin\n\
//!        if (!rst_n) q <= 4'd0; else q <= q + 4'd1;\n\
//!      end\nendmodule",
//! )?;
//! let mut sim = Simulator::new(&design);
//! sim.step(&[("rst_n", 0)])?;
//! sim.step(&[("rst_n", 1)])?;
//! sim.step(&[("rst_n", 1)])?;
//! assert_eq!(sim.value("q"), Some(Value::new(2, 4)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod cache;
pub mod cancel;
pub mod compile;
pub mod cover;
pub mod eval;
pub mod exec;
pub mod fault;
pub mod interp;
pub mod stimulus;
pub mod trace;
pub use asv_ir::value;

pub use asv_ir::OptLevel;
pub use cache::CompileCache;
pub use cancel::{Budget, Exhausted, Resource};
pub use compile::batch::{run_stimulus_group, LaneBatch, LaneOutcome, LaneRun, LANE_WIDTHS};
pub use compile::{CompiledDesign, SigId};
pub use cover::{CovMap, CoverageReport};
pub use eval::{Env, EvalError};
pub use exec::{SimError, Simulator};
pub use fault::{FaultKind, FaultKinds, FaultPlan, FaultSession};
pub use interp::AstSimulator;
pub use stimulus::{Stimulus, StimulusGen};
pub use trace::{Trace, TraceHeader};
pub use value::Value;
