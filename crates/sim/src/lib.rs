//! # asv-sim
//!
//! Cycle-accurate, 2-state RTL simulator for elaborated
//! [`asv_verilog::Design`]s — the reproduction's substitute for the
//! event-driven simulation step the AssertSolver paper performs with
//! Icarus Verilog. Values are 2-state, not 4-state: every injected bug
//! class is expressible without X/Z (see [`value`]).
//!
//! Two backends share identical semantics (see README "Simulation
//! backends"): the compiled core in [`compile`] (interned signals,
//! bytecode expressions, levelized combinational scheduling) executes
//! statements in one place, the lane executor [`LaneBatch`], which the
//! default [`Simulator`] runs with a single lane and
//! [`run_stimulus_group`] with [`LANES`] lanes, one stimulus each;
//! [`interp::AstSimulator`] keeps the original tree-walking executor as
//! the reference oracle for differential testing.
//!
//! Three modules serve the layers above the simulator: the worker pool
//! [`pool::map`], the structural design hash [`cache::design_hash`] that
//! job keys are built on, and [`cancel::Exhausted`], the record an engine
//! returns when it spends one of its own caps. Engines trace through an
//! [`asv_trace::TraceHandle`] passed to each call.
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
pub mod interp;
pub mod pool;
pub mod stimulus;
pub mod trace;
pub use asv_ir::value;

pub use cancel::{Exhausted, Resource};
pub use compile::batch::{run_stimulus_group, LaneBatch, LaneOutcome, LaneRun, LANES};
pub use compile::{CompiledDesign, SigId};
pub use cover::CovMap;
pub use eval::{Env, EvalError};
pub use exec::{SimError, Simulator};
pub use interp::AstSimulator;
pub use stimulus::{Stimulus, StimulusGen};
pub use trace::{Trace, TraceHeader};
pub use value::Value;
