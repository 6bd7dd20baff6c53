//! # asv-sat
//!
//! Symbolic bounded model checking for the AssertSolver reproduction: the
//! exhaustive counterpart of the simulation oracle in `asv-sva`, standing
//! in for the SymbiYosys runs of the source paper.
//!
//! The pipeline has four stages, each its own module:
//!
//! 1. [`blast`] — **bit-blasting**: the compiled design's expression
//!    bytecode ([`asv_sim::compile`]) is executed symbolically over an
//!    and-inverter graph ([`aig`]), word-level operators expanding to
//!    ripple-carry, barrel-shift and mux networks with semantics
//!    bit-identical to the 2-state interpreter.
//! 2. [`unroll`] — **time-frame expansion**: the sequential state is
//!    unrolled frame by frame with the exact settle/sample/clock-edge
//!    discipline of the concrete simulator, reset protocol included.
//! 3. [`engine`] — **property encoding + search**: SVA directives
//!    (implication, `##n` delay, `disable iff`, `$past`-family history)
//!    compile into the frame logic; Tseitin-encoded queries are solved
//!    depth by depth.
//! 4. [`solver`] — an embedded **CDCL SAT solver** (two-watched-literal
//!    propagation, first-UIP learning, VSIDS, Luby restarts) with
//!    incremental assumption-based solving, so deeper unrollings reuse
//!    everything learned at shallower depths.
//!
//! Designs outside the encodable subset (non-levelizable combinational
//! logic, non-constant division, unsupported system calls) are reported
//! as [`engine::BmcError::Unsupported`]; the verifier in `asv-sva` then
//! falls back to enumeration or the coverage-guided fuzzer.
//!
//! ## Quick start
//!
//! ```
//! use asv_sat::engine::{check, BmcOptions, BmcVerdict};
//! use asv_sim::CompiledDesign;
//!
//! let design = asv_verilog::compile(
//!     "module m(input clk, input rst_n, input [7:0] a, output reg hit);\n\
//!      always @(posedge clk or negedge rst_n) begin\n\
//!        if (!rst_n) hit <= 1'b0; else hit <= (a == 8'hA5);\n\
//!      end\n\
//!      p: assert property (@(posedge clk) disable iff (!rst_n)\n\
//!        a == 8'hA5 |-> ##1 !hit) else $error(\"boom\");\n\
//!      endmodule",
//! )?;
//! let compiled = CompiledDesign::compile(&design);
//! // Random simulation almost never drives `a` to 0xA5; the solver must.
//! let verdict = check(&compiled, BmcOptions::default()).expect("in-subset design");
//! assert!(matches!(verdict, BmcVerdict::Fails { .. }));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod aig;
pub mod blast;
pub mod engine;
pub mod solver;
pub mod unroll;

pub use aig::{Aig, NLit};
pub use blast::{BlastError, SymVec};
pub use engine::{check, check_traced, BmcError, BmcOptions, BmcVerdict};
pub use solver::{Lit, SolveResult, Solver, Var};
