//! # asv-sva
//!
//! SystemVerilog Assertion semantics for the AssertSolver reproduction:
//!
//! * [`monitor`] — runtime checking of properties over simulation traces,
//!   producing the assertion-failure logs the repair model consumes;
//! * [`bmc`] — a bounded verifier standing in for SymbiYosys (README
//!   "Verification engines" gives the rationale), with a symbolic
//!   SAT-based engine (`asv-sat`), exhaustive enumeration and the
//!   coverage-guided fuzzer (`asv-fuzz`);
//! * [`mine`] — trace-driven invariant mining standing in for the paper's
//!   LLM-based SVA generation;
//! * [`eval`] — sampled-value evaluation with `$past`/`$rose`/`$fell`/
//!   `$stable` resolved against the trace.
//!
//! ## Quick start
//!
//! ```
//! use asv_sva::bmc::{Verdict, Verifier};
//!
//! let design = asv_verilog::compile(r#"
//! module latch1(input clk, input rst_n, input d, output reg q);
//!   always @(posedge clk or negedge rst_n) begin
//!     if (!rst_n) q <= 1'b0; else q <= d;
//!   end
//!   chk: assert property (@(posedge clk) disable iff (!rst_n)
//!     d |-> ##1 q) else $error("q must follow d");
//! endmodule
//! "#)?;
//! let verdict = Verifier::new().check(&design)?;
//! assert!(!verdict.is_failure());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bmc;
pub mod eval;
pub mod mine;
pub mod monitor;

pub use bmc::{CounterExample, Engine, Verdict, Verifier, VerifyError};
pub use mine::{attach_property, Miner};
pub use monitor::{check_module, failure_logs, AssertionFailure, CheckOutcome};
