//! Domain scenario 1: formal sign-off of a handshake controller.
//!
//! Uses the substrate directly — no repair model involved: compile a
//! design, mine candidate invariants from golden traces, prove them with
//! the bounded checker, and attach the survivors as SVAs (the paper's
//! Stage-2 SVA generation + SymbiYosys validation flow).
//!
//! Run with: `cargo run --release --example formal_check`

use asv_sva::bmc::{Verdict, Verifier};
use asv_sva::mine::{attach_property, Miner};
use asv_verilog::pretty::render_prop;

const HANDSHAKE: &str = r#"
module hs_ctrl(input clk, input rst_n, input req, output reg ack, output reg busy);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      ack <= 1'b0;
      busy <= 1'b0;
    end else if (req && !busy) begin
      ack <= 1'b1;
      busy <= 1'b1;
    end else begin
      ack <= 1'b0;
      if (busy && !req) busy <= 1'b0;
    end
  end
endmodule
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = asv_verilog::compile(HANDSHAKE)?;
    println!(
        "compiled `{}`: {} signals, clock = {:?}, reset = {:?}",
        design.module.name,
        design.signals.len(),
        design.clock(),
        design.reset()
    );

    // Mine invariants from golden traces and prove them bounded.
    let verifier = Verifier::new();
    let mined = Miner::new().mine(&design, &verifier)?;
    println!("\nmined and verified {} properties:", mined.len());
    for p in &mined {
        println!("  property {}: {}", p.name, render_prop(&p.body));
    }

    // Attach them and run the full check once more, reporting coverage.
    let mut checked = design.clone();
    for p in &mined {
        checked = attach_property(&checked, p);
    }
    match verifier.check(&checked)? {
        Verdict::Holds {
            exhaustive,
            stimuli,
            vacuous,
        } => println!(
            "\nsign-off: holds over {stimuli} stimuli (exhaustive: {exhaustive}); \
             {} properties all fired (vacuous: {vacuous:?})",
            mined.len()
        ),
        Verdict::Fails(cex) => println!("\nunexpected failure: {:?}", cex.logs),
        Verdict::Inconclusive {} => println!("\nno verdict"),
    }
    Ok(())
}
