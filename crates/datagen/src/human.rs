//! SVA-Eval-Human: hand-written designs with curated bugs.
//!
//! The paper's 38 human-crafted samples come from the RTLLM benchmark.
//! RTLLM is not available offline, so this module carries ten hand-written
//! modules in styles deliberately different from the synthetic corpus
//! (LFSR feedback, ring counters, debouncers, saturating arithmetic, ...),
//! each with curated bug injections validated through the same
//! compiler + verifier gate. The set is capped at the paper's 38 samples.

use crate::dataset::{LengthBin, SvaBugEntry};
use asv_mutation::inject::{apply, classify_direct, enumerate};
use asv_sva::bmc::{Verdict, Verifier};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Number of human-curated samples, matching the paper.
pub const HUMAN_SAMPLE_TARGET: usize = 38;

/// The hand-written golden designs: `(name, source, spec)`.
pub fn golden_designs() -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "clkdiv3",
            r#"
module clkdiv3(input clk, input rst_n, output tick);
  reg [1:0] cnt;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 2'd0;
    else if (cnt == 2'd2) cnt <= 2'd0;
    else cnt <= cnt + 2'd1;
  end
  assign tick = cnt == 2'd2;
  property p_bound;
    @(posedge clk) disable iff (!rst_n) 1'b1 |-> cnt <= 2'd2;
  endproperty
  a_bound: assert property (p_bound) else $error("divider count out of range");
  property p_wrap;
    @(posedge clk) disable iff (!rst_n) tick |-> ##1 cnt == 2'd0;
  endproperty
  a_wrap: assert property (p_wrap) else $error("divider must wrap after tick");
endmodule
"#,
            "A divide-by-3 tick generator: cnt cycles 0,1,2 and tick pulses when cnt reaches 2.",
        ),
        (
            "debounce",
            r#"
module debounce(input clk, input rst_n, input din, output reg dout);
  reg [2:0] hist;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) hist <= 3'b000;
    else hist <= {hist[1:0], din};
  end
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) dout <= 1'b0;
    else if (hist == 3'b111) dout <= 1'b1;
    else if (hist == 3'b000) dout <= 1'b0;
  end
  property p_set;
    @(posedge clk) disable iff (!rst_n) hist == 3'b111 |-> ##1 dout;
  endproperty
  a_set: assert property (p_set) else $error("three high samples must set dout");
  property p_clr;
    @(posedge clk) disable iff (!rst_n) hist == 3'b000 |-> ##1 !dout;
  endproperty
  a_clr: assert property (p_clr) else $error("three low samples must clear dout");
endmodule
"#,
            "A 3-sample debouncer: dout sets after three consecutive high samples of din and clears after three consecutive lows.",
        ),
        (
            "updown",
            r#"
module updown(input clk, input rst_n, input up, input down, output reg [4:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 5'd0;
    else if (up && !down) q <= q + 5'd1;
    else if (down && !up) q <= q - 5'd1;
  end
  property p_up;
    @(posedge clk) disable iff (!rst_n) up && !down |-> ##1 q == $past(q) + 5'd1;
  endproperty
  a_up: assert property (p_up) else $error("q must increment on up");
  property p_down;
    @(posedge clk) disable iff (!rst_n) down && !up |-> ##1 q == $past(q) - 5'd1;
  endproperty
  a_down: assert property (p_down) else $error("q must decrement on down");
  property p_hold;
    @(posedge clk) disable iff (!rst_n) up == down |-> ##1 q == $past(q);
  endproperty
  a_hold: assert property (p_hold) else $error("q must hold on conflict");
endmodule
"#,
            "A 5-bit up/down counter: increments on up, decrements on down, holds when both or neither are asserted.",
        ),
        (
            "ring4",
            r#"
module ring4(input clk, input rst_n, output reg [3:0] r);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) r <= 4'b0001;
    else r <= {r[2:0], r[3]};
  end
  property p_onehot;
    @(posedge clk) disable iff (!rst_n) 1'b1 |-> $onehot(r);
  endproperty
  a_onehot: assert property (p_onehot) else $error("ring counter must stay one-hot");
  property p_rotate;
    @(posedge clk) disable iff (!rst_n) r[3] |-> ##1 r[0];
  endproperty
  a_rotate: assert property (p_rotate) else $error("msb must rotate into lsb");
endmodule
"#,
            "A 4-bit one-hot ring counter rotating left every cycle, seeded with 0001 on reset.",
        ),
        (
            "lfsr4",
            r#"
module lfsr4(input clk, input rst_n, output reg [3:0] lfsr);
  wire fb;
  assign fb = lfsr[3] ^ lfsr[2];
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) lfsr <= 4'b0001;
    else lfsr <= {lfsr[2:0], fb};
  end
  property p_nonzero;
    @(posedge clk) disable iff (!rst_n) 1'b1 |-> lfsr != 4'd0;
  endproperty
  a_nonzero: assert property (p_nonzero) else $error("lfsr must never reach zero");
  property p_shift;
    @(posedge clk) disable iff (!rst_n) 1'b1 |-> ##1 lfsr[3:1] == $past(lfsr[2:0]);
  endproperty
  a_shift: assert property (p_shift) else $error("lfsr must shift left");
endmodule
"#,
            "A maximal-length 4-bit Fibonacci LFSR with taps at bits 3 and 2, seeded nonzero on reset.",
        ),
        (
            "vote3",
            r#"
module vote3(input clk, input a, input b, input c, output y);
  assign y = (a & b) | (a & c) | (b & c);
  property p_two_high;
    @(posedge clk) a && b |-> y;
  endproperty
  a_two_high: assert property (p_two_high) else $error("two votes must carry");
  property p_two_low;
    @(posedge clk) !a && !b |-> !y;
  endproperty
  a_two_low: assert property (p_two_low) else $error("two dissents must block");
endmodule
"#,
            "A combinational 2-of-3 majority voter over inputs a, b, c.",
        ),
        (
            "satadd",
            r#"
module satadd(input clk, input rst_n, input [7:0] a, input [7:0] b, output reg [7:0] s);
  wire [8:0] sum;
  assign sum = {1'b0, a} + {1'b0, b};
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) s <= 8'd0;
    else if (sum > 9'd200) s <= 8'd200;
    else s <= sum[7:0];
  end
  property p_cap;
    @(posedge clk) disable iff (!rst_n) 1'b1 |-> s <= 8'd200;
  endproperty
  a_cap: assert property (p_cap) else $error("saturated sum above cap");
  property p_exact;
    @(posedge clk) disable iff (!rst_n) sum <= 9'd200 |-> ##1 s == $past(sum[7:0]);
  endproperty
  a_exact: assert property (p_exact) else $error("in-range sum must pass through");
endmodule
"#,
            "An 8-bit saturating adder capping the 9-bit true sum of a and b at 200.",
        ),
        (
            "serializer",
            r#"
module serializer(input clk, input rst_n, input load, input [3:0] pdata, output sout);
  reg [3:0] sr;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) sr <= 4'd0;
    else if (load) sr <= pdata;
    else sr <= sr >> 1;
  end
  assign sout = sr[0];
  property p_load;
    @(posedge clk) disable iff (!rst_n) load |-> ##1 sr == $past(pdata);
  endproperty
  a_load: assert property (p_load) else $error("load must capture pdata");
  property p_shift;
    @(posedge clk) disable iff (!rst_n) !load |-> ##1 sr == ($past(sr) >> 1);
  endproperty
  a_shift: assert property (p_shift) else $error("idle cycles must shift right");
endmodule
"#,
            "A 4-bit parallel-load serializer: load captures pdata, idle cycles shift right with sout on the lsb.",
        ),
        (
            "watchdog",
            r#"
module watchdog(input clk, input rst_n, input kick, output bark);
  reg [3:0] cnt;
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) cnt <= 4'd0;
    else if (kick) cnt <= 4'd0;
    else if (cnt != 4'd12) cnt <= cnt + 4'd1;
  end
  assign bark = cnt == 4'd12;
  property p_kick;
    @(posedge clk) disable iff (!rst_n) kick |-> ##1 cnt == 4'd0;
  endproperty
  a_kick: assert property (p_kick) else $error("kick must clear the timer");
  property p_bound;
    @(posedge clk) disable iff (!rst_n) 1'b1 |-> cnt <= 4'd12;
  endproperty
  a_bound: assert property (p_bound) else $error("timer above bark threshold");
endmodule
"#,
            "A watchdog timer: kick clears the count; without kicks the count saturates at 12 and bark asserts.",
        ),
        (
            "minmax",
            r#"
module minmax(input clk, input rst_n, input valid, input [6:0] d,
              output reg [6:0] mn, output reg [6:0] mx);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
      mn <= 7'd127;
      mx <= 7'd0;
    end else if (valid) begin
      if (d < mn) mn <= d;
      if (d > mx) mx <= d;
    end
  end
  property p_mx;
    @(posedge clk) disable iff (!rst_n) valid |-> ##1 mx >= $past(d);
  endproperty
  a_mx: assert property (p_mx) else $error("max must cover the last sample");
  property p_mn;
    @(posedge clk) disable iff (!rst_n) valid |-> ##1 mn <= $past(d);
  endproperty
  a_mn: assert property (p_mn) else $error("min must cover the last sample");
endmodule
"#,
            "A running min/max tracker over valid samples of a 7-bit stream.",
        ),
    ]
}

/// Builds the SVA-Eval-Human benchmark: curated bugs on the hand-written
/// designs, validated with `verifier`, capped at [`HUMAN_SAMPLE_TARGET`].
///
/// # Panics
///
/// Panics if a hand-written golden design fails to compile or violates its
/// own SVAs — that is a defect in this module, not input data.
pub fn sva_eval_human(verifier: &Verifier, seed: u64) -> Vec<SvaBugEntry> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    let per_design = HUMAN_SAMPLE_TARGET.div_ceil(golden_designs().len());
    for (name, src, spec) in golden_designs() {
        let golden = asv_verilog::compile(src)
            .unwrap_or_else(|e| panic!("human design {name} must compile: {e}"));
        match verifier.check(&golden) {
            Ok(Verdict::Holds { .. }) => {}
            other => panic!("human design {name} must hold: {other:?}"),
        }
        let mut muts = enumerate(&golden);
        muts.shuffle(&mut rng);
        let mut taken = 0;
        for m in &muts {
            if taken >= per_design || out.len() >= HUMAN_SAMPLE_TARGET {
                break;
            }
            let Ok(inj) = apply(&golden, m) else { continue };
            let Ok(buggy) = asv_verilog::compile(&inj.buggy_source) else {
                continue;
            };
            let Ok(Verdict::Fails(cex)) = verifier.check(&buggy) else {
                continue;
            };
            let mut class = m.class;
            class.direct = classify_direct(&golden, m);
            out.push(SvaBugEntry {
                module_name: name.to_string(),
                spec: spec.to_string(),
                length_bin: LengthBin::of_lines(inj.buggy_source.lines().count()),
                buggy_source: inj.buggy_source.clone(),
                golden_source: inj.golden_source.clone(),
                logs: cex.logs.clone(),
                line_no: inj.line_no,
                buggy_line: inj.buggy_line.clone(),
                fixed_line: inj.fixed_line.clone(),
                class,
                cot: None,
            });
            taken += 1;
        }
    }
    out.truncate(HUMAN_SAMPLE_TARGET);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verifier() -> Verifier {
        Verifier {
            depth: 10,
            random_runs: 16,
            exhaustive_limit: 1024,
            ..Verifier::default()
        }
    }

    #[test]
    fn all_golden_designs_compile_and_hold() {
        let v = verifier();
        for (name, src, _) in golden_designs() {
            let d = asv_verilog::compile(src)
                .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
            let verdict = v.check(&d).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!verdict.is_failure(), "{name} violates its own SVAs");
        }
    }

    #[test]
    fn human_benchmark_has_paper_size() {
        let entries = sva_eval_human(&verifier(), 0xD0C5);
        assert_eq!(entries.len(), HUMAN_SAMPLE_TARGET);
        // Every entry is a real assertion failure with a recorded fix.
        for e in &entries {
            assert!(e.logs[0].contains("failed assertion"));
            assert_ne!(e.buggy_line, e.fixed_line);
        }
    }

    #[test]
    fn human_benchmark_is_deterministic() {
        let v = verifier();
        assert_eq!(sva_eval_human(&v, 1), sva_eval_human(&v, 1));
    }

    #[test]
    fn covers_multiple_modules() {
        let entries = sva_eval_human(&verifier(), 2);
        let names: std::collections::BTreeSet<_> =
            entries.iter().map(|e| e.module_name.as_str()).collect();
        assert!(names.len() >= 8, "only {names:?}");
    }
}
