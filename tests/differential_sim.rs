//! Differential tests: the compiled simulation backend must be
//! bit-identical to the AST-interpreting reference oracle.
//!
//! For every datagen archetype at several size hints, and for a set of
//! handwritten stress modules exercising the trickier lowering paths
//! (concat lvalues, part selects, replication, ternaries, system calls,
//! parameters, shifts, constant operands, shared subexpressions, copy
//! chains, false cycles, equal mux arms), both backends run ≥ 64 cycles
//! of seeded random stimulus and the full traces are compared
//! value-for-value. Errors must agree too: a stimulus the oracle rejects
//! (e.g. divide-by-zero) must be rejected identically by the compiled
//! backend.

use asv_datagen::corpus::{Archetype, CorpusGen, SizeHint};
use asv_sim::{AstSimulator, SimError, Simulator, StimulusGen, Trace};
use asv_verilog::sema::Design;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CYCLES: usize = 64;
const RESET_CYCLES: usize = 2;

/// Runs one stimulus through both backends, asserting identical outcomes
/// (trace rows or first error).
fn assert_backends_agree(design: &Design, label: &str, seed: u64) {
    let gen = StimulusGen::new(design);
    let stim = gen.random_seeded(CYCLES, RESET_CYCLES, seed);

    let mut compiled = Simulator::new(design);
    let mut oracle = AstSimulator::new(design);
    for t in 0..stim.len() {
        let inputs = stim.cycle(t);
        let rc: Result<(), SimError> = compiled.step(&inputs);
        let ro: Result<(), SimError> = oracle.step(&inputs);
        assert_eq!(
            rc, ro,
            "{label}: step {t} outcome diverged (compiled vs oracle)"
        );
        if rc.is_err() {
            return; // Both failed identically; traces up to t match below.
        }
        // Post-settle state must agree signal by signal.
        for name in design.signals.keys() {
            assert_eq!(
                compiled.value(name),
                oracle.value(name),
                "{label}: state of `{name}` diverged after step {t}"
            );
        }
    }
    assert_traces_equal(&compiled.into_trace(), &oracle.into_trace(), label);
}

fn assert_traces_equal(a: &Trace, b: &Trace, label: &str) {
    assert_eq!(a.names(), b.names(), "{label}: trace column mismatch");
    assert_eq!(a.len(), b.len(), "{label}: trace length mismatch");
    for t in 0..a.len() {
        for name in a.names() {
            assert_eq!(
                a.value(t, name),
                b.value(t, name),
                "{label}: trace diverged at tick {t}, signal `{name}`"
            );
        }
    }
}

#[test]
fn all_archetypes_are_bit_identical() {
    let gen = CorpusGen::new(0xD1FF);
    for (ai, arch) in Archetype::ALL.iter().enumerate() {
        for (si, hint) in [
            SizeHint {
                stages: 1,
                width: 4,
            },
            SizeHint {
                stages: 3,
                width: 8,
            },
        ]
        .into_iter()
        .enumerate()
        {
            let mut rng = StdRng::seed_from_u64((ai * 31 + si) as u64);
            let d = gen.instantiate(*arch, ai * 10 + si, hint, &mut rng);
            let design = asv_verilog::compile(&d.source)
                .unwrap_or_else(|e| panic!("{}: corpus design must compile: {e}", d.name));
            for seed in 0..3u64 {
                assert_backends_agree(&design, &d.name, 0xBEEF ^ seed);
            }
        }
    }
}

#[test]
fn generated_corpus_sweep_is_bit_identical() {
    // A broader sweep across the generator's own size/width cycling.
    for d in CorpusGen::new(0x5EED).generate(36) {
        let design = asv_verilog::compile(&d.source)
            .unwrap_or_else(|e| panic!("{}: corpus design must compile: {e}", d.name));
        assert_backends_agree(&design, &d.name, 0xACE);
    }
}

#[test]
fn stress_modules_are_bit_identical() {
    let modules: &[(&str, &str)] = &[
        (
            "concat_lvalue",
            "module m(input clk, input [3:0] a, input [3:0] b,\n\
             output reg [3:0] hi, output reg [3:0] lo);\n\
             always @(posedge clk) {hi, lo} <= {a, b} + 8'd3;\nendmodule",
        ),
        (
            "part_selects",
            "module m(input clk, input [7:0] a, output reg [7:0] y, output [3:0] z);\n\
             assign z = a[6:3];\n\
             always @(posedge clk) begin y[3:0] <= a[7:4]; y[7:4] <= a[3:0]; end\nendmodule",
        ),
        (
            "replication_ternary",
            "module m(input s, input [1:0] a, output [7:0] y);\n\
             assign y = s ? {4{a}} : ({a, 2'd1, a, 2'd2} ^ {2{a}});\nendmodule",
        ),
        (
            "params_and_shifts",
            "module m #(parameter W = 3, parameter K = W * 2)\n\
             (input [7:0] a, input [2:0] n, output [7:0] y, output [7:0] z);\n\
             assign y = (a << W) | (a >> n);\n\
             assign z = ($signed(a) >>> 1) + K;\nendmodule",
        ),
        (
            "reductions_syscalls",
            "module m(input [7:0] a, output y, output [5:0] c);\n\
             assign y = (&a) ^ (|a) ^ (^a) ^ $onehot(a) ^ $onehot0(a);\n\
             assign c = $countones(a);\nendmodule",
        ),
        (
            "blocking_nonblocking_mix",
            "module m(input clk, input rst_n, input [3:0] a, output reg [3:0] y,\n\
             output reg [3:0] t);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) begin t <= 4'd0; y <= 4'd0; end\n\
               else begin t = a + 4'd1; y <= t ^ a; end\n\
             end\nendmodule",
        ),
        (
            "case_with_defaults",
            "module m(input [1:0] op, input [3:0] a, input [3:0] b, output reg [3:0] y);\n\
             always @(*) begin\n\
               case (op)\n\
                 2'd0: y = a + b;\n\
                 2'd1: y = a - b;\n\
                 2'd2: y = a & b;\n\
                 default: y = a ^ b;\n\
               endcase\n\
             end\nendmodule",
        ),
        (
            "bit_select_rmw",
            "module m(input clk, input [2:0] i, input v, output reg [7:0] y);\n\
             always @(posedge clk) y[i] <= v;\nendmodule",
        ),
        (
            "deep_comb_chain",
            "module m(input [3:0] a, output [3:0] y);\n\
             wire [3:0] t0, t1, t2, t3;\n\
             assign t3 = t2 ^ 4'd9;\n\
             assign y = t3 + t0;\n\
             assign t1 = t0 | 4'd2;\n\
             assign t0 = ~a;\n\
             assign t2 = t1 + 4'd1;\nendmodule",
        ),
        (
            "latch_style_comb",
            // Incomplete comb block: exercises the fixpoint fallback.
            "module m(input en, input [3:0] d, output reg [3:0] q, output [3:0] y);\n\
             always @(*) begin if (en) q = d; end\n\
             assign y = q + 4'd1;\nendmodule",
        ),
        (
            "division_can_fault",
            // Divide-by-zero whenever b == 0: errors must match exactly.
            "module m(input [3:0] a, input [3:0] b, output [3:0] y);\n\
             assign y = a / b;\nendmodule",
        ),
        (
            "foldable_constants",
            "module m #(parameter W = 3)(input [7:0] a, output [7:0] y, output [7:0] z);\n\
             assign y = (a * 8'd4) + (W * 8'd2 + 8'd1);\n\
             assign z = (a / 8'd8) ^ (a % 8'd16) ^ (a + 8'd0);\nendmodule",
        ),
        (
            "shared_subexpressions",
            "module m(input [7:0] a, input [7:0] b, output [7:0] x, output [7:0] y);\n\
             assign x = ((a ^ b) + 8'd1) & ((a ^ b) + 8'd1);\n\
             assign y = (a ^ b) | 8'h0F;\nendmodule",
        ),
        (
            "copy_chains",
            "module m(input [3:0] a, output [3:0] y);\n\
             wire [3:0] t, u;\n\
             assign t = a;\nassign u = t;\nassign y = u + 4'd1;\nendmodule",
        ),
        (
            "false_cycle",
            // A self-read that no value depends on still keeps the
            // fixpoint loop.
            "module m(input a, output y);\nwire n;\n\
             assign n = (n & 1'b0) | a;\nassign y = n;\nendmodule",
        ),
        (
            "mux_of_equal",
            // Equal arms under a condition that can fault.
            "module m(input s, input [3:0] a, input [3:0] b, output [3:0] y, output [3:0] z);\n\
             assign y = s ? a : a;\nassign z = (a / b > 4'd0) ? b : b;\nendmodule",
        ),
        (
            "branchy_coverage",
            "module m(input clk, input [1:0] op, input [3:0] a, output reg [3:0] y);\n\
             always @(posedge clk) begin\n\
               case (op)\n\
                 2'd0: y <= a + 4'd0;\n\
                 2'd1: y <= a * 4'd2;\n\
                 2'd2: y <= a & 4'd0;\n\
                 default: y <= a ^ a;\n\
               endcase\n\
             end\nendmodule",
        ),
    ];
    for (name, src) in modules {
        let design = asv_verilog::compile(src)
            .unwrap_or_else(|e| panic!("{name}: stress module must compile: {e}"));
        for seed in 0..8u64 {
            assert_backends_agree(&design, name, 0xD1CE ^ seed);
        }
    }
}

#[test]
fn verifier_traces_match_oracle_simulation() {
    // The bounded verifier's compiled replay path must equal an oracle
    // re-simulation of the same stimulus.
    let d = CorpusGen::new(7).instantiate(
        Archetype::Accumulator,
        0,
        SizeHint {
            stages: 2,
            width: 4,
        },
        &mut StdRng::seed_from_u64(3),
    );
    let design = asv_verilog::compile(&d.source).expect("compile");
    let gen = StimulusGen::new(&design);
    for seed in 0..4 {
        let stim = gen.random_seeded(CYCLES, RESET_CYCLES, seed);
        let verifier = asv_sva::bmc::Verifier::default();
        let compiled_trace = verifier.simulate(&design, &stim).expect("simulate");
        let mut oracle = AstSimulator::new(&design);
        for t in 0..stim.len() {
            oracle.step(&stim.cycle(t)).expect("oracle step");
        }
        assert_traces_equal(&compiled_trace, &oracle.into_trace(), &d.name);
    }
}
