//! Pins the front end's diagnostics: the full `CompileError::diagnostics`
//! list (severity, message, span, in order) and the `render` text for a set
//! of rejected sources.
//!
//! Datagen stage 1 stores `CompileError::render` as the Verilog-PT
//! `analysis` text that pretraining reads, so any change to the list —
//! order, duplicates, spans — changes a generated dataset.

use asv_verilog::{compile, Severity, SourceFile};
use Severity::{Error, Warning};

struct Pin {
    name: &'static str,
    src: &'static str,
    diagnostics: &'static [(Severity, &'static str, u32, u32)],
    render: &'static str,
}

const PINS: &[Pin] = &[
    Pin {
        name: "nested_undeclared",
        src: "module m(input a, input b, input c, output y);
  assign y = a & (b | (c ^ ghost));
endmodule
",
        diagnostics: &[
            (Error, "undeclared identifier `ghost`", 60, 79),
            (Error, "undeclared identifier `ghost`", 65, 79),
            (Error, "undeclared identifier `ghost`", 70, 79),
            (Error, "undeclared identifier `ghost`", 74, 79),
        ],
        render: "2:14: error: undeclared identifier `ghost`\n2:19: error: undeclared identifier `ghost`\n2:24: error: undeclared identifier `ghost`\n2:28: error: undeclared identifier `ghost`",
    },
    Pin {
        name: "past_args",
        src: "module m(input clk, input a, output y);
  assign y = $past(ghost, 2) + a;
  property p;
    @(posedge clk) a |-> $past(phantom) == a;
  endproperty
  assert property (p);
endmodule
",
        diagnostics: &[
            (Error, "undeclared identifier `ghost`", 53, 72),
            (Error, "undeclared identifier `ghost`", 53, 68),
            (Error, "undeclared identifier `ghost`", 59, 64),
            (Error, "property references undeclared signal `phantom`", 76, 147),
        ],
        render: "2:14: error: undeclared identifier `ghost`\n2:14: error: undeclared identifier `ghost`\n2:20: error: undeclared identifier `ghost`\n3:3: error: property references undeclared signal `phantom`",
    },
    Pin {
        name: "unsupported_sysfn_in_ternary",
        src: "module m(input sel, input a, input b, output y);
  assign y = sel ? $random(a) : (b & $time);
endmodule
",
        diagnostics: &[
            (Error, "unsupported system function `$random`", 68, 78),
            (Error, "unsupported system function `$time`", 86, 91),
        ],
        render: "2:20: error: unsupported system function `$random`\n2:38: error: unsupported system function `$time`",
    },
    Pin {
        name: "property_and_disable_iff",
        src: "module m(input clk, input rst_n, input a);
  property p;
    @(posedge clk) disable iff (!rst_ghost) a |-> ##1 ghost_b;
  endproperty
  chk: assert property (p) else $error(\"p failed\");
  assert property (@(posedge clk2) a |=> a);
  assert property (missing_prop);
endmodule
",
        diagnostics: &[
            (Error, "property clock `clk2` is not declared", 205, 228),
            (Error, "assertion references unknown property `missing_prop`", 233, 264),
            (Error, "undeclared identifier `rst_ghost`", 89, 99),
            (Error, "undeclared identifier `rst_ghost`", 90, 99),
            (Error, "property references undeclared signal `ghost_b`", 45, 133),
        ],
        render: "6:20: error: property clock `clk2` is not declared\n7:3: error: assertion references unknown property `missing_prop`\n3:33: error: undeclared identifier `rst_ghost`\n3:34: error: undeclared identifier `rst_ghost`\n2:3: error: property references undeclared signal `ghost_b`",
    },
    Pin {
        name: "conflicting_drivers",
        src: "module m(input clk, input a, output reg y, output z);
  wire w;
  reg r;
  always @(posedge clk) y <= a;
  always @(*) y = ~a;
  always @(posedge clk) w <= a;
  assign r = a;
  assign a = 1'b0;
  assign nowhere = a;
  assign z = w | r;
endmodule
",
        diagnostics: &[
            (Error, "signal `y` has conflicting drivers (Sequential and Combinational)", 119, 126),
            (Error, "procedural assignment to wire `w` (declare it reg)", 151, 158),
            (Error, "continuous assignment to reg `r` (use wire or always)", 161, 174),
            (Error, "cannot drive input port `a`", 177, 193),
            (Error, "assignment to undeclared signal `nowhere`", 196, 215),
        ],
        render: "5:15: error: signal `y` has conflicting drivers (Sequential and Combinational)\n6:25: error: procedural assignment to wire `w` (declare it reg)\n7:3: error: continuous assignment to reg `r` (use wire or always)\n8:3: error: cannot drive input port `a`\n9:3: error: assignment to undeclared signal `nowhere`",
    },
    Pin {
        name: "floating_warning_with_error",
        src: "module m(input a, output y);
  wire unused;
  reg idle;
  assign y = a & ghost;
endmodule
",
        diagnostics: &[
            (Error, "undeclared identifier `ghost`", 69, 78),
            (Error, "undeclared identifier `ghost`", 73, 78),
            (Warning, "signal `idle` is never driven", 0, 0),
            (Warning, "signal `unused` is never driven", 0, 0),
        ],
        render: "4:14: error: undeclared identifier `ghost`\n4:18: error: undeclared identifier `ghost`\n1:1: warning: signal `idle` is never driven\n1:1: warning: signal `unused` is never driven",
    },
    Pin {
        name: "sensitivity",
        src: "module m(input clk, input a, output reg y);
  always @(posedge clk or a) y <= a;
  always @(posedge ghost_clk) y <= a;
endmodule
",
        diagnostics: &[
            (Error, "mixed edge and level sensitivity is not supported", 46, 80),
            (Error, "sensitivity list references undeclared signal `ghost_clk`", 83, 118),
        ],
        render: "2:3: error: mixed edge and level sensitivity is not supported\n3:3: error: sensitivity list references undeclared signal `ghost_clk`",
    },
    Pin {
        name: "declarations",
        src: "module m #(parameter W = 4, parameter W = 5)(input [3:0] a, input a, output [127:0] y);
  localparam BAD = a + 1;
  wire [3:0] t, t;
  assign y = t + W;
endmodule
",
        diagnostics: &[
            (Error, "duplicate parameter `W`", 28, 43),
            (Error, "parameter `BAD` is not a constant expression", 90, 112),
            (Error, "duplicate port `a`", 60, 67),
            (Error, "port `y` width 128 outside supported 1..=64", 69, 85),
            (Error, "duplicate declaration of `t`", 116, 132),
            (Warning, "signal `t` is never driven", 0, 0),
        ],
        render: "1:29: error: duplicate parameter `W`\n2:3: error: parameter `BAD` is not a constant expression\n1:61: error: duplicate port `a`\n1:70: error: port `y` width 128 outside supported 1..=64\n3:3: error: duplicate declaration of `t`\n1:1: warning: signal `t` is never driven",
    },
    Pin {
        name: "parse_error_at_ident",
        src: "module m(input a, input b, output y);
  assign y = a b;
endmodule
",
        diagnostics: &[
            (Error, "expected `;`, found identifier `b`", 53, 54),
        ],
        render: "2:16: error: expected `;`, found identifier `b`",
    },
    Pin {
        name: "parse_error_at_number",
        src: "module m(input a, output y);
  assign 42 = a;
endmodule
",
        diagnostics: &[
            (Error, "expected identifier, found number `42`", 38, 40),
        ],
        render: "2:10: error: expected identifier, found number `42`",
    },
    Pin {
        name: "parse_error_at_eof",
        src: "module m(input a, output y);
  assign y = a;
",
        diagnostics: &[
            (Error, "expected `endmodule`, found end of input", 45, 45),
        ],
        render: "3:1: error: expected `endmodule`, found end of input",
    },
    Pin {
        name: "lex_error",
        src: "module m(input a, output y);
  assign y = a;
  assert property (@(posedge a) a) else $error(\"never closed);
endmodule
",
        diagnostics: &[
            (Error, "unterminated string", 92, 118),
        ],
        render: "3:48: error: unterminated string",
    },
];

#[test]
fn rejected_sources_report_pinned_diagnostics() {
    for pin in PINS {
        let err = compile(pin.src).expect_err(pin.name);
        let got: Vec<(Severity, &str, u32, u32)> = err
            .diagnostics
            .iter()
            .map(|d| (d.severity, d.message.as_str(), d.span.start, d.span.end))
            .collect();
        assert_eq!(got, pin.diagnostics, "{}", pin.name);
        assert_eq!(
            err.render(&SourceFile::new(pin.src)),
            pin.render,
            "{}",
            pin.name
        );
    }
}
