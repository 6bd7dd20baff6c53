//! Invariant mining: proposes SVA candidates from golden-design traces and
//! keeps only those the bounded verifier proves.
//!
//! This is the reproduction's substitute for Claude-3.5's SVA generation in
//! the paper's Stage 2. It suffices because the paper validates every
//! LLM-proposed SVA with SymbiYosys anyway, so the generator only needs to
//! *propose* plausible properties; the verifier is the arbiter either way.
//!
//! Templates mined:
//!
//! 1. implication between 1-bit signals: `a |-> b`, `a |-> ##1 b`,
//!    `a |-> ##1 !b` (and with `$rose(a)` antecedents);
//! 2. range bounds on multi-bit signals: `1 |-> sig <= K` for the maximum
//!    `K` observed;
//! 3. register follow: `1 |-> q == $past(q)` variants are deliberately not
//!    mined (they are almost always false); instead `en |-> ##1 q == K`
//!    one-hot style checks are covered by template 1 on decoded bits.

use crate::bmc::Verifier;
use crate::monitor::{CheckOutcome, CompiledChecker};
use asv_sim::stimulus::StimulusGen;
use asv_sim::trace::Trace;
use asv_verilog::ast::*;
use asv_verilog::sema::{Design, DriverKind};
use asv_verilog::Span;

/// Configuration for the miner.
#[derive(Debug, Clone, Copy)]
pub struct Miner {
    /// Random traces mined before proposing.
    pub mining_runs: usize,
    /// Cycles per mining trace.
    pub depth: usize,
    /// Seed for mining stimulus.
    pub seed: u64,
    /// Maximum number of surviving properties returned.
    pub max_properties: usize,
}

impl Default for Miner {
    fn default() -> Self {
        Miner {
            mining_runs: 12,
            depth: 16,
            seed: 0x51F7_ED01,
            max_properties: 8,
        }
    }
}

impl Miner {
    /// Creates a miner with default parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mines and verifies properties for a golden design.
    ///
    /// Returned properties all hold (bounded) and fired non-vacuously on at
    /// least one mining trace.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from trace collection; candidate
    /// verification errors silently drop the candidate (a candidate that
    /// cannot be evaluated is not a valid SVA).
    pub fn mine(
        &self,
        design: &Design,
        verifier: &Verifier,
    ) -> Result<Vec<PropertyDecl>, asv_sim::SimError> {
        let traces = self.collect_traces(design)?;
        let candidates = self.propose(design, &traces);
        let mut kept = Vec::new();
        for prop in candidates {
            if kept.len() >= self.max_properties {
                break;
            }
            if !self.survives_traces(design, &prop, &traces) {
                continue;
            }
            // Formal gate: attach to the design and check.
            let checked = attach_property(design, &prop);
            match verifier.check(&checked) {
                Ok(v) if v.holds_non_vacuously() => kept.push(prop),
                _ => {}
            }
        }
        Ok(kept)
    }

    fn collect_traces(&self, design: &Design) -> Result<Vec<Trace>, asv_sim::SimError> {
        let gen = StimulusGen::new(design);
        let compiled = std::sync::Arc::new(asv_sim::CompiledDesign::compile(design));
        let mut traces = Vec::with_capacity(self.mining_runs);
        for i in 0..self.mining_runs {
            let stim = gen.random_seeded(self.depth, 2, self.seed.wrapping_add(i as u64));
            let mut sim = asv_sim::Simulator::from_compiled(std::sync::Arc::clone(&compiled));
            for t in 0..stim.len() {
                sim.step(&stim.cycle(t))?;
            }
            traces.push(sim.into_trace());
        }
        Ok(traces)
    }

    /// Generates candidate properties from templates.
    fn propose(&self, design: &Design, traces: &[Trace]) -> Vec<PropertyDecl> {
        let Some(clock) = design.clock().map(str::to_string) else {
            return Vec::new();
        };
        let reset = design.reset().map(|(n, al)| (n.to_string(), al));
        let special: Vec<&str> = {
            let mut v = vec![clock.as_str()];
            if let Some((r, _)) = &reset {
                v.push(r.as_str());
            }
            v
        };
        let one_bit: Vec<String> = design
            .signals
            .values()
            .filter(|s| s.width == 1 && !special.contains(&s.name.as_str()))
            .map(|s| s.name.clone())
            .collect();
        let multi_bit: Vec<(String, u32)> = design
            .signals
            .values()
            .filter(|s| s.width > 1 && s.driver != DriverKind::Input)
            .map(|s| (s.name.clone(), s.width))
            .collect();

        let mut props = Vec::new();
        let mut idx = 0usize;
        let mut push = |name_hint: &str, disable: Option<Expr>, body: PropExpr| {
            props.push(PropertyDecl {
                name: format!("mined_{name_hint}_{idx}"),
                clock: ClockSpec {
                    posedge: true,
                    signal: clock.clone(),
                },
                disable,
                body,
                span: Span::default(),
            });
            idx += 1;
        };
        let disable_expr = reset.as_ref().map(|(r, active_low)| {
            let id = ident(r);
            if *active_low {
                Expr::Unary {
                    op: UnaryOp::LogicNot,
                    operand: Box::new(id),
                    span: Span::default(),
                }
            } else {
                id
            }
        });

        // Template 1: 1-bit implications (same-cycle and next-cycle).
        for a in &one_bit {
            for b in &one_bit {
                if a == b {
                    continue;
                }
                for (delay, negated) in [(0u32, false), (1, false), (1, true)] {
                    let consequent_expr = if negated {
                        Expr::Unary {
                            op: UnaryOp::LogicNot,
                            operand: Box::new(ident(b)),
                            span: Span::default(),
                        }
                    } else {
                        ident(b)
                    };
                    let consequent = if delay == 0 {
                        SeqExpr::Expr(consequent_expr)
                    } else {
                        SeqExpr::Delay {
                            lhs: Box::new(SeqExpr::Expr(const_one())),
                            cycles: delay,
                            rhs: Box::new(SeqExpr::Expr(consequent_expr)),
                            span: Span::default(),
                        }
                    };
                    push(
                        "impl",
                        disable_expr.clone(),
                        PropExpr::Implication {
                            antecedent: SeqExpr::Expr(ident(a)),
                            overlapping: true,
                            consequent,
                            span: Span::default(),
                        },
                    );
                }
            }
        }

        // Template 2: observed upper bounds for multi-bit signals. Only
        // propose when the observed max is strictly below the type max
        // (otherwise the bound is trivial).
        for (name, width) in &multi_bit {
            let mut max_seen = 0u64;
            for tr in traces {
                for t in 0..tr.len() {
                    if let Some(v) = tr.value(t, name) {
                        max_seen = max_seen.max(v.bits());
                    }
                }
            }
            let type_max = if *width >= 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            if max_seen < type_max {
                let body = PropExpr::Implication {
                    antecedent: SeqExpr::Expr(const_one()),
                    overlapping: true,
                    consequent: SeqExpr::Expr(Expr::Binary {
                        op: BinaryOp::Le,
                        lhs: Box::new(ident(name)),
                        rhs: Box::new(Expr::Number {
                            value: max_seen,
                            width: Some(*width),
                            base: Some('d'),
                            span: Span::default(),
                        }),
                        span: Span::default(),
                    }),
                    span: Span::default(),
                };
                push("bound", disable_expr.clone(), body);
            }
        }
        props
    }

    /// Checks a candidate passes (non-vacuously somewhere) on all traces.
    fn survives_traces(&self, design: &Design, prop: &PropertyDecl, traces: &[Trace]) -> bool {
        let module = attach_property(design, prop).module;
        // All mining traces come from one design and share a column
        // layout: compile the candidate's assertions once.
        let Some(first) = traces.first() else {
            return false;
        };
        let Ok(checker) = CompiledChecker::new(&module, |name| first.col(name)) else {
            return false;
        };
        let mut fired = false;
        for tr in traces {
            match checker.outcomes(tr) {
                Ok(results) => {
                    for (_, outcome) in results {
                        match outcome {
                            CheckOutcome::Failed(_) => return false,
                            CheckOutcome::Passed { .. } => fired = true,
                            CheckOutcome::Vacuous => {}
                        }
                    }
                }
                Err(_) => return false,
            }
        }
        fired
    }
}

/// Returns a copy of `design` with `prop` declared and asserted. The copy
/// is used for candidate checking and for building the final SVA list.
pub fn attach_property(design: &Design, prop: &PropertyDecl) -> Design {
    let mut d = design.clone();
    d.module.items.push(Item::Property(prop.clone()));
    d.module.items.push(Item::Assert(AssertDirective {
        label: Some(format!("{}_assert", prop.name)),
        target: AssertTarget::Named(prop.name.clone()),
        message: Some(format!("property {} violated", prop.name)),
        span: Span::default(),
    }));
    d
}

fn ident(name: &str) -> Expr {
    Expr::Ident {
        name: name.to_string(),
        span: Span::default(),
    }
}

fn const_one() -> Expr {
    Expr::Number {
        value: 1,
        width: Some(1),
        base: Some('b'),
        span: Span::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_verilog::compile;

    /// A handshake where `gnt` always follows `req` one cycle later.
    const HANDSHAKE: &str = r#"
module hs(input clk, input rst_n, input req, output reg gnt);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) gnt <= 1'b0;
    else gnt <= req;
  end
endmodule
"#;

    #[test]
    fn mines_req_implies_next_gnt() {
        let d = compile(HANDSHAKE).expect("compile");
        let miner = Miner::default();
        let verifier = Verifier {
            depth: 8,
            ..Verifier::default()
        };
        let props = miner.mine(&d, &verifier).expect("mine");
        assert!(!props.is_empty(), "must mine at least one property");
        // One of the mined properties must be req |-> ##1 gnt.
        let found = props.iter().any(|p| {
            let PropExpr::Implication {
                antecedent,
                consequent,
                ..
            } = &p.body
            else {
                return false;
            };
            matches!(antecedent, SeqExpr::Expr(Expr::Ident { name, .. }) if name == "req")
                && consequent.duration() == 1
                && consequent.idents().contains(&"gnt".to_string())
        });
        assert!(found, "req |-> ##1 gnt expected among {props:?}");
    }

    #[test]
    fn mined_properties_all_hold() {
        let d = compile(HANDSHAKE).expect("compile");
        let verifier = Verifier {
            depth: 8,
            ..Verifier::default()
        };
        let props = Miner::default().mine(&d, &verifier).expect("mine");
        for p in props {
            let attached = attach_property(&d, &p);
            let verdict = verifier.check(&attached).expect("verify");
            assert!(!verdict.is_failure(), "mined property {p:?} fails");
        }
    }

    #[test]
    fn bound_template_fires_for_saturating_counter() {
        let src = r#"
module sat(input clk, input rst_n, input en, output reg [3:0] q);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) q <= 4'd0;
    else if (en && q < 4'd10) q <= q + 4'd1;
  end
endmodule
"#;
        let d = compile(src).expect("compile");
        let verifier = Verifier {
            depth: 16,
            random_runs: 16,
            ..Verifier::default()
        };
        let props = Miner {
            mining_runs: 8,
            depth: 24,
            ..Miner::default()
        }
        .mine(&d, &verifier)
        .expect("mine");
        let has_bound = props.iter().any(|p| p.name.contains("bound"));
        assert!(
            has_bound,
            "saturating counter should yield a bound: {props:?}"
        );
    }

    #[test]
    fn no_properties_for_pure_comb_without_clock() {
        let d = compile("module m(input a, output y); assign y = ~a; endmodule").expect("ok");
        let props = Miner::default()
            .mine(&d, &Verifier::default())
            .expect("mine");
        assert!(props.is_empty());
    }
}
