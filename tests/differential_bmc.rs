//! Differential tests: the symbolic bounded model checker must agree with
//! exhaustive stimulus enumeration wherever enumeration is possible.
//!
//! For every datagen archetype at a small size hint, and for a set of
//! injected mutations of each golden design, both engines run with the
//! same bounds over an input space small enough to enumerate completely:
//!
//! * `Holds` verdicts must agree, including the vacuous-assertion list
//!   (symbolic vacuity is a proof; on an enumerable space it must coincide
//!   with the enumerated notion exactly).
//! * `Fails` verdicts must agree, and every symbolic counterexample must
//!   replay bit-identically on the compiled simulator (same failure logs).
//!
//! Designs outside the symbolic subset (non-levelizable) are asserted to
//! report `VerifyError::Symbolic` rather than silently skipping.
//!
//! Besides the archetypes, a generated family covers the shape the
//! engine's antecedent cofactor rewrites: a register or mux whose branch
//! the antecedent selects, read by the consequent, over one- and
//! multi-atom antecedents, `|->` and `|=>`, `disable iff` and `$past`
//! chains, in holding, failing and vacuous variants.

use asv_datagen::corpus::{Archetype, CorpusGen, SizeHint};
use asv_eval::Judge;
use asv_sim::StimulusGen;
use asv_sva::bmc::{Engine, Verdict, Verifier, VerifyError};
use asv_sva::monitor::failure_logs;
use asv_verilog::sema::Design;

const RESET_CYCLES: usize = 2;

/// Picks a depth so that `2^(bits × depth)` stays enumerable, preferring
/// deeper unrollings for narrow designs.
fn enumerable_depth(design: &Design) -> Option<usize> {
    let gen = StimulusGen::new(design);
    let bits: u32 = gen.free_inputs().iter().map(|(_, w)| *w).sum();
    if bits == 0 {
        return Some(6);
    }
    let depth = (14 / bits as usize).min(6);
    (depth >= 2).then_some(depth)
}

fn verifiers(depth: usize) -> (Verifier, Verifier) {
    let sym = Verifier {
        depth,
        reset_cycles: RESET_CYCLES,
        engine: Engine::Symbolic,
        ..Verifier::default()
    };
    let sim = Verifier {
        depth,
        reset_cycles: RESET_CYCLES,
        exhaustive_limit: 1 << 15,
        engine: Engine::Simulation,
        ..Verifier::default()
    };
    (sym, sim)
}

/// Compares both engines on one design. Returns whether the design failed
/// (so callers can count refuted mutants).
fn assert_engines_agree(design: &Design, label: &str) -> bool {
    let Some(depth) = enumerable_depth(design) else {
        return false; // input space too wide for enumeration: not this suite's job
    };
    let (sym, sim) = verifiers(depth);
    let symbolic = match sym.check(design) {
        Ok(v) => v,
        Err(VerifyError::Symbolic(reason)) => {
            panic!("{label}: symbolic engine refused an archetype design: {reason}")
        }
        Err(e) => panic!("{label}: symbolic check error: {e}"),
    };
    let enumerated = sim.check(design).unwrap_or_else(|e| {
        panic!("{label}: simulation check error: {e}");
    });
    match (&symbolic, &enumerated) {
        (
            Verdict::Holds {
                exhaustive: true,
                vacuous: v_sym,
                ..
            },
            Verdict::Holds {
                exhaustive,
                vacuous: v_enum,
                ..
            },
        ) => {
            assert!(
                exhaustive,
                "{label}: enumeration must be exhaustive at depth {depth}"
            );
            assert_eq!(
                v_sym, v_enum,
                "{label}: symbolic vacuity must match the enumerated notion"
            );
            false
        }
        (Verdict::Fails(c_sym), Verdict::Fails(_)) => {
            // The symbolic counterexample must replay to its own logs.
            let trace = sym.replay(design, c_sym).expect("replay");
            let logs = failure_logs(&design.module, &trace).expect("monitor");
            assert_eq!(
                logs, c_sym.logs,
                "{label}: symbolic counterexample must replay bit-identically"
            );
            true
        }
        (s, e) => panic!("{label}: engines disagree:\n  symbolic: {s:?}\n  enumerated: {e:?}"),
    }
}

fn small_designs() -> Vec<(String, Design)> {
    let gen = CorpusGen::new(11);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(23);
    let mut out = Vec::new();
    for (i, arch) in Archetype::ALL.iter().enumerate() {
        let gd = gen.instantiate(
            *arch,
            i,
            SizeHint {
                stages: 1,
                width: 2,
            },
            &mut rng,
        );
        let design = asv_verilog::compile(&gd.source)
            .unwrap_or_else(|e| panic!("{arch}: golden source must compile: {e}"));
        out.push((format!("{arch}"), design));
    }
    out
}

#[test]
fn golden_archetypes_agree_and_hold() {
    for (label, design) in small_designs() {
        let failed = assert_engines_agree(&design, &label);
        assert!(!failed, "{label}: golden archetype design must hold");
    }
}

#[test]
fn mutated_archetypes_agree_with_enumeration() {
    let mut compared = 0usize;
    let mut refuted = 0usize;
    for (label, design) in small_designs() {
        for (mi, mutation) in asv_mutation::enumerate(&design).iter().take(5).enumerate() {
            let Ok(injection) = asv_mutation::apply(&design, mutation) else {
                continue;
            };
            let Ok(buggy) = asv_verilog::compile(&injection.buggy_source) else {
                continue; // corrupting mutations are screened elsewhere
            };
            let tag = format!("{label}/mut{mi}");
            // Mutants may legitimately divide by a mutated constant or hit
            // other out-of-subset constructs: both engines must then agree
            // to disagree (symbolic refuses, simulation decides) — that
            // path is exercised by the fallback tests in asv-sva. Here we
            // compare only in-subset mutants.
            let Some(depth) = enumerable_depth(&buggy) else {
                continue;
            };
            let (sym, _) = verifiers(depth);
            if matches!(sym.check(&buggy), Err(VerifyError::Symbolic(_))) {
                continue;
            }
            if assert_engines_agree(&buggy, &tag) {
                refuted += 1;
            }
            compared += 1;
        }
    }
    assert!(
        compared >= 20,
        "expected a meaningful mutant sample, compared only {compared}"
    );
    assert!(
        refuted >= 5,
        "expected several refuted mutants, got {refuted} of {compared}"
    );
}

/// FNV-1a over `bytes`, folded into `hash`.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Pins every symbolic outcome at the judging bounds (`Judge::fast()`
/// with the engine forced to `Symbolic`) over the 12 archetypes' goldens
/// and all their elaborating mutants. Each outcome's `Debug` form feeds
/// one digest: every counterexample's stimulus, failures and log lines,
/// every vacuous name, every error. Witnesses are canonical (the
/// lexicographically least violating input sequence), so the digest
/// moves only when a verdict or a witness does.
#[test]
fn symbolic_outcomes_at_judging_bounds_are_pinned() {
    let verifier = Verifier {
        engine: Engine::Symbolic,
        ..Judge::fast().verifier()
    };
    let gen = CorpusGen::new(0x5EED);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0x5EED);
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let (mut checked, mut refuted) = (0usize, 0usize);
    for (k, arch) in Archetype::ALL.into_iter().enumerate() {
        let gd = gen.instantiate(
            arch,
            k,
            SizeHint {
                stages: 2,
                width: 4,
            },
            &mut rng,
        );
        let golden = asv_verilog::compile(&gd.source)
            .unwrap_or_else(|e| panic!("{arch}: golden source must compile: {e}"));
        let mutants = asv_mutation::enumerate(&golden)
            .into_iter()
            .filter_map(|m| {
                let injection = asv_mutation::apply(&golden, &m).ok()?;
                asv_verilog::compile(&injection.buggy_source).ok()
            });
        for design in std::iter::once(golden.clone()).chain(mutants) {
            let outcome = verifier.check(&design);
            refuted += usize::from(matches!(outcome, Ok(Verdict::Fails(_))));
            checked += 1;
            fnv1a(&mut hash, format!("{outcome:?}").as_bytes());
        }
    }
    assert_eq!(
        (checked, refuted, hash),
        (717, 304, 0x9a3a_e182_c871_d5be),
        "symbolic outcomes moved"
    );
}

/// How a generated design's antecedent selects the branch that its
/// consequent reads.
#[derive(Debug, Clone, Copy)]
enum Ante {
    /// `s`
    One,
    /// `s && t`
    And,
    /// `t ##1 s`: the design registers `t` to select a tick later.
    Seq,
    /// `!s`
    Not,
}

/// Where the selected value lands and when the consequent reads it.
#[derive(Debug, Clone, Copy)]
enum Form {
    /// A register, read by `|-> ##1` against `$past` operands.
    Next,
    /// A register, read by `|=>` against `$past` operands.
    NonOverlapping,
    /// A combinational mux, read by `|->` in the same tick.
    Comb,
}

#[derive(Debug, Clone, Copy)]
enum Disable {
    None,
    /// `disable iff (!rst_n)`
    Reset,
    /// `disable iff (k)` on a free input, so the attempt's enable is
    /// symbolic.
    Input,
}

#[derive(Debug, Clone, Copy)]
enum Variant {
    /// The consequent expects the branch the antecedent selects.
    Holds,
    /// The consequent expects the other branch.
    Fails,
    /// The antecedent also asks for `b` above its maximum.
    Vacuous,
}

/// Binary operators of the mux branches.
const MUX_OPS: [&str; 4] = ["&", "|", "^", "+"];

/// The shape of one design of the antecedent-selected mux family.
#[derive(Debug, Clone, Copy)]
struct MuxShape {
    ante: Ante,
    form: Form,
    disable: Disable,
    variant: Variant,
    width: u32,
    /// How many ticks back the consequent's `$past` operands reach.
    past: u32,
    /// Indices into `MUX_OPS` of the selected branch and the other one.
    ops: (usize, usize),
}

impl MuxShape {
    /// The least post-reset depth at which a failing variant can fail:
    /// below it every attempt reads operands from reset frames, where
    /// inputs are zero and every branch operator yields zero. The
    /// antecedent's last atom is at tick 2 after the reset, or 3 for
    /// `t ##1 s`; a register is read a tick later, from inputs `past - 1`
    /// ticks before.
    fn fails_from_depth(&self) -> usize {
        let first_match = if matches!(self.ante, Ante::Seq) { 3 } else { 2 };
        match self.form {
            Form::Comb => first_match - 1,
            Form::Next | Form::NonOverlapping => first_match.max(self.past as usize + 1),
        }
    }
}

/// Design `i` of the antecedent-selected mux family: `if (SEL) r <=
/// f(x, y); else r <= g(x, y);` (or `assign m = SEL ? f : g;`), where
/// `SEL` is what the antecedent matches and `x`, `y` are `a`, `b` delayed
/// `past - 1` ticks, checked against the `f` (or, failing, the `g`) of
/// the `$past` operands.
fn mux_family_source(i: usize, shape: MuxShape) -> String {
    let MuxShape {
        ante,
        form,
        disable,
        variant,
        width,
        past,
        ops: (f, g),
    } = shape;
    let bus = if width == 1 {
        String::new()
    } else {
        format!("[{}:0] ", width - 1)
    };
    let mut ports = vec![
        "input clk".to_string(),
        "input rst_n".to_string(),
        "input s".to_string(),
    ];
    if matches!(ante, Ante::And | Ante::Seq) {
        ports.push("input t".into());
    }
    if matches!(disable, Disable::Input) {
        ports.push("input k".into());
    }
    ports.push(format!("input {bus}a"));
    ports.push(format!("input {bus}b"));
    let comb = matches!(form, Form::Comb);
    ports.push(if comb {
        format!("output {bus}m")
    } else {
        format!("output reg {bus}r")
    });
    let sel = match ante {
        Ante::One => "s",
        Ante::And => "s && t",
        Ante::Seq => "s && t1",
        Ante::Not => "!s",
    };
    let mut src = format!(
        "module mux{i}({});
",
        ports.join(", ")
    );
    // Registers other than `r`, with their next-state expressions.
    let mut regs: Vec<(String, String, &str)> = Vec::new();
    if matches!(ante, Ante::Seq) {
        regs.push(("t1".into(), "t".into(), ""));
    }
    let delay = if comb { 0 } else { past - 1 };
    for d in 1..=delay {
        for v in ["a", "b"] {
            let prev = if d == 1 {
                v.to_string()
            } else {
                format!("p{v}{}", d - 1)
            };
            regs.push((format!("p{v}{d}"), prev, bus.as_str()));
        }
    }
    for (name, _, w) in &regs {
        src.push_str(&format!(
            "  reg {w}{name};
"
        ));
    }
    let (x, y) = if delay == 0 {
        ("a".to_string(), "b".to_string())
    } else {
        (format!("pa{delay}"), format!("pb{delay}"))
    };
    let branch = |op: usize| format!("{x} {} {y}", MUX_OPS[op]);
    if comb {
        src.push_str(&format!(
            "  assign m = ({sel}) ? ({}) : ({});
",
            branch(f),
            branch(g)
        ));
    }
    if !comb || !regs.is_empty() {
        src.push_str(
            "  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) begin
",
        );
        if !comb {
            src.push_str(
                "      r <= 0;
",
            );
        }
        for (name, _, _) in &regs {
            src.push_str(&format!(
                "      {name} <= 0;
"
            ));
        }
        src.push_str(
            "    end else begin
",
        );
        for (name, next, _) in &regs {
            src.push_str(&format!(
                "      {name} <= {next};
"
            ));
        }
        if !comb {
            src.push_str(&format!(
                "      if ({sel}) r <= {}; else r <= {};
",
                branch(f),
                branch(g)
            ));
        }
        src.push_str(
            "    end
  end
",
        );
    }
    let never = format!("b > {width}'d{}", (1u64 << width) - 1);
    let antecedent = match (ante, matches!(variant, Variant::Vacuous)) {
        (Ante::One, false) => "s".to_string(),
        (Ante::One, true) => format!("s && {never}"),
        (Ante::And, false) => "s && t".to_string(),
        (Ante::And, true) => format!("s && t && {never}"),
        (Ante::Seq, false) => "t ##1 s".to_string(),
        (Ante::Seq, true) => format!("t ##1 (s && {never})"),
        (Ante::Not, false) => "!s".to_string(),
        (Ante::Not, true) => format!("!s && {never}"),
    };
    let op = MUX_OPS[if matches!(variant, Variant::Fails) {
        g
    } else {
        f
    }];
    let operand = |v: &str| match past {
        1 => format!("$past({v})"),
        n => format!("$past({v}, {n})"),
    };
    let body = match form {
        Form::Next => format!(
            "{antecedent} |-> ##1 r == ({} {op} {})",
            operand("a"),
            operand("b")
        ),
        Form::NonOverlapping => format!(
            "{antecedent} |=> r == ({} {op} {})",
            operand("a"),
            operand("b")
        ),
        Form::Comb => format!("{antecedent} |-> m == (a {op} b)"),
    };
    let disable = match disable {
        Disable::None => "",
        Disable::Reset => "disable iff (!rst_n) ",
        Disable::Input => "disable iff (k) ",
    };
    src.push_str(&format!(
        "  p: assert property (@(posedge clk) {disable}{body}) else $error(\"mux{i}\");\nendmodule\n"
    ));
    src
}

/// One generated design of the mux family.
struct MuxCase {
    label: String,
    design: Design,
    shape: MuxShape,
}

/// Every combination of antecedent, form, disable and variant (108
/// designs), each with a seeded width from `widths`, a `$past` depth of
/// 1–3 and two branch operators that differ as functions.
fn mux_family(seed: u64, widths: &[u32]) -> Vec<MuxCase> {
    use rand::Rng;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let mut out = Vec::new();
    for ante in [Ante::One, Ante::And, Ante::Seq, Ante::Not] {
        for form in [Form::Next, Form::NonOverlapping, Form::Comb] {
            for disable in [Disable::None, Disable::Reset, Disable::Input] {
                for variant in [Variant::Holds, Variant::Fails, Variant::Vacuous] {
                    let width = widths[rng.gen_range(0..widths.len())];
                    let past = rng.gen_range(1..=3u32);
                    let ops = loop {
                        let (f, g) = (
                            rng.gen_range(0..MUX_OPS.len()),
                            rng.gen_range(0..MUX_OPS.len()),
                        );
                        // One-bit `^` and `+` are the same function.
                        if f != g && !(width == 1 && f + g == 5) {
                            break (f, g);
                        }
                    };
                    let shape = MuxShape {
                        ante,
                        form,
                        disable,
                        variant,
                        width,
                        past,
                        ops,
                    };
                    let i = out.len();
                    let src = mux_family_source(i, shape);
                    let label = format!("mux{i} {ante:?}/{form:?}/{disable:?}/{variant:?}");
                    let design = asv_verilog::compile(&src)
                        .unwrap_or_else(|e| panic!("{label}: must compile: {e}\n{src}"));
                    out.push(MuxCase {
                        label,
                        design,
                        shape,
                    });
                }
            }
        }
    }
    out
}

/// The symbolic engine agrees with enumeration on every design of the
/// antecedent-selected mux family at one- and two-bit widths, and every
/// variant ends as designed: a failing one fails once the enumerated
/// depth lets post-reset inputs reach the consequent, and no other one
/// fails.
#[test]
fn antecedent_selected_muxes_agree_with_enumeration() {
    let mut refuted = 0;
    for case in mux_family(0xA17E, &[1, 2]) {
        let label = &case.label;
        let depth =
            enumerable_depth(&case.design).unwrap_or_else(|| panic!("{label}: must be enumerable"));
        let failed = assert_engines_agree(&case.design, label);
        let fails =
            matches!(case.shape.variant, Variant::Fails) && depth >= case.shape.fails_from_depth();
        assert_eq!(
            failed, fails,
            "{label}: unexpected verdict at depth {depth}"
        );
        refuted += usize::from(failed);
    }
    assert!(refuted >= 24, "only {refuted} failing variants failed");
}

/// Pins the `Engine::Symbolic` outcomes of the antecedent-selected mux
/// family at the judging bounds (`Judge::fast()`), at widths up to 16
/// bits, the same way as `symbolic_outcomes_at_judging_bounds_are_pinned`.
#[test]
fn antecedent_selected_mux_outcomes_at_judging_bounds_are_pinned() {
    let verifier = Verifier {
        engine: Engine::Symbolic,
        ..Judge::fast().verifier()
    };
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let (mut checked, mut refuted) = (0usize, 0usize);
    for case in mux_family(0x5EC7, &[2, 4, 8, 16]) {
        let outcome = verifier.check(&case.design);
        refuted += usize::from(matches!(outcome, Ok(Verdict::Fails(_))));
        checked += 1;
        fnv1a(&mut hash, format!("{outcome:?}").as_bytes());
    }
    assert_eq!(
        (checked, refuted, hash),
        (108, 36, 0xd931_8076_f891_02f7),
        "symbolic outcomes moved"
    );
}

#[test]
fn rare_trigger_design_is_only_refuted_symbolically() {
    // 8-bit trigger value: 1/256 per cycle under uniform random stimuli;
    // the corner-biased generator raises the odds for all-zeros/all-ones
    // but not for 0xA5. Exhaustive enumeration is impossible (2^64
    // sequences at depth 8), so before the symbolic engine this bug was
    // invisible.
    let src = r#"
module rare(input clk, input rst_n, input [7:0] a, output reg bad);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) bad <= 1'b0;
    else bad <= (a == 8'hA5);
  end
  p_rare: assert property (@(posedge clk) disable iff (!rst_n)
    a == 8'hA5 |-> ##1 !bad) else $error("rare trigger");
endmodule
"#;
    let design = asv_verilog::compile(src).expect("compile");
    let auto = Verifier {
        depth: 8,
        ..Verifier::default()
    };
    let Verdict::Fails(cex) = auto.check(&design).expect("auto verdict") else {
        panic!("Engine::Auto must refute the rare-trigger bug");
    };
    let symbolic = Verifier {
        engine: Engine::Symbolic,
        ..auto
    };
    assert_eq!(
        symbolic.check(&design),
        Ok(Verdict::Fails(cex.clone())),
        "Auto's refutation is the symbolic engine's"
    );
    let trace = auto.replay(&design, &cex).expect("replay");
    let logs = failure_logs(&design.module, &trace).expect("monitor");
    assert_eq!(logs, cex.logs, "counterexample replays bit-identically");
}
