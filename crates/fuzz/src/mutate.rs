//! Stimulus mutation engine.
//!
//! Mutations operate on [`Stimulus`] input vectors, never touching the
//! reset prologue or the reset signal itself, so every child remains a
//! well-formed run of the same depth. All randomness flows through the
//! caller's seeded RNG: a fuzzing campaign is a pure function of its seed.

use asv_sim::compile::CompiledDesign;
use asv_sim::stimulus::Stimulus;
use asv_sim::StimulusGen;
use asv_verilog::ast::{AssertTarget, Expr, PropExpr, PropertyDecl, SeqExpr};
use rand::rngs::StdRng;
use rand::Rng;

/// Harvests every constant appearing in the compiled design's bytecode
/// *and* its SVA properties — comparison magic numbers, case labels,
/// reset values, antecedent triggers. Substituting these into stimuli
/// (the AFL "dictionary" technique) is what lets the fuzzer hit
/// `a == 8'hA5`-style triggers that uniform sampling has a `2^-width`
/// chance of finding per draw. Property constants matter even when the
/// design body never mentions them: an antecedent like `a == 16'hBEEF`
/// must fire for the assertion to be exercised non-vacuously.
pub fn design_dictionary(compiled: &CompiledDesign) -> Vec<u64> {
    // Bytecode constants were recorded at compile time, from the same
    // programs the simulator runs.
    let mut dict: Vec<u64> = compiled.dict_consts().to_vec();
    let module = &compiled.design().module;
    for prop in module.properties() {
        harvest_property(prop, &mut dict);
    }
    for dir in module.assertions() {
        if let AssertTarget::Inline(p) = &dir.target {
            harvest_property(p, &mut dict);
        }
    }
    dict.sort_unstable();
    dict.dedup();
    dict
}

fn harvest_property(prop: &PropertyDecl, dict: &mut Vec<u64>) {
    if let Some(d) = &prop.disable {
        harvest_expr(d, dict);
    }
    match &prop.body {
        PropExpr::Seq(s) => harvest_seq(s, dict),
        PropExpr::Implication {
            antecedent,
            consequent,
            ..
        } => {
            harvest_seq(antecedent, dict);
            harvest_seq(consequent, dict);
        }
    }
}

fn harvest_seq(seq: &SeqExpr, dict: &mut Vec<u64>) {
    match seq {
        SeqExpr::Expr(e) => harvest_expr(e, dict),
        SeqExpr::Delay { lhs, rhs, .. } => {
            harvest_seq(lhs, dict);
            harvest_seq(rhs, dict);
        }
    }
}

fn harvest_expr(e: &Expr, dict: &mut Vec<u64>) {
    match e {
        Expr::Number { value, .. } => dict.push(*value),
        Expr::Ident { .. } | Expr::Part { .. } => {}
        Expr::Unary { operand, .. } => harvest_expr(operand, dict),
        Expr::Binary { lhs, rhs, .. } => {
            harvest_expr(lhs, dict);
            harvest_expr(rhs, dict);
        }
        Expr::Ternary {
            cond,
            then_expr,
            else_expr,
            ..
        } => {
            harvest_expr(cond, dict);
            harvest_expr(then_expr, dict);
            harvest_expr(else_expr, dict);
        }
        Expr::Concat { parts, .. } => parts.iter().for_each(|p| harvest_expr(p, dict)),
        Expr::Repeat { count, value, .. } => {
            harvest_expr(count, dict);
            harvest_expr(value, dict);
        }
        Expr::Bit { index, .. } => harvest_expr(index, dict),
        Expr::SysCall { args, .. } => args.iter().for_each(|a| harvest_expr(a, dict)),
    }
}

fn mask(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// The deterministic stimulus mutator for one design.
#[derive(Debug, Clone)]
pub struct Mutator {
    /// Free (non-clock, non-reset) inputs: `(name, width)`.
    inputs: Vec<(String, u32)>,
    reset_cycles: usize,
    dict: Vec<u64>,
}

impl Mutator {
    /// Builds a mutator for `compiled`, harvesting its constant
    /// dictionary. `reset_cycles` cycles at the head of every stimulus
    /// are left untouched.
    pub fn new(compiled: &CompiledDesign, reset_cycles: usize) -> Self {
        let gen = StimulusGen::new(compiled.design());
        Mutator {
            inputs: gen.free_inputs().to_vec(),
            reset_cycles,
            dict: design_dictionary(compiled),
        }
    }

    /// The harvested constant dictionary.
    pub fn dictionary(&self) -> &[u64] {
        &self.dict
    }

    /// Applies 1–3 random mutation operators to `stim` in place. A no-op
    /// for designs without free inputs.
    pub fn mutate(&self, stim: &mut Stimulus, rng: &mut StdRng) {
        if self.inputs.is_empty() || stim.len() <= self.reset_cycles {
            return;
        }
        let ops = 1 + rng.gen::<u64>() % 3;
        for _ in 0..ops {
            self.mutate_once(stim, rng);
        }
    }

    fn mutate_once(&self, stim: &mut Stimulus, rng: &mut StdRng) {
        let t = self.pick_cycle(stim, rng);
        let k = (rng.gen::<u64>() % self.inputs.len() as u64) as usize;
        let (name, width) = (&self.inputs[k].0, self.inputs[k].1);
        match rng.gen::<u64>() % 8 {
            // Single-bit flip.
            0 => self.update(stim, t, name, |v| {
                v ^ (1 << (rng.gen::<u64>() % u64::from(width)))
            }),
            // Whole-word randomisation.
            1 => {
                let nv = rng.gen::<u64>() & mask(width);
                self.update(stim, t, name, |_| nv);
            }
            // Corner-value substitution (the PR-1 bias table, extended).
            2 => {
                let c = corner(width, rng);
                self.update(stim, t, name, |_| c);
            }
            // Design-dictionary substitution.
            3 => {
                let d = if self.dict.is_empty() {
                    corner(width, rng)
                } else {
                    self.dict[(rng.gen::<u64>() % self.dict.len() as u64) as usize] & mask(width)
                };
                self.update(stim, t, name, |_| d);
            }
            // Duplicate cycle `t` onto `t + 1` (all free inputs), growing
            // runs of repeated values — e.g. back-to-back trigger hits.
            4 => {
                if t + 1 < stim.len() {
                    self.copy_cycle(stim, t, t + 1);
                }
            }
            // Splice: copy a short segment over another position.
            5 => {
                let span = 1 + (rng.gen::<u64>() % 4) as usize;
                let d = self.pick_cycle(stim, rng);
                for i in 0..span {
                    if t + i < stim.len() && d + i < stim.len() {
                        self.copy_cycle(stim, t + i, d + i);
                    }
                }
            }
            // Truncate-style: zero every free input from `t` to the end.
            6 => {
                for u in t..stim.len() {
                    for (n, _) in &self.inputs {
                        self.update(stim, u, n, |_| 0);
                    }
                }
            }
            // Small arithmetic perturbation.
            _ => {
                let delta = 1 + rng.gen::<u64>() % 4;
                let add = rng.gen::<u64>() & 1 == 0;
                self.update(stim, t, name, |v| {
                    if add {
                        v.wrapping_add(delta) & mask(width)
                    } else {
                        v.wrapping_sub(delta) & mask(width)
                    }
                });
            }
        }
    }

    /// Two-parent crossover at a cycle boundary after the reset prologue.
    pub fn crossover(&self, a: &Stimulus, b: &Stimulus, rng: &mut StdRng) -> Stimulus {
        let len = a.len().min(b.len());
        if len <= self.reset_cycles + 1 {
            return a.clone();
        }
        let span = (len - self.reset_cycles - 1) as u64;
        let cut = self.reset_cycles + 1 + (rng.gen::<u64>() % span) as usize;
        let mut vectors = a.vectors[..cut].to_vec();
        vectors.extend_from_slice(&b.vectors[cut..len]);
        Stimulus {
            vectors,
            reset_cycles: a.reset_cycles,
        }
    }

    fn pick_cycle(&self, stim: &Stimulus, rng: &mut StdRng) -> usize {
        let span = (stim.len() - self.reset_cycles) as u64;
        self.reset_cycles + (rng.gen::<u64>() % span) as usize
    }

    fn update(&self, stim: &mut Stimulus, t: usize, name: &str, f: impl FnOnce(u64) -> u64) {
        if let Some(entry) = stim.vectors[t].iter_mut().find(|(n, _)| n == name) {
            entry.1 = f(entry.1);
        }
    }

    fn copy_cycle(&self, stim: &mut Stimulus, from: usize, to: usize) {
        for k in 0..self.inputs.len() {
            let name = &self.inputs[k].0;
            let v = stim.vectors[from]
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v);
            if let Some(v) = v {
                self.update(stim, to, name, |_| v);
            }
        }
    }
}

/// Draws one corner value for a `width`-bit input: all-zeros, all-ones
/// (the PR-1 bias table), plus 1, max-1, alternating patterns and the
/// sign bit.
fn corner(width: u32, rng: &mut StdRng) -> u64 {
    let m = mask(width);
    let corners = [
        0,
        m,
        1 & m,
        m.wrapping_sub(1) & m,
        0x5555_5555_5555_5555 & m,
        0xAAAA_AAAA_AAAA_AAAA & m,
        (1u64 << (width - 1).min(63)) & m,
    ];
    corners[(rng.gen::<u64>() % corners.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::Arc;

    const RARE: &str = "module r(input clk, input rst_n, input [7:0] a, output reg hit);\n\
         always @(posedge clk or negedge rst_n) begin\n\
           if (!rst_n) hit <= 1'b0; else hit <= (a == 8'hA5);\n\
         end\nendmodule";

    fn compiled(src: &str) -> Arc<CompiledDesign> {
        Arc::new(CompiledDesign::compile(
            &asv_verilog::compile(src).expect("compile"),
        ))
    }

    #[test]
    fn dictionary_harvests_magic_constants() {
        let cd = compiled(RARE);
        let dict = design_dictionary(&cd);
        assert!(dict.contains(&0xA5), "comparison constant: {dict:?}");
        assert!(dict.contains(&0), "reset constant: {dict:?}");
    }

    #[test]
    fn mutations_preserve_shape_and_reset() {
        let cd = compiled(RARE);
        let gen = StimulusGen::new(cd.design());
        let m = Mutator::new(&cd, 2);
        let base = gen.random_seeded(8, 2, 1);
        let mut rng = StdRng::seed_from_u64(9);
        let mut stim = base.clone();
        for _ in 0..200 {
            m.mutate(&mut stim, &mut rng);
            assert_eq!(stim.len(), base.len(), "length is invariant");
            for t in 0..2 {
                assert_eq!(stim.vectors[t], base.vectors[t], "reset prologue untouched");
            }
            for t in 0..stim.len() {
                for (n, v) in &stim.vectors[t] {
                    if n == "a" {
                        assert!(*v <= 0xFF, "values stay masked to width");
                    }
                    if n == "rst_n" {
                        let expect = u64::from(t >= 2);
                        assert_eq!(*v, expect, "reset signal never mutated");
                    }
                }
            }
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let cd = compiled(RARE);
        let gen = StimulusGen::new(cd.design());
        let m = Mutator::new(&cd, 2);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = gen.random_seeded(8, 2, 1);
            for _ in 0..50 {
                m.mutate(&mut s, &mut rng);
            }
            s
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn crossover_mixes_parents_at_a_boundary() {
        let cd = compiled(RARE);
        let gen = StimulusGen::new(cd.design());
        let m = Mutator::new(&cd, 2);
        let a = gen.random_seeded(8, 2, 1);
        let b = gen.random_seeded(8, 2, 2);
        let mut rng = StdRng::seed_from_u64(5);
        let child = m.crossover(&a, &b, &mut rng);
        assert_eq!(child.len(), a.len());
        assert_eq!(child.vectors[0], a.vectors[0]);
        assert_eq!(child.vectors[child.len() - 1], b.vectors[b.len() - 1]);
    }

    #[test]
    fn inputless_designs_are_untouched() {
        let cd = compiled(
            "module t(input clk, output reg [3:0] q);\n\
             always @(posedge clk) q <= q + 4'd1;\nendmodule",
        );
        let gen = StimulusGen::new(cd.design());
        let m = Mutator::new(&cd, 1);
        let base = gen.random_seeded(6, 1, 1);
        let mut s = base.clone();
        let mut rng = StdRng::seed_from_u64(1);
        m.mutate(&mut s, &mut rng);
        assert_eq!(s, base);
    }
}
