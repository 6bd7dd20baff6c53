//! Cross-crate property tests on substrate invariants.

use asv_datagen::corpus::{Archetype, CorpusGen, SizeHint};
use asv_mutation::inject::first_diff_line;
use asv_mutation::repairspace::{candidates, golden_candidates, matches_golden};
use asv_mutation::sites::transform_site;
use asv_mutation::{InjectError, Mutation};
use asv_verilog::pretty::render_module;
use asv_verilog::Design;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `design` with `m` applied, rendered in full: the oracle for the spliced
/// single-line edits.
fn rerender(design: &Design, m: &Mutation) -> String {
    let mutated = transform_site(&design.module, m.site_id, |e| {
        m.edit.rewrite(e).expect("the edit fits its site")
    })
    .expect("the site exists");
    render_module(&mutated)
}

/// Every candidate and every injection of `design` equals the full
/// re-render of its mutated module, and its line triple is the first line
/// where the two full renders differ.
fn check_splices(design: &Design, name: &str) -> Result<(), TestCaseError> {
    let golden = render_module(&design.module);
    let cands = candidates(design);
    for (i, c) in cands.iter().enumerate() {
        let full = rerender(design, &c.mutation);
        prop_assert_eq!(
            c.patched_source(),
            full.clone(),
            "{}: {}",
            name,
            c.describe()
        );
        prop_assert_eq!(
            first_diff_line(&golden, &full),
            Some((c.line_no, c.old_line.clone(), c.new_line.clone())),
            "{}: {}",
            name,
            c.describe()
        );
        prop_assert!(
            golden_candidates(&cands, &full).contains(&i),
            "{}: {}",
            name,
            c.describe()
        );
    }
    for m in asv_mutation::enumerate(design) {
        let full = rerender(design, &m);
        match asv_mutation::apply(design, &m) {
            Ok(inj) => {
                prop_assert_eq!(&inj.golden_source, &golden, "{}", name);
                prop_assert_eq!(&inj.buggy_source, &full, "{}: {}", name, m.description);
                prop_assert_eq!(
                    first_diff_line(&golden, &full),
                    Some((inj.line_no, inj.fixed_line, inj.buggy_line)),
                    "{}: {}",
                    name,
                    m.description
                );
            }
            Err(e) => {
                prop_assert_eq!(e, InjectError::NoOp, "{}: {}", name, m.description);
                prop_assert_eq!(&full, &golden, "{}: {}", name, m.description);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated corpus design compiles and canonically round-trips.
    #[test]
    fn corpus_designs_compile_and_roundtrip(seed in 0u64..500, arch_idx in 0usize..12, stages in 1u32..6) {
        let gen = CorpusGen::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = gen.instantiate(
            Archetype::ALL[arch_idx],
            seed as usize,
            SizeHint { stages, width: 4 },
            &mut rng,
        );
        let design = asv_verilog::compile(&d.source).expect("corpus design compiles");
        let rendered = render_module(&design.module);
        let re = asv_verilog::compile(&rendered).expect("canonical render compiles");
        prop_assert_eq!(rendered, render_module(&re.module), "render is a fixpoint");
    }

    /// The repair space is closed under inversion: injecting any bug into a
    /// golden design leaves the inverse edit among the buggy design's
    /// candidates.
    #[test]
    fn repair_space_contains_inverse(seed in 0u64..200, arch_idx in 0usize..12) {
        let gen = CorpusGen::new(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let d = gen.instantiate(
            Archetype::ALL[arch_idx],
            seed as usize,
            SizeHint { stages: 2, width: 4 },
            &mut rng,
        );
        let golden = asv_verilog::compile(&d.source).expect("compile");
        let golden_src = render_module(&golden.module);
        let muts = asv_mutation::enumerate(&golden);
        // Sample a handful of mutations per case to bound runtime.
        for m in muts.iter().step_by(7).take(4) {
            let Ok(inj) = asv_mutation::apply(&golden, m) else { continue };
            let Ok(buggy) = asv_verilog::compile(&inj.buggy_source) else { continue };
            let cands = candidates(&buggy);
            prop_assert!(
                cands.iter().any(|c| matches_golden(c, &golden_src)),
                "no inverse for `{}` in {}",
                m.description,
                d.name
            );
        }
    }

    /// Simulation is deterministic: identical stimulus sequences produce
    /// identical traces.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..200) {
        let gen = CorpusGen::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = gen.instantiate(
            Archetype::Counter,
            seed as usize,
            SizeHint { stages: 2, width: 4 },
            &mut rng,
        );
        let design = asv_verilog::compile(&d.source).expect("compile");
        let sg = asv_sim::StimulusGen::new(&design);
        let stim = sg.random_seeded(12, 2, seed);
        let run = || {
            let mut sim = asv_sim::Simulator::new(&design);
            for t in 0..stim.len() {
                sim.step(&stim.cycle(t)).expect("step");
            }
            sim.into_trace()
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Render-once splicing equals the full re-render, for every candidate
    /// and injection of the golden designs of all 12 archetypes and of
    /// mutants injected into them, over seeds and sizes.
    #[test]
    fn spliced_edits_equal_full_rerender(seed in 0u64..1000, stages in 1u32..5) {
        for (k, arch) in Archetype::ALL.into_iter().enumerate() {
            let gen = CorpusGen::new(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ k as u64);
            let d = gen.instantiate(arch, seed as usize, SizeHint { stages, width: 4 }, &mut rng);
            let golden = asv_verilog::compile(&d.source).expect("corpus design compiles");
            check_splices(&golden, &d.name)?;
            for m in asv_mutation::enumerate(&golden).iter().step_by(13).take(2) {
                let Ok(inj) = asv_mutation::apply(&golden, m) else { continue };
                let Ok(mutant) = asv_verilog::compile(&inj.buggy_source) else { continue };
                check_splices(&mutant, &format!("{} with `{}`", d.name, m.description))?;
            }
        }
    }
}
