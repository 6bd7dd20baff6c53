//! Cone-hash stability across **all 12 datagen archetypes**: the key
//! material incremental re-verification needs. An edit outside every
//! assertion's cone moves no cone hash, and an injected bug whose
//! mutant keeps every cone hash keeps its symbolic verdict too.

use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_mutation::inject::{apply, enumerate};
use asv_sat::cone::{assertion_cones, design_cone_hash};
use asv_sim::compile::CompiledDesign;
use asv_sva::bmc::Verifier;

/// Appends dead logic (a probe wire over constants) before `endmodule`.
/// Both variants declare the same probe, so the signal table is
/// identical and the only difference is *inside* the dead logic — an
/// edit outside every assertion's cone.
fn with_dead_logic(src: &str, expr: &str) -> String {
    src.replace(
        "endmodule",
        &format!("  wire cone_probe;\n  assign cone_probe = {expr};\nendmodule"),
    )
}

#[test]
fn out_of_cone_edits_move_no_hash_across_all_archetypes() {
    let designs = CorpusGen::new(0x14C0_u64).generate(Archetype::ALL.len());
    let mut archetypes_seen = std::collections::BTreeSet::new();
    let mut checked = 0usize;
    for gd in &designs {
        archetypes_seen.insert(gd.archetype.to_string());
        let a = with_dead_logic(&gd.source, "1'b0");
        let b = with_dead_logic(&gd.source, "1'b1");
        let (Ok(da), Ok(db)) = (asv_verilog::compile(&a), asv_verilog::compile(&b)) else {
            panic!("{}: probe-augmented golden must compile", gd.name);
        };
        let (ca, cb) = (CompiledDesign::compile(&da), CompiledDesign::compile(&db));
        let (Ok(ha), Ok(hb)) = (assertion_cones(&ca), assertion_cones(&cb)) else {
            continue; // out of the symbolic subset: no cone keys exist
        };
        assert_eq!(
            ha, hb,
            "{}: a dead-logic edit moved an assertion cone hash",
            gd.name
        );
        assert_eq!(
            design_cone_hash(&ca).unwrap(),
            design_cone_hash(&cb).unwrap(),
            "{}: a dead-logic edit moved the design cone hash",
            gd.name
        );
        checked += 1;
    }
    assert_eq!(
        archetypes_seen.len(),
        Archetype::ALL.len(),
        "fixture must cover all 12 archetypes"
    );
    assert!(
        checked >= Archetype::ALL.len() / 2,
        "most archetypes must be cone-hashable (got {checked})"
    );
}

#[test]
fn injected_bugs_move_at_least_one_cone_hash() {
    let designs = CorpusGen::new(0xB06_u64).generate(Archetype::ALL.len());
    let mut moved = 0usize;
    for gd in &designs {
        let golden = asv_verilog::compile(&gd.source).expect("golden compiles");
        let cg = CompiledDesign::compile(&golden);
        let Ok(golden_cones) = assertion_cones(&cg) else {
            continue;
        };
        let Some(mutant) = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            asv_verilog::compile(&injection.buggy_source).ok()
        }) else {
            continue;
        };
        let cm = CompiledDesign::compile(&mutant);
        let Ok(mutant_cones) = assertion_cones(&cm) else {
            continue;
        };
        if golden_cones != mutant_cones {
            moved += 1;
        } else if asv_sat::engine::supports(&cg).is_ok() {
            // Same cone hashes must mean same symbolic result: an
            // injected bug invisible to every cone must be invisible to
            // the engine cone keys certify. (Out-of-subset designs are
            // excluded — fuzzing legitimately observes non-cone logic,
            // which is exactly why they never get cone keys.)
            let v = Verifier {
                depth: 8,
                reset_cycles: 2,
                ..Verifier::default()
            };
            assert_eq!(
                v.check(&golden).map(|x| x.is_failure()),
                v.check(&mutant).map(|x| x.is_failure()),
                "{}: cone hashes agree but verdicts differ",
                gd.name
            );
        }
    }
    assert!(
        moved > 0,
        "at least some injected bugs must land inside an assertion cone"
    );
}
