//! Per-assertion cone hashing.
//!
//! An assertion's *cone* is exactly what a symbolic check of that
//! assertion can observe: the compiled property program, the `sym_live`
//! subset of the bytecode reachable from the program's signal roots, and
//! the design facts the unrolling schedule depends on (clock/reset
//! discipline, levelization, opt level, the signal table). Hashing the
//! cone — and nothing else — yields a key with the property incremental
//! re-verification needs: **an edit outside every assertion's cone
//! leaves every cone hash unchanged**, so a verdict keyed by cone hash
//! stays valid for a repair that edits only other logic. No verdict tier
//! keys by cone today; `asv_serve::persist::cone_outcome_key` derives
//! the store key such a tier would use.
//!
//! Hashes are computed with [`asv_ir::StableHasher`], so they are valid
//! on-disk key material across processes and platforms. Canonical forms
//! are the `Debug` renderings of the compiled bytecode and property
//! programs: these contain interned `SigId`s, op streams and tick
//! offsets but nothing positional (no source spans), and any change to
//! the bytecode shape changes the rendering — a representation change
//! auto-invalidates stale hashes instead of silently aliasing them.
//!
//! ## Why the whole signal table is included
//!
//! Rendered bytecode refers to signals by raw `SigId`. Two designs with
//! different signal sets can intern different names at the same id, so a
//! cone hash over bytecode alone could alias them. Including the full
//! `(name, width)` table in id order makes every `SigId` in the
//! rendering unambiguous. The cost is conservative invalidation — adding
//! *any* signal renumbers nothing but still changes every cone hash —
//! which is safe, and free for the repair workload, whose candidate
//! patches are expression edits that keep the signal set fixed.
//!
//! ## Soundness boundary
//!
//! A cone hash certifies a verdict only for engines whose result is a
//! function of the cone: the symbolic engine on `sym_live`-masked
//! designs. Fuzzing and sampling verdicts depend on whole-design
//! coverage feedback and RNG interleaving, so cone-keyed reuse must be
//! restricted by callers to designs that pass
//! [`crate::engine::supports`] at `OptLevel::Full` with an engine whose
//! canonical path is symbolic (as `asv_serve::persist::cone_outcome_key`
//! does). Everything else needs exact whole-design keys.

use std::hash::{Hash, Hasher};

use asv_ir::{OptLevel, StableHasher};
use asv_sim::compile::CompiledDesign;

use crate::engine::{compile_props, prop_roots, BmcError, PropSym};

/// One assertion's stable cone hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssertionCone {
    /// Directive index in `Module::assertions()` order.
    pub index: usize,
    /// `AssertDirective::log_name` (the name verdicts report).
    pub name: String,
    /// Stable 128-bit hash of the assertion's cone.
    pub hash: u128,
}

/// Mixes the design facts every cone depends on: the unrolling schedule
/// discipline, the signal table that grounds every rendered `SigId`, and
/// the failure-report identity (module name plus every directive's log
/// name and `$error` message — a `Fails` verdict's `AssertionFailure`s
/// embed all three, so leaving them out would let bit-different
/// counterexample reports alias one cone key). Including *every*
/// directive's message is
/// conservative — a message edit invalidates all cones — and sound.
fn hash_design_base(h: &mut StableHasher, cd: &CompiledDesign) {
    (cd.opt_level() == OptLevel::Full).hash(h);
    cd.is_levelized().hash(h);
    let design = cd.design();
    design.module.name.hash(h);
    design.clock().hash(h);
    design.reset().hash(h);
    for dir in design.module.assertions() {
        dir.log_name().hash(h);
        dir.message.hash(h);
    }
    let names = cd.names();
    names.len().hash(h);
    for (idx, name) in names.iter().enumerate() {
        name.hash(h);
        cd.width(asv_ir::SigId(idx as u32)).hash(h);
    }
}

/// Mixes one property's compiled program (canonical `Debug` form).
fn hash_prop(h: &mut StableHasher, prop: &PropSym) {
    format!("{prop:?}").hash(h);
}

/// Mixes the `sym_live` bytecode cone for the given masks. At
/// `OptLevel::None` the engine executes *every* step (no masking), so
/// the caller passes all-true masks and the hash covers the whole
/// design — conservative and sound.
fn hash_live_steps(h: &mut StableHasher, cd: &CompiledDesign, live: &(Vec<bool>, Vec<bool>)) {
    let (comb_live, seq_live) = live;
    for (step, _) in cd.comb_steps().iter().zip(comb_live).filter(|(_, &l)| l) {
        format!("{step:?}").hash(h);
    }
    // Domain separator: a comb step can never alias a seq block even if
    // their renderings coincide.
    h.write_u8(0xfe);
    for (block, _) in cd.seq_blocks().iter().zip(seq_live).filter(|(_, &l)| l) {
        format!("{block:?}").hash(h);
    }
}

/// The live masks the engine would use for these roots: `sym_live` at
/// `OptLevel::Full`, everything-live otherwise (mirrors the gate in
/// `engine::check_budgeted`).
fn live_masks(cd: &CompiledDesign, props: &[PropSym]) -> (Vec<bool>, Vec<bool>) {
    if cd.opt_level() == OptLevel::Full {
        cd.sym_live(&prop_roots(props))
    } else {
        (
            vec![true; cd.comb_steps().len()],
            vec![true; cd.seq_blocks().len()],
        )
    }
}

/// Computes every assertion's cone hash, in directive order.
///
/// # Errors
///
/// [`BmcError`] when a directive references an unknown property — the
/// same designs `engine::check` rejects before its first SAT call.
pub fn assertion_cones(cd: &CompiledDesign) -> Result<Vec<AssertionCone>, BmcError> {
    let props = compile_props(cd)?;
    let mut cones = Vec::with_capacity(props.len());
    for (index, prop) in props.iter().enumerate() {
        let single = std::slice::from_ref(prop);
        let mut h = StableHasher::with_domain("asv-cone-assertion");
        hash_design_base(&mut h, cd);
        hash_prop(&mut h, prop);
        hash_live_steps(&mut h, cd, &live_masks(cd, single));
        cones.push(AssertionCone {
            index,
            name: prop.name.clone(),
            hash: h.finish128(),
        });
    }
    Ok(cones)
}

/// The whole-job cone hash: every property plus the union of their
/// cones. Invariant under edits outside *all* assertion cones, so a
/// complete multi-assertion job can be cone-keyed
/// (`asv_serve::persist::cone_outcome_key`), not just one assertion.
///
/// # Errors
///
/// As [`assertion_cones`].
pub fn design_cone_hash(cd: &CompiledDesign) -> Result<u128, BmcError> {
    let props = compile_props(cd)?;
    let mut h = StableHasher::with_domain("asv-cone-design");
    hash_design_base(&mut h, cd);
    props.len().hash(&mut h);
    for prop in &props {
        hash_prop(&mut h, prop);
    }
    hash_live_steps(&mut h, cd, &live_masks(cd, &props));
    Ok(h.finish128())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compiled(src: &str) -> CompiledDesign {
        let d = asv_verilog::compile(src).expect("compile");
        CompiledDesign::compile(&d)
    }

    /// Two independent registers, one assertion each: `p_a` observes only
    /// the `a`-cone, `p_b` only the `b`-cone.
    fn two_cones(a_rhs: &str, b_rhs: &str) -> String {
        format!(
            r#"
module two(input clk, input rst, input da, input db,
           output reg qa, output reg qb);
  always @(posedge clk) begin
    if (rst) qa <= 1'b0;
    else qa <= {a_rhs};
  end
  always @(posedge clk) begin
    if (rst) qb <= 1'b0;
    else qb <= {b_rhs};
  end
  property pa; @(posedge clk) disable iff (rst) da |-> ##1 qa; endproperty
  property pb; @(posedge clk) disable iff (rst) db |-> ##1 qb; endproperty
  p_a: assert property (pa);
  p_b: assert property (pb);
endmodule
"#
        )
    }

    #[test]
    fn hashes_are_deterministic() {
        let cd1 = compiled(&two_cones("da", "db"));
        let cd2 = compiled(&two_cones("da", "db"));
        assert_eq!(
            assertion_cones(&cd1).unwrap(),
            assertion_cones(&cd2).unwrap()
        );
        assert_eq!(
            design_cone_hash(&cd1).unwrap(),
            design_cone_hash(&cd2).unwrap()
        );
    }

    #[test]
    fn distinct_assertions_hash_distinctly() {
        let cones = assertion_cones(&compiled(&two_cones("da", "db"))).unwrap();
        assert_eq!(cones.len(), 2);
        assert_eq!(cones[0].name, "p_a");
        assert_eq!(cones[1].name, "p_b");
        assert_ne!(cones[0].hash, cones[1].hash);
    }

    #[test]
    fn edit_inside_one_cone_moves_exactly_that_hash() {
        let base = assertion_cones(&compiled(&two_cones("da", "db"))).unwrap();
        let edited = assertion_cones(&compiled(&two_cones("da", "!db"))).unwrap();
        assert_eq!(base[0], edited[0], "a-cone untouched by a b-cone edit");
        assert_ne!(base[1].hash, edited[1].hash, "b-cone edit must move p_b");
        // The whole-design hash moves with any in-cone edit.
        assert_ne!(
            design_cone_hash(&compiled(&two_cones("da", "db"))).unwrap(),
            design_cone_hash(&compiled(&two_cones("da", "!db"))).unwrap()
        );
    }

    #[test]
    fn edit_outside_every_cone_moves_no_hash() {
        // Dead logic over existing signals: no new names, outside both
        // assertion cones.
        let with_dead = |expr: &str| {
            two_cones("da", "db").replace(
                "endmodule",
                &format!("  wire dead_probe;\n  assign dead_probe = {expr};\nendmodule"),
            )
        };
        let x = assertion_cones(&compiled(&with_dead("da & db"))).unwrap();
        let y = assertion_cones(&compiled(&with_dead("da | db"))).unwrap();
        assert_eq!(x, y, "dead-logic edit must not move any cone hash");
        assert_eq!(
            design_cone_hash(&compiled(&with_dead("da & db"))).unwrap(),
            design_cone_hash(&compiled(&with_dead("da | db"))).unwrap()
        );
    }

    #[test]
    fn signal_table_grounds_sigids() {
        // Same bytecode shape, different signal set ⇒ different hashes
        // (the table is part of the material, so renumbered SigIds can
        // never alias).
        let base = two_cones("da", "db");
        let extra = base.replace("endmodule", "  wire pad;\n  assign pad = 1'b0;\nendmodule");
        let a = assertion_cones(&compiled(&base)).unwrap();
        let b = assertion_cones(&compiled(&extra)).unwrap();
        assert_ne!(a[0].hash, b[0].hash);
        assert_ne!(a[1].hash, b[1].hash);
    }

    #[test]
    fn failure_report_identity_is_key_material() {
        // A `Fails` verdict embeds the module name and the directive's
        // `$error` message; both must move the cone hash.
        let base = two_cones("da", "db");
        let renamed = base.replace("module two(", "module renamed(");
        assert_ne!(
            design_cone_hash(&compiled(&base)).unwrap(),
            design_cone_hash(&compiled(&renamed)).unwrap()
        );
        let messaged = base.replace(
            "p_a: assert property (pa);",
            "p_a: assert property (pa) else $error(\"boom\");",
        );
        let a = assertion_cones(&compiled(&base)).unwrap();
        let b = assertion_cones(&compiled(&messaged)).unwrap();
        assert_ne!(a[0].hash, b[0].hash);
    }

    #[test]
    fn opt_levels_never_alias() {
        let d = asv_verilog::compile(&two_cones("da", "db")).unwrap();
        let full = CompiledDesign::compile_opt(&d, OptLevel::Full);
        let none = CompiledDesign::compile_opt(&d, OptLevel::None);
        let fh = assertion_cones(&full).unwrap();
        let nh = assertion_cones(&none).unwrap();
        assert_ne!(fh[0].hash, nh[0].hash);
        assert_ne!(
            design_cone_hash(&full).unwrap(),
            design_cone_hash(&none).unwrap()
        );
    }
}
