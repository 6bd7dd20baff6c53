//! Keys and admission rules for persisting job outcomes in `asv-store`.
//!
//! The service itself keeps no disk tier: its in-memory memo is its only
//! verdict tier. This module holds what a caller that persists outcomes
//! in an [`ArtifactStore`](asv_store::ArtifactStore) needs: admission
//! ([`to_persisted`]) that accepts exactly what the memo accepts, and
//! two kinds of process-stable key.
//!
//! * **Exact keys** ([`exact_outcome_key`]) fingerprint the whole job —
//!   the rendered module, its parameters, and the complete [`Verifier`]
//!   configuration — with [`StableHasher`], the workspace's
//!   process-stable hash. Any job may be stored and looked up under its
//!   exact key; two jobs share one iff they are byte-equivalent work.
//! * **Cone keys** ([`cone_outcome_key`]) fingerprint only what a
//!   *symbolic* verdict can observe: the design's assertion-cone hash
//!   ([`asv_sat::cone::design_cone_hash`]) plus the unrolling depth and
//!   reset protocol. They exist so a candidate repair that edits logic
//!   *outside* every assertion cone can re-use a stored verdict.
//!
//! ## Cone-key soundness
//!
//! A cone key certifies a verdict only when the verdict is a pure
//! function of the cone. Three gates enforce that:
//!
//! 1. **Eligibility** — the job must be one whose canonical verdict is
//!    the symbolic engine's: `OptLevel::Full`, an engine whose decision
//!    rule is symbolic-first ([`Engine::Auto`] / [`Engine::Symbolic`]),
//!    and a design inside the symbolic subset
//!    ([`asv_sat::engine::supports`]). Fuzz and enumeration verdicts
//!    depend on whole-design coverage feedback and budgets, never on the
//!    cone alone.
//! 2. **Shape** ([`symbolic_shaped`]) — only outcomes the symbolic
//!    engine itself produces are persisted under a cone key: `Fails`
//!    counterexamples and exhaustive `Holds { stimuli: 0 }` proofs. An
//!    eligible Auto job that *degraded* (symbolic rung exhausted its
//!    budget, enumeration answered instead) yields a cacheable verdict
//!    whose metadata differs from the symbolic one — it goes under the
//!    exact key only, so a warm cone hit is always bit-identical to a
//!    cold symbolic solve.
//! 3. **Key material** — the cone hash includes the full signal table,
//!    the module/directive identity a `Fails` report embeds, and the
//!    clock/reset/opt facts (see `asv_sat::cone`); depth and
//!    reset-cycles are mixed here. Verifier knobs that cannot influence
//!    a symbolic verdict (seed, fuzz budget, enumeration limit) are
//!    deliberately *excluded*, so e.g. an Auto job with a different seed
//!    warm-hits a stored verdict — sound because the symbolic engine
//!    never reads those knobs.

use crate::job::{JobOutcome, VerdictError, VerifyJob};
use asv_ir::StableHasher;
use asv_sim::{CompiledDesign, OptLevel};
use asv_store::{ArtifactKind, PersistedOutcome, StoreKey};
use asv_sva::bmc::{Engine, Verdict, Verifier};
use std::hash::Hash;

/// The exact (whole-job) store key for a job's outcome.
///
/// Unlike [`VerifyJob::key`] (a `DefaultHasher` fingerprint of the
/// module's AST, valid only within one process), this key is derived
/// with [`StableHasher`] over the *rendered* module. A rendering is
/// plain text, so its hash is stable across processes and builds and can
/// name on-disk artifacts; the derived `Hash` of an AST promises no such
/// stability. The store key embeds `SCHEMA_VERSION`, so a codec change
/// retires every old entry wholesale.
pub fn exact_outcome_key(job: &VerifyJob) -> StoreKey {
    let design = job.design();
    let mut h = StableHasher::with_domain("asv-serve-exact");
    asv_verilog::pretty::render_module(&design.module).hash(&mut h);
    for (name, value) in &design.params {
        name.hash(&mut h);
        value.hash(&mut h);
    }
    job.verifier().hash(&mut h);
    StoreKey::exact(ArtifactKind::Outcome, h.finish128())
}

/// Whether `verifier` admits cone keys at all: `OptLevel::Full` and a
/// symbolic-first engine (the first gate, short of the design's own
/// `supports` check).
fn cone_eligible(verifier: &Verifier) -> bool {
    verifier.opt == OptLevel::Full && matches!(verifier.engine, Engine::Auto | Engine::Symbolic)
}

/// The cone hash of a design's `OptLevel::Full` lowering, or `None` when
/// the design is outside the symbolic subset.
fn design_cone_hash(cd: &CompiledDesign) -> Option<u128> {
    asv_sat::engine::supports(cd).ok()?;
    asv_sat::cone::design_cone_hash(cd).ok()
}

/// The cone store key of a cone-eligible `job` whose design has cone hash
/// `design` ([`design_cone_hash`]).
fn cone_store_key(job: &VerifyJob, design: u128) -> StoreKey {
    let verifier = job.verifier();
    let mut h = StableHasher::with_domain("asv-serve-cone");
    design.hash(&mut h);
    verifier.depth.hash(&mut h);
    verifier.reset_cycles.hash(&mut h);
    StoreKey::cone(ArtifactKind::Outcome, h.finish128())
}

/// The cone store key for a job's outcome, or `None` when the job is
/// not cone-eligible (see the module docs for the soundness gates).
///
/// Lowers the design through the process-wide [`asv_sim::cache`] and
/// drops the lowering, which the cache does not keep.
pub fn cone_outcome_key(job: &VerifyJob) -> Option<StoreKey> {
    let verifier = job.verifier();
    if !cone_eligible(verifier) {
        return None;
    }
    let cd = asv_sim::cache::global().get_or_compile_opt(job.design(), verifier.opt);
    design_cone_hash(&cd).map(|design| cone_store_key(job, design))
}

/// True when `outcome` is shaped like a symbolic verdict: a
/// counterexample, or an exhaustive proof with no enumerated stimuli.
/// Only such outcomes may be persisted under a cone key.
pub fn symbolic_shaped(outcome: &JobOutcome) -> bool {
    matches!(
        outcome,
        Ok(Verdict::Fails(_)) | Ok(Verdict::Holds { stimuli: 0, .. })
    )
}

/// Converts a job outcome into its persistable form. `None` for
/// outcomes outside the deterministic subset (inconclusive verdicts,
/// panics, cancellations, budget exhaustion) — exactly the outcomes the
/// in-memory memo also refuses.
pub fn to_persisted(outcome: &JobOutcome) -> Option<PersistedOutcome> {
    match outcome {
        Ok(v) => PersistedOutcome::admit(&Ok(v.clone())),
        Err(VerdictError::Verify(e)) => PersistedOutcome::admit(&Err(e.clone())),
        Err(_) => None,
    }
}

/// Re-inflates a stored outcome into the service's job-outcome type.
pub fn from_persisted(stored: PersistedOutcome) -> JobOutcome {
    stored.into_result().map_err(VerdictError::Verify)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sim::cancel::{Exhausted, Resource};
    use asv_sva::bmc::{Verifier, VerifyError};

    fn job(src: &str, verifier: Verifier) -> VerifyJob {
        VerifyJob::new(asv_verilog::compile(src).expect("compile"), verifier)
    }

    fn simple(rhs: &str) -> String {
        format!(
            "module m(input clk, input rst_n, input d, output reg q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 1'b0; else q <= {rhs};\n\
             end\n\
             p: assert property (@(posedge clk) disable iff (!rst_n) d |-> ##1 q);\n\
             endmodule"
        )
    }

    #[test]
    fn exact_keys_are_stable_and_discriminating() {
        let v = Verifier::default();
        assert_eq!(
            exact_outcome_key(&job(&simple("d"), v)),
            exact_outcome_key(&job(&simple("d"), v))
        );
        assert_ne!(
            exact_outcome_key(&job(&simple("d"), v)),
            exact_outcome_key(&job(&simple("!d"), v))
        );
        // Any verifier knob separates exact keys — even symbolically
        // irrelevant ones (exact means exact).
        let other_seed = Verifier { seed: 7, ..v };
        assert_ne!(
            exact_outcome_key(&job(&simple("d"), v)),
            exact_outcome_key(&job(&simple("d"), other_seed))
        );
    }

    #[test]
    fn exact_keys_are_pinned() {
        // Exact keys name on-disk artifacts across processes: an edit to
        // `Engine`, `Verifier` or the key derivation that moves these
        // digests silently retires every stored verdict. Pin one design
        // under every engine as the canary.
        let pinned = [
            (Engine::Auto, "db3aae09399592331eb3e6d613179944"),
            (Engine::Symbolic, "3b7469f80ff71ad2f8015bf191208851"),
            (Engine::Simulation, "472df8154ac0d51971899863cd4fb13b"),
            (Engine::Fuzz, "84d7265df129493e887783818d8700c1"),
        ];
        for (engine, hex) in pinned {
            let v = Verifier {
                engine,
                ..Verifier::default()
            };
            let key = exact_outcome_key(&job(&simple("d"), v));
            assert_eq!(format!("{:032x}", key.hash), hex, "{engine:?}");
        }
    }

    #[test]
    fn cone_keys_require_symbolic_canonical_jobs() {
        let v = Verifier::default();
        assert!(cone_outcome_key(&job(&simple("d"), v)).is_some());
        let fuzz = Verifier {
            engine: Engine::Fuzz,
            ..v
        };
        assert!(cone_outcome_key(&job(&simple("d"), fuzz)).is_none());
        let unopt = Verifier {
            opt: OptLevel::None,
            ..v
        };
        assert!(cone_outcome_key(&job(&simple("d"), unopt)).is_none());
    }

    #[test]
    fn cone_keys_ignore_symbolically_irrelevant_knobs() {
        let v = Verifier::default();
        let base = cone_outcome_key(&job(&simple("d"), v)).unwrap();
        let knobs = Verifier {
            seed: 99,
            random_runs: 3,
            exhaustive_limit: 17,
            ..v
        };
        assert_eq!(
            base,
            cone_outcome_key(&job(&simple("d"), knobs)).unwrap(),
            "seed and sampling budgets must not split cone keys"
        );
        let deeper = Verifier {
            depth: v.depth + 1,
            ..v
        };
        assert_ne!(
            base,
            cone_outcome_key(&job(&simple("d"), deeper)).unwrap(),
            "depth is symbolic key material"
        );
    }

    #[test]
    fn symbolic_shape_admits_proofs_and_counterexamples_only() {
        let proof: JobOutcome = Ok(Verdict::Holds {
            exhaustive: true,
            stimuli: 0,
            vacuous: Vec::new(),
        });
        assert!(symbolic_shaped(&proof));
        let enumerated: JobOutcome = Ok(Verdict::Holds {
            exhaustive: true,
            stimuli: 16,
            vacuous: Vec::new(),
        });
        assert!(!symbolic_shaped(&enumerated), "degraded-ladder holds");
        assert!(!symbolic_shaped(&Err(VerdictError::Verify(
            VerifyError::NoAssertions
        ))));
    }

    #[test]
    fn persistable_subset_matches_the_memo_rules() {
        let holds: JobOutcome = Ok(Verdict::Holds {
            exhaustive: true,
            stimuli: 0,
            vacuous: Vec::new(),
        });
        let stored = to_persisted(&holds).expect("verdicts persist");
        assert_eq!(from_persisted(stored), holds);

        let verify_err: JobOutcome = Err(VerdictError::Verify(VerifyError::NoAssertions));
        let stored = to_persisted(&verify_err).expect("deterministic errors persist");
        assert_eq!(from_persisted(stored), verify_err);

        assert!(to_persisted(&Err(VerdictError::Panic("boom".into()))).is_none());
        assert!(to_persisted(&Err(VerdictError::Cancelled)).is_none());
        assert!(to_persisted(&Err(VerdictError::Exhausted(Exhausted {
            resource: Resource::WallClock,
            spent: 1,
            limit: 1,
        })))
        .is_none());
        assert!(to_persisted(&Ok(Verdict::Inconclusive { tried: Vec::new() })).is_none());
    }
}
