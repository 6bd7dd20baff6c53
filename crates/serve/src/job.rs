//! Verification jobs, their cache keys, and the job failure taxonomy.

use asv_sim::cancel::Exhausted;
use asv_sva::bmc::{Verdict, Verifier, VerifyError};
use asv_verilog::ast::AssertTarget;
use asv_verilog::sema::Design;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What one job returns: the verifier's verdict, or a structured failure.
///
/// Every job in a batch gets its own outcome — one job erroring (or
/// panicking, or blowing its budget) never poisons its batch siblings.
pub type JobOutcome = Result<Verdict, VerdictError>;

/// Why a job produced no verdict: the service's failure taxonomy.
///
/// The split matters for memoisation: [`VerdictError::Verify`] failures
/// are deterministic in the job key and may be cached; the other
/// variants depend on the per-call budget, scheduling, or injected
/// faults, and are never cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictError {
    /// The verifier itself failed deterministically (no assertions,
    /// simulation/monitor error, forced engine out of subset).
    Verify(VerifyError),
    /// The engine panicked; the worker caught the unwind and isolated it
    /// to this job. Carries the rendered panic payload.
    Panic(String),
    /// The job's cancellation token was poisoned before a verdict.
    Cancelled,
    /// The job ran out of a budgeted resource in a forced single-engine
    /// mode (auto jobs degrade to
    /// [`Verdict::Inconclusive`](asv_sva::bmc::Verdict) instead).
    Exhausted(Exhausted),
}

impl fmt::Display for VerdictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerdictError::Verify(e) => write!(f, "{e}"),
            VerdictError::Panic(m) => write!(f, "verification panicked: {m}"),
            VerdictError::Cancelled => write!(f, "job cancelled"),
            VerdictError::Exhausted(e) => write!(f, "job {e}"),
        }
    }
}

impl std::error::Error for VerdictError {}

impl From<VerifyError> for VerdictError {
    fn from(e: VerifyError) -> Self {
        match e {
            VerifyError::Cancelled => VerdictError::Cancelled,
            VerifyError::Exhausted(ex) => VerdictError::Exhausted(ex),
            other => VerdictError::Verify(other),
        }
    }
}

/// One unit of verification work: a design plus the bounds and engine to
/// check it with. The `verifier.engine` field is the job's mode; every
/// engine runs sequentially inside the worker that claimed the job.
///
/// The design is held behind an [`Arc`] so building a job from an
/// already-shared design (or cloning a job) never deep-copies the AST.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyJob {
    /// The elaborated design whose assertions are checked.
    pub design: Arc<Design>,
    /// Bounds, budget, seed and engine for this job.
    pub verifier: Verifier,
}

/// Memo key of a job: a 128-bit fingerprint over `(design, property
/// set, engine, budget, OptLevel)` — two independent 64-bit hashes of
/// the full tuple, domain-separated so the halves never cancel together.
///
/// Two jobs share a key iff they would produce the same verdict: every
/// engine is deterministic in `(design, Verifier)`, and the `Verifier`
/// hash covers depth, reset protocol, enumeration limit, stimulus
/// budget, seed, engine selection and IR optimization level (so a
/// mixed-opt workload can never alias one level's verdict — or its
/// cached compiled artifact — to the other's). The property set is hashed
/// explicitly (directive names plus rendered inline bodies) on top of
/// the structural design hash, so assertion-only edits never alias.
/// A wrong verdict-memo hit would be an *unsound verification result*,
/// hence the 128-bit width: an accidental collision is beyond
/// plausibility (a deliberate one is outside this tool's threat model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u128);

/// Domain tags making the two key halves independent hash functions.
const KEY_TAG_HI: u64 = 0x9E37_79B9_7F4A_7C15;
const KEY_TAG_LO: u64 = 0xC2B2_AE3D_27D4_EB4F;

impl VerifyJob {
    /// Creates a job (accepts an owned design or an `Arc` to one).
    pub fn new(design: impl Into<Arc<Design>>, verifier: Verifier) -> Self {
        VerifyJob {
            design: design.into(),
            verifier,
        }
    }

    /// The job's memo key (see [`JobKey`]), under the current on-disk
    /// schema version. The schema is mixed into both halves so bumping
    /// [`asv_store::SCHEMA_VERSION`] retires every key derived under the
    /// old encoding — in-memory and on disk alike.
    pub fn key(&self) -> JobKey {
        self.key_with_schema(asv_store::SCHEMA_VERSION)
    }

    /// [`VerifyJob::key`] under an explicit schema version (tests use
    /// this to prove a bump actually separates keys).
    pub fn key_with_schema(&self, schema: u32) -> JobKey {
        let design = asv_sim::cache::design_hash(&self.design);
        let props = property_set_hash(&self.design);
        let half = |tag: u64| {
            let mut h = DefaultHasher::new();
            tag.hash(&mut h);
            schema.hash(&mut h);
            design.hash(&mut h);
            props.hash(&mut h);
            self.verifier.hash(&mut h);
            h.finish()
        };
        JobKey((u128::from(half(KEY_TAG_HI)) << 64) | u128::from(half(KEY_TAG_LO)))
    }
}

impl JobKey {
    /// The job's fault-injection salt: the XOR of the key's two 64-bit
    /// halves. A [`FaultPlan`](asv_sim::FaultPlan) derives the job's
    /// fault session from this value, so the fault schedule is a pure
    /// function of `(plan, job)`. Chaos tests use the same value with
    /// `FaultPlan::is_victim` to predict which jobs a plan targets.
    pub fn fault_salt(self) -> u64 {
        ((self.0 >> 64) as u64) ^ (self.0 as u64)
    }
}

/// Hash of the design's assertion directives: log names, messages, and
/// rendered inline property bodies (named properties are covered by the
/// structural design hash; their *binding* is covered by the name).
fn property_set_hash(design: &Design) -> u64 {
    let mut h = DefaultHasher::new();
    for dir in design.module.assertions() {
        dir.log_name().hash(&mut h);
        dir.message.hash(&mut h);
        match &dir.target {
            AssertTarget::Named(n) => n.hash(&mut h),
            AssertTarget::Inline(p) => {
                asv_verilog::pretty::render_prop(&p.body).hash(&mut h);
                if let Some(d) = &p.disable {
                    asv_verilog::pretty::render_expr(d).hash(&mut h);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sva::bmc::Engine;

    fn design(body: &str, prop: &str) -> Design {
        asv_verilog::compile(&format!(
            "module m(input clk, input rst_n, input d, output reg q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 1'b0; else q <= {body};\n\
             end\n\
             p: assert property (@(posedge clk) disable iff (!rst_n) {prop});\n\
             endmodule"
        ))
        .expect("compile")
    }

    #[test]
    fn equal_jobs_share_a_key() {
        let v = Verifier::default();
        let a = VerifyJob::new(design("d", "d |-> ##1 q"), v);
        let b = VerifyJob::new(design("d", "d |-> ##1 q"), v);
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn design_property_engine_and_budget_all_separate_keys() {
        let v = Verifier::default();
        let base = VerifyJob::new(design("d", "d |-> ##1 q"), v);
        let other_logic = VerifyJob::new(design("!d", "d |-> ##1 q"), v);
        let other_prop = VerifyJob::new(design("d", "d |-> ##1 !q"), v);
        let other_engine = VerifyJob::new(
            base.design.clone(),
            Verifier {
                engine: Engine::Fuzz,
                ..v
            },
        );
        let other_budget = VerifyJob::new(
            base.design.clone(),
            Verifier {
                random_runs: v.random_runs + 1,
                ..v
            },
        );
        let other_opt = VerifyJob::new(
            base.design.clone(),
            Verifier {
                opt: asv_sva::bmc::OptLevel::None,
                ..v
            },
        );
        for (name, job) in [
            ("logic", &other_logic),
            ("property", &other_prop),
            ("engine", &other_engine),
            ("budget", &other_budget),
            ("opt level", &other_opt),
        ] {
            assert_ne!(base.key(), job.key(), "{name} change must change the key");
        }
    }

    #[test]
    fn schema_bump_retires_every_key() {
        let job = VerifyJob::new(design("d", "d |-> ##1 q"), Verifier::default());
        assert_eq!(job.key(), job.key_with_schema(asv_store::SCHEMA_VERSION));
        let bumped = job.key_with_schema(asv_store::SCHEMA_VERSION + 1);
        assert_ne!(job.key(), bumped, "a schema bump must separate keys");
        // Both halves move independently — neither half may survive.
        assert_ne!((job.key().0 >> 64) as u64, (bumped.0 >> 64) as u64);
        assert_ne!(job.key().0 as u64, bumped.0 as u64);
    }
}
