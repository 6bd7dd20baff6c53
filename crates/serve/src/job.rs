//! Verification jobs, their cache keys, and the job failure taxonomy.

use asv_sim::cancel::Exhausted;
use asv_sva::bmc::{Verdict, Verifier, VerifyError};
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
/// are cached like verdicts; a panic or a spent cap is the engine
/// failing rather than a verdict on the design, and is never cached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerdictError {
    /// The verifier itself failed deterministically (no assertions,
    /// simulation/monitor error, forced engine out of subset).
    Verify(VerifyError),
    /// The engine panicked; the worker caught the unwind and isolated it
    /// to this job. Carries the rendered panic payload.
    Panic(String),
    /// A forced `Engine::Symbolic` job spent a `BmcOptions` cap (an
    /// `Engine::Auto` job hands the design to a concrete engine instead).
    Exhausted(Exhausted),
}

impl fmt::Display for VerdictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerdictError::Verify(e) => write!(f, "{e}"),
            VerdictError::Panic(m) => write!(f, "verification panicked: {m}"),
            VerdictError::Exhausted(e) => write!(f, "job {e}"),
        }
    }
}

impl std::error::Error for VerdictError {}

impl From<VerifyError> for VerdictError {
    fn from(e: VerifyError) -> Self {
        match e {
            VerifyError::Exhausted(ex) => VerdictError::Exhausted(ex),
            other => VerdictError::Verify(other),
        }
    }
}

/// One unit of verification work: a design plus the bounds and engine to
/// check it with. The verifier's `engine` field is the job's mode; every
/// engine runs sequentially inside the worker that claimed the job.
///
/// The design is held behind an [`Arc`] so building a job from an
/// already-shared design (or cloning a job) never deep-copies the AST.
/// The job computes its [`JobKey`] once, when it is built; its fields
/// are private so no caller can change a job under its key.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyJob {
    design: Arc<Design>,
    /// [`asv_sim::cache::design_hash`] of `design`, computed with the key.
    design_hash: u64,
    verifier: Verifier,
    key: JobKey,
}

/// Memo key of a job: a 128-bit fingerprint of `(schema, design,
/// verifier)`, made of two `DefaultHasher` halves that are
/// domain-separated so they never cancel together.
///
/// Both halves hash the same inputs: the schema version, the
/// design's 64-bit structural hash ([`asv_sim::cache::design_hash`]: the
/// module's AST with spans excluded, which covers logic, property
/// declarations and every assertion directive with its label and
/// message, plus the resolved parameters), and the whole [`Verifier`].
/// The `Verifier` covers depth, reset protocol, enumeration limit,
/// stimulus budget, seed, engine selection and IR optimization level,
/// so a mixed-opt workload can never alias one level's verdict to the
/// other's.
///
/// Jobs with equal keys get one verdict: every engine is deterministic
/// in `(design, Verifier)`, so a wrong memo hit would be an *unsound
/// verification result*. Two jobs that differ only in their verifier or
/// schema collide with probability about 2⁻¹²⁸. The design, however,
/// enters both halves as one 64-bit hash, so two distinct designs share
/// a key with probability about 2⁻⁶⁴ per pair. That is the key's bound
/// on design identity, and nothing re-checks full equality behind it.
/// (A deliberate collision is outside this tool's threat model.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u128);

/// Domain tags making the two key halves independent hash functions.
const KEY_TAG_HI: u64 = 0x9E37_79B9_7F4A_7C15;
const KEY_TAG_LO: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Version of the key material, mixed into both halves of every
/// [`JobKey`]. Bump it when a change to the key material must retire
/// every key derived before it.
const SCHEMA_VERSION: u32 = 1;

impl VerifyJob {
    /// Creates a job (accepts an owned design or an `Arc` to one) and
    /// computes its key under the current schema version. The schema is
    /// mixed into both halves, so bumping it retires every key derived
    /// under the old key material.
    pub fn new(design: impl Into<Arc<Design>>, verifier: Verifier) -> Self {
        let design = design.into();
        let design_hash = asv_sim::cache::design_hash(&design);
        let key = job_key(design_hash, &verifier, SCHEMA_VERSION);
        VerifyJob {
            design,
            design_hash,
            verifier,
            key,
        }
    }

    /// The elaborated design whose assertions are checked.
    pub fn design(&self) -> &Arc<Design> {
        &self.design
    }

    /// Bounds, budget, seed and engine for this job.
    pub fn verifier(&self) -> &Verifier {
        &self.verifier
    }

    /// The job's memo key (see [`JobKey`]), computed when the job was
    /// built.
    pub fn key(&self) -> JobKey {
        self.key
    }

    /// The job's key recomputed under an explicit schema version (tests
    /// use this to prove a bump actually separates keys).
    pub fn key_with_schema(&self, schema: u32) -> JobKey {
        job_key(self.design_hash, &self.verifier, schema)
    }
}

/// The [`JobKey`] of the design with structural hash `design` and
/// `verifier`, under `schema`.
fn job_key(design: u64, verifier: &Verifier, schema: u32) -> JobKey {
    let half = |tag: u64| {
        let mut h = DefaultHasher::new();
        tag.hash(&mut h);
        schema.hash(&mut h);
        design.hash(&mut h);
        verifier.hash(&mut h);
        h.finish()
    };
    JobKey((u128::from(half(KEY_TAG_HI)) << 64) | u128::from(half(KEY_TAG_LO)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sva::bmc::Engine;

    fn source(body: &str, prop: &str, action: &str) -> String {
        format!(
            "module m(input clk, input rst_n, input d, output reg q);\n\
             always @(posedge clk or negedge rst_n) begin\n\
               if (!rst_n) q <= 1'b0; else q <= {body};\n\
             end\n\
             p: assert property (@(posedge clk) disable iff (!rst_n) {prop}){action};\n\
             endmodule"
        )
    }

    fn compile(src: &str) -> Design {
        asv_verilog::compile(src).expect("compile")
    }

    fn design(body: &str, prop: &str) -> Design {
        compile(&source(body, prop, ""))
    }

    #[test]
    fn equal_jobs_share_a_key() {
        let v = Verifier::default();
        let a = VerifyJob::new(design("d", "d |-> ##1 q"), v);
        let b = VerifyJob::new(design("d", "d |-> ##1 q"), v);
        assert_eq!(a.key(), b.key());
        // Other whitespace and comments move every span but not the key.
        let respelled = source("d", "d |-> ##1 q", "")
            .replace(' ', "   ")
            .replace('\n', " // respelled\n\n");
        let c = VerifyJob::new(compile(&respelled), v);
        assert_ne!(a.design().module, c.design().module, "spans differ");
        assert_eq!(a.key(), c.key());
    }

    #[test]
    fn design_property_engine_and_budget_all_separate_keys() {
        let v = Verifier::default();
        let base = VerifyJob::new(design("d", "d |-> ##1 q"), v);
        let other_logic = VerifyJob::new(design("!d", "d |-> ##1 q"), v);
        let other_prop = VerifyJob::new(design("d", "d |-> ##1 !q"), v);
        // Failure logs print the `$error` message, so it is part of the
        // verdict and must be part of the key.
        let message = |text: &str| {
            let action = format!(" else $error(\"{text}\")");
            VerifyJob::new(compile(&source("d", "d |-> ##1 q", &action)), v)
        };
        let with_message = message("q must follow d");
        let other_message = message("q lags d");
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
            ("message", &with_message),
            ("engine", &other_engine),
            ("budget", &other_budget),
            ("opt level", &other_opt),
        ] {
            assert_ne!(base.key(), job.key(), "{name} change must change the key");
        }
        assert_ne!(
            with_message.key(),
            other_message.key(),
            "an `$error` message edit must change the key"
        );
    }

    #[test]
    fn schema_bump_retires_every_key() {
        let job = VerifyJob::new(design("d", "d |-> ##1 q"), Verifier::default());
        assert_eq!(job.key(), job.key_with_schema(SCHEMA_VERSION));
        let bumped = job.key_with_schema(SCHEMA_VERSION + 1);
        assert_ne!(job.key(), bumped, "a schema bump must separate keys");
        // Both halves move independently — neither half may survive.
        assert_ne!((job.key().0 >> 64) as u64, (bumped.0 >> 64) as u64);
        assert_ne!(job.key().0 as u64, bumped.0 as u64);
    }
}
