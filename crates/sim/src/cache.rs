//! Design identity and a process-wide count of lowerings.
//!
//! [`design_hash`] is the structural hash the verification service keys
//! its jobs with (`asv_serve::VerifyJob::key`).
//!
//! Nothing here caches a lowering: every verifier call lowers its design
//! itself. The service answers a repeated `(design, verifier)` job from
//! its in-batch dedup or its verdict memo, so each job it runs lowers a
//! design no other job is using. [`global`] only counts lowerings. It
//! stays, with `asv_serve::clear_design_cache`, because the repository
//! benchmark (`e2ebench`) calls both until its next change (ROADMAP
//! item 3).

use asv_verilog::sema::Design;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A stable (per-process) 64-bit structural hash of an elaborated design.
///
/// Hashes the module's AST — ports, logic, properties and assertion
/// directives with their labels and messages — plus the resolved
/// parameter environment. Spans hash to nothing, so two spellings of one
/// design (other whitespace or comments) hash alike; no rendering is
/// built.
pub fn design_hash(design: &Design) -> u64 {
    let mut h = DefaultHasher::new();
    design.module.hash(&mut h);
    design.params.hash(&mut h);
    h.finish()
}

/// The number of [`CompiledDesign`](crate::CompiledDesign) lowerings
/// this process has made.
pub struct Lowerings(AtomicU64);

impl Lowerings {
    /// `(0, lowerings)`: the pair `e2ebench` reads, whose second member
    /// counts lowerings.
    pub fn stats(&self) -> (u64, u64) {
        (0, self.0.load(Ordering::Relaxed))
    }
}

static LOWERINGS: Lowerings = Lowerings(AtomicU64::new(0));

/// The process-wide lowering count.
pub fn global() -> &'static Lowerings {
    &LOWERINGS
}

/// Counts one lowering (`CompiledDesign::compile_traced` calls it).
pub(crate) fn count_lowering() {
    LOWERINGS.0.fetch_add(1, Ordering::Relaxed);
}
