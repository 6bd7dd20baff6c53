//! Shared, sharded compile cache: one [`CompiledDesign`] per distinct
//! design for as long as some caller holds it.
//!
//! Every verifier call lowers its design through this table, so callers
//! that work on one design at the same time share one lowering:
//! concurrent checks of one design share it, and a benchmark that
//! pre-warms the table keeps what it pre-warmed alive by holding the
//! returned `Arc`s.
//!
//! Entries are [`Weak`]: the table never keeps a lowering alive. Its
//! last holder frees it — on the service path the job's own worker,
//! right after the check — and a later request for the same design
//! lowers it again. Repair judging submits thousands of distinct patched
//! designs, each checked once, so a retained working set would hit
//! nothing and only hold memory and pay for evictions. Dead entries are
//! pruned whenever a shard takes a new one.
//!
//! Lookups take one shard mutex (shards are picked by design hash, so
//! checks of different designs rarely contend), and misses lower the
//! design under no lock.
//!
//! Keys are a 64-bit structural hash of the elaborated design (the
//! module's AST, spans excluded, plus resolved parameters); hash
//! collisions are resolved by full structural equality before an entry is
//! reused, so a hit is always the *same* design.
//!
//! Shard locks are poison-proof: a verification job that panics (or has
//! a panic injected by the chaos harness) while touching a shard never
//! wedges the cache for later jobs. Recovering the poisoned guard is
//! sound because every mutation keeps the entry vector valid at all
//! times — there is no multi-step invariant a mid-flight panic could
//! tear.

use crate::compile::{CompiledDesign, OptLevel};
use asv_verilog::sema::Design;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

/// Number of independent shards (power of two).
const SHARDS: usize = 16;

/// A stable (per-process) 64-bit structural hash of an elaborated design.
///
/// Hashes the module's AST — ports, logic, properties and assertion
/// directives with their labels and messages — plus the resolved
/// parameter environment. Spans hash to nothing, so two spellings of one
/// design (other whitespace or comments) hash alike; no rendering is
/// built. The verification service keys its jobs with this hash too
/// (`asv_serve::VerifyJob::key`).
pub fn design_hash(design: &Design) -> u64 {
    let mut h = DefaultHasher::new();
    design.module.hash(&mut h);
    design.params.hash(&mut h);
    h.finish()
}

/// One shard: the lowerings of its designs, live or dead.
///
/// Entries are keyed on `(design hash, OptLevel)`: a mixed-opt workload
/// (e.g. a differential run holding both forms of one design) must never
/// alias to the other level's compiled artifact.
#[derive(Default)]
struct Shard {
    entries: Vec<(u64, OptLevel, Weak<CompiledDesign>)>,
}

impl Shard {
    /// The lowering of `design` at `opt`, if some caller still holds one.
    fn live(&self, key: u64, opt: OptLevel, design: &Design) -> Option<Arc<CompiledDesign>> {
        self.entries
            .iter()
            .filter(|(k, o, _)| *k == key && *o == opt)
            .filter_map(|(_, _, weak)| weak.upgrade())
            .find(|cd| cd.design() == design)
    }
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded table of weakly held compiled designs.
pub struct CompileCache {
    shards: Vec<Mutex<Shard>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CompileCache {
    /// An empty cache (prefer [`global`] outside of tests).
    pub fn new() -> Self {
        CompileCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// [`CompileCache::get_or_compile_opt`] at the default opt level.
    pub fn get_or_compile(&self, design: &Design) -> Arc<CompiledDesign> {
        self.get_or_compile_opt(design, OptLevel::default())
    }

    /// Returns the compiled form of `design` at `opt`: the lowering some
    /// caller already holds, else a new one. The cache key is
    /// `(design hash, OptLevel)` — the two opt forms of one design are
    /// distinct artifacts and never alias. Hash collisions fall back to
    /// structural equality, so a hit is always `design` itself.
    pub fn get_or_compile_opt(&self, design: &Design, opt: OptLevel) -> Arc<CompiledDesign> {
        self.get_or_compile_traced(design, opt, &asv_trace::TraceHandle::disabled())
    }

    /// [`CompileCache::get_or_compile_opt`] with span emission: a cache
    /// hit records an instant `sim.compile` event (code 0), a miss
    /// records the full compile span (code 1, with a nested `sim.opt`
    /// span at `OptLevel::Full`). Every job thus gets its compile cost
    /// attributed, hit or miss; the compiled artifact is identical
    /// either way.
    pub fn get_or_compile_traced(
        &self,
        design: &Design,
        opt: OptLevel,
        trace: &asv_trace::TraceHandle,
    ) -> Arc<CompiledDesign> {
        let key = design_hash(design);
        let shard = &self.shards[(key as usize) & (SHARDS - 1)];
        let hit = lock(shard).live(key, opt, design);
        if let Some(cd) = hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            trace.instant(
                asv_trace::probe::SIM_COMPILE,
                asv_trace::SpanKind::Compile,
                0,
                asv_trace::Cost::default(),
            );
            return cd;
        }
        // Compile outside the shard lock: a slow compile of one design
        // must not block lookups of the other designs in its shard.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let cd = Arc::new(CompiledDesign::compile_traced(design, opt, trace));
        let mut s = lock(shard);
        // A racing thread may have lowered the same design meanwhile:
        // share its lowering, so every holder sees one `Arc`.
        if let Some(raced) = s.live(key, opt, design) {
            return raced;
        }
        s.entries.retain(|(_, _, weak)| weak.strong_count() > 0);
        s.entries.push((key, opt, Arc::downgrade(&cd)));
        cd
    }

    /// `(hits, misses)` so far; every miss lowered a design once.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Forgets every entry: later lookups lower afresh even while earlier
    /// lowerings are still held (benchmarks use this to measure the
    /// cache-cold path; counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(shard).entries.clear();
        }
    }
}

impl Default for CompileCache {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide cache every verifier call goes through.
pub fn global() -> &'static CompileCache {
    static GLOBAL: OnceLock<CompileCache> = OnceLock::new();
    GLOBAL.get_or_init(CompileCache::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(n: u64) -> Design {
        asv_verilog::compile(&format!(
            "module m{n}(input clk, input [3:0] a, output reg [3:0] q);\n\
             always @(posedge clk) q <= a + 4'd{};\nendmodule",
            n % 16
        ))
        .expect("compile")
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = CompileCache::new();
        let d = design(1);
        let a = cache.get_or_compile(&d);
        let b = cache.get_or_compile(&d);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit");
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn distinct_designs_get_distinct_entries() {
        let cache = CompileCache::new();
        let a = cache.get_or_compile(&design(1));
        let b = cache.get_or_compile(&design(2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.design(), b.design());
    }

    #[test]
    fn dropped_lowerings_are_not_retained() {
        let cache = CompileCache::new();
        let d = design(1);
        let first = Arc::downgrade(&cache.get_or_compile(&d));
        assert!(
            first.upgrade().is_none(),
            "the cache must not keep a lowering alive"
        );
        let again = cache.get_or_compile(&d);
        assert_eq!(cache.stats(), (0, 2), "a dropped lowering is lowered again");
        assert_eq!(again.design(), &d);
        drop(again);
        // Lower and drop many designs: each insert must leave only live
        // entries in its shard (the dead ones it found are pruned).
        for n in 0..(SHARDS * 4) as u64 {
            let d = design(n);
            let held = cache.get_or_compile(&d);
            let shard = lock(&cache.shards[(design_hash(&d) as usize) & (SHARDS - 1)]);
            assert!(
                shard.entries.iter().all(|(_, _, w)| w.strong_count() > 0),
                "dead entry left in the shard of design {n}"
            );
            assert_eq!(shard.entries.len(), 1, "only design {n} is held");
            drop(shard);
            assert_eq!(held.design(), &d);
        }
        assert_eq!(cache.stats(), (0, 2 + (SHARDS * 4) as u64));
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let cache = CompileCache::new();
        let shared = design(0);
        let held = cache.get_or_compile(&shared);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (cache, shared, held) = (&cache, &shared, &held);
                scope.spawn(move || {
                    for n in 0..32u64 {
                        let d = design((n + t) % 8);
                        let cd = cache.get_or_compile(&d);
                        assert_eq!(cd.design(), &d);
                        assert!(
                            Arc::ptr_eq(&cache.get_or_compile(shared), held),
                            "a lowering one thread holds is shared with the others"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn opt_levels_never_alias() {
        let cache = CompileCache::new();
        let d = design(5);
        let full = cache.get_or_compile_opt(&d, OptLevel::Full);
        let none = cache.get_or_compile_opt(&d, OptLevel::None);
        assert!(
            !Arc::ptr_eq(&full, &none),
            "distinct artifacts per (hash, OptLevel)"
        );
        assert_eq!(full.opt_level(), OptLevel::Full);
        assert_eq!(none.opt_level(), OptLevel::None);
        // Re-requests hit the matching level.
        assert!(Arc::ptr_eq(
            &none,
            &cache.get_or_compile_opt(&d, OptLevel::None)
        ));
        assert!(Arc::ptr_eq(
            &full,
            &cache.get_or_compile_opt(&d, OptLevel::Full)
        ));
    }

    #[test]
    fn poisoned_shard_keeps_serving() {
        let cache = CompileCache::new();
        let d = design(1);
        let a = cache.get_or_compile(&d);
        // Poison every shard mutex by panicking while holding the guard.
        for shard in &cache.shards {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                panic!("poison");
            }));
        }
        let b = cache.get_or_compile(&d);
        assert!(
            Arc::ptr_eq(&a, &b),
            "poisoned shard must still answer with the cached entry"
        );
        let e = design(99);
        assert_eq!(cache.get_or_compile(&e).design(), &e);
    }

    #[test]
    fn clear_forgets_entries() {
        let cache = CompileCache::new();
        let d = design(3);
        let a = cache.get_or_compile(&d);
        cache.clear();
        let b = cache.get_or_compile(&d);
        assert!(!Arc::ptr_eq(&a, &b), "cleared entry recompiles");
    }
}
