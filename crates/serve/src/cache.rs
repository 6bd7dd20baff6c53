//! Sharded verdict memoisation.
//!
//! Keys are [`JobKey`]s — `(design, verifier)`, the verifier covering
//! engine and budget — and values are finished [`JobOutcome`]s. Because
//! every engine is deterministic in that key, memoised re-verification is
//! exact: a hit returns bit-identically what re-running the engine would,
//! in O(hash) instead of O(solve). A hit clones the outcome, and a
//! counterexample is shared behind an `Arc`, so no hit deep-copies one.
//!
//! The map is sharded by key so concurrent workers finishing different
//! jobs never contend on one lock; each shard is a small MRU-ordered
//! vector with LRU eviction, bounding memory under sustained traffic.
//!
//! The cache is *poison-proof*: shard locks recover from
//! [`PoisonError`](std::sync::PoisonError) instead of propagating it.
//! Every critical section leaves the shard structurally valid at every
//! intermediate point (entries are removed and re-pushed whole), so a
//! panic while a shard is held (in an outcome's clone or a metrics
//! update, both of which run under the lock) costs only the call that
//! panicked and never wedges the cache for the rest of the service.

use crate::job::{JobKey, JobOutcome};
use asv_trace::{Counter, Histogram, Registry};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Locks a shard, recovering from poisoning: a panic in another worker
/// must not take the memo down with it (the data is always structurally
/// valid — see the module docs).
fn lock_shard<T>(shard: &Mutex<T>) -> MutexGuard<'_, T> {
    shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Number of independent shards (power of two).
const SHARDS: usize = 16;
/// Entries per shard; total capacity is `SHARDS * SHARD_CAP`.
const SHARD_CAP: usize = 512;

/// A point-in-time snapshot of [`VerdictCache`] activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a memoised outcome.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Outcomes newly memoised (idempotent re-inserts excluded).
    pub inserts: u64,
    /// Entries dropped by per-shard LRU eviction.
    pub evictions: u64,
}

/// A sharded LRU verdict memo.
///
/// Counters are [`Counter`] views: a cache built by
/// [`VerdictCache::with_registry`] registers them under `asv_memo_*`
/// names, so [`CacheStats`] reads the very same values a metrics scrape
/// sees — one bookkeeping site, two consumers. [`VerdictCache::new`]
/// uses detached counters (no registry, same behaviour).
pub struct VerdictCache {
    shards: Vec<Mutex<Vec<(JobKey, JobOutcome, Instant)>>>,
    hits: Counter,
    misses: Counter,
    inserts: Counter,
    evictions: Counter,
    eviction_age: Histogram,
}

impl VerdictCache {
    /// An empty cache with detached (registry-less) counters.
    pub fn new() -> Self {
        VerdictCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            hits: Counter::detached(),
            misses: Counter::detached(),
            inserts: Counter::detached(),
            evictions: Counter::detached(),
            eviction_age: Histogram::detached(),
        }
    }

    /// An empty cache whose counters live in `registry` (names
    /// `asv_memo_hits_total`, `asv_memo_misses_total`,
    /// `asv_memo_inserts_total`, `asv_memo_evictions_total`, plus the
    /// `asv_memo_eviction_age_ns` residency histogram).
    pub fn with_registry(registry: &Registry) -> Self {
        VerdictCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            hits: registry.counter("asv_memo_hits_total", "Verdict memo lookups that hit"),
            misses: registry.counter("asv_memo_misses_total", "Verdict memo lookups that missed"),
            inserts: registry.counter("asv_memo_inserts_total", "Outcomes newly memoised"),
            evictions: registry.counter(
                "asv_memo_evictions_total",
                "Memo entries dropped by per-shard LRU eviction",
            ),
            eviction_age: registry.histogram(
                "asv_memo_eviction_age_ns",
                "Residency (insert to eviction) of evicted memo entries in nanoseconds",
            ),
        }
    }

    fn shard(&self, key: JobKey) -> &Mutex<Vec<(JobKey, JobOutcome, Instant)>> {
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    /// Looks up a finished verdict, bumping the entry to
    /// most-recently-used on a hit.
    pub fn get(&self, key: JobKey) -> Option<JobOutcome> {
        let mut shard = lock_shard(self.shard(key));
        if let Some(pos) = shard.iter().position(|(k, ..)| *k == key) {
            let entry = shard.remove(pos);
            let outcome = entry.1.clone();
            shard.push(entry); // most recently used last
            self.hits.inc();
            Some(outcome)
        } else {
            self.misses.inc();
            None
        }
    }

    /// Records a finished verdict (idempotent; later insertions of the
    /// same key are ignored since outcomes are deterministic in the key).
    pub fn insert(&self, key: JobKey, outcome: JobOutcome) {
        let mut shard = lock_shard(self.shard(key));
        if shard.iter().any(|(k, ..)| *k == key) {
            return;
        }
        if shard.len() == SHARD_CAP {
            // Least recently used first. The evicted entry's residency
            // (insert to eviction — MRU bumps do not refresh it) feeds
            // the age histogram: a short residency means the shard is
            // churning and the cache is undersized for the workload.
            let evicted = shard.remove(0);
            self.evictions.inc();
            self.eviction_age.observe(evicted.2.elapsed());
        }
        shard.push((key, outcome, Instant::now()));
        self.inserts.inc();
    }

    /// Activity counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            inserts: self.inserts.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of memoised verdicts.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_shard(s).len()).sum()
    }

    /// True when nothing is memoised.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every memoised verdict (benchmarks use this for cache-cold
    /// measurements; counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock_shard(shard).clear();
        }
    }
}

impl Default for VerdictCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sva::bmc::Verdict;

    fn outcome(n: usize) -> JobOutcome {
        Ok(Verdict::Holds {
            exhaustive: true,
            stimuli: n,
            vacuous: Vec::new(),
        })
    }

    #[test]
    fn get_after_insert_round_trips() {
        let c = VerdictCache::new();
        assert_eq!(c.get(JobKey(7)), None);
        c.insert(JobKey(7), outcome(1));
        assert_eq!(c.get(JobKey(7)), Some(outcome(1)));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                inserts: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn duplicate_insert_keeps_the_first_entry() {
        let c = VerdictCache::new();
        c.insert(JobKey(3), outcome(1));
        c.insert(JobKey(3), outcome(2));
        assert_eq!(c.get(JobKey(3)), Some(outcome(1)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lock_shard_recovers_from_poisoning() {
        let m = Mutex::new(vec![(JobKey(1), outcome(1))]);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("worker died holding the shard");
        }));
        assert!(unwound.is_err());
        assert!(m.lock().is_err(), "mutex must actually be poisoned");
        // The cache shrugs it off and the data is still there.
        assert_eq!(lock_shard(&m).len(), 1);
    }

    #[test]
    fn eviction_bounds_each_shard() {
        let c = VerdictCache::new();
        // 4x capacity of one shard, all landing in shard 0.
        for i in 0..(4 * SHARD_CAP) as u64 {
            c.insert(JobKey(u128::from(i * SHARDS as u64)), outcome(0));
        }
        assert!(c.len() <= SHARD_CAP);
        // The most recent entries survive.
        let last = u128::from((4 * SHARD_CAP - 1) as u64 * SHARDS as u64);
        assert_eq!(c.get(JobKey(last)), Some(outcome(0)));
        let stats = c.stats();
        assert_eq!(stats.inserts, 4 * SHARD_CAP as u64);
        assert_eq!(stats.evictions, 3 * SHARD_CAP as u64);
    }

    #[test]
    fn registry_backed_counters_are_views_not_copies() {
        let r = Registry::new();
        let c = VerdictCache::with_registry(&r);
        c.insert(JobKey(1), outcome(1));
        assert!(c.get(JobKey(1)).is_some());
        assert!(c.get(JobKey(2)).is_none());
        // One bookkeeping site: the registry scrape and `stats()` agree.
        assert_eq!(r.counter_value("asv_memo_hits_total"), Some(1));
        assert_eq!(r.counter_value("asv_memo_misses_total"), Some(1));
        assert_eq!(r.counter_value("asv_memo_inserts_total"), Some(1));
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                inserts: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn eviction_age_histogram_records_residency() {
        let r = Registry::new();
        let c = VerdictCache::with_registry(&r);
        // Overflow one shard so exactly one eviction happens.
        for i in 0..=SHARD_CAP as u64 {
            c.insert(JobKey(u128::from(i * SHARDS as u64)), outcome(0));
        }
        assert_eq!(c.stats().evictions, 1);
        let h = r.histogram("asv_memo_eviction_age_ns", "");
        assert_eq!(h.count(), 1, "one eviction, one residency observation");
    }

    #[test]
    fn duplicate_insert_counts_neither_insert_nor_eviction() {
        let c = VerdictCache::new();
        c.insert(JobKey(5), outcome(1));
        c.insert(JobKey(5), outcome(2));
        let stats = c.stats();
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.evictions, 0);
    }
}
