//! [`ArtifactStore`]: the manifest and the object layer glued into one
//! typed, thread-safe front door, plus mark-and-sweep GC.
//!
//! Reads verify and self-heal (a corrupt or vanished object drops its
//! manifest entry); writes are object-first then manifest (a crash
//! between the two leaves an unreferenced object for the next GC sweep,
//! never a dangling reference that resolves to garbage).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::codec;
use crate::manifest::Manifest;
use crate::object::ObjectStore;
use crate::{ArtifactKind, ContentHash, PersistedOutcome, StoreKey};

/// Age/size eviction policy for [`ArtifactStore::gc`]. `None` fields
/// don't constrain; the default policy only sweeps unreferenced objects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Evict entries whose insertion time is more than this many seconds
    /// before now.
    pub max_age_secs: Option<u64>,
    /// After the age pass, evict oldest entries until the bytes of all
    /// still-referenced objects fit this cap.
    pub max_bytes: Option<u64>,
}

/// What one [`ArtifactStore::gc`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Manifest entries evicted by the age/size policy.
    pub evicted_entries: usize,
    /// Object files deleted because no live entry referenced them.
    pub swept_objects: usize,
    /// Bytes those swept objects occupied.
    pub bytes_freed: u64,
    /// Entries still live after the pass.
    pub live_entries: usize,
    /// Distinct objects still referenced.
    pub live_objects: usize,
    /// Bytes still referenced.
    pub live_bytes: u64,
}

/// Monotonic activity counters, snapshot as [`StoreStats`].
#[derive(Debug, Default)]
struct Counters {
    gets: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
    verify_failures: AtomicU64,
}

/// A point-in-time snapshot of store activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups served.
    pub gets: u64,
    /// Lookups that returned an artifact.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Artifacts written.
    pub puts: u64,
    /// Reads that found a mapped object missing, corrupt or undecodable
    /// (each one self-healed to a miss).
    pub verify_failures: u64,
}

/// The typed, thread-safe artifact store (see the crate docs for the
/// layout and contracts).
#[derive(Debug)]
pub struct ArtifactStore {
    root: PathBuf,
    objects: ObjectStore,
    manifest: Mutex<Manifest>,
    counters: Counters,
}

/// Seconds since the Unix epoch (0 if the clock is before it).
fn now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

impl ArtifactStore {
    /// Opens (creating if needed) a store rooted at `dir`, replaying the
    /// manifest and clearing crash stragglers.
    pub fn open(dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let objects = ObjectStore::open(dir)?;
        let manifest = Manifest::open(&dir.join("manifest.log"))?;
        Ok(ArtifactStore {
            root: dir.to_path_buf(),
            objects,
            manifest: Mutex::new(manifest),
            counters: Counters::default(),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Manifest access that shrugs off a poisoned lock: the manifest is
    /// a plain map + file handle, consistent after any panic mid-call.
    fn manifest(&self) -> MutexGuard<'_, Manifest> {
        self.manifest
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Shared read path: key → manifest → verified object bytes.
    /// Verify failures drop the manifest entry (self-heal) so the next
    /// write can repopulate the slot.
    fn get_payload(&self, key: StoreKey) -> Option<Vec<u8>> {
        self.counters.gets.fetch_add(1, Ordering::Relaxed);
        let mut manifest = self.manifest();
        let Some(entry) = manifest.get(key) else {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match self.objects.get(entry.hash) {
            Some(payload) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(payload)
            }
            None => {
                let _ = manifest.remove(key);
                self.counters
                    .verify_failures
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Shared write path: object first, then the manifest mapping.
    fn put_payload(&self, key: StoreKey, payload: &[u8]) -> io::Result<ContentHash> {
        let hash = self.objects.put(payload)?;
        self.manifest().put(key, hash, now_secs())?;
        self.counters.puts.fetch_add(1, Ordering::Relaxed);
        Ok(hash)
    }

    /// A decode failure after a content-verified read means the payload
    /// was *written* corrupt (or by an alien schema that collided — out
    /// of the keyspace by construction). Self-heal and count it.
    fn decode_failed(&self, key: StoreKey) {
        let _ = self.manifest().remove(key);
        self.counters
            .verify_failures
            .fetch_add(1, Ordering::Relaxed);
        self.counters.hits.fetch_sub(1, Ordering::Relaxed);
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Persists a deterministic outcome under `key`. `Ok(None)` when the
    /// outcome is outside the persistable subset (nothing written).
    pub fn put_outcome(
        &self,
        key: StoreKey,
        outcome: &PersistedOutcome,
    ) -> io::Result<Option<ContentHash>> {
        debug_assert_eq!(key.artifact, ArtifactKind::Outcome);
        match codec::encode_outcome(outcome) {
            Some(payload) => self.put_payload(key, &payload).map(Some),
            None => Ok(None),
        }
    }

    /// Looks up an outcome; `None` on miss or any corruption.
    pub fn get_outcome(&self, key: StoreKey) -> Option<PersistedOutcome> {
        debug_assert_eq!(key.artifact, ArtifactKind::Outcome);
        let payload = self.get_payload(key)?;
        match codec::decode_outcome(&payload) {
            Some(outcome) => Some(outcome),
            None => {
                self.decode_failed(key);
                None
            }
        }
    }

    /// Live manifest entries.
    pub fn len(&self) -> usize {
        self.manifest().len()
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.manifest().is_empty()
    }

    /// Activity counters since open.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            gets: self.counters.gets.load(Ordering::Relaxed),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            puts: self.counters.puts.load(Ordering::Relaxed),
            verify_failures: self.counters.verify_failures.load(Ordering::Relaxed),
        }
    }

    /// Mark-and-sweep garbage collection against the wall clock.
    pub fn gc(&self, policy: GcPolicy) -> io::Result<GcReport> {
        self.gc_at(policy, now_secs())
    }

    /// [`ArtifactStore::gc`] with an explicit `now` (deterministic
    /// tests). **Mark**: apply the age policy, then evict oldest entries
    /// until the size cap holds; compact the manifest. **Sweep**: delete
    /// every object file no surviving entry references.
    pub fn gc_at(&self, policy: GcPolicy, now: u64) -> io::Result<GcReport> {
        let mut manifest = self.manifest();
        let mut report = GcReport::default();

        // Mark, age pass: an entry older than the horizon is dead.
        if let Some(max_age) = policy.max_age_secs {
            let horizon = now.saturating_sub(max_age);
            report.evicted_entries += manifest.retain(|_, e| e.at_secs >= horizon);
        }

        // Mark, size pass: evict oldest-first until referenced bytes fit.
        // Bytes are counted once per distinct object (entries may share).
        if let Some(max_bytes) = policy.max_bytes {
            let mut entries: Vec<_> = manifest.iter().collect();
            entries.sort_by_key(|(key, e)| (e.at_secs, key.to_bytes()));
            let mut refs: std::collections::BTreeMap<ContentHash, usize> = Default::default();
            for (_, e) in &entries {
                *refs.entry(e.hash).or_default() += 1;
            }
            let mut total: u64 = refs.keys().filter_map(|&h| self.objects.size_of(h)).sum();
            let mut evict = Vec::new();
            let mut oldest = entries.into_iter();
            while total > max_bytes {
                let Some((key, e)) = oldest.next() else {
                    break;
                };
                evict.push(key);
                let n = refs.get_mut(&e.hash).expect("every entry was counted");
                *n -= 1;
                if *n == 0 {
                    total -= self.objects.size_of(e.hash).unwrap_or(0);
                }
            }
            if !evict.is_empty() {
                let doomed: std::collections::BTreeSet<_> =
                    evict.iter().map(|k| k.to_bytes()).collect();
                report.evicted_entries +=
                    manifest.retain(|key, _| !doomed.contains(&key.to_bytes()));
            }
        }

        manifest.compact()?;

        // Sweep: anything on disk that no live entry references.
        let live: std::collections::BTreeSet<ContentHash> =
            manifest.iter().map(|(_, e)| e.hash).collect();
        for hash in self.objects.list() {
            if !live.contains(&hash) {
                report.bytes_freed += self.objects.size_of(hash).unwrap_or(0);
                self.objects.remove(hash)?;
                report.swept_objects += 1;
            }
        }

        report.live_entries = manifest.len();
        report.live_objects = live.len();
        report.live_bytes = live.iter().filter_map(|&h| self.objects.size_of(h)).sum();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sva::bmc::Verdict;
    use std::fs;
    use std::sync::atomic::AtomicU32;

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "asv-artifact-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn holds(stimuli: usize) -> PersistedOutcome {
        PersistedOutcome::Verdict(Verdict::Holds {
            exhaustive: false,
            stimuli,
            vacuous: vec![],
        })
    }

    #[test]
    fn outcome_round_trip_across_reopen() {
        let dir = scratch_dir("reopen");
        let key = StoreKey::exact(ArtifactKind::Outcome, 11);
        {
            let store = ArtifactStore::open(&dir).unwrap();
            store.put_outcome(key, &holds(5)).unwrap().unwrap();
            assert_eq!(store.get_outcome(key), Some(holds(5)));
        }
        let store = ArtifactStore::open(&dir).unwrap();
        assert_eq!(store.get_outcome(key), Some(holds(5)));
        let s = store.stats();
        assert_eq!((s.gets, s.hits, s.misses), (1, 1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_object_self_heals_to_miss() {
        let dir = scratch_dir("heal");
        let store = ArtifactStore::open(&dir).unwrap();
        let key = StoreKey::exact(ArtifactKind::Outcome, 3);
        let hash = store.put_outcome(key, &holds(1)).unwrap().unwrap();
        let path = store.objects.path_of(hash);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        assert_eq!(store.get_outcome(key), None);
        assert_eq!(store.len(), 0); // manifest entry dropped
        assert_eq!(store.stats().verify_failures, 1);
        // The slot is writable again.
        store.put_outcome(key, &holds(1)).unwrap().unwrap();
        assert_eq!(store.get_outcome(key), Some(holds(1)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_age_policy_evicts_and_sweeps() {
        let dir = scratch_dir("gc-age");
        let store = ArtifactStore::open(&dir).unwrap();
        let old_key = StoreKey::exact(ArtifactKind::Outcome, 1);
        let new_key = StoreKey::exact(ArtifactKind::Outcome, 2);
        store.put_outcome(old_key, &holds(100)).unwrap().unwrap();
        store.put_outcome(new_key, &holds(200)).unwrap().unwrap();
        // Backdate the old entry by rewriting its manifest timestamp.
        {
            let mut m = store.manifest();
            let hash = m.get(old_key).unwrap().hash;
            m.put(old_key, hash, 1000).unwrap();
            let hash = m.get(new_key).unwrap().hash;
            m.put(new_key, hash, 5000).unwrap();
        }
        let report = store
            .gc_at(
                GcPolicy {
                    max_age_secs: Some(1_000),
                    max_bytes: None,
                },
                5_500,
            )
            .unwrap();
        assert_eq!(report.evicted_entries, 1);
        assert_eq!(report.swept_objects, 1);
        assert!(report.bytes_freed > 0);
        assert_eq!(report.live_entries, 1);
        assert_eq!(store.get_outcome(old_key), None);
        assert_eq!(store.get_outcome(new_key), Some(holds(200)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_size_policy_evicts_oldest_first() {
        let dir = scratch_dir("gc-size");
        let store = ArtifactStore::open(&dir).unwrap();
        let mut keys = Vec::new();
        for n in 0..4u128 {
            let key = StoreKey::exact(ArtifactKind::Outcome, n);
            store.put_outcome(key, &holds(n as usize)).unwrap().unwrap();
            let mut m = store.manifest();
            let hash = m.get(key).unwrap().hash;
            m.put(key, hash, n as u64).unwrap(); // deterministic ages 0..3
            keys.push(key);
        }
        let object_size = {
            let m = store.manifest();
            let h = m.get(keys[0]).unwrap().hash;
            store.objects.size_of(h).unwrap()
        };
        // Cap to roughly two objects: the two oldest must go.
        let report = store
            .gc_at(
                GcPolicy {
                    max_age_secs: None,
                    max_bytes: Some(object_size * 2),
                },
                100,
            )
            .unwrap();
        assert_eq!(report.evicted_entries, 2);
        assert_eq!(report.live_entries, 2);
        assert_eq!(store.get_outcome(keys[0]), None);
        assert_eq!(store.get_outcome(keys[1]), None);
        assert!(store.get_outcome(keys[2]).is_some());
        assert!(store.get_outcome(keys[3]).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_keeps_shared_objects_alive() {
        let dir = scratch_dir("gc-shared");
        let store = ArtifactStore::open(&dir).unwrap();
        // Two keys, one payload: the object must survive while either
        // entry is live.
        let a = StoreKey::exact(ArtifactKind::Outcome, 1);
        let b = StoreKey::cone(ArtifactKind::Outcome, 2);
        store.put_outcome(a, &holds(7)).unwrap().unwrap();
        store.put_outcome(b, &holds(7)).unwrap().unwrap();
        {
            let mut m = store.manifest();
            let hash = m.get(a).unwrap().hash;
            m.put(a, hash, 0).unwrap(); // a is ancient
            m.put(b, hash, 100).unwrap();
        }
        let report = store
            .gc_at(
                GcPolicy {
                    max_age_secs: Some(50),
                    max_bytes: None,
                },
                120,
            )
            .unwrap();
        assert_eq!(report.evicted_entries, 1);
        assert_eq!(report.swept_objects, 0); // still referenced by b
        assert_eq!(store.get_outcome(b), Some(holds(7)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreferenced_objects_swept() {
        let dir = scratch_dir("sweep");
        let store = ArtifactStore::open(&dir).unwrap();
        // An object with no manifest entry (simulates a crash between
        // object write and manifest append).
        store.objects.put(b"orphan payload").unwrap();
        let key = StoreKey::exact(ArtifactKind::Outcome, 9);
        store.put_outcome(key, &holds(3)).unwrap().unwrap();
        let report = store.gc_at(GcPolicy::default(), 0).unwrap();
        assert_eq!(report.swept_objects, 1);
        assert_eq!(report.live_objects, 1);
        assert_eq!(store.get_outcome(key), Some(holds(3)));
        let _ = fs::remove_dir_all(&dir);
    }
}
