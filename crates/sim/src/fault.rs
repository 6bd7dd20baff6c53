//! Deterministic fault injection for the chaos test harness.
//!
//! A [`FaultPlan`] is a small, copyable, seeded recipe: which fault
//! kinds to inject (panics, synthetic exhaustion), how often, and to
//! which victim jobs. From a plan the
//! serving layer derives one [`FaultSession`] per job (salted by the
//! job key) and threads it through every engine inside the job's
//! [`crate::Budget`]. Each engine declares named probe points
//! ([`crate::Budget::probe`]); whether a given probe hit fires, and which
//! [`FaultKind`] it fires, is a pure function of
//! `(plan seed, job salt, probe name, per-probe hit index)` — so the
//! same `(seed, plan)` reproduces the same faults regardless of worker
//! count, scheduling, or sibling jobs in the batch.
//!
//! Probe names are the canonical constants in [`asv_trace::probe`] —
//! the same identifiers name the trace spans around each site, so a
//! chaos failure at `sat.depth` and a trace timeline entry for
//! `sat.depth` are, by construction, the same location.
//!
//! Probes compile to `Ok(())` unless the crate is built with the
//! `fault-inject` feature, so release builds carry no injection logic;
//! the types themselves always exist so higher layers can hold a plan
//! unconditionally.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The kinds of fault a probe point can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `panic_any(InjectedPanic)` — exercises `catch_unwind` isolation
    /// and lock poison-proofing.
    Panic,
    /// The probe reports a synthetic `Exhausted` — exercises budget
    /// exhaustion paths without spending the real resource.
    Exhaust,
}

/// A bitmask of enabled [`FaultKind`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultKinds(u8);

impl FaultKinds {
    /// Injected panics.
    pub const PANIC: FaultKinds = FaultKinds(1);
    /// Synthetic budget exhaustion.
    pub const EXHAUST: FaultKinds = FaultKinds(2);
    /// Every kind.
    pub const ALL: FaultKinds = FaultKinds(3);
    /// No kinds (an armed but harmless plan).
    pub const NONE: FaultKinds = FaultKinds(0);

    /// Union of two masks.
    pub const fn union(self, other: FaultKinds) -> FaultKinds {
        FaultKinds(self.0 | other.0)
    }

    /// True if `kind` is enabled.
    pub fn contains(self, kind: FaultKind) -> bool {
        let bit = match kind {
            FaultKind::Panic => 1,
            FaultKind::Exhaust => 2,
        };
        self.0 & bit != 0
    }

    #[cfg_attr(not(any(test, feature = "fault-inject")), allow(dead_code))]
    fn enabled(self) -> Vec<FaultKind> {
        [FaultKind::Panic, FaultKind::Exhaust]
            .into_iter()
            .filter(|k| self.contains(*k))
            .collect()
    }
}

/// A seeded, copyable fault-injection recipe.
///
/// The plan is pure data: deriving per-job sessions and drawing fault
/// decisions are deterministic functions of the fields, so a plan can be
/// logged, replayed, and shared across worker counts while producing
/// identical fault schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Root seed; every per-job session and per-probe decision derives
    /// from it.
    pub seed: u64,
    /// Per-probe-hit firing probability in 1/1024 units (0 = never,
    /// 1024 = every hit).
    pub rate_per_1024: u16,
    /// Fraction of jobs targeted, in 1/16 units (16 = every job).
    /// Non-victim jobs get an inert session, which is how the chaos
    /// suite knows which jobs must stay bit-identical to a fault-free
    /// run.
    pub victims_per_16: u16,
    /// Which fault kinds may fire.
    pub kinds: FaultKinds,
}

impl FaultPlan {
    /// A plan firing every kind on roughly 1/16 of probe hits in half
    /// of the jobs.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rate_per_1024: 64,
            victims_per_16: 8,
            kinds: FaultKinds::ALL,
        }
    }

    /// True if the job identified by `salt` is targeted by this plan.
    /// Deterministic: depends only on `(self.seed, salt)`.
    pub fn is_victim(&self, salt: u64) -> bool {
        let x = splitmix64(self.seed ^ salt.rotate_left(17) ^ 0xFA01_7C4E_55AA_D00D);
        (x & 15) < u64::from(self.victims_per_16.min(16))
    }

    /// Derives the per-job [`FaultSession`] for the job identified by
    /// `salt`. Non-victim jobs get an inert session.
    pub fn session(&self, salt: u64) -> FaultSession {
        if self.rate_per_1024 == 0 || !self.is_victim(salt) {
            return FaultSession::inert();
        }
        FaultSession {
            inner: Some(Arc::new(SessionInner {
                seed: splitmix64(self.seed ^ salt),
                rate_per_1024: self.rate_per_1024.min(1024),
                kinds: self.kinds,
                hits: Mutex::new(BTreeMap::new()),
                fired: AtomicU64::new(0),
            })),
        }
    }
}

#[derive(Debug)]
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
struct SessionInner {
    seed: u64,
    rate_per_1024: u16,
    kinds: FaultKinds,
    /// Per-probe-name hit counters. Concurrent engines use disjoint
    /// probe-name prefixes (`sat.*`, `fuzz.*`, `sva.*`), so each
    /// counter advances sequentially and decisions stay deterministic
    /// under any thread interleaving.
    hits: Mutex<BTreeMap<&'static str, u64>>,
    fired: AtomicU64,
}

/// One job's fault state: shared (via `Arc`) between every engine the
/// job runs, inert for non-victim jobs and for builds without the
/// `fault-inject` feature.
#[derive(Debug, Clone, Default)]
pub struct FaultSession {
    inner: Option<Arc<SessionInner>>,
}

impl FaultSession {
    /// A session that never fires (the default on every budget).
    pub fn inert() -> Self {
        Self::default()
    }

    /// True if this session belongs to a victim job of an armed plan
    /// (it may still fire nothing if the dice never come up).
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// How many faults this session has fired so far.
    pub fn fired(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.fired.load(Ordering::Relaxed))
    }

    /// Draws the fault decision for the next hit of `probe`:
    /// deterministic in `(session seed, probe name, hit index)`.
    /// Compiled only with the `fault-inject` feature; without it probes
    /// never consult the session.
    #[cfg(feature = "fault-inject")]
    pub(crate) fn draw(&self, probe: &'static str) -> Option<FaultKind> {
        let inner = self.inner.as_ref()?;
        let hit = {
            let mut hits = inner
                .hits
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let counter = hits.entry(probe).or_insert(0);
            let hit = *counter;
            *counter += 1;
            hit
        };
        let x = splitmix64(inner.seed ^ fnv1a(probe) ^ hit.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if x % 1024 >= u64::from(inner.rate_per_1024) {
            return None;
        }
        let enabled = inner.kinds.enabled();
        if enabled.is_empty() {
            return None;
        }
        let kind = enabled[(splitmix64(x) % enabled.len() as u64) as usize];
        inner.fired.fetch_add(1, Ordering::Relaxed);
        Some(kind)
    }
}

/// The payload of an injected panic; carries the probe name that fired.
///
/// The chaos harness installs [`silence_injected_panics`] so these don't
/// spam stderr, and `catch_unwind` sites downcast to it to produce a
/// deterministic error message.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic(pub &'static str);

/// Installs (once) a panic hook that suppresses backtraces for
/// [`InjectedPanic`] payloads and defers to the previous hook for
/// everything else. Chaos tests call this so injected panics — which
/// are caught and converted to structured errors — don't flood test
/// output, while genuine assertion failures still print normally.
pub fn silence_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_session_is_unarmed_and_silent() {
        let s = FaultSession::inert();
        assert!(!s.is_armed());
        assert_eq!(s.fired(), 0);
    }

    #[test]
    fn zero_rate_plan_yields_inert_sessions() {
        let plan = FaultPlan {
            rate_per_1024: 0,
            ..FaultPlan::new(1)
        };
        assert!(!plan.session(42).is_armed());
    }

    #[test]
    fn victim_selection_is_deterministic_and_partial() {
        let plan = FaultPlan::new(0xC0FFEE);
        let victims: Vec<bool> = (0..64).map(|s| plan.is_victim(s)).collect();
        let again: Vec<bool> = (0..64).map(|s| plan.is_victim(s)).collect();
        assert_eq!(victims, again);
        assert!(victims.iter().any(|v| *v), "some jobs must be victims");
        assert!(!victims.iter().all(|v| *v), "some jobs must be spared");
    }

    #[test]
    fn full_victim_plans_arm_every_session() {
        let plan = FaultPlan {
            victims_per_16: 16,
            ..FaultPlan::new(7)
        };
        assert!((0..32).all(|s| plan.session(s).is_armed()));
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn draws_are_deterministic_per_probe_sequence() {
        let plan = FaultPlan {
            victims_per_16: 16,
            rate_per_1024: 512,
            ..FaultPlan::new(0xDEAD)
        };
        let a = plan.session(9);
        let b = plan.session(9);
        let draws_a: Vec<_> = (0..100)
            .map(|_| a.draw(asv_trace::probe::SAT_DEPTH))
            .collect();
        let draws_b: Vec<_> = (0..100)
            .map(|_| b.draw(asv_trace::probe::SAT_DEPTH))
            .collect();
        assert_eq!(draws_a, draws_b);
        assert!(draws_a.iter().any(Option::is_some), "rate 1/2 must fire");
        assert!(
            draws_a.iter().any(Option::is_none),
            "rate 1/2 must also pass"
        );
        assert_eq!(
            a.fired(),
            draws_a.iter().filter(|d| d.is_some()).count() as u64
        );
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn probe_names_have_independent_streams() {
        let plan = FaultPlan {
            victims_per_16: 16,
            rate_per_1024: 512,
            ..FaultPlan::new(0xBEEF)
        };
        use asv_trace::probe::{FUZZ_ROUND, SAT_DEPTH};
        let s = plan.session(3);
        // Interleaving two probe streams must not perturb either one.
        let mut interleaved_sat = Vec::new();
        let mut interleaved_fuzz = Vec::new();
        for _ in 0..50 {
            interleaved_sat.push(s.draw(SAT_DEPTH));
            interleaved_fuzz.push(s.draw(FUZZ_ROUND));
        }
        let t = plan.session(3);
        let solo_sat: Vec<_> = (0..50).map(|_| t.draw(SAT_DEPTH)).collect();
        let u = plan.session(3);
        let solo_fuzz: Vec<_> = (0..50).map(|_| u.draw(FUZZ_ROUND)).collect();
        assert_eq!(interleaved_sat, solo_sat);
        assert_eq!(interleaved_fuzz, solo_fuzz);
    }

    #[test]
    fn kinds_mask_roundtrips() {
        let mask = FaultKinds::PANIC.union(FaultKinds::EXHAUST);
        assert!(mask.contains(FaultKind::Panic));
        assert!(mask.contains(FaultKind::Exhaust));
        assert!(!FaultKinds::PANIC.contains(FaultKind::Exhaust));
        assert_eq!(mask, FaultKinds::ALL);
        assert_eq!(FaultKinds::ALL.enabled().len(), 2);
        assert!(FaultKinds::NONE.enabled().is_empty());
    }
}
