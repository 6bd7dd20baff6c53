//! Cooperative cancellation and resource budgets for long-running
//! verification work.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between a caller
//! (for example the job service in `asv-serve`) and the hot loops of the
//! verification engines: the CDCL search in `asv-sat`, the campaign
//! rounds in `asv-fuzz`, and the per-stimulus loops of the
//! enumeration/sampling oracle in `asv-sva`. Engines poll the token at a
//! bounded interval and unwind with an explicit `Cancelled` error — never
//! a panic — so a cancelled check stops within one check interval.
//!
//! A [`Budget`] generalises the token into a full resource envelope: an
//! optional wall-clock (or injected-clock) [`Deadline`] plus caps on SAT
//! conflicts, fuzz campaign rounds and AIG nodes. Engines report overruns
//! as a structured [`Exhausted`] record instead of running unbounded, so
//! the serving layer can distinguish "the property fails" from "we ran
//! out of budget" and degrade honestly.
//!
//! Both live in `asv-sim` (the lowest crate every engine already depends
//! on) so no new dependency edges are needed to thread them through the
//! stack.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::fault::FaultSession;
use asv_trace::TraceHandle;

/// A shared poison flag: once [`CancelToken::cancel`] is called, every
/// clone observes [`CancelToken::is_cancelled`] `== true` forever.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Poisons the token; idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone has been cancelled.
    ///
    /// A relaxed-acquire load of one `AtomicBool` — cheap enough to call
    /// from solver inner loops at a modest stride.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// The bounded resource that ran out when an engine reports
/// [`Exhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock (or injected manual-clock) deadline expired.
    WallClock,
    /// The CDCL solver hit its conflict cap.
    SatConflicts,
    /// The fuzzer hit its campaign-round cap.
    FuzzRounds,
    /// Bit-blasting hit the AIG node cap.
    AigNodes,
    /// A [`crate::fault::FaultPlan`] injected a synthetic exhaustion at a
    /// probe point (only with the `fault-inject` feature).
    Injected,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Resource::WallClock => "wall-clock deadline",
            Resource::SatConflicts => "SAT conflicts",
            Resource::FuzzRounds => "fuzz rounds",
            Resource::AigNodes => "AIG nodes",
            Resource::Injected => "injected exhaustion",
        };
        f.write_str(s)
    }
}

/// A structured budget-overrun record: which [`Resource`] ran out, how
/// much was spent, and what the cap was.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Exhausted {
    /// The resource that ran out.
    pub resource: Resource,
    /// Units spent when the overrun was detected (ms for wall clock,
    /// ticks for a manual clock, counts otherwise).
    pub spent: u64,
    /// The configured cap in the same units.
    pub limit: u64,
}

impl std::fmt::Display for Exhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget exhausted: {} ({} spent of {} allowed)",
            self.resource, self.spent, self.limit
        )
    }
}

/// Why a budgeted loop must stop: external cancellation or a spent
/// resource budget. Returned by the [`Budget`] polling helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The [`CancelToken`] was poisoned (caller teardown or an injected
    /// spurious cancellation).
    Cancelled,
    /// A resource cap was hit.
    Exhausted(Exhausted),
}

impl std::fmt::Display for Stop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stop::Cancelled => f.write_str("cancelled"),
            Stop::Exhausted(e) => e.fmt(f),
        }
    }
}

/// A deterministic, manually advanced clock for deadline tests: no
/// sleeps, no wall-clock reads — tests call [`ManualClock::advance`] and
/// the owning [`Deadline`] observes the new tick on its next poll.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    ticks: Arc<AtomicU64>,
}

impl ManualClock {
    /// A fresh clock at tick 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ticks`; every [`Deadline`] holding a clone
    /// observes the new time on its next poll.
    pub fn advance(&self, ticks: u64) {
        self.ticks.fetch_add(ticks, Ordering::Release);
    }

    /// The current tick count.
    pub fn now(&self) -> u64 {
        self.ticks.load(Ordering::Acquire)
    }
}

/// A deadline: either a wall-clock duration from construction, or a
/// tick budget on an injected [`ManualClock`] (deterministic tests).
#[derive(Debug, Clone)]
pub enum Deadline {
    /// Expires `limit` after `start` on the real clock.
    Wall {
        /// When the budget was armed.
        start: Instant,
        /// Wall-clock allowance.
        limit: Duration,
    },
    /// Expires once the injected clock passes `limit` ticks.
    Manual {
        /// The injected clock, advanced explicitly by the test.
        clock: ManualClock,
        /// Tick allowance.
        limit: u64,
    },
}

impl Deadline {
    /// A wall-clock deadline `limit` from now.
    pub fn after(limit: Duration) -> Self {
        Deadline::Wall {
            start: Instant::now(),
            limit,
        }
    }

    /// `Err(Exhausted)` once the deadline has passed.
    pub fn check(&self) -> Result<(), Exhausted> {
        match self {
            Deadline::Wall { start, limit } => {
                let spent = start.elapsed();
                if spent > *limit {
                    Err(Exhausted {
                        resource: Resource::WallClock,
                        spent: spent.as_millis() as u64,
                        limit: limit.as_millis() as u64,
                    })
                } else {
                    Ok(())
                }
            }
            Deadline::Manual { clock, limit } => {
                let spent = clock.now();
                if spent > *limit {
                    Err(Exhausted {
                        resource: Resource::WallClock,
                        spent,
                        limit: *limit,
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// A resource envelope threaded through every verification engine:
/// cooperative cancellation, an optional [`Deadline`], and caps on SAT
/// conflicts, fuzz rounds and AIG nodes.
///
/// The default ([`Budget::unbounded`]) imposes nothing and adds no
/// allocation, so the plain `Verifier::check` path is unchanged. Each
/// limit is opt-in via a builder-style setter:
///
/// ```
/// use asv_sim::{Budget, CancelToken};
/// use std::time::Duration;
///
/// let budget = Budget::unbounded()
///     .with_cancel(CancelToken::new())
///     .with_deadline(Duration::from_secs(5))
///     .with_max_conflicts(100_000);
/// assert!(budget.check().is_ok());
/// ```
///
/// Engines poll [`Budget::check`] at loop heads and the `check_*` helpers
/// where a specific resource is spent; all report a structured
/// [`Stop`] instead of running unbounded. Under the `fault-inject`
/// feature a budget may also carry a [`FaultSession`] that fires
/// deterministic faults at named [`Budget::probe`] points.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    cancel: Option<CancelToken>,
    deadline: Option<Deadline>,
    max_conflicts: Option<u64>,
    max_fuzz_rounds: Option<u64>,
    max_aig_nodes: Option<u64>,
    fault: FaultSession,
    trace: TraceHandle,
}

impl Budget {
    /// A budget with no limits, no token and no faults: every poll is
    /// `Ok(())`.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Arms a wall-clock deadline `limit` from now.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(Deadline::after(limit));
        self
    }

    /// Arms a deterministic deadline of `ticks` on an injected clock.
    pub fn with_manual_deadline(mut self, clock: ManualClock, ticks: u64) -> Self {
        self.deadline = Some(Deadline::Manual {
            clock,
            limit: ticks,
        });
        self
    }

    /// Caps total CDCL conflicts per engine invocation.
    pub fn with_max_conflicts(mut self, n: u64) -> Self {
        self.max_conflicts = Some(n);
        self
    }

    /// Caps fuzz campaign rounds.
    pub fn with_max_fuzz_rounds(mut self, n: u64) -> Self {
        self.max_fuzz_rounds = Some(n);
        self
    }

    /// Caps AIG nodes built while bit-blasting.
    pub fn with_max_aig_nodes(mut self, n: u64) -> Self {
        self.max_aig_nodes = Some(n);
        self
    }

    /// Attaches a fault-injection session (inert unless the
    /// `fault-inject` feature is enabled).
    pub fn with_fault(mut self, fault: FaultSession) -> Self {
        self.fault = fault;
        self
    }

    /// Attaches a tracing handle: engines emit spans through
    /// [`Budget::trace`] wherever this budget travels. Purely
    /// observational — the handle never influences [`Budget::check`],
    /// [`Budget::is_plain`] or any engine decision, so verdicts are
    /// bit-identical with tracing on or off.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The attached tracing handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// The attached token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The armed deadline, if any (the SAT engine clones this into the
    /// solver so the CDCL inner loop polls it directly).
    pub fn deadline(&self) -> Option<&Deadline> {
        self.deadline.as_ref()
    }

    /// The configured conflict cap, if any (the SAT engine folds this
    /// into the solver's per-call conflict budget).
    pub fn max_conflicts(&self) -> Option<u64> {
        self.max_conflicts
    }

    /// The configured AIG node cap, if any.
    pub fn max_aig_nodes(&self) -> Option<u64> {
        self.max_aig_nodes
    }

    /// True once the *external* token is poisoned. Engines use this to
    /// distinguish a real cancellation (caller gave up — a hard stop)
    /// from an injected spurious one (recoverable by the degradation
    /// ladder).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// True when the budget imposes nothing at all: no token, no
    /// deadline, no caps, no fault session. The degradation ladder backs
    /// the stimulus budget off after an exhausted rung only when the
    /// budget is not plain.
    ///
    /// A [`TraceHandle`] deliberately does **not** count: tracing is
    /// observational, and letting it flip `is_plain` would change
    /// ladder-backoff penalties — verdicts would differ between traced
    /// and untraced runs.
    pub fn is_plain(&self) -> bool {
        self.cancel.is_none()
            && self.deadline.is_none()
            && self.max_conflicts.is_none()
            && self.max_fuzz_rounds.is_none()
            && self.max_aig_nodes.is_none()
            && !self.fault.is_armed()
    }

    /// Polls the token and the deadline. Engines call this at loop
    /// heads (per depth, per round, per stimulus).
    #[inline]
    pub fn check(&self) -> Result<(), Stop> {
        if self.is_cancelled() {
            return Err(Stop::Cancelled);
        }
        if let Some(d) = &self.deadline {
            d.check().map_err(Stop::Exhausted)?;
        }
        Ok(())
    }

    /// [`Budget::check`] plus the conflict cap against `spent`.
    #[inline]
    pub fn check_conflicts(&self, spent: u64) -> Result<(), Stop> {
        self.check()?;
        Self::check_cap(Resource::SatConflicts, spent, self.max_conflicts)
    }

    /// [`Budget::check`] plus the fuzz-round cap against `spent`.
    #[inline]
    pub fn check_fuzz_rounds(&self, spent: u64) -> Result<(), Stop> {
        self.check()?;
        Self::check_cap(Resource::FuzzRounds, spent, self.max_fuzz_rounds)
    }

    /// [`Budget::check`] plus the AIG-node cap against `spent`.
    #[inline]
    pub fn check_aig_nodes(&self, spent: u64) -> Result<(), Stop> {
        self.check()?;
        Self::check_cap(Resource::AigNodes, spent, self.max_aig_nodes)
    }

    #[inline]
    fn check_cap(resource: Resource, spent: u64, cap: Option<u64>) -> Result<(), Stop> {
        match cap {
            Some(limit) if spent >= limit => Err(Stop::Exhausted(Exhausted {
                resource,
                spent,
                limit,
            })),
            _ => Ok(()),
        }
    }

    /// A named probe point: polls like [`Budget::check`], and — only
    /// with the `fault-inject` feature and an armed [`FaultSession`] —
    /// may deterministically fire an injected fault here: a panic, a
    /// bounded stall, a spurious cancellation, or a synthetic
    /// [`Exhausted`]. Without the feature this is exactly `check()`.
    #[inline]
    pub fn probe(&self, name: &'static str) -> Result<(), Stop> {
        self.check()?;
        self.fire_fault(name)
    }

    #[cfg(feature = "fault-inject")]
    fn fire_fault(&self, name: &'static str) -> Result<(), Stop> {
        use crate::fault::FaultKind;
        match self.fault.draw(name) {
            None => Ok(()),
            Some(FaultKind::Panic) => std::panic::panic_any(crate::fault::InjectedPanic(name)),
            Some(FaultKind::Stall) => {
                std::thread::sleep(Duration::from_millis(1));
                Ok(())
            }
            Some(FaultKind::SpuriousCancel) => Err(Stop::Cancelled),
            Some(FaultKind::Exhaust) => Err(Stop::Exhausted(Exhausted {
                resource: Resource::Injected,
                spent: 0,
                limit: 0,
            })),
        }
    }

    #[cfg(not(feature = "fault-inject"))]
    #[inline(always)]
    fn fire_fault(&self, _name: &'static str) -> Result<(), Stop> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        assert!(!u.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
        assert!(u.is_cancelled());
    }

    #[test]
    fn cancel_is_idempotent() {
        let t = CancelToken::new();
        t.cancel();
        t.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn default_is_fresh() {
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn unbounded_budget_never_stops() {
        let b = Budget::unbounded();
        assert!(b.is_plain());
        assert!(b.check().is_ok());
        assert!(b.check_conflicts(u64::MAX).is_ok());
        assert!(b.check_fuzz_rounds(u64::MAX).is_ok());
        assert!(b.check_aig_nodes(u64::MAX).is_ok());
        assert!(b.probe("test.unbounded").is_ok());
    }

    #[test]
    fn trace_handle_keeps_the_budget_plain() {
        let tracer = asv_trace::Tracer::new();
        let b = Budget::unbounded().with_trace(tracer.handle());
        assert!(
            b.is_plain(),
            "tracing is observational; it must not affect ladder semantics"
        );
        assert!(b.trace().is_enabled());
    }

    #[test]
    fn cancelled_token_stops_every_poll() {
        let token = CancelToken::new();
        let b = Budget::unbounded().with_cancel(token.clone());
        assert!(!b.is_plain());
        assert!(b.check().is_ok());
        token.cancel();
        assert_eq!(b.check(), Err(Stop::Cancelled));
        assert_eq!(b.check_conflicts(0), Err(Stop::Cancelled));
        assert!(b.is_cancelled());
    }

    #[test]
    fn manual_deadline_expires_on_tick_not_on_sleep() {
        let clock = ManualClock::new();
        let b = Budget::unbounded().with_manual_deadline(clock.clone(), 10);
        assert!(b.check().is_ok());
        clock.advance(10);
        assert!(b.check().is_ok(), "at the limit is still within budget");
        clock.advance(1);
        match b.check() {
            Err(Stop::Exhausted(e)) => {
                assert_eq!(e.resource, Resource::WallClock);
                assert_eq!(e.spent, 11);
                assert_eq!(e.limit, 10);
            }
            other => panic!("expected deadline exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn conflict_cap_reports_spent_and_limit() {
        let b = Budget::unbounded().with_max_conflicts(1000);
        assert!(b.check_conflicts(999).is_ok());
        match b.check_conflicts(1000) {
            Err(Stop::Exhausted(e)) => {
                assert_eq!(e.resource, Resource::SatConflicts);
                assert_eq!(e.spent, 1000);
                assert_eq!(e.limit, 1000);
            }
            other => panic!("expected conflict exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn fuzz_round_and_node_caps_are_independent() {
        let b = Budget::unbounded()
            .with_max_fuzz_rounds(4)
            .with_max_aig_nodes(100);
        assert!(b.check_fuzz_rounds(3).is_ok());
        assert!(matches!(
            b.check_fuzz_rounds(4),
            Err(Stop::Exhausted(Exhausted {
                resource: Resource::FuzzRounds,
                ..
            }))
        ));
        assert!(b.check_aig_nodes(99).is_ok());
        assert!(matches!(
            b.check_aig_nodes(100),
            Err(Stop::Exhausted(Exhausted {
                resource: Resource::AigNodes,
                ..
            }))
        ));
    }

    /// The satellite contract: a token poisoned mid-run stops the loop
    /// within one check interval, driven purely by injected clock ticks
    /// (no sleeps, no wall clock).
    #[test]
    fn poison_mid_loop_stops_within_one_check_interval() {
        const CHECK_INTERVAL: u64 = 256;
        let token = CancelToken::new();
        let clock = ManualClock::new();
        let b = Budget::unbounded().with_cancel(token.clone());
        let mut iterations = 0u64;
        let mut stopped_at = None;
        for step in 0..10 * CHECK_INTERVAL {
            // Poison exactly once, mid-loop, from "outside".
            if step == 3 * CHECK_INTERVAL + 17 {
                token.cancel();
            }
            clock.advance(1);
            iterations += 1;
            if step % CHECK_INTERVAL == 0 && b.check().is_err() {
                stopped_at = Some(step);
                break;
            }
        }
        let stopped_at = stopped_at.expect("loop must observe the poison");
        assert!(
            stopped_at <= 4 * CHECK_INTERVAL + 17,
            "stopped at {stopped_at}, more than one interval late"
        );
        assert!(
            iterations < 10 * CHECK_INTERVAL,
            "must not run to completion"
        );
    }
}
