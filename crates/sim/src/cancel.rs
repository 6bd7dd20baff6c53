//! The per-job envelope that travels through every verification
//! engine, and the structured record an engine returns when it runs out
//! of a bounded resource.
//!
//! A [`Budget`] carries two things: a [`FaultSession`] (inert unless the
//! `fault-inject` feature is on and the job is a victim of a
//! [`crate::fault::FaultPlan`]) and a [`TraceHandle`] (disabled unless a
//! tracer is attached). Engines call [`Budget::probe`] at named probe
//! points; without an armed session every probe returns `Ok(())`.
//!
//! Caps on engine work are the engines' own options
//! (`BmcOptions::{conflict_budget, node_limit}` in `asv-sat`). An engine
//! that hits one reports a structured [`Exhausted`] record instead of
//! running unbounded, so the serving layer can tell "the property fails"
//! from "the engine ran out" and degrade honestly.
//!
//! Both live in `asv-sim` (the lowest crate every engine already depends
//! on) so no new dependency edges are needed to thread them through the
//! stack.

use crate::fault::FaultSession;
use asv_trace::TraceHandle;

/// The bounded resource that ran out when an engine reports
/// [`Exhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The CDCL solver hit its conflict cap.
    SatConflicts,
    /// Bit-blasting hit the AIG node cap.
    AigNodes,
    /// A [`crate::fault::FaultPlan`] injected a synthetic exhaustion at a
    /// probe point (only with the `fault-inject` feature).
    Injected,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Resource::SatConflicts => "SAT conflicts",
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
    /// Units spent when the overrun was detected.
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

/// The per-job envelope threaded through every verification engine: a
/// fault session and a trace handle.
///
/// The default ([`Budget::unbounded`]) carries an inert session and a
/// disabled handle, so every [`Budget::probe`] is `Ok(())` and the plain
/// `Verifier::check` path is unchanged. Under the `fault-inject` feature
/// a budget may carry an armed [`FaultSession`] that fires deterministic
/// faults at named probe points.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    fault: FaultSession,
    trace: TraceHandle,
}

impl Budget {
    /// A budget with no faults and no tracing: every probe is `Ok(())`.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Attaches a fault-injection session (inert unless the
    /// `fault-inject` feature is enabled).
    pub fn with_fault(mut self, fault: FaultSession) -> Self {
        self.fault = fault;
        self
    }

    /// Attaches a tracing handle: engines emit spans through
    /// [`Budget::trace`] wherever this budget travels. Purely
    /// observational: the handle never influences [`Budget::probe`] or
    /// any engine decision, so verdicts are bit-identical with tracing on
    /// or off.
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// The attached tracing handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// A named probe point. Only with the `fault-inject` feature and an
    /// armed [`FaultSession`] may it deterministically fire an injected
    /// fault here: a panic or a synthetic [`Exhausted`]. Otherwise it is
    /// `Ok(())`.
    #[inline]
    pub fn probe(&self, name: &'static str) -> Result<(), Exhausted> {
        self.fire_fault(name)
    }

    #[cfg(feature = "fault-inject")]
    fn fire_fault(&self, name: &'static str) -> Result<(), Exhausted> {
        use crate::fault::FaultKind;
        match self.fault.draw(name) {
            None => Ok(()),
            Some(FaultKind::Panic) => std::panic::panic_any(crate::fault::InjectedPanic(name)),
            Some(FaultKind::Exhaust) => Err(Exhausted {
                resource: Resource::Injected,
                spent: 0,
                limit: 0,
            }),
        }
    }

    #[cfg(not(feature = "fault-inject"))]
    #[inline(always)]
    fn fire_fault(&self, _name: &'static str) -> Result<(), Exhausted> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_never_stops() {
        let b = Budget::unbounded();
        assert!(b.probe("test.unbounded").is_ok());
        assert!(!b.trace().is_enabled());
    }
}
