//! The structured record an engine returns when it runs out of a bounded
//! resource.
//!
//! Caps on engine work are the engines' own options
//! (`BmcOptions::{conflict_budget, node_limit}` in `asv-sat`). An engine
//! that hits one reports a structured [`Exhausted`] record instead of
//! running unbounded, so the serving layer can tell "the property fails"
//! from "the engine ran out".
//!
//! The record lives in `asv-sim` (the lowest crate every engine already
//! depends on) so no new dependency edges are needed to pass it up the
//! stack.

/// The bounded resource that ran out when an engine reports
/// [`Exhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The CDCL solver hit its conflict cap.
    SatConflicts,
    /// Bit-blasting hit the AIG node cap.
    AigNodes,
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Resource::SatConflicts => "SAT conflicts",
            Resource::AigNodes => "AIG nodes",
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
