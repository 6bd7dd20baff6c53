//! Deterministic cost accounting: machine-independent performance
//! counters folded out of drained trace [`Event`]s.
//!
//! Wall time answers "how long did this take on this machine today";
//! [`CostCounters`] answer "how much work did the system do" — bytecode
//! ops dispatched, designs compiled, AIG nodes
//! built, CDCL decisions/propagations/conflicts spent, fuzz rounds and
//! stimuli consumed, memo hits. Because they count *work*, not
//! time, they are bit-identical across worker counts and across reruns
//! (enforced by `tests/perf_counters.rs`), which makes exact equality a
//! valid regression gate: any drift in a counter is a real semantic
//! change in what the system computed, never scheduler noise.
//!
//! Compile counters are no exception: every verifier call lowers its
//! design itself, so each executed job counts exactly one compile
//! (`compiles == jobs_executed` on the serve legs) for any worker count.
//!
//! The counters are captured through the existing [`TraceSink`] plumbing
//! — paths instrumented against [`NoTrace`](crate::NoTrace) still
//! compile to nothing, so production runs pay zero cost.
//!
//! [`TraceSink`]: crate::TraceSink

use crate::span::{Event, SpanKind};

/// The deterministic counter vector. One field per work class; see the
/// module docs for the determinism contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounters {
    /// Bytecode operations dispatched by the compiled simulator.
    pub ops: u64,
    /// Designs lowered (`sim.compile` spans).
    pub compiles: u64,
    /// AIG nodes built by the symbolic engine.
    pub aig_nodes: u64,
    /// CDCL solve calls (per-depth and vacuity queries).
    pub sat_solves: u64,
    /// CDCL conflicts spent.
    pub conflicts: u64,
    /// CDCL decisions taken.
    pub decisions: u64,
    /// CDCL unit propagations performed.
    pub propagations: u64,
    /// Fuzz campaign rounds run.
    pub fuzz_rounds: u64,
    /// Stimuli the fuzzer consumed (index-ordered merge, deterministic).
    pub fuzz_stimuli: u64,
    /// Stimuli swept by exhaustive enumeration.
    pub enum_stimuli: u64,
    /// Jobs an engine actually executed (`serve.job` spans).
    pub jobs_executed: u64,
    /// Verdict-memo hits.
    pub memo_hits: u64,
    /// Verdict-memo misses.
    pub memo_misses: u64,
    /// Symbolic ladder rungs run.
    pub rungs_symbolic: u64,
    /// Enumeration ladder rungs run.
    pub rungs_enumeration: u64,
    /// Fuzz ladder rungs run.
    pub rungs_fuzz: u64,
    /// Always 0: no engine runs a sampling rung. The field stays for
    /// readers that still report it.
    pub rungs_sampling: u64,
    /// Lane-batched executor passes scheduled (`sim.batch` events).
    pub sim_batches: u64,
    /// Lanes that carried a stimulus across those passes.
    pub sim_lanes_occupied: u64,
    /// Lane slots available across those passes; divide
    /// `sim_lanes_occupied` by this for lane utilization.
    pub sim_lanes_total: u64,
}

/// Number of counter fields (length of [`CostCounters::fields`]).
pub const COUNTER_FIELDS: usize = 20;

impl CostCounters {
    /// Folds a drained event vector into counters. Order-insensitive:
    /// every mapping is a commutative sum, so the result is identical
    /// however threads interleaved.
    pub fn from_events(events: &[Event]) -> Self {
        let mut c = CostCounters::default();
        for e in events {
            // Op counts accrue on whatever span ran the simulator.
            c.ops = c.ops.saturating_add(e.cost.ops);
            match e.kind {
                SpanKind::Compile => c.compiles += 1,
                SpanKind::AigBlast => {
                    c.aig_nodes = c.aig_nodes.saturating_add(e.cost.aig_nodes);
                }
                SpanKind::SatSolve => {
                    c.sat_solves += 1;
                    c.conflicts = c.conflicts.saturating_add(e.cost.conflicts);
                    c.decisions = c.decisions.saturating_add(e.cost.decisions);
                    c.propagations = c.propagations.saturating_add(e.cost.propagations);
                }
                SpanKind::FuzzRound => {
                    c.fuzz_rounds = c.fuzz_rounds.saturating_add(e.cost.rounds);
                    c.fuzz_stimuli = c.fuzz_stimuli.saturating_add(e.cost.stimuli);
                }
                SpanKind::Enumeration => {
                    c.enum_stimuli = c.enum_stimuli.saturating_add(e.cost.stimuli);
                }
                SpanKind::MemoLookup => {
                    if e.code == 1 {
                        c.memo_hits += 1;
                    } else {
                        c.memo_misses += 1;
                    }
                }
                SpanKind::Rung => {
                    use crate::span::EngineTag;
                    match e.engine {
                        Some(EngineTag::Symbolic) => c.rungs_symbolic += 1,
                        Some(EngineTag::Enumeration) => c.rungs_enumeration += 1,
                        Some(EngineTag::Fuzz) => c.rungs_fuzz += 1,
                        None => {}
                    }
                }
                SpanKind::Job => c.jobs_executed += 1,
                SpanKind::Batch => {
                    c.sim_batches = c.sim_batches.saturating_add(e.cost.batches);
                    c.sim_lanes_occupied =
                        c.sim_lanes_occupied.saturating_add(e.cost.lanes_occupied);
                    c.sim_lanes_total = c.sim_lanes_total.saturating_add(e.cost.lanes_total);
                }
            }
        }
        c
    }

    /// Saturating component-wise sum.
    pub fn add(&mut self, other: &CostCounters) {
        for ((_, a), (_, b)) in self.fields_mut().into_iter().zip(other.fields()) {
            *a = a.saturating_add(b);
        }
    }

    /// Every counter as `(name, value)`, in a fixed, stable order — the
    /// BENCH JSON schema, the gate's delta table and `from_named` all key
    /// on these names.
    pub fn fields(&self) -> [(&'static str, u64); COUNTER_FIELDS] {
        [
            ("ops", self.ops),
            ("compiles", self.compiles),
            ("aig_nodes", self.aig_nodes),
            ("sat_solves", self.sat_solves),
            ("conflicts", self.conflicts),
            ("decisions", self.decisions),
            ("propagations", self.propagations),
            ("fuzz_rounds", self.fuzz_rounds),
            ("fuzz_stimuli", self.fuzz_stimuli),
            ("enum_stimuli", self.enum_stimuli),
            ("jobs_executed", self.jobs_executed),
            ("memo_hits", self.memo_hits),
            ("memo_misses", self.memo_misses),
            ("rungs_symbolic", self.rungs_symbolic),
            ("rungs_enumeration", self.rungs_enumeration),
            ("rungs_fuzz", self.rungs_fuzz),
            ("rungs_sampling", self.rungs_sampling),
            ("sim_batches", self.sim_batches),
            ("sim_lanes_occupied", self.sim_lanes_occupied),
            ("sim_lanes_total", self.sim_lanes_total),
        ]
    }

    fn fields_mut(&mut self) -> [(&'static str, &mut u64); COUNTER_FIELDS] {
        [
            ("ops", &mut self.ops),
            ("compiles", &mut self.compiles),
            ("aig_nodes", &mut self.aig_nodes),
            ("sat_solves", &mut self.sat_solves),
            ("conflicts", &mut self.conflicts),
            ("decisions", &mut self.decisions),
            ("propagations", &mut self.propagations),
            ("fuzz_rounds", &mut self.fuzz_rounds),
            ("fuzz_stimuli", &mut self.fuzz_stimuli),
            ("enum_stimuli", &mut self.enum_stimuli),
            ("jobs_executed", &mut self.jobs_executed),
            ("memo_hits", &mut self.memo_hits),
            ("memo_misses", &mut self.memo_misses),
            ("rungs_symbolic", &mut self.rungs_symbolic),
            ("rungs_enumeration", &mut self.rungs_enumeration),
            ("rungs_fuzz", &mut self.rungs_fuzz),
            ("rungs_sampling", &mut self.rungs_sampling),
            ("sim_batches", &mut self.sim_batches),
            ("sim_lanes_occupied", &mut self.sim_lanes_occupied),
            ("sim_lanes_total", &mut self.sim_lanes_total),
        ]
    }

    /// Rebuilds counters from named values (the inverse of
    /// [`CostCounters::fields`]). Returns `None` when any field is
    /// missing — a truncated or foreign-schema input must not silently
    /// parse as "zero work".
    pub fn from_named(mut get: impl FnMut(&str) -> Option<u64>) -> Option<Self> {
        let mut c = CostCounters::default();
        for (name, slot) in c.fields_mut() {
            *slot = get(name)?;
        }
        Some(c)
    }

    /// The counters as a single-line JSON object in field order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.fields().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Cost, EngineTag};

    fn event(kind: SpanKind, engine: Option<EngineTag>, code: u64, cost: Cost) -> Event {
        Event {
            name: "test",
            kind,
            job: 1,
            engine,
            start_ns: 0,
            dur_ns: 5,
            code,
            cost,
        }
    }

    #[test]
    fn events_fold_into_the_right_counters() {
        let events = vec![
            event(SpanKind::Compile, None, 0, Cost::default()),
            event(
                SpanKind::AigBlast,
                Some(EngineTag::Symbolic),
                1,
                Cost {
                    aig_nodes: 40,
                    ..Cost::default()
                },
            ),
            event(
                SpanKind::SatSolve,
                Some(EngineTag::Symbolic),
                1,
                Cost {
                    conflicts: 3,
                    decisions: 9,
                    propagations: 27,
                    ..Cost::default()
                },
            ),
            event(
                SpanKind::FuzzRound,
                Some(EngineTag::Fuzz),
                0,
                Cost {
                    rounds: 2,
                    stimuli: 16,
                    ..Cost::default()
                },
            ),
            event(
                SpanKind::Enumeration,
                Some(EngineTag::Enumeration),
                0,
                Cost {
                    stimuli: 256,
                    ops: 1000,
                    ..Cost::default()
                },
            ),
            event(SpanKind::MemoLookup, None, 1, Cost::default()),
            event(SpanKind::MemoLookup, None, 0, Cost::default()),
            event(
                SpanKind::Rung,
                Some(EngineTag::Symbolic),
                1,
                Cost::default(),
            ),
            event(SpanKind::Rung, Some(EngineTag::Fuzz), 3, Cost::default()),
            event(SpanKind::Job, None, 1, Cost::default()),
            event(
                SpanKind::Batch,
                Some(EngineTag::Fuzz),
                0,
                Cost {
                    batches: 3,
                    lanes_occupied: 40,
                    lanes_total: 48,
                    ..Cost::default()
                },
            ),
        ];
        let c = CostCounters::from_events(&events);
        assert_eq!(c.compiles, 1);
        assert_eq!(c.aig_nodes, 40);
        assert_eq!(c.sat_solves, 1);
        assert_eq!((c.conflicts, c.decisions, c.propagations), (3, 9, 27));
        assert_eq!((c.fuzz_rounds, c.fuzz_stimuli), (2, 16));
        assert_eq!(c.enum_stimuli, 256);
        assert_eq!(c.ops, 1000);
        assert_eq!((c.memo_hits, c.memo_misses), (1, 1));
        assert_eq!((c.rungs_symbolic, c.rungs_fuzz), (1, 1));
        assert_eq!(c.jobs_executed, 1);
        assert_eq!(
            (c.sim_batches, c.sim_lanes_occupied, c.sim_lanes_total),
            (3, 40, 48)
        );
    }

    #[test]
    fn folding_is_order_insensitive() {
        let a = event(
            SpanKind::SatSolve,
            None,
            1,
            Cost {
                conflicts: 5,
                ..Cost::default()
            },
        );
        let b = event(SpanKind::MemoLookup, None, 1, Cost::default());
        assert_eq!(
            CostCounters::from_events(&[a.clone(), b.clone()]),
            CostCounters::from_events(&[b, a])
        );
    }

    #[test]
    fn named_round_trip_and_missing_field_rejection() {
        let mut c = CostCounters::default();
        for (i, (_, slot)) in c.fields_mut().into_iter().enumerate() {
            *slot = (i as u64 + 1) * 7;
        }
        let fields = c.fields();
        let rebuilt = CostCounters::from_named(|name| {
            fields.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
        })
        .expect("all fields present");
        assert_eq!(rebuilt, c);
        assert!(
            CostCounters::from_named(|name| (name != "ops")
                .then(|| fields.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .flatten())
            .is_none(),
            "a missing field must not parse as zero"
        );
    }

    #[test]
    fn json_contains_every_field_once() {
        let c = CostCounters {
            ops: 12,
            conflicts: 9,
            ..CostCounters::default()
        };
        let json = c.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for (name, value) in c.fields() {
            let needle = format!("\"{name}\":{value}");
            assert_eq!(json.matches(&needle).count(), 1, "missing {needle}");
        }
    }
}
