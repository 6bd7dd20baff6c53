//! Per-job provenance: which cache tier answered, which ladder rungs
//! ran, why each rung ended, and what each rung cost.
//!
//! A [`JobReport`] is assembled at *collection* time from the trace
//! events a batch emitted — the engines know nothing about reports, and
//! a service without a tracer produces reports with correct tiers and
//! empty rung lists. Rung resource costs are attributed by **engine
//! tag**, not time containment: every child span (SAT solve, fuzz
//! round, enumeration sweep) carries the [`EngineTag`] of the rung whose
//! budget it ran under, so the grouping is exact.
//!
//! Wall-clock numbers appear *only* here and in the trace output;
//! verdicts, job keys and cache contents never see a timestamp.

use crate::job::JobKey;
use asv_trace::{Cost, EndReason, EngineTag, Event, SpanKind};

/// Which tier of the service answered a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerTier {
    /// The in-memory verdict memo.
    Memo,
    /// An engine actually ran.
    Engine,
    /// In-batch duplicate: copied from its owner's slot.
    Deduped,
}

impl AnswerTier {
    /// Short lowercase label for tables and trace args.
    pub fn label(self) -> &'static str {
        match self {
            AnswerTier::Memo => "memo",
            AnswerTier::Engine => "engine",
            AnswerTier::Deduped => "deduped",
        }
    }
}

/// One degradation-ladder rung a job tried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RungReport {
    /// Which engine the rung ran.
    pub engine: EngineTag,
    /// Why the rung ended.
    pub end: EndReason,
    /// Rung wall time in nanoseconds.
    pub wall_ns: u64,
    /// Resources the rung's children spent (conflicts, rounds, AIG
    /// nodes, stimuli), summed by engine tag.
    pub cost: Cost,
}

/// Provenance of one job in a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// The job's key (submission identity).
    pub key: JobKey,
    /// Which tier answered.
    pub tier: AnswerTier,
    /// Ladder rungs tried, in start order. Empty unless an engine ran
    /// under a live tracer (memo answers try no rungs; duplicates
    /// report through their owner).
    pub rungs: Vec<RungReport>,
    /// End-to-end engine wall time in nanoseconds (the `serve.job`
    /// span), 0 when no engine ran or no tracer was attached.
    pub wall_ns: u64,
}

/// Assembles one report per batch slot from the batch's trace events.
///
/// `keys` and `tiers` are parallel to the submission order. Events are
/// matched to slots by job key; duplicate slots ([`AnswerTier::Deduped`])
/// get empty rung lists — their owner's slot carries the engine work.
pub fn assemble_reports(keys: &[JobKey], tiers: &[AnswerTier], events: &[Event]) -> Vec<JobReport> {
    debug_assert_eq!(keys.len(), tiers.len());
    keys.iter()
        .zip(tiers)
        .enumerate()
        .map(|(i, (&key, &tier))| {
            // Only the first slot of a key owns its events.
            let owner = keys.iter().position(|k| *k == key) == Some(i);
            if !owner || tier == AnswerTier::Deduped {
                return JobReport {
                    key,
                    tier,
                    rungs: Vec::new(),
                    wall_ns: 0,
                };
            }
            let mine: Vec<&Event> = events.iter().filter(|e| e.job == key.0).collect();
            let mut rungs: Vec<(u64, RungReport)> = mine
                .iter()
                .filter(|e| e.kind == SpanKind::Rung)
                .filter_map(|rung| {
                    let engine = rung.engine?;
                    let mut cost = rung.cost;
                    for child in &mine {
                        if child.engine == Some(engine)
                            && child.kind != SpanKind::Rung
                            && child.kind != SpanKind::Job
                        {
                            cost.add(child.cost);
                        }
                    }
                    Some((
                        rung.start_ns,
                        RungReport {
                            engine,
                            end: EndReason::from_code(rung.code),
                            wall_ns: rung.dur_ns,
                            cost,
                        },
                    ))
                })
                .collect();
            rungs.sort_by_key(|(start, _)| *start);
            let wall_ns = mine
                .iter()
                .filter(|e| e.kind == SpanKind::Job)
                .map(|e| e.dur_ns)
                .max()
                .unwrap_or(0);
            JobReport {
                key,
                tier,
                rungs: rungs.into_iter().map(|(_, r)| r).collect(),
                wall_ns,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(job: u128, kind: SpanKind, engine: Option<EngineTag>, code: u64, cost: Cost) -> Event {
        Event {
            name: "test",
            kind,
            job,
            engine,
            start_ns: 0,
            dur_ns: 10,
            code,
            cost,
        }
    }

    #[test]
    fn rung_costs_group_by_engine_tag_not_time() {
        let keys = [JobKey(1)];
        let tiers = [AnswerTier::Engine];
        let events = vec![
            event(
                1,
                SpanKind::Rung,
                Some(EngineTag::Symbolic),
                EndReason::Holds.code(),
                Cost::default(),
            ),
            event(
                1,
                SpanKind::SatSolve,
                Some(EngineTag::Symbolic),
                0,
                Cost {
                    conflicts: 5,
                    ..Cost::default()
                },
            ),
            // A concurrent fuzz child (overlapping in time) must not
            // leak into the symbolic rung's cost.
            event(
                1,
                SpanKind::FuzzRound,
                Some(EngineTag::Fuzz),
                0,
                Cost {
                    rounds: 3,
                    ..Cost::default()
                },
            ),
        ];
        let reports = assemble_reports(&keys, &tiers, &events);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rungs.len(), 1);
        let rung = &reports[0].rungs[0];
        assert_eq!(rung.engine, EngineTag::Symbolic);
        assert_eq!(rung.end, EndReason::Holds);
        assert_eq!(rung.cost.conflicts, 5);
        assert_eq!(rung.cost.rounds, 0, "fuzz child belongs to a fuzz rung");
    }

    #[test]
    fn duplicates_and_foreign_events_stay_out() {
        let keys = [JobKey(1), JobKey(1), JobKey(2)];
        let tiers = [AnswerTier::Engine, AnswerTier::Deduped, AnswerTier::Memo];
        let events = vec![event(
            1,
            SpanKind::Rung,
            Some(EngineTag::Fuzz),
            EndReason::Fails.code(),
            Cost::default(),
        )];
        let reports = assemble_reports(&keys, &tiers, &events);
        assert_eq!(reports[0].rungs.len(), 1);
        assert!(reports[1].rungs.is_empty(), "duplicate slot owns no events");
        assert_eq!(reports[1].tier, AnswerTier::Deduped);
        assert!(reports[2].rungs.is_empty(), "memo answer ran no rungs");
    }

    #[test]
    fn no_tracer_means_empty_rungs_never_a_panic() {
        let reports = assemble_reports(&[JobKey(9)], &[AnswerTier::Engine], &[]);
        assert_eq!(reports.len(), 1);
        assert!(reports[0].rungs.is_empty());
        assert_eq!(reports[0].wall_ns, 0);
    }
}
