//! Profile synthesis: folds a drained event vector into
//! flamegraph-compatible stacks with inclusive/exclusive time.
//!
//! Trace events are flat — every span records independently, with job
//! and engine attribution but no parent pointer. The stack structure is
//! nevertheless recoverable, because the instrumentation hierarchy is
//! fixed: a job span contains rung spans, a rung contains the engine
//! children carrying its [`EngineTag`](crate::EngineTag), compiles
//! contain opt passes. [`Profile::from_events`] rebuilds exactly that
//! hierarchy — the same engine-tag (not time-containment) attribution
//! rule `asv_serve::report::assemble_reports` uses.
//!
//! Two outputs:
//!
//! * [`Profile::folded`] — classic semicolon-separated folded stacks,
//!   one line per frame weighted by **exclusive** nanoseconds, the input
//!   format of `flamegraph.pl` / `inferno` / speedscope.
//! * [`Profile::table`] — a top-N hot-span table (count, inclusive,
//!   exclusive) for terminal consumption.

use crate::span::{Event, SpanKind};
use std::collections::BTreeMap;

/// Aggregated statistics for one stack frame (one unique path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Spans aggregated into this frame.
    pub count: u64,
    /// Total span duration, children included.
    pub incl_ns: u64,
    /// Inclusive time minus the inclusive time of direct children
    /// (saturating, so children whose summed time exceeds their
    /// parent's never underflow it).
    pub excl_ns: u64,
}

/// A synthesized profile: frames keyed by semicolon-separated stack
/// path, in path order.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    frames: BTreeMap<String, FrameStat>,
}

/// The stack path of one event under the fixed instrumentation
/// hierarchy. Job-attributed events nest under `serve.job`; engine
/// children nest under their rung; opt passes nest under the compile
/// that ran them.
///
/// Rung frames are canonicalized to `rung.<engine slug>` so they always
/// line up with their children's engine-tag segment — the enumeration
/// rung's probe uses the short name `rung.enum`, which differs from its
/// slug `enumeration`.
fn stack_of(e: &Event) -> String {
    let under_job = e.job != 0;
    let mut path = String::new();
    if under_job && e.kind != SpanKind::Job {
        path.push_str("serve.job;");
    }
    match e.kind {
        SpanKind::Job => path.push_str("serve.job"),
        SpanKind::Rung => match e.engine {
            Some(tag) => {
                path.push_str("rung.");
                path.push_str(tag.slug());
            }
            None => path.push_str(e.name),
        },
        SpanKind::OptPass => {
            path.push_str("sim.compile;");
            path.push_str(e.name);
        }
        SpanKind::Compile | SpanKind::MemoLookup => path.push_str(e.name),
        SpanKind::AigBlast
        | SpanKind::SatSolve
        | SpanKind::FuzzRound
        | SpanKind::Enumeration
        | SpanKind::Batch => {
            if let Some(tag) = e.engine {
                path.push_str("rung.");
                path.push_str(tag.slug());
                path.push(';');
            }
            path.push_str(e.name);
        }
    }
    path
}

/// True when `child` is a direct child path of `parent`.
fn is_direct_child(parent: &str, child: &str) -> bool {
    child.len() > parent.len()
        && child.starts_with(parent)
        && child.as_bytes()[parent.len()] == b';'
        && !child[parent.len() + 1..].contains(';')
}

impl Profile {
    /// Folds events into per-path frames and derives exclusive time.
    pub fn from_events(events: &[Event]) -> Self {
        let mut frames: BTreeMap<String, FrameStat> = BTreeMap::new();
        for e in events {
            let stat = frames.entry(stack_of(e)).or_default();
            stat.count += 1;
            stat.incl_ns = stat.incl_ns.saturating_add(e.dur_ns);
        }
        // Exclusive = inclusive − Σ direct children inclusive. Paths are
        // sorted, so a frame's children follow it contiguously.
        let paths: Vec<String> = frames.keys().cloned().collect();
        for (i, path) in paths.iter().enumerate() {
            let child_ns: u64 = paths[i + 1..]
                .iter()
                .take_while(|p| p.starts_with(path.as_str()))
                .filter(|p| is_direct_child(path, p))
                .map(|p| frames[p.as_str()].incl_ns)
                .sum();
            let stat = frames.get_mut(path).expect("known path");
            stat.excl_ns = stat.incl_ns.saturating_sub(child_ns);
        }
        Profile { frames }
    }

    /// All frames, in path order.
    pub fn frames(&self) -> impl Iterator<Item = (&str, &FrameStat)> {
        self.frames.iter().map(|(p, s)| (p.as_str(), s))
    }

    /// The statistics of one exact path.
    pub fn frame(&self, path: &str) -> Option<&FrameStat> {
        self.frames.get(path)
    }

    /// Folded-stack text: one `path weight` line per frame, weighted by
    /// exclusive nanoseconds. Zero-weight frames are skipped (they exist
    /// purely as parents). Feed to `flamegraph.pl` or speedscope.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.frames {
            if stat.excl_ns > 0 {
                out.push_str(path);
                out.push(' ');
                out.push_str(&stat.excl_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// The `n` hottest frames by exclusive time, descending (ties break
    /// by path so the order is deterministic).
    pub fn top(&self, n: usize) -> Vec<(&str, FrameStat)> {
        let mut all: Vec<(&str, FrameStat)> =
            self.frames.iter().map(|(p, s)| (p.as_str(), *s)).collect();
        all.sort_by(|a, b| b.1.excl_ns.cmp(&a.1.excl_ns).then_with(|| a.0.cmp(b.0)));
        all.truncate(n);
        all
    }

    /// A rendered top-N hot-span table.
    pub fn table(&self, n: usize) -> String {
        let mut out = format!(
            "{:<44} {:>8} {:>12} {:>12}\n",
            "span path", "count", "incl ms", "excl ms"
        );
        for (path, stat) in self.top(n) {
            out.push_str(&format!(
                "{:<44} {:>8} {:>12.3} {:>12.3}\n",
                path,
                stat.count,
                stat.incl_ns as f64 / 1e6,
                stat.excl_ns as f64 / 1e6,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{Cost, EngineTag};

    fn span(
        name: &'static str,
        kind: SpanKind,
        job: u128,
        engine: Option<EngineTag>,
        dur_ns: u64,
    ) -> Event {
        Event {
            name,
            kind,
            job,
            engine,
            start_ns: 0,
            dur_ns,
            code: 0,
            cost: Cost::default(),
        }
    }

    #[test]
    fn hierarchy_is_rebuilt_from_flat_events() {
        let events = vec![
            span("serve.job", SpanKind::Job, 7, None, 1000),
            span(
                "rung.symbolic",
                SpanKind::Rung,
                7,
                Some(EngineTag::Symbolic),
                600,
            ),
            span(
                "sat.solve",
                SpanKind::SatSolve,
                7,
                Some(EngineTag::Symbolic),
                250,
            ),
            span(
                "sat.blast",
                SpanKind::AigBlast,
                7,
                Some(EngineTag::Symbolic),
                150,
            ),
        ];
        let p = Profile::from_events(&events);
        let job = p.frame("serve.job").expect("job frame");
        assert_eq!(job.incl_ns, 1000);
        assert_eq!(job.excl_ns, 400, "rung child subtracted");
        let rung = p.frame("serve.job;rung.symbolic").expect("rung frame");
        assert_eq!(rung.incl_ns, 600);
        assert_eq!(rung.excl_ns, 200, "solve + blast subtracted");
        assert_eq!(
            p.frame("serve.job;rung.symbolic;sat.solve")
                .unwrap()
                .excl_ns,
            250
        );
    }

    #[test]
    fn engine_tag_attribution_separates_concurrent_rungs() {
        // A fuzz child overlapping a symbolic rung in time must nest
        // under the fuzz rung, not the symbolic one.
        let events = vec![
            span(
                "rung.symbolic",
                SpanKind::Rung,
                7,
                Some(EngineTag::Symbolic),
                500,
            ),
            span("rung.fuzz", SpanKind::Rung, 7, Some(EngineTag::Fuzz), 500),
            span(
                "fuzz.round",
                SpanKind::FuzzRound,
                7,
                Some(EngineTag::Fuzz),
                300,
            ),
        ];
        let p = Profile::from_events(&events);
        assert_eq!(
            p.frame("serve.job;rung.symbolic").unwrap().excl_ns,
            500,
            "no children leaked into the symbolic rung"
        );
        assert_eq!(p.frame("serve.job;rung.fuzz").unwrap().excl_ns, 200);
        assert!(p.frame("serve.job;rung.fuzz;fuzz.round").is_some());
    }

    #[test]
    fn opt_passes_nest_under_compile_and_jobless_events_stay_top_level() {
        let events = vec![
            span("sim.compile", SpanKind::Compile, 0, None, 100),
            span("sim.opt", SpanKind::OptPass, 0, None, 60),
        ];
        let p = Profile::from_events(&events);
        assert_eq!(p.frame("sim.compile").unwrap().excl_ns, 40);
        assert_eq!(p.frame("sim.compile;sim.opt").unwrap().incl_ns, 60);
    }

    #[test]
    fn saturation_when_concurrent_children_exceed_the_parent() {
        let events = vec![
            span("serve.job", SpanKind::Job, 7, None, 100),
            span(
                "rung.symbolic",
                SpanKind::Rung,
                7,
                Some(EngineTag::Symbolic),
                90,
            ),
            span("rung.fuzz", SpanKind::Rung, 7, Some(EngineTag::Fuzz), 80),
        ];
        let p = Profile::from_events(&events);
        assert_eq!(
            p.frame("serve.job").unwrap().excl_ns,
            0,
            "children sum past the parent: clamp, don't wrap"
        );
    }

    #[test]
    fn folded_output_is_parseable_and_skips_zero_frames() {
        let events = vec![
            span("serve.job", SpanKind::Job, 7, None, 100),
            span(
                "rung.enum",
                SpanKind::Rung,
                7,
                Some(EngineTag::Enumeration),
                100,
            ),
        ];
        let p = Profile::from_events(&events);
        let folded = p.folded();
        assert_eq!(
            folded, "serve.job;rung.enumeration 100\n",
            "parent folded to zero; rung canonicalized to its slug"
        );
        for line in folded.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("path weight");
            assert!(!path.is_empty());
            weight.parse::<u64>().expect("numeric weight");
        }
    }

    #[test]
    fn short_rung_names_canonicalize_so_children_nest() {
        // The enumeration rung's probe is `rung.enum`, but its children
        // carry the `enumeration` slug; both must land on one path.
        let events = vec![
            span(
                "rung.enum",
                SpanKind::Rung,
                7,
                Some(EngineTag::Enumeration),
                500,
            ),
            span(
                "sva.enum",
                SpanKind::Enumeration,
                7,
                Some(EngineTag::Enumeration),
                400,
            ),
        ];
        let p = Profile::from_events(&events);
        let rung = p
            .frame("serve.job;rung.enumeration")
            .expect("canonical rung");
        assert_eq!(rung.incl_ns, 500);
        assert_eq!(rung.excl_ns, 100, "enumeration child subtracted");
        assert!(p.frame("serve.job;rung.enumeration;sva.enum").is_some());
        assert!(p.frame("serve.job;rung.enum").is_none());
    }

    #[test]
    fn top_table_is_sorted_and_bounded() {
        let events = vec![
            span("sim.compile", SpanKind::Compile, 0, None, 10),
            span("serve.job", SpanKind::Job, 3, None, 500),
            span("serve.memo", SpanKind::MemoLookup, 3, None, 50),
        ];
        let p = Profile::from_events(&events);
        let top = p.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "serve.job");
        assert!(top[0].1.excl_ns >= top[1].1.excl_ns);
        let table = p.table(2);
        assert!(table.contains("span path") && table.contains("serve.job"));
    }
}
