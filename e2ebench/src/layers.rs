//! Per-layer metrics of the verification stack, folded from the spans and
//! cost counters the verification crates already emit.

use crate::Report;
use asv_serve::ServeStats;
use asv_trace::{CostCounters, Event, Profile, SpanKind};

/// Per-thread event capacity of the benchmark's tracers: a whole traced
/// pass stays in memory until it is drained, and a dropped event would
/// make the counters wrong (the runs check that none is dropped).
pub const RING_CAP: usize = 1 << 22;

/// Inclusive (or exclusive) milliseconds of every frame whose innermost
/// span is `name`, wherever it sits in the stack.
fn span_ms(profile: &Profile, name: &str, exclusive: bool) -> f64 {
    let ns: u64 = profile
        .frames()
        .filter(|(path, _)| path.rsplit(';').next() == Some(name))
        .map(|(_, s)| if exclusive { s.excl_ns } else { s.incl_ns })
        .sum();
    ns as f64 / 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Nearest-rank percentile of the `serve.job` span durations, in ms.
fn job_percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// Reports the serve/sva/sat/sim/fuzz layers of one traced pass and
/// returns its cost counters. `stats` are the service counters of that
/// pass alone.
pub fn verification(events: &[Event], stats: ServeStats, report: &mut Report) -> CostCounters {
    let c = CostCounters::from_events(events);
    let profile = Profile::from_events(events);
    let mut jobs: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Job)
        .map(|e| e.dur_ns)
        .collect();
    jobs.sort_unstable();
    report.set("serve.executed", stats.executed as f64);
    report.set("serve.dedup_ratio", ratio(stats.deduped, stats.submitted));
    report.set(
        "serve.memo_hit_ratio",
        ratio(stats.memo_hits, stats.submitted - stats.deduped),
    );
    report.set("serve.job_p50_ms", job_percentile_ms(&jobs, 0.50));
    report.set("serve.job_p99_ms", job_percentile_ms(&jobs, 0.99));
    report.set("sva.rungs_symbolic", c.rungs_symbolic as f64);
    report.set("sva.rungs_enumeration", c.rungs_enumeration as f64);
    report.set("sva.rungs_fuzz", c.rungs_fuzz as f64);
    report.set("sva.rungs_sampling", c.rungs_sampling as f64);
    report.set(
        "sva.symbolic_self_ms",
        span_ms(&profile, "rung.symbolic", true),
    );
    report.set("sat.blast_ms", span_ms(&profile, "sat.blast", false));
    report.set("sat.solve_ms", span_ms(&profile, "sat.solve", false));
    report.set("sat.conflicts", c.conflicts as f64);
    report.set("sat.aig_nodes", c.aig_nodes as f64);
    report.set("sim.compile_ms", span_ms(&profile, "sim.compile", false));
    report.set("sim.compiles", c.compiles as f64);
    report.set("fuzz.round_ms", span_ms(&profile, "fuzz.round", false));
    report.set(
        "sim.lane_occupancy",
        ratio(c.sim_lanes_occupied, c.sim_lanes_total),
    );
    report.check(c.jobs_executed == stats.executed, || {
        format!(
            "{} serve.job spans for {} executed jobs",
            c.jobs_executed, stats.executed
        )
    });
    println!(
        "rung mix: symbolic {} enumeration {} fuzz {} sampling {}; \
         dedup {}/{} submitted, memo hits {}/{} looked up, {} executed",
        c.rungs_symbolic,
        c.rungs_enumeration,
        c.rungs_fuzz,
        c.rungs_sampling,
        stats.deduped,
        stats.submitted,
        stats.memo_hits,
        stats.submitted - stats.deduped,
        stats.executed
    );
    c
}

/// Prints the hottest spans by exclusive time.
pub fn print_profile(events: &[Event]) {
    print!("{}", Profile::from_events(events).table(10));
}
