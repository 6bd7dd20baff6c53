//! Textual table and figure renderers: each bench binary prints the same
//! rows/series as the corresponding paper artefact.

use crate::runner::EvalRun;
use asv_datagen::dataset::LengthBin;
use asv_mutation::BugCategory;
use asv_serve::VerifyService;
use asv_trace::EngineTag;
use std::fmt::Write;

/// One table column: header plus the metric extracted per run.
pub type Column<'a> = (&'a str, &'a dyn Fn(&EvalRun) -> f64);

/// Renders a generic percentage table: one row per run, the given column
/// extractors applied to each.
pub fn pass_table(title: &str, columns: &[Column], runs: &[&EvalRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let name_w = runs
        .iter()
        .map(|r| r.engine.len())
        .max()
        .unwrap_or(5)
        .max(5);
    let _ = write!(out, "{:<name_w$}", "Model");
    for (h, _) in columns {
        let _ = write!(out, "  {h:>14}");
    }
    out.push('\n');
    // Column-wise best for the paper's grey shading.
    let best: Vec<f64> = columns
        .iter()
        .map(|(_, f)| runs.iter().map(|r| f(r)).fold(f64::NEG_INFINITY, f64::max))
        .collect();
    for r in runs {
        let _ = write!(out, "{:<name_w$}", r.engine);
        for ((_, f), b) in columns.iter().zip(&best) {
            let v = f(r) * 100.0;
            let marker = if (f(r) - b).abs() < 1e-12 { "*" } else { " " };
            let _ = write!(out, "  {v:>12.2}%{marker}");
        }
        out.push('\n');
    }
    out.push_str("(* = best in column)\n");
    out
}

/// Renders the Fig. 3 histogram: counts of cases by `c` (correct among n),
/// one series per run, with ASCII bars.
pub fn histogram(title: &str, runs: &[&EvalRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let hists: Vec<Vec<usize>> = runs.iter().map(|r| r.histogram()).collect();
    let n = hists.iter().map(Vec::len).max().unwrap_or(1) - 1;
    let _ = write!(out, "{:>4}", "c");
    for r in runs {
        let _ = write!(out, "  {:>20}", truncate(&r.engine, 20));
    }
    out.push('\n');
    let maxv = hists
        .iter()
        .flat_map(|h| h.iter())
        .copied()
        .max()
        .unwrap_or(1)
        .max(1);
    for c in 0..=n {
        let _ = write!(out, "{c:>4}");
        for h in &hists {
            let v = h.get(c).copied().unwrap_or(0);
            let bar_len = (v * 14).div_ceil(maxv).min(14);
            let _ = write!(out, "  {v:>4} {:<15}", "#".repeat(bar_len));
        }
        out.push('\n');
    }
    out
}

/// Renders the Fig. 4 / Fig. 5 grouped comparison: pass@k per bug type (a)
/// and per code-length interval (b), one column per run.
pub fn grouped(title: &str, k: usize, runs: &[&EvalRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} (pass@{k}) ==");
    let _ = write!(out, "{:<12}", "Group");
    for r in runs {
        let _ = write!(out, "  {:>22}", truncate(&r.engine, 22));
    }
    out.push('\n');
    let _ = writeln!(out, "-- by bug type --");
    for cat in BugCategory::ALL {
        let _ = write!(out, "{:<12}", cat.to_string());
        for r in runs {
            let _ = write!(out, "  {:>21.2}%", r.pass_at_category(k, cat) * 100.0);
        }
        out.push('\n');
    }
    let _ = writeln!(out, "-- by code length --");
    for bin in LengthBin::ALL {
        let _ = write!(out, "{:<12}", bin.label());
        for r in runs {
            let _ = write!(out, "  {:>21.2}%", r.pass_at_bin(k, bin) * 100.0);
        }
        out.push('\n');
    }
    out
}

/// Percentage of `part` in `whole`, 0 when the denominator is empty.
fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 * 100.0 / whole as f64
    }
}

/// Renders the service-side observability table: how a batch's jobs were
/// answered (memo / engine, with the memo hit rate) and how many
/// rungs each engine ran. Counts come straight from
/// the service's metrics registry — the same values a Prometheus scrape
/// sees. Rung counts need an attached tracer (they read the span-derived
/// `asv_rung_*` counters) and render as 0 without one.
pub fn service_stats_table(title: &str, service: &VerifyService) -> String {
    let stats = service.stats();
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(
        out,
        "jobs      submitted {:>6}  executed {:>6}  deduped {:>6}",
        stats.submitted, stats.executed, stats.deduped
    );
    let _ = writeln!(
        out,
        "memo      hits {:>6}  ({:.1}% of submissions)",
        stats.memo_hits,
        pct(stats.memo_hits, stats.submitted)
    );
    let _ = write!(out, "rungs    ");
    for tag in EngineTag::ALL {
        let count = service
            .metrics()
            .counter_value(&format!("asv_rung_{}_total", tag.slug()))
            .unwrap_or(0);
        let _ = write!(out, " {} {:>5} ", tag.slug(), count);
    }
    out.push('\n');
    out
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}…", &s[..n.saturating_sub(1)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::CaseResult;

    fn run(name: &str, cs: &[usize]) -> EvalRun {
        EvalRun {
            engine: name.into(),
            cases: cs
                .iter()
                .map(|&c| CaseResult {
                    module: "m".into(),
                    categories: vec![BugCategory::Direct, BugCategory::Op],
                    bin: LengthBin::B50,
                    human: false,
                    c,
                    n: 20,
                })
                .collect(),
        }
    }

    #[test]
    fn service_stats_table_renders_every_tier_and_rung() {
        let service = VerifyService::default();
        let t = service_stats_table("Service stats", &service);
        assert!(t.contains("== Service stats =="), "{t}");
        assert!(t.contains("jobs"), "{t}");
        assert!(t.contains("memo"), "{t}");
        for tag in EngineTag::ALL {
            assert!(t.contains(tag.slug()), "missing rung column {tag:?}: {t}");
        }
    }

    #[test]
    fn pass_table_marks_best() {
        let a = run("ModelA", &[20, 20]);
        let b = run("ModelB", &[0, 20]);
        let t = pass_table(
            "Table III",
            &[
                ("pass@1", &|r: &EvalRun| r.pass_at(1)),
                ("pass@5", &|r: &EvalRun| r.pass_at(5)),
            ],
            &[&a, &b],
        );
        assert!(t.contains("Table III"));
        assert!(t.contains("100.00%*"), "{t}");
        assert!(t.contains("50.00%"), "{t}");
    }

    #[test]
    fn histogram_renders_every_bucket() {
        let a = run("A", &[0, 0, 20, 10]);
        let h = histogram("Fig 3", &[&a]);
        assert!(h.lines().count() >= 22, "{h}");
        assert!(h.contains('#'));
    }

    #[test]
    fn grouped_covers_all_groups() {
        let a = run("A", &[20]);
        let g = grouped("Fig 4", 1, &[&a]);
        for cat in BugCategory::ALL {
            assert!(g.contains(&cat.to_string()), "missing {cat}");
        }
        for bin in LengthBin::ALL {
            assert!(g.contains(bin.label()), "missing {bin}");
        }
    }
}
