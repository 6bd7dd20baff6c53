//! Runs the performance-observatory workload matrix and writes a
//! schema-versioned `BENCH_<label>.json` report (see
//! [`asv_bench::perf`]), plus a hot-span table synthesized from the
//! cold serve leg's trace.
//!
//! ```text
//! perf_matrix [--label L] [--out DIR] [--runs N] [--quick]
//! ```
//!
//! `ASV_SCALE=quick` (or `--quick`) shrinks the design pool and drops
//! to one wall repetition — the CI smoke configuration. The report is
//! consumed by `perf_gate`.

use asv_bench::perf::{run_matrix, MatrixConfig};
use asv_bench::Scale;
use asv_trace::Profile;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: perf_matrix [--label L] [--out DIR] [--runs N] [--quick]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut label = "local".to_string();
    let mut out_dir = PathBuf::from(".");
    let mut quick = Scale::from_env() == Scale::Quick;
    let mut runs: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--label" => match args.next() {
                Some(l) => label = l,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(d) => out_dir = PathBuf::from(d),
                None => return usage(),
            },
            "--runs" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => runs = Some(n),
                None => return usage(),
            },
            "--quick" => quick = true,
            _ => return usage(),
        }
    }
    if label.is_empty()
        || !label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        eprintln!("perf_matrix: label must match [A-Za-z0-9_-]+, got `{label}`");
        return ExitCode::from(2);
    }

    let cfg = MatrixConfig {
        label,
        quick,
        runs: runs.unwrap_or(if quick { 1 } else { 3 }),
    };
    eprintln!(
        "[perf] matrix: scale={} runs={} label={}",
        cfg.scale(),
        cfg.runs,
        cfg.label
    );
    let (report, cold_events) = run_matrix(&cfg);

    println!(
        "== Perf matrix ({} scale, min of {} runs) ==",
        report.scale, cfg.runs
    );
    let col = report
        .workloads
        .keys()
        .map(String::len)
        .fold("workload".len(), usize::max);
    println!(
        "{:<col$} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "workload", "wall_min_ms", "ops", "conflicts", "fuzz_rounds", "memo_hits"
    );
    for (name, w) in &report.workloads {
        println!(
            "{:<col$} {:>12.2} {:>12} {:>12} {:>12} {:>12}",
            name,
            w.wall_min_ns() as f64 / 1e6,
            w.counters.ops,
            w.counters.conflicts,
            w.counters.fuzz_rounds,
            w.counters.memo_hits
        );
        if let Some((p50, p90, p99)) = w.job_ns {
            println!(
                "{:<col$} job latency p50={:.2}ms p90={:.2}ms p99={:.2}ms",
                "",
                p50 as f64 / 1e6,
                p90 as f64 / 1e6,
                p99 as f64 / 1e6
            );
        }
    }

    let profile = Profile::from_events(&cold_events);
    println!();
    print!("{}", profile.table(10));

    let _ = std::fs::create_dir_all(&out_dir);
    let path = out_dir.join(format!("BENCH_{}.json", report.label));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!("perf_matrix: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("\nwrote {}", path.display());
    ExitCode::SUCCESS
}
