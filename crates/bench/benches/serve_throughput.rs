//! Criterion benches for the `asv-serve` orchestration layer, all over
//! one batch of 64 mixed-archetype `Engine::Auto` jobs (goldens and
//! injected mutants across all 12 datagen archetypes).
//!
//! * `serve_batch64_sequential_auto` — the 64 jobs through a plain
//!   `Verifier` loop (the pre-serve call pattern).
//! * `serve_memoized_reverify` — the same batch against a warm verdict
//!   memo: every job answers in O(hash) (key computation + one sharded
//!   lookup), not O(solve). The gap to the cold bench is the point of
//!   the cache.
//! * `serve_warm_disk_reverify` — the same batch through a *fresh*
//!   service (cold memo, cold compile cache — a new process) over a
//!   warmed `asv-store` directory: every verdict answers from disk, so
//!   the iteration pays compile + cone hashing + store reads but zero
//!   engine executions. The gap to the cold bench is the point of the
//!   persistent tier.

use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_mutation::inject::{apply, enumerate};
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sva::bmc::Verifier;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;

/// A scratch store directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("asv-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bounds() -> Verifier {
    Verifier {
        depth: 8,
        reset_cycles: 2,
        exhaustive_limit: 256,
        random_runs: 24,
        ..Verifier::default()
    }
}

/// 64 jobs cycling golden + first-compilable-mutant designs over all 12
/// archetypes.
fn mixed_batch() -> Vec<VerifyJob> {
    let designs = CorpusGen::new(0x5E27E).generate(2 * Archetype::ALL.len());
    let mut pool: Vec<std::sync::Arc<asv_verilog::Design>> = Vec::new();
    for gd in &designs {
        let golden = asv_verilog::compile(&gd.source).expect("golden compiles");
        if let Some(buggy) = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            asv_verilog::compile(&injection.buggy_source).ok()
        }) {
            pool.push(std::sync::Arc::new(buggy));
        }
        pool.push(std::sync::Arc::new(golden));
    }
    (0..64)
        .map(|i| VerifyJob::new(std::sync::Arc::clone(&pool[i % pool.len()]), bounds()))
        .collect()
}

fn bench_serve(c: &mut Criterion) {
    let auto_jobs = mixed_batch();

    c.bench_function("serve_batch64_sequential_auto", |b| {
        b.iter(|| {
            auto_jobs
                .iter()
                .map(|j| j.verifier.check(black_box(&j.design)).is_ok() as usize)
                .sum::<usize>()
        })
    });

    // Warm the memo once, then measure pure re-verification.
    let memoized = VerifyService::new(ServeOptions::default());
    let cold = memoized.verify_batch(&auto_jobs);
    assert_eq!(cold.len(), 64);
    c.bench_function("serve_memoized_reverify", |b| {
        b.iter(|| memoized.verify_batch(black_box(&auto_jobs)).len())
    });
    assert_eq!(
        memoized.stats().executed,
        memoized.verdict_cache().len() as u64,
        "re-verification must never re-run an engine"
    );

    // Warm a store directory once, then measure what a fresh process
    // pays to re-verify the batch: compile + cone hashing + disk reads,
    // zero engine executions.
    let scratch = ScratchDir::new();
    let stored_opts = || ServeOptions {
        workers: 0,
        store_dir: Some(scratch.0.clone()),
        ..ServeOptions::default()
    };
    let warmer = VerifyService::new(stored_opts());
    assert_eq!(warmer.verify_batch(&auto_jobs).len(), 64);
    drop(warmer);
    c.bench_function("serve_warm_disk_reverify", |b| {
        b.iter(|| {
            asv_serve::clear_design_cache();
            let fresh = VerifyService::new(stored_opts());
            let n = fresh.verify_batch(black_box(&auto_jobs)).len();
            assert_eq!(
                fresh.stats().executed,
                0,
                "warm disk replay must run no engine"
            );
            n
        })
    });
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
