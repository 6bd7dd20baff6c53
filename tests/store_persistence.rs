//! Persistence suite: the `asv-store` tier under `asv-serve`.
//!
//! Over a 64-job mixed batch (holding goldens, refuted mutants and
//! deterministically erroring designs across all 12 datagen archetypes):
//!
//! * verdicts through a store-backed service are bit-identical to a
//!   store-less run, across worker counts {1, 2, 8};
//! * a fresh service on a warmed store directory answers the whole batch
//!   from disk — zero engine executions — at least 20× faster than the
//!   cold run;
//! * corruption (flipped object bytes, torn manifest tail) is a cache
//!   miss, never a panic or a wrong verdict: the damaged entries
//!   re-execute and re-persist;
//! * mark-and-sweep GC empties an over-budget store, after which
//!   verification still produces identical verdicts.

use asv_datagen::corpus::{Archetype, CorpusGen};
use asv_mutation::inject::{apply, enumerate};
use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_store::GcPolicy;
use asv_sva::bmc::{Engine, Verifier};
use asv_verilog::sema::Design;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// A scratch store directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "asv-store-suite-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn stored_service(dir: &ScratchDir, workers: usize) -> VerifyService {
    VerifyService::new(ServeOptions {
        workers,
        store_dir: Some(dir.0.clone()),
        ..ServeOptions::default()
    })
}

fn bounds(depth: usize) -> Verifier {
    Verifier {
        depth,
        reset_cycles: 2,
        exhaustive_limit: 256,
        random_runs: 24,
        engine: Engine::Auto,
        ..Verifier::default()
    }
}

/// Golden + first-compilable-mutant designs covering every archetype.
fn archetype_designs() -> Vec<Design> {
    let designs = CorpusGen::new(0x57_0BE_u64).generate(Archetype::ALL.len());
    let mut out = Vec::new();
    for gd in &designs {
        let golden = asv_verilog::compile(&gd.source)
            .unwrap_or_else(|e| panic!("{}: golden must compile: {e}", gd.name));
        if let Some(buggy) = enumerate(&golden).into_iter().find_map(|m| {
            let injection = apply(&golden, &m).ok()?;
            asv_verilog::compile(&injection.buggy_source).ok()
        }) {
            out.push(buggy);
        }
        out.push(golden);
    }
    out
}

/// 64 unique jobs: archetype goldens/mutants cycled across depths, plus
/// deterministically erroring (assertion-free) designs mixed in.
fn mixed_batch() -> Vec<VerifyJob> {
    let designs = archetype_designs();
    let no_assertions =
        asv_verilog::compile("module bare(input a, output y); assign y = a; endmodule")
            .expect("compiles");
    let mut jobs = Vec::with_capacity(64);
    let mut i = 0usize;
    while jobs.len() < 64 {
        if jobs.len() % 16 == 15 {
            jobs.push(VerifyJob::new(no_assertions.clone(), bounds(10 + (i % 3))));
        } else {
            let d = designs[i % designs.len()].clone();
            jobs.push(VerifyJob::new(d, bounds(10 + (i / designs.len()) % 3)));
        }
        i += 1;
    }
    jobs
}

#[test]
fn store_backed_verdicts_match_storeless_across_worker_counts() {
    let batch = mixed_batch();
    let reference = VerifyService::with_workers(1).verify_batch(&batch);
    assert!(
        reference.iter().any(|o| o.is_err()),
        "mixed batch must contain deterministic errors"
    );
    for workers in [1, 2, 8] {
        let dir = ScratchDir::new("ident");
        let cold = stored_service(&dir, workers).verify_batch(&batch);
        assert_eq!(
            cold, reference,
            "store-backed cold run with {workers} workers diverged from store-less"
        );
        // And the disk-warm replay, from a fresh service on the same dir.
        let warm = stored_service(&dir, workers).verify_batch(&batch);
        assert_eq!(
            warm, reference,
            "disk-warm run with {workers} workers diverged from store-less"
        );
    }
}

#[test]
fn warm_disk_reverify_is_20x_faster_and_runs_no_engine() {
    // Best of three on each side, so one slow sample on a busy machine
    // cannot decide the ratio.
    const RUNS: usize = 3;
    let batch = mixed_batch();
    let dirs: Vec<ScratchDir> = (0..RUNS).map(|_| ScratchDir::new("speed")).collect();
    let mut cold = Vec::new();
    let mut cold_time = Duration::MAX;
    for dir in &dirs {
        asv_serve::clear_design_cache();
        let cold_service = stored_service(dir, 4);
        let t0 = Instant::now();
        let out = cold_service.verify_batch(&batch);
        cold_time = cold_time.min(t0.elapsed());
        assert!(cold_service.stats().executed > 0);
        if cold.is_empty() {
            cold = out;
        } else {
            assert_eq!(out, cold, "cold runs on fresh stores must agree");
        }
    }

    let mut warm_time = Duration::MAX;
    for _ in 0..RUNS {
        // A fresh process would also start with a cold compile cache.
        asv_serve::clear_design_cache();
        let warm_service = stored_service(&dirs[0], 4);
        let t1 = Instant::now();
        let warm = warm_service.verify_batch(&batch);
        warm_time = warm_time.min(t1.elapsed());

        assert_eq!(cold, warm, "disk-warm verdicts must be bit-identical");
        let stats = warm_service.stats();
        assert_eq!(stats.executed, 0, "warm batch must run no engine");
        assert_eq!(stats.store_misses, 0, "every unique job must hit the store");
    }
    assert!(
        warm_time.as_secs_f64() * 20.0 <= cold_time.as_secs_f64(),
        "warm disk replay must be >= 20x faster: best cold {cold_time:?}, best warm {warm_time:?}"
    );
}

#[test]
fn flipped_object_bytes_are_a_miss_never_a_wrong_verdict() {
    let batch = mixed_batch();
    let dir = ScratchDir::new("corrupt");
    let reference = stored_service(&dir, 4).verify_batch(&batch);

    // Flip one byte in every stored object.
    let objects = dir.0.join("objects");
    let mut corrupted = 0usize;
    for shard in std::fs::read_dir(&objects).expect("objects dir") {
        for obj in std::fs::read_dir(shard.expect("shard").path()).expect("shard dir") {
            let path = obj.expect("object").path();
            let mut bytes = std::fs::read(&path).expect("read object");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xA5;
            std::fs::write(&path, bytes).expect("rewrite object");
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "cold run must have persisted objects");

    let healed = stored_service(&dir, 4);
    let out = healed.verify_batch(&batch);
    assert_eq!(out, reference, "corruption must never change a verdict");
    let stats = healed.stats();
    assert!(
        stats.executed > 0,
        "corrupted entries must re-execute, not silently hit"
    );
    // The re-executed verdicts were re-persisted: a third service warm-hits.
    let replay = stored_service(&dir, 4);
    assert_eq!(replay.verify_batch(&batch), reference);
    assert_eq!(
        replay.stats().executed,
        0,
        "store must self-heal after corruption"
    );
}

#[test]
fn torn_manifest_tail_recovers_to_a_consistent_prefix() {
    let batch = mixed_batch();
    let dir = ScratchDir::new("torn");
    let reference = stored_service(&dir, 4).verify_batch(&batch);

    // Simulate a crash mid-append: chop the manifest mid-record and then
    // append garbage that cannot frame-decode.
    let manifest = dir.0.join("manifest.log");
    let mut bytes = std::fs::read(&manifest).expect("manifest");
    let keep = bytes.len() - bytes.len() / 3;
    bytes.truncate(keep);
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
    std::fs::write(&manifest, bytes).expect("rewrite manifest");

    let recovered = stored_service(&dir, 4);
    let out = recovered.verify_batch(&batch);
    assert_eq!(out, reference, "torn manifest must never change a verdict");
    // A clean replay after recovery is fully warm again.
    let replay = stored_service(&dir, 4);
    assert_eq!(replay.verify_batch(&batch), reference);
    assert_eq!(replay.stats().executed, 0);
}

#[test]
fn gc_sweeps_an_overbudget_store_and_verification_survives() {
    let batch = mixed_batch();
    let dir = ScratchDir::new("gc");
    let service = stored_service(&dir, 4);
    let reference = service.verify_batch(&batch);
    let store = service.store().expect("store configured");
    assert!(!store.is_empty());

    // A zero-byte budget evicts every entry and sweeps every object.
    let report = store
        .gc(GcPolicy {
            max_age_secs: None,
            max_bytes: Some(0),
        })
        .expect("gc");
    assert_eq!(report.live_entries, 0);
    assert_eq!(report.live_objects, 0);
    assert!(report.bytes_freed > 0);
    let object_files: usize = std::fs::read_dir(dir.0.join("objects"))
        .map(|shards| {
            shards
                .flatten()
                .filter_map(|s| std::fs::read_dir(s.path()).ok())
                .map(|objs| objs.count())
                .sum()
        })
        .unwrap_or(0);
    assert_eq!(object_files, 0, "swept store must hold no object files");

    // Post-GC verification is cold again but still correct, and repopulates.
    let after = stored_service(&dir, 4);
    assert_eq!(after.verify_batch(&batch), reference);
    assert!(after.stats().executed > 0, "post-GC run must be cold");
    assert!(
        !after.store().expect("store").is_empty(),
        "store repopulates"
    );
}
