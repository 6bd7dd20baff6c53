//! End-to-end enforcement of the cost-counter determinism contract
//! (`asv_trace::cost`): the **full** [`CostCounters`] vector folded
//! from a traced mixed 64-job batch must be bit-identical across
//! worker counts {1, 2, 8} and across reruns at the same worker count.
//!
//! Counters count *work*, not time — wall clock is excluded by
//! construction (it lives in event timestamps, which the fold never
//! reads). Compile counters are the one scheduling-dependent source the
//! contract documents: two workers may both lower a design no one holds.
//! The harness therefore pre-warms the compile cache before each traced
//! leg and holds the pre-warmed lowerings through it (see
//! `asv_bench::perf::batch_counters`), so every lookup is a hit.
//!
//! [`CostCounters`]: asv_trace::CostCounters

use asv_bench::perf::{batch_counters, mixed_batch};

#[test]
fn counters_bit_identical_across_workers_and_reruns() {
    let jobs = mixed_batch(false);
    assert_eq!(jobs.len(), 64, "the contract is stated over a 64-job batch");

    let (reference, events) = batch_counters(&jobs, 1);
    assert!(!events.is_empty(), "traced batch must produce events");

    // The batch must exercise enough machinery for equality to mean
    // something: engines ran, the sequential simulator counted ops,
    // several engine families and the memo pipeline were touched.
    assert!(reference.jobs_executed > 0, "cold batch must execute jobs");
    assert!(reference.compiles + reference.compile_cache_hits > 0);
    assert!(
        reference.ops > 0,
        "enumeration jobs must count bytecode ops"
    );
    assert!(
        reference.conflicts + reference.propagations > 0,
        "symbolic jobs must touch the CDCL core"
    );
    assert!(reference.fuzz_rounds > 0, "fuzz jobs must run rounds");
    // Lane-batched simulation accounting is scheduled-basis (a pure
    // function of each rung's stimulus count), so it participates in
    // the bit-identity contract like any other work counter.
    assert!(
        reference.sim_batches > 0,
        "batched rungs must count lane batches"
    );
    assert!(
        reference.sim_lanes_occupied > 0
            && reference.sim_lanes_occupied <= reference.sim_lanes_total,
        "lane occupancy must be positive and bounded by capacity"
    );
    assert!(
        reference.rungs_symbolic + reference.rungs_enumeration + reference.rungs_fuzz > 0,
        "ladder rungs must be attributed"
    );

    for workers in [2usize, 8] {
        let (counters, _) = batch_counters(&jobs, workers);
        assert_eq!(
            counters,
            reference,
            "counters drifted at {workers} workers:\n  1 worker: {}\n  {workers} workers: {}",
            reference.to_json(),
            counters.to_json()
        );
    }

    // Rerun at a fixed worker count: same process, warm caches cleared
    // by the helper — still bit-identical.
    let (again, _) = batch_counters(&jobs, 8);
    assert_eq!(
        again,
        reference,
        "counters drifted across reruns:\n  first: {}\n  rerun: {}",
        reference.to_json(),
        again.to_json()
    );
}
