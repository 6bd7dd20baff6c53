//! End-to-end enforcement of the cost-counter determinism contract
//! (`asv_trace::cost`): the **full** [`CostCounters`] vector folded
//! from a traced mixed 64-job batch must be bit-identical across
//! worker counts {1, 2, 8} and across reruns at the same worker count.
//!
//! Counters count *work*, not time — wall clock is excluded by
//! construction (it lives in event timestamps, which the fold never
//! reads). Compile counters included: every executed job lowers its
//! design exactly once, whichever worker runs it.
//!
//! [`CostCounters`]: asv_trace::CostCounters

use asv_bench::perf::{batch_counters, mixed_batch};
use asv_serve::{JobOutcome, VerifyJob, VerifyService};
use asv_sva::bmc::{Engine, Verdict, Verifier};
use asv_sva::monitor::failure_logs;
use asv_trace::{CostCounters, Tracer};

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
    assert_eq!(
        reference.compiles, reference.jobs_executed,
        "each executed job lowers its design exactly once"
    );
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

    // Rerun at a fixed worker count: same process, a fresh service —
    // still bit-identical.
    let (again, _) = batch_counters(&jobs, 8);
    assert_eq!(
        again,
        reference,
        "counters drifted across reruns:\n  first: {}\n  rerun: {}",
        reference.to_json(),
        again.to_json()
    );
}

/// A register whose select is the antecedent: `s |-> ##1 r == ...` reads
/// the branch that `s` loads. `OP` is the operator the property expects.
const SELECTED_MUX: &str = "module selected_mux(input clk, input rst_n, input s, \
     input [15:0] a, input [15:0] b, output reg [15:0] r);
  always @(posedge clk or negedge rst_n) begin
    if (!rst_n) r <= 16'd0;
    else if (s) r <= a & b;
    else r <= a + b;
  end
  p: assert property (@(posedge clk) disable iff (!rst_n)
    s |-> ##1 r == ($past(a) OP $past(b))) else $error(\"r must load the selected branch\");
endmodule
";

/// The selected-mux design with the property expecting `op`, checked
/// symbolically at depth 10 by a traced one-worker service: its
/// verifier, outcome and cost counters.
fn selected_mux_check(op: &str) -> (Verifier, asv_verilog::Design, JobOutcome, CostCounters) {
    let design = asv_verilog::compile(&SELECTED_MUX.replace("OP", op)).expect("compile");
    let verifier = Verifier {
        depth: 10,
        engine: Engine::Symbolic,
        ..Verifier::default()
    };
    let tracer = Tracer::new();
    let service = VerifyService::with_workers(1).traced(tracer.clone());
    let job = VerifyJob::new(design.clone(), verifier);
    let (mut outcomes, _, events) = service.verify_batch_traced(std::slice::from_ref(&job));
    assert_eq!(
        tracer.dropped(),
        0,
        "trace ring overflow would skew counters"
    );
    let outcome = outcomes.pop().expect("one job, one outcome");
    (
        verifier,
        design,
        outcome,
        CostCounters::from_events(&events),
    )
}

/// The antecedent cofactor in `asv_sat::engine` rebuilds each attempt's
/// consequent with the antecedent fixed true, so the next-state mux
/// `s ? a & b : a + b` becomes `a & b` and the consequent folds to true
/// in every attempt: the proof needs no depth solve, only the vacuity
/// query, and no conflict. Without the cofactor the same proof took 10
/// solves and 323 conflicts.
#[test]
fn antecedent_selected_mux_proves_without_conflicts() {
    let (_, _, outcome, counters) = selected_mux_check("&");
    assert!(
        outcome.expect("verdict").holds_non_vacuously(),
        "the selected branch must prove"
    );
    assert_eq!(
        (counters.sat_solves, counters.conflicts),
        (1, 0),
        "one vacuity solve and no conflict: {}",
        counters.to_json()
    );

    let (verifier, design, outcome, _) = selected_mux_check("|");
    let Ok(Verdict::Fails(cex)) = outcome else {
        panic!("expecting `|` for the `&` branch must fail, got {outcome:?}");
    };
    let trace = verifier.replay(&design, &cex).expect("replay");
    let logs = failure_logs(&design.module, &trace).expect("monitor");
    assert_eq!(
        logs, cex.logs,
        "the counterexample replays on the simulator"
    );
}
