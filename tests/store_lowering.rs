//! How often a store-enabled service lowers a design.
//!
//! The service derives a job's cone key from a lowering it holds from
//! the store lookup through the engine run to the store write, so a cold
//! job lowers its design once and its engine reuses that lowering. A
//! batch derives each design's cone hash once, so a warm replay of one
//! design under two verifiers lowers it once. The checks read the
//! process-wide compile cache's own counters, so this file holds a single
//! test: no concurrent test in the same process moves them.

use asv_serve::{ServeOptions, VerifyJob, VerifyService};
use asv_sva::bmc::{Verdict, Verifier};

const SRC: &str = "module follow(input clk, input rst_n, input d, output reg q);\n\
    always @(posedge clk or negedge rst_n) begin\n\
      if (!rst_n) q <= 1'b0; else q <= !d;\n\
    end\n\
    p: assert property (@(posedge clk) disable iff (!rst_n) d |-> ##1 q) else $error(\"q lags d\");\n\
    endmodule";

#[test]
fn store_jobs_lower_each_design_once() {
    let dir = std::env::temp_dir().join(format!("asv-store-lowering-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = || {
        VerifyService::new(ServeOptions {
            workers: 1,
            store_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
    };
    // `Engine::Auto` at `OptLevel::Full` on an in-subset design: the jobs
    // are cone-keyed, and their counterexamples are stored under those
    // keys.
    let design = std::sync::Arc::new(asv_verilog::compile(SRC).expect("compile"));
    let job = |depth| {
        VerifyJob::new(
            std::sync::Arc::clone(&design),
            Verifier {
                depth,
                ..Verifier::default()
            },
        )
    };
    // `(hits, misses)` of the process-wide compile cache since `before`.
    let since = |before: (u64, u64)| {
        let now = asv_sim::cache::global().stats();
        (now.0 - before.0, now.1 - before.1)
    };

    let before = asv_sim::cache::global().stats();
    let cold = service();
    let outcome = cold.verify_one(&job(10));
    let (hits, misses) = since(before);
    assert!(matches!(outcome, Ok(Verdict::Fails(_))), "{outcome:?}");
    let stats = cold.stats();
    assert_eq!(
        (stats.executed, stats.store_misses, stats.store_puts),
        (1, 1, 1)
    );
    assert_eq!(misses, 1, "a cold job lowers its design once");
    assert_eq!(
        hits, 1,
        "the engine reuses the lowering the cone key was derived from"
    );

    assert!(matches!(
        service().verify_one(&job(11)),
        Ok(Verdict::Fails(_))
    ));
    let before = asv_sim::cache::global().stats();
    let warm = service();
    warm.verify_batch(&[job(10), job(11)]);
    let (hits, misses) = since(before);
    let _ = std::fs::remove_dir_all(&dir);
    let stats = warm.stats();
    assert_eq!((stats.executed, stats.store_hits), (0, 2));
    assert_eq!(
        (hits, misses),
        (0, 1),
        "a batch derives one design's cone hash once"
    );
}
