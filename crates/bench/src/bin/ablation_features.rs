//! Ablation beyond the paper's artefacts: zeroing one policy feature at a
//! time after full training — how much each evidence source contributes.

use assertsolver_core::features::FEATURE_NAMES;
use assertsolver_core::prelude::*;
use asv_bench::{Experiment, Scale};

fn main() {
    let exp = Experiment::prepare(Scale::from_env());
    let full = exp.evaluate(&Solver::with_name(exp.assert_solver.clone(), "full model"));
    println!("== Feature ablation (AssertSolver, zero one weight at a time) ==");
    println!(
        "{:<22} pass@1={:.2}% pass@5={:.2}%",
        "full model",
        full.pass_at(1) * 100.0,
        full.pass_at(5) * 100.0
    );
    for (i, name) in FEATURE_NAMES.iter().enumerate() {
        if *name == "bias" {
            continue;
        }
        let mut m = exp.assert_solver.clone();
        m.policy.weights[i] = 0.0;
        let run = exp.evaluate(&Solver::with_name(m, format!("without {name}")));
        println!(
            "{:<22} pass@1={:.2}% pass@5={:.2}% (delta p@1 {:+.2})",
            format!("- {name}"),
            run.pass_at(1) * 100.0,
            run.pass_at(5) * 100.0,
            (run.pass_at(1) - full.pass_at(1)) * 100.0
        );
    }
}
