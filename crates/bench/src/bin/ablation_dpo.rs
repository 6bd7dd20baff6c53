//! Ablation beyond the paper's artefacts: the DPO phase's β and
//! stabiliser terms.
//!
//! Shows (a) the pass@1/pass@5 trade-off strength across β, and (b) the
//! textbook DPO pathology — chosen-likelihood collapse — when the NLL and
//! replay stabilisers are disabled.

use assertsolver_core::prelude::*;
use assertsolver_core::train::dpo;
use asv_bench::{Experiment, Scale};

fn main() {
    let exp = Experiment::prepare(Scale::from_env());
    let cases = prepare_cases(&exp.datasets.sva_bug, &exp.sft_model.lm);
    println!("== DPO ablation (baseline SFT pass@1 / pass@5 first) ==");
    let sft_run = exp.evaluate(&Solver::with_name(exp.sft_model.clone(), "SFT (no DPO)"));
    println!(
        "{:<28} pass@1={:.2}% pass@5={:.2}%",
        "SFT (no DPO)",
        sft_run.pass_at(1) * 100.0,
        sft_run.pass_at(5) * 100.0
    );
    let variants = [
        (
            "beta=0.01",
            DpoConfig {
                beta: 0.01,
                ..DpoConfig::default()
            },
        ),
        ("beta=0.1 (paper)", DpoConfig::default()),
        (
            "beta=1.0",
            DpoConfig {
                beta: 1.0,
                ..DpoConfig::default()
            },
        ),
        (
            "no stabilisers (raw DPO)",
            DpoConfig {
                nll_weight: 0.0,
                replay_weight: 0.0,
                ..DpoConfig::default()
            },
        ),
    ];
    for (name, cfg) in variants {
        let model = dpo(&exp.sft_model, &cases, &cfg);
        let run = exp.evaluate(&Solver::with_name(model, format!("DPO {name}")));
        println!(
            "{:<28} pass@1={:.2}% pass@5={:.2}%",
            name,
            run.pass_at(1) * 100.0,
            run.pass_at(5) * 100.0
        );
    }
}
