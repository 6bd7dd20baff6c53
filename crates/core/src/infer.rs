//! Inference (paper Fig. 2-III): Spec + buggy SV + logs → n responses,
//! each a candidate buggy line, suggested fix and chain of thought, in the
//! JSON shape the paper's prompt requires.

use crate::features::{extract_all, CaseContext};
use crate::policy::Policy;
use crate::train::{Model, TrainStage};
use asv_mutation::repairspace::candidates;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One repair task: the model's full input.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairTask {
    /// Design specification text.
    pub spec: String,
    /// Buggy SystemVerilog (with assertions embedded).
    pub buggy_source: String,
    /// Assertion-failure logs.
    pub logs: Vec<String>,
}

impl From<&asv_datagen::SvaBugEntry> for RepairTask {
    fn from(e: &asv_datagen::SvaBugEntry) -> Self {
        RepairTask {
            spec: e.spec.clone(),
            buggy_source: e.buggy_source.clone(),
            logs: e.logs.clone(),
        }
    }
}

/// One model response.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Response {
    /// 1-based line the model believes is buggy.
    pub line_no: u32,
    /// The line as it appears in the buggy source.
    pub buggy_line: String,
    /// The proposed replacement line.
    pub fix: String,
    /// Full source with the fix applied (used by the evaluator).
    pub patched_source: String,
    /// Explanation of the reasoning.
    pub cot: String,
}

impl Response {
    /// Renders the JSON object shape the paper's prompt requests.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"buggy_line\": {:?}, \"fix\": {:?}, \"cot\": {:?}}}",
            self.buggy_line, self.fix, self.cot
        )
    }
}

/// A repair engine: anything that maps a task to `n` responses.
///
/// Implemented by the trained [`Solver`] and by every baseline proxy in
/// [`crate::baselines`]; the evaluation harness is engine-agnostic. It
/// samples the cases of a benchmark in parallel, so engines are `Sync`,
/// and `respond` must not start a worker pool of its own.
pub trait RepairEngine: Sync {
    /// Display name used in result tables.
    fn name(&self) -> &str;

    /// Produces `n` responses for a task. Must be deterministic in
    /// `(task, n, seed)`.
    fn respond(&self, task: &RepairTask, n: usize, seed: u64) -> Vec<Response>;
}

/// The trained solver (base / SFT / AssertSolver depending on the model's
/// [`TrainStage`]).
#[derive(Debug, Clone)]
pub struct Solver {
    model: Model,
    display_name: String,
}

impl Solver {
    /// Wraps a trained model. The display name follows the paper's table
    /// labels.
    pub fn new(model: Model) -> Self {
        let display_name = match model.stage {
            TrainStage::Base => "Deepseek-coder-proxy (base)".to_string(),
            TrainStage::Sft => "SFT Model".to_string(),
            TrainStage::Dpo => "AssertSolver".to_string(),
        };
        Solver {
            model,
            display_name,
        }
    }

    /// Wraps a model with an explicit display name.
    pub fn with_name(model: Model, name: impl Into<String>) -> Self {
        Solver {
            model,
            display_name: name.into(),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &Model {
        &self.model
    }
}

impl RepairEngine for Solver {
    fn name(&self) -> &str {
        &self.display_name
    }

    fn respond(&self, task: &RepairTask, n: usize, seed: u64) -> Vec<Response> {
        respond_with_policy(&self.model.policy, &self.model.lm, task, n, seed)
    }
}

/// Shared sampling path: compile, enumerate candidates, extract features,
/// sample `n` indices from the policy, render responses.
pub fn respond_with_policy(
    policy: &Policy,
    lm: &crate::lm::NgramLm,
    task: &RepairTask,
    n: usize,
    seed: u64,
) -> Vec<Response> {
    let Ok(design) = asv_verilog::compile(&task.buggy_source) else {
        return Vec::new();
    };
    let ctx = CaseContext::new(&design.module, &task.spec, &task.logs);
    let cands = candidates(&design);
    if cands.is_empty() {
        return Vec::new();
    }
    let features = extract_all(&ctx, lm, &cands);
    let mut rng = StdRng::seed_from_u64(seed);
    policy
        .sample_n(&features, n, &mut rng)
        .into_iter()
        .map(|i| render_response(task, &cands[i], &ctx))
        .collect()
}

/// Renders one candidate as a response with an evidence-based CoT.
pub fn render_response(
    task: &RepairTask,
    cand: &asv_mutation::Candidate,
    ctx: &CaseContext,
) -> Response {
    let log = task
        .logs
        .first()
        .map(String::as_str)
        .unwrap_or("no failure log");
    let observed = ctx.localization.observed.join(", ");
    let cot = format!(
        "1. The log reports: {log}.\n\
         2. The failing assertion observes [{observed}]; tracing their cone of influence.\n\
         3. Line {} (`{}`) drives that logic and conflicts with the spec.\n\
         4. Proposed fix: `{}`.",
        cand.line_no, cand.old_line, cand.new_line
    );
    Response {
        line_no: cand.line_no,
        buggy_line: cand.old_line.to_string(),
        fix: cand.new_line.clone(),
        patched_source: cand.patched_source(),
        cot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::base_model;

    fn task() -> RepairTask {
        RepairTask {
            spec: "y must follow a one cycle later".into(),
            buggy_source: "module m (\n  input clk,\n  input a,\n  output reg y\n);\n  always @(posedge clk) y <= !a;\n  property p;\n    @(posedge clk)\n    a |-> ##1 y;\n  endproperty\n  chk: assert property (p) else $error(\"y must follow a\");\nendmodule\n".into(),
            logs: vec!["failed assertion m.chk at cycle 4: y must follow a".into()],
        }
    }

    #[test]
    fn solver_produces_n_responses() {
        let solver = Solver::new(base_model(&[]));
        let rs = solver.respond(&task(), 20, 7);
        assert_eq!(rs.len(), 20);
        for r in &rs {
            assert!(r.line_no >= 1);
            assert!(!r.fix.is_empty());
            assert!(r.patched_source.contains("module m"));
            assert!(r.cot.contains("cone of influence"));
        }
    }

    #[test]
    fn responses_are_deterministic_per_seed() {
        let solver = Solver::new(base_model(&[]));
        assert_eq!(
            solver.respond(&task(), 10, 3),
            solver.respond(&task(), 10, 3)
        );
        assert_ne!(
            solver.respond(&task(), 10, 3),
            solver.respond(&task(), 10, 4)
        );
    }

    #[test]
    fn uncompilable_input_yields_no_responses() {
        let solver = Solver::new(base_model(&[]));
        let bad = RepairTask {
            spec: String::new(),
            buggy_source: "not verilog at all".into(),
            logs: Vec::new(),
        };
        assert!(solver.respond(&bad, 5, 0).is_empty());
    }

    #[test]
    fn json_shape_matches_prompt_contract() {
        let solver = Solver::new(base_model(&[]));
        let r = &solver.respond(&task(), 1, 1)[0];
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"buggy_line\""));
        assert!(j.contains("\"fix\""));
        assert!(j.contains("\"cot\""));
    }

    #[test]
    fn names_follow_stage() {
        assert_eq!(
            Solver::new(base_model(&[])).name(),
            "Deepseek-coder-proxy (base)"
        );
    }
}
