//! Baseline repair engines: the reproduction's stand-ins for the paper's
//! closed- and open-source comparators (RQ2).
//!
//! The reproduction cannot run the paper's models, so each is replaced by
//! a proxy (table below): a *real, algorithmically distinct* engine whose
//! strength ordering is designed to mirror the paper's field:
//!
//! | Paper model            | Proxy mechanism                                                    |
//! |------------------------|--------------------------------------------------------------------|
//! | Deepseek-Coder-6.7b    | untrained policy (uniform over candidates) — also the base model   |
//! | CodeLlama-7b           | minimal-edit bias only                                             |
//! | Llama-3.1-8b           | LM likelihood + weak localisation                                  |
//! | GPT-4                  | hand-set heuristic: localisation + LM, no spec/log grounding       |
//! | Claude-3.5             | stronger heuristic: + spec/log lexical grounding, cooler sampling  |
//! | o1-preview             | Claude-level heuristic + self-verification loop (compile & check a  |
//! |                        | shortlist against the assertions before answering)                 |

use crate::features::{extract_all, CaseContext};
use crate::infer::{render_response, respond_with_policy, RepairEngine, RepairTask, Response};
use crate::lm::NgramLm;
use crate::policy::Policy;
use asv_mutation::repairspace::candidates;
use asv_sva::bmc::{Engine, Verifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fixed-weight heuristic engine (the GPT-4 / Claude-3.5 / open-source
/// proxies, differing only in their weight profiles and temperature).
#[derive(Debug, Clone)]
pub struct HeuristicEngine {
    name: String,
    policy: Policy,
    lm: NgramLm,
}

impl HeuristicEngine {
    /// CodeLlama-7b proxy: no domain signal beyond a minimal-edit bias.
    pub fn codellama(lm: NgramLm) -> Self {
        let mut policy = Policy::new();
        policy.weights[9] = 0.6; // edit_distance (prefers small edits)
        policy.temperature = 0.5;
        HeuristicEngine {
            name: "CodeLlama-proxy".into(),
            policy,
            lm,
        }
    }

    /// Llama-3.1-8b proxy: LM likelihood plus weak localisation.
    pub fn llama31(lm: NgramLm) -> Self {
        let mut policy = Policy::new();
        policy.weights[1] = 0.35; // localization
        policy.weights[2] = 0.9; // lm_delta
        policy.weights[9] = 0.3;
        policy.temperature = 0.4;
        HeuristicEngine {
            name: "Llama-3.1-proxy".into(),
            policy,
            lm,
        }
    }

    /// GPT-4 proxy: solid localisation and LM use, but no grounding in the
    /// spec or the failure logs.
    pub fn gpt4(lm: NgramLm) -> Self {
        let mut policy = Policy::new();
        policy.weights[1] = 1.1;
        policy.weights[2] = 0.5;
        policy.weights[5] = 0.15; // operator-bug prior
        policy.weights[9] = 0.35;
        policy.temperature = 0.3;
        HeuristicEngine {
            name: "GPT-4-proxy".into(),
            policy,
            lm,
        }
    }

    /// Claude-3.5 proxy: adds spec/log lexical grounding and samples
    /// cooler.
    pub fn claude35(lm: NgramLm) -> Self {
        let mut policy = Policy::new();
        policy.weights[1] = 1.5;
        policy.weights[2] = 0.55;
        policy.weights[5] = 0.2;
        policy.weights[7] = 0.6; // spec_overlap
        policy.weights[8] = 0.7; // log_overlap
        policy.weights[9] = 0.4;
        policy.temperature = 0.24;
        HeuristicEngine {
            name: "Claude-3.5-proxy".into(),
            policy,
            lm,
        }
    }

    /// The underlying policy (exposed for ablation benches).
    pub fn policy(&self) -> &Policy {
        &self.policy
    }
}

impl RepairEngine for HeuristicEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn respond(&self, task: &RepairTask, n: usize, seed: u64) -> Vec<Response> {
        respond_with_policy(&self.policy, &self.lm, task, n, seed)
    }
}

/// o1-preview proxy: a Claude-level heuristic that *thinks before
/// answering* — it shortlists the top-scored candidates, actually applies
/// each patch and checks it against the design's own assertions with a
/// small bounded verifier, then anchors most of its responses on the first
/// candidate that passes.
#[derive(Debug, Clone)]
pub struct SelfVerifyEngine {
    inner: HeuristicEngine,
    verifier: Verifier,
    /// Size of the verified shortlist.
    shortlist: usize,
    /// Probability of answering with the verified anchor (the rest of the
    /// probability mass samples the heuristic, keeping some diversity).
    anchor_prob: f64,
}

impl SelfVerifyEngine {
    /// Creates the o1 proxy over a pretrained LM.
    pub fn o1(lm: NgramLm) -> Self {
        let mut inner = HeuristicEngine::claude35(lm);
        inner.name = "o1-preview-proxy".into();
        SelfVerifyEngine {
            inner,
            verifier: Verifier {
                depth: 8,
                reset_cycles: 2,
                exhaustive_limit: 64,
                random_runs: 6,
                seed: 0x01_5EEF,
                engine: Engine::Auto,
            },
            shortlist: 5,
            anchor_prob: 0.82,
        }
    }
}

impl RepairEngine for SelfVerifyEngine {
    fn name(&self) -> &str {
        &self.inner.name
    }

    fn respond(&self, task: &RepairTask, n: usize, seed: u64) -> Vec<Response> {
        let Ok(design) = asv_verilog::compile(&task.buggy_source) else {
            return Vec::new();
        };
        let ctx = CaseContext::new(&design.module, &task.spec, &task.logs);
        let cands = candidates(&design);
        if cands.is_empty() {
            return Vec::new();
        }
        let features = extract_all(&ctx, &self.inner.lm, &cands);
        // Shortlist by heuristic score and verify each patch for real.
        let mut ranked: Vec<usize> = (0..cands.len()).collect();
        ranked.sort_by(|&a, &b| {
            self.inner
                .policy
                .score(&features[b])
                .partial_cmp(&self.inner.policy.score(&features[a]))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let anchor = ranked.iter().take(self.shortlist).copied().find(|&i| {
            let Ok(patched) = asv_verilog::compile(&cands[i].patched_source()) else {
                return false;
            };
            matches!(self.verifier.check(&patched), Ok(v) if v.holds_non_vacuously())
        });
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let idx = match anchor {
                    Some(a) if rng.gen_bool(self.anchor_prob) => a,
                    _ => self
                        .inner
                        .policy
                        .sample(&features, &mut rng)
                        .unwrap_or(ranked[0]),
                };
                render_response(task, &cands[idx], &ctx)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lm() -> NgramLm {
        let mut lm = NgramLm::new();
        lm.train_text(
            "always @(posedge clk or negedge rst_n) begin\nif (!rst_n) q <= 1'b0;\nelse q <= d;\nend\n",
        );
        lm
    }

    fn task() -> RepairTask {
        RepairTask {
            spec: "q must follow d one cycle later when rst_n is high".into(),
            buggy_source: "module latch1 (\n  input clk,\n  input rst_n,\n  input d,\n  output reg q\n);\n  always @(posedge clk or negedge rst_n) begin\n    if (!rst_n) q <= 1'b0;\n    else q <= !d;\n  end\n  property follow;\n    @(posedge clk) disable iff (!rst_n)\n    d |-> ##1 q;\n  endproperty\n  chk: assert property (follow) else $error(\"q must follow d\");\nendmodule\n".into(),
            logs: vec!["failed assertion latch1.chk at cycle 3: q must follow d".into()],
        }
    }

    #[test]
    fn all_proxies_produce_responses() {
        let t = task();
        let engines: Vec<Box<dyn RepairEngine>> = vec![
            Box::new(HeuristicEngine::codellama(lm())),
            Box::new(HeuristicEngine::llama31(lm())),
            Box::new(HeuristicEngine::gpt4(lm())),
            Box::new(HeuristicEngine::claude35(lm())),
            Box::new(SelfVerifyEngine::o1(lm())),
        ];
        for e in &engines {
            let rs = e.respond(&t, 8, 11);
            assert_eq!(rs.len(), 8, "{} must answer", e.name());
        }
    }

    #[test]
    fn o1_proxy_finds_the_real_fix() {
        // Self-verification should anchor on the semantically correct
        // patch for this easy case.
        let e = SelfVerifyEngine::o1(lm());
        let rs = e.respond(&task(), 20, 5);
        let good = rs.iter().filter(|r| r.fix.contains("q <= d")).count();
        assert!(
            good >= 12,
            "o1 proxy anchored only {good}/20 on the verified fix"
        );
    }

    #[test]
    fn proxies_are_deterministic() {
        let e = HeuristicEngine::claude35(lm());
        assert_eq!(e.respond(&task(), 10, 2), e.respond(&task(), 10, 2));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            HeuristicEngine::codellama(lm()).name().to_string(),
            HeuristicEngine::llama31(lm()).name().to_string(),
            HeuristicEngine::gpt4(lm()).name().to_string(),
            HeuristicEngine::claude35(lm()).name().to_string(),
            SelfVerifyEngine::o1(lm()).name().to_string(),
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
