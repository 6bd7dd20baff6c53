//! The paper's three-phase training strategy (Fig. 2-II).
//!
//! * **PT** — continual pretraining on Verilog-PT: here, fitting the
//!   n-gram LM whose likelihoods feed the policy features.
//! * **SFT** — supervised fine-tuning on SVA-Bug (+ Verilog-Bug as the
//!   auxiliary task): gradient ascent on the log-likelihood of the golden
//!   candidate under the softmax policy, with the paper's 10% warm-up.
//! * **DPO** — learning from error responses to challenging cases: each
//!   training input is sampled n = 20 times; any case with at least one
//!   wrong response becomes a preference triple `(x, p, n[k])`, and the
//!   paper's DPO loss (β = 0.1, frozen SFT reference) is minimised. For a
//!   linear softmax policy the partition functions cancel, giving the
//!   exact closed-form gradient
//!   `∇θ = σ(−β·(θ−θ_ref)·(f(p)−f(n))) · β · (f(p)−f(n))`.

use crate::features::{extract_all, CaseContext, Features, FEATURE_DIM};
use crate::lm::NgramLm;
use crate::policy::Policy;
use asv_datagen::dataset::{SvaBugEntry, VerilogBugEntry, VerilogPtEntry};
use asv_mutation::repairspace::{candidates, golden_candidates, splice_line};
use asv_sim::pool;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Which phase a model has completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrainStage {
    /// Untrained policy over a pretrained LM: the base model.
    Base,
    /// After supervised fine-tuning.
    Sft,
    /// After DPO on challenging cases: the full AssertSolver.
    Dpo,
}

/// A complete model artefact: LM + policy + provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    /// The pretrained language model.
    pub lm: NgramLm,
    /// The repair policy.
    pub policy: Policy,
    /// Training provenance.
    pub stage: TrainStage,
}

/// Precomputed per-case training data: candidate features plus the indices
/// of candidates whose patch equals the golden source.
#[derive(Debug, Clone)]
pub struct PreparedCase {
    /// Feature vector per candidate.
    pub features: Vec<Features>,
    /// Candidate indices that exactly restore the golden source.
    pub golden: Vec<usize>,
    /// `(line_no, new_line)` per candidate: the edit it makes to the
    /// design's canonical rendering, which identifies it (the patched
    /// source is that rendering with the line spliced, see
    /// `asv_mutation::splice_line`).
    pub meta: Vec<(u32, String)>,
}

impl PreparedCase {
    /// True when sampled candidate `idx` is the golden fix.
    pub fn is_golden(&self, idx: usize) -> bool {
        self.golden.contains(&idx)
    }
}

/// Extracts features for every training entry (done once; reused across
/// epochs). Entries whose buggy source fails to compile are skipped.
///
/// The entries are prepared in parallel on every core
/// ([`asv_sim::pool::map`]) and come back in input order, so the result
/// is bit-identical to mapping [`prepare_case`] over them serially.
pub fn prepare_cases(entries: &[SvaBugEntry], lm: &NgramLm) -> Vec<PreparedCase> {
    pool::map(entries, pool::cores(), |e| prepare_case(e, lm))
        .into_iter()
        .flatten()
        .collect()
}

/// Prepares one case.
pub fn prepare_case(entry: &SvaBugEntry, lm: &NgramLm) -> Option<PreparedCase> {
    let design = asv_verilog::compile(&entry.buggy_source).ok()?;
    let ctx = CaseContext::new(&design.module, &entry.spec, &entry.logs);
    let cands = candidates(&design);
    if cands.is_empty() {
        return None;
    }
    let features = extract_all(&ctx, lm, &cands);
    let golden = golden_candidates(&cands, &entry.golden_source);
    let meta = cands.into_iter().map(|c| (c.line_no, c.new_line)).collect();
    Some(PreparedCase {
        features,
        golden,
        meta,
    })
}

/// SFT hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SftConfig {
    /// Peak learning rate (the paper's 1e-4, rescaled to this feature
    /// space).
    pub lr: f64,
    /// Epochs over the training set.
    pub epochs: usize,
    /// Fraction of total steps used for linear warm-up (paper: 10%).
    pub warmup_frac: f64,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for SftConfig {
    fn default() -> Self {
        SftConfig {
            lr: 0.35,
            epochs: 40,
            warmup_frac: 0.1,
            seed: 0x5F70_0001,
        }
    }
}

/// DPO hyper-parameters.
///
/// Besides the paper's β and learning rate, two stabilisers are exposed
/// (and ablatable in the bench suite): a *chosen-NLL* term and an
/// *experience-replay* NLL over the full SFT set. Both counter the known
/// DPO pathology where the chosen response's absolute likelihood drops
/// while the pairwise margin grows — with a 10-dimensional shared-weight
/// policy (instead of a 6.7B LLM that can absorb per-case corrections)
/// the pathology appears immediately, so the stabilisers are on by
/// default; `ablation_dpo` in `asv-bench` reproduces the failure with
/// them off.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DpoConfig {
    /// β, the log-ratio scale (paper: 0.1).
    pub beta: f64,
    /// Learning rate (the paper drops 1e-4 → 1e-6 from SFT; scaled to
    /// this feature space).
    pub lr: f64,
    /// Weight of the chosen-NLL stabiliser on challenging cases.
    pub nll_weight: f64,
    /// Weight of the replay NLL over all trainable cases per epoch.
    pub replay_weight: f64,
    /// Responses sampled per input when mining challenging cases
    /// (paper: 20).
    pub samples: usize,
    /// Sampling temperature while mining (paper inference temp: 0.2).
    pub mining_temperature: f64,
    /// Epochs over the preference triples.
    pub epochs: usize,
    /// Sampling/shuffle seed.
    pub seed: u64,
}

impl Default for DpoConfig {
    fn default() -> Self {
        DpoConfig {
            beta: 0.1,
            lr: 0.15,
            nll_weight: 1.5,
            replay_weight: 0.8,
            samples: 20,
            mining_temperature: 0.2,
            epochs: 30,
            seed: 0xD90_0001,
        }
    }
}

/// Phase 1: pretraining. Fits the n-gram LM on the Verilog-PT corpus
/// (both the compile-failure analyses and the plain spec'd code).
pub fn pretrain(entries: &[VerilogPtEntry]) -> NgramLm {
    let mut lm = NgramLm::new();
    for e in entries {
        lm.train_text(&e.to_text());
    }
    lm
}

/// Builds the base model: pretrained LM, untrained policy — the stand-in
/// for raw Deepseek-Coder-6.7b.
pub fn base_model(pt: &[VerilogPtEntry]) -> Model {
    Model {
        lm: pretrain(pt),
        policy: Policy::new(),
        stage: TrainStage::Base,
    }
}

/// Phase 2: SFT. Maximises golden-candidate log-likelihood with the
/// softmax cross-entropy gradient `f(golden) − E_π[f]`. The auxiliary
/// Verilog-Bug task trains the same weights on synthetic "which line
/// changed" problems derived from each entry.
///
/// Both kinds of case are prepared in parallel on every core and kept in
/// input order, so the trained weights are bit-identical to a serial
/// preparation.
pub fn sft(
    base: &Model,
    sva_bug: &[SvaBugEntry],
    verilog_bug: &[VerilogBugEntry],
    config: &SftConfig,
) -> Model {
    let mut cases = prepare_cases(sva_bug, &base.lm);
    // Auxiliary task: Verilog-Bug entries have no logs/assertions, but the
    // same candidate machinery applies with an empty log context. Each
    // stand-in entry is built inside its worker.
    let auxiliary = pool::map(verilog_bug, pool::cores(), |vb| {
        let as_entry = SvaBugEntry {
            module_name: vb.module_name.clone(),
            spec: vb.spec.clone(),
            buggy_source: vb.buggy_source.clone(),
            // The golden source is unknown for the auxiliary task; the
            // buggy source with the fixed line spliced in stands in.
            golden_source: splice_line(&vb.buggy_source, vb.line_no, &vb.fixed_line)
                .unwrap_or_else(|| vb.buggy_source.clone()),
            logs: Vec::new(),
            line_no: vb.line_no,
            buggy_line: vb.buggy_line.clone(),
            fixed_line: vb.fixed_line.clone(),
            class: asv_mutation::BugClass {
                syntactic: asv_mutation::SyntacticKind::Op,
                cond: false,
                direct: None,
            },
            length_bin: asv_datagen::LengthBin::of_lines(vb.buggy_source.lines().count()),
            cot: None,
        };
        prepare_case(&as_entry, &base.lm)
    });
    cases.extend(auxiliary.into_iter().flatten());
    let trainable: Vec<&PreparedCase> = cases.iter().filter(|c| !c.golden.is_empty()).collect();
    let mut policy = base.policy.clone();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total_steps = (trainable.len() * config.epochs).max(1);
    let warmup = ((total_steps as f64) * config.warmup_frac).max(1.0);
    let mut step = 0usize;
    let mut order: Vec<usize> = (0..trainable.len()).collect();
    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        for &i in &order {
            let case = trainable[i];
            // Cross-entropy gradient at training temperature 1.
            let probs = policy.probabilities_at(&case.features, 1.0);
            let golden = case.golden[0];
            let mut grad = [0.0; FEATURE_DIM];
            for (k, g) in grad.iter_mut().enumerate() {
                *g = case.features[golden][k];
                for (j, p) in probs.iter().enumerate() {
                    *g -= p * case.features[j][k];
                }
            }
            let lr = if (step as f64) < warmup {
                config.lr * (step as f64 + 1.0) / warmup
            } else {
                config.lr
            };
            for (w, g) in policy.weights.iter_mut().zip(grad.iter()) {
                *w += lr * g;
            }
            step += 1;
        }
    }
    Model {
        lm: base.lm.clone(),
        policy,
        stage: TrainStage::Sft,
    }
}

/// One mined preference triple: the paper's `(x, p, n[k])`.
#[derive(Debug, Clone)]
pub struct PreferenceTriple {
    /// Index into the prepared-case list.
    pub case_idx: usize,
    /// The chosen (golden) candidate.
    pub chosen: usize,
    /// The rejected (sampled-wrong) candidates, deduplicated.
    pub rejected: Vec<usize>,
}

/// Mines challenging cases from the SFT model: every input is sampled
/// `config.samples` times; inputs with at least one wrong response yield a
/// preference triple.
pub fn mine_challenging(
    model: &Model,
    cases: &[PreparedCase],
    config: &DpoConfig,
) -> Vec<PreferenceTriple> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut policy = model.policy.clone();
    policy.temperature = config.mining_temperature;
    let mut triples = Vec::new();
    for (i, case) in cases.iter().enumerate() {
        if case.golden.is_empty() {
            continue;
        }
        let picks = policy.sample_n(&case.features, config.samples, &mut rng);
        let mut rejected: Vec<usize> = picks.into_iter().filter(|&p| !case.is_golden(p)).collect();
        rejected.sort_unstable();
        rejected.dedup();
        if !rejected.is_empty() {
            triples.push(PreferenceTriple {
                case_idx: i,
                chosen: case.golden[0],
                rejected,
            });
        }
    }
    triples
}

/// Phase 3: DPO over the mined triples, with the SFT model frozen as the
/// reference — yields the full AssertSolver.
pub fn dpo(sft_model: &Model, cases: &[PreparedCase], config: &DpoConfig) -> Model {
    let triples = mine_challenging(sft_model, cases, config);
    dpo_with_triples(sft_model, cases, &triples, config)
}

/// DPO update given pre-mined triples (exposed for the ablation benches).
pub fn dpo_with_triples(
    sft_model: &Model,
    cases: &[PreparedCase],
    triples: &[PreferenceTriple],
    config: &DpoConfig,
) -> Model {
    let theta_ref = sft_model.policy.weights;
    let mut policy = sft_model.policy.clone();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0D90_5A17);
    let mut order: Vec<usize> = (0..triples.len()).collect();
    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        for &ti in &order {
            let t = &triples[ti];
            let case = &cases[t.case_idx];
            let fp = case.features[t.chosen];
            for &n in &t.rejected {
                let fn_ = case.features[n];
                // Δf = f(p) − f(n); h = β (θ−θ_ref)·Δf (partition
                // functions cancel for a shared candidate set).
                let mut df = [0.0; FEATURE_DIM];
                for (d, (p, q)) in df.iter_mut().zip(fp.iter().zip(fn_.iter())) {
                    *d = p - q;
                }
                let h: f64 = (0..FEATURE_DIM)
                    .map(|k| (policy.weights[k] - theta_ref[k]) * df[k])
                    .sum::<f64>()
                    * config.beta;
                let sig = 1.0 / (1.0 + h.exp()); // σ(−h)
                for (w, d) in policy.weights.iter_mut().zip(df.iter()) {
                    *w += config.lr * sig * config.beta * d;
                }
            }
            // Chosen-NLL stabiliser on the challenging case.
            if config.nll_weight > 0.0 {
                let g = nll_grad(&policy, case, t.chosen);
                for (w, gk) in policy.weights.iter_mut().zip(g.iter()) {
                    *w += config.lr * config.nll_weight * gk;
                }
            }
        }
        // Experience replay over the full set prevents catastrophic
        // forgetting of non-challenging cases.
        if config.replay_weight > 0.0 {
            for case in cases {
                let Some(&golden) = case.golden.first() else {
                    continue;
                };
                let g = nll_grad(&policy, case, golden);
                for (w, gk) in policy.weights.iter_mut().zip(g.iter()) {
                    *w += config.lr * config.replay_weight * gk;
                }
            }
        }
    }
    Model {
        lm: sft_model.lm.clone(),
        policy,
        stage: TrainStage::Dpo,
    }
}

/// Softmax cross-entropy gradient toward `golden` at training temperature 1.
fn nll_grad(policy: &Policy, case: &PreparedCase, golden: usize) -> Features {
    let probs = policy.probabilities_at(&case.features, 1.0);
    let fp = case.features[golden];
    let mut g = [0.0; FEATURE_DIM];
    for (k, gk) in g.iter_mut().enumerate() {
        *gk = fp[k];
        for (j, p) in probs.iter().enumerate() {
            *gk -= p * case.features[j][k];
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use asv_datagen::pipeline::{run, PipelineConfig};

    fn datasets() -> asv_datagen::Datasets {
        run(&PipelineConfig::quick())
    }

    #[test]
    fn sft_beats_base_on_training_data() {
        let ds = datasets();
        let base = base_model(&ds.verilog_pt);
        let cases = prepare_cases(&ds.sva_bug, &base.lm);
        let sft_model = sft(&base, &ds.sva_bug, &ds.verilog_bug, &SftConfig::default());
        // Argmax accuracy on training cases must improve drastically.
        let acc = |m: &Model| {
            let mut hit = 0;
            let mut tot = 0;
            for c in &cases {
                if c.golden.is_empty() {
                    continue;
                }
                tot += 1;
                if let Some(b) = m.policy.best(&c.features) {
                    if c.is_golden(b) {
                        hit += 1;
                    }
                }
            }
            hit as f64 / tot.max(1) as f64
        };
        let base_acc = acc(&base);
        let sft_acc = acc(&sft_model);
        assert!(
            sft_acc > base_acc + 0.3,
            "SFT {sft_acc} must beat base {base_acc} clearly"
        );
        assert!(sft_acc > 0.5, "SFT argmax accuracy too low: {sft_acc}");
    }

    #[test]
    fn dpo_sharpens_the_policy() {
        let ds = datasets();
        let base = base_model(&ds.verilog_pt);
        let sft_model = sft(&base, &ds.sva_bug, &ds.verilog_bug, &SftConfig::default());
        let cases = prepare_cases(&ds.sva_bug, &sft_model.lm);
        let cfg = DpoConfig::default();
        let triples = mine_challenging(&sft_model, &cases, &cfg);
        assert!(!triples.is_empty(), "mining must find challenging cases");
        let solver = dpo_with_triples(&sft_model, &cases, &triples, &cfg);
        assert_eq!(solver.stage, TrainStage::Dpo);
        // Mean probability mass on the golden candidate must rise: DPO
        // trades diversity for precision (the paper's pass@1 gain).
        let golden_mass = |m: &Model| {
            let mut sum = 0.0;
            let mut n = 0;
            for c in &cases {
                if c.golden.is_empty() {
                    continue;
                }
                let probs = m.policy.probabilities(&c.features);
                sum += c.golden.iter().map(|&g| probs[g]).sum::<f64>();
                n += 1;
            }
            sum / f64::from(n.max(1))
        };
        let before = golden_mass(&sft_model);
        let after = golden_mass(&solver);
        assert!(
            after > before,
            "DPO must concentrate mass on the golden fix: {before} -> {after}"
        );
    }

    #[test]
    fn mining_is_deterministic() {
        let ds = datasets();
        let base = base_model(&ds.verilog_pt);
        let sft_model = sft(&base, &ds.sva_bug, &ds.verilog_bug, &SftConfig::default());
        let cases = prepare_cases(&ds.sva_bug, &sft_model.lm);
        let cfg = DpoConfig::default();
        let a = mine_challenging(&sft_model, &cases, &cfg);
        let b = mine_challenging(&sft_model, &cases, &cfg);
        assert_eq!(a.len(), b.len());
    }

    /// Folds bytes into a 64-bit FNV-1a hash.
    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[test]
    fn prepared_cases_are_pinned() {
        let ds = datasets();
        let base = base_model(&ds.verilog_pt);
        let cases = prepare_cases(&ds.sva_bug, &base.lm);
        // Every feature's bits, golden index and `meta` entry, in order.
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for case in &cases {
            fnv1a(&mut hash, &(case.features.len() as u64).to_le_bytes());
            for f in case.features.iter().flatten() {
                fnv1a(&mut hash, &f.to_bits().to_le_bytes());
            }
            fnv1a(&mut hash, &(case.golden.len() as u64).to_le_bytes());
            for &g in &case.golden {
                fnv1a(&mut hash, &(g as u64).to_le_bytes());
            }
            for (line_no, new_line) in &case.meta {
                fnv1a(&mut hash, &line_no.to_le_bytes());
                fnv1a(&mut hash, &(new_line.len() as u64).to_le_bytes());
                fnv1a(&mut hash, new_line.as_bytes());
            }
        }
        assert_eq!(
            (cases.len(), hash),
            (39, 0x41f2_8756_af08_df4a),
            "prepared cases moved"
        );
        // Batch extraction equals per-candidate extraction bit for bit.
        let mut prepared = cases.iter();
        for e in &ds.sva_bug {
            let Ok(design) = asv_verilog::compile(&e.buggy_source) else {
                continue;
            };
            let cands = candidates(&design);
            if cands.is_empty() {
                continue;
            }
            let ctx = CaseContext::new(&design.module, &e.spec, &e.logs);
            let case = prepared.next().expect("one prepared case per entry");
            assert_eq!(case.features.len(), cands.len());
            for (c, f) in cands.iter().zip(&case.features) {
                let single = extract(&ctx, &base.lm, c);
                assert!(
                    single
                        .iter()
                        .zip(f)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{}: {single:?} != {f:?}",
                    c.describe()
                );
            }
        }
        assert!(prepared.next().is_none());
    }

    #[test]
    fn sft_weights_are_pinned() {
        // Pinned at the serial preparation: preparing the cases in
        // parallel must train the same weights, bit for bit.
        let ds = datasets();
        let base = base_model(&ds.verilog_pt);
        let model = sft(&base, &ds.sva_bug, &ds.verilog_bug, &SftConfig::default());
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        for w in &model.policy.weights {
            fnv1a(&mut hash, &w.to_bits().to_le_bytes());
        }
        assert_eq!(hash, 0xf06a_d9aa_da94_a5bf, "SFT weights moved");
    }

    #[test]
    fn prepare_case_finds_golden_candidate() {
        let ds = datasets();
        let lm = pretrain(&ds.verilog_pt);
        let mut found = 0;
        let mut total = 0;
        for e in ds.sva_bug.iter().take(30) {
            if let Some(c) = prepare_case(e, &lm) {
                total += 1;
                if !c.golden.is_empty() {
                    found += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            found as f64 / total as f64 > 0.9,
            "golden candidate missing too often: {found}/{total}"
        );
    }
}
