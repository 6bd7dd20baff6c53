//! Cross-crate property tests on substrate invariants.

use asv_datagen::corpus::{Archetype, CorpusGen, SizeHint};
use asv_mutation::inject::first_diff_line;
use asv_mutation::repairspace::{candidates, golden_candidates, matches_golden};
use asv_mutation::sites::transform_site;
use asv_mutation::{InjectError, Mutation};
use asv_serve::{JobKey, VerifyJob};
use asv_sva::bmc::Verifier;
use asv_verilog::pretty::render_module;
use asv_verilog::Design;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// `design` with `m` applied, rendered in full: the oracle for the spliced
/// single-line edits.
fn rerender(design: &Design, m: &Mutation) -> String {
    let mutated = transform_site(&design.module, m.site_id, |e| {
        m.edit.rewrite(e).expect("the edit fits its site")
    })
    .expect("the site exists");
    render_module(&mutated)
}

/// Every candidate and every injection of `design` equals the full
/// re-render of its mutated module, and its line triple is the first line
/// where the two full renders differ.
fn check_splices(design: &Design, name: &str) -> Result<(), TestCaseError> {
    let golden = render_module(&design.module);
    let cands = candidates(design);
    for (i, c) in cands.iter().enumerate() {
        let full = rerender(design, &c.mutation);
        prop_assert_eq!(
            c.patched_source(),
            full.clone(),
            "{}: {}",
            name,
            c.describe()
        );
        prop_assert_eq!(
            first_diff_line(&golden, &full),
            Some((c.line_no, c.old_line.to_string(), c.new_line.clone())),
            "{}: {}",
            name,
            c.describe()
        );
        prop_assert!(
            golden_candidates(&cands, &full).contains(&i),
            "{}: {}",
            name,
            c.describe()
        );
    }
    for m in asv_mutation::enumerate(design) {
        let full = rerender(design, &m);
        match asv_mutation::apply(design, &m) {
            Ok(inj) => {
                prop_assert_eq!(&inj.golden_source, &golden, "{}", name);
                prop_assert_eq!(&inj.buggy_source, &full, "{}: {:?}", name, m);
                prop_assert_eq!(
                    first_diff_line(&golden, &full),
                    Some((inj.line_no, inj.fixed_line, inj.buggy_line)),
                    "{}: {:?}",
                    name,
                    m
                );
            }
            Err(e) => {
                prop_assert_eq!(e, InjectError::NoOp, "{}: {:?}", name, m);
                prop_assert_eq!(&full, &golden, "{}: {:?}", name, m);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated corpus design compiles and canonically round-trips.
    #[test]
    fn corpus_designs_compile_and_roundtrip(seed in 0u64..500, arch_idx in 0usize..12, stages in 1u32..6) {
        let gen = CorpusGen::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = gen.instantiate(
            Archetype::ALL[arch_idx],
            seed as usize,
            SizeHint { stages, width: 4 },
            &mut rng,
        );
        let design = asv_verilog::compile(&d.source).expect("corpus design compiles");
        let rendered = render_module(&design.module);
        let re = asv_verilog::compile(&rendered).expect("canonical render compiles");
        prop_assert_eq!(rendered, render_module(&re.module), "render is a fixpoint");
    }

    /// The repair space is closed under inversion: injecting any bug into a
    /// golden design leaves the inverse edit among the buggy design's
    /// candidates.
    #[test]
    fn repair_space_contains_inverse(seed in 0u64..200, arch_idx in 0usize..12) {
        let gen = CorpusGen::new(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let d = gen.instantiate(
            Archetype::ALL[arch_idx],
            seed as usize,
            SizeHint { stages: 2, width: 4 },
            &mut rng,
        );
        let golden = asv_verilog::compile(&d.source).expect("compile");
        let golden_src = render_module(&golden.module);
        let muts = asv_mutation::enumerate(&golden);
        // Sample a handful of mutations per case to bound runtime.
        for m in muts.iter().step_by(7).take(4) {
            let Ok(inj) = asv_mutation::apply(&golden, m) else { continue };
            let Ok(buggy) = asv_verilog::compile(&inj.buggy_source) else { continue };
            let cands = candidates(&buggy);
            prop_assert!(
                cands.iter().any(|c| matches_golden(c, &golden_src)),
                "no inverse for {:?} in {}",
                m,
                d.name
            );
        }
    }

    /// Simulation is deterministic: identical stimulus sequences produce
    /// identical traces.
    #[test]
    fn simulation_is_deterministic(seed in 0u64..200) {
        let gen = CorpusGen::new(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let d = gen.instantiate(
            Archetype::Counter,
            seed as usize,
            SizeHint { stages: 2, width: 4 },
            &mut rng,
        );
        let design = asv_verilog::compile(&d.source).expect("compile");
        let sg = asv_sim::StimulusGen::new(&design);
        let stim = sg.random_seeded(12, 2, seed);
        let run = || {
            let mut sim = asv_sim::Simulator::new(&design);
            for t in 0..stim.len() {
                sim.step(&stim.cycle(t)).expect("step");
            }
            sim.into_trace()
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Render-once splicing equals the full re-render, for every candidate
    /// and injection of the golden designs of all 12 archetypes and of
    /// mutants injected into them, over seeds and sizes.
    #[test]
    fn spliced_edits_equal_full_rerender(seed in 0u64..1000, stages in 1u32..5) {
        for (k, arch) in Archetype::ALL.into_iter().enumerate() {
            let gen = CorpusGen::new(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ k as u64);
            let d = gen.instantiate(arch, seed as usize, SizeHint { stages, width: 4 }, &mut rng);
            let golden = asv_verilog::compile(&d.source).expect("corpus design compiles");
            check_splices(&golden, &d.name)?;
            for m in asv_mutation::enumerate(&golden).iter().step_by(13).take(2) {
                let Ok(inj) = asv_mutation::apply(&golden, m) else { continue };
                let Ok(mutant) = asv_verilog::compile(&inj.buggy_source) else { continue };
                check_splices(&mutant, &format!("{} with {:?}", d.name, m))?;
            }
        }
    }
}

/// Two jobs built with one `Verifier` share a `JobKey` exactly when their
/// designs render alike. The key hashes the AST, not a rendering; the
/// sources the pipeline judges are renders or splices of one, and on them
/// the two partitions must coincide. Checked over the golden of every
/// archetype, in its generated spelling and as rendered, and every repair
/// candidate's patched source: each rendering maps to one key and each
/// key to one rendering, which is the pairwise statement for all pairs.
#[test]
fn job_keys_partition_designs_like_their_renderings() {
    let verifier = Verifier::default();
    let mut key_of: HashMap<String, JobKey> = HashMap::new();
    let mut rendering_of: HashMap<JobKey, String> = HashMap::new();
    let mut jobs = 0usize;
    let gen = CorpusGen::new(0xD17E);
    let mut rng = StdRng::seed_from_u64(0xD17E);
    for (k, arch) in Archetype::ALL.into_iter().enumerate() {
        let d = gen.instantiate(
            arch,
            k,
            SizeHint {
                stages: 2,
                width: 4,
            },
            &mut rng,
        );
        let golden = asv_verilog::compile(&d.source).expect("corpus design compiles");
        let mut sources = vec![d.source.clone(), render_module(&golden.module)];
        sources.extend(candidates(&golden).iter().map(|c| c.patched_source()));
        for src in &sources {
            let Ok(design) = asv_verilog::compile(src) else {
                continue; // a patch that does not elaborate builds no job
            };
            let rendering = render_module(&design.module);
            let key = VerifyJob::new(design, verifier).key();
            jobs += 1;
            let first_key = *key_of.entry(rendering.clone()).or_insert(key);
            assert_eq!(
                first_key, key,
                "{}: one rendering, two keys\n{rendering}",
                d.name
            );
            let first = rendering_of.entry(key).or_insert_with(|| rendering.clone());
            assert_eq!(*first, rendering, "{}: one key, two renderings", d.name);
        }
    }
    // Not vacuous: distinct designs abound, and some renderings repeat
    // (each golden in two spellings at least).
    assert!(key_of.len() > 100, "only {} distinct designs", key_of.len());
    assert!(
        jobs >= key_of.len() + Archetype::ALL.len(),
        "no repeated rendering"
    );
}

/// What a byte-mutation edit may write in place of a byte: the characters
/// that open or escape a token, a few delimiters, and multi-byte UTF-8.
const MUTATION_SPLICES: &[&str] = &[
    "\"", "\\", "$", "'", "[", "#", "é", "→", "(", ")", "{", "}", ";", ":", "`", "/", "*", "0",
    "9", "\n", " ",
];

/// One to three random edits of `src`: delete a byte, duplicate a byte or
/// replace a byte with one of [`MUTATION_SPLICES`].
fn mutate_bytes(src: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = src.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if out.is_empty() {
            break;
        }
        let at = rng.gen_range(0..out.len());
        match rng.gen_range(0..3) {
            0 => {
                out.remove(at);
            }
            1 => out.insert(at, out[at]),
            _ => {
                let splice = MUTATION_SPLICES[rng.gen_range(0..MUTATION_SPLICES.len())];
                out.splice(at..=at, splice.bytes());
            }
        }
    }
    out
}

/// Compiles `src` twice under `catch_unwind`: both calls must return (no
/// panic) and agree.
fn assert_compiles_without_panic(src: &str, what: &str) {
    let first = catch_unwind(AssertUnwindSafe(|| asv_verilog::compile(src)));
    let second = catch_unwind(AssertUnwindSafe(|| asv_verilog::compile(src)));
    match (first, second) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: two compiles differ\n{src}"),
        _ => panic!("{what}: the front end panicked on\n{src}"),
    }
}

/// Minimized inputs that reach front-end arithmetic a mutant could
/// overflow: the width of `[4294967295:0]` does not fit in a `u32`.
const FRONTEND_PANIC_CASES: &[(&str, &str)] = &[(
    "full_u32_range_width",
    "module m(input [4294967295:0] a, output y); assign y = a[0]; endmodule",
)];

/// The front end returns `Ok` or `Err` and never panics on byte-mutated
/// sources of the 12 archetypes, and compiling one input twice gives
/// equal results. A fixed seed and budget (12 × 400 mutants); a failure
/// prints the seed and the mutant.
#[test]
fn frontend_never_panics_on_byte_mutated_sources() {
    const SEED: u64 = 0xF0E5_B17E;
    const MUTANTS_PER_SOURCE: usize = 400;
    eprintln!("byte-mutation seed {SEED:#x}");
    for (name, src) in FRONTEND_PANIC_CASES {
        assert_compiles_without_panic(src, name);
    }
    let gen = CorpusGen::new(SEED);
    let mut rng = StdRng::seed_from_u64(SEED);
    for (k, arch) in Archetype::ALL.into_iter().enumerate() {
        let d = gen.instantiate(
            arch,
            k,
            SizeHint {
                stages: 2,
                width: 4,
            },
            &mut rng,
        );
        for i in 0..MUTANTS_PER_SOURCE {
            let mutant =
                String::from_utf8_lossy(&mutate_bytes(d.source.as_bytes(), &mut rng)).into_owned();
            assert_compiles_without_panic(
                &mutant,
                &format!("seed {SEED:#x}, {} mutant {i}", d.name),
            );
        }
    }
}

/// The front end compiles deeply nested inputs on a thread with the
/// default 2 MiB stack of an `asv_sim::pool::map` worker, where candidate
/// preparation, inference and self-verification compile patches. Each
/// depth is at most half the deepest input of its shape that still
/// compiled in a debug build, so these are the depths any later nesting
/// limit must accept. A stack overflow aborts the whole test binary
/// rather than failing here.
#[test]
fn frontend_compiles_deep_nesting_on_a_worker_sized_stack() {
    let ternary_arms: String = (0..255)
        .map(|i| format!("b == 8'd{i} ? 8'd{} : ", 255 - i))
        .collect();
    let bodies = [
        (
            "100 nested parentheses",
            format!("y <= {}b{};", "(".repeat(100), ")".repeat(100)),
        ),
        (
            "100 nested begin/end blocks",
            format!("{}y <= b;{}", "begin ".repeat(100), " end".repeat(100)),
        ),
        (
            "100 nested ifs",
            format!("{}y <= b;", "if (a) ".repeat(100)),
        ),
        (
            "a 256-arm ternary chain",
            format!("y <= {ternary_arms}8'd0;"),
        ),
        ("1,000 unary ~", format!("y <= {}b;", "~".repeat(1000))),
        (
            "a 1,000-term ^ chain",
            format!("y <= {};", ["b"; 1000].join(" ^ ")),
        ),
    ];
    for (what, body) in bodies {
        let src = format!(
            "module m(input clk, input a, input [7:0] b, output reg [7:0] y);\n  \
             always @(posedge clk) begin\n    {body}\n  end\nendmodule\n"
        );
        let compiled = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || asv_verilog::compile(&src).map(drop))
            .expect("spawn a compile thread")
            .join()
            .unwrap_or_else(|_| panic!("{what}: the front end panicked"));
        if let Err(e) = compiled {
            panic!("{what}: does not compile: {e}");
        }
    }
}

/// The golden design of every archetype and up to three mutants injected
/// into each, named for failure messages: the designs the candidate pin
/// and the job-hash check cover.
fn archetypes_and_mutants() -> Vec<(String, Design)> {
    let gen = CorpusGen::new(0xCA4D);
    let mut rng = StdRng::seed_from_u64(0xCA4D);
    let mut designs = Vec::new();
    for (k, arch) in Archetype::ALL.into_iter().enumerate() {
        let d = gen.instantiate(
            arch,
            k,
            SizeHint {
                stages: 2,
                width: 4,
            },
            &mut rng,
        );
        let golden = asv_verilog::compile(&d.source).expect("corpus design compiles");
        for (i, m) in asv_mutation::enumerate(&golden)
            .iter()
            .step_by(11)
            .take(3)
            .enumerate()
        {
            let Ok(inj) = asv_mutation::apply(&golden, m) else {
                continue;
            };
            let Ok(mutant) = asv_verilog::compile(&inj.buggy_source) else {
                continue;
            };
            designs.push((format!("{} mutant {i}", d.name), mutant));
        }
        designs.push((d.name, golden));
    }
    designs
}

/// Folds bytes into a 64-bit FNV-1a hash.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds a length-prefixed string into `hash`.
fn fnv1a_str(hash: &mut u64, s: &str) {
    fnv1a(hash, &(s.len() as u64).to_le_bytes());
    fnv1a(hash, s.as_bytes());
}

/// Every field of every repair candidate of the archetypes and their
/// mutants, in order: `id`, `line_no`, `old_line`, `new_line` and the
/// mutation's `site_id`, `edit`, `class`, `stmt_span` and `assigned`.
#[test]
fn repair_candidates_are_pinned() {
    use asv_mutation::{Edit, SyntacticKind};
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let designs = archetypes_and_mutants();
    let mut count = 0usize;
    for (_, design) in &designs {
        let cands = candidates(design);
        fnv1a(&mut hash, &(cands.len() as u64).to_le_bytes());
        for c in &cands {
            count += 1;
            fnv1a(&mut hash, &(c.id as u64).to_le_bytes());
            fnv1a(&mut hash, &c.line_no.to_le_bytes());
            fnv1a_str(&mut hash, &c.old_line);
            fnv1a_str(&mut hash, &c.new_line);
            let m = &c.mutation;
            fnv1a(&mut hash, &(m.site_id as u64).to_le_bytes());
            match &m.edit {
                Edit::SwapBinOp(op) => {
                    fnv1a(&mut hash, &[0]);
                    fnv1a_str(&mut hash, op.as_str());
                }
                Edit::SetLiteral(v) => {
                    fnv1a(&mut hash, &[1]);
                    fnv1a(&mut hash, &v.to_le_bytes());
                }
                Edit::SetIdent(n) => {
                    fnv1a(&mut hash, &[2]);
                    fnv1a_str(&mut hash, n);
                }
                Edit::Negate => fnv1a(&mut hash, &[3]),
                Edit::Unnegate => fnv1a(&mut hash, &[4]),
            }
            let syntactic = match m.class.syntactic {
                SyntacticKind::Var => 0,
                SyntacticKind::Value => 1,
                SyntacticKind::Op => 2,
            };
            let direct = match m.class.direct {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            };
            fnv1a(&mut hash, &[syntactic, u8::from(m.class.cond), direct]);
            fnv1a(&mut hash, &m.stmt_span.start.to_le_bytes());
            fnv1a(&mut hash, &m.stmt_span.end.to_le_bytes());
            fnv1a(&mut hash, &(m.assigned.len() as u64).to_le_bytes());
            for name in m.assigned.iter() {
                fnv1a_str(&mut hash, name);
            }
        }
    }
    assert_eq!(
        (designs.len(), count, hash),
        (46, 2800, 0xd756_fd75_0483_e05b),
        "repair candidates moved"
    );
}

/// `asv_sim::cache::design_hash` equals SipHash streamed over the
/// module's and the parameters' `Hash` writes, as `DefaultHasher` takes
/// them, on the archetypes and their mutants and on every repair
/// candidate's patched design: every `JobKey` keeps its value.
#[test]
fn design_hash_equals_a_streaming_default_hasher() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let streamed = |design: &Design| {
        let mut h = DefaultHasher::new();
        design.module.hash(&mut h);
        design.params.hash(&mut h);
        h.finish()
    };
    let mut checked = 0usize;
    for (name, design) in archetypes_and_mutants() {
        assert_eq!(
            asv_sim::cache::design_hash(&design),
            streamed(&design),
            "{name}"
        );
        for c in candidates(&design).iter().step_by(7) {
            let Ok(patched) = asv_verilog::compile(&c.patched_source()) else {
                continue;
            };
            assert_eq!(
                asv_sim::cache::design_hash(&patched),
                streamed(&patched),
                "{name}: {}",
                c.describe()
            );
            checked += 1;
        }
    }
    assert!(checked > 300, "only {checked} patched designs hashed");
}
