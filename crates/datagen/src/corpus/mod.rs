//! Synthetic RTL corpus generation: the reproduction's substitute for the
//! 108,971-sample Hugging Face Verilog corpus (DESIGN.md).
//!
//! Every generated design is an *archetype instance*: a parameterised
//! realistic RTL module (counter, accumulator, FIFO controller, FSM, ALU,
//! ...) rendered with its design spec and golden SVAs embedded. Parameters
//! (widths, depths, unrolled stage counts) are sampled to cover the
//! paper's five code-length bins.

mod control;
mod datapath;
mod sequential;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The design families the corpus draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Archetype {
    /// Enabled up-counter with wraparound.
    Counter,
    /// The paper's Fig. 1 accumulator (counter + valid pulse).
    Accumulator,
    /// Multi-tap shift register pipeline.
    ShiftChain,
    /// Rising-edge detector with pulse output.
    EdgeDetector,
    /// Running parity tracker.
    Parity,
    /// FIFO credit controller (count/full/empty, no memory array).
    FifoCtrl,
    /// Timer-driven traffic-light style FSM.
    TrafficFsm,
    /// Registered ALU with a case-selected operation.
    Alu,
    /// Combinational priority arbiter with one-hot grant.
    Arbiter,
    /// PWM generator comparing a free counter against a duty input.
    Pwm,
    /// Binary-to-Gray pipeline.
    Gray,
    /// Req/ack handshake with a busy register.
    Handshake,
}

impl Archetype {
    /// All archetypes, in deterministic order.
    pub const ALL: [Archetype; 12] = [
        Archetype::Counter,
        Archetype::Accumulator,
        Archetype::ShiftChain,
        Archetype::EdgeDetector,
        Archetype::Parity,
        Archetype::FifoCtrl,
        Archetype::TrafficFsm,
        Archetype::Alu,
        Archetype::Arbiter,
        Archetype::Pwm,
        Archetype::Gray,
        Archetype::Handshake,
    ];

    /// Short lowercase tag used in generated module names.
    pub fn tag(self) -> &'static str {
        match self {
            Archetype::Counter => "counter",
            Archetype::Accumulator => "accu",
            Archetype::ShiftChain => "shift",
            Archetype::EdgeDetector => "edge",
            Archetype::Parity => "parity",
            Archetype::FifoCtrl => "fifo",
            Archetype::TrafficFsm => "traffic",
            Archetype::Alu => "alu",
            Archetype::Arbiter => "arbiter",
            Archetype::Pwm => "pwm",
            Archetype::Gray => "gray",
            Archetype::Handshake => "handshake",
        }
    }
}

impl fmt::Display for Archetype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A generated corpus item: source + spec, with provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedDesign {
    /// Unique module name (also the dedup key, as in the paper's split).
    pub name: String,
    /// Verilog source with properties and assertions embedded.
    pub source: String,
    /// The design specification text (ports + function).
    pub spec: String,
    /// Which family generated it.
    pub archetype: Archetype,
}

impl GeneratedDesign {
    /// Number of source lines (the paper's length metric).
    pub fn line_count(&self) -> usize {
        self.source.lines().count()
    }
}

/// Size knob passed to archetype builders: how many replicated stages /
/// unrolled elements to emit. Larger values land in longer length bins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SizeHint {
    /// Replication factor for unrollable structure.
    pub stages: u32,
    /// Preferred data width.
    pub width: u32,
}

/// Deterministic corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGen {
    seed: u64,
}

impl CorpusGen {
    /// Creates a generator with a seed; the same seed reproduces the same
    /// corpus bit-for-bit.
    pub fn new(seed: u64) -> Self {
        CorpusGen { seed }
    }

    /// Generates `count` designs cycling through archetypes and size bins.
    pub fn generate(&self, count: usize) -> Vec<GeneratedDesign> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let arch = Archetype::ALL[i % Archetype::ALL.len()];
            // Cycle size classes so every archetype covers every bin.
            let class = (i / Archetype::ALL.len()) % 5;
            let hint = SizeHint {
                stages: match class {
                    0 => 1,
                    1 => rng.gen_range(2..4),
                    2 => rng.gen_range(4..7),
                    3 => rng.gen_range(7..10),
                    _ => rng.gen_range(10..16),
                },
                width: *[2u32, 4, 4, 8, 8, 16]
                    .get(rng.gen_range(0..6usize))
                    .unwrap_or(&4),
            };
            out.push(self.instantiate(arch, i, hint, &mut rng));
        }
        out
    }

    /// Generates one instance of a specific archetype.
    pub fn instantiate(
        &self,
        arch: Archetype,
        id: usize,
        hint: SizeHint,
        rng: &mut StdRng,
    ) -> GeneratedDesign {
        let name = format!("{}_{id}", arch.tag());
        let (source, spec) = match arch {
            Archetype::Counter => sequential::counter(&name, hint, rng),
            Archetype::Accumulator => sequential::accumulator(&name, hint, rng),
            Archetype::ShiftChain => sequential::shift_chain(&name, hint, rng),
            Archetype::EdgeDetector => sequential::edge_detector(&name, hint),
            Archetype::Parity => sequential::parity(&name, hint),
            Archetype::FifoCtrl => sequential::fifo_ctrl(&name, hint, rng),
            Archetype::TrafficFsm => control::traffic_fsm(&name, hint, rng),
            Archetype::Alu => datapath::alu(&name, hint, rng),
            Archetype::Arbiter => datapath::arbiter(&name, hint),
            Archetype::Pwm => datapath::pwm(&name, hint),
            Archetype::Gray => datapath::gray(&name, hint),
            Archetype::Handshake => control::handshake(&name, hint),
        };
        GeneratedDesign {
            name,
            source,
            spec,
            archetype: arch,
        }
    }

    /// Produces a syntactically corrupted variant of a design, used to
    /// populate the compile-failure stream of the Verilog-PT dataset.
    /// Returns the corrupted source and a human-readable corruption note.
    ///
    /// The corruption is guaranteed not to compile: picks that leave the
    /// source parseable (e.g. deleting a semicolon the grammar tolerates)
    /// fall back to dropping `endmodule`.
    pub fn corrupt(&self, design: &GeneratedDesign, rng: &mut StdRng) -> (String, String) {
        let (src, note) = self.corrupt_inner(design, rng);
        if asv_verilog::compile(&src).is_ok() {
            let lines: Vec<&str> = design.source.lines().collect();
            let src = lines[..lines.len().saturating_sub(1)].join("\n");
            return (src, "missing `endmodule`".to_string());
        }
        (src, note)
    }

    fn corrupt_inner(&self, design: &GeneratedDesign, rng: &mut StdRng) -> (String, String) {
        let lines: Vec<&str> = design.source.lines().collect();
        let kind = rng.gen_range(0..4);
        match kind {
            0 => {
                // Drop the endmodule.
                let src = lines[..lines.len().saturating_sub(1)].join("\n");
                (src, "missing `endmodule`".to_string())
            }
            1 => {
                // Delete a semicolon from a random statement line.
                let cands: Vec<usize> = lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.trim_end().ends_with(';'))
                    .map(|(i, _)| i)
                    .collect();
                if cands.is_empty() {
                    return (design.source.clone(), "no-op corruption".to_string());
                }
                let i = cands[rng.gen_range(0..cands.len())];
                let mut out = lines.clone();
                let fixed: String = out[i].trim_end().trim_end_matches(';').to_string();
                out[i] = &fixed;
                (
                    out.join("\n"),
                    format!("missing semicolon on line {}", i + 1),
                )
            }
            2 => {
                // Misspell a keyword; designs without one (pure
                // combinational archetypes) lose `endmodule` instead so
                // the corruption always bites.
                let src = design.source.replacen("always", "alway", 1);
                if src == design.source {
                    let src = lines[..lines.len().saturating_sub(1)].join("\n");
                    (src, "missing `endmodule`".to_string())
                } else {
                    (src, "misspelled keyword `always`".to_string())
                }
            }
            _ => {
                // Unbalance begin/end, falling back like case 2.
                let src = design.source.replacen("end\n", "\n", 1);
                if src == design.source {
                    let src = lines[..lines.len().saturating_sub(1)].join("\n");
                    (src, "missing `endmodule`".to_string())
                } else {
                    (src, "unbalanced `begin`/`end`".to_string())
                }
            }
        }
    }
}

/// Shared helper: renders the standard spec preamble for a module.
pub(crate) fn spec_header(name: &str, ports: &[(&str, &str)], function: &str) -> String {
    let mut s = format!("Module: {name}\nPorts:\n");
    for (p, desc) in ports {
        s.push_str(&format!("  - {p}: {desc}\n"));
    }
    s.push_str("Function: ");
    s.push_str(function);
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_sva::bmc::{Verdict, Verifier};
    use asv_verilog::compile;

    #[test]
    fn every_archetype_compiles_and_holds() {
        let gen = CorpusGen::new(7);
        let mut rng = StdRng::seed_from_u64(99);
        let verifier = Verifier {
            depth: 10,
            random_runs: 12,
            exhaustive_limit: 1024,
            ..Verifier::default()
        };
        for (i, arch) in Archetype::ALL.iter().enumerate() {
            for stages in [1u32, 3] {
                let d = gen.instantiate(
                    *arch,
                    i * 10 + stages as usize,
                    SizeHint { stages, width: 4 },
                    &mut rng,
                );
                let design = compile(&d.source)
                    .unwrap_or_else(|e| panic!("{arch} failed to compile: {e}\n{}", d.source));
                let verdict = verifier
                    .check(&design)
                    .unwrap_or_else(|e| panic!("{arch} verification errored: {e}\n{}", d.source));
                match verdict {
                    Verdict::Holds { vacuous, .. } => {
                        assert!(
                            vacuous.is_empty(),
                            "{arch}: assertions never fired {vacuous:?}\n{}",
                            d.source
                        )
                    }
                    Verdict::Fails(cex) => panic!(
                        "{arch}: golden design fails its own SVA: {:?}\n{}",
                        cex.logs, d.source
                    ),
                    Verdict::Inconclusive {} => {
                        panic!("{arch}: check came back inconclusive\n{}", d.source)
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = CorpusGen::new(5).generate(24);
        let b = CorpusGen::new(5).generate(24);
        assert_eq!(a, b);
        let c = CorpusGen::new(6).generate(24);
        assert_ne!(a, c);
    }

    #[test]
    fn names_are_unique() {
        let designs = CorpusGen::new(1).generate(60);
        let mut names: Vec<&str> = designs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 60);
    }

    #[test]
    fn sizes_cover_multiple_length_bins() {
        let designs = CorpusGen::new(2).generate(120);
        let mut bins = std::collections::BTreeSet::new();
        for d in &designs {
            bins.insert(match d.line_count() {
                0..=50 => 0,
                51..=100 => 1,
                101..=150 => 2,
                151..=200 => 3,
                _ => 4,
            });
        }
        assert!(bins.len() >= 3, "only bins {bins:?} covered");
    }

    #[test]
    fn corruption_breaks_compilation() {
        let gen = CorpusGen::new(3);
        let designs = gen.generate(12);
        let mut rng = StdRng::seed_from_u64(11);
        let mut broken = 0;
        for d in &designs {
            let (src, _note) = gen.corrupt(d, &mut rng);
            if compile(&src).is_err() {
                broken += 1;
            }
        }
        // `corrupt` guarantees non-compiling output (compile-checked
        // fallback), so every corruption must break.
        assert_eq!(broken, 12, "only {broken}/12 corruptions failed to compile");
    }

    #[test]
    fn specs_mention_ports_and_function() {
        for d in CorpusGen::new(4).generate(12) {
            assert!(d.spec.contains("Ports:"), "{}", d.spec);
            assert!(d.spec.contains("Function:"), "{}", d.spec);
            assert!(d.spec.contains(&d.name));
        }
    }
}
