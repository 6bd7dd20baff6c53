//! And-inverter graph: the intermediate form between word-level bytecode
//! and CNF.
//!
//! Every boolean function built during bit-blasting is represented as a
//! literal over a growing node table: node 0 is the constant, every other
//! node is either a primary input (one per symbolic input bit of the
//! unrolled design) or a two-input AND gate. Inversion is encoded in the
//! literal, not the node ([`NLit`]). Construction performs constant
//! folding, unit/idempotence/complement simplification and structural
//! hashing, so the concrete reset frames of an unrolled design collapse to
//! constants before any CNF is produced.
//!
//! [`Aig::cofactor`] rebuilds literals under facts assumed true: the
//! constrain/restrict cofactor of Coudert & Madre (ICCAD 1990), taken
//! only as far as the facts' AND structure fixes nodes.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Not;

/// A literal over an AIG node: node index shifted left once, with the
/// inversion flag in bit 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NLit(u32);

impl NLit {
    /// The constant-false literal (node 0, not inverted).
    pub const FALSE: NLit = NLit(0);
    /// The constant-true literal (node 0, inverted).
    pub const TRUE: NLit = NLit(1);

    /// Builds a literal from a node index and an inversion flag.
    pub fn new(node: u32, inverted: bool) -> Self {
        NLit(node << 1 | u32::from(inverted))
    }

    /// A literal from a constant boolean.
    pub fn constant(b: bool) -> Self {
        if b {
            NLit::TRUE
        } else {
            NLit::FALSE
        }
    }

    /// The node this literal refers to.
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// True when the literal inverts its node.
    pub fn is_inverted(self) -> bool {
        self.0 & 1 == 1
    }

    /// The constant value, if this literal is the constant node.
    pub fn as_const(self) -> Option<bool> {
        match self.0 {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// The raw encoded form (used as a hash key).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl Not for NLit {
    type Output = NLit;

    fn not(self) -> NLit {
        NLit(self.0 ^ 1)
    }
}

/// One AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// The constant node (index 0), representing *false* uninverted.
    Const,
    /// A primary input: one symbolic bit of the unrolled problem.
    Input,
    /// A two-input AND gate over two literals.
    And(NLit, NLit),
}

/// FxHash's multiply-rotate over the two literal halves of a strash key.
/// The keys are literals this graph allocated, so it needs none of the
/// default hasher's resistance to keys crafted to collide.
#[derive(Default)]
struct StrashHasher(u64);

impl Hasher for StrashHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, lit: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(lit)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A growing and-inverter graph with structural hashing.
#[derive(Debug, Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(u32, u32), u32, BuildHasherDefault<StrashHasher>>,
    /// [`Aig::cofactor`]'s node-indexed memo: `(generation, literal)`,
    /// valid only when the generation is the current call's. Facts fix
    /// nodes by writing their constant here before the rebuild starts.
    cof: Vec<(u32, NLit)>,
    /// The current [`Aig::cofactor`] call's generation (0 marks no call).
    cof_gen: u32,
    /// [`Aig::cofactor`]'s work stack of node indices.
    cof_stack: Vec<u32>,
}

impl Aig {
    /// Creates an empty graph (just the constant node).
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            ..Aig::default()
        }
    }

    /// Number of nodes (constant and inputs included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph holds only the constant node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// The node behind an index (for CNF encoding walks).
    pub fn node(&self, idx: u32) -> Node {
        self.nodes[idx as usize]
    }

    /// Allocates a fresh primary input and returns its positive literal.
    pub fn input(&mut self) -> NLit {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::Input);
        NLit::new(idx, false)
    }

    /// Builds `a AND b` with folding and structural hashing.
    pub fn and(&mut self, a: NLit, b: NLit) -> NLit {
        if a == NLit::FALSE || b == NLit::FALSE || a == !b {
            return NLit::FALSE;
        }
        if a == NLit::TRUE || a == b {
            return b;
        }
        if b == NLit::TRUE {
            return a;
        }
        let (lo, hi) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        let key = (lo.raw(), hi.raw());
        if let Some(&idx) = self.strash.get(&key) {
            return NLit::new(idx, false);
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::And(lo, hi));
        self.strash.insert(key, idx);
        NLit::new(idx, false)
    }

    /// `a OR b`.
    pub fn or(&mut self, a: NLit, b: NLit) -> NLit {
        !self.and(!a, !b)
    }

    /// `a XOR b`.
    pub fn xor(&mut self, a: NLit, b: NLit) -> NLit {
        let t = self.and(a, !b);
        let e = self.and(!a, b);
        self.or(t, e)
    }

    /// `a XNOR b` (equivalence).
    pub fn eq(&mut self, a: NLit, b: NLit) -> NLit {
        !self.xor(a, b)
    }

    /// `if s then t else e`.
    pub fn mux(&mut self, s: NLit, t: NLit, e: NLit) -> NLit {
        if t == e {
            return t;
        }
        let a = self.and(s, t);
        let b = self.and(!s, e);
        self.or(a, b)
    }

    /// Conjunction over a slice.
    pub fn and_many(&mut self, lits: &[NLit]) -> NLit {
        let mut acc = NLit::TRUE;
        for &l in lits {
            acc = self.and(acc, l);
        }
        acc
    }

    /// Disjunction over a slice.
    pub fn or_many(&mut self, lits: &[NLit]) -> NLit {
        let mut acc = NLit::FALSE;
        for &l in lits {
            acc = self.or(acc, l);
        }
        acc
    }

    /// Rebuilds `roots` under `facts` assumed true: each returned literal
    /// agrees with its root on every assignment that satisfies all the
    /// facts, and may differ elsewhere.
    ///
    /// A fact fixes its node; a node fixed true that is an AND fixes both
    /// fanins, recursively. Each root is then rebuilt bottom-up through
    /// [`Aig::and`] with every fixed node replaced by its constant, so
    /// folding and structural hashing simplify what the facts decide: a
    /// mux whose select is fixed becomes the selected input, and the
    /// equality of two literals that become one folds to true. Only
    /// nodes at or above the lowest fixed node are visited, because a
    /// node's fanins are older than the node. A root whose cone holds no
    /// fixed node comes back unchanged and adds no node.
    pub fn cofactor<const N: usize>(&mut self, roots: [NLit; N], facts: &[NLit]) -> [NLit; N] {
        // Constant roots (a consequent still pending, say) need no rebuild.
        if roots.iter().all(|r| r.as_const().is_some()) {
            return roots;
        }
        let len = self.nodes.len();
        if self.cof.len() < len {
            self.cof.resize(len, (0, NLit::FALSE));
        }
        self.cof_gen = self.cof_gen.wrapping_add(1);
        if self.cof_gen == 0 {
            self.cof.fill((0, NLit::FALSE));
            self.cof_gen = 1;
        }
        let gen = self.cof_gen;
        let lowest = self.fix(facts, gen);
        roots.map(|root| self.rebuild(root, lowest, gen))
    }

    /// Fixes the nodes `facts` imply (see [`Aig::cofactor`]) in the
    /// memo under generation `gen`, and returns the lowest fixed node
    /// (the node count when nothing is fixed).
    fn fix(&mut self, facts: &[NLit], gen: u32) -> u32 {
        let mut lowest = self.nodes.len() as u32;
        let mut stack = std::mem::take(&mut self.cof_stack);
        stack.extend(facts.iter().map(|f| f.raw()));
        while let Some(raw) = stack.pop() {
            // `raw` is a literal that must be true. A constant needs no
            // fix, and a node fixed already keeps its value: facts that
            // fix a node both ways cannot all hold, so any result will do.
            let lit = NLit(raw);
            let n = lit.node();
            if n == 0 || self.cof[n as usize].0 == gen {
                continue;
            }
            let value = !lit.is_inverted();
            self.cof[n as usize] = (gen, NLit::constant(value));
            lowest = lowest.min(n);
            if let (Node::And(a, b), true) = (self.nodes[n as usize], value) {
                stack.push(a.raw());
                stack.push(b.raw());
            }
        }
        self.cof_stack = stack;
        lowest
    }

    /// `lit` rebuilt under the nodes fixed in generation `gen`, with
    /// every node below `lowest` kept as it is.
    fn rebuild(&mut self, lit: NLit, lowest: u32, gen: u32) -> NLit {
        // A rebuilt literal: the node's memo entry with the literal's
        // inversion applied, if the node is done.
        let done = |cof: &[(u32, NLit)], l: NLit| -> Option<NLit> {
            if l.node() < lowest {
                return Some(l);
            }
            match cof[l.node() as usize] {
                (g, r) if g == gen => Some(if l.is_inverted() { !r } else { r }),
                _ => None,
            }
        };
        if let Some(r) = done(&self.cof, lit) {
            return r;
        }
        let mut stack = std::mem::take(&mut self.cof_stack);
        stack.push(lit.node());
        while let Some(&n) = stack.last() {
            let rebuilt = match self.nodes[n as usize] {
                Node::Const | Node::Input => NLit::new(n, false),
                Node::And(a, b) => {
                    let Some(ra) = done(&self.cof, a) else {
                        stack.push(a.node());
                        continue;
                    };
                    if ra == NLit::FALSE {
                        NLit::FALSE
                    } else {
                        let Some(rb) = done(&self.cof, b) else {
                            stack.push(b.node());
                            continue;
                        };
                        if (ra, rb) == (a, b) {
                            // What `and` would find in the strash table.
                            NLit::new(n, false)
                        } else {
                            self.and(ra, rb)
                        }
                    }
                }
            };
            self.cof[n as usize] = (gen, rebuilt);
            stack.pop();
        }
        self.cof_stack = stack;
        done(&self.cof, lit).expect("root rebuilt")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding() {
        let mut g = Aig::new();
        let x = g.input();
        assert_eq!(g.and(NLit::FALSE, x), NLit::FALSE);
        assert_eq!(g.and(NLit::TRUE, x), x);
        assert_eq!(g.and(x, x), x);
        assert_eq!(g.and(x, !x), NLit::FALSE);
        assert_eq!(g.or(x, !x), NLit::TRUE);
        assert_eq!(g.xor(x, NLit::FALSE), x);
        assert_eq!(g.xor(x, NLit::TRUE), !x);
    }

    #[test]
    fn structural_hashing_dedups() {
        let mut g = Aig::new();
        let x = g.input();
        let y = g.input();
        let a = g.and(x, y);
        let b = g.and(y, x);
        assert_eq!(a, b);
        let before = g.len();
        let _ = g.and(x, y);
        assert_eq!(g.len(), before, "no new node for a hashed AND");
    }

    /// SplitMix64: a seeded stream for the random graphs below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// Adds one random gate over `pool` (an AND, or an `or`/`mux`, so
    /// inverted ANDs appear) and pushes its literal.
    fn random_gate(g: &mut Aig, rng: &mut Rng, pool: &mut Vec<NLit>) {
        let pick = |rng: &mut Rng| {
            let l = pool[rng.below(pool.len())];
            if rng.next() & 1 == 1 {
                !l
            } else {
                l
            }
        };
        let (a, b, c) = (pick(rng), pick(rng), pick(rng));
        let l = match rng.below(3) {
            0 => g.and(a, b),
            1 => g.or(a, b),
            _ => g.mux(a, b, c),
        };
        pool.push(l);
    }

    /// A random graph over `k` inputs with `gates` gates, and every
    /// literal it built.
    fn random_graph(rng: &mut Rng, k: usize, gates: usize) -> (Aig, Vec<NLit>) {
        let mut g = Aig::new();
        let mut lits: Vec<NLit> = (0..k).map(|_| g.input()).collect();
        for _ in 0..gates {
            random_gate(&mut g, rng, &mut lits);
        }
        (g, lits)
    }

    /// The value of `l` when input `i` (the `i`-th allocated) reads bit
    /// `i` of `assignment`.
    fn eval(g: &Aig, l: NLit, assignment: u32) -> bool {
        let mut val = vec![false; g.len()];
        let mut input = 0;
        for n in 0..=l.node() as usize {
            val[n] = match g.node(n as u32) {
                Node::Const => false,
                Node::Input => {
                    input += 1;
                    assignment >> (input - 1) & 1 == 1
                }
                Node::And(a, b) => {
                    (val[a.node() as usize] != a.is_inverted())
                        && (val[b.node() as usize] != b.is_inverted())
                }
            };
        }
        val[l.node() as usize] != l.is_inverted()
    }

    #[test]
    fn cofactored_roots_agree_wherever_the_facts_hold() {
        let mut rng = Rng(0xC0FA);
        let mut checked = 0;
        for trial in 0..200 {
            let k = 1 + rng.below(8);
            let gates = 4 + rng.below(40);
            let (mut g, lits) = random_graph(&mut rng, k, gates);
            let pick = |rng: &mut Rng| {
                let l = lits[rng.below(lits.len())];
                if rng.next() & 1 == 1 {
                    !l
                } else {
                    l
                }
            };
            let mut facts: Vec<NLit> = (0..1 + rng.below(3)).map(|_| pick(&mut rng)).collect();
            match trial % 10 {
                // A constant fact: true is no constraint, false admits
                // no assignment.
                0 => facts.push(NLit::TRUE),
                1 => facts.push(NLit::FALSE),
                // A fact together with its complement.
                2 => facts.push(!facts[0]),
                _ => {}
            }
            let roots = [pick(&mut rng), pick(&mut rng), pick(&mut rng)];
            let before = g.len();
            let rebuilt = g.cofactor(roots, &facts);
            for assignment in 0..1u32 << k {
                if !facts.iter().all(|&f| eval(&g, f, assignment)) {
                    continue;
                }
                checked += 1;
                for (&root, &new) in roots.iter().zip(&rebuilt) {
                    assert_eq!(
                        eval(&g, root, assignment),
                        eval(&g, new, assignment),
                        "trial {trial}: root {root:?} rebuilt as {new:?} under {facts:?}"
                    );
                }
            }
            // Rebuilt nodes are new nodes above the old ones; the original
            // graph is untouched.
            assert!(g.len() >= before);
        }
        assert!(checked > 1000, "too few satisfying assignments: {checked}");
    }

    #[test]
    fn cofactor_simplifies_a_selected_mux() {
        let mut g = Aig::new();
        let (s, t, e) = (g.input(), g.input(), g.input());
        let m = g.mux(s, t, e);
        let same = g.eq(m, t);
        assert_eq!(g.cofactor([m, same], &[s]), [t, NLit::TRUE]);
        assert_eq!(g.cofactor([m], &[!s]), [e]);
        // Facts on an AND fix both of its fanins.
        let st = g.and(s, !e);
        assert_eq!(g.cofactor([m, e], &[st]), [t, NLit::FALSE]);
    }

    #[test]
    fn facts_outside_a_cone_return_the_root_and_add_no_node() {
        let mut rng = Rng(0x0C0E);
        for _ in 0..100 {
            // Two cones over disjoint inputs, their gates interleaved so
            // that fixed nodes lie both below and above the root.
            let mut g = Aig::new();
            let mut pools: [Vec<NLit>; 2] = Default::default();
            for i in 0..2 + rng.below(7) {
                pools[i % 2].push(g.input());
            }
            for i in 0..8 + rng.below(40) {
                random_gate(&mut g, &mut rng, &mut pools[i % 2]);
            }
            let [ours, theirs] = &pools;
            let root = ours[rng.below(ours.len())];
            let facts: Vec<NLit> = (0..1 + rng.below(3))
                .map(|_| theirs[rng.below(theirs.len())])
                .collect();
            let before = g.len();
            assert_eq!(g.cofactor([root, !root], &facts), [root, !root]);
            assert_eq!(g.len(), before, "no node added");
        }
    }

    #[test]
    fn mux_selects() {
        let mut g = Aig::new();
        let t = g.input();
        let e = g.input();
        assert_eq!(g.mux(NLit::TRUE, t, e), t);
        assert_eq!(g.mux(NLit::FALSE, t, e), e);
        let s = g.input();
        assert_eq!(g.mux(s, t, t), t, "same branches fold away the select");
    }
}
