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
}

impl Aig {
    /// Creates an empty graph (just the constant node).
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::Const],
            strash: HashMap::default(),
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
