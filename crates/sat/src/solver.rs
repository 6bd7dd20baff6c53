//! An embedded CDCL SAT solver.
//!
//! Written from scratch for the bounded model checker: two-watched-literal
//! unit propagation, first-UIP conflict-driven clause learning, VSIDS
//! decision ordering with phase saving, Luby restarts, and incremental
//! assumption-based solving — clauses (original and learned) persist
//! across [`Solver::solve`] calls, so unrolling a design one time frame
//! deeper reuses everything learned at shallower depths.
//!
//! The instances produced by bit-blasting the reproduction's designs are
//! small (thousands of variables), so the solver deliberately omits clause
//! database reduction and preprocessing; the core loop is the textbook
//! MiniSat shape.

use std::fmt;
use std::ops::Not;

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// Index into per-variable tables.
    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A literal: a variable with a sign (bit 0 set = negated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `v`.
    pub fn pos(v: Var) -> Self {
        Lit(v.0 << 1)
    }

    /// The negative literal of `v`.
    pub fn neg(v: Var) -> Self {
        Lit(v.0 << 1 | 1)
    }

    /// A literal of `v` with explicit sign (`true` = negated).
    pub fn new(v: Var, negated: bool) -> Self {
        Lit(v.0 << 1 | u32::from(negated))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True when negated.
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    fn idx(self) -> usize {
        self.0 as usize
    }
}

impl Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_neg() {
            write!(f, "-{}", self.var().0 + 1)
        } else {
            write!(f, "{}", self.var().0 + 1)
        }
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found ([`Solver::model_value`]).
    Sat,
    /// Unsatisfiable under the given assumptions.
    Unsat,
    /// The conflict budget was exhausted before a verdict.
    Unknown,
}

/// Tri-state assignment value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum LBool {
    True,
    False,
    #[default]
    Undef,
}

impl LBool {
    fn from_bool(b: bool) -> Self {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

type ClauseRef = u32;

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// A watcher entry: the clause plus a blocker literal checked before the
/// clause is touched.
#[derive(Debug, Clone, Copy)]
struct Watch {
    cref: ClauseRef,
    blocker: Lit,
}

/// VSIDS priority queue: a binary max-heap of variables keyed by an
/// external activity table, with position backlinks for `decrease_key`.
#[derive(Debug, Clone, Default)]
struct VarHeap {
    heap: Vec<Var>,
    pos: Vec<i32>,
}

impl VarHeap {
    fn contains(&self, v: Var) -> bool {
        v.idx() < self.pos.len() && self.pos[v.idx()] >= 0
    }

    fn grow(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, -1);
        }
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        self.grow(v.idx() + 1);
        if self.contains(v) {
            return;
        }
        self.pos[v.idx()] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.idx()] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.idx()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            let i = self.pos[v.idx()] as usize;
            self.sift_up(i, act);
        }
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let p = (i - 1) / 2;
            if act[self.heap[i].idx()] <= act[self.heap[p].idx()] {
                break;
            }
            self.swap(i, p);
            i = p;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].idx()] > act[self.heap[best].idx()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].idx()] > act[self.heap[best].idx()] {
                best = r;
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].idx()] = i as i32;
        self.pos[self.heap[j].idx()] = j as i32;
    }
}

/// The CDCL solver.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    clauses: Vec<Clause>,
    watches: Vec<Vec<Watch>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<ClauseRef>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    /// Total conflicts across all `solve` calls.
    pub conflicts: u64,
    /// Total decisions across all `solve` calls.
    pub decisions: u64,
    /// Total propagated literals across all `solve` calls.
    pub propagations: u64,
    /// Conflict budget per `solve` call (`None` = unbounded).
    pub conflict_budget: Option<u64>,
}

const VAR_DECAY: f64 = 1.0 / 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const LUBY_UNIT: u64 = 64;

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            var_inc: 1.0,
            ok: true,
            ..Solver::default()
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap.insert(v, &self.activity);
        v
    }

    fn value_lit(&self, l: Lit) -> LBool {
        match self.assigns[l.var().idx()] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(!l.is_neg()),
            LBool::False => LBool::from_bool(l.is_neg()),
        }
    }

    /// Model value of `v` after [`SolveResult::Sat`]. Unconstrained
    /// variables report `false`.
    pub fn model_value(&self, v: Var) -> bool {
        matches!(self.assigns[v.idx()], LBool::True)
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause, simplifying against the level-0 assignment.
    ///
    /// Returns `false` when the clause (or an earlier one) makes the
    /// formula unsatisfiable outright.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        // A previous solve may have left a partial assignment behind.
        self.cancel_until(0);
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match self.value_lit(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => continue,   // falsified at level 0: drop
                LBool::Undef => {
                    if c.contains(&!l) {
                        return true; // tautology
                    }
                    if !c.contains(&l) {
                        c.push(l);
                    }
                }
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(c);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>) -> ClauseRef {
        let cref = self.clauses.len() as ClauseRef;
        let (w0, w1) = (lits[0], lits[1]);
        self.watches[(!w0).idx()].push(Watch { cref, blocker: w1 });
        self.watches[(!w1).idx()].push(Watch { cref, blocker: w0 });
        self.clauses.push(Clause { lits });
        cref
    }

    fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var();
        self.assigns[v.idx()] = LBool::from_bool(!l.is_neg());
        self.level[v.idx()] = self.decision_level() as u32;
        self.reason[v.idx()] = reason;
        self.phase[v.idx()] = !l.is_neg();
        self.trail.push(l);
    }

    /// Two-watched-literal unit propagation; returns a conflicting clause.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.idx()]);
            let mut i = 0;
            while i < ws.len() {
                let w = ws[i];
                if self.value_lit(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                // Normalise: watched literal !p at position 1.
                let cref = w.cref as usize;
                if self.clauses[cref].lits[0] == !p {
                    self.clauses[cref].lits.swap(0, 1);
                }
                let first = self.clauses[cref].lits[0];
                if first != w.blocker && self.value_lit(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Find a new literal to watch.
                let mut moved = false;
                for k in 2..self.clauses[cref].lits.len() {
                    if self.value_lit(self.clauses[cref].lits[k]) != LBool::False {
                        self.clauses[cref].lits.swap(1, k);
                        let nw = self.clauses[cref].lits[1];
                        self.watches[(!nw).idx()].push(Watch {
                            cref: w.cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                // Unit or conflicting.
                if self.value_lit(first) == LBool::False {
                    // Conflict: restore remaining watchers.
                    self.qhead = self.trail.len();
                    let mut orig = std::mem::take(&mut self.watches[p.idx()]);
                    ws.append(&mut orig);
                    self.watches[p.idx()] = ws;
                    return Some(w.cref);
                }
                self.enqueue(first, Some(w.cref));
                i += 1;
            }
            let mut orig = std::mem::take(&mut self.watches[p.idx()]);
            ws.append(&mut orig);
            self.watches[p.idx()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.idx()] += self.var_inc;
        if self.activity[v.idx()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    /// First-UIP conflict analysis: returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot for the asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl as usize;
        let mut index = self.trail.len();
        let current = self.decision_level() as u32;
        loop {
            let start = usize::from(p.is_some());
            for k in start..self.clauses[confl].lits.len() {
                let q = self.clauses[confl].lits[k];
                let v = q.var();
                if !self.seen[v.idx()] && self.level[v.idx()] > 0 {
                    self.seen[v.idx()] = true;
                    self.bump_var(v);
                    if self.level[v.idx()] >= current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().idx()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().idx()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            p = Some(lit);
            // The conflict analysis invariant guarantees a reason here
            // (only the first UIP can be a decision), and propagation
            // always enqueues a clause's position-0 literal, so the
            // implied literal sits at index 0 and is skipped by `start`.
            confl = self.reason[lit.var().idx()].expect("reason on analysis path") as usize;
            debug_assert_eq!(self.clauses[confl].lits[0], lit);
        }
        // Backjump level: highest level among the non-asserting literals.
        let mut bt = 0usize;
        let mut at = 1usize;
        for (i, l) in learnt.iter().enumerate().skip(1) {
            let lv = self.level[l.var().idx()] as usize;
            if lv > bt {
                bt = lv;
                at = i;
            }
        }
        if learnt.len() > 1 {
            learnt.swap(1, at);
        }
        for l in &learnt {
            self.seen[l.var().idx()] = false;
        }
        (learnt, bt)
    }

    fn cancel_until(&mut self, level: usize) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail");
                let v = l.var();
                self.assigns[v.idx()] = LBool::Undef;
                self.reason[v.idx()] = None;
                self.heap.insert(v, &self.activity);
            }
        }
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    /// Solves under `assumptions` (each forced true for this call only).
    ///
    /// Clauses learned during the search are kept for future calls, which
    /// is what makes deepening the BMC unrolling incremental.
    pub fn solve(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let budget = self.conflict_budget.map(|b| self.conflicts + b);
        let mut restart_round = 0u64;
        let mut restart_limit = LUBY_UNIT * luby(restart_round);
        let mut conflicts_this_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                // A conflict inside the assumption prefix means the
                // assumptions themselves are inconsistent with the clauses.
                if self.decision_level() <= assumptions.len() {
                    let (learnt, _) = self.analyze(confl);
                    self.cancel_until(0);
                    // The learnt clause is still sound: keep it for the
                    // next call before reporting Unsat-under-assumptions.
                    self.add_clause(&learnt);
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                self.learn(learnt);
                self.var_inc *= VAR_DECAY;
                if let Some(b) = budget {
                    if self.conflicts >= b {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                if conflicts_this_restart >= restart_limit {
                    restart_round += 1;
                    restart_limit = LUBY_UNIT * luby(restart_round);
                    conflicts_this_restart = 0;
                    self.cancel_until(0);
                }
            } else if self.decision_level() < assumptions.len() {
                // Re-assert the next assumption as a decision.
                let a = assumptions[self.decision_level()];
                match self.value_lit(a) {
                    LBool::True => self.new_decision_level(),
                    LBool::False => return SolveResult::Unsat,
                    LBool::Undef => {
                        self.new_decision_level();
                        self.enqueue(a, None);
                    }
                }
            } else if let Some(v) = self.pick_branch_var() {
                self.decisions += 1;
                self.new_decision_level();
                self.enqueue(Lit::new(v, !self.phase[v.idx()]), None);
            } else {
                return SolveResult::Sat;
            }
        }
    }

    fn learn(&mut self, learnt: Vec<Lit>) {
        debug_assert!(!learnt.is_empty());
        if learnt.len() == 1 {
            self.enqueue(learnt[0], None);
            return;
        }
        let asserting = learnt[0];
        let cref = self.attach(learnt);
        self.enqueue(asserting, Some(cref));
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        loop {
            let v = self.heap.pop(&self.activity)?;
            if self.assigns[v.idx()] == LBool::Undef {
                return Some(v);
            }
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...).
fn luby(mut x: u64) -> u64 {
    let (mut size, mut seq) = (1u64, 0u32);
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Var> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn luby_sequence() {
        let seq: Vec<u64> = (0..9).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1]);
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        assert!(s.add_clause(&[Lit::neg(v[1])]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.model_value(v[0]));
        assert!(!s.model_value(v[1]));
    }

    #[test]
    fn unit_contradiction_is_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[Lit::pos(v)]));
        assert!(!s.add_clause(&[Lit::neg(v)]));
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn implication_chain_propagates() {
        // x0 and (¬x_i ∨ x_{i+1}) for a long chain forces every var true.
        let mut s = Solver::new();
        let v = vars(&mut s, 64);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        for w in v.windows(2) {
            assert!(s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]));
        }
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(v.iter().all(|&x| s.model_value(x)));
    }

    #[test]
    fn chain_with_final_negation_is_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 32);
        assert!(s.add_clause(&[Lit::pos(v[0])]));
        for w in v.windows(2) {
            assert!(s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]));
        }
        let _ = s.add_clause(&[Lit::neg(v[31])]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    /// Pigeonhole principle PHP(n+1, n): n+1 pigeons in n holes, UNSAT.
    fn pigeonhole(pigeons: usize, holes: usize) -> (Solver, Vec<Vec<Lit>>) {
        let mut s = Solver::new();
        let x: Vec<Vec<Lit>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        // Every pigeon sits somewhere.
        for p in &x {
            assert!(s.add_clause(p));
        }
        // No two pigeons share a hole.
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                for (&a, &b) in x[p1].iter().zip(&x[p2]) {
                    assert!(s.add_clause(&[!a, !b]));
                }
            }
        }
        (s, x)
    }

    #[test]
    fn pigeonhole_unsat() {
        let (mut s, _) = pigeonhole(5, 4);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
        assert!(s.conflicts > 0, "PHP must require real search");
    }

    #[test]
    fn pigeonhole_exact_fit_is_sat() {
        let (mut s, x) = pigeonhole(4, 4);
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // The model must be a permutation.
        for p in &x {
            assert_eq!(p.iter().filter(|&&l| s.model_value(l.var())).count(), 1);
        }
    }

    #[test]
    fn assumptions_are_transient() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]));
        assert_eq!(
            s.solve(&[Lit::neg(v[0]), Lit::neg(v[1])]),
            SolveResult::Unsat
        );
        // Without assumptions the formula is satisfiable again.
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        // And a different assumption set flips the model.
        assert_eq!(s.solve(&[Lit::neg(v[0])]), SolveResult::Sat);
        assert!(s.model_value(v[1]));
    }

    #[test]
    fn incremental_clauses_between_solves() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::pos(v[1])]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
        assert!(s.add_clause(&[Lit::neg(v[0])]));
        // ¬v0 propagates v1 at level 0, so ¬v1 closes the formula: the
        // solver may already report unsatisfiability here.
        let _ = s.add_clause(&[Lit::neg(v[1])]);
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let v = s.new_var();
        let w = s.new_var();
        assert!(s.add_clause(&[Lit::pos(v), Lit::pos(v), Lit::pos(w)]));
        assert!(s.add_clause(&[Lit::pos(v), Lit::neg(v)]));
        assert_eq!(s.solve(&[]), SolveResult::Sat);
    }

    #[test]
    fn conflict_budget_reports_unknown() {
        let (mut s, _) = pigeonhole(7, 6);
        s.conflict_budget = Some(1);
        assert_eq!(s.solve(&[]), SolveResult::Unknown);
        s.conflict_budget = None;
        assert_eq!(s.solve(&[]), SolveResult::Unsat);
    }

    #[test]
    fn random_3sat_models_satisfy_clauses() {
        // Deterministic LCG-generated under-constrained 3-SAT instances:
        // every reported model must actually satisfy all clauses.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for round in 0..10 {
            let n = 20 + round;
            let m = 3 * n; // ratio 3: almost surely SAT
            let mut s = Solver::new();
            let v = vars(&mut s, n as usize);
            let mut cls = Vec::new();
            for _ in 0..m {
                let c: Vec<Lit> = (0..3)
                    .map(|_| Lit::new(v[(next() % n) as usize], next() % 2 == 1))
                    .collect();
                s.add_clause(&c);
                cls.push(c);
            }
            if s.solve(&[]) == SolveResult::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|&l| s.model_value(l.var()) != l.is_neg()),
                        "model must satisfy every clause"
                    );
                }
            }
        }
    }
}
