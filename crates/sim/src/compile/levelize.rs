//! Levelization: topological scheduling of combinational steps.
//!
//! Orders continuous assigns and combinational always blocks by their
//! signal dependencies so one ordered pass settles the logic. Designs the
//! sort cannot prove order-independent (dependency cycles, latch-style
//! incomplete blocks, dynamically indexed bit writes) keep the
//! interpreter's declaration-order fixpoint loop, preserving its
//! semantics — including `SimError::CombDivergence` — exactly.
//!
//! The verdict is structural: a false cycle such as `n = (n & 1'b0) | a`
//! still counts as a cycle, because nothing folds the IR before it is
//! scheduled.

use super::{CLValue, CStmt, CombStep};
use crate::compile::bytecode::ExprProg;
use asv_ir::SigId;

/// Topologically orders combinational steps so one pass settles the logic.
///
/// Returns declaration order with `levelized = false` when exact
/// interpreter equivalence cannot be guaranteed by a single pass:
/// dependency cycles, latch-style blocks whose targets are not assigned on
/// every path, or dynamically indexed bit writes (whose stale-index
/// residues are iteration artefacts the fixpoint loop reproduces).
pub(crate) fn levelize(comb: &[CombStep], n_signals: usize) -> (Vec<usize>, bool) {
    let decl_order: Vec<usize> = (0..comb.len()).collect();
    let mut reads: Vec<Vec<SigId>> = Vec::with_capacity(comb.len());
    let mut writes: Vec<Vec<SigId>> = Vec::with_capacity(comb.len());
    for step in comb {
        let mut fx = StepFx::default();
        match step {
            CombStep::Assign { lhs, rhs } => {
                fx.read_prog(rhs);
                if !fx.write_lvalue(lhs) {
                    return (decl_order, false);
                }
            }
            CombStep::Block(body) => {
                if !fx.walk(body) {
                    return (decl_order, false);
                }
                // For branching blocks every written signal must be fully
                // assigned (whole-signal write) on every path — otherwise
                // the block is a latch, whose settled value depends on the
                // fixpoint iteration the interpreter performs.
                let latch_free = !fx.branching
                    || fx.writes.iter().all(|sig| {
                        fx.whole_targets.contains(sig) && assigns_on_all_paths(body, *sig)
                    });
                if !latch_free {
                    return (decl_order, false);
                }
            }
        }
        reads.push(fx.reads);
        writes.push(fx.writes);
    }

    // writer → reader and (declaration-ordered) writer → writer edges.
    let n = comb.len();
    let mut writers_of: Vec<Vec<usize>> = vec![Vec::new(); n_signals];
    for (i, ws) in writes.iter().enumerate() {
        for w in ws {
            writers_of[w.idx()].push(i);
        }
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    let add_edge = |succs: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>, a: usize, b: usize| {
        if a != b && !succs[a].contains(&b) {
            succs[a].push(b);
            indeg[b] += 1;
        }
    };
    for (j, rs) in reads.iter().enumerate() {
        for r in rs {
            for &i in &writers_of[r.idx()] {
                if i == j {
                    // A step reading its own output is a combinational
                    // cycle; keep the fixpoint loop.
                    return (decl_order, false);
                }
                add_edge(&mut succs, &mut indeg, i, j);
            }
        }
    }
    for writers in &writers_of {
        for pair in writers.windows(2) {
            add_edge(&mut succs, &mut indeg, pair[0], pair[1]);
        }
    }

    // Kahn's algorithm, smallest declaration index first for determinism.
    let mut ready: std::collections::BTreeSet<usize> = indeg
        .iter()
        .enumerate()
        .filter(|(_, &d)| d == 0)
        .map(|(i, _)| i)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(&i) = ready.iter().next() {
        ready.remove(&i);
        order.push(i);
        for &j in &succs[i] {
            indeg[j] -= 1;
            if indeg[j] == 0 {
                ready.insert(j);
            }
        }
    }
    if order.len() == n {
        (order, true)
    } else {
        (decl_order, false)
    }
}

/// Read/write effects of one combinational step, plus the structural
/// properties levelization depends on.
#[derive(Default)]
pub(crate) struct StepFx {
    pub(crate) reads: Vec<SigId>,
    pub(crate) writes: Vec<SigId>,
    /// True when the step contains `if`/`case` control flow.
    branching: bool,
    /// Signals assigned via whole-signal writes (for the latch check).
    whole_targets: Vec<SigId>,
}

impl StepFx {
    /// Effects of one whole step (used by the observability analysis in
    /// [`super::CompiledDesign::sym_live`]).
    pub(crate) fn of_step(step: &CombStep) -> StepFx {
        let mut fx = StepFx::default();
        match step {
            CombStep::Assign { lhs, rhs } => {
                fx.read_prog(rhs);
                let _ = fx.write_lvalue(lhs);
            }
            CombStep::Block(body) => {
                let _ = fx.walk(body);
            }
        }
        fx
    }

    /// Effects of one clocked block.
    pub(crate) fn of_stmt(s: &CStmt) -> StepFx {
        let mut fx = StepFx::default();
        let _ = fx.walk(s);
        fx
    }

    fn read_prog(&mut self, prog: &ExprProg) {
        // `collect_sigs` descends into sub-programs, so every signal
        // read feeds the dependency graph.
        prog.collect_sigs(&mut self.reads);
    }

    /// Records a write; returns `false` when the target shape rules out
    /// levelization (dynamic bit index).
    fn write_lvalue(&mut self, lv: &CLValue) -> bool {
        match lv {
            CLValue::Whole(s) => {
                if !self.writes.contains(s) {
                    self.writes.push(*s);
                }
                if !self.whole_targets.contains(s) {
                    self.whole_targets.push(*s);
                }
                true
            }
            CLValue::Bit { sig, index } => {
                if !self.writes.contains(sig) {
                    self.writes.push(*sig);
                }
                self.read_prog(index);
                index.is_const()
            }
            CLValue::Part { sig, .. } => {
                if !self.writes.contains(sig) {
                    self.writes.push(*sig);
                }
                true
            }
            CLValue::Concat(parts) => parts.iter().all(|p| self.write_lvalue(p)),
            CLValue::Unknown(_) => true,
        }
    }

    /// Walks a block body collecting effects; returns `false` on shapes
    /// that rule out levelization.
    fn walk(&mut self, s: &CStmt) -> bool {
        match s {
            CStmt::Block(stmts) => stmts.iter().all(|st| self.walk(st)),
            CStmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                self.branching = true;
                self.read_prog(cond);
                self.walk(then_branch) && else_branch.as_ref().is_none_or(|e| self.walk(e))
            }
            CStmt::Case {
                scrutinee,
                arms,
                default,
                ..
            } => {
                self.branching = true;
                self.read_prog(scrutinee);
                for arm in arms {
                    for l in &arm.labels {
                        self.read_prog(l);
                    }
                }
                arms.iter().all(|a| self.walk(&a.body))
                    && default.as_ref().is_none_or(|d| self.walk(d))
            }
            CStmt::Assign { lhs, rhs, .. } => {
                self.read_prog(rhs);
                self.write_lvalue(lhs)
            }
            CStmt::Empty => true,
        }
    }
}

/// True when every control path through `s` performs a whole-signal
/// assignment to `sig`.
fn assigns_on_all_paths(s: &CStmt, sig: SigId) -> bool {
    match s {
        CStmt::Block(stmts) => stmts.iter().any(|st| assigns_on_all_paths(st, sig)),
        CStmt::If {
            then_branch,
            else_branch,
            ..
        } => else_branch.as_ref().is_some_and(|e| {
            assigns_on_all_paths(then_branch, sig) && assigns_on_all_paths(e, sig)
        }),
        CStmt::Case { arms, default, .. } => default.as_ref().is_some_and(|d| {
            arms.iter().all(|a| assigns_on_all_paths(&a.body, sig)) && assigns_on_all_paths(d, sig)
        }),
        CStmt::Assign { lhs, .. } => matches!(lhs, CLValue::Whole(s) if *s == sig),
        CStmt::Empty => false,
    }
}
