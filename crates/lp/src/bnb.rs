//! Best-first branch & bound over the LP relaxation, with a transforming
//! presolve front-end, root cutting planes, pseudocost branching, and
//! warm-started node re-solves.
//!
//! [`solve_mip`] is now a two-layer pipeline (DESIGN.md §5j):
//!
//! 1. the **presolve wrapper** validates the model, runs
//!    [`crate::presolve`] once per tree on integer models, solves the reduced
//!    model, and maps the answer back through the [`PostsolveMap`] — the
//!    restored point is re-priced with the *original* model's objective
//!    summation order, so presolve-on and presolve-off report the same
//!    objective bits;
//! 2. the **tree** ([`branch_and_bound`]) separates clique/cover cuts at
//!    the root (appended to the engine's matrix before the tree starts, so
//!    warm starts stay sound), then searches best-first with pseudocost
//!    branching seeded by strong-branch probes on the first nodes.
//!
//! A tree solves one relaxation from scratch: the first root cut round,
//! which on an all-binary model starts dual feasible from the slack basis
//! ([`SparseEngine::solve_cold`]). Every later round re-optimizes by dual
//! simplex from the previous round's optimal basis, restated for the
//! appended cut rows by [`Basis::with_rows`], and the root node enters the
//! tree carrying the final root basis. One [`SparseEngine`] is built for
//! the tree and every explored node records its optimal basis; children
//! inherit it (shared via `Rc`, since both siblings start from the same
//! parent vertex) and re-optimize with the dual simplex after their single
//! branching-bound change. Any warm-path bailout, in a root round or at a node, falls back
//! to a cold solve of the same relaxation (`bnb_warm_start_fallbacks`), so
//! warm-starting can only change *how* a relaxation is solved, never its
//! answer. Warm-started nodes re-check the root cuts against their
//! relaxation point and fall back cold on a violation (which the shared
//! matrix makes impossible in practice — the re-check is the §5j safety
//! net, counted as `bnb_cut_child_rechecks`).
//!
//! Once an incumbent exists, a warm node re-solve carries the post-solve
//! prune's threshold ([`prune_threshold`]) as an objective cutoff: the dual
//! simplex stops as soon as its bound provably reaches the threshold, and
//! the node closes as pruned (`bnb_nodes_cut_off`) without a primal finish
//! pass, a basis snapshot or a pseudocost observation. Root cut rounds,
//! strong-branch probes and cold solves run without one.
//!
//! Reduced-cost fixing (DESIGN.md §5f) pins the integer columns the
//! incumbent already rules out. An integer column nonbasic at a bound of an
//! optimal relaxation with objective `z` and reduced cost `d_j` cannot move
//! off that bound without raising the objective to `z + |d_j|`; once that
//! reaches the prune threshold plus [`FIX_MARGIN`], the column is pinned at
//! its bound for every node that relaxation covers. Node 1's objective and
//! reduced costs are kept, and pin the root box once node 1 has solved and
//! again at the first pop after every incumbent improvement
//! (`bnb_vars_fixed_root`). Every other branching node
//! pins its own box before strong branching and hands the pins to both
//! children (`bnb_vars_fixed_node`). Node changes intersect the root box,
//! so a root pin also binds nodes queued before it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::rc::Rc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::branch::Pseudocosts;
use crate::cuts::{self, Cut, CutKind, StructureHints};
use crate::model::VarKind;
use crate::presolve::{self, Presolved};
use crate::revised::{Basis, SolveOutcome, SparseEngine};
use crate::simplex::{LpStatus, VarStatus, INT_TOL};
use crate::{LpError, Model};

/// Relative optimality gap at which the search stops: a node whose bound
/// is within `REL_GAP` of the incumbent cannot improve it enough to matter.
const REL_GAP: f64 = 1e-6;
/// Separation rounds at the root before the tree starts.
const MAX_CUT_ROUNDS: usize = 5;
/// Tolerance for the warm-child cut re-check.
const CUT_RECHECK_TOL: f64 = 1e-6;
/// Nodes on which strong-branch probes may run (they seed the pseudocost
/// table with real dual-simplex observations).
const STRONG_BRANCH_NODES: usize = 2;
/// Candidates probed per strong-branching node.
const STRONG_BRANCH_CANDIDATES: usize = 4;
/// Degradation recorded for a probe whose child relaxation is infeasible:
/// branching there closes the child outright, the strongest possible move.
const STRONG_INFEASIBLE_DEGRADATION: f64 = 1e8;

/// Branch-and-bound configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MipOptions {
    /// Wall-clock budget; `None` = unlimited. Time-limited exits report the
    /// best incumbent and the residual gap.
    pub time_limit: Option<Duration>,
    /// Maximum number of explored nodes; `None` = unlimited.
    pub node_limit: Option<usize>,
    /// Re-optimize by dual simplex from a known basis: root cut rounds after
    /// the first from the previous round's, the root node from the last
    /// round's, and every other node from its parent's. Once there is an
    /// incumbent, a warm node re-solve also stops early when its bound
    /// reaches the incumbent, closing the node as pruned. On by default;
    /// turning it off forces a cold solve per root round and per node (the
    /// dual start from the slack basis, on an all-binary model), with no
    /// early stop, which the equivalence tests and the benchmark use as the
    /// comparison baseline.
    pub warm_start: bool,
    /// Run the transforming presolve on integer models before the tree
    /// (fixed/free column elimination, redundant/duplicate row drops,
    /// activity-range bound tightening) and postsolve the answer back.
    /// On by default; the off position is the bit-exactness baseline of
    /// `crates/testkit/tests/presolve_equivalence.rs`.
    pub presolve: bool,
    /// Separate clique and cover cuts at the root node. On by default.
    pub cuts: bool,
    /// Pseudocost branching with strong-branch initialization. Off falls
    /// back to the most-fractional rule. On by default.
    pub pseudocost: bool,
    /// Structural row indices from the model generator for the cut
    /// separator (shape-verified, never trusted). `None` = detect by
    /// scanning every row.
    pub hints: Option<StructureHints>,
}

impl Default for MipOptions {
    fn default() -> Self {
        MipOptions {
            time_limit: None,
            node_limit: None,
            warm_start: true,
            presolve: true,
            cuts: true,
            pseudocost: true,
            hints: None,
        }
    }
}

/// Outcome class of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MipStatus {
    /// Proven optimal incumbent.
    Optimal,
    /// Search stopped early (time/node limit) with a feasible incumbent.
    Feasible,
    /// No integer-feasible point exists.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// Search stopped early with no incumbent found.
    Unknown,
}

/// Result of a MIP solve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MipSolution {
    /// Outcome class.
    pub status: MipStatus,
    /// Best integer-feasible point (meaningful for `Optimal`/`Feasible`).
    pub x: Vec<f64>,
    /// Objective of `x`.
    pub objective: f64,
    /// Best proven lower bound on the optimum.
    pub best_bound: f64,
    /// Nodes explored.
    pub nodes: usize,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

impl MipSolution {
    /// Residual relative MIP gap: the standard
    /// `|objective - best_bound| / max(|objective|, |best_bound|, 1)`,
    /// which is well-defined for zero and negative objectives (the old
    /// `|objective|`-only denominator exploded near zero and understated the
    /// gap whenever the bound dominated the incumbent in magnitude).
    ///
    /// Returns `0` when proven optimal and `INFINITY` when there is no
    /// incumbent or no finite bound — an honest "unbounded gap", never a
    /// fake small number.
    pub fn gap(&self) -> f64 {
        if self.status == MipStatus::Optimal {
            return 0.0;
        }
        if self.x.is_empty() || !self.best_bound.is_finite() {
            return f64::INFINITY;
        }
        let denom = self.objective.abs().max(self.best_bound.abs()).max(1.0);
        ((self.objective - self.best_bound) / denom).max(0.0)
    }
}

/// How a node was created: variable, direction, fractional distance, and
/// the parent relaxation objective — everything a pseudocost observation
/// needs once the child's own relaxation solves.
struct BranchInfo {
    var: usize,
    up: bool,
    dist: f64,
    parent_obj: f64,
}

struct Node {
    bound: f64,
    /// Bound changes from the root as `(var, lower, upper)`: branching
    /// steps and reduced-cost pins. The tree intersects each with the root
    /// box (the larger lower, the smaller upper), so no change loosens a
    /// bound, a root pin made after the node was queued included.
    changes: Vec<(usize, f64, f64)>,
    /// Parent's optimal basis, shared by both siblings; at the root, the
    /// last root cut round's. `None` when there is none (no cut round ran,
    /// or a relaxation produced no basis).
    basis: Option<Rc<Basis>>,
    /// Branching step that created this node; `None` at the root.
    branch: Option<BranchInfo>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first.
        other.bound.partial_cmp(&self.bound).unwrap_or(Ordering::Equal)
    }
}

/// Solves the mixed-integer model by LP-based branch & bound.
///
/// `incumbent` optionally seeds the search with a known feasible point (the
/// FBB harness passes the heuristic solution, which massively prunes the
/// tree — and is also how warm-starting against `lp_solve` worked in
/// practice).
///
/// With `options.presolve` (the default) integer models first pass through
/// [`crate::presolve::presolve`]; the reduced solve's answer is restored
/// through the [`PostsolveMap`](crate::presolve::PostsolveMap) and re-priced
/// against the original model, so the reported status, point, and objective
/// bits match the presolve-off solve.
///
/// # Errors
///
/// Propagates model validation errors and simplex failures.
pub fn solve_mip(
    model: &Model,
    options: &MipOptions,
    incumbent: Option<(f64, Vec<f64>)>,
) -> Result<MipSolution, LpError> {
    let _mip_span = fbb_telemetry::span("bnb_solve");
    model.validate()?;
    let clock = crate::deadline::Stopwatch::start();

    if !options.presolve || !model.has_integers() {
        return branch_and_bound(model, options, options.hints.as_ref(), incumbent, &clock);
    }

    match presolve::presolve(model) {
        Presolved::Infeasible => {
            if fbb_telemetry::is_enabled() {
                fbb_telemetry::counter("lp_presolve_runs", 1);
                fbb_telemetry::counter("lp_presolve_infeasible", 1);
            }
            Ok(MipSolution {
                status: MipStatus::Infeasible,
                x: Vec::new(),
                objective: 0.0,
                best_bound: f64::INFINITY,
                nodes: 0,
                elapsed: clock.runtime(),
            })
        }
        Presolved::Reduced { model: reduced, map } => {
            if fbb_telemetry::is_enabled() {
                let st = map.stats();
                fbb_telemetry::counter("lp_presolve_runs", 1);
                fbb_telemetry::counter("lp_presolve_cols_eliminated", st.cols_eliminated as u64);
                fbb_telemetry::counter("lp_presolve_rows_dropped", st.rows_dropped as u64);
                fbb_telemetry::counter("lp_presolve_bounds_tightened", st.bounds_tightened as u64);
            }
            if map.reduced_cols() == 0 {
                // Presolve solved the model outright: every column is
                // pinned and every row verified satisfied.
                let x = map.restore(&[]);
                let objective = model.objective_value(&x);
                // An already-expired budget still never reports "proven":
                // same contract as a tree that trips the limit on entry.
                let status = if clock.expired_after(options.time_limit) {
                    MipStatus::Feasible
                } else {
                    MipStatus::Optimal
                };
                return Ok(MipSolution {
                    status,
                    x,
                    objective,
                    best_bound: objective,
                    nodes: 0,
                    elapsed: clock.runtime(),
                });
            }
            if reduced.constraint_count() == 0 {
                // Row-free survivors are exactly the free columns whose
                // objective-improving bound is infinite (anything else was
                // pinned): the model is unbounded.
                return Ok(MipSolution {
                    status: MipStatus::Unbounded,
                    x: Vec::new(),
                    objective: 0.0,
                    best_bound: f64::NEG_INFINITY,
                    nodes: 0,
                    elapsed: clock.runtime(),
                });
            }
            let hints = options.hints.as_ref().map(|h| map.translate_hints(h));
            let reduced_incumbent = incumbent.and_then(|(obj, x)| {
                if !model.is_feasible(&x, 1e-6) {
                    return None;
                }
                let rx = map.project(&x);
                // Projection of a feasible point stays feasible (implied
                // bounds only remove infeasible values); the re-check is
                // defensive so a presolve defect can at worst lose the
                // seed, never corrupt the tree.
                reduced.is_feasible(&rx, 1e-6).then(|| (obj - map.fixed_cost(), rx))
            });
            let mut sol =
                branch_and_bound(&reduced, options, hints.as_ref(), reduced_incumbent, &clock)?;
            if !sol.x.is_empty() {
                sol.x = map.restore(&sol.x);
                sol.objective = model.objective_value(&sol.x);
            }
            sol.best_bound += map.fixed_cost();
            if sol.status == MipStatus::Optimal {
                sol.best_bound = sol.objective;
            }
            sol.elapsed = clock.runtime();
            Ok(sol)
        }
    }
}

/// The actual tree search. `model` is the (possibly reduced) model the
/// engine runs on; `hints` are stated in *its* row indices.
fn branch_and_bound(
    model: &Model,
    options: &MipOptions,
    hints: Option<&StructureHints>,
    incumbent: Option<(f64, Vec<f64>)>,
    clock: &crate::deadline::Stopwatch,
) -> Result<MipSolution, LpError> {
    let n = model.var_count();
    let int_vars: Vec<usize> = (0..n).filter(|&j| model.vars[j].kind == VarKind::Integer).collect();

    let mut best_x: Option<Vec<f64>> = None;
    let mut best_obj = f64::INFINITY;
    if let Some((obj, x)) = incumbent {
        if model.is_feasible(&x, 1e-6) {
            best_obj = obj;
            best_x = Some(x);
        }
    }

    // The root box: the model's bounds, narrowed by root reduced-cost pins
    // once node 1 has solved.
    let mut root_lower: Vec<f64> = model.vars.iter().map(|v| v.lower).collect();
    let mut root_upper: Vec<f64> = model.vars.iter().map(|v| v.upper).collect();

    let mut tel_warm = WarmTally::default();

    // Root cut separation (§5j): solve the root relaxation, add every
    // violated valid inequality, repeat on the strengthened relaxation.
    // The cuts are appended to the model the engine is built from, so the
    // whole tree prices them — warm starts included. Each round after the
    // first re-optimizes from the previous round's optimal basis, restated
    // for the appended rows, and the root node inherits the last one.
    let mut tel_cut_rounds = 0u64;
    let mut tel_cuts_clique = 0u64;
    let mut tel_cuts_cover = 0u64;
    let mut root_cuts: Vec<Cut> = Vec::new();
    let mut cut_model: Option<Model> = None;
    let mut root_basis: Option<Basis> = None;
    if options.cuts && !int_vars.is_empty() {
        let structure = cuts::detect_structure(model, hints);
        if structure.has_candidates() {
            let mut strengthened = model.clone();
            for _ in 0..MAX_CUT_ROUNDS {
                if clock.expired_after(options.time_limit) {
                    break;
                }
                let deadline = clock.deadline_after(options.time_limit);
                let warm = if options.warm_start { root_basis.as_ref() } else { None };
                // No cutoff: separation needs the round's optimal point.
                let (outcome, _) = solve_relaxation(
                    &mut SparseEngine::new(&strengthened),
                    &root_lower,
                    &root_upper,
                    deadline,
                    warm,
                    None,
                    &mut tel_warm,
                )?;
                if outcome.solution.status != LpStatus::Optimal {
                    break;
                }
                root_basis = outcome.basis;
                let fresh: Vec<Cut> = cuts::separate(model, &structure, &outcome.solution.x)
                    .into_iter()
                    .filter(|c| !root_cuts.contains(c))
                    .collect();
                if fresh.is_empty() {
                    break;
                }
                let mut added = 0usize;
                for cut in fresh {
                    if strengthened.add_constraint(cut.terms.clone(), cut.sense, cut.rhs).is_err()
                    {
                        continue;
                    }
                    match cut.kind {
                        CutKind::Clique => tel_cuts_clique += 1,
                        CutKind::Cover => tel_cuts_cover += 1,
                    }
                    root_cuts.push(cut);
                    added += 1;
                }
                if added == 0 {
                    break;
                }
                root_basis = root_basis.map(|b| b.with_rows(added));
                tel_cut_rounds += 1;
            }
            if !root_cuts.is_empty() {
                cut_model = Some(strengthened);
            }
        }
    }

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: f64::NEG_INFINITY,
        changes: Vec::new(),
        basis: root_basis.map(Rc::new),
        branch: None,
    });
    // The popped node's box: the root bounds with its changes applied.
    let mut lower = root_lower.clone();
    let mut upper = root_upper.clone();

    // One engine for the whole tree: the constraint matrix — original rows
    // plus the root cuts — is shared by every node (only variable bounds
    // differ), which is exactly what makes parent-basis warm starts sound.
    let engine_model: &Model = cut_model.as_ref().unwrap_or(model);
    let mut engine = SparseEngine::new(engine_model);

    let mut pc = Pseudocosts::new(n);
    let mut nodes = 0usize;
    let mut limit_hit = false;
    let mut gap_proven = false;
    let mut root_unbounded = false;
    let mut tel_pruned = 0u64;
    let mut tel_cut_off = 0u64;
    let mut tel_infeasible = 0u64;
    let mut tel_branches = 0u64;
    let mut tel_incumbents = 0u64;
    let mut tel_cut_rechecks = 0u64;
    let mut tel_probes = 0u64;
    let mut tel_pc_branches = 0u64;
    let mut tel_fixed_root = 0u64;
    let mut tel_fixed_node = 0u64;
    // Node 1's objective and fixable columns, kept to pin the root box
    // again whenever the incumbent improves.
    let mut root_fixing: Option<Fixing> = None;

    while let Some(node) = heap.pop() {
        if best_obj.is_finite() && node.bound.is_finite() {
            let denom = best_obj.abs().max(node.bound.abs()).max(1.0);
            if node.bound >= best_obj - REL_GAP * denom - 1e-12 {
                // The heap is ordered by bound, so every remaining node is
                // dominated too: the incumbent is proven optimal.
                gap_proven = true;
                break;
            }
        }
        // On any limit break the popped node goes BACK into the heap: the
        // final bound is computed from the open nodes, and silently dropping
        // the minimum-bound node would overstate `best_bound` (and understate
        // the reported gap).
        if clock.expired_after(options.time_limit) {
            limit_hit = true;
            heap.push(node);
            break;
        }
        if let Some(nl) = options.node_limit {
            if nodes >= nl {
                limit_hit = true;
                heap.push(node);
                break;
            }
        }
        nodes += 1;
        if let Some(root) = root_fixing.as_mut() {
            // A no-op unless the incumbent improved since the last pop.
            tel_fixed_root += root.pin(best_obj, &mut root_lower, &mut root_upper).len() as u64;
        }
        lower.copy_from_slice(&root_lower);
        upper.copy_from_slice(&root_upper);
        for &(j, lo, up) in &node.changes {
            lower[j] = lower[j].max(lo);
            upper[j] = upper[j].min(up);
        }

        let deadline = clock.deadline_after(options.time_limit);
        let warm_basis = if options.warm_start { node.basis.as_deref() } else { None };
        let (mut outcome, was_warm) = solve_relaxation(
            &mut engine,
            &lower,
            &upper,
            deadline,
            warm_basis,
            prune_threshold(best_obj),
            &mut tel_warm,
        )?;
        if was_warm && !root_cuts.is_empty() && outcome.solution.status == LpStatus::Optimal {
            // Re-check the root cuts at the warm-started node. The cuts
            // live in the engine's matrix, so a violation means the warm
            // path went wrong: fall back to a cold solve of the node.
            tel_cut_rechecks += 1;
            if root_cuts.iter().any(|c| !c.is_satisfied(&outcome.solution.x, CUT_RECHECK_TOL)) {
                tel_warm.fallbacks += 1;
                outcome = engine.solve_cold(&lower, &upper, deadline)?;
            }
        }
        if fbb_telemetry::is_enabled() {
            fbb_telemetry::record("bnb_node_simplex_iterations", outcome.iterations as f64);
        }
        if outcome.cut_off {
            // The warm dual simplex proved the node's bound reaches the
            // prune threshold: dominated, as the post-solve prune below
            // would have found, with no pseudocost observation.
            tel_pruned += 1;
            tel_cut_off += 1;
            continue;
        }
        let SolveOutcome { solution: relax, basis: relax_basis, .. } = outcome;
        match relax.status {
            LpStatus::DeadlineExceeded => {
                // The node's relaxation was cut short, so its inherited bound
                // is still the best information we have: keep it open.
                limit_hit = true;
                heap.push(node);
                break;
            }
            LpStatus::Infeasible => {
                tel_infeasible += 1;
                continue;
            }
            LpStatus::Unbounded => {
                if nodes == 1 {
                    root_unbounded = true;
                    break;
                }
                continue;
            }
            LpStatus::Optimal => {}
        }
        // Feed the pseudocost table with the observed bound movement of the
        // branch that created this node.
        if let Some(b) = &node.branch {
            pc.observe(b.var, b.up, b.dist, relax.objective - b.parent_obj);
        }
        if prune_threshold(best_obj).is_some_and(|t| relax.objective >= t) {
            tel_pruned += 1;
            continue; // dominated
        }

        // Fractional integer variables of the top branching-priority class.
        let cands = fractional_candidates(model, &int_vars, &relax.x);
        if cands.is_empty() {
            // Integer feasible.
            let mut x = relax.x.clone();
            for &j in &int_vars {
                x[j] = x[j].round();
            }
            let obj = model.objective_value(&x);
            if obj < best_obj {
                best_obj = obj;
                best_x = Some(x);
                tel_incumbents += 1;
            }
            continue;
        }

        // Reduced-cost fixing (DESIGN.md §5f), before strong branching so
        // that its probes see the pinned box. Node 1's pins go into the
        // root box, which every later node starts from; another node's go
        // into its own box and both children's changes.
        let mut node_pins: Vec<(usize, f64, f64)> = Vec::new();
        if nodes == 1 || best_obj.is_finite() {
            let fixable = fixable_columns(&int_vars, &engine.reduced_costs(), &lower, &upper);
            let mut fixing = Fixing::new(relax.objective, fixable);
            if nodes == 1 {
                tel_fixed_root +=
                    fixing.pin(best_obj, &mut root_lower, &mut root_upper).len() as u64;
                lower.copy_from_slice(&root_lower);
                upper.copy_from_slice(&root_upper);
                root_fixing = Some(fixing);
            } else {
                let pinned = fixing.pin(best_obj, &mut lower, &mut upper);
                node_pins.extend(pinned.iter().map(|f| (f.var, f.value, f.value)));
                tel_fixed_node += node_pins.len() as u64;
            }
        }

        let j = if options.pseudocost {
            if nodes <= STRONG_BRANCH_NODES && options.warm_start {
                if let Some(basis) = relax_basis.as_ref() {
                    strong_branch_probes(
                        &mut engine,
                        &mut pc,
                        &cands,
                        &relax.x,
                        relax.objective,
                        &lower,
                        &upper,
                        clock,
                        options.time_limit,
                        basis,
                        &mut tel_probes,
                    )?;
                }
            }
            tel_pc_branches += 1;
            let scorer = pc.scorer();
            cands
                .iter()
                .copied()
                .max_by(|a, b| {
                    let (sa, sb) = (scorer.score(a.0, a.1), scorer.score(b.0, b.1));
                    sa.total_cmp(&sb).then(b.0.cmp(&a.0))
                })
                .map_or(cands[0].0, |(j, _)| j)
        } else {
            most_fractional(&cands, &relax.x)
        };
        // Rounding probe: cheap chance at an incumbent.
        if best_x.is_none() {
            let mut probe = relax.x.clone();
            for &k in &int_vars {
                probe[k] = probe[k].round().clamp(lower[k], upper[k]);
            }
            if model.is_feasible(&probe, 1e-6) {
                let obj = model.objective_value(&probe);
                if obj < best_obj {
                    best_obj = obj;
                    best_x = Some(probe);
                    tel_incumbents += 1;
                }
            }
        }
        tel_branches += 1;
        let xv = relax.x[j];
        let frac = xv - xv.floor();
        let inherited = relax_basis.map(Rc::new);
        let child_changes = |change: (usize, f64, f64)| {
            let mut changes =
                Vec::with_capacity(node.changes.len() + node_pins.len() + 1);
            changes.extend_from_slice(&node.changes);
            changes.extend_from_slice(&node_pins);
            changes.push(change);
            changes
        };
        let down = Node {
            bound: relax.objective,
            changes: child_changes((j, lower[j], xv.floor())),
            basis: inherited.clone(),
            branch: Some(BranchInfo {
                var: j,
                up: false,
                dist: frac,
                parent_obj: relax.objective,
            }),
        };
        let up = Node {
            bound: relax.objective,
            changes: child_changes((j, xv.ceil(), upper[j])),
            basis: inherited,
            branch: Some(BranchInfo {
                var: j,
                up: true,
                dist: 1.0 - frac,
                parent_obj: relax.objective,
            }),
        };
        heap.push(down);
        heap.push(up);
    }

    // Final bound bookkeeping. A proven finish pins the bound to the
    // incumbent; otherwise the minimum over the open nodes (the heap top) is
    // the tightest proven bound — the limit paths above re-push the popped
    // node precisely so it is still counted here.
    let proven = gap_proven || (heap.is_empty() && !limit_hit && !root_unbounded);
    let best_bound = if root_unbounded {
        f64::NEG_INFINITY
    } else if proven || heap.is_empty() {
        if best_obj.is_finite() {
            best_obj
        } else {
            f64::INFINITY
        }
    } else {
        heap.peek().map_or(f64::NEG_INFINITY, |top| top.bound)
    };

    let elapsed = clock.runtime();
    let status = if root_unbounded {
        MipStatus::Unbounded
    } else {
        match (&best_x, limit_hit) {
            (Some(_), false) => MipStatus::Optimal,
            (Some(_), true) => MipStatus::Feasible,
            (None, false) => MipStatus::Infeasible,
            (None, true) => MipStatus::Unknown,
        }
    };
    let solution = MipSolution {
        status,
        x: best_x.unwrap_or_default(),
        objective: if best_obj.is_finite() { best_obj } else { 0.0 },
        best_bound,
        nodes,
        elapsed,
    };
    if fbb_telemetry::is_enabled() {
        fbb_telemetry::counter("bnb_solves", 1);
        fbb_telemetry::counter("bnb_nodes_explored", nodes as u64);
        fbb_telemetry::counter("bnb_nodes_pruned", tel_pruned);
        fbb_telemetry::counter("bnb_nodes_cut_off", tel_cut_off);
        fbb_telemetry::counter("bnb_nodes_infeasible", tel_infeasible);
        fbb_telemetry::counter("bnb_branches", tel_branches);
        fbb_telemetry::counter("bnb_incumbent_updates", tel_incumbents);
        fbb_telemetry::counter("bnb_warm_starts", tel_warm.starts);
        fbb_telemetry::counter("bnb_warm_start_fallbacks", tel_warm.fallbacks);
        fbb_telemetry::counter("bnb_cut_rounds", tel_cut_rounds);
        fbb_telemetry::counter("bnb_cuts_clique_added", tel_cuts_clique);
        fbb_telemetry::counter("bnb_cuts_cover_added", tel_cuts_cover);
        fbb_telemetry::counter("bnb_cut_child_rechecks", tel_cut_rechecks);
        fbb_telemetry::counter("bnb_strong_branch_probes", tel_probes);
        fbb_telemetry::counter("bnb_pseudocost_branches", tel_pc_branches);
        fbb_telemetry::counter("bnb_vars_fixed_root", tel_fixed_root);
        fbb_telemetry::counter("bnb_vars_fixed_node", tel_fixed_node);
        fbb_telemetry::record("bnb_open_nodes", heap.len() as f64);
        fbb_telemetry::record("bnb_gap", solution.gap());
    }
    Ok(solution)
}

/// Warm solves that succeeded and warm-path bailouts re-solved cold, over
/// root cut rounds and tree nodes alike.
#[derive(Default)]
struct WarmTally {
    starts: u64,
    fallbacks: u64,
}

/// The objective at or above which a relaxation is dominated by the
/// incumbent objective `best_obj`; `None` while there is no incumbent. The
/// post-solve prune and the warm node re-solve's cutoff both read it.
fn prune_threshold(best_obj: f64) -> Option<f64> {
    best_obj.is_finite().then_some(best_obj - 1e-9)
}

/// Solves one relaxation: warm from `basis` when there is one, cold
/// otherwise; a warm-path bailout (`Ok(None)`) re-solves the same
/// relaxation cold. `cutoff` reaches the warm solve only, so a cold solve
/// always runs to its verdict. The flag says whether the answer came from
/// the warm path.
fn solve_relaxation(
    engine: &mut SparseEngine,
    lower: &[f64],
    upper: &[f64],
    deadline: Option<std::time::Instant>,
    basis: Option<&Basis>,
    cutoff: Option<f64>,
    tally: &mut WarmTally,
) -> Result<(SolveOutcome, bool), LpError> {
    if let Some(basis) = basis {
        if let Some(out) = engine.solve_warm(lower, upper, deadline, basis, cutoff)? {
            tally.starts += 1;
            return Ok((out, true));
        }
        tally.fallbacks += 1;
    }
    Ok((engine.solve_cold(lower, upper, deadline)?, false))
}

/// Fractional integer variables of the highest branching-priority class
/// that has any, as `(var, distance to floor)`.
fn fractional_candidates(model: &Model, int_vars: &[usize], x: &[f64]) -> Vec<(usize, f64)> {
    let mut cands: Vec<(usize, f64)> = Vec::new();
    let mut top = i32::MIN;
    for &j in int_vars {
        let frac = (x[j] - x[j].round()).abs();
        if frac <= INT_TOL {
            continue;
        }
        let prio = model.vars[j].priority;
        if prio > top {
            top = prio;
            cands.clear();
        }
        if prio == top {
            cands.push((j, x[j] - x[j].floor()));
        }
    }
    cands
}

/// Dual-simplex probes both children of the most promising candidates from
/// the node's own optimal basis, recording the observed degradations as
/// pseudocost seeds. Probes are advisory: any probe that bails (warm-path
/// giveup, deadline) is simply skipped.
#[allow(clippy::too_many_arguments)]
fn strong_branch_probes(
    engine: &mut SparseEngine,
    pc: &mut Pseudocosts,
    cands: &[(usize, f64)],
    x: &[f64],
    parent_obj: f64,
    node_lower: &[f64],
    node_upper: &[f64],
    clock: &crate::deadline::Stopwatch,
    time_limit: Option<Duration>,
    basis: &Basis,
    tel_probes: &mut u64,
) -> Result<(), LpError> {
    let mut order: Vec<(usize, f64)> = cands.to_vec();
    let scorer = pc.scorer();
    order.sort_by(|a, b| {
        scorer.score(b.0, b.1).total_cmp(&scorer.score(a.0, a.1)).then(a.0.cmp(&b.0))
    });
    for &(j, frac) in order.iter().take(STRONG_BRANCH_CANDIDATES) {
        if pc.reliable(j) {
            continue;
        }
        if clock.expired_after(time_limit) {
            break;
        }
        let probe_deadline = clock.deadline_after(time_limit);
        let xv = x[j];
        let mut upper = node_upper.to_vec();
        upper[j] = xv.floor();
        *tel_probes += 1;
        if let Some(out) = engine.solve_warm(node_lower, &upper, probe_deadline, basis, None)? {
            match out.solution.status {
                LpStatus::Optimal => pc.observe(j, false, frac, out.solution.objective - parent_obj),
                LpStatus::Infeasible => pc.observe(j, false, frac, STRONG_INFEASIBLE_DEGRADATION),
                _ => {}
            }
        }
        let mut lower = node_lower.to_vec();
        lower[j] = xv.ceil();
        *tel_probes += 1;
        if let Some(out) = engine.solve_warm(&lower, node_upper, probe_deadline, basis, None)? {
            match out.solution.status {
                LpStatus::Optimal => pc.observe(j, true, 1.0 - frac, out.solution.objective - parent_obj),
                LpStatus::Infeasible => pc.observe(j, true, 1.0 - frac, STRONG_INFEASIBLE_DEGRADATION),
                _ => {}
            }
        }
    }
    Ok(())
}

/// Chooses the branching variable among the top-priority fractional
/// candidates (`cands` is non-empty): the most fractional, the first on a
/// tie. The pre-pseudocost rule, kept as the `pseudocost: false` baseline.
fn most_fractional(cands: &[(usize, f64)], x: &[f64]) -> usize {
    let mut best: Option<(f64, usize)> = None;
    for &(j, _) in cands {
        let dist = 0.5 - (x[j].fract().abs() - 0.5).abs(); // closeness to .5
        match best {
            Some((bd, _)) if dist <= bd => {}
            _ => best = Some((dist, j)),
        }
    }
    best.map_or(cands[0].0, |(_, j)| j)
}

/// How far above the prune threshold `z + |d_j|` must reach before
/// reduced-cost fixing pins column `j` (objective units: nW in the FBB
/// model).
const FIX_MARGIN: f64 = 1e-6;

/// An integer column that sits nonbasic at an integral bound of a node's
/// box in the node's optimal relaxation, with a reduced cost that prices
/// moving it off that bound.
struct Fixable {
    /// `|d_j|`: moving the column off its bound (by at least 1, as it is
    /// integer) raises the objective of every point of the relaxation by
    /// at least this much.
    gain: f64,
    var: usize,
    /// The bound it sits at, where a pin holds it.
    value: f64,
}

/// The integer columns of `costs` ([`SparseEngine::reduced_costs`] after an
/// optimal solve over the box `lower`/`upper`) that are not yet fixed and
/// sit at their lower bound with `d_j > 0` or at their upper bound with
/// `d_j < 0`.
fn fixable_columns(
    int_vars: &[usize],
    costs: &[(VarStatus, f64)],
    lower: &[f64],
    upper: &[f64],
) -> Vec<Fixable> {
    let mut out = Vec::new();
    for &j in int_vars {
        if lower[j] >= upper[j] {
            continue;
        }
        let (status, d) = costs[j];
        let value = match status {
            VarStatus::AtLower if d > 0.0 => lower[j],
            VarStatus::AtUpper if d < 0.0 => upper[j],
            _ => continue,
        };
        if value.is_finite() && value == value.round() {
            out.push(Fixable { gain: d.abs(), var: j, value });
        }
    }
    out
}

/// One optimal relaxation's objective and fixable columns, largest gain
/// first, with the box they pin: the root box for node 1 (kept for the
/// whole tree), a node's own box otherwise. The incumbent only improves,
/// so the columns that qualify only grow, always from the front of the
/// list.
struct Fixing {
    objective: f64,
    cols: Vec<Fixable>,
    /// Columns at the front of `cols` already pinned.
    pinned: usize,
}

impl Fixing {
    fn new(objective: f64, mut cols: Vec<Fixable>) -> Fixing {
        cols.sort_by(|a, b| b.gain.total_cmp(&a.gain).then(a.var.cmp(&b.var)));
        Fixing { objective, cols, pinned: 0 }
    }

    /// Pins, in `lower`/`upper`, every column whose gain lifts the
    /// relaxation's objective to the prune threshold of `best_obj` plus
    /// [`FIX_MARGIN`], and returns the columns it newly pinned. Nothing
    /// qualifies without an incumbent.
    fn pin(&mut self, best_obj: f64, lower: &mut [f64], upper: &mut [f64]) -> &[Fixable] {
        let start = self.pinned;
        if let Some(t) = prune_threshold(best_obj) {
            while let Some(f) = self.cols.get(self.pinned) {
                if self.objective + f.gain < t + FIX_MARGIN {
                    break;
                }
                lower[f.var] = f.value;
                upper[f.var] = f.value;
                self.pinned += 1;
            }
        }
        &self.cols[start..self.pinned]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    /// Every feature toggle off: the PR-7-era tree, used as the baseline
    /// side of the equivalence assertions.
    fn raw_options() -> MipOptions {
        MipOptions { presolve: false, cuts: false, pseudocost: false, ..Default::default() }
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.5).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 2.5).abs() < 1e-6);
    }

    #[test]
    fn integrality_enforced() {
        // min x s.t. x >= 2.5, x integer -> 3.
        let mut m = Model::new();
        let x = m.add_integer(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.5).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert!((s.gap()).abs() < 1e-9);
    }

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c + 4d st 3a+4b+2c+d <= 6 => stated as min of negation.
        let mut m = Model::new();
        let vars: Vec<usize> =
            [-10.0, -13.0, -7.0, -4.0].iter().map(|&c| m.add_binary(c)).collect();
        m.add_constraint(
            vec![(vars[0], 3.0), (vars[1], 4.0), (vars[2], 2.0), (vars[3], 1.0)],
            Sense::Le,
            6.0,
        )
        .unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert_eq!(s.status, MipStatus::Optimal);
        // best: b + c => value 20 (weight 6); a+c+d = 21 (weight 6)! check: 3+2+1=6, 10+7+4=21.
        assert!((s.objective + 21.0).abs() < 1e-6, "{}", s.objective);
    }

    #[test]
    fn infeasible_mip() {
        let mut m = Model::new();
        let x = m.add_binary(1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert_eq!(s.status, MipStatus::Infeasible);
        // Presolve catches this statically; the raw tree agrees.
        let raw = solve_mip(&m, &raw_options(), None).unwrap();
        assert_eq!(raw.status, MipStatus::Infeasible);
        assert_eq!(s.best_bound.to_bits(), raw.best_bound.to_bits());
    }

    #[test]
    fn incumbent_is_used() {
        let mut m = Model::new();
        let x = m.add_integer(0.0, 100.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 7.2).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), Some((8.0, vec![8.0]))).unwrap();
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn bogus_incumbent_is_rejected() {
        let mut m = Model::new();
        let x = m.add_integer(0.0, 100.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 7.2).unwrap();
        // Claimed point violates the constraint; must be ignored.
        let s = solve_mip(&m, &MipOptions::default(), Some((3.0, vec![3.0]))).unwrap();
        assert!((s.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn node_limit_reports_feasible_or_unknown() {
        let mut m = Model::new();
        // A small set-partition-flavoured problem that needs some branching.
        let vars: Vec<usize> = (0..12).map(|i| m.add_binary(1.0 + (i as f64) * 0.1)).collect();
        for chunk in vars.chunks(3) {
            let terms = chunk.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(terms, Sense::Eq, 1.0).unwrap();
        }
        let opts = MipOptions { node_limit: Some(1), ..Default::default() };
        let s = solve_mip(&m, &opts, None).unwrap();
        assert!(matches!(s.status, MipStatus::Feasible | MipStatus::Unknown | MipStatus::Optimal));
    }

    #[test]
    fn equality_partition_problem() {
        // Choose exactly one of each pair, minimize cost.
        let mut m = Model::new();
        let a1 = m.add_binary(5.0);
        let a2 = m.add_binary(3.0);
        let b1 = m.add_binary(2.0);
        let b2 = m.add_binary(9.0);
        m.add_constraint(vec![(a1, 1.0), (a2, 1.0)], Sense::Eq, 1.0).unwrap();
        m.add_constraint(vec![(b1, 1.0), (b2, 1.0)], Sense::Eq, 1.0).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert_eq!(s.status, MipStatus::Optimal);
        assert!((s.objective - 5.0).abs() < 1e-6);
        assert!((s.x[1] - 1.0).abs() < 1e-6);
        assert!((s.x[2] - 1.0).abs() < 1e-6);
    }

    fn feasible_solution(objective: f64, best_bound: f64) -> MipSolution {
        MipSolution {
            status: MipStatus::Feasible,
            x: vec![0.0],
            objective,
            best_bound,
            nodes: 1,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn gap_zero_objective() {
        // Old formula divided by max(|0|, 1e-9) and exploded to 1e9x.
        let s = feasible_solution(0.0, -0.5);
        assert!((s.gap() - 0.5).abs() < 1e-12, "{}", s.gap());
    }

    #[test]
    fn gap_negative_objective() {
        // |obj - bound| / max(|obj|, |bound|, 1) = 2 / 12 for obj=-10, bound=-12.
        let s = feasible_solution(-10.0, -12.0);
        assert!((s.gap() - 2.0 / 12.0).abs() < 1e-12, "{}", s.gap());
    }

    #[test]
    fn gap_sign_crossing() {
        // obj=1, bound=-3: gap 4 / max(1, 3, 1) = 4/3, not 4/1.
        let s = feasible_solution(1.0, -3.0);
        assert!((s.gap() - 4.0 / 3.0).abs() < 1e-12, "{}", s.gap());
    }

    #[test]
    fn gap_without_incumbent_or_bound_is_infinite() {
        let mut s = feasible_solution(0.0, f64::NEG_INFINITY);
        s.status = MipStatus::Unknown;
        s.x = vec![];
        assert!(s.gap().is_infinite());
        let s = feasible_solution(5.0, f64::NEG_INFINITY);
        assert!(s.gap().is_infinite());
    }

    #[test]
    fn gap_proven_optimal_is_zero() {
        let mut s = feasible_solution(3.0, 3.0);
        s.status = MipStatus::Optimal;
        assert_eq!(s.gap(), 0.0);
    }

    #[test]
    fn expired_time_limit_never_reports_optimal() {
        // A branching-heavy model with an already-expired budget: the solve
        // must come back as Unknown (no incumbent) with an honest bound,
        // never as Optimal.
        let mut m = Model::new();
        let vars: Vec<usize> = (0..12).map(|i| m.add_binary(1.0 + (i as f64) * 0.1)).collect();
        for chunk in vars.chunks(3) {
            let terms = chunk.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(terms, Sense::Eq, 1.0).unwrap();
        }
        let opts = MipOptions { time_limit: Some(Duration::ZERO), ..Default::default() };
        let s = solve_mip(&m, &opts, None).unwrap();
        assert_eq!(s.status, MipStatus::Unknown);
        // The root node (bound -inf) stayed in the bookkeeping, so the gap
        // reports as unbounded rather than a made-up small number.
        assert!(s.gap().is_infinite());
    }

    #[test]
    fn expired_time_limit_with_incumbent_reports_feasible() {
        let mut m = Model::new();
        let x = m.add_integer(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.5).unwrap();
        let opts = MipOptions { time_limit: Some(Duration::ZERO), ..Default::default() };
        let s = solve_mip(&m, &opts, Some((3.0, vec![3.0]))).unwrap();
        assert_eq!(s.status, MipStatus::Feasible);
        assert!((s.objective - 3.0).abs() < 1e-9);
        assert!(s.best_bound <= s.objective);
    }

    #[test]
    fn node_limit_keeps_open_node_in_bound() {
        // min x, x >= 2.5 integer. With node_limit 1 the root relaxation
        // (bound 2.5) is explored, its children are pushed, and the limit
        // trips on the second pop. The popped child must stay in the
        // bookkeeping: best_bound must not exceed the true optimum 3.
        // Presolve off: it would solve this model outright at the root.
        let mut m = Model::new();
        let x = m.add_integer(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 2.5).unwrap();
        let opts = MipOptions { node_limit: Some(1), presolve: false, ..Default::default() };
        let s = solve_mip(&m, &opts, None).unwrap();
        assert_ne!(s.status, MipStatus::Optimal);
        assert!(s.best_bound <= 3.0 + 1e-9, "bound {} overstated", s.best_bound);
        assert!(s.best_bound >= 2.5 - 1e-9, "bound {} understated", s.best_bound);
    }

    #[test]
    fn warm_and_cold_trees_agree() {
        // A branching-heavy covering model: warm-started and cold trees must
        // land on the same incumbent objective, and neither may overstate
        // its proven bound.
        let mut m = Model::new();
        let vars: Vec<usize> = (0..15).map(|i| m.add_binary(-1.0 - (i as f64) * 0.3)).collect();
        for chunk in vars.chunks(5) {
            let terms = chunk.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(terms, Sense::Le, 2.0).unwrap();
        }
        let terms = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(terms, Sense::Ge, 3.0).unwrap();

        let warm = solve_mip(&m, &MipOptions::default(), None).unwrap();
        let cold_opts = MipOptions { warm_start: false, ..Default::default() };
        let cold = solve_mip(&m, &cold_opts, None).unwrap();
        assert_eq!(warm.status, MipStatus::Optimal);
        assert_eq!(cold.status, MipStatus::Optimal);
        assert!((warm.objective - cold.objective).abs() < 1e-6);
        assert!(warm.best_bound <= warm.objective + 1e-9);
        assert!(cold.best_bound <= cold.objective + 1e-9);
    }

    #[test]
    fn priorities_still_reach_optimum() {
        let mut m = Model::new();
        let x = m.add_binary(-1.0);
        let y = m.add_binary(-1.0);
        let z = m.add_binary(-1.0);
        m.set_branch_priority(z, 10);
        m.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Sense::Le, 1.5).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert!((s.objective + 1.0).abs() < 1e-6);
    }

    #[test]
    fn presolve_solves_trivial_model_without_nodes() {
        // x >= 7.2 integer with positive objective: presolve tightens the
        // lower bound to 8, drops the row, pins the free column — no tree.
        let mut m = Model::new();
        let x = m.add_integer(0.0, 100.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 7.2).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert_eq!(s.status, MipStatus::Optimal);
        assert_eq!(s.nodes, 0);
        assert!((s.objective - 8.0).abs() < 1e-12);
        assert_eq!(s.best_bound.to_bits(), s.objective.to_bits());
        let raw = solve_mip(&m, &raw_options(), None).unwrap();
        assert_eq!(raw.status, MipStatus::Optimal);
        assert_eq!(s.objective.to_bits(), raw.objective.to_bits());
    }

    #[test]
    fn all_toggles_agree_on_a_branching_model() {
        // Covering model from warm_and_cold_trees_agree: the full pipeline
        // (presolve + cuts + pseudocost) and the raw tree must agree on
        // status and objective bits.
        let mut m = Model::new();
        let vars: Vec<usize> = (0..15).map(|i| m.add_binary(-1.0 - (i as f64) * 0.3)).collect();
        for chunk in vars.chunks(5) {
            let terms = chunk.iter().map(|&v| (v, 1.0)).collect();
            m.add_constraint(terms, Sense::Le, 2.0).unwrap();
        }
        let terms = vars.iter().map(|&v| (v, 1.0)).collect();
        m.add_constraint(terms, Sense::Ge, 3.0).unwrap();

        let full = solve_mip(&m, &MipOptions::default(), None).unwrap();
        let raw = solve_mip(&m, &raw_options(), None).unwrap();
        assert_eq!(full.status, MipStatus::Optimal);
        assert_eq!(raw.status, MipStatus::Optimal);
        assert_eq!(full.objective.to_bits(), raw.objective.to_bits());
        assert_eq!(full.best_bound.to_bits(), raw.best_bound.to_bits());
    }

    #[test]
    fn unbounded_integer_model_detected_through_presolve() {
        // A free integer column with an objective-improving infinite bound
        // and no coupling row: presolve keeps it and reports Unbounded.
        let mut m = Model::new();
        let _free = m.add_integer(0.0, f64::INFINITY, -1.0);
        let y = m.add_binary(1.0);
        m.add_constraint(vec![(y, 1.0)], Sense::Ge, 0.4).unwrap();
        let s = solve_mip(&m, &MipOptions::default(), None).unwrap();
        assert_eq!(s.status, MipStatus::Unbounded);
        assert_eq!(s.best_bound, f64::NEG_INFINITY);
    }

    #[test]
    fn cuts_shrink_the_tree_on_a_cover_model() {
        // Knapsack whose LP vertex is fractional: the cover cut closes the
        // root gap. The cut tree must explore no more nodes than the raw
        // tree and land on the same objective bits.
        let mut m = Model::new();
        let vars: Vec<usize> =
            [-10.0, -13.0, -7.0, -4.0].iter().map(|&c| m.add_binary(c)).collect();
        m.add_constraint(
            vec![(vars[0], 3.0), (vars[1], 4.0), (vars[2], 2.0), (vars[3], 1.0)],
            Sense::Le,
            6.0,
        )
        .unwrap();
        let with_cuts = MipOptions { presolve: false, pseudocost: false, ..Default::default() };
        let s = solve_mip(&m, &with_cuts, None).unwrap();
        let raw = solve_mip(&m, &raw_options(), None).unwrap();
        assert_eq!(s.status, MipStatus::Optimal);
        assert_eq!(s.objective.to_bits(), raw.objective.to_bits());
        assert!(s.nodes <= raw.nodes, "cuts grew the tree: {} > {}", s.nodes, raw.nodes);
    }
}
