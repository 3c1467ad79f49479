//! Sparse revised simplex over an LU-factorized basis, with a dual-simplex
//! warm-start path for branch-and-bound re-solves.
//!
//! The engine keeps the constraint matrix in CSC form ([`crate::sparse`])
//! and represents the basis only through its factorization
//! ([`crate::factor`]): one BTRAN prices a whole iteration, one FTRAN
//! produces the pivot column, and a pivot appends an eta instead of
//! row-reducing an m×(n+m) tableau. Pricing is *partial* — a rotating
//! window of columns is scanned and the best violation inside the first
//! non-empty window enters — falling back to a full smallest-index scan
//! when the anti-cycling stall counter trips (more than `64 + m`
//! consecutive degenerate steps).
//!
//! A cold solve starts *dual feasible* when it can: every slack basic,
//! every artificial nonbasic at 0, and every structural at the bound its
//! cost prefers, so with `y = 0` every reduced cost has its optimal sign.
//! The dual simplex then repairs the primal infeasibilities and the primal
//! finish pass certifies optimality, as on the warm path. Every FBB model
//! is all binaries, so every FBB cold solve starts this way.
//!
//! Two-phase primal from the all-artificial basis answers the rest: a
//! model where some costed column has no finite bound on its cheap side
//! (the only cold path that can prove such a model unbounded), and a dual
//! start that gives up on an iteration limit or a singular basis. Phase 1
//! keeps the matrix fixed across solves (a warm-start requirement) by
//! *signing the artificials* instead of the rows: artificial `k` always
//! has coefficient `+1`, and a negative starting residual simply gives it
//! bounds `(-inf, 0]` and phase-1 cost `-1`, so the phase-1 objective is
//! the residual 1-norm either way.
//!
//! `solve_warm` re-optimizes from a parent basis after bound-only changes:
//! the parent basis stays dual feasible, so a dual simplex drives out the
//! (few) bound violations the branching introduced, then a primal pass
//! certifies optimality. Any numerical surprise — singular warm basis,
//! iteration blow-up, an "unbounded" verdict that a box-bounded child
//! cannot actually have — abandons the warm path and reports "fall back to
//! a cold solve" rather than guessing.
//!
//! The dual loop prices once per (re)factorization and then *updates* the
//! reduced costs from the pivot row its ratio test already computes
//! (`d_j -= θ·α_rj`, `d_leaving = -θ`), so a dual iteration costs one BTRAN
//! (the pivot row), one FTRAN (the entering column) and one pass over the
//! nonbasic columns. The pivot row `α_r = ρᵀA` is formed row-wise from a
//! CSR copy of the matrix, visiting only the rows where `ρ` is nonzero.
//!
//! A warm solve may carry an objective *cutoff*. The objective of the basic
//! solution of a dual feasible basis is a lower bound on the optimum, and
//! it never falls during a dual simplex, so once it reaches the cutoff the
//! loop confirms dual feasibility from fresh duals and stops: the optimum
//! cannot come in under the cutoff. A failed confirmation is not priced
//! again before the next refactorization.

use std::time::Instant;

use crate::approx::{is_nonzero, is_zero};
use crate::deadline;
use crate::factor::{BasisFactor, SingularBasis};
use crate::simplex::{LpSolution, LpStatus, VarStatus, PIVOT_TOL, TOL};
use crate::sparse::{slack_bounds, CscMatrix, CsrMatrix};
use crate::{LpError, Model};

/// A column's [`VarStatus`] as a [`Basis`] snapshot stores it: one byte,
/// with a basic column's position left to [`Basis::cols`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stored {
    Basic,
    AtLower,
    AtUpper,
    Free,
}

impl From<VarStatus> for Stored {
    fn from(s: VarStatus) -> Stored {
        match s {
            VarStatus::Basic(_) => Stored::Basic,
            VarStatus::AtLower => Stored::AtLower,
            VarStatus::AtUpper => Stored::AtUpper,
            VarStatus::Free => Stored::Free,
        }
    }
}

/// A resumable basis snapshot: which column sits in each basis position and
/// the bound status of every column. Branch-and-bound keeps one per open
/// parent, so it is stored compactly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Basis {
    cols: Vec<u32>,
    status: Vec<Stored>,
}

impl Basis {
    /// The same basis restated for the model with `added` rows appended
    /// (root cutting planes): each new row's slack enters the basis at the
    /// new row's position, and the artificial column indices shift past the
    /// new slacks. The extended basis matrix is block triangular with an
    /// identity block, so it stays nonsingular; the new slacks cost nothing,
    /// so the duals and every old reduced cost are unchanged and the basis
    /// stays dual feasible. Only the new rows can be primal infeasible,
    /// which is what [`SparseEngine::solve_warm`]'s dual simplex repairs.
    pub fn with_rows(&self, added: usize) -> Basis {
        let m = self.cols.len();
        let n = self.status.len() - 2 * m;
        let art_shift = |j: u32| if j as usize >= n + m { j + added as u32 } else { j };
        let mut cols: Vec<u32> = self.cols.iter().map(|&j| art_shift(j)).collect();
        cols.extend((0..added).map(|k| (n + m + k) as u32));
        let mut status = Vec::with_capacity(self.status.len() + 2 * added);
        status.extend_from_slice(&self.status[..n + m]);
        status.extend(std::iter::repeat_n(Stored::Basic, added));
        status.extend_from_slice(&self.status[n + m..]);
        status.extend(std::iter::repeat_n(Stored::AtLower, added));
        Basis { cols, status }
    }
}

/// Result of one engine solve, with the data branch-and-bound needs on top
/// of the plain [`LpSolution`].
#[derive(Debug, Clone)]
pub(crate) struct SolveOutcome {
    /// The solution as reported to callers.
    pub solution: LpSolution,
    /// Basis snapshot for warm-starting children; `Some` only for
    /// [`LpStatus::Optimal`].
    pub basis: Option<Basis>,
    /// Simplex iterations spent on this solve (all phases), stamped on
    /// every verdict by [`SparseEngine::solve_cold`] and
    /// [`SparseEngine::solve_warm`].
    pub iterations: usize,
    /// The warm dual loop stopped at its objective cutoff: the relaxation's
    /// optimum is at or above the cutoff, up to the optimality tolerance.
    /// `solution` then carries no point and reads [`LpStatus::Infeasible`],
    /// the verdict on the relaxation with the row `c·x < cutoff` added.
    pub cut_off: bool,
}

/// Verdict of the dual-simplex loop.
enum DualEnd {
    /// All basic variables are back inside their bounds.
    Feasible,
    /// A violated row admits no entering column: primal infeasible.
    Infeasible,
    /// The basic solution's objective reached the cutoff on a basis that
    /// prices dual feasible from fresh duals.
    CutOff,
}

/// Per-solve telemetry tallies, kept in plain fields so the hot loop never
/// touches the global sink; flushed once per `solve_*` call.
#[derive(Default)]
struct Stats {
    iterations: usize,
    pivots: usize,
    bound_flips: usize,
    bland_activations: usize,
    bland_active: bool,
    /// LUs actually computed.
    factorizations: usize,
    /// Refactorizations the LU already in place served.
    factor_reuses: usize,
    refactorizations: usize,
    eta_appends: usize,
    lu_kernel_columns: usize,
    lu_nnz: usize,
    /// Objective cutoffs reached on a basis that failed the fresh
    /// dual-feasibility check.
    cutoff_rejections: usize,
    /// Cold solves the dual start answered (0 or 1 per solve).
    dual_cold_starts: usize,
}

/// Sparse revised simplex engine, reusable across many solves of the same
/// model (branch-and-bound builds it once per tree).
pub(crate) struct SparseEngine {
    mat: CscMatrix,
    /// Row-wise copy of `mat`, for the dual loop's pivot rows and reduced
    /// costs.
    rows: CsrMatrix,
    n: usize,
    m: usize,
    ntot: usize,
    rhs: Vec<f64>,
    obj: Vec<f64>,
    /// Sense-derived slack bounds, fixed per row.
    slack_lo: Vec<f64>,
    slack_up: Vec<f64>,
    // Per-solve working state.
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<VarStatus>,
    basis: Vec<usize>,
    xb: Vec<f64>,
    /// Reduced costs the dual loop maintains between refactorizations
    /// (meaningful for nonbasic, non-fixed columns only).
    d: Vec<f64>,
    /// All-zero accumulator for row-wise products.
    row_acc: Vec<f64>,
    factor: BasisFactor,
    cursor: usize,
    stats: Stats,
}

impl SparseEngine {
    /// Builds the engine for a validated model.
    pub fn new(model: &Model) -> SparseEngine {
        let n = model.vars.len();
        let m = model.constraints.len();
        let ntot = n + 2 * m;
        let mat = CscMatrix::build(model);
        debug_assert_eq!(mat.cols(), ntot);
        debug_assert!(mat.nnz() >= 2 * m, "slack and artificial columns are always present");
        let artificial_basis: Vec<usize> = (0..m).map(|k| n + m + k).collect();
        let factor = BasisFactor::factorize(&mat, &artificial_basis)
            .expect("identity artificial basis cannot be singular");
        let (slack_lo, slack_up): (Vec<f64>, Vec<f64>) =
            model.constraints.iter().map(|c| slack_bounds(c.sense)).unzip();
        SparseEngine {
            rows: CsrMatrix::from_csc(&mat),
            mat,
            n,
            m,
            ntot,
            rhs: model.constraints.iter().map(|c| c.rhs).collect(),
            obj: model.vars.iter().map(|v| v.objective).collect(),
            slack_lo,
            slack_up,
            lower: vec![0.0; ntot],
            upper: vec![0.0; ntot],
            status: vec![VarStatus::AtLower; ntot],
            basis: artificial_basis,
            xb: vec![0.0; m],
            d: vec![0.0; ntot],
            row_acc: vec![0.0; ntot],
            factor,
            cursor: 0,
            stats: Stats::default(),
        }
    }

    /// Solves from scratch: the dual start from the slack basis when every
    /// costed column is bounded on its cheap side, else (or when the dual
    /// start gives up) two-phase from the all-artificial basis, which then
    /// reports the iterations of both.
    ///
    /// # Errors
    ///
    /// [`LpError::IterationLimit`] on numerical cycling,
    /// [`LpError::NumericallySingular`] if the basis cannot be refactorized.
    pub fn solve_cold(
        &mut self,
        var_lower: &[f64],
        var_upper: &[f64],
        deadline: Option<Instant>,
    ) -> Result<SolveOutcome, LpError> {
        let _lp_span = fbb_telemetry::span("lp_solve");
        self.stats = Stats::default();
        let res = self.cold_inner(var_lower, var_upper, deadline).map(|out| self.counted(out));
        self.flush_stats();
        if fbb_telemetry::is_enabled() {
            fbb_telemetry::counter("lp_simplex_cold_solves", 1);
        }
        res
    }

    /// Dual-simplex re-solve from an optimal basis of the same matrix after
    /// bound-only changes (a branch-and-bound parent), or of the matrix
    /// before rows were appended, restated by [`Basis::with_rows`] (the
    /// previous root cut round). `Ok(None)` means the warm path gave up and
    /// the caller should solve cold; it is never an answer. The dual loop
    /// maintains its reduced costs incrementally; the primal finish pass
    /// prices from fresh duals, so the optimality it certifies does not
    /// rest on the update.
    ///
    /// With a `cutoff`, the dual loop stops as soon as the objective of its
    /// basic solution reaches it on a basis that prices dual feasible from
    /// fresh duals, and the outcome is [`SolveOutcome::cut_off`], with no
    /// primal finish pass and no basis snapshot. Without one, or when the
    /// objective never reaches it, the solve is the one without a cutoff,
    /// bit for bit.
    ///
    /// # Errors
    ///
    /// Same classes as [`Self::solve_cold`], though iteration-limit
    /// exhaustion is reported as `Ok(None)` so cycling in the warm path
    /// costs a fallback, not the node.
    pub fn solve_warm(
        &mut self,
        var_lower: &[f64],
        var_upper: &[f64],
        deadline: Option<Instant>,
        warm: &Basis,
        cutoff: Option<f64>,
    ) -> Result<Option<SolveOutcome>, LpError> {
        let _lp_span = fbb_telemetry::span("lp_solve");
        self.stats = Stats::default();
        let res = self
            .warm_inner(var_lower, var_upper, deadline, warm, cutoff)
            .map(|out| out.map(|out| self.counted(out)));
        self.flush_stats();
        res
    }

    /// Stamps an outcome with the iterations this solve spent, whatever its
    /// verdict: a node proved infeasible by dual pivots or by phase 1 costs
    /// what it pivoted, not 0.
    fn counted(&self, out: SolveOutcome) -> SolveOutcome {
        SolveOutcome { iterations: self.stats.iterations, ..out }
    }

    fn flush_stats(&self) {
        if !fbb_telemetry::is_enabled() {
            return;
        }
        let s = &self.stats;
        fbb_telemetry::counter("lp_simplex_solves", 1);
        fbb_telemetry::counter("lp_simplex_iterations", s.iterations as u64);
        fbb_telemetry::counter("lp_simplex_pivots", s.pivots as u64);
        fbb_telemetry::counter("lp_simplex_bound_flips", s.bound_flips as u64);
        fbb_telemetry::counter("lp_simplex_bland_activations", s.bland_activations as u64);
        fbb_telemetry::counter("lp_factorizations", s.factorizations as u64);
        fbb_telemetry::counter("lp_factor_reuses", s.factor_reuses as u64);
        fbb_telemetry::counter("lp_refactorizations", s.refactorizations as u64);
        fbb_telemetry::counter("lp_eta_appends", s.eta_appends as u64);
        fbb_telemetry::counter("lp_lu_kernel_columns", s.lu_kernel_columns as u64);
        fbb_telemetry::counter("lp_lu_nnz", s.lu_nnz as u64);
        fbb_telemetry::counter("lp_cutoff_rejections", s.cutoff_rejections as u64);
        fbb_telemetry::counter("lp_dual_cold_starts", s.dual_cold_starts as u64);
    }

    fn iter_limit(&self) -> usize {
        #[allow(unused_mut)]
        let mut limit = 50_000 + 40 * (self.n + self.m);
        #[cfg(feature = "fault-inject")]
        if let Some(forced) = crate::fault::iteration_limit_override() {
            limit = forced;
        }
        limit
    }

    /// Phase-2 cost vector (structural objectives), with the planted
    /// pivot-sign defect applied when armed: pricing with the negated costs
    /// walks to an anti-optimal vertex labelled `Optimal`, while the
    /// reported objective is still evaluated against the true costs — the
    /// lie an independent oracle must expose.
    fn phase2_cost(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.ntot];
        c[..self.n].copy_from_slice(&self.obj);
        #[cfg(feature = "fault-inject")]
        if crate::fault::flip_pivot_sign() {
            for v in &mut c[..self.n] {
                *v = -*v;
            }
        }
        c
    }

    fn cold_inner(
        &mut self,
        var_lower: &[f64],
        var_upper: &[f64],
        deadline: Option<Instant>,
    ) -> Result<SolveOutcome, LpError> {
        if let Some(out) = self.install_bounds(var_lower, var_upper) {
            return Ok(out);
        }
        let c2 = self.phase2_cost();
        if self.install_slack_basis(&c2) {
            if let Some(out) = self.reoptimize(&c2, deadline, None) {
                self.stats.dual_cold_starts += 1;
                return Ok(out);
            }
        }
        self.two_phase(&c2, deadline)
    }

    /// Installs the dual start: every slack basic at its own row, every
    /// artificial nonbasic and pinned at 0, and every structural nonbasic
    /// at the bound its cost `c` prefers (lower when `c_j > 0`, upper when
    /// `c_j < 0`, any finite bound, else free, when `c_j = 0`). The basic
    /// costs are all 0, so `y = 0` and every reduced cost is `c_j`: the
    /// basis prices dual feasible. `false`, with nothing the two-phase
    /// path reads left changed, when some costed column has no finite
    /// bound on its cheap side.
    fn install_slack_basis(&mut self, c: &[f64]) -> bool {
        let (n, m) = (self.n, self.m);
        for (j, &cj) in c[..n].iter().enumerate() {
            let (lo, up) = (self.lower[j].is_finite(), self.upper[j].is_finite());
            self.status[j] = if cj > 0.0 && lo {
                VarStatus::AtLower
            } else if cj < 0.0 && up {
                VarStatus::AtUpper
            } else if is_nonzero(cj) {
                return false;
            } else if lo {
                VarStatus::AtLower
            } else if up {
                VarStatus::AtUpper
            } else {
                VarStatus::Free
            };
        }
        for k in 0..m {
            self.basis[k] = n + k;
            self.status[n + k] = VarStatus::Basic(k);
            let a = n + m + k;
            self.lower[a] = 0.0;
            self.upper[a] = 0.0;
            self.status[a] = VarStatus::AtLower;
        }
        self.cursor = 0;
        self.refactor().expect("identity slack basis cannot be singular");
        self.recompute_xb();
        true
    }

    /// Two-phase primal simplex from the all-artificial basis, with an
    /// iteration budget of its own on top of what this solve already spent.
    fn two_phase(&mut self, c2: &[f64], deadline: Option<Instant>) -> Result<SolveOutcome, LpError> {
        let (n, m) = (self.n, self.m);
        self.cursor = 0;

        // Structural and slack starting statuses.
        for j in 0..n {
            self.status[j] = if self.lower[j].is_finite() {
                VarStatus::AtLower
            } else if self.upper[j].is_finite() {
                VarStatus::AtUpper
            } else {
                VarStatus::Free
            };
        }
        for k in 0..m {
            // Slacks start at 0, which is a bound for every sense.
            self.status[n + k] =
                if is_zero(self.slack_up[k]) { VarStatus::AtUpper } else { VarStatus::AtLower };
        }

        // Row residuals with every structural at its starting value; the
        // artificial for each row absorbs the residual, its bounds and
        // phase-1 cost signed so the start is feasible without touching
        // the matrix.
        let mut residual = self.rhs.clone();
        for j in 0..n {
            let v = match self.status[j] {
                VarStatus::AtLower => self.lower[j],
                VarStatus::AtUpper => self.upper[j],
                _ => 0.0,
            };
            if is_nonzero(v) {
                self.mat.scatter_col(j, -v, &mut residual);
            }
        }
        let mut c1 = vec![0.0; self.ntot];
        for (k, &res) in residual.iter().enumerate() {
            let a = n + m + k;
            if res >= 0.0 {
                self.lower[a] = 0.0;
                self.upper[a] = f64::INFINITY;
                c1[a] = 1.0;
            } else {
                self.lower[a] = f64::NEG_INFINITY;
                self.upper[a] = 0.0;
                c1[a] = -1.0;
            }
            self.basis[k] = a;
            self.status[a] = VarStatus::Basic(k);
        }
        self.xb = residual;
        self.refactor().expect("identity artificial basis cannot be singular");

        let iter_limit = self.stats.iterations + self.iter_limit();

        // Phase 1: minimize the signed artificial sum (the residual 1-norm).
        match self.primal(&c1, iter_limit, deadline) {
            Ok(bounded) => debug_assert!(bounded, "phase 1 objective is bounded below by 0"),
            Err(LpError::DeadlineExceeded) => return Ok(Self::bare(LpStatus::DeadlineExceeded)),
            Err(e) => return Err(e),
        }
        let artificial_sum: f64 = (0..m)
            .filter(|&i| self.basis[i] >= n + m)
            .map(|i| self.xb[i].abs())
            .sum();
        if artificial_sum > 1e-6 {
            return Ok(Self::bare(LpStatus::Infeasible));
        }

        self.drive_out_artificials()?;
        for j in n + m..self.ntot {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
        }

        // Phase 2: the real objective.
        match self.primal(c2, iter_limit, deadline) {
            Ok(true) => Ok(self.extract()),
            Ok(false) => Ok(Self::bare(LpStatus::Unbounded)),
            Err(LpError::DeadlineExceeded) => Ok(Self::bare(LpStatus::DeadlineExceeded)),
            Err(e) => Err(e),
        }
    }

    fn warm_inner(
        &mut self,
        var_lower: &[f64],
        var_upper: &[f64],
        deadline: Option<Instant>,
        warm: &Basis,
        cutoff: Option<f64>,
    ) -> Result<Option<SolveOutcome>, LpError> {
        if let Some(out) = self.install_bounds(var_lower, var_upper) {
            return Ok(Some(out));
        }
        if !self.install_basis(warm) {
            return Ok(None);
        }
        let c2 = self.phase2_cost();
        Ok(self.reoptimize(&c2, deadline, cutoff))
    }

    /// Dual simplex from the installed basis, which must price dual
    /// feasible under the phase-2 costs `c2`, then a primal finish pass
    /// that certifies optimality (and mops up any slop the dual tolerances
    /// let through). `None` means the path gave up and the caller must
    /// solve another way: an iteration limit, a singular basis, or an
    /// "unbounded" verdict, which is a numerical artifact here because
    /// every relaxation this runs on is bounded (a warm child below a
    /// bounded parent; a dual start, whose costed columns are bounded on
    /// their cheap side).
    fn reoptimize(
        &mut self,
        c2: &[f64],
        deadline: Option<Instant>,
        cutoff: Option<f64>,
    ) -> Option<SolveOutcome> {
        let iter_limit = self.iter_limit();
        match self.dual(c2, iter_limit, deadline, cutoff) {
            Ok(DualEnd::Feasible) => {}
            Ok(DualEnd::Infeasible) => return Some(Self::bare(LpStatus::Infeasible)),
            Ok(DualEnd::CutOff) => {
                return Some(SolveOutcome { cut_off: true, ..Self::bare(LpStatus::Infeasible) })
            }
            Err(LpError::DeadlineExceeded) => return Some(Self::bare(LpStatus::DeadlineExceeded)),
            Err(_) => return None,
        }
        match self.primal(c2, iter_limit, deadline) {
            Ok(true) => Some(self.extract()),
            Ok(false) => None,
            Err(LpError::DeadlineExceeded) => Some(Self::bare(LpStatus::DeadlineExceeded)),
            Err(_) => None,
        }
    }

    /// Installs a warm basis under the current bounds: artificials pinned at
    /// zero, nonbasic statuses the bounds invalidated repaired, a fresh
    /// factorization and fresh basic values. `false` when the basis does not
    /// fit this matrix or is singular.
    fn install_basis(&mut self, warm: &Basis) -> bool {
        if warm.cols.len() != self.m || warm.status.len() != self.ntot {
            return false;
        }
        self.cursor = 0;
        for j in self.n + self.m..self.ntot {
            self.lower[j] = 0.0;
            self.upper[j] = 0.0;
        }
        for (pos, &j) in warm.cols.iter().enumerate() {
            self.basis[pos] = j as usize;
            self.status[j as usize] = VarStatus::Basic(pos);
        }
        for j in 0..self.ntot {
            let (lo, up) = (self.lower[j], self.upper[j]);
            self.status[j] = match warm.status[j] {
                Stored::Basic => self.status[j],
                Stored::AtLower if !lo.is_finite() => {
                    if up.is_finite() { VarStatus::AtUpper } else { VarStatus::Free }
                }
                Stored::AtLower => VarStatus::AtLower,
                Stored::AtUpper if !up.is_finite() => {
                    if lo.is_finite() { VarStatus::AtLower } else { VarStatus::Free }
                }
                Stored::AtUpper => VarStatus::AtUpper,
                Stored::Free if lo > 0.0 => VarStatus::AtLower,
                Stored::Free if up < 0.0 => VarStatus::AtUpper,
                Stored::Free => VarStatus::Free,
            };
        }
        if self.refactor().is_err() {
            return false;
        }
        self.recompute_xb();
        true
    }

    /// Installs per-solve bounds. Returns an infeasible outcome directly for
    /// an empty variable box (branching produces those).
    fn install_bounds(&mut self, var_lower: &[f64], var_upper: &[f64]) -> Option<SolveOutcome> {
        for (&lo, &up) in var_lower.iter().zip(var_upper) {
            if lo > up {
                return Some(Self::bare(LpStatus::Infeasible));
            }
        }
        self.lower[..self.n].copy_from_slice(var_lower);
        self.upper[..self.n].copy_from_slice(var_upper);
        for k in 0..self.m {
            self.lower[self.n + k] = self.slack_lo[k];
            self.upper[self.n + k] = self.slack_up[k];
        }
        None
    }

    fn bare(status: LpStatus) -> SolveOutcome {
        SolveOutcome {
            solution: LpSolution { status, x: vec![], objective: 0.0 },
            basis: None,
            iterations: 0,
            cut_off: false,
        }
    }

    fn extract(&self) -> SolveOutcome {
        let mut x = vec![0.0; self.n];
        for (j, xj) in x.iter_mut().enumerate() {
            *xj = self.value_of(j).clamp(self.lower[j], self.upper[j]);
        }
        let objective: f64 = self.obj.iter().zip(&x).map(|(c, v)| c * v).sum();
        SolveOutcome {
            solution: LpSolution { status: LpStatus::Optimal, x, objective },
            basis: Some(Basis {
                cols: self.basis.iter().map(|&j| j as u32).collect(),
                status: self.status.iter().map(|&s| Stored::from(s)).collect(),
            }),
            iterations: 0,
            cut_off: false,
        }
    }

    fn value_of(&self, j: usize) -> f64 {
        match self.status[j] {
            VarStatus::Basic(row) => self.xb[row],
            VarStatus::AtLower => self.lower[j],
            VarStatus::AtUpper => self.upper[j],
            VarStatus::Free => 0.0,
        }
    }

    fn is_fixed(&self, j: usize) -> bool {
        self.lower[j] >= self.upper[j] - PIVOT_TOL
            && self.lower[j].is_finite()
            && self.upper[j].is_finite()
    }

    /// Recomputes basic values `x_B = B^{-1}(rhs - N x_N)` from scratch;
    /// called after every (re)factorization to shed accumulated drift.
    fn recompute_xb(&mut self) {
        let mut r = self.rhs.clone();
        for j in 0..self.ntot {
            if !matches!(self.status[j], VarStatus::Basic(_)) {
                let v = self.value_of(j);
                if is_nonzero(v) {
                    self.mat.scatter_col(j, -v, &mut r);
                }
            }
        }
        self.factor.ftran(&mut r);
        self.xb = r;
    }

    /// Refactorizes the current basis, counting a computed LU apart from a
    /// reuse of the one in place; on failure the previous factorization
    /// and its etas stay in place.
    fn refactor(&mut self) -> Result<(), SingularBasis> {
        if self.factor.refactorize(&self.mat, &self.basis)? {
            self.stats.factorizations += 1;
            self.stats.lu_kernel_columns += self.factor.kernel_columns();
            self.stats.lu_nnz += self.factor.lu_nnz();
        } else {
            self.stats.factor_reuses += 1;
        }
        Ok(())
    }

    /// Dual variables `y = B^{-T} c_B` in row space (skipping the solve when
    /// every basic cost is zero, as in most of phase 1).
    fn duals(&mut self, c: &[f64]) -> (Vec<f64>, bool) {
        let mut y = vec![0.0; self.m];
        let mut any = false;
        for (pos, &j) in self.basis.iter().enumerate() {
            y[pos] = c[j];
            any |= is_nonzero(c[j]);
        }
        if any {
            self.factor.btran(&mut y);
        }
        (y, any)
    }

    fn reduced_cost(&self, j: usize, c: &[f64], y: &[f64], y_nonzero: bool) -> f64 {
        if y_nonzero {
            c[j] - self.mat.col_dot(j, y)
        } else {
            c[j]
        }
    }

    /// Prices every nonbasic, non-fixed column afresh into `d` (one BTRAN);
    /// the dual loop calls it on entry and after every refactorization.
    /// `Aᵀy` comes row-wise from the rows where `y` is nonzero, bit-identical
    /// to [`Self::reduced_cost`].
    fn refresh_reduced_costs(&mut self, c: &[f64]) {
        let (y, _) = self.duals(c);
        self.rows.scatter_transpose(&y, &mut self.row_acc);
        for (j, &cj) in c.iter().enumerate() {
            let aty = std::mem::take(&mut self.row_acc[j]);
            self.d[j] = if matches!(self.status[j], VarStatus::Basic(_)) || self.is_fixed(j) {
                0.0
            } else {
                cj - aty
            };
        }
    }

    /// Each structural column's status and reduced cost `c_j − a_jᵀy` in
    /// the basis the last solve left, priced from fresh duals under the
    /// phase-2 costs: one BTRAN and one row-wise `Aᵀy` pass, as
    /// [`Self::refresh_reduced_costs`] prices. Read right after an
    /// [`LpStatus::Optimal`] solve, every nonbasic, non-fixed column
    /// carries its dual-feasible sign within [`TOL`]: `d_j ≥ −TOL` at its
    /// lower bound, `d_j ≤ TOL` at its upper bound. Reduced-cost fixing in
    /// branch & bound reads it; no solve path calls it.
    pub fn reduced_costs(&mut self) -> Vec<(VarStatus, f64)> {
        let c = self.phase2_cost();
        let (y, _) = self.duals(&c);
        self.rows.scatter_transpose(&y, &mut self.row_acc);
        let mut out = Vec::with_capacity(self.n);
        for (j, &cj) in c.iter().enumerate() {
            // Drain every entry: the accumulator must stay all zero.
            let aty = std::mem::take(&mut self.row_acc[j]);
            if j < self.n {
                out.push((self.status[j], cj - aty));
            }
        }
        out
    }

    /// Objective of the current basic solution under `c`: the basics at
    /// their values, primal infeasible ones included, and every other
    /// column at its bound. On a dual feasible basis it is the dual
    /// objective, a lower bound on the optimum.
    fn basic_objective(&self, c: &[f64]) -> f64 {
        (0..self.n).map(|j| c[j] * self.value_of(j)).sum()
    }

    /// Whether every nonbasic, non-fixed column prices dual feasible from
    /// fresh duals, by the test [`Self::price`] applies before the primal
    /// loop declares optimality. Leaves the maintained reduced costs as
    /// they are, so a failed check changes nothing the loop reads.
    fn dual_feasible(&mut self, c: &[f64]) -> bool {
        let (y, _) = self.duals(c);
        self.rows.scatter_transpose(&y, &mut self.row_acc);
        let mut feasible = true;
        for (j, &cj) in c.iter().enumerate() {
            // Drain every entry: the accumulator must stay all zero.
            let aty = std::mem::take(&mut self.row_acc[j]);
            if feasible && !matches!(self.status[j], VarStatus::Basic(_)) && !self.is_fixed(j) {
                feasible = violation(self.status[j], cj - aty).0 <= TOL;
            }
        }
        feasible
    }

    /// Books the basis change `position r <- column e` whose FTRAN image is
    /// `w`, then refactorizes if the eta file is full (or, in the rare case
    /// the eta pivot is unusable, immediately). Returns whether it
    /// refactorized.
    fn install_pivot(&mut self, r: usize, e: usize, w: &[f64]) -> Result<bool, LpError> {
        self.basis[r] = e;
        self.status[e] = VarStatus::Basic(r);
        let pushed = self.factor.push_eta(r, w).is_ok();
        if pushed {
            self.stats.eta_appends += 1;
        }
        if !pushed || self.factor.should_refactor() {
            match self.refactor() {
                Ok(()) => {
                    self.stats.refactorizations += 1;
                    self.recompute_xb();
                    return Ok(true);
                }
                // With a valid eta we may keep the (long but correct)
                // product form and try again next pivot; without one the
                // basis representation is gone.
                Err(_) if pushed => {}
                Err(_) => return Err(LpError::NumericallySingular),
            }
        }
        Ok(false)
    }

    /// Bookkeeping shared by both loops: iteration count, iteration limit,
    /// and the amortized (every 64 iterations) deadline poll.
    fn tick(&mut self, iter_limit: usize, deadline: Option<Instant>) -> Result<(), LpError> {
        self.stats.iterations += 1;
        if self.stats.iterations > iter_limit {
            return Err(LpError::IterationLimit);
        }
        if let Some(d) = deadline {
            if (self.stats.iterations == 1 || self.stats.iterations.is_multiple_of(64))
                && deadline::reached(d)
            {
                return Err(LpError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Partial pricing: scans rotating windows of columns and returns the
    /// best violation in the first window that has one; under Bland mode,
    /// a full smallest-index scan. Returns `(column, direction)`.
    fn price(&mut self, c: &[f64], y: &[f64], y_nonzero: bool, bland: bool) -> Option<(usize, f64)> {
        let window = 64.max(self.ntot / 8);
        let mut best: Option<(usize, f64, f64)> = None;
        for scanned in 0..self.ntot {
            let j = if bland { scanned } else { (self.cursor + scanned) % self.ntot };
            if matches!(self.status[j], VarStatus::Basic(_)) || self.is_fixed(j) {
                continue;
            }
            let (viol, dir) = violation(self.status[j], self.reduced_cost(j, c, y, y_nonzero));
            if viol > TOL {
                if bland {
                    return Some((j, dir));
                }
                match best {
                    Some((_, b, _)) if b >= viol => {}
                    _ => best = Some((j, viol, dir)),
                }
            }
            if !bland && (scanned + 1) % window == 0 {
                if let Some((bj, _, bdir)) = best {
                    self.cursor = (j + 1) % self.ntot;
                    return Some((bj, bdir));
                }
            }
        }
        best.map(|(bj, _, bdir)| {
            self.cursor = (bj + 1) % self.ntot;
            (bj, bdir)
        })
    }

    /// Primal bounded-variable simplex for cost vector `c` until optimality.
    /// `Ok(false)` means unbounded under `c`; error semantics match
    /// [`Self::tick`].
    fn primal(
        &mut self,
        c: &[f64],
        iter_limit: usize,
        deadline: Option<Instant>,
    ) -> Result<bool, LpError> {
        let mut stall = 0usize;
        let mut w = vec![0.0f64; self.m];
        // Rows that can block the entering column: (row, ratio, bound hit).
        let mut ratios: Vec<(usize, f64, VarStatus)> = Vec::new();
        loop {
            self.tick(iter_limit, deadline)?;
            let bland = stall > 64 + self.m;
            if bland && !self.stats.bland_active {
                self.stats.bland_activations += 1;
            }
            self.stats.bland_active = bland;

            let (y, y_nonzero) = self.duals(c);
            let Some((e, dir)) = self.price(c, &y, y_nonzero, bland) else {
                return Ok(true); // optimal for this cost vector
            };

            // Pivot column through the basis inverse.
            w.iter_mut().for_each(|v| *v = 0.0);
            self.mat.scatter_col(e, 1.0, &mut w);
            self.factor.ftran(&mut w);

            // Ratio test: entering moves by t >= 0 in direction `dir`;
            // basic i changes by -dir * w[i] * t.
            let flip = if self.lower[e].is_finite() && self.upper[e].is_finite() {
                self.upper[e] - self.lower[e]
            } else {
                f64::INFINITY
            };
            ratios.clear();
            for (i, &wi) in w.iter().enumerate() {
                let coef = dir * wi;
                let (ratio, hit) = if coef > PIVOT_TOL {
                    // basic decreases toward its lower bound
                    let lb = self.lower[self.basis[i]];
                    if !lb.is_finite() {
                        continue;
                    }
                    ((self.xb[i] - lb) / coef, VarStatus::AtLower)
                } else if coef < -PIVOT_TOL {
                    let ub = self.upper[self.basis[i]];
                    if !ub.is_finite() {
                        continue;
                    }
                    ((ub - self.xb[i]) / -coef, VarStatus::AtUpper)
                } else {
                    continue;
                };
                ratios.push((i, ratio.max(0.0), hit));
            }
            // Two passes: the smallest ratio opens a window PIVOT_TOL wide.
            // Within it Bland mode takes the smallest column index, otherwise
            // the largest |w_i|, so a near-zero pivot never leaves when a
            // sound one ties with it. The step is the chosen row's ratio, so
            // no basic passes its bound by more than PIVOT_TOL·|w_i|.
            let t_min = ratios.iter().fold(f64::INFINITY, |t, &(_, ratio, _)| t.min(ratio));
            let mut leave: Option<(usize, f64, VarStatus)> = None;
            if t_min < flip - PIVOT_TOL {
                for &(i, ratio, hit) in ratios.iter().filter(|c| c.1 <= t_min + PIVOT_TOL) {
                    let wins = leave.is_none_or(|(r, _, _)| {
                        if bland {
                            self.basis[i] < self.basis[r]
                        } else {
                            w[i].abs() > w[r].abs()
                        }
                    });
                    if wins {
                        leave = Some((i, ratio, hit));
                    }
                }
            }
            let t_best = leave.map_or(flip, |(_, ratio, _)| ratio);

            if t_best.is_infinite() {
                return Ok(false); // unbounded ray
            }
            stall = if t_best > TOL { 0 } else { stall + 1 };

            match leave {
                None => {
                    // Bound flip: entering crosses to its opposite bound.
                    self.stats.bound_flips += 1;
                    for (i, &wi) in w.iter().enumerate() {
                        self.xb[i] -= dir * wi * t_best;
                    }
                    self.status[e] = match self.status[e] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        other => other, // free vars cannot bound-flip (t is infinite)
                    };
                }
                Some((r, _, hit)) => {
                    self.stats.pivots += 1;
                    let entering_value = self.value_of(e) + dir * t_best;
                    for (i, &wi) in w.iter().enumerate() {
                        if i != r {
                            self.xb[i] -= dir * wi * t_best;
                        }
                    }
                    self.xb[r] = entering_value;
                    self.status[self.basis[r]] = hit;
                    self.install_pivot(r, e, &w)?;
                }
            }
        }
    }

    /// Dual simplex: restores primal feasibility after bound changes while
    /// preserving dual feasibility. Entering is chosen by the standard dual
    /// ratio test over the leaving row; no eligible column is a primal
    /// infeasibility certificate for the row, independent of the costs.
    /// Reduced costs are priced on entry and after every refactorization and
    /// updated from the pivot row in between.
    ///
    /// With a `cutoff`, every pivot ends by evaluating the basic solution's
    /// objective; once it reaches the cutoff, fresh pricing confirms dual
    /// feasibility and the loop ends [`DualEnd::CutOff`]. A failed check
    /// disarms the cutoff until the next refactorization, so the check
    /// prices at most once per factorization.
    fn dual(
        &mut self,
        c: &[f64],
        iter_limit: usize,
        deadline: Option<Instant>,
        cutoff: Option<f64>,
    ) -> Result<DualEnd, LpError> {
        let mut rho = vec![0.0f64; self.m];
        let mut w = vec![0.0f64; self.m];
        // Nonzero entries of pivot row r of B^{-1}A over the nonbasic,
        // non-fixed columns.
        let mut row: Vec<(usize, f64)> = Vec::new();
        self.refresh_reduced_costs(c);
        let mut armed = cutoff;
        loop {
            self.tick(iter_limit, deadline)?;

            // Leaving row: largest bound violation among the basics.
            let mut leave: Option<(usize, f64, f64)> = None; // (row, viol, sigma)
            for (i, &j) in self.basis.iter().enumerate() {
                let (viol, sigma) = if self.xb[i] > self.upper[j] + TOL {
                    (self.xb[i] - self.upper[j], 1.0)
                } else if self.xb[i] < self.lower[j] - TOL {
                    (self.lower[j] - self.xb[i], -1.0)
                } else {
                    continue;
                };
                match leave {
                    Some((_, best, _)) if best >= viol => {}
                    _ => leave = Some((i, viol, sigma)),
                }
            }
            let Some((r, _, sigma)) = leave else {
                return Ok(DualEnd::Feasible);
            };

            // Row r of B^{-1} via one BTRAN, then α_r = ρᵀA row-wise over
            // the rows where ρ is nonzero; the ratio test reads the
            // maintained reduced costs.
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[r] = 1.0;
            self.factor.btran(&mut rho);
            self.rows.scatter_transpose(&rho, &mut self.row_acc);

            row.clear();
            let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, alpha)
            for j in 0..self.ntot {
                let alpha = std::mem::take(&mut self.row_acc[j]);
                if is_zero(alpha)
                    || matches!(self.status[j], VarStatus::Basic(_))
                    || self.is_fixed(j)
                {
                    continue;
                }
                row.push((j, alpha));
                let sa = sigma * alpha;
                let eligible = match self.status[j] {
                    VarStatus::AtLower => sa > PIVOT_TOL,
                    VarStatus::AtUpper => sa < -PIVOT_TOL,
                    VarStatus::Free => sa.abs() > PIVOT_TOL,
                    VarStatus::Basic(_) => unreachable!(),
                };
                if !eligible {
                    continue;
                }
                let ratio = (self.d[j] / sa).max(0.0);
                let better = match best {
                    None => true,
                    Some((_, br, ba)) => {
                        ratio < br - PIVOT_TOL
                            || ((ratio - br).abs() <= PIVOT_TOL && alpha.abs() > ba.abs())
                    }
                };
                if better {
                    best = Some((j, ratio, alpha));
                }
            }
            let Some((e, _, alpha_e)) = best else {
                return Ok(DualEnd::Infeasible);
            };

            w.iter_mut().for_each(|v| *v = 0.0);
            self.mat.scatter_col(e, 1.0, &mut w);
            self.factor.ftran(&mut w);
            if w[r].abs() <= PIVOT_TOL {
                // Factor drift made the chosen pivot unusable; rebuild the
                // factorization and retry the row.
                match self.refactor() {
                    Ok(()) => {
                        self.stats.refactorizations += 1;
                        self.recompute_xb();
                        self.refresh_reduced_costs(c);
                        armed = cutoff;
                        continue;
                    }
                    Err(_) => return Err(LpError::NumericallySingular),
                }
            }

            self.stats.pivots += 1;
            let leaving = self.basis[r];
            let bound =
                if sigma > 0.0 { self.upper[leaving] } else { self.lower[leaving] };
            let delta = (self.xb[r] - bound) / w[r];
            let entering_value = self.value_of(e) + delta;
            for (i, &wi) in w.iter().enumerate() {
                if i != r {
                    self.xb[i] -= wi * delta;
                }
            }
            self.xb[r] = entering_value;
            self.status[leaving] =
                if sigma > 0.0 { VarStatus::AtUpper } else { VarStatus::AtLower };

            // Dual step: the entering reduced cost goes to zero, every other
            // nonbasic one moves along the pivot row, and the leaving column
            // (alpha = 1 in its own row) picks up -theta.
            let theta = self.d[e] / alpha_e;
            for &(j, alpha) in &row {
                self.d[j] -= theta * alpha;
            }
            self.d[e] = 0.0;
            self.d[leaving] = -theta;

            if self.install_pivot(r, e, &w)? {
                self.refresh_reduced_costs(c);
                armed = cutoff;
            }
            if let Some(limit) = armed {
                if self.basic_objective(c) >= limit {
                    if self.dual_feasible(c) {
                        return Ok(DualEnd::CutOff);
                    }
                    self.stats.cutoff_rejections += 1;
                    armed = None;
                }
            }
        }
    }

    /// Replaces any artificial still basic after phase 1 with a structural
    /// or slack column (degenerate pivots); rows where none qualifies are
    /// redundant and keep their artificial basic, pinned by [0,0] bounds.
    fn drive_out_artificials(&mut self) -> Result<(), LpError> {
        let art_start = self.n + self.m;
        let mut rho = vec![0.0f64; self.m];
        let mut w = vec![0.0f64; self.m];
        for r in 0..self.m {
            if self.basis[r] < art_start {
                continue;
            }
            rho.iter_mut().for_each(|v| *v = 0.0);
            rho[r] = 1.0;
            self.factor.btran(&mut rho);
            let candidate = (0..art_start).find(|&j| {
                !matches!(self.status[j], VarStatus::Basic(_))
                    && self.mat.col_dot(j, &rho).abs() > 1e-6
            });
            if let Some(e) = candidate {
                w.iter_mut().for_each(|v| *v = 0.0);
                self.mat.scatter_col(e, 1.0, &mut w);
                self.factor.ftran(&mut w);
                if w[r].abs() <= PIVOT_TOL {
                    continue; // drifted below pivotability; row stays redundant
                }
                let leaving = self.basis[r];
                // Degenerate pivot: the artificial sits at 0, so the
                // entering column keeps its current (bound) value.
                self.status[leaving] = if is_zero(self.upper[leaving]) {
                    VarStatus::AtUpper
                } else {
                    VarStatus::AtLower
                };
                self.xb[r] = self.value_of(e);
                self.install_pivot(r, e, &w)?;
            }
        }
        Ok(())
    }
}

/// How far a nonbasic column with reduced cost `d` is from dual
/// feasibility at its `status`, and the direction it would enter in. A
/// violation above [`TOL`] makes the column a primal entering candidate.
fn violation(status: VarStatus, d: f64) -> (f64, f64) {
    match status {
        VarStatus::AtLower => (-d, 1.0),
        VarStatus::AtUpper => (d, -1.0),
        VarStatus::Free => (d.abs(), if d > 0.0 { -1.0 } else { 1.0 }),
        VarStatus::Basic(_) => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    fn bounds_of(model: &Model) -> (Vec<f64>, Vec<f64>) {
        (model.vars.iter().map(|v| v.lower).collect(), model.vars.iter().map(|v| v.upper).collect())
    }

    fn cold(model: &Model) -> SolveOutcome {
        let (lo, up) = bounds_of(model);
        SparseEngine::new(model).solve_cold(&lo, &up, None).unwrap()
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }

    /// max 3x + 5y over the textbook polygon (optimum -36 at (2, 6)).
    fn textbook_lp() -> Model {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -3.0);
        let y = m.add_continuous(0.0, f64::INFINITY, -5.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 4.0).unwrap();
        m.add_constraint(vec![(y, 2.0)], Sense::Le, 12.0).unwrap();
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Sense::Le, 18.0).unwrap();
        m
    }

    /// x + y >= 1.5 over the unit box.
    fn covering_lp() -> Model {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 1.0);
        let y = m.add_continuous(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 1.5).unwrap();
        m
    }

    /// Knapsack-ish relaxation with a fractional optimum (a = 1, b = 0.5).
    fn knapsack_relaxation() -> Model {
        let mut m = Model::new();
        let a = m.add_continuous(0.0, 1.0, -5.0);
        let b = m.add_continuous(0.0, 1.0, -4.0);
        let c = m.add_continuous(0.0, 1.0, -3.0);
        m.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 1.0)], Sense::Le, 3.5).unwrap();
        m
    }

    /// `n` boxed variables, adjacent pairs capped at 3, the total at 40.
    fn chain_model(n: usize) -> Model {
        let mut m = Model::new();
        let vars: Vec<usize> =
            (0..n).map(|i| m.add_continuous(0.0, 10.0, -((i % 7) as f64) - 1.0)).collect();
        for pair in vars.windows(2) {
            m.add_constraint(vec![(pair[0], 1.0), (pair[1], 1.0)], Sense::Le, 3.0).unwrap();
        }
        m.add_constraint(vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(), Sense::Le, 40.0)
            .unwrap();
        m
    }

    #[test]
    fn textbook_le_problem_matches_known_optimum() {
        let out = cold(&textbook_lp());
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert_close(out.solution.objective, -36.0);
        assert!(out.basis.is_some());
        assert!(out.iterations > 0);
    }

    #[test]
    fn negative_residual_rows_use_signed_artificials() {
        // -x <= -3 gives a negative starting residual; the signed phase 1
        // must still find x >= 3, and phase 2 then x = 5. x has no upper
        // bound on its cheap side, so the solve is two-phase.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        m.add_constraint(vec![(x, -1.0)], Sense::Le, -3.0).unwrap();
        m.add_constraint(vec![(x, 1.0)], Sense::Le, 5.0).unwrap();
        let (lo, up) = bounds_of(&m);
        let mut engine = SparseEngine::new(&m);
        let out = engine.solve_cold(&lo, &up, None).unwrap();
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert_close(out.solution.objective, -5.0);
        assert_eq!(engine.stats.dual_cold_starts, 0);
    }

    #[test]
    fn dual_start_proves_an_empty_boxed_model_infeasible() {
        // x + y >= 3 and x - y = 0 over the unit box, costs of both signs:
        // every column is bounded, so the dual start answers, and its dual
        // loop finds the row it cannot repair.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 1.0, 2.0);
        let y = m.add_continuous(0.0, 1.0, -1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Sense::Ge, 3.0).unwrap();
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Eq, 0.0).unwrap();
        let (lo, up) = bounds_of(&m);
        let mut engine = SparseEngine::new(&m);
        let out = engine.solve_cold(&lo, &up, None).unwrap();
        assert_eq!(out.solution.status, LpStatus::Infeasible);
        assert_eq!(engine.stats.dual_cold_starts, 1);
        assert!(out.iterations > 0, "the dual loop pivots before its verdict");
    }

    #[test]
    fn unbounded_cheap_side_keeps_the_two_phase_verdict() {
        // The textbook LP's costs are negative and its columns have no
        // upper bound: two-phase answers, with the known optimum.
        let m = textbook_lp();
        let (lo, up) = bounds_of(&m);
        let mut engine = SparseEngine::new(&m);
        let out = engine.solve_cold(&lo, &up, None).unwrap();
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert_close(out.solution.objective, -36.0);
        assert_eq!(engine.stats.dual_cold_starts, 0);

        // min -x - y with x - y <= 1 over x, y >= 0 runs off along x = y.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        let y = m.add_continuous(0.0, f64::INFINITY, -1.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Sense::Le, 1.0).unwrap();
        let (lo, up) = bounds_of(&m);
        let mut engine = SparseEngine::new(&m);
        let out = engine.solve_cold(&lo, &up, None).unwrap();
        assert_eq!(out.solution.status, LpStatus::Unbounded);
        assert_eq!(engine.stats.dual_cold_starts, 0);
    }

    /// Bits of a solve's verdict, objective, point and basis.
    fn outcome_bits(out: &SolveOutcome) -> (LpStatus, u64, Vec<u64>, Option<Basis>) {
        let x = out.solution.x.iter().map(|v| v.to_bits()).collect();
        (out.solution.status, out.solution.objective.to_bits(), x, out.basis.clone())
    }

    #[test]
    fn dual_start_matches_two_phase_and_its_fallback_is_a_clean_two_phase() {
        // Every boxed unit model: the dual start reaches the two-phase
        // optimum; and a dual start abandoned after one iteration leaves
        // nothing that moves a single bit of the two-phase solve after it.
        for model in [covering_lp(), knapsack_relaxation(), chain_model(80)] {
            let (lo, up) = bounds_of(&model);
            let mut engine = SparseEngine::new(&model);
            let dual = engine.solve_cold(&lo, &up, None).unwrap();
            assert_eq!(engine.stats.dual_cold_starts, 1);

            let mut fresh = SparseEngine::new(&model);
            assert!(fresh.install_bounds(&lo, &up).is_none());
            let c2 = fresh.phase2_cost();
            let two_phase = fresh.two_phase(&c2, None).unwrap();
            assert_eq!(dual.solution.status, LpStatus::Optimal);
            assert_eq!(two_phase.solution.status, LpStatus::Optimal);
            assert_close(dual.solution.objective, two_phase.solution.objective);

            engine.stats = Stats::default();
            assert!(engine.install_slack_basis(&c2));
            assert!(matches!(engine.dual(&c2, 1, None, None), Err(LpError::IterationLimit)));
            let fallback = engine.two_phase(&c2, None).unwrap();
            assert_eq!(outcome_bits(&fallback), outcome_bits(&two_phase));
        }
    }

    #[test]
    fn near_tied_ratio_chain_keeps_every_row_within_tol() {
        // max x under rows (1+i)·x <= (1+i)·(1 + 0.9·i·PIVOT_TOL): each
        // ratio ties with its neighbours while |w_i| grows, so a ratio test
        // that judged ties against its last winner would climb the chain
        // and step every earlier row past its bound.
        let mut m = Model::new();
        let x = m.add_continuous(0.0, f64::INFINITY, -1.0);
        for i in 0..200 {
            let w = 1.0 + i as f64;
            m.add_constraint(vec![(x, w)], Sense::Le, w * (1.0 + 0.9 * i as f64 * PIVOT_TOL))
                .unwrap();
        }
        let out = cold(&m);
        assert_eq!(out.solution.status, LpStatus::Optimal);
        for (i, row) in m.constraints.iter().enumerate() {
            let excess = row.terms[0].1 * out.solution.x[x] - row.rhs;
            assert!(excess <= TOL, "row {i} is {excess} past its bound");
        }
    }

    #[test]
    fn warm_solve_after_bound_tightening_matches_cold() {
        // Branch x0 to [1, 1] and compare warm against cold.
        let m = knapsack_relaxation();
        let (lo, up) = bounds_of(&m);

        let mut engine = SparseEngine::new(&m);
        let parent = engine.solve_cold(&lo, &up, None).unwrap();
        assert_eq!(parent.solution.status, LpStatus::Optimal);
        let basis = parent.basis.unwrap();

        let child_lo = vec![1.0, 0.0, 0.0];
        let warm = engine
            .solve_warm(&child_lo, &up, None, &basis, None)
            .unwrap()
            .expect("warm path should handle a single bound change");
        let cold = engine.solve_cold(&child_lo, &up, None).unwrap();
        assert_eq!(warm.solution.status, cold.solution.status);
        assert_close(warm.solution.objective, cold.solution.objective);
    }

    #[test]
    fn warm_solve_detects_child_infeasibility() {
        // x + y >= 1.5 with both branched to [0, 0] is empty. Every verdict
        // reports the iterations its solve spent, infeasible ones included.
        let m = covering_lp();
        let (lo, up) = bounds_of(&m);
        let mut engine = SparseEngine::new(&m);
        let parent = engine.solve_cold(&lo, &up, None).unwrap();
        assert_eq!(parent.iterations, engine.stats.iterations);
        let basis = parent.basis.unwrap();
        let warm = engine
            .solve_warm(&lo, &[0.0, 0.0], None, &basis, None)
            .unwrap()
            .expect("dual simplex certifies infeasibility without fallback");
        assert_eq!(warm.solution.status, LpStatus::Infeasible);
        assert!(engine.stats.iterations > 0, "the dual loop pivots before its verdict");
        assert_eq!(warm.iterations, engine.stats.iterations);

        // Cold, with both capped at 0.5: the dual start moves both before
        // it finds the row it cannot repair.
        let cold = engine.solve_cold(&lo, &[0.5, 0.5], None).unwrap();
        assert_eq!(cold.solution.status, LpStatus::Infeasible);
        assert!(engine.stats.iterations > 0, "the dual start pivots before its verdict");
        assert_eq!(cold.iterations, engine.stats.iterations);
    }

    #[test]
    fn refactorization_kicks_in_on_long_solves() {
        // A chain model long enough to exceed the eta budget.
        let m = chain_model(80);
        let (lo, up) = bounds_of(&m);
        let mut engine = SparseEngine::new(&m);
        let out = engine.solve_cold(&lo, &up, None).unwrap();
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert!(engine.stats.pivots > 0);
    }

    #[test]
    fn with_zero_rows_is_the_same_basis() {
        let m = knapsack_relaxation();
        let basis = cold(&m).basis.unwrap();
        assert_eq!(basis.with_rows(0), basis);
    }

    #[test]
    fn with_rows_enters_the_new_slacks_and_shifts_the_artificials() {
        // Two structurals, two rows: x0 basic in row 0 and, as phase 1
        // leaves it on a redundant row, row 1's artificial basic in row 1.
        let (n, rows) = (2, 2);
        let basis = Basis {
            cols: vec![0, (n + rows + 1) as u32],
            status: vec![
                Stored::Basic,
                Stored::AtUpper,
                Stored::AtLower,
                Stored::AtUpper,
                Stored::AtLower,
                Stored::Basic,
            ],
        };
        let added = 3;
        let grown = basis.with_rows(added);
        assert_eq!(grown.cols.len(), rows + added);
        assert_eq!(grown.status.len(), n + 2 * (rows + added));
        for (pos, &j) in basis.cols.iter().enumerate() {
            let j = j as usize;
            let moved = if j >= n + rows { j + added } else { j };
            assert_eq!(grown.cols[pos] as usize, moved);
        }
        for k in 0..added {
            let slack = grown.cols[rows + k] as usize;
            assert_eq!(slack, n + rows + k, "new slack {k} is basic at its row");
        }
        for (pos, &j) in grown.cols.iter().enumerate() {
            assert_eq!(grown.status[j as usize], Stored::Basic, "column {j} at position {pos}");
        }
        let basic = grown.status.iter().filter(|&&s| s == Stored::Basic).count();
        assert_eq!(basic, rows + added, "no column claims a basis position it does not hold");
    }

    #[test]
    fn violated_appended_row_reoptimizes_warm_to_the_cold_optimum() {
        let m = knapsack_relaxation();
        let (lo, up) = bounds_of(&m);
        let root = cold(&m);
        let x = &root.solution.x;
        // a + b <= 1 cuts the root vertex off.
        assert!(x[0] + x[1] > 1.0 + 1e-6, "root vertex {x:?} must violate the new row");
        let mut cut = m.clone();
        cut.add_constraint(vec![(0, 1.0), (1, 1.0)], Sense::Le, 1.0).unwrap();
        let warm_basis = root.basis.unwrap().with_rows(1);

        let mut engine = SparseEngine::new(&cut);
        let warm = engine
            .solve_warm(&lo, &up, None, &warm_basis, None)
            .unwrap()
            .expect("the restated basis re-optimizes without a fallback");
        let fresh = SparseEngine::new(&cut).solve_cold(&lo, &up, None).unwrap();
        assert_eq!(warm.solution.status, LpStatus::Optimal);
        assert_eq!(fresh.solution.status, LpStatus::Optimal);
        assert_close(warm.solution.objective, fresh.solution.objective);
        assert!(cut.is_feasible(&warm.solution.x, 1e-9));
    }

    #[test]
    fn appended_row_that_empties_the_feasible_set_is_infeasible_warm() {
        let m = knapsack_relaxation();
        let (lo, up) = bounds_of(&m);
        let root = cold(&m);
        // a + b + c >= 3.5 cannot hold inside the unit box.
        let mut cut = m.clone();
        cut.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Sense::Ge, 3.5).unwrap();
        let warm = SparseEngine::new(&cut)
            .solve_warm(&lo, &up, None, &root.basis.unwrap().with_rows(1), None)
            .unwrap()
            .expect("the dual simplex certifies infeasibility without a fallback");
        assert_eq!(warm.solution.status, LpStatus::Infeasible);
    }

    /// Installs `basis` under the bounds `lo`/`up`, runs the dual loop alone
    /// (no primal finish pass), and returns the largest gap between the
    /// reduced costs it maintained and a fresh `c_j - a_j·y` over the
    /// columns its ratio test reads, with the pivots it took.
    fn dual_reduced_cost_drift(
        engine: &mut SparseEngine,
        lo: &[f64],
        up: &[f64],
        basis: &Basis,
    ) -> (f64, usize) {
        assert!(engine.install_bounds(lo, up).is_none(), "non-empty box");
        engine.stats = Stats::default();
        assert!(engine.install_basis(basis));
        let c = engine.phase2_cost();
        let limit = engine.iter_limit();
        engine.dual(&c, limit, None, None).unwrap();
        let (y, y_nonzero) = engine.duals(&c);
        let drift = (0..engine.ntot)
            .filter(|&j| !matches!(engine.status[j], VarStatus::Basic(_)) && !engine.is_fixed(j))
            .map(|j| (engine.d[j] - engine.reduced_cost(j, &c, &y, y_nonzero)).abs())
            .fold(0.0, f64::max);
        (drift, engine.stats.pivots)
    }

    /// One box per variable and direction: the variable's bound pushed 0.5
    /// past its value in `x` (a root optimum), down and then up.
    fn nudged_boxes(lo: &[f64], up: &[f64], x: &[f64]) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut boxes = Vec::new();
        for (j, &xj) in x.iter().enumerate() {
            let mut down = up.to_vec();
            down[j] = (xj - 0.5).max(lo[j]);
            let mut upward = lo.to_vec();
            upward[j] = (xj + 0.5).min(up[j]);
            boxes.push((lo.to_vec(), down));
            boxes.push((upward, up.to_vec()));
        }
        boxes
    }

    /// `count` seeded random boxes inside `lo`/`up`: up to 12 bounds move at
    /// once, so the dual takes long runs of pivots across refactorizations.
    fn random_boxes(lo: &[f64], up: &[f64], count: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |k: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % k
        };
        (0..count)
            .map(|_| {
                let (mut l, mut u) = (lo.to_vec(), up.to_vec());
                for _ in 0..1 + next(12) {
                    let j = next(lo.len());
                    let cut = next(11) as f64 * 0.3;
                    if next(2) == 0 {
                        u[j] = cut.min(u[j]).max(l[j]);
                    } else {
                        l[j] = cut.max(l[j]).min(u[j]);
                    }
                }
                (l, u)
            })
            .collect()
    }

    #[test]
    fn maintained_reduced_costs_match_fresh_pricing() {
        // Every unit model, each variable pushed off its root value both ways.
        let mut pivots = 0;
        for model in [textbook_lp(), covering_lp(), knapsack_relaxation(), chain_model(80)] {
            let (lo, up) = bounds_of(&model);
            let mut engine = SparseEngine::new(&model);
            let root = engine.solve_cold(&lo, &up, None).unwrap();
            let basis = root.basis.unwrap();
            for (k, (l, u)) in nudged_boxes(&lo, &up, &root.solution.x).iter().enumerate() {
                let (drift, taken) = dual_reduced_cost_drift(&mut engine, l, u, &basis);
                assert!(drift <= 1e-9, "box {k}: reduced-cost drift {drift}");
                pivots += taken;
            }
        }

        // Seeded random boxes on the chain model.
        let model = chain_model(80);
        let (lo, up) = bounds_of(&model);
        let mut engine = SparseEngine::new(&model);
        let basis = engine.solve_cold(&lo, &up, None).unwrap().basis.unwrap();
        for (l, u) in random_boxes(&lo, &up, 200) {
            let (drift, taken) = dual_reduced_cost_drift(&mut engine, &l, &u, &basis);
            assert!(drift <= 1e-9, "reduced-cost drift {drift}");
            pivots += taken;
        }
        assert!(pivots > 100, "the dual must actually pivot ({pivots} pivots)");
    }

    /// Checks [`SparseEngine::reduced_costs`] right after an optimal solve:
    /// one entry per structural column, its status the engine's, its
    /// reduced cost the bits of a fresh column-wise `c_j − a_j·y`, and every
    /// nonbasic, non-fixed column dual feasible at its bound within `TOL`.
    /// Returns how many nonbasic columns priced strictly away from zero.
    fn check_reduced_costs(engine: &mut SparseEngine) -> usize {
        let reported = engine.reduced_costs();
        assert_eq!(reported.len(), engine.n);
        let c = engine.phase2_cost();
        let (y, y_nonzero) = engine.duals(&c);
        let mut priced = 0;
        for (j, &(status, d)) in reported.iter().enumerate() {
            assert_eq!(status, engine.status[j], "column {j}");
            let fresh = engine.reduced_cost(j, &c, &y, y_nonzero);
            assert_eq!(d.to_bits(), fresh.to_bits(), "column {j}: {d} vs fresh {fresh}");
            if matches!(status, VarStatus::Basic(_)) || engine.is_fixed(j) {
                continue;
            }
            let feasible = match status {
                VarStatus::AtLower => d >= -TOL,
                VarStatus::AtUpper => d <= TOL,
                _ => d.abs() <= TOL,
            };
            assert!(feasible, "column {j} at {status:?} prices {d}");
            priced += usize::from(d.abs() > TOL);
        }
        priced
    }

    #[test]
    fn reported_reduced_costs_are_fresh_and_dual_feasible() {
        // Every unit model at its root optimum, then each box solved warm
        // from the root basis and cold: the nudged boxes everywhere, plus
        // seeded random boxes on the chain model.
        let (mut solves, mut priced) = (0, 0);
        let models = [
            (textbook_lp(), 0),
            (covering_lp(), 0),
            (knapsack_relaxation(), 0),
            (chain_model(80), 200),
        ];
        for (model, random) in models {
            let (lo, up) = bounds_of(&model);
            let mut engine = SparseEngine::new(&model);
            let root = engine.solve_cold(&lo, &up, None).unwrap();
            assert_eq!(root.solution.status, LpStatus::Optimal);
            priced += check_reduced_costs(&mut engine);
            let basis = root.basis.unwrap();
            let mut boxes = nudged_boxes(&lo, &up, &root.solution.x);
            boxes.extend(random_boxes(&lo, &up, random));
            for (l, u) in &boxes {
                let warm = engine.solve_warm(l, u, None, &basis, None).unwrap();
                if warm.is_some_and(|out| out.solution.status == LpStatus::Optimal) {
                    priced += check_reduced_costs(&mut engine);
                    solves += 1;
                }
                if engine.solve_cold(l, u, None).unwrap().solution.status == LpStatus::Optimal {
                    priced += check_reduced_costs(&mut engine);
                    solves += 1;
                }
            }
        }
        assert!(solves > 400, "only {solves} optimal box solves were checked");
        assert!(priced > 0, "no nonbasic column priced away from zero");
    }

    /// Bit-level equality of two warm solves: verdict, cutoff flag,
    /// objective and point bits, and basis.
    fn same_outcome(a: &Option<SolveOutcome>, b: &Option<SolveOutcome>) -> bool {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.solution.status == b.solution.status
                    && a.cut_off == b.cut_off
                    && a.solution.objective.to_bits() == b.solution.objective.to_bits()
                    && bits(&a.solution.x) == bits(&b.solution.x)
                    && a.basis == b.basis
            }
            _ => false,
        }
    }

    /// Counts of [`check_cutoffs`]: solves of boxes with an optimum that
    /// the cutoff stopped, and cutoffs reached on a basis that failed the
    /// dual-feasibility check.
    #[derive(Default)]
    struct CutoffTally {
        cut_offs: usize,
        rejections: usize,
    }

    /// Solves every box warm from `basis` three ways: with no cutoff, with
    /// one just above the uncut optimum and with one just below it (an
    /// infeasible or abandoned box takes `reference`, the root optimum, in
    /// its place). A cutoff may change a solve only into a cut-off verdict,
    /// and only when the uncut optimum (+∞ for an infeasible box) is at
    /// least the cutoff − 1e-7; so the cutoff above must change nothing.
    fn check_cutoffs(
        engine: &mut SparseEngine,
        boxes: &[(Vec<f64>, Vec<f64>)],
        basis: &Basis,
        reference: f64,
        tally: &mut CutoffTally,
    ) {
        for (k, (l, u)) in boxes.iter().enumerate() {
            let plain = engine.solve_warm(l, u, None, basis, None).unwrap();
            let optimum = match &plain {
                Some(out) if out.solution.status == LpStatus::Optimal => out.solution.objective,
                Some(out) if out.solution.status == LpStatus::Infeasible => f64::INFINITY,
                _ => f64::NAN,
            };
            let center = if optimum.is_finite() { optimum } else { reference };
            let margin = 1e-6 * (1.0 + center.abs());
            for cutoff in [center + margin, center - margin] {
                let cut = engine.solve_warm(l, u, None, basis, Some(cutoff)).unwrap();
                tally.rejections += engine.stats.cutoff_rejections;
                if same_outcome(&cut, &plain) {
                    continue;
                }
                let stopped = cut.as_ref().is_some_and(|out| out.cut_off);
                assert!(
                    stopped && optimum >= cutoff - 1e-7,
                    "box {k}, cutoff {cutoff}: uncut optimum {optimum}, got {:?}",
                    cut.map(|out| (out.solution.status, out.solution.objective, out.cut_off))
                );
                assert!(
                    cut.is_some_and(|out| out.solution.x.is_empty() && out.basis.is_none()),
                    "a cut-off solve reports no point and no basis"
                );
                tally.cut_offs += usize::from(optimum.is_finite());
            }
        }
    }

    /// `model` with its objective coefficients in reverse variable order:
    /// the same matrix, so its optimal basis fits `model`'s engine, where
    /// it is primal feasible at the root and, in general, not dual feasible.
    fn reversed(model: &Model) -> Model {
        let mut m = model.clone();
        let costs: Vec<f64> = m.vars.iter().rev().map(|v| v.objective).collect();
        for (v, c) in m.vars.iter_mut().zip(costs) {
            v.objective = c;
        }
        m
    }

    #[test]
    fn objective_cutoff_stops_only_solves_that_reach_it() {
        let mut tally = CutoffTally::default();
        let models = [
            (textbook_lp(), 0),
            (covering_lp(), 0),
            (knapsack_relaxation(), 0),
            (chain_model(80), 200),
        ];
        for (model, random) in models {
            let (lo, up) = bounds_of(&model);
            let mut engine = SparseEngine::new(&model);
            let root = engine.solve_cold(&lo, &up, None).unwrap();
            let mut boxes = nudged_boxes(&lo, &up, &root.solution.x);
            boxes.extend(random_boxes(&lo, &up, random));
            let reference = root.solution.objective;
            // From the root's optimal basis the dual stays dual feasible,
            // so every cutoff it reaches is a sound stop.
            let basis = root.basis.unwrap();
            check_cutoffs(&mut engine, &boxes, &basis, reference, &mut tally);
            // From the reversed objective's optimum the dual starts dual
            // infeasible, and its basic solution's objective can pass the
            // optimum: only the fresh dual-feasibility check keeps the
            // cutoff from stopping there.
            let other = SparseEngine::new(&reversed(&model)).solve_cold(&lo, &up, None).unwrap();
            check_cutoffs(&mut engine, &boxes, &other.basis.unwrap(), reference, &mut tally);
        }
        assert!(tally.cut_offs > 0, "no cutoff ever stopped a solve with an optimum");
        assert!(tally.rejections > 0, "no cutoff was ever reached on a dual infeasible basis");
    }

    #[test]
    fn empty_box_short_circuits_to_infeasible() {
        let mut m = Model::new();
        let x = m.add_continuous(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Sense::Ge, 1.0).unwrap();
        let out = SparseEngine::new(&m).solve_cold(&[4.0], &[3.0], None).unwrap();
        assert_eq!(out.solution.status, LpStatus::Infeasible);
    }
}
