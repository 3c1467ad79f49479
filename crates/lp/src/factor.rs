//! Basis factorization for the revised simplex: sparse LU with
//! product-form (eta) updates.
//!
//! The basis matrix `B` (one column of [`crate::sparse::CscMatrix`] per
//! basic variable) is factorized as `PBQ = LU`. Most of an FBB basis is
//! slack (and, on redundant rows, artificial) unit columns, so the
//! factorization first pivots every column with a single nonzero on its own
//! row, in basis-position order, without any elimination: those steps
//! leave `L` empty and put only a diagonal entry in `U`. The remaining
//! *kernel* columns then go through a left-looking Gilbert–Peierls
//! elimination with partial pivoting: each column is obtained by a sparse
//! triangular solve whose nonzero pattern is found by depth-first
//! reachability over the columns of `L` built so far, so the work per
//! column is proportional to arithmetic actually performed rather than to
//! `m`. `Q` records which basis position each elimination step took, and
//! the triangular solves apply it on the way out (FTRAN) or in (BTRAN).
//!
//! After a pivot the simplex does not refactorize; it appends an *eta*
//! column — the product-form update `B_k = B_0 · E_1 ⋯ E_k`, where `E_j` is
//! the identity with one column replaced by the FTRAN image of the entering
//! column. FTRAN applies the base LU solve and then the eta inverses
//! oldest-first; BTRAN applies the eta transpose-inverses newest-first and
//! then the transposed LU solve. The eta file is discarded on
//! refactorization, which the engine triggers on a count/stability policy
//! (see `DESIGN.md` §5f) — never on wall-clock, so factorization telemetry
//! stays deterministic per seed. A refactorization asked for the very basis
//! the LU in place factorizes keeps that LU and drops only the eta file:
//! branch and bound re-installs one parent basis for both children and for
//! every strong-branch probe.

use crate::approx::{is_nonzero, is_zero};
use crate::sparse::CscMatrix;

/// A pivot would divide by a value at or below this; the basis is treated
/// as numerically singular and the caller refactorizes or restarts.
const SINGULAR_TOL: f64 = 1e-11;
/// Eta entries below this magnitude are dropped; they are roundoff, and
/// keeping them only grows FTRAN/BTRAN work.
const ETA_DROP_TOL: f64 = 1e-12;

/// The candidate basis had no usable pivot in some column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SingularBasis;

/// `PBQ = LU` for one snapshot of the basis.
///
/// `L` is unit lower triangular and `U` upper triangular, both stored
/// column-wise by elimination step with row indices in step space; `pinv`
/// maps an original row index to the step that pivoted it, and `q` maps a
/// step to the basis position it eliminated.
#[derive(Debug, Clone, Default)]
struct LuFactor {
    l_ptr: Vec<usize>,
    l_idx: Vec<usize>,
    l_val: Vec<f64>,
    u_ptr: Vec<usize>,
    u_idx: Vec<usize>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    pinv: Vec<usize>,
    q: Vec<usize>,
    /// Columns that went through elimination (not single-nonzero).
    kernel: usize,
}

const UNPIVOTED: usize = usize::MAX;

/// Scratch kept across factorizations and solves so neither allocates:
/// the factorization's scatter and DFS buffers (`x` and `visited` are left
/// all-zero / all-false between columns) and the triangular solves'
/// step-space vector `y`.
#[derive(Debug, Clone, Default)]
struct Workspace {
    x: Vec<f64>,
    visited: Vec<bool>,
    topo: Vec<usize>,
    dfs: Vec<(usize, usize)>,
    y: Vec<f64>,
}

impl LuFactor {
    /// Factorizes the basis columns `basis[pos] = matrix column` into
    /// `self`, reusing its storage: single-nonzero columns first, then the
    /// kernel, each group in position order. On failure `self` holds no
    /// usable factorization.
    fn factorize_into(
        &mut self,
        mat: &CscMatrix,
        basis: &[usize],
        ws: &mut Workspace,
    ) -> Result<(), SingularBasis> {
        let m = mat.rows();
        debug_assert_eq!(basis.len(), m);
        for v in [&mut self.l_ptr, &mut self.l_idx, &mut self.u_ptr, &mut self.u_idx, &mut self.q] {
            v.clear();
        }
        for v in [&mut self.l_val, &mut self.u_val, &mut self.u_diag] {
            v.clear();
        }
        self.pinv.clear();
        self.pinv.resize(m, UNPIVOTED);
        self.l_ptr.push(0);
        self.u_ptr.push(0);
        ws.x.resize(m, 0.0);
        ws.visited.resize(m, false);

        // Single-nonzero columns pivot on their own row: nothing to
        // eliminate, so L gets an empty column and U only its diagonal.
        // Two of them on one row are linearly dependent.
        for (pos, &bk) in basis.iter().enumerate() {
            let (rows, vals) = mat.col(bk);
            if let ([r], [v]) = (rows, vals) {
                if self.pinv[*r] != UNPIVOTED || v.abs() <= SINGULAR_TOL {
                    return Err(SingularBasis);
                }
                self.pinv[*r] = self.q.len();
                self.q.push(pos);
                self.u_diag.push(*v);
                self.l_ptr.push(self.l_idx.len());
                self.u_ptr.push(self.u_idx.len());
            }
        }
        self.kernel = m - self.q.len();

        let x = &mut ws.x;
        let visited = &mut ws.visited;
        let topo = &mut ws.topo;
        let dfs = &mut ws.dfs;
        for (pos, &bk) in basis.iter().enumerate() {
            let (b_rows, b_vals) = mat.col(bk);
            if b_rows.len() == 1 {
                continue;
            }
            let k = self.q.len();

            // Symbolic step: nonzero pattern of L⁻¹ b is the set of rows
            // reachable from b's pattern through columns of L built so far.
            // Reverse DFS postorder gives a valid elimination order.
            topo.clear();
            for &root in b_rows {
                if visited[root] {
                    continue;
                }
                dfs.push((root, 0));
                visited[root] = true;
                while let Some(&mut (node, ref mut child)) = dfs.last_mut() {
                    let col = self.pinv[node];
                    let kids: &[usize] = if col == UNPIVOTED {
                        &[]
                    } else {
                        &self.l_idx[self.l_ptr[col]..self.l_ptr[col + 1]]
                    };
                    // Note: before the final remap below, l_idx holds
                    // *original* row indices, which is what DFS needs.
                    if *child < kids.len() {
                        let next = kids[*child];
                        *child += 1;
                        if !visited[next] {
                            visited[next] = true;
                            dfs.push((next, 0));
                        }
                    } else {
                        topo.push(node);
                        dfs.pop();
                    }
                }
            }

            // Numeric step: x = L⁻¹ b over the pattern, deepest nodes last.
            for (&i, &v) in b_rows.iter().zip(b_vals) {
                x[i] = v;
            }
            for &i in topo.iter().rev() {
                let col = self.pinv[i];
                if col == UNPIVOTED {
                    continue;
                }
                let xi = x[i];
                if is_zero(xi) {
                    continue;
                }
                let span = self.l_ptr[col]..self.l_ptr[col + 1];
                for (&r, &l) in self.l_idx[span.clone()].iter().zip(&self.l_val[span]) {
                    x[r] -= l * xi;
                }
            }

            // Partial pivoting over rows not yet assigned a pivot.
            let mut pivot_row = UNPIVOTED;
            let mut pivot_mag = SINGULAR_TOL;
            for &i in topo.iter() {
                if self.pinv[i] == UNPIVOTED && x[i].abs() > pivot_mag {
                    pivot_mag = x[i].abs();
                    pivot_row = i;
                }
            }
            if pivot_row == UNPIVOTED {
                // Clean up workspaces before reporting failure.
                for &i in topo.iter() {
                    x[i] = 0.0;
                    visited[i] = false;
                }
                return Err(SingularBasis);
            }
            let diag = x[pivot_row];

            for &i in topo.iter() {
                if self.pinv[i] != UNPIVOTED {
                    self.u_idx.push(self.pinv[i]);
                    self.u_val.push(x[i]);
                } else if i != pivot_row {
                    let scaled = x[i] / diag;
                    if is_nonzero(scaled) {
                        self.l_idx.push(i);
                        self.l_val.push(scaled);
                    }
                }
                x[i] = 0.0;
                visited[i] = false;
            }
            self.u_diag.push(diag);
            self.u_ptr.push(self.u_idx.len());
            self.l_ptr.push(self.l_idx.len());
            self.pinv[pivot_row] = k;
            self.q.push(pos);
        }

        // Remap L's row indices from original to step space so the
        // triangular solves below never consult the row permutation.
        for r in self.l_idx.iter_mut() {
            *r = self.pinv[*r];
        }
        Ok(())
    }

    /// Stored entries of `L` and `U`, diagonal included.
    fn nnz(&self) -> usize {
        self.l_idx.len() + self.u_idx.len() + self.u_diag.len()
    }

    /// In-place FTRAN: on entry `x` holds `b` in original row space, on exit
    /// the solution of `Bx = b` indexed by basis position. `y` is scratch
    /// of length `m`; its contents are overwritten.
    fn solve_dense(&self, x: &mut [f64], y: &mut [f64]) {
        let m = self.q.len();
        // Permute into step space.
        for (i, &v) in x.iter().enumerate() {
            y[self.pinv[i]] = v;
        }
        // Unit lower forward solve.
        for k in 0..m {
            let yk = y[k];
            if is_nonzero(yk) {
                for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                    y[self.l_idx[idx]] -= self.l_val[idx] * yk;
                }
            }
        }
        // Upper backward solve.
        for k in (0..m).rev() {
            let yk = y[k] / self.u_diag[k];
            y[k] = yk;
            if is_nonzero(yk) {
                for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                    y[self.u_idx[idx]] -= self.u_val[idx] * yk;
                }
            }
        }
        // Step s solved for basis position q[s].
        for (&pos, &ys) in self.q.iter().zip(y.iter()) {
            x[pos] = ys;
        }
    }

    /// In-place BTRAN: on entry `x` holds `c` indexed by basis position, on
    /// exit the solution of `Bᵀy = c` in original row space. `y` is scratch
    /// of length `m`; its contents are overwritten.
    fn solve_transpose_dense(&self, x: &mut [f64], y: &mut [f64]) {
        let m = self.q.len();
        for (&pos, ys) in self.q.iter().zip(y.iter_mut()) {
            *ys = x[pos];
        }
        // Uᵀ forward solve.
        for k in 0..m {
            let mut v = y[k];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                v -= self.u_val[idx] * y[self.u_idx[idx]];
            }
            y[k] = v / self.u_diag[k];
        }
        // Lᵀ backward solve (unit diagonal).
        for k in (0..m).rev() {
            let mut v = y[k];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                v -= self.l_val[idx] * y[self.l_idx[idx]];
            }
            y[k] = v;
        }
        // Permute back to original row space.
        for (xi, &step) in x.iter_mut().zip(&self.pinv) {
            *xi = y[step];
        }
    }
}

/// One product-form update `E`: identity with column `pivot` replaced by a
/// (sparse) FTRAN image of the entering column.
#[derive(Debug, Clone)]
struct Eta {
    pivot: usize,
    pivot_val: f64,
    /// Off-pivot entries `(basis position, value)`.
    entries: Vec<(usize, f64)>,
}

/// An LU-factorized basis plus the eta file accumulated since the last
/// refactorization, with the scratch both reuse.
#[derive(Debug, Clone)]
pub(crate) struct BasisFactor {
    lu: LuFactor,
    /// The basis `lu` factorizes: the matrix column at each position.
    factored: Vec<usize>,
    /// The previous factorization's storage: the next [`Self::refactorize`]
    /// fills it and swaps it in only on success, so a singular candidate
    /// leaves `lu` and the eta file as they were.
    spare: LuFactor,
    etas: Vec<Eta>,
    ws: Workspace,
}

/// Refactorize once this many etas have accumulated: beyond it the eta
/// sweeps cost more than a fresh LU and roundoff from stacked updates
/// starts to show in the ratio test.
pub(crate) const MAX_ETAS: usize = 64;

impl BasisFactor {
    /// Factorizes the given basis columns of `mat`.
    pub fn factorize(mat: &CscMatrix, basis: &[usize]) -> Result<BasisFactor, SingularBasis> {
        let mut f = BasisFactor {
            lu: LuFactor::default(),
            factored: Vec::new(),
            spare: LuFactor::default(),
            etas: Vec::new(),
            ws: Workspace { y: vec![0.0; mat.rows()], ..Workspace::default() },
        };
        f.refactorize(mat, basis)?;
        Ok(f)
    }

    /// Replaces the factorization (and drops the eta file) with one of the
    /// given basis columns of `mat`, which must be the matrix of every
    /// earlier call, reusing this factor's storage. When the LU in place
    /// already factorizes exactly these positions, only the eta file goes:
    /// a factorization is deterministic in its input, so every later solve
    /// is bit-identical to one on a fresh LU. Returns whether it computed
    /// an LU. On failure nothing changes.
    pub fn refactorize(&mut self, mat: &CscMatrix, basis: &[usize]) -> Result<bool, SingularBasis> {
        let computed = self.factored != basis;
        if computed {
            self.spare.factorize_into(mat, basis, &mut self.ws)?;
            std::mem::swap(&mut self.lu, &mut self.spare);
            self.factored.clear();
            self.factored.extend_from_slice(basis);
        }
        self.etas.clear();
        Ok(computed)
    }

    /// Basis columns the last factorization had to eliminate: those with
    /// more than one nonzero.
    pub fn kernel_columns(&self) -> usize {
        self.lu.kernel
    }

    /// Entries of the last factorization's `L` and `U`, diagonal included.
    pub fn lu_nnz(&self) -> usize {
        self.lu.nnz()
    }

    /// Number of eta updates since the last refactorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// True once the eta file is long enough that the engine should
    /// refactorize at the next pivot.
    pub fn should_refactor(&self) -> bool {
        self.eta_count() >= MAX_ETAS
    }

    /// Solves `B x = b` in place: `x` enters in original row space, leaves
    /// indexed by basis position.
    pub fn ftran(&mut self, x: &mut [f64]) {
        self.lu.solve_dense(x, &mut self.ws.y);
        // Oldest eta first: x ← E_j⁻¹ x.
        for eta in &self.etas {
            let xr = x[eta.pivot] / eta.pivot_val;
            x[eta.pivot] = xr;
            if is_nonzero(xr) {
                for &(i, v) in &eta.entries {
                    x[i] -= v * xr;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c` in place: `x` enters indexed by basis position,
    /// leaves in original row space.
    pub fn btran(&mut self, x: &mut [f64]) {
        // Newest eta first: x ← E_jᵀ⁻¹ x.
        for eta in self.etas.iter().rev() {
            let mut v = x[eta.pivot];
            for &(i, w) in &eta.entries {
                v -= w * x[i];
            }
            x[eta.pivot] = v / eta.pivot_val;
        }
        self.lu.solve_transpose_dense(x, &mut self.ws.y);
    }

    /// Records the pivot that replaces basis position `pivot` with the
    /// variable whose FTRAN image is `column` (dense, basis-position
    /// indexed). Fails when the pivot element is numerically unusable, in
    /// which case the caller must refactorize instead.
    pub fn push_eta(&mut self, pivot: usize, column: &[f64]) -> Result<(), SingularBasis> {
        let pivot_val = column[pivot];
        if pivot_val.abs() <= SINGULAR_TOL {
            return Err(SingularBasis);
        }
        let entries: Vec<(usize, f64)> = column
            .iter()
            .enumerate()
            .filter(|&(i, &v)| i != pivot && v.abs() > ETA_DROP_TOL)
            .map(|(i, &v)| (i, v))
            .collect();
        self.etas.push(Eta { pivot, pivot_val, entries });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use crate::Model;

    /// Builds the CSC matrix for rows given as dense coefficient slices.
    fn csc_from_rows(n: usize, rows: &[&[f64]]) -> CscMatrix {
        let mut model = Model::new();
        for _ in 0..n {
            model.add_continuous(0.0, 1.0, 0.0);
        }
        for row in rows {
            let terms: Vec<(usize, f64)> =
                row.iter().enumerate().filter(|(_, &c)| c != 0.0).map(|(j, &c)| (j, c)).collect();
            model.add_constraint(terms, Sense::Eq, 0.0).unwrap();
        }
        CscMatrix::build(&model)
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn identity_basis_round_trips() {
        // Basis = artificial columns = I.
        let mat = csc_from_rows(2, &[&[3.0, 1.0], &[1.0, 2.0]]);
        let n = 2;
        let m = 2;
        let basis: Vec<usize> = (0..m).map(|k| n + m + k).collect();
        let mut f = BasisFactor::factorize(&mat, &basis).unwrap();
        let mut x = vec![5.0, -7.0];
        f.ftran(&mut x);
        assert_close(&x, &[5.0, -7.0]);
        let mut y = vec![1.5, 2.5];
        f.btran(&mut y);
        assert_close(&y, &[1.5, 2.5]);
    }

    #[test]
    fn structural_basis_solves_match_hand_inverse() {
        // B = [[3, 1], [1, 2]], det 5; B⁻¹ = [[2, -1], [-1, 3]] / 5.
        let mat = csc_from_rows(2, &[&[3.0, 1.0], &[1.0, 2.0]]);
        let mut f = BasisFactor::factorize(&mat, &[0, 1]).unwrap();

        let mut x = vec![1.0, 0.0];
        f.ftran(&mut x);
        assert_close(&x, &[0.4, -0.2]);

        let mut y = vec![0.0, 1.0];
        f.btran(&mut y);
        // Bᵀ y = e_2 -> y = B⁻ᵀ e_2 = column 2 of B⁻ᵀ = row 2 of B⁻¹.
        assert_close(&y, &[-0.2, 0.6]);
    }

    #[test]
    fn permutation_requiring_basis_factors() {
        // First column forces a row swap: [[0, 1], [1, 0]].
        let mat = csc_from_rows(2, &[&[0.0, 1.0], &[1.0, 0.0]]);
        let mut f = BasisFactor::factorize(&mat, &[0, 1]).unwrap();
        let mut x = vec![3.0, 4.0];
        f.ftran(&mut x);
        // B = [[0,1],[1,0]] so x = B⁻¹ b swaps entries.
        assert_close(&x, &[4.0, 3.0]);
    }

    #[test]
    fn eta_update_matches_refactorization() {
        // Start from basis {x0, x1}, replace position 1 with the slack of
        // row 0; compare FTRAN/BTRAN after the eta vs. a fresh LU.
        let mat = csc_from_rows(3, &[&[3.0, 1.0, 2.0], &[1.0, 2.0, -1.0]]);
        let mut f = BasisFactor::factorize(&mat, &[0, 1]).unwrap();

        let entering = 3; // slack of row 0
        let mut w = vec![0.0f64; 2];
        mat.scatter_col(entering, 1.0, &mut w);
        f.ftran(&mut w);
        f.push_eta(1, &w).unwrap();
        assert_eq!(f.eta_count(), 1);

        let mut fresh = BasisFactor::factorize(&mat, &[0, entering]).unwrap();
        for rhs in [[1.0, 0.0], [0.0, 1.0], [2.5, -4.0]] {
            let mut a = rhs.to_vec();
            let mut b = rhs.to_vec();
            f.ftran(&mut a);
            fresh.ftran(&mut b);
            assert_close(&a, &b);

            let mut a = rhs.to_vec();
            let mut b = rhs.to_vec();
            f.btran(&mut a);
            fresh.btran(&mut b);
            assert_close(&a, &b);
        }
    }

    #[test]
    fn stacked_etas_still_agree_with_fresh_lu() {
        // 3×3 system, two successive replacements.
        let mat =
            csc_from_rows(3, &[&[2.0, 0.0, 1.0], &[1.0, 3.0, 0.0], &[0.0, 1.0, 4.0]]);
        let mut f = BasisFactor::factorize(&mat, &[0, 1, 2]).unwrap();

        // Bring in slack of row 1 (col 4) replacing position 0.
        let mut w = vec![0.0f64; 3];
        mat.scatter_col(4, 1.0, &mut w);
        f.ftran(&mut w);
        f.push_eta(0, &w).unwrap();
        // Bring in slack of row 0 (col 3) replacing position 2.
        let mut w = vec![0.0f64; 3];
        mat.scatter_col(3, 1.0, &mut w);
        f.ftran(&mut w);
        f.push_eta(2, &w).unwrap();

        let mut fresh = BasisFactor::factorize(&mat, &[4, 1, 3]).unwrap();
        for rhs in [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, -2.0, 0.5]] {
            let mut a = rhs.to_vec();
            let mut b = rhs.to_vec();
            f.ftran(&mut a);
            fresh.ftran(&mut b);
            assert_close(&a, &b);

            let mut a = rhs.to_vec();
            let mut b = rhs.to_vec();
            f.btran(&mut a);
            fresh.btran(&mut b);
            assert_close(&a, &b);
        }
    }

    /// FTRAN and BTRAN of a few right-hand sides, as bits.
    fn solve_bits(f: &mut BasisFactor) -> Vec<u64> {
        let mut bits = Vec::new();
        for rhs in [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, -2.0, 0.5]] {
            let (mut a, mut b) = (rhs.to_vec(), rhs.to_vec());
            f.ftran(&mut a);
            f.btran(&mut b);
            bits.extend(a.iter().chain(&b).map(|v| v.to_bits()));
        }
        bits
    }

    #[test]
    fn refactorizing_the_factored_basis_reuses_its_lu() {
        let mat =
            csc_from_rows(3, &[&[2.0, 0.0, 1.0], &[1.0, 3.0, 0.0], &[0.0, 1.0, 4.0]]);
        let basis = [0, 1, 2];
        let mut f = BasisFactor::factorize(&mat, &basis).unwrap();
        let mut w = vec![0.0f64; 3];
        mat.scatter_col(4, 1.0, &mut w);
        f.ftran(&mut w);
        f.push_eta(0, &w).unwrap();

        // The etas go, and the LU in place answers bit for bit as a fresh one.
        assert!(!f.refactorize(&mat, &basis).unwrap(), "the factored basis is reused");
        assert_eq!(f.eta_count(), 0);
        let mut fresh = BasisFactor::factorize(&mat, &basis).unwrap();
        assert_eq!(solve_bits(&mut f), solve_bits(&mut fresh));

        // Another basis is factorized, and a failed one leaves the LU and
        // its etas in place.
        let other = [4, 1, 3];
        assert!(f.refactorize(&mat, &other).unwrap(), "another basis is factorized");
        let mut fresh = BasisFactor::factorize(&mat, &other).unwrap();
        assert_eq!(solve_bits(&mut f), solve_bits(&mut fresh));
        f.push_eta(0, &w).unwrap();
        assert_eq!(f.refactorize(&mat, &[3, 3, 3]).unwrap_err(), SingularBasis);
        assert_eq!(f.eta_count(), 1);
        assert!(!f.refactorize(&mat, &other).unwrap(), "the failure kept the factored basis");
    }

    #[test]
    fn singular_basis_is_reported_not_crashed() {
        // Two copies of the same column cannot form a basis.
        let mat = csc_from_rows(2, &[&[1.0, 1.0], &[2.0, 2.0]]);
        assert_eq!(BasisFactor::factorize(&mat, &[0, 1]).unwrap_err(), SingularBasis);
    }

    #[test]
    fn slack_and_artificial_bases_need_no_elimination() {
        let mat = csc_from_rows(3, &[&[2.0, 0.0, 1.0], &[1.0, 3.0, 0.0], &[0.0, 1.0, 4.0]]);
        let (n, m) = (3, 3);
        for first in [n, n + m] {
            // Positions reversed, so the column permutation is not the identity.
            let basis: Vec<usize> = (0..m).rev().map(|k| first + k).collect();
            let mut f = BasisFactor::factorize(&mat, &basis).unwrap();
            assert_eq!(f.kernel_columns(), 0);
            assert_eq!(f.lu_nnz(), m, "one diagonal entry per column, no fill");
            let mut x = vec![1.0, 2.0, 3.0];
            f.ftran(&mut x);
            assert_close(&x, &[3.0, 2.0, 1.0]);
            let mut y = vec![1.0, 2.0, 3.0];
            f.btran(&mut y);
            assert_close(&y, &[3.0, 2.0, 1.0]);
        }
    }

    #[test]
    fn two_unit_columns_on_one_row_are_singular() {
        let mat = csc_from_rows(2, &[&[3.0, 1.0], &[1.0, 2.0]]);
        // Slack and artificial of row 1.
        assert_eq!(BasisFactor::factorize(&mat, &[3, 5]).unwrap_err(), SingularBasis);
    }

    /// `‖Bx − b‖∞ / (‖B‖∞‖x‖∞ + ‖b‖∞)` for the basis columns `basis` of
    /// `mat`; `transpose` checks `Bᵀx = b` instead.
    fn relative_residual(
        mat: &CscMatrix,
        basis: &[usize],
        x: &[f64],
        b: &[f64],
        transpose: bool,
    ) -> f64 {
        let m = b.len();
        let mut r: Vec<f64> = b.iter().map(|v| -v).collect();
        let mut norm_b = vec![0.0f64; m];
        for (pos, &j) in basis.iter().enumerate() {
            let (rows, vals) = mat.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                let (out, inp) = if transpose { (pos, i) } else { (i, pos) };
                r[out] += v * x[inp];
                norm_b[out] += v.abs();
            }
        }
        let inf = |v: &[f64]| v.iter().fold(0.0f64, |a, x| a.max(x.abs()));
        inf(&r) / (inf(&norm_b) * inf(x) + inf(b))
    }

    #[test]
    fn unit_dominated_random_bases_solve_to_small_residuals() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xfb6);
        for _ in 0..300 {
            let (n, m) = (rng.gen_range(2usize..=10), rng.gen_range(3usize..=14));
            let rows: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| if rng.gen_bool(0.35) { rng.gen_range(-4.0f64..4.0) } else { 0.0 })
                        .collect()
                })
                .collect();
            let row_refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
            let mat = csc_from_rows(n, &row_refs);
            // A few structurals, each taking over a row where it is nonzero
            // (a matching, so the basis is nonsingular with probability
            // one); every other row keeps its slack or its artificial;
            // positions shuffled.
            let mut basis: Vec<usize> = Vec::with_capacity(m);
            let mut free_rows: Vec<usize> = (0..m).collect();
            for j in 0..n {
                let (nonzero_rows, _) = mat.col(j);
                let hits: Vec<usize> =
                    (0..free_rows.len()).filter(|&k| nonzero_rows.contains(&free_rows[k])).collect();
                if basis.len() < m / 3 && !hits.is_empty() && rng.gen_bool(0.7) {
                    basis.push(j);
                    free_rows.swap_remove(hits[rng.gen_range(0..hits.len())]);
                }
            }
            for k in free_rows {
                basis.push(if rng.gen_bool(0.5) { n + k } else { n + m + k });
            }
            for i in (1..basis.len()).rev() {
                basis.swap(i, rng.gen_range(0..=i));
            }
            let mut f = BasisFactor::factorize(&mat, &basis).expect("matched basis");
            assert!(f.kernel_columns() <= m / 3, "only structurals with 2+ nonzeros eliminate");
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0f64..5.0)).collect();
            let mut x = b.clone();
            f.ftran(&mut x);
            let res = relative_residual(&mat, &basis, &x, &b, false);
            assert!(res <= 1e-9, "FTRAN residual {res}");
            let mut y = b.clone();
            f.btran(&mut y);
            let res = relative_residual(&mat, &basis, &y, &b, true);
            assert!(res <= 1e-9, "BTRAN residual {res}");
        }
    }

    #[test]
    fn tiny_eta_pivot_is_rejected() {
        let mat = csc_from_rows(2, &[&[1.0, 0.0], &[0.0, 1.0]]);
        let mut f = BasisFactor::factorize(&mat, &[0, 1]).unwrap();
        let w = vec![0.0, 1e-13];
        assert_eq!(f.push_eta(1, &w).unwrap_err(), SingularBasis);
    }
}
