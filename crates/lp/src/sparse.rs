//! Compressed sparse column (CSC) storage for the revised simplex.
//!
//! The FBB ILP's columns are extremely sparse — an assignment variable
//! `x[i][j]` appears in its row's Eq. 3 constraint, the Eq. 4 linking row of
//! its level, and only the Eq. 2 rows of paths that actually cross row `i`
//! — so per-column storage is what lets a pivot cost O(fill) instead of the
//! dense tableau's O(m·n). The matrix is built once per model (columns =
//! structurals, then one slack and one artificial per row) and never mutated
//! afterwards: the simplex tracks basis changes in the LU/eta factorization
//! ([`crate::factor`]), not in the matrix.

use crate::approx::is_zero;
use crate::model::Sense;
use crate::Model;

/// An immutable m×n sparse matrix in compressed-sparse-column form.
#[derive(Debug, Clone)]
pub(crate) struct CscMatrix {
    rows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Stored non-zero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column `j` as parallel `(row indices, values)` slices.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let span = self.col_ptr[j]..self.col_ptr[j + 1];
        (&self.row_idx[span.clone()], &self.values[span])
    }

    /// Sparse dot product of column `j` with a dense vector.
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        let mut acc = 0.0;
        for (&i, &v) in rows.iter().zip(vals) {
            acc += v * dense[i];
        }
        acc
    }

    /// Scatters `scale * column j` into a dense accumulator.
    pub fn scatter_col(&self, j: usize, scale: f64, dense: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&i, &v) in rows.iter().zip(vals) {
            dense[i] += scale * v;
        }
    }

    /// Builds the simplex working matrix `[A | I_slack | I_art]` for a
    /// model: `n` structural columns transposed out of the row-major
    /// constraint storage, then one `+e_k` slack and one `+e_k` artificial
    /// column per row. Unlike a textbook tableau, rows are **not**
    /// sign-normalized — the artificial start is made feasible by choosing
    /// each artificial's bounds from the sign of its row residual instead,
    /// which keeps the matrix identical across every branch-and-bound node
    /// and is what makes basis warm-starting sound.
    pub fn build(model: &Model) -> CscMatrix {
        let n = model.vars.len();
        let m = model.constraints.len();
        let ntot = n + 2 * m;

        // Count structural entries per column, then prefix-sum.
        let mut col_ptr = vec![0usize; ntot + 1];
        for c in &model.constraints {
            for &(v, _) in &c.terms {
                col_ptr[v + 1] += 1;
            }
        }
        for k in 0..m {
            col_ptr[n + k + 1] = 1; // slack
            col_ptr[n + m + k + 1] = 1; // artificial
        }
        for j in 0..ntot {
            col_ptr[j + 1] += col_ptr[j];
        }

        let nnz = col_ptr[ntot];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = col_ptr.clone();
        for (k, c) in model.constraints.iter().enumerate() {
            for &(v, coef) in &c.terms {
                let slot = cursor[v];
                cursor[v] += 1;
                row_idx[slot] = k;
                values[slot] = coef;
            }
        }
        for k in 0..m {
            for base in [n + k, n + m + k] {
                let slot = cursor[base];
                cursor[base] += 1;
                row_idx[slot] = k;
                values[slot] = 1.0;
            }
        }
        CscMatrix { rows: m, col_ptr, row_idx, values }
    }
}

/// A row-wise (CSR) copy of a [`CscMatrix`], for products `yᵀA` with a
/// sparse `y`: the dual simplex's pivot row `α_r = ρᵀA` and its reduced
/// costs `d = c − Aᵀy`.
#[derive(Debug, Clone)]
pub(crate) struct CsrMatrix {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Transposes `csc` into row-wise storage.
    pub fn from_csc(csc: &CscMatrix) -> CsrMatrix {
        let mut row_ptr = vec![0usize; csc.rows() + 1];
        for &i in &csc.row_idx {
            row_ptr[i + 1] += 1;
        }
        for i in 0..csc.rows() {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = row_ptr[csc.rows()];
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let mut cursor = row_ptr.clone();
        for j in 0..csc.cols() {
            let (rows, vals) = csc.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                col_idx[cursor[i]] = j;
                values[cursor[i]] = v;
                cursor[i] += 1;
            }
        }
        CsrMatrix { row_ptr, col_idx, values }
    }

    /// Adds `Σ_i a_ij · y_i` into `out[j]` for every stored column `j`,
    /// visiting only the rows with a nonzero `y_i`, in increasing row order.
    /// On an all-zero `out` the result is `f64`-bit-identical to
    /// [`CscMatrix::col_dot`]: both sum the same nonzero products in the
    /// same order, and the products with `y_i = 0` that `col_dot` also adds
    /// cannot change a sum that starts at `+0.0`.
    pub fn scatter_transpose(&self, y: &[f64], out: &mut [f64]) {
        for (i, &yi) in y.iter().enumerate() {
            if is_zero(yi) {
                continue;
            }
            let span = self.row_ptr[i]..self.row_ptr[i + 1];
            for (&j, &v) in self.col_idx[span.clone()].iter().zip(&self.values[span]) {
                out[j] += v * yi;
            }
        }
    }
}

/// Slack bounds implied by a constraint sense (`lhs + slack = rhs`).
pub(crate) fn slack_bounds(sense: Sense) -> (f64, f64) {
    match sense {
        Sense::Le => (0.0, f64::INFINITY),
        Sense::Ge => (f64::NEG_INFINITY, 0.0),
        Sense::Eq => (0.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sense;

    #[test]
    fn build_transposes_rows_into_columns() {
        // Rows: [2x + 3y <= 5], [y - z = 1].
        let mut model = Model::new();
        let x = model.add_continuous(0.0, 1.0, 0.0);
        let y = model.add_continuous(0.0, 1.0, 0.0);
        let z = model.add_continuous(0.0, 1.0, 0.0);
        model.add_constraint(vec![(x, 2.0), (y, 3.0)], Sense::Le, 5.0).unwrap();
        model.add_constraint(vec![(y, 1.0), (z, -1.0)], Sense::Eq, 1.0).unwrap();

        let csc = CscMatrix::build(&model);
        assert_eq!(csc.rows(), 2);
        assert_eq!(csc.cols(), 3 + 2 + 2);
        assert_eq!(csc.nnz(), 4 + 2 + 2);

        assert_eq!(csc.col(x), (&[0usize][..], &[2.0][..]));
        assert_eq!(csc.col(y), (&[0usize, 1][..], &[3.0, 1.0][..]));
        assert_eq!(csc.col(z), (&[1usize][..], &[-1.0][..]));
        // Slacks then artificials are unit columns.
        for k in 0..2 {
            assert_eq!(csc.col(3 + k), (&[k][..], &[1.0][..]));
            assert_eq!(csc.col(3 + 2 + k), (&[k][..], &[1.0][..]));
        }
    }

    #[test]
    fn dot_and_scatter_agree_with_dense_arithmetic() {
        let mut model = Model::new();
        let x = model.add_continuous(0.0, 1.0, 0.0);
        let y = model.add_continuous(0.0, 1.0, 0.0);
        model.add_constraint(vec![(x, 1.0), (y, 2.0)], Sense::Le, 1.0).unwrap();
        model.add_constraint(vec![(x, -3.0)], Sense::Ge, 0.0).unwrap();
        let csc = CscMatrix::build(&model);

        let dense = [0.5, 4.0];
        assert!((csc.col_dot(x, &dense) - (0.5 - 12.0)).abs() < 1e-12);
        let mut acc = [1.0, 1.0];
        csc.scatter_col(x, 2.0, &mut acc);
        assert!((acc[0] - 3.0).abs() < 1e-12);
        assert!((acc[1] - (1.0 - 6.0)).abs() < 1e-12);
    }

    #[test]
    fn row_wise_products_are_bit_identical_to_col_dot() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5eed);
        for _ in 0..200 {
            let (n, m) = (rng.gen_range(1usize..=12), rng.gen_range(1usize..=10));
            let mut model = Model::new();
            for _ in 0..n {
                model.add_continuous(0.0, 1.0, 0.0);
            }
            for _ in 0..m {
                let mut terms = Vec::new();
                for j in 0..n {
                    if rng.gen_bool(0.4) {
                        let scale = 10f64.powi(rng.gen_range(-4i32..=4));
                        terms.push((j, rng.gen_range(-3.0f64..3.0) * scale));
                    }
                }
                model.add_constraint(terms, Sense::Le, 0.0).unwrap();
            }
            let csc = CscMatrix::build(&model);
            let csr = CsrMatrix::from_csc(&csc);
            let rho: Vec<f64> = (0..m)
                .map(|_| match rng.gen_range(0u32..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.gen_range(-2.0f64..2.0) * 10f64.powi(rng.gen_range(-8i32..=8)),
                })
                .collect();
            let mut alpha = vec![0.0; csc.cols()];
            csr.scatter_transpose(&rho, &mut alpha);
            for (j, a) in alpha.iter().enumerate() {
                assert_eq!(a.to_bits(), csc.col_dot(j, &rho).to_bits(), "column {j}, rho {rho:?}");
            }
        }
    }

    #[test]
    fn slack_bounds_match_senses() {
        assert_eq!(slack_bounds(Sense::Le), (0.0, f64::INFINITY));
        assert_eq!(slack_bounds(Sense::Ge), (f64::NEG_INFINITY, 0.0));
        assert_eq!(slack_bounds(Sense::Eq), (0.0, 0.0));
    }
}
