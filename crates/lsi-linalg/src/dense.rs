//! Row-major dense matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

use crate::error::LinalgError;
use crate::parallel;
use crate::vector;
use crate::Result;

/// Rows per transpose-matmul chunk: fixed so chunk boundaries (and hence
/// results) never depend on the thread count.
const MATMUL_ROW_GRAIN: usize = 8;
/// Rows per matvec chunk.
const MATVEC_ROW_GRAIN: usize = 64;
/// Output columns per transpose-side chunk.
const COL_GRAIN: usize = 512;

/// A dense, row-major `f64` matrix.
///
/// Row-major storage matches the access pattern of the IR layer (documents
/// are processed row- or column-at-a-time) and lets rows be handed out as
/// plain slices.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from row-major data; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidDimension {
                op: "from_vec",
                detail: format!("data length {} != rows*cols = {}", data.len(), rows * cols),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds from a slice of equal-length rows.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != c {
                return Err(LinalgError::InvalidDimension {
                    op: "from_rows",
                    detail: format!("row {i} has length {}, expected {c}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Builds a `rows × cols` matrix whose `(i, j)` entry is `f(i, j)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Diagonal matrix from `diag`.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes `self`, returning the row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows, "row index out of bounds");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a fresh vector. Row-major storage means a
    /// column is strided; callers that need repeated column access should
    /// transpose once instead.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols, "column index out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Overwrites column `j` with `v`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        debug_assert_eq!(v.len(), self.rows, "set_col: length mismatch");
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
    }

    /// Iterator over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let row = self.row(i);
            for (j, &x) in row.iter().enumerate() {
                t.data[j * self.rows + i] = x;
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Runs the packed, cache-blocked [`crate::gemm`] kernel: row panels
    /// are distributed over the [`parallel`] executor and each panel runs a
    /// register-tiled micro-kernel over packed operands. The result is
    /// bitwise identical to [`crate::gemm::gemm_reference`] (the classic
    /// ascending-`k` i-k-j loop) for every thread count — see the `gemm`
    /// module docs for the contract.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::gemm::gemm(
            self.rows,
            rhs.cols,
            self.cols,
            &self.data,
            &rhs.data,
            &mut out.data,
        )?;
        Ok(out)
    }

    /// `selfᵀ * rhs` without materializing the transpose.
    ///
    /// Parallel over blocks of output rows (columns of `self`); every
    /// output element accumulates its `k` terms in ascending order, so the
    /// result matches the serial kernel bit for bit.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "transpose_matmul",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        let n = rhs.cols;
        let work = self
            .rows
            .saturating_mul(self.cols)
            .saturating_mul(n)
            .saturating_mul(2);
        parallel::for_chunks_mut(
            &mut out.data,
            MATMUL_ROW_GRAIN * n.max(1),
            work,
            |_, offset, chunk| {
                let i0 = offset / n;
                for k in 0..self.rows {
                    let a_row = self.row(k);
                    let b_row = rhs.row(k);
                    for (r, out_row) in chunk.chunks_mut(n).enumerate() {
                        let aki = a_row[i0 + r];
                        if aki == 0.0 {
                            continue;
                        }
                        vector::axpy(aki, b_row, out_row);
                    }
                }
            },
        );
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix–vector product `self * x` written into a caller-provided
    /// buffer (`out.len()` must equal `nrows`): the allocation-free form
    /// iterative solvers call in a loop. Row blocks run on the [`parallel`]
    /// executor; each element is the same [`vector::dot`] as the serial
    /// kernel.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_into",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let work = self.rows.saturating_mul(self.cols).saturating_mul(2);
        parallel::for_chunks_mut(out, MATVEC_ROW_GRAIN, work, |_, offset, chunk| {
            for (r, o) in chunk.iter_mut().enumerate() {
                *o = vector::dot(self.row(offset + r), x);
            }
        });
        Ok(())
    }

    /// `selfᵀ * x`.
    pub fn matvec_transpose(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.cols];
        self.matvec_transpose_into(x, &mut out)?;
        Ok(out)
    }

    /// `selfᵀ * x` into a caller-provided buffer (`out.len()` must equal
    /// `ncols`). Parallel over output-column blocks: each block accumulates
    /// the rows in ascending order, exactly like the serial single-pass
    /// axpy loop, so results are bitwise thread-count-invariant.
    pub fn matvec_transpose_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_transpose_into",
                left: self.shape(),
                right: (x.len(), 1),
            });
        }
        let cols = self.cols;
        let work = self.rows.saturating_mul(cols).saturating_mul(2);
        parallel::for_chunks_mut(out, COL_GRAIN, work, |_, offset, chunk| {
            chunk.fill(0.0);
            let w = chunk.len();
            for (i, &xi) in x.iter().enumerate() {
                let row_slab = &self.data[i * cols + offset..i * cols + offset + w];
                vector::axpy(xi, row_slab, chunk);
            }
        });
        Ok(())
    }

    /// Elementwise sum.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise difference.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `alpha * self`.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        vector::scale(alpha, &mut out.data);
        out
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// The first `k` columns as a new `rows × k` matrix.
    pub fn columns_prefix(&self, k: usize) -> Result<Matrix> {
        if k > self.cols {
            return Err(LinalgError::InvalidDimension {
                op: "columns_prefix",
                detail: format!("k={k} > ncols={}", self.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, k);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[..k]);
        }
        Ok(out)
    }

    /// The first `k` rows as a new `k × cols` matrix.
    pub fn rows_prefix(&self, k: usize) -> Result<Matrix> {
        if k > self.rows {
            return Err(LinalgError::InvalidDimension {
                op: "rows_prefix",
                detail: format!("k={k} > nrows={}", self.rows),
            });
        }
        Ok(Matrix {
            rows: k,
            cols: self.cols,
            data: self.data[..k * self.cols].to_vec(),
        })
    }

    /// Appends a row (the matrix grows by one row; length must match
    /// `ncols`, except that any row length is accepted when the matrix has
    /// zero rows, defining the column count).
    pub fn push_row(&mut self, row: &[f64]) -> Result<()> {
        if self.rows == 0 && self.cols == 0 {
            self.cols = row.len();
        }
        if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "push_row",
                left: (self.rows, self.cols),
                right: (1, row.len()),
            });
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// True if every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute entrywise difference to `rhs`; `None` on shape
    /// mismatch. A NaN anywhere yields `Some(NaN)` (it is *not* silently
    /// dropped, as a naive `f64::max` fold would). Convenient for tests.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Option<f64> {
        if self.shape() != rhs.shape() {
            return None;
        }
        Some(self.data.iter().zip(&rhs.data).fold(0.0f64, |acc, (a, b)| {
            let d = (a - b).abs();
            if acc.is_nan() || d.is_nan() {
                f64::NAN
            } else {
                acc.max(d)
            }
        }))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{x:>10.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f64) -> bool {
        a.max_abs_diff(b).is_some_and(|d| d <= tol)
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn from_fn_fills_entries() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn set_col_roundtrip() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert!(approx_eq(&t.transpose(), &m, 0.0));
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expect = Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap();
        assert!(approx_eq(&c, &expect, 1e-14));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 3, |i, j| (i + 2 * j) as f64);
        let c = a.matmul(&Matrix::identity(3)).unwrap();
        assert!(approx_eq(&c, &a, 0.0));
    }

    #[test]
    fn matmul_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn transpose_matmul_agrees_with_explicit() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 * 0.5);
        let b = Matrix::from_fn(4, 2, |i, j| (i + j) as f64);
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(approx_eq(&fast, &slow, 1e-12));
    }

    #[test]
    fn matvec_and_transpose_agree_with_matmul() {
        let a = Matrix::from_fn(3, 4, |i, j| ((i + 1) * (j + 2)) as f64);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let y = a.matvec(&x).unwrap();
        for (i, yi) in y.iter().enumerate() {
            assert!((yi - vector::dot(a.row(i), &x)).abs() < 1e-13);
        }
        let z = a.matvec_transpose(&y).unwrap();
        let via_t = a.transpose().matvec(&y).unwrap();
        for (u, v) in z.iter().zip(&via_t) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_wrong_length_errors() {
        let a = Matrix::zeros(2, 3);
        assert!(a.matvec(&[1.0, 2.0]).is_err());
        assert!(a.matvec_transpose(&[1.0]).is_err());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::from_fn(2, 2, |i, j| (i * j) as f64 + 1.0);
        let s = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(approx_eq(&s, &a, 1e-15));
    }

    #[test]
    fn scaled_scales() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]).unwrap();
        let s = a.scaled(-3.0);
        assert_eq!(s.as_slice(), &[-3.0, 6.0]);
    }

    #[test]
    fn columns_prefix_takes_leading_block() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let p = m.columns_prefix(2).unwrap();
        let expect = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 5.0]]).unwrap();
        assert!(approx_eq(&p, &expect, 0.0));
        assert!(m.columns_prefix(4).is_err());
    }

    #[test]
    fn rows_prefix_takes_leading_block() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let p = m.rows_prefix(2).unwrap();
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.row(1), &[3.0, 4.0]);
        assert!(m.rows_prefix(4).is_err());
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        m.push_row(&[3.0, 4.0]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert!(m.push_row(&[1.0]).is_err());
        // Empty matrix adopts the first row's width.
        let mut e = Matrix::zeros(0, 0);
        e.push_row(&[7.0, 8.0, 9.0]).unwrap();
        assert_eq!(e.shape(), (1, 3));
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut m = Matrix::zeros(2, 2);
        assert!(m.is_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.is_finite());
    }

    #[test]
    fn debug_format_does_not_panic_on_large() {
        let m = Matrix::zeros(100, 100);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 100x100"));
    }
}
