//! Dense matrices over GF(2⁸), used to build and invert Reed–Solomon
//! generator matrices.

use crate::gf256;
use ear_types::{Error, Result};
use std::fmt;

/// A dense row-major matrix over GF(2⁸).
///
/// ```
/// use ear_erasure::Matrix;
/// let id = Matrix::identity(3);
/// let v = Matrix::vandermonde(3, 3);
/// assert_eq!(&id * &v, v);
/// assert_eq!(v.inverted().unwrap() * v, id);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major byte vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or either dimension is zero.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<u8>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// The `size × size` identity matrix.
    pub fn identity(size: usize) -> Self {
        let mut m = Matrix::zero(size, size);
        for i in 0..size {
            m.set(i, i, 1);
        }
        m
    }

    /// The `rows × cols` Vandermonde matrix `V[i][j] = i^j`.
    ///
    /// Any `cols` rows of this matrix (for `rows <= 256`) are linearly
    /// independent because the evaluation points `0..rows` are distinct.
    ///
    /// # Panics
    ///
    /// Panics if `rows > 256` (evaluation points must stay distinct in
    /// GF(2⁸)).
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "at most 256 distinct evaluation points");
        let mut m = Matrix::zero(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, gf256::pow(i as u8, j));
            }
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u8 {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: u8) {
        assert!(row < self.rows && col < self.cols, "index out of range");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "row out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Returns a new matrix containing only the given rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `indices` is empty.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        assert!(!indices.is_empty(), "must select at least one row");
        let mut m = Matrix::zero(indices.len(), self.cols);
        for (out, &src) in indices.iter().enumerate() {
            let row = self.row(src).to_vec();
            m.data[out * self.cols..(out + 1) * self.cols].copy_from_slice(&row);
        }
        m
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn multiply(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in multiply");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for l in 0..self.cols {
                let a = self.get(i, l);
                if a == 0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = gf256::mul(a, rhs.get(l, j));
                    let cur = out.get(i, j);
                    out.set(i, j, gf256::add(cur, prod));
                }
            }
        }
        out
    }

    /// The inverse of a square matrix, via Gauss–Jordan elimination.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invariant`] if the matrix is not square or is
    /// singular.
    pub fn inverted(&self) -> Result<Matrix> {
        if self.rows != self.cols {
            return Err(Error::Invariant(format!(
                "cannot invert non-square {}x{} matrix",
                self.rows, self.cols
            )));
        }
        let n = self.rows;
        let mut work = self.clone();
        let mut inv = Matrix::identity(n);

        for col in 0..n {
            // Find a pivot row with a nonzero entry in this column.
            let pivot = (col..n)
                .find(|&r| work.get(r, col) != 0)
                .ok_or_else(|| Error::Invariant("matrix is singular".into()))?;
            if pivot != col {
                work.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Scale the pivot row so the pivot becomes 1.
            let p = work.get(col, col);
            if p != 1 {
                let pinv = gf256::inv(p);
                work.scale_row(col, pinv);
                inv.scale_row(col, pinv);
            }
            // Eliminate the column from every other row.
            for r in 0..n {
                if r == col {
                    continue;
                }
                let factor = work.get(r, col);
                if factor != 0 {
                    work.add_scaled_row(r, col, factor);
                    inv.add_scaled_row(r, col, factor);
                }
            }
        }
        Ok(inv)
    }

    /// Whether the matrix is square and nonsingular.
    pub fn is_invertible(&self) -> bool {
        self.inverted().is_ok()
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }

    fn scale_row(&mut self, r: usize, factor: u8) {
        for j in 0..self.cols {
            let v = self.get(r, j);
            self.set(r, j, gf256::mul(v, factor));
        }
    }

    /// `row[dst] ^= factor * row[src]`.
    fn add_scaled_row(&mut self, dst: usize, src: usize, factor: u8) {
        for j in 0..self.cols {
            let v = gf256::mul(self.get(src, j), factor);
            let cur = self.get(dst, j);
            self.set(dst, j, gf256::add(cur, v));
        }
    }
}

impl std::ops::Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.multiply(rhs)
    }
}

impl std::ops::Mul for Matrix {
    type Output = Matrix;
    fn mul(self, rhs: Matrix) -> Matrix {
        self.multiply(&rhs)
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            writeln!(f, "  {:3?}", self.row(r))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_multiplication_is_neutral() {
        let v = Matrix::vandermonde(4, 4);
        let id = Matrix::identity(4);
        assert_eq!(&id * &v, v);
        assert_eq!(&v * &id, v);
    }

    #[test]
    fn inverse_of_vandermonde() {
        for n in 1..=8 {
            let v = Matrix::vandermonde(n, n);
            let vinv = v.inverted().expect("vandermonde is invertible");
            assert_eq!(&v * &vinv, Matrix::identity(n));
            assert_eq!(&vinv * &v, Matrix::identity(n));
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        // Two identical rows.
        let m = Matrix::from_rows(2, 2, vec![1, 2, 1, 2]);
        assert!(m.inverted().is_err());
        assert!(!m.is_invertible());
    }

    #[test]
    fn non_square_inversion_rejected() {
        let m = Matrix::zero(2, 3);
        assert!(m.inverted().is_err());
    }

    #[test]
    fn select_rows_extracts_in_order() {
        let v = Matrix::vandermonde(5, 3);
        let s = v.select_rows(&[4, 0, 2]);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.row(0), v.row(4));
        assert_eq!(s.row(1), v.row(0));
        assert_eq!(s.row(2), v.row(2));
    }

    #[test]
    fn multiply_matches_manual_example() {
        // [1 0; 0 2] * [3; 5] = [3; 2*5]
        let a = Matrix::from_rows(2, 2, vec![1, 0, 0, 2]);
        let b = Matrix::from_rows(2, 1, vec![3, 5]);
        let p = &a * &b;
        assert_eq!(p.get(0, 0), 3);
        assert_eq!(p.get(1, 0), gf256::mul(2, 5));
    }

    #[test]
    fn debug_output_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m:?}").is_empty());
    }
}
