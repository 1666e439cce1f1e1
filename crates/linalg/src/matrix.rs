use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};

use crate::LinalgError;

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse type of the `maleva` numeric stack: feature
/// batches, network weights, Jacobians and covariance matrices are all
/// `Matrix` values. A batch of `n` samples with `m` features is stored as an
/// `n x m` matrix (one sample per row), matching the paper's convention of
/// 491-dimensional API-count feature vectors.
///
/// # Example
///
/// ```
/// use maleva_linalg::Matrix;
///
/// # fn main() -> Result<(), maleva_linalg::LinalgError> {
/// let batch = Matrix::from_rows(&[vec![0.0, 0.5, 1.0], vec![1.0, 0.0, 0.25]])?;
/// assert_eq!(batch.shape(), (2, 3));
/// assert_eq!(batch.get(1, 2), 0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Loads through [`Matrix::from_vec`], so a stored matrix whose `data`
/// does not hold exactly `rows × cols` values is refused at load.
impl<'de> Deserialize<'de> for Matrix {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            rows: usize,
            cols: usize,
            data: Vec<f64>,
        }
        let raw = Raw::deserialize(d)?;
        Matrix::from_vec(raw.rows, raw.cols, raw.data).map_err(D::Error::custom)
    }
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// ```
    /// use maleva_linalg::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.shape(), (2, 3));
    /// assert!(z.iter().all(|v| v == 0.0));
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    ///
    /// ```
    /// use maleva_linalg::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
    /// assert_eq!(m.get(1, 0), 10.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::MalformedData`] if the rows have differing
    /// lengths, and [`LinalgError::Empty`] if `rows` is empty or the rows
    /// themselves are empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        let n = rows.len();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let m = rows[0].len();
        if m == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(n * m);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != m {
                return Err(LinalgError::MalformedData {
                    detail: format!("row {i} has length {}, expected {m}", row.len()),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: n,
            cols: m,
            data,
        })
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::MalformedData`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(LinalgError::MalformedData {
                detail: format!(
                    "flat data has length {}, expected {rows}x{cols}",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a single-row matrix from a slice (a "row vector").
    pub fn row_vector(values: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: values.len(),
            data: values.to_vec(),
        }
    }

    /// Builds a single-column matrix from a slice (a "column vector").
    pub fn col_vector(values: &[f64]) -> Self {
        Matrix {
            rows: values.len(),
            cols: 1,
            data: values.to_vec(),
        }
    }

    /// The `(rows, cols)` shape of the matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements (`rows * cols`).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `col >= cols()`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col]
    }

    /// Sets the element at `(row, col)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows()` or `col >= cols()`.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "index ({row}, {col}) out of bounds for {}x{} matrix",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds ({} cols)", self.cols);
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Borrows the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the underlying row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Iterates over all elements in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.data.iter().copied()
    }

    /// Iterates over the rows of the matrix as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols)
    }

    /// Matrix product `self * rhs`.
    ///
    /// Runs the kernel of the process-wide backend
    /// ([`backend::effective_kind`](crate::backend::effective_kind),
    /// chosen by `--backend` / `MALEVA_BACKEND`). Under the default
    /// `pooled` backend, which partitions large products across the
    /// shared worker pool sized by `MALEVA_THREADS` /
    /// [`pool::set_threads`](crate::pool::set_threads), each output
    /// element's summation order is fixed (ascending `k`, zero-skip),
    /// so results are **bit-identical** to the scalar reference kernel
    /// regardless of blocking or thread count. The `simd` backend is
    /// deterministic but f32-precision: within 1e-5 relative tolerance
    /// of the reference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        crate::backend::effective_kind().matmul(self, rhs)
    }

    /// Transposed-left product `selfᵀ * rhs` without materializing the
    /// transpose (the backprop weight-gradient and covariance shape),
    /// run by the process-wide backend.
    ///
    /// Bit-identical to `self.transpose().matmul(rhs)` under either
    /// backend (for `simd`, both routes produce the same f32 result).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.rows() != rhs.rows()`.
    pub fn matmul_tn(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        crate::backend::effective_kind().matmul_tn(self, rhs)
    }

    /// Transposed-right product `self * rhsᵀ` without materializing the
    /// transpose (the backprop input-gradient shape), run by the
    /// process-wide backend.
    ///
    /// Bit-identical to `self.matmul(&rhs.transpose())` under `pooled`;
    /// within the `simd` tolerance contract otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `self.cols() != rhs.cols()`.
    pub fn matmul_nt(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        crate::backend::effective_kind().matmul_nt(self, rhs)
    }

    /// Matrix-vector product `self * x`, run by the process-wide
    /// backend.
    ///
    /// Bit-identical to `self.matmul(&Matrix::col_vector(x))` flattened
    /// to a vector under `pooled`; within the `simd` tolerance contract
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if
    /// `x.len() != self.cols()`.
    pub fn gemv(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        crate::backend::effective_kind().gemv(self, x)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn add_matrix(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn sub_matrix(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product `self ∘ rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Combines two equal-shaped matrices elementwise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if shapes differ.
    pub fn zip_with<F: Fn(f64, f64) -> f64>(
        &self,
        rhs: &Matrix,
        f: F,
    ) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(rhs.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every element.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Multiplies every element by `k`.
    pub fn scale(&self, k: f64) -> Matrix {
        self.map(|v| v * k)
    }

    /// Adds a row vector to every row (broadcast), as used for bias addition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `bias.len() != cols()`.
    pub fn add_row_broadcast(&self, bias: &[f64]) -> Result<Matrix, LinalgError> {
        if bias.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: (1, bias.len()),
            });
        }
        let mut out = self.clone();
        for r in 0..out.rows {
            for (v, b) in out.row_mut(r).iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
        Ok(out)
    }

    /// Sums each column, producing a length-`cols()` vector.
    ///
    /// This is the reduction used for bias gradients.
    pub fn sum_rows(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        for row in self.rows_iter() {
            for (o, v) in out.iter_mut().zip(row.iter()) {
                *o += v;
            }
        }
        out
    }

    /// Sums each row, producing a length-`rows()` vector.
    pub fn sum_cols(&self) -> Vec<f64> {
        self.rows_iter().map(|row| row.iter().sum()).collect()
    }

    /// Sum of every element.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Returns a new matrix keeping only the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// The index of the maximum element of each row (argmax per row).
    ///
    /// Ties resolve to the lowest index, matching `argmax` conventions.
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.rows_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f64::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Maximum absolute element, or 0 for an empty matrix.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }

    /// Clamps every element into `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamp(&self, lo: f64, hi: f64) -> Matrix {
        assert!(lo <= hi, "clamp bounds inverted: {lo} > {hi}");
        self.map(|v| v.clamp(lo, hi))
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.rows_iter().enumerate() {
            if i >= max_rows {
                writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
                break;
            }
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                if j >= 8 {
                    write!(f, "...")?;
                    break;
                }
                write!(f, "{v:.4}")?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::add_matrix`] for a fallible
    /// version.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_matrix(rhs)
            .expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// Elementwise difference.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::sub_matrix`] for a fallible
    /// version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_matrix(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, k: f64) -> Matrix {
        self.scale(k)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_rows(&[vec![a, b], vec![c, d]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert_eq!(z.len(), 12);
        assert!(z.iter().all(|v| v == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 2.0]]).unwrap(); // 1x3
        let b = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap(); // 3x1
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (1, 1));
        assert_eq!(c.get(0, 0), 7.0);
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.matmul(&b).unwrap_err();
        assert!(matches!(err, LinalgError::DimensionMismatch { .. }));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::MalformedData { .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]).unwrap_err(),
            LinalgError::Empty
        ));
        assert!(matches!(
            Matrix::from_rows(&[vec![]]).unwrap_err(),
            LinalgError::Empty
        ));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 5]).unwrap_err(),
            LinalgError::MalformedData { .. }
        ));
        assert!(Matrix::from_vec(usize::MAX, 2, vec![1.0; 2]).is_err());
    }

    #[test]
    fn add_sub_hadamard() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(10.0, 20.0, 30.0, 40.0);
        assert_eq!(a.add_matrix(&b).unwrap(), m22(11.0, 22.0, 33.0, 44.0));
        assert_eq!(b.sub_matrix(&a).unwrap(), m22(9.0, 18.0, 27.0, 36.0));
        assert_eq!(a.hadamard(&b).unwrap(), m22(10.0, 40.0, 90.0, 160.0));
    }

    #[test]
    fn operator_sugar() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(1.0, 1.0, 1.0, 1.0);
        assert_eq!(&a + &b, m22(2.0, 3.0, 4.0, 5.0));
        assert_eq!(&a - &b, m22(0.0, 1.0, 2.0, 3.0));
        assert_eq!(&a * 2.0, m22(2.0, 4.0, 6.0, 8.0));
        assert_eq!(-&a, m22(-1.0, -2.0, -3.0, -4.0));
    }

    #[test]
    fn broadcast_bias() {
        let a = Matrix::zeros(2, 3);
        let out = a.add_row_broadcast(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(out.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(out.row(1), &[1.0, 2.0, 3.0]);
        assert!(a.add_row_broadcast(&[1.0]).is_err());
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        assert_eq!(a.sum_rows(), vec![9.0, 12.0]);
        assert_eq!(a.sum_cols(), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.sum(), 21.0);
    }

    #[test]
    fn argmax_rows_with_ties() {
        let a = Matrix::from_rows(&[vec![0.1, 0.9], vec![0.5, 0.5], vec![0.7, 0.3]]).unwrap();
        assert_eq!(a.argmax_rows(), vec![1, 0, 0]);
    }

    #[test]
    fn select_rows_and_vstack() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0], vec![3.0, 3.0]]).unwrap();
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
        let v = s.vstack(&a).unwrap();
        assert_eq!(v.rows(), 5);
        assert!(s.vstack(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn clamp_and_max_abs() {
        let a = m22(-2.0, 0.5, 3.0, -0.25);
        assert_eq!(a.max_abs(), 3.0);
        let c = a.clamp(0.0, 1.0);
        assert_eq!(c, m22(0.0, 0.5, 1.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_panics_on_inverted_bounds() {
        Matrix::zeros(1, 1).clamp(1.0, 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let a = Matrix::zeros(1, 1);
        assert!(!format!("{a}").is_empty());
        assert!(!format!("{a:?}").is_empty());
    }

    #[test]
    fn serde_traits_present() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<Matrix>();
    }

    #[test]
    fn row_col_accessors() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.col(2), vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(2, 2).get(2, 0);
    }
}

#[cfg(test)]
mod parallel_matmul_tests {
    use super::*;

    #[test]
    fn large_product_matches_scalar_reference_exactly() {
        // 200x200x200 = 8M work units: crosses the pooled-dispatch
        // threshold, so this exercises worker-pool assembly.
        let a = Matrix::from_fn(200, 200, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.1 - 0.6);
        let b = Matrix::from_fn(200, 200, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
        let big = a.matmul(&b).unwrap();
        let reference = crate::kernels::matmul_scalar(&a, &b).unwrap();
        for (x, y) in big.iter().zip(reference.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn rectangular_large_product_is_correct() {
        let a = Matrix::from_fn(300, 64, |i, j| (i + j) as f64 * 0.01);
        let b = Matrix::from_fn(64, 256, |i, j| (i as f64 - j as f64) * 0.01);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (300, 256));
        // Spot-check one entry against a manual dot product.
        let manual: f64 = (0..64).map(|k| a.get(123, k) * b.get(k, 200)).sum();
        assert_eq!(c.get(123, 200), manual);
    }

    #[test]
    fn transpose_free_products_match_explicit_transposes() {
        let a = Matrix::from_fn(40, 23, |i, j| ((i * 13 + j * 7) % 9) as f64 * 0.2 - 0.8);
        let b = Matrix::from_fn(40, 31, |i, j| ((i * 5 + j * 11) % 7) as f64 * 0.25 - 0.7);
        let tn = a.matmul_tn(&b).unwrap();
        let tn_ref = a.transpose().matmul(&b).unwrap();
        assert_eq!(tn, tn_ref);

        let c = Matrix::from_fn(12, 23, |i, j| (i as f64 - j as f64) * 0.05);
        let nt = c.matmul_nt(&a).unwrap();
        let nt_ref = c.matmul(&a.transpose()).unwrap();
        assert_eq!(nt, nt_ref);

        assert!(a.matmul_tn(&c).is_err());
        assert!(a.matmul_nt(&b).is_err());
    }

    #[test]
    fn gemv_matches_column_matmul() {
        let a = Matrix::from_fn(9, 14, |i, j| ((i * 3 + j) % 5) as f64 * 0.3 - 0.6);
        let x: Vec<f64> = (0..14).map(|i| (i as f64 * 0.41).cos()).collect();
        let y = a.gemv(&x).unwrap();
        let reference = a.matmul(&Matrix::col_vector(&x)).unwrap();
        assert_eq!(y, reference.into_vec());
        assert!(a.gemv(&[1.0]).is_err());
    }
}
