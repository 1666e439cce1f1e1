//! Dense linear-algebra kernels for the `maleva` adversarial-malware toolkit.
//!
//! This crate is the numeric substrate for every other `maleva` crate. It is
//! deliberately small, dependency-free (no BLAS), and deterministic: all
//! operations are plain `f64` loops so that experiment results are exactly
//! reproducible across machines.
//!
//! # What lives here
//!
//! * [`Matrix`] — a row-major dense `f64` matrix with the arithmetic needed
//!   by a feed-forward neural network (matmul, transpose, broadcasting row
//!   ops, elementwise maps).
//! * [`backend`] — [`BackendKind`] and the process-wide backend choice
//!   ([`set_backend`] / `MALEVA_BACKEND`, read once) whose kernels
//!   [`Matrix::matmul`], [`Matrix::matmul_tn`], [`Matrix::matmul_nt`] and
//!   [`Matrix::gemv`] run: `pooled` (the default, f64, bit-identical to
//!   the scalar reference) or `simd` (the f32 panel micro-kernel,
//!   1e-5-tolerance contract).
//! * [`kernels`] — cache-blocked matmul/GEMV kernels (plus the scalar
//!   reference they are proven bit-identical to) that the `pooled`
//!   backend is built from.
//! * [`pool`] — the shared worker pool large products are partitioned
//!   over, sized by `MALEVA_THREADS` (read once) / [`pool::set_threads`].
//! * [`norm`] — L1/L2/L∞ norms and distances used by attack-strength and
//!   feature-squeezing measurements.
//! * [`stats`] — column means, variances, covariance matrices.
//! * [`eigen`] — a cyclic Jacobi eigensolver for symmetric matrices.
//! * [`pca`] — principal component analysis built on [`eigen`], used by the
//!   dimensionality-reduction defense.
//!
//! # Example
//!
//! ```
//! use maleva_linalg::Matrix;
//!
//! # fn main() -> Result<(), maleva_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod eigen;
mod error;
pub mod kernels;
mod matrix;
pub mod norm;
pub mod pca;
pub mod pool;
mod simd;
pub mod stats;

pub use backend::{set_backend, BackendKind};
pub use error::LinalgError;
pub use matrix::Matrix;
pub use pca::Pca;
