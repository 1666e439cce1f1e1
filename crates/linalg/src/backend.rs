//! Pluggable dispatch for the dense-product hot path.
//!
//! Every GEMM-family product in the workspace — `nn` forward/backward
//! and `input_jacobian`, `stats::covariance`, `pca` transforms, the
//! serve scoring path — goes through [`Matrix::matmul`] /
//! [`Matrix::matmul_tn`] / [`Matrix::matmul_nt`] / [`Matrix::gemv`],
//! and those methods dispatch through the process-wide
//! [`LinalgBackend`] selected here. Swapping the backend swaps the
//! kernel under the entire workload at once; nothing else in the
//! workspace names a concrete kernel.
//!
//! Backend resolution, in priority order (mirroring
//! [`pool::set_threads`]):
//!
//! 1. [`set_backend`] — programmatic override (the CLI `--backend`
//!    flags call this), `None` clears it;
//! 2. the `MALEVA_BACKEND` environment variable (`scalar`, `pooled`,
//!    `simd`; unparseable values are ignored, like `MALEVA_THREADS`);
//! 3. the default, [`BackendKind::Pooled`] — the seed behavior.
//!
//! # Contract
//!
//! | backend   | precision | vs scalar reference        | parallel      |
//! |-----------|-----------|----------------------------|---------------|
//! | `Scalar`  | f64       | *is* the reference         | never         |
//! | `Pooled`  | f64       | bit-identical              | large matmuls |
//! | `Simd`    | f32       | ≤ 1e-5 relative tolerance  | large matmuls |
//!
//! All three are deterministic: given the same operands (and for
//! `Pooled`/`Simd`, any thread count) they return the same bytes on
//! every run. The differential proptest suite
//! (`tests/backend_differential.rs`) pins both columns of the contract.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::{kernels, pool, simd, LinalgError, Matrix};

/// The four product shapes every backend must implement.
///
/// Implementations own their dimension checks (through the shared
/// helpers in `kernels`), so the typed
/// [`LinalgError::DimensionMismatch`] a caller sees is identical no
/// matter which backend is active.
pub trait LinalgBackend: Send + Sync {
    /// Which [`BackendKind`] this implementation is.
    fn kind(&self) -> BackendKind;

    /// Matrix product `a * b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `a.cols() != b.rows()`.
    fn matmul(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError>;

    /// Transposed-left product `aᵀ * b` (no transpose materialized).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `a.rows() != b.rows()`.
    fn matmul_tn(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError>;

    /// Transposed-right product `a * bᵀ` (no transpose materialized).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `a.cols() != b.cols()`.
    fn matmul_nt(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError>;

    /// Matrix-vector product `a * x`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x.len() != a.cols()`.
    fn gemv(&self, a: &Matrix, x: &[f64]) -> Result<Vec<f64>, LinalgError>;
}

/// Names one of the built-in [`LinalgBackend`] implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The plain i-k-j f64 reference kernel — slow, and the definition
    /// of correct for everything else.
    Scalar,
    /// Cache-blocked f64 kernels with row-partitioned pool dispatch
    /// for large matmuls; bit-identical to `Scalar` at every thread
    /// count. The default.
    Pooled,
    /// f32 panel micro-kernels written to autovectorize; deterministic,
    /// within 1e-5 relative tolerance of `Scalar`.
    Simd,
}

impl BackendKind {
    /// All selectable kinds, in documentation order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Scalar, BackendKind::Pooled, BackendKind::Simd];

    /// The lowercase name `--backend` / `MALEVA_BACKEND` accept.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Pooled => "pooled",
            BackendKind::Simd => "simd",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(BackendKind::Scalar),
            "pooled" => Ok(BackendKind::Pooled),
            "simd" => Ok(BackendKind::Simd),
            other => Err(format!(
                "unknown backend `{other}` (expected scalar|pooled|simd)"
            )),
        }
    }
}

/// `0` means "no override"; otherwise `BackendKind as usize + 1`.
static BACKEND_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn kind_to_tag(kind: BackendKind) -> usize {
    match kind {
        BackendKind::Scalar => 1,
        BackendKind::Pooled => 2,
        BackendKind::Simd => 3,
    }
}

fn tag_to_kind(tag: usize) -> Option<BackendKind> {
    match tag {
        1 => Some(BackendKind::Scalar),
        2 => Some(BackendKind::Pooled),
        3 => Some(BackendKind::Simd),
        _ => None,
    }
}

/// Overrides the backend every `Matrix` product dispatches through
/// (`None` clears the override and falls back to `MALEVA_BACKEND` /
/// the `Pooled` default). Called once at startup by `--backend` flags;
/// takes effect for all subsequent products process-wide.
pub fn set_backend(kind: Option<BackendKind>) {
    BACKEND_OVERRIDE.store(kind.map_or(0, kind_to_tag), Ordering::SeqCst);
}

/// The [`BackendKind`] products will dispatch through right now. See
/// the module docs for the resolution order.
pub fn effective_kind() -> BackendKind {
    if let Some(kind) = tag_to_kind(BACKEND_OVERRIDE.load(Ordering::SeqCst)) {
        return kind;
    }
    if let Ok(raw) = std::env::var("MALEVA_BACKEND") {
        if let Ok(kind) = raw.parse::<BackendKind>() {
            return kind;
        }
    }
    BackendKind::Pooled
}

/// The active backend instance ([`effective_kind`] resolved to its
/// implementation). This is what `Matrix` products call.
pub fn active() -> &'static dyn LinalgBackend {
    of(effective_kind())
}

/// The backend instance for `kind`, independent of the process-wide
/// selection — tests and benchmarks use this to compare backends
/// side-by-side without mutating global state.
pub fn of(kind: BackendKind) -> &'static dyn LinalgBackend {
    match kind {
        BackendKind::Scalar => &Scalar,
        BackendKind::Pooled => &Pooled,
        BackendKind::Simd => &Simd,
    }
}

/// The f64 reference backend: every product is routed through the
/// scalar i-k-j kernel (transposes materialized where needed), so its
/// output *defines* what `Pooled` must reproduce bitwise.
pub struct Scalar;

impl LinalgBackend for Scalar {
    fn kind(&self) -> BackendKind {
        BackendKind::Scalar
    }

    fn matmul(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        kernels::matmul_scalar(a, b)
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        kernels::check_tn_dims(a, b)?;
        kernels::matmul_scalar(&a.transpose(), b)
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        kernels::check_nt_dims(a, b)?;
        kernels::matmul_scalar(a, &b.transpose())
    }

    fn gemv(&self, a: &Matrix, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        kernels::check_gemv_dims(a, x)?;
        Ok(kernels::matmul_scalar(a, &Matrix::col_vector(x))?.into_vec())
    }
}

/// The default backend: the cache-blocked f64 kernels, with large
/// matmuls row-partitioned over the shared pool
/// ([`pool::parallel_worthwhile`] decides, sized by
/// [`pool::effective_threads`]). Bit-identical to [`Scalar`] at every
/// thread count. The transpose-free and gemv products are always
/// single-threaded (their panel sizes in this workload never reach the
/// threshold).
pub struct Pooled;

impl LinalgBackend for Pooled {
    fn kind(&self) -> BackendKind {
        BackendKind::Pooled
    }

    fn matmul(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        let work = a.rows() * a.cols() * b.cols();
        if pool::parallel_worthwhile(work) {
            kernels::matmul_pooled(a, b, pool::effective_threads())
        } else {
            kernels::matmul_blocked(a, b)
        }
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        kernels::check_tn_dims(a, b)?;
        let mut out = Matrix::zeros(a.cols(), b.cols());
        kernels::matmul_tn_into(
            a.as_slice(),
            a.rows(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            out.as_mut_slice(),
        );
        Ok(out)
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        kernels::check_nt_dims(a, b)?;
        let mut out = Matrix::zeros(a.rows(), b.rows());
        kernels::matmul_nt_into(
            a.as_slice(),
            a.rows(),
            a.cols(),
            b.as_slice(),
            b.rows(),
            out.as_mut_slice(),
        );
        Ok(out)
    }

    fn gemv(&self, a: &Matrix, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        kernels::check_gemv_dims(a, x)?;
        let mut out = vec![0.0; a.rows()];
        kernels::gemv_into(a.as_slice(), a.rows(), a.cols(), x, &mut out);
        Ok(out)
    }
}

/// The f32 panel micro-kernel backend (DESIGN.md §13): deterministic,
/// within 1e-5 relative tolerance of [`Scalar`], and the fastest
/// option on SIMD-capable hardware.
pub struct Simd;

impl LinalgBackend for Simd {
    fn kind(&self) -> BackendKind {
        BackendKind::Simd
    }

    fn matmul(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        simd::matmul(a, b)
    }

    fn matmul_tn(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        simd::matmul_tn(a, b)
    }

    fn matmul_nt(&self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        simd::matmul_nt(a, b)
    }

    fn gemv(&self, a: &Matrix, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        simd::gemv(a, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_parse_and_name() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
            assert_eq!(tag_to_kind(kind_to_tag(kind)), Some(kind));
        }
        assert_eq!(" SIMD ".parse::<BackendKind>().unwrap(), BackendKind::Simd);
        assert!("blas".parse::<BackendKind>().is_err());
        assert!("".parse::<BackendKind>().is_err());
    }

    #[test]
    fn of_returns_the_matching_backend() {
        for kind in BackendKind::ALL {
            assert_eq!(of(kind).kind(), kind);
        }
    }

    // `set_backend` / `effective_kind` resolution is pinned in the
    // `backend_differential` integration test, which owns its own
    // process — flipping the process-global override here would race
    // the bit-exactness unit tests running in parallel threads.
}
