//! The process-wide choice of kernel for the dense-product hot path.
//!
//! Every GEMM-family product in the workspace — `nn` forward/backward
//! and `input_jacobian`, `stats::covariance`, `pca` transforms, the
//! serve scoring path — goes through [`Matrix::matmul`] /
//! [`Matrix::matmul_tn`] / [`Matrix::matmul_nt`] / [`Matrix::gemv`],
//! and those methods call the same-named method of the
//! [`BackendKind`] that [`effective_kind`] resolves. Swapping the
//! backend swaps the kernel under the entire workload at once; nothing
//! else in the workspace names a concrete kernel.
//!
//! Backend resolution, in priority order (mirroring
//! [`pool::effective_threads`]):
//!
//! 1. [`set_backend`] — programmatic override (the CLI `--backend`
//!    flags call this), `None` clears it;
//! 2. the `MALEVA_BACKEND` environment variable (`pooled` or `simd`;
//!    unparseable values, the retired `scalar` included, are ignored,
//!    like `MALEVA_THREADS`), read once per process ([`kind_from_env`]);
//! 3. the default, [`BackendKind::Pooled`] — the seed behavior.
//!
//! # Contract
//!
//! | backend   | precision | vs `kernels::matmul_scalar` | parallel      |
//! |-----------|-----------|-----------------------------|---------------|
//! | `Pooled`  | f64       | bit-identical               | large matmuls |
//! | `Simd`    | f32       | ≤ 1e-5 relative tolerance   | large matmuls |
//!
//! Both are deterministic: given the same operands, at any thread
//! count, they return the same bytes on every run. The differential
//! proptest suite (`tests/backend_differential.rs`) pins both columns
//! of the contract.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::{kernels, pool, simd, LinalgError, Matrix};

/// The kernel family every `Matrix` product runs.
///
/// Each product method owns its dimension checks (through the shared
/// helpers in `kernels`), so the typed
/// [`LinalgError::DimensionMismatch`] a caller sees is identical under
/// either backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum BackendKind {
    /// The cache-blocked f64 kernels, with large matmuls
    /// row-partitioned over the shared pool
    /// ([`pool::parallel_worthwhile`] decides, sized by
    /// [`pool::effective_threads`]). Bit-identical to
    /// [`kernels::matmul_scalar`] at every thread count. The
    /// transpose-free and gemv products are always single-threaded
    /// (their panel sizes in this workload never reach the threshold).
    /// The default.
    Pooled = 1,
    /// f32 panel micro-kernels written to autovectorize (DESIGN.md
    /// §13); deterministic, within 1e-5 relative tolerance of
    /// [`kernels::matmul_scalar`].
    Simd = 2,
}

impl BackendKind {
    /// All selectable kinds, in documentation order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Pooled, BackendKind::Simd];

    /// The lowercase name `--backend` / `MALEVA_BACKEND` accept.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Pooled => "pooled",
            BackendKind::Simd => "simd",
        }
    }

    /// Matrix product `a * b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `a.cols() != b.rows()`.
    pub fn matmul(self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        match self {
            BackendKind::Pooled => {
                let work = a.rows() * a.cols() * b.cols();
                if pool::parallel_worthwhile(work) {
                    kernels::matmul_pooled(a, b, pool::effective_threads())
                } else {
                    kernels::matmul_blocked(a, b)
                }
            }
            BackendKind::Simd => simd::matmul(a, b),
        }
    }

    /// Transposed-left product `aᵀ * b` (no transpose materialized).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `a.rows() != b.rows()`.
    pub fn matmul_tn(self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        match self {
            BackendKind::Pooled => {
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
            BackendKind::Simd => simd::matmul_tn(a, b),
        }
    }

    /// Transposed-right product `a * bᵀ` (no transpose materialized).
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `a.cols() != b.cols()`.
    pub fn matmul_nt(self, a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
        match self {
            BackendKind::Pooled => {
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
            BackendKind::Simd => simd::matmul_nt(a, b),
        }
    }

    /// Matrix-vector product `a * x`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] if `x.len() != a.cols()`.
    pub fn gemv(self, a: &Matrix, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        match self {
            BackendKind::Pooled => {
                kernels::check_gemv_dims(a, x)?;
                let mut out = vec![0.0; a.rows()];
                kernels::gemv_into(a.as_slice(), a.rows(), a.cols(), x, &mut out);
                Ok(out)
            }
            BackendKind::Simd => simd::gemv(a, x),
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
            "pooled" => Ok(BackendKind::Pooled),
            "simd" => Ok(BackendKind::Simd),
            other => Err(format!("unknown backend `{other}` (expected pooled|simd)")),
        }
    }
}

/// `0` means "no override"; otherwise the overriding kind's `u8`
/// discriminant.
static BACKEND_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Overrides the backend every `Matrix` product dispatches through
/// (`None` clears the override and falls back to `MALEVA_BACKEND` /
/// the `Pooled` default). Called once at startup by `--backend` flags;
/// takes effect for all subsequent products process-wide.
pub fn set_backend(kind: Option<BackendKind>) {
    BACKEND_OVERRIDE.store(kind.map_or(0, |k| k as u8), Ordering::SeqCst);
}

/// The backend a `MALEVA_BACKEND` value selects: the kind it names, or
/// [`BackendKind::Pooled`] when it is unset or names no backend.
pub fn kind_from_env(value: Option<&str>) -> BackendKind {
    value
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(BackendKind::Pooled)
}

/// The [`BackendKind`] products will dispatch through right now. See
/// the module docs for the resolution order; the environment is read
/// on the first call that finds no override, and never again.
pub fn effective_kind() -> BackendKind {
    let tag = BACKEND_OVERRIDE.load(Ordering::SeqCst);
    if let Some(kind) = BackendKind::ALL.into_iter().find(|&k| k as u8 == tag) {
        return kind;
    }
    static FROM_ENV: OnceLock<BackendKind> = OnceLock::new();
    *FROM_ENV.get_or_init(|| kind_from_env(std::env::var("MALEVA_BACKEND").ok().as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_parse_and_name() {
        for kind in BackendKind::ALL {
            assert_eq!(kind.name().parse::<BackendKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.name());
            assert_ne!(kind as u8, 0, "0 is the no-override tag");
        }
        assert_eq!(" SIMD ".parse::<BackendKind>().unwrap(), BackendKind::Simd);
        let err = "scalar".parse::<BackendKind>().unwrap_err();
        assert!(err.contains("pooled|simd"), "{err}");
        assert!("blas".parse::<BackendKind>().is_err());
        assert!("".parse::<BackendKind>().is_err());
    }

    // `set_backend` / `effective_kind` resolution is pinned in the
    // `backend_differential` integration test, which owns its own
    // process — flipping the process-global override here would race
    // the bit-exactness unit tests running in parallel threads.
}
