//! Cross-backend differential suite: every [`BackendKind`] against the
//! scalar f64 reference ([`kernels::matmul_scalar`]), for all four
//! product variants.
//!
//! The contract being pinned (DESIGN.md §13):
//!
//! * `Pooled` — **bit-identical** for arbitrary shapes (including
//!   `0xN` and `1x1`), zero-mass elements, and every thread count;
//! * `Simd` — deterministic, and within `1e-5` *relative* tolerance of
//!   the reference, where the scale for each output element is the
//!   absolute-value product `|a| * |b|` (so cancellation-heavy elements
//!   are judged against the mass that actually flowed through the f32
//!   accumulator, not against a near-zero difference);
//! * every backend returns the same typed
//!   [`LinalgError::DimensionMismatch`] on misshapen operands.
//!
//! Each property calls a [`BackendKind`]'s product methods directly,
//! bypassing the process-global selection, so the properties run in
//! parallel without racing; the selection machinery itself
//! ([`backend::set_backend`] / `MALEVA_BACKEND` / default) is pinned by
//! one sequential test at the bottom that owns the global state in this
//! binary's own process.

use maleva_linalg::backend::{self, kind_from_env};
use maleva_linalg::{kernels, pool, BackendKind, LinalgError, Matrix};
use proptest::prelude::*;

/// Relative tolerance of the Simd contract.
const SIMD_RTOL: f64 = 1e-5;

/// Strategy: one element, with ~30% exact zeros so the f64 zero-skip
/// paths and the Simd no-skip kernel are differentially exercised.
fn element() -> impl Strategy<Value = f64> {
    (0u32..10, -10.0f64..10.0).prop_map(|(z, v)| if z < 3 { 0.0 } else { v })
}

/// Strategy: a `rows x cols` matrix of [`element`]s (either dim may be 0).
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(element(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("shape"))
}

/// Strategy: a conformable `(m x k, k x n)` pair. The ranges cross the
/// `SIMD_MR = 4` row and `SIMD_NR = 16` column tile boundaries (so
/// full-tile, column-tail, and row-tail paths all run) as well as the
/// blocked kernel's `MR = 4` / `MC = 64` boundaries; 0-sized and 1x1
/// products are in range.
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0usize..70, 0usize..24, 0usize..36).prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(k, n)))
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.iter().map(|v| v.to_bits()).collect()
}

fn abs(m: &Matrix) -> Matrix {
    m.map(f64::abs)
}

/// Asserts `got` is within the Simd tolerance contract of `reference`,
/// scaling each element by `scale` (the `|a| * |b|` mass).
fn assert_within_simd_tol(reference: &Matrix, got: &Matrix, scale: &Matrix, what: &str) {
    assert_eq!(reference.shape(), got.shape(), "{what}: shape mismatch");
    for ((r, g), s) in reference.iter().zip(got.iter()).zip(scale.iter()) {
        assert!(
            (r - g).abs() <= SIMD_RTOL * (s + 1.0),
            "{what}: reference {r} vs simd {g} (scale {s})"
        );
    }
}

proptest! {
    #[test]
    fn matmul_f64_backends_bitwise_simd_tolerant(
        (a, b) in matmul_pair(),
        threads in 1usize..9,
    ) {
        pool::set_threads(threads);
        let reference = kernels::matmul_scalar(&a, &b).unwrap();
        let pooled = BackendKind::Pooled.matmul(&a, &b).unwrap();
        prop_assert_eq!(bits(&pooled), bits(&reference));
        let simd = BackendKind::Simd.matmul(&a, &b).unwrap();
        let scale = kernels::matmul_scalar(&abs(&a), &abs(&b)).unwrap();
        assert_within_simd_tol(&reference, &simd, &scale, "matmul");
        pool::set_threads(0);
    }

    #[test]
    fn matmul_tn_f64_backends_bitwise_simd_tolerant(
        (a, b) in (0usize..24, 0usize..70, 0usize..36)
            .prop_flat_map(|(m, k, n)| (matrix(k, m), matrix(k, n))),
    ) {
        let reference = kernels::matmul_scalar(&a.transpose(), &b).unwrap();
        let pooled = BackendKind::Pooled.matmul_tn(&a, &b).unwrap();
        prop_assert_eq!(bits(&pooled), bits(&reference));
        let simd = BackendKind::Simd.matmul_tn(&a, &b).unwrap();
        let scale = kernels::matmul_scalar(&abs(&a).transpose(), &abs(&b)).unwrap();
        assert_within_simd_tol(&reference, &simd, &scale, "matmul_tn");
    }

    #[test]
    fn matmul_nt_f64_backends_bitwise_simd_tolerant(
        (a, b) in (0usize..70, 0usize..24, 0usize..70)
            .prop_flat_map(|(m, k, n)| (matrix(m, k), matrix(n, k))),
    ) {
        let reference = kernels::matmul_scalar(&a, &b.transpose()).unwrap();
        let pooled = BackendKind::Pooled.matmul_nt(&a, &b).unwrap();
        prop_assert_eq!(bits(&pooled), bits(&reference));
        let simd = BackendKind::Simd.matmul_nt(&a, &b).unwrap();
        let scale = kernels::matmul_scalar(&abs(&a), &abs(&b).transpose()).unwrap();
        assert_within_simd_tol(&reference, &simd, &scale, "matmul_nt");
    }

    #[test]
    fn gemv_f64_backends_bitwise_simd_tolerant(
        (a, x) in (0usize..70, 0usize..24)
            .prop_flat_map(|(m, k)| (matrix(m, k), prop::collection::vec(element(), k))),
    ) {
        let col = Matrix::from_vec(x.len(), 1, x.clone()).expect("column vector");
        let reference = kernels::matmul_scalar(&a, &col).unwrap();
        let pooled = BackendKind::Pooled.gemv(&a, &x).unwrap();
        let pooled_bits: Vec<u64> = pooled.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(pooled_bits, bits(&reference));
        let simd = BackendKind::Simd.gemv(&a, &x).unwrap();
        let abs_col = Matrix::from_vec(x.len(), 1, x.iter().map(|v| v.abs()).collect())
            .expect("column vector");
        let scale = kernels::matmul_scalar(&abs(&a), &abs_col).unwrap();
        for ((r, g), s) in reference.iter().zip(simd.iter()).zip(scale.iter()) {
            prop_assert!(
                (r - g).abs() <= SIMD_RTOL * (s + 1.0),
                "gemv: reference {} vs simd {} (scale {})", r, g, s
            );
        }
    }

    #[test]
    fn simd_is_deterministic_across_thread_counts(
        (a, b) in matmul_pair(),
        t1 in 1usize..9,
        t2 in 1usize..9,
    ) {
        pool::set_threads(t1);
        let first = BackendKind::Simd.matmul(&a, &b).unwrap();
        pool::set_threads(t2);
        let second = BackendKind::Simd.matmul(&a, &b).unwrap();
        pool::set_threads(0);
        prop_assert_eq!(bits(&first), bits(&second));
    }
}

/// The proptest shapes stay below [`pool::PARALLEL_WORK_THRESHOLD`], so
/// the Pooled and Simd backends never actually partition there. This
/// pins the parallel paths: a product just past the threshold, swept
/// over thread counts, must stay bit-identical (Pooled) /
/// bit-reproducible and within tolerance (Simd).
#[test]
fn parallel_paths_hold_their_contracts_past_the_threshold() {
    // 160 * 160 * 160 = 4.096M multiply-adds >= the 4M threshold.
    let a = Matrix::from_fn(160, 160, |i, j| ((i * 31 + j * 17) % 13) as f64 * 0.1 - 0.6);
    let b = Matrix::from_fn(160, 160, |i, j| ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5);
    assert!(pool::parallel_worthwhile(160 * 160 * 160));
    let reference = kernels::matmul_scalar(&a, &b).unwrap();
    let scale = kernels::matmul_scalar(&abs(&a), &abs(&b)).unwrap();
    let mut simd_runs: Vec<Vec<u64>> = Vec::new();
    for threads in [1, 2, 3, 8] {
        pool::set_threads(threads);
        let pooled = BackendKind::Pooled.matmul(&a, &b).unwrap();
        assert_eq!(
            bits(&pooled),
            bits(&reference),
            "pooled at {threads} threads"
        );
        let simd = BackendKind::Simd.matmul(&a, &b).unwrap();
        assert_within_simd_tol(&reference, &simd, &scale, "simd past threshold");
        simd_runs.push(bits(&simd));
    }
    pool::set_threads(0);
    for run in &simd_runs[1..] {
        assert_eq!(run, &simd_runs[0], "simd thread-count determinism");
    }
}

/// Satellite: negative coverage for `matmul_tn` / `matmul_nt` / `gemv`
/// (and `matmul`), which previously had none — every backend must
/// reject misshapen operands with the same typed error carrying the
/// shapes the caller actually passed.
#[test]
fn dimension_mismatch_is_typed_and_identical_across_backends() {
    let a = Matrix::zeros(3, 4);
    let b = Matrix::zeros(3, 4); // conformable for tn, not for matmul/nt… see below
    let c = Matrix::zeros(5, 6); // conformable with nothing here
    let x = vec![0.0; 7]; // wrong length for gemv against `a`
    for be in BackendKind::ALL {
        let err = be.matmul(&a, &b).unwrap_err();
        assert!(
            matches!(
                err,
                LinalgError::DimensionMismatch {
                    left: (3, 4),
                    right: (3, 4),
                }
            ),
            "{be} matmul: {err:?}"
        );

        let err = be.matmul_tn(&a, &c).unwrap_err();
        assert!(
            matches!(
                err,
                LinalgError::DimensionMismatch {
                    left: (3, 4),
                    right: (5, 6),
                }
            ),
            "{be} matmul_tn: {err:?}"
        );

        let err = be.matmul_nt(&a, &c).unwrap_err();
        assert!(
            matches!(
                err,
                LinalgError::DimensionMismatch {
                    left: (3, 4),
                    right: (5, 6),
                }
            ),
            "{be} matmul_nt: {err:?}"
        );

        let err = be.gemv(&a, &x).unwrap_err();
        assert!(
            matches!(
                err,
                LinalgError::DimensionMismatch {
                    left: (3, 4),
                    right: (7, 1),
                }
            ),
            "{be} gemv: {err:?}"
        );

        // The happy paths next to the failures, so a backend cannot
        // pass by rejecting everything.
        assert!(be.matmul_tn(&a, &b).is_ok());
        assert!(be.gemv(&a, &[0.0; 4]).is_ok());
    }
}

/// Backend *selection*: override beats env beats default. Runs the
/// whole sequence in one test because the override and `MALEVA_BACKEND`
/// are process-global; nothing else in this binary consults them
/// (every other test calls a `BackendKind`'s methods directly).
#[test]
fn selection_resolves_override_then_env_then_default() {
    // Whatever the ambient env says (the CI simd leg exports
    // MALEVA_BACKEND=simd), an explicit override must win.
    for kind in BackendKind::ALL {
        backend::set_backend(Some(kind));
        assert_eq!(backend::effective_kind(), kind);
    }
    backend::set_backend(None);

    // With no override, the env decides (invalid values, the retired
    // `scalar` among them, are ignored)…
    assert_eq!(kind_from_env(Some("pooled")), BackendKind::Pooled);
    assert_eq!(kind_from_env(Some("SIMD")), BackendKind::Simd);
    assert_eq!(kind_from_env(Some(" simd ")), BackendKind::Simd);
    assert_eq!(kind_from_env(Some("scalar")), BackendKind::Pooled);
    assert_eq!(kind_from_env(Some("not-a-backend")), BackendKind::Pooled);
    // …and with neither, the default is the seed behavior: Pooled.
    assert_eq!(kind_from_env(None), BackendKind::Pooled);

    // The env is read once per process: once a product has run,
    // changing `MALEVA_BACKEND` changes nothing.
    let a = Matrix::identity(2);
    a.matmul(&a).unwrap();
    let resolved = backend::effective_kind();
    assert_eq!(
        resolved,
        kind_from_env(std::env::var("MALEVA_BACKEND").ok().as_deref())
    );
    let other = match resolved {
        BackendKind::Pooled => BackendKind::Simd,
        BackendKind::Simd => BackendKind::Pooled,
    };
    let ambient = std::env::var("MALEVA_BACKEND").ok();
    std::env::set_var("MALEVA_BACKEND", other.name());
    assert_eq!(backend::effective_kind(), resolved);
    match ambient {
        Some(value) => std::env::set_var("MALEVA_BACKEND", value),
        None => std::env::remove_var("MALEVA_BACKEND"),
    }
}
