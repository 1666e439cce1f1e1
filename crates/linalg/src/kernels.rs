//! Cache-blocked, optionally pool-parallel matrix kernels.
//!
//! Every kernel here preserves one invariant to the bit: **each output
//! element accumulates its products in ascending-`k` order, skipping
//! terms whose left-operand element is exactly `0.0`, starting from
//! `0.0`.** That is precisely what the original scalar i-k-j kernel
//! ([`matmul_scalar`], kept as the reference) does, so the blocked and
//! pooled kernels — and the transpose-free [`Matrix::matmul_tn`] /
//! [`Matrix::matmul_nt`] paths built on them — return bit-identical
//! results for every shape, blocking parameter, and thread count.
//! Reordering *rows*, *columns*, or `k`-*panels* never reorders the
//! additions that feed a single output element, which is the only thing
//! IEEE-754 rounding cares about.
//!
//! Blocking scheme (sized for common L1/L2 caches; see DESIGN.md §10):
//!
//! * `MR = 4` output rows are produced together so each streamed row of
//!   `b` is used four times per load;
//! * `MC = 64` rows form the outer row panel (the panel of `out` being
//!   accumulated stays resident);
//! * `KC = 256` limits the `k`-panel so the `b` panel (`KC x NC` f64s)
//!   fits in L2;
//! * `NC = 512` limits the column panel for the same reason.
//!
//! Parallel dispatch partitions **output rows** into `threads`
//! contiguous chunks: chunk 0 runs on the calling thread, the rest are
//! shipped to the shared [`pool`] as owned copies (the
//! right-hand side is shared behind one `Arc`'d copy). Chunks are glued
//! back by index, so scheduling order cannot affect the result.

use std::sync::mpsc::channel;
use std::sync::Arc;

use crate::pool::{self, Job};
use crate::{LinalgError, Matrix};

/// Output rows produced together by the register-blocked inner kernel.
pub const MR: usize = 4;
/// Rows per outer panel (the `out` panel under accumulation stays hot).
pub const MC: usize = 64;
/// Maximum `k`-panel depth.
pub const KC: usize = 256;
/// Maximum column-panel width.
pub const NC: usize = 512;

/// Re-export of the canonical dispatch threshold, which lives in
/// [`pool`] next to the worker machinery it sizes work for (see
/// [`pool::parallel_worthwhile`]).
pub use crate::pool::PARALLEL_WORK_THRESHOLD;

/// Dimension check for `a * b` (`a.cols == b.rows`), shared by every
/// backend so the typed error is identical regardless of dispatch.
pub(crate) fn check_matmul_dims(a: &Matrix, b: &Matrix) -> Result<(), LinalgError> {
    if a.cols() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    Ok(())
}

/// Dimension check for `aᵀ * b` (`a.rows == b.rows`), reporting the
/// *untransposed* shapes the caller passed.
pub(crate) fn check_tn_dims(a: &Matrix, b: &Matrix) -> Result<(), LinalgError> {
    if a.rows() != b.rows() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    Ok(())
}

/// Dimension check for `a * bᵀ` (`a.cols == b.cols`).
pub(crate) fn check_nt_dims(a: &Matrix, b: &Matrix) -> Result<(), LinalgError> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    Ok(())
}

/// Dimension check for `a * x` (`x.len == a.cols`); the vector is
/// reported as an `(len, 1)` column shape.
pub(crate) fn check_gemv_dims(a: &Matrix, x: &[f64]) -> Result<(), LinalgError> {
    if x.len() != a.cols() {
        return Err(LinalgError::DimensionMismatch {
            left: a.shape(),
            right: (x.len(), 1),
        });
    }
    Ok(())
}

/// The original scalar i-k-j kernel, kept verbatim as the bit-exactness
/// reference for the blocked and pooled kernels (proptests compare
/// against this).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn matmul_scalar(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    check_matmul_dims(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    let out_data = out.as_mut_slice();
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        let out_row = &mut out_data[i * n..(i + 1) * n];
        for (kx, &a_ik) in a_row.iter().enumerate() {
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &b_data[kx * n..(kx + 1) * n];
            for (o, &b_kj) in out_row.iter_mut().zip(b_row.iter()) {
                *o += a_ik * b_kj;
            }
        }
    }
    Ok(out)
}

/// Cache-blocked single-threaded matmul, bit-identical to
/// [`matmul_scalar`].
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `a.cols() != b.rows()`.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    check_matmul_dims(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    block_into(a.as_slice(), m, k, b.as_slice(), n, out.as_mut_slice());
    Ok(out)
}

/// Cache-blocked matmul partitioned over `threads` row chunks on the
/// shared worker pool, bit-identical to [`matmul_scalar`] for every
/// thread count.
///
/// Chunk 0 is computed on the calling thread; chunks `1..threads` own a
/// copy of their `a` rows plus a shared copy of `b` and run on the pool.
/// `threads` is clamped to `[1, min(rows, MAX_POOL_WORKERS)]`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `a.cols() != b.rows()`.
///
/// # Panics
///
/// Panics if a pool worker's chunk panicked (numeric kernels cannot
/// panic themselves; this guards pool integrity bugs).
pub fn matmul_pooled(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix, LinalgError> {
    check_matmul_dims(a, b)?;
    let (m, k) = a.shape();
    let n = b.cols();
    let threads = threads.clamp(1, pool::MAX_POOL_WORKERS).min(m.max(1));
    if threads <= 1 {
        return matmul_blocked(a, b);
    }
    let mut out = Matrix::zeros(m, n);
    let chunk_rows = m.div_ceil(threads);
    let b_shared: Arc<Vec<f64>> = Arc::new(b.as_slice().to_vec());
    let (tx, rx) = channel::<(usize, Vec<f64>)>();
    let mut jobs: Vec<Job> = Vec::with_capacity(threads - 1);
    let mut row0 = chunk_rows; // chunk 0 stays on the calling thread
    let mut chunk_idx = 0usize;
    while row0 < m {
        let rows_here = chunk_rows.min(m - row0);
        let a_block = a.as_slice()[row0 * k..(row0 + rows_here) * k].to_vec();
        let b_arc = Arc::clone(&b_shared);
        let tx_chunk = tx.clone();
        jobs.push(Box::new(move || {
            let mut local = vec![0.0; rows_here * n];
            block_into(&a_block, rows_here, k, &b_arc, n, &mut local);
            let _ = tx_chunk.send((chunk_idx, local));
        }));
        row0 += rows_here;
        chunk_idx += 1;
    }
    drop(tx);
    let submitted = jobs.len();
    pool::submit(jobs);

    let rows0 = chunk_rows.min(m);
    block_into(
        &a.as_slice()[..rows0 * k],
        rows0,
        k,
        b.as_slice(),
        n,
        &mut out.as_mut_slice()[..rows0 * n],
    );

    for _ in 0..submitted {
        let (idx, local) = rx
            .recv()
            .expect("linalg pool worker dropped its matmul chunk (worker panic)");
        let begin = (idx + 1) * chunk_rows;
        out.as_mut_slice()[begin * n..begin * n + local.len()].copy_from_slice(&local);
    }
    Ok(out)
}

/// The blocked inner kernel: `out (m x n) += a (m x k) * b (k x n)` over
/// flat row-major slices, with `out` assumed zeroed. Accumulation order
/// per output element is ascending `k` with `a == 0.0` skip — identical
/// to the scalar reference.
fn block_into(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for ii in (0..m).step_by(MC) {
        let im = MC.min(m - ii);
        for jj in (0..n).step_by(NC) {
            let jn = NC.min(n - jj);
            for kk in (0..k).step_by(KC) {
                let kn = KC.min(k - kk);
                let mut i = ii;
                while i + MR <= ii + im {
                    // Four disjoint output-row windows for register reuse.
                    let (r0, rest) = out[i * n..].split_at_mut(n);
                    let (r1, rest) = rest.split_at_mut(n);
                    let (r2, rest) = rest.split_at_mut(n);
                    let (r3, _) = rest.split_at_mut(n);
                    let o0 = &mut r0[jj..jj + jn];
                    let o1 = &mut r1[jj..jj + jn];
                    let o2 = &mut r2[jj..jj + jn];
                    let o3 = &mut r3[jj..jj + jn];
                    for kx in kk..kk + kn {
                        let a0 = a[i * k + kx];
                        let a1 = a[(i + 1) * k + kx];
                        let a2 = a[(i + 2) * k + kx];
                        let a3 = a[(i + 3) * k + kx];
                        let b_row = &b[kx * n + jj..kx * n + jj + jn];
                        if a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0 {
                            for (j, &bv) in b_row.iter().enumerate() {
                                o0[j] += a0 * bv;
                                o1[j] += a1 * bv;
                                o2[j] += a2 * bv;
                                o3[j] += a3 * bv;
                            }
                        } else {
                            // Per-row zero skip keeps scalar semantics
                            // (a `0.0 * b` term is *omitted*, not added).
                            if a0 != 0.0 {
                                for (o, &bv) in o0.iter_mut().zip(b_row.iter()) {
                                    *o += a0 * bv;
                                }
                            }
                            if a1 != 0.0 {
                                for (o, &bv) in o1.iter_mut().zip(b_row.iter()) {
                                    *o += a1 * bv;
                                }
                            }
                            if a2 != 0.0 {
                                for (o, &bv) in o2.iter_mut().zip(b_row.iter()) {
                                    *o += a2 * bv;
                                }
                            }
                            if a3 != 0.0 {
                                for (o, &bv) in o3.iter_mut().zip(b_row.iter()) {
                                    *o += a3 * bv;
                                }
                            }
                        }
                    }
                    i += MR;
                }
                // Row tail (< MR rows left in this panel).
                while i < ii + im {
                    let o = &mut out[i * n + jj..i * n + jj + jn];
                    for kx in kk..kk + kn {
                        let av = a[i * k + kx];
                        if av == 0.0 {
                            continue;
                        }
                        let b_row = &b[kx * n + jj..kx * n + jj + jn];
                        for (ov, &bv) in o.iter_mut().zip(b_row.iter()) {
                            *ov += av * bv;
                        }
                    }
                    i += 1;
                }
            }
        }
    }
}

/// `a^T * b` without materializing the transpose: `a` is `(r x ca)`,
/// `b` is `(r x cb)`, the result is `(ca x cb)`.
///
/// Bit-identical to `a.transpose().matmul(b)`: output element `(i, j)`
/// accumulates `a[k, i] * b[k, j]` for ascending `k`, skipping
/// `a[k, i] == 0.0`, exactly as the scalar kernel would after a
/// transpose. Output rows are processed in `MC`-wide panels so the
/// accumulating panel stays cache-resident.
pub(crate) fn matmul_tn_into(
    a: &[f64],
    rows: usize,
    ca: usize,
    b: &[f64],
    cb: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), rows * ca);
    debug_assert_eq!(b.len(), rows * cb);
    debug_assert_eq!(out.len(), ca * cb);
    for ii in (0..ca).step_by(MC) {
        let iend = (ii + MC).min(ca);
        for kx in 0..rows {
            let a_row = &a[kx * ca..(kx + 1) * ca];
            let b_row = &b[kx * cb..(kx + 1) * cb];
            for i in ii..iend {
                let v = a_row[i];
                if v == 0.0 {
                    continue;
                }
                let o = &mut out[i * cb..(i + 1) * cb];
                for (ov, &bv) in o.iter_mut().zip(b_row.iter()) {
                    *ov += v * bv;
                }
            }
        }
    }
}

/// Rows of `b` that [`matmul_nt_into`] dots against one row of `a` at a
/// time, one register accumulator each.
const NR_NT: usize = 8;

/// `a * b^T` without materializing the transpose: `a` is `(ra x c)`,
/// `b` is `(rb x c)`, the result is `(ra x rb)`.
///
/// Bit-identical to `a.matmul(&b.transpose())`: output element `(i, j)`
/// is the dot product of row `i` of `a` and row `j` of `b`, accumulated
/// in ascending `k` with the `a[i, k] == 0.0` skip. Rows of `b` are
/// visited in `MC`-wide panels so the panel being dotted stays
/// cache-resident. Inside a panel, `NR_NT` rows of `b` are dotted
/// against the same row of `a` together: each has its own accumulator,
/// so the adds form `NR_NT` independent chains instead of one, while
/// every single chain still sees its terms in ascending `k` with the
/// same skips.
pub(crate) fn matmul_nt_into(
    a: &[f64],
    ra: usize,
    c: usize,
    b: &[f64],
    rb: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), ra * c);
    debug_assert_eq!(b.len(), rb * c);
    debug_assert_eq!(out.len(), ra * rb);
    for jj in (0..rb).step_by(MC) {
        let jend = (jj + MC).min(rb);
        for i in 0..ra {
            let a_row = &a[i * c..(i + 1) * c];
            let o = &mut out[i * rb..(i + 1) * rb];
            let mut j = jj;
            while j + NR_NT <= jend {
                let rows: [&[f64]; NR_NT] =
                    std::array::from_fn(|r| &b[(j + r) * c..(j + r + 1) * c]);
                let mut acc = [0.0; NR_NT];
                for (kx, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    for (acc_r, row) in acc.iter_mut().zip(&rows) {
                        *acc_r += av * row[kx];
                    }
                }
                o[j..j + NR_NT].copy_from_slice(&acc);
                j += NR_NT;
            }
            // Panel tail (< NR_NT rows of `b` left).
            for (j, o_j) in (j..jend).zip(&mut o[j..jend]) {
                let b_row = &b[j * c..(j + 1) * c];
                let mut acc = 0.0;
                for (kx, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    acc += av * b_row[kx];
                }
                *o_j = acc;
            }
        }
    }
}

/// Matrix-vector product `a * x` over flat slices; `out[i]` accumulates
/// `a[i, k] * x[k]` in ascending `k`, skipping `a[i, k] == 0.0` — the
/// same order [`matmul_scalar`] uses with a one-column right-hand side.
pub(crate) fn gemv_into(a: &[f64], m: usize, k: usize, x: &[f64], out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(x.len(), k);
    debug_assert_eq!(out.len(), m);
    for (i, o) in out.iter_mut().enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        let mut acc = 0.0;
        for (kx, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            acc += av * x[kx];
        }
        *o = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut s = seed.wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (s >> 33) as f64 / (1u64 << 31) as f64;
            if u < 0.15 {
                0.0 // exercise the zero-skip path
            } else {
                u - 0.5
            }
        })
    }

    fn assert_bit_identical(x: &Matrix, y: &Matrix, what: &str) {
        assert_eq!(x.shape(), y.shape(), "{what}: shape mismatch");
        for (a, b) in x.iter().zip(y.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: value mismatch");
        }
    }

    #[test]
    fn blocked_matches_scalar_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (4, 4, 4),
            (5, 3, 9),
            (63, 17, 65),
            (64, 256, 512),
            (65, 257, 513),
            (130, 31, 7),
        ] {
            let a = mat(m, k, (m * 1000 + k) as u64);
            let b = mat(k, n, (k * 1000 + n) as u64);
            let reference = matmul_scalar(&a, &b).unwrap();
            let blocked = matmul_blocked(&a, &b).unwrap();
            assert_bit_identical(&reference, &blocked, "blocked");
        }
    }

    #[test]
    fn pooled_matches_scalar_for_every_thread_count() {
        let a = mat(37, 23, 7);
        let b = mat(23, 19, 8);
        let reference = matmul_scalar(&a, &b).unwrap();
        for threads in [1, 2, 3, 8, 64] {
            let pooled = matmul_pooled(&a, &b, threads).unwrap();
            assert_bit_identical(&reference, &pooled, "pooled");
        }
    }

    #[test]
    fn degenerate_shapes_work() {
        let a = Matrix::zeros(0, 5);
        let b = mat(5, 3, 1);
        assert_eq!(matmul_blocked(&a, &b).unwrap().shape(), (0, 3));
        assert_eq!(matmul_pooled(&a, &b, 4).unwrap().shape(), (0, 3));
        let a1 = mat(1, 1, 2);
        let b1 = mat(1, 1, 3);
        let r = matmul_scalar(&a1, &b1).unwrap();
        assert_bit_identical(&r, &matmul_blocked(&a1, &b1).unwrap(), "1x1");
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matmul_scalar(&a, &b).is_err());
        assert!(matmul_blocked(&a, &b).is_err());
        assert!(matmul_pooled(&a, &b, 4).is_err());
    }

    #[test]
    fn tn_matches_transpose_then_matmul() {
        let a = mat(29, 13, 11);
        let b = mat(29, 17, 12);
        let reference = matmul_scalar(&a.transpose(), &b).unwrap();
        let mut out = Matrix::zeros(13, 17);
        matmul_tn_into(a.as_slice(), 29, 13, b.as_slice(), 17, out.as_mut_slice());
        assert_bit_identical(&reference, &out, "tn");
    }

    #[test]
    fn nt_matches_matmul_then_transpose() {
        let a = mat(21, 15, 13);
        let b = mat(33, 15, 14);
        let reference = matmul_scalar(&a, &b.transpose()).unwrap();
        let mut out = Matrix::zeros(21, 33);
        matmul_nt_into(a.as_slice(), 21, 15, b.as_slice(), 33, out.as_mut_slice());
        assert_bit_identical(&reference, &out, "nt");
    }

    #[test]
    fn nt_register_block_matches_scalar_reference_at_every_tail() {
        // `rb` covers a lone row, a tail-only panel, exact blocks of
        // `NR_NT` and blocks plus tails; `c` covers the quick and paper
        // backward widths. Every fourth element of `a` is an exact zero
        // and every seventh a `-0.0`, both of which must be skipped;
        // `b` carries signed zeros too. Column `c / 2` of `a` is all
        // zeros against infinities in `b`: a term that is not skipped
        // turns its element into NaN.
        for ra in [1, 2, 3] {
            for c in [1, 43, 491] {
                for rb in [1, 7, 8, 9, 16, 17] {
                    let mut a = mat(ra, c, (ra * 1000 + c) as u64);
                    for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
                        if idx % 4 == 1 || (c > 1 && idx % c == c / 2) {
                            *v = 0.0;
                        } else if idx % 7 == 3 {
                            *v = -0.0;
                        }
                    }
                    let mut b = mat(rb, c, (rb * 1000 + c) as u64);
                    for (idx, v) in b.as_mut_slice().iter_mut().enumerate() {
                        if c > 1 && idx % c == c / 2 {
                            *v = f64::INFINITY;
                        } else if idx % 5 == 0 {
                            *v = -0.0;
                        }
                    }
                    let reference = matmul_scalar(&a, &b.transpose()).unwrap();
                    let mut out = Matrix::zeros(ra, rb);
                    matmul_nt_into(a.as_slice(), ra, c, b.as_slice(), rb, out.as_mut_slice());
                    assert_bit_identical(&reference, &out, &format!("nt {ra}x{c}·({rb}x{c})ᵀ"));
                }
            }
        }
    }

    #[test]
    fn gemv_matches_one_column_matmul() {
        let a = mat(19, 27, 15);
        let x: Vec<f64> = (0..27).map(|i| (i as f64 * 0.73).sin()).collect();
        let reference = matmul_scalar(&a, &Matrix::col_vector(&x)).unwrap();
        let mut out = vec![0.0; 19];
        gemv_into(a.as_slice(), 19, 27, &x, &mut out);
        for (r, o) in reference.iter().zip(out.iter()) {
            assert_eq!(r.to_bits(), o.to_bits());
        }
    }
}
