//! `linalg_bench` — kernel-level throughput baseline for the
//! cache-blocked matmul stack, written as `BENCH_linalg.json`.
//!
//! ```text
//! linalg_bench [--threads N] [--reps-scale X] [--out PATH] [--out-dir DIR]
//! ```
//!
//! Three kernels are timed at the paper's real shapes — the 4-layer
//! target model's 491→128-style layers at batch 1/8/64/512 and the
//! Table IV substitute model's 491→1200→1500→1300 layers at training
//! batch sizes — plus two end-to-end probes (one training epoch of the
//! target architecture; one JSMA-style per-row probability Jacobian):
//!
//! * `scalar` — the original i-k-j reference kernel;
//! * `blocked` — the cache-blocked single-threaded kernel;
//! * `pooled` — the blocked kernel partitioned over the worker pool
//!   (`--threads`, `MALEVA_THREADS`, or hardware default);
//! * `simd` — the f32 panel micro-kernel backend (DESIGN.md §13),
//!   checked against the scalar reference within its 1e-5 relative
//!   tolerance instead of bitwise.
//!
//! The backward pass's transpose-free product `a · bᵀ` is timed on its
//! own at the shapes every layer backward meets — the input-gradient
//! products of a quick-width and a paper-width Jacobian
//! (`2×43 · (491×43)ᵀ`, `2×512 · (491×512)ᵀ`) and a paper-width
//! training minibatch (`256×256 · (512×256)ᵀ`) — next to `matmul` on the
//! pre-transposed operand, both single-threaded f64.
//! `nt_vs_matmul` is the smallest `matmul`-over-`matmul_nt` time ratio
//! across those shapes: the transpose-free kernel at its weakest.
//!
//! The run **fails** unless every blocked/pooled/nt result is
//! bit-identical to the scalar kernel, every simd result sits within
//! tolerance, the best f64 speedup at batch >= 64 reaches 1.5x, and the
//! best `scalar_vs_simd` ratio on the Table IV substitute shapes at
//! batch >= 64 reaches 1.5x — the floors the CI perf gate then defends
//! against regression (see `bench_gate`, which also gates
//! `nt_vs_matmul`).

use std::process::ExitCode;
use std::time::Instant;

use maleva_linalg::{kernels, pool, BackendKind, Matrix};
use maleva_nn::{Activation, NetworkBuilder, TrainConfig, Trainer};
use serde::Serialize;

struct Args {
    threads: usize,
    reps_scale: f64,
    out: String,
    out_dir: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads: 0,
        reps_scale: 1.0,
        out: "BENCH_linalg.json".to_string(),
        out_dir: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("--{name} needs a value"));
        match arg.as_str() {
            "--threads" => {
                args.threads = value("threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
            }
            "--reps-scale" => {
                args.reps_scale = value("reps-scale")?
                    .parse()
                    .map_err(|e| format!("bad --reps-scale: {e}"))?;
                if args.reps_scale <= 0.0 {
                    return Err("--reps-scale must be positive".into());
                }
            }
            "--out" => args.out = value("out")?,
            "--out-dir" => args.out_dir = Some(value("out-dir")?),
            "--help" | "-h" => {
                println!(
                    "usage: linalg_bench [--threads N] [--reps-scale X] [--out PATH] [--out-dir DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// One benchmarked GEMM shape: `(batch x k) * (k x n)`.
#[derive(Serialize)]
struct ShapeResult {
    name: String,
    batch: usize,
    k: usize,
    n: usize,
    reps: usize,
    scalar_gflops: f64,
    blocked_gflops: f64,
    pooled_gflops: f64,
    simd_gflops: f64,
    blocked_speedup: f64,
    pooled_speedup: f64,
    simd_speedup: f64,
    bit_identical: bool,
    simd_within_tolerance: bool,
}

/// One backward-pass product `a (ra x c) · b (rb x c)ᵀ`: the
/// transpose-free kernel against `matmul` on the pre-transposed `b`.
#[derive(Serialize)]
struct NtShapeResult {
    name: String,
    ra: usize,
    c: usize,
    rb: usize,
    reps: usize,
    nt_gflops: f64,
    matmul_gflops: f64,
    /// `matmul` time over `matmul_nt` time; above 1 the transpose-free
    /// kernel is the faster of the two.
    nt_vs_matmul: f64,
    bit_identical: bool,
}

/// The whole `BENCH_linalg.json` document.
#[derive(Serialize)]
struct BenchReport {
    bench: &'static str,
    threads: usize,
    bit_identical: bool,
    /// Headline gate metric: best speedup over the scalar kernel
    /// (blocked or pooled) across shapes with batch >= 64.
    speedup_batch64: f64,
    /// Best blocked-only (single-thread) speedup at batch >= 64 —
    /// isolates cache blocking from parallelism.
    blocked_speedup_batch64: f64,
    /// Best simd-over-scalar GFLOP/s ratio on the Table IV substitute
    /// shapes at batch >= 64 — the f32 micro-kernel's headline, gated
    /// with a hard 1.5x floor here and a regression gate in CI.
    scalar_vs_simd: f64,
    /// Every simd result within 1e-5 relative tolerance of the scalar
    /// reference (the Simd backend's correctness contract).
    simd_within_tolerance: bool,
    shapes: Vec<ShapeResult>,
    /// Smallest `nt_vs_matmul` over `nt_shapes`: the backward kernel's
    /// speed relative to `matmul` at its weakest backward shape.
    nt_vs_matmul: f64,
    nt_shapes: Vec<NtShapeResult>,
    /// One seeded training epoch of the target architecture
    /// (491 -> 512 -> 256 -> 2, batch 256, 512 samples).
    epoch_ms: f64,
    /// One JSMA-style per-row probability Jacobian on the same
    /// architecture (the per-iteration attack cost).
    jsma_row_jacobian_us: f64,
}

/// Deterministic pseudo-random matrix with ~15% exact zeros, matching
/// the ReLU-sparsified activations the kernels see in training.
fn test_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_add(0x9E3779B97F4A7C15);
    Matrix::from_fn(rows, cols, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let u = (s >> 33) as f64 / (1u64 << 31) as f64;
        if u < 0.15 {
            0.0
        } else {
            u - 0.5
        }
    })
}

fn best_secs(reps: usize, mut f: impl FnMut() -> Matrix) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let out = f();
        let el = t.elapsed().as_secs_f64();
        assert!(!out.is_empty());
        best = best.min(el);
    }
    best
}

fn bit_identical(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The Simd backend's correctness contract, matching the cross-backend
/// differential suite: every element within 1e-5 of the f64 scalar
/// reference, relative to the accumulated absolute mass |A|·|B|.
fn within_simd_tolerance(reference: &Matrix, got: &Matrix, a: &Matrix, b: &Matrix) -> bool {
    if reference.shape() != got.shape() {
        return false;
    }
    let abs_a = Matrix::from_fn(a.rows(), a.cols(), |r, c| a.get(r, c).abs());
    let abs_b = Matrix::from_fn(b.rows(), b.cols(), |r, c| b.get(r, c).abs());
    let scale = kernels::matmul_scalar(&abs_a, &abs_b).expect("abs-mass scale");
    let ok = reference
        .iter()
        .zip(got.iter())
        .zip(scale.iter())
        .all(|((r, g), s)| (r - g).abs() <= 1e-5 * (s + 1.0));
    ok
}

fn bench_shape(
    name: &str,
    batch: usize,
    k: usize,
    n: usize,
    reps: usize,
    threads: usize,
) -> ShapeResult {
    let a = test_matrix(batch, k, (batch * 1_000_000 + k * 1000 + n) as u64);
    let b = test_matrix(k, n, (k * 1_000_000 + n) as u64);

    let simd = BackendKind::Simd;
    let reference = kernels::matmul_scalar(&a, &b).expect("scalar kernel");
    let blocked = kernels::matmul_blocked(&a, &b).expect("blocked kernel");
    let pooled = kernels::matmul_pooled(&a, &b, threads).expect("pooled kernel");
    let simd_out = simd.matmul(&a, &b).expect("simd backend");
    let identical = bit_identical(&reference, &blocked) && bit_identical(&reference, &pooled);
    let simd_ok = within_simd_tolerance(&reference, &simd_out, &a, &b);

    let scalar_s = best_secs(reps, || kernels::matmul_scalar(&a, &b).expect("scalar"));
    let blocked_s = best_secs(reps, || kernels::matmul_blocked(&a, &b).expect("blocked"));
    let pooled_s = best_secs(reps, || {
        kernels::matmul_pooled(&a, &b, threads).expect("pooled")
    });
    let simd_s = best_secs(reps, || simd.matmul(&a, &b).expect("simd"));

    let gflops = |secs: f64| 2.0 * (batch * k * n) as f64 / secs / 1e9;
    ShapeResult {
        name: name.to_string(),
        batch,
        k,
        n,
        reps,
        scalar_gflops: gflops(scalar_s),
        blocked_gflops: gflops(blocked_s),
        pooled_gflops: gflops(pooled_s),
        simd_gflops: gflops(simd_s),
        blocked_speedup: scalar_s / blocked_s,
        pooled_speedup: scalar_s / pooled_s,
        simd_speedup: scalar_s / simd_s,
        bit_identical: identical,
        simd_within_tolerance: simd_ok,
    }
}

fn bench_nt_shape(name: &str, ra: usize, c: usize, rb: usize, reps: usize) -> NtShapeResult {
    let a = test_matrix(ra, c, (ra * 1_000_000 + c * 1000 + rb) as u64);
    let b = test_matrix(rb, c, (rb * 1_000_000 + c) as u64);
    let bt = b.transpose();
    let pooled = BackendKind::Pooled;
    let nt = pooled.matmul_nt(&a, &b).expect("nt kernel");
    let reference = kernels::matmul_scalar(&a, &bt).expect("scalar kernel");
    let via_matmul = kernels::matmul_blocked(&a, &bt).expect("blocked kernel");
    let identical = bit_identical(&reference, &nt) && bit_identical(&reference, &via_matmul);

    let nt_s = best_secs(reps, || pooled.matmul_nt(&a, &b).expect("nt"));
    let matmul_s = best_secs(reps, || kernels::matmul_blocked(&a, &bt).expect("blocked"));
    let gflops = |secs: f64| 2.0 * (ra * c * rb) as f64 / secs / 1e9;
    NtShapeResult {
        name: name.to_string(),
        ra,
        c,
        rb,
        reps,
        nt_gflops: gflops(nt_s),
        matmul_gflops: gflops(matmul_s),
        nt_vs_matmul: matmul_s / nt_s,
        bit_identical: identical,
    }
}

/// One seeded epoch of the target architecture on synthetic data.
fn epoch_probe() -> f64 {
    let samples = 512;
    let x = test_matrix(samples, 491, 77);
    let labels: Vec<usize> = (0..samples).map(|i| i % 2).collect();
    let mut net = NetworkBuilder::new(491)
        .layer(512, Activation::ReLU)
        .layer(256, Activation::ReLU)
        .layer(2, Activation::Identity)
        .seed(42)
        .build()
        .expect("target-architecture network");
    let config = TrainConfig::new()
        .epochs(1)
        .batch_size(256)
        .learning_rate(0.01)
        .seed(42);
    let t = Instant::now();
    Trainer::new(config)
        .fit(&mut net, &x, &labels)
        .expect("one training epoch");
    t.elapsed().as_secs_f64() * 1e3
}

/// The per-iteration JSMA cost: one probability Jacobian of a 491-dim
/// sample against the target architecture.
fn jsma_row_probe() -> f64 {
    let net = NetworkBuilder::new(491)
        .layer(512, Activation::ReLU)
        .layer(256, Activation::ReLU)
        .layer(2, Activation::Identity)
        .seed(7)
        .build()
        .expect("target-architecture network");
    let sample: Vec<f64> = (0..491).map(|i| ((i * 37) % 11) as f64 / 11.0).collect();
    let reps = 20;
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let jac = net
            .probability_jacobian(&sample, 1.0)
            .expect("probability jacobian");
        let el = t.elapsed().as_secs_f64();
        assert_eq!(jac.shape(), (2, 491));
        best = best.min(el);
    }
    best * 1e6
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.threads > 0 {
        pool::set_threads(args.threads);
    }
    let threads = pool::effective_threads();
    eprintln!("[linalg_bench] timing kernels with {threads} thread(s) ...");

    // The paper's shapes: the 4-layer target model's layer products at
    // serving/training batch sizes, then the Table IV substitute model
    // (491 -> 1200 -> 1500 -> 1300 -> 2) at attack/training batches.
    let scale = |r: usize| ((r as f64 * args.reps_scale).round() as usize).max(1);
    let specs: [(&str, usize, usize, usize, usize); 10] = [
        ("target_in", 1, 491, 128, scale(9)),
        ("target_in", 8, 491, 128, scale(9)),
        ("target_in", 64, 491, 128, scale(7)),
        ("target_in", 512, 491, 128, scale(5)),
        ("target_hidden", 64, 128, 128, scale(9)),
        ("target_hidden", 512, 128, 128, scale(7)),
        ("substitute_l1", 64, 491, 1200, scale(3)),
        ("substitute_l2", 64, 1200, 1500, scale(3)),
        ("substitute_l2", 256, 1200, 1500, scale(2)),
        ("substitute_l3", 64, 1500, 1300, scale(3)),
    ];
    let mut shapes = Vec::with_capacity(specs.len());
    for (name, batch, k, n, reps) in specs {
        let r = bench_shape(name, batch, k, n, reps, threads);
        println!(
            "{:>14} m={:<4} k={:<5} n={:<5} scalar {:>5.2} GF/s  blocked {:>5.2} GF/s ({:>4.2}x)  \
             pooled {:>5.2} GF/s ({:>4.2}x)  simd {:>5.2} GF/s ({:>4.2}x)  bitident={} simdtol={}",
            r.name,
            r.batch,
            r.k,
            r.n,
            r.scalar_gflops,
            r.blocked_gflops,
            r.blocked_speedup,
            r.pooled_gflops,
            r.pooled_speedup,
            r.simd_gflops,
            r.simd_speedup,
            r.bit_identical,
            r.simd_within_tolerance
        );
        shapes.push(r);
    }

    // The backward products: both Jacobian input gradients and a
    // training minibatch's hidden-layer input gradient.
    let nt_specs: [(&str, usize, usize, usize, usize); 3] = [
        ("jacobian_quick", 2, 43, 491, scale(400)),
        ("jacobian_paper", 2, 512, 491, scale(60)),
        ("train_paper", 256, 256, 512, scale(5)),
    ];
    let mut nt_shapes = Vec::with_capacity(nt_specs.len());
    for (name, ra, c, rb, reps) in nt_specs {
        let r = bench_nt_shape(name, ra, c, rb, reps);
        println!(
            "{:>14} {}x{}·({}x{})ᵀ  matmul_nt {:>5.2} GF/s  matmul {:>5.2} GF/s  \
             nt_vs_matmul {:>4.2}  bitident={}",
            r.name,
            r.ra,
            r.c,
            r.rb,
            r.c,
            r.nt_gflops,
            r.matmul_gflops,
            r.nt_vs_matmul,
            r.bit_identical
        );
        nt_shapes.push(r);
    }
    let nt_vs_matmul = nt_shapes
        .iter()
        .map(|s| s.nt_vs_matmul)
        .fold(f64::INFINITY, f64::min);

    let bit_ok =
        shapes.iter().all(|s| s.bit_identical) && nt_shapes.iter().all(|s| s.bit_identical);
    let simd_tol_ok = shapes.iter().all(|s| s.simd_within_tolerance);
    let speedup_batch64 = shapes
        .iter()
        .filter(|s| s.batch >= 64)
        .map(|s| s.blocked_speedup.max(s.pooled_speedup))
        .fold(0.0, f64::max);
    let blocked_speedup_batch64 = shapes
        .iter()
        .filter(|s| s.batch >= 64)
        .map(|s| s.blocked_speedup)
        .fold(0.0, f64::max);
    let scalar_vs_simd = shapes
        .iter()
        .filter(|s| s.batch >= 64 && s.name.starts_with("substitute"))
        .map(|s| s.simd_speedup)
        .fold(0.0, f64::max);

    eprintln!("[linalg_bench] end-to-end probes ...");
    let epoch_ms = epoch_probe();
    let jsma_row_jacobian_us = jsma_row_probe();
    println!(
        "epoch (491->512->256->2, 512 samples): {epoch_ms:.1} ms | \
         JSMA row Jacobian: {jsma_row_jacobian_us:.0} us"
    );
    println!(
        "bit_identical: {bit_ok} | simd_within_tolerance: {simd_tol_ok} | \
         best speedup at batch >= 64: {speedup_batch64:.2}x \
         (blocked-only {blocked_speedup_batch64:.2}x, scalar_vs_simd {scalar_vs_simd:.2}x) | \
         nt_vs_matmul {nt_vs_matmul:.2}"
    );

    let report = BenchReport {
        bench: "linalg_bench",
        threads,
        bit_identical: bit_ok,
        speedup_batch64,
        blocked_speedup_batch64,
        scalar_vs_simd,
        simd_within_tolerance: simd_tol_ok,
        shapes,
        nt_vs_matmul,
        nt_shapes,
        epoch_ms,
        jsma_row_jacobian_us,
    };
    let json = serde_json::to_string_pretty(&report).expect("encode report");
    let out_path = match &args.out_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("create --out-dir");
            format!("{}/{}", dir.trim_end_matches('/'), args.out)
        }
        None => args.out.clone(),
    };
    std::fs::write(&out_path, json + "\n").expect("write report");
    println!("wrote {out_path}");

    if !bit_ok {
        eprintln!("error: blocked/pooled/nt kernels diverged from the scalar reference");
        return ExitCode::FAILURE;
    }
    if !simd_tol_ok {
        eprintln!("error: simd backend exceeded its 1e-5 tolerance vs the scalar reference");
        return ExitCode::FAILURE;
    }
    if speedup_batch64 < 1.5 {
        eprintln!("error: best batch>=64 speedup {speedup_batch64:.2}x is below the 1.5x floor");
        return ExitCode::FAILURE;
    }
    if scalar_vs_simd < 1.5 {
        eprintln!(
            "error: scalar_vs_simd {scalar_vs_simd:.2}x on substitute shapes at batch>=64 \
             is below the 1.5x floor"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
