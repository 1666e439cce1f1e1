//! Property-based tests for the neural-network substrate: gradient
//! correctness over random architectures, softmax laws, and training
//! determinism.

use maleva_linalg::Matrix;
use maleva_nn::{loss, softmax, Activation, Network, NetworkBuilder, TrainConfig, Trainer};
use proptest::prelude::*;

/// Strategy: a random small architecture (input dim, hidden widths,
/// activation) plus a weight seed.
fn arch() -> impl Strategy<Value = (usize, Vec<usize>, Activation, u64)> {
    (
        2usize..6,
        prop::collection::vec(2usize..8, 1..3),
        prop::sample::select(vec![
            Activation::ReLU,
            Activation::Sigmoid,
            Activation::Tanh,
        ]),
        0u64..1_000,
    )
}

fn build(input: usize, hidden: &[usize], act: Activation, seed: u64) -> Network {
    let mut b = NetworkBuilder::new(input);
    for &h in hidden {
        b = b.layer(h, act);
    }
    b.layer(2, Activation::Identity)
        .seed(seed)
        .build()
        .expect("net")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn input_jacobian_matches_finite_differences((input, hidden, act, seed) in arch(),
                                                 raw in prop::collection::vec(-1.0f64..1.0, 8)) {
        let net = build(input, &hidden, act, seed);
        let sample: Vec<f64> = raw.into_iter().take(input).collect();
        prop_assume!(sample.len() == input);
        let jac = net.input_jacobian(&sample).expect("jacobian");
        let eps = 1e-6;
        for j in 0..input {
            let mut plus = sample.clone();
            plus[j] += eps;
            let mut minus = sample.clone();
            minus[j] -= eps;
            let zp = net.logits(&Matrix::row_vector(&plus)).expect("logits");
            let zm = net.logits(&Matrix::row_vector(&minus)).expect("logits");
            for c in 0..2 {
                let numeric = (zp.get(0, c) - zm.get(0, c)) / (2.0 * eps);
                // ReLU kinks can make individual checks off; allow a loose
                // tolerance plus an absolute floor.
                prop_assert!(
                    (numeric - jac.get(c, j)).abs() < 1e-4 + 1e-3 * numeric.abs(),
                    "J({c},{j}) numeric {numeric} vs analytic {}",
                    jac.get(c, j)
                );
            }
        }
    }

    #[test]
    fn softmax_is_shift_invariant(logits in prop::collection::vec(-20.0f64..20.0, 2..8),
                                  shift in -50.0f64..50.0,
                                  t in 0.5f64..10.0) {
        let shifted: Vec<f64> = logits.iter().map(|z| z + shift).collect();
        let a = softmax(&logits, t);
        let b = softmax(&shifted, t);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_sums_to_one_and_stays_positive(logits in prop::collection::vec(-100.0f64..100.0, 1..10),
                                              t in 0.1f64..100.0) {
        let p = softmax(&logits, t);
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn cross_entropy_is_nonnegative(seed in 0u64..500) {
        let net = build(3, &[4], Activation::ReLU, seed);
        let x = Matrix::from_fn(6, 3, |i, j| ((i * 5 + j * 3 + seed as usize) % 9) as f64 * 0.1);
        let logits = net.logits(&x).expect("logits");
        let labels = vec![0, 1, 0, 1, 0, 1];
        let l = loss::cross_entropy(&logits, &labels, 1.0).expect("loss");
        prop_assert!(l >= 0.0);
    }

    #[test]
    fn loss_gradient_is_zero_at_soft_target(seed in 0u64..200) {
        // When the soft target equals the model's own softmax output, the
        // gradient of soft cross-entropy w.r.t. logits vanishes.
        let net = build(3, &[4], Activation::Tanh, seed);
        let x = Matrix::from_fn(4, 3, |i, j| ((i + 2 * j + seed as usize) % 7) as f64 * 0.1);
        let logits = net.logits(&x).expect("logits");
        let soft = maleva_nn::softmax_rows(&logits, 1.0);
        let grad = loss::soft_cross_entropy_grad(&logits, &soft, 1.0).expect("grad");
        prop_assert!(grad.iter().all(|g| g.abs() < 1e-12));
    }

    #[test]
    fn training_is_deterministic_for_any_seed(data_seed in 0u64..100, train_seed in 0u64..100) {
        let x = Matrix::from_fn(16, 4, |i, j| ((i * 7 + j * 13 + data_seed as usize) % 10) as f64 * 0.1);
        let y: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let run = || {
            let mut net = build(4, &[6], Activation::ReLU, 3);
            Trainer::new(
                TrainConfig::new().epochs(3).batch_size(8).seed(train_seed),
            )
            .fit(&mut net, &x, &y)
            .expect("fit");
            net.logits(&x).expect("logits")
        };
        prop_assert_eq!(run(), run());
    }

    #[test]
    fn json_round_trip_is_exact(seed in 0u64..300) {
        let net = build(4, &[5, 3], Activation::Sigmoid, seed);
        let restored = Network::from_json(&net.to_json().expect("ser")).expect("de");
        let x = Matrix::from_fn(3, 4, |i, j| (i as f64 - j as f64) * 0.25);
        prop_assert_eq!(
            net.logits(&x).expect("a"),
            restored.logits(&x).expect("b")
        );
    }

    #[test]
    fn checkpoint_resume_is_bit_identical(data_seed in 0u64..40,
                                          train_seed in 0u64..40,
                                          epochs in 2usize..7,
                                          cut in 1usize..6) {
        // Interrupting a checkpointed run at *any* epoch and resuming it
        // must reproduce the uninterrupted run exactly — same per-epoch
        // stats, same final parameters.
        let cut = cut.min(epochs - 1);
        let x = Matrix::from_fn(16, 4, |i, j| ((i * 7 + j * 13 + data_seed as usize) % 10) as f64 * 0.1);
        let y: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let cfg = |n: usize| {
            TrainConfig::new().epochs(n).batch_size(8).seed(train_seed)
        };

        let mut reference = build(4, &[6], Activation::ReLU, 3);
        let ref_report = Trainer::new(cfg(epochs)).fit(&mut reference, &x, &y).expect("reference");

        let dir = std::env::temp_dir().join(format!(
            "maleva-prop-ckpt-{data_seed}-{train_seed}-{epochs}-{cut}"
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // "Interrupted": run only the first `cut` epochs, checkpointing.
        let mut partial = build(4, &[6], Activation::ReLU, 3);
        Trainer::new(cfg(cut).checkpoint_dir(&dir))
            .fit(&mut partial, &x, &y)
            .expect("partial");
        // Resume with the full budget on a fresh network.
        let mut resumed = build(4, &[6], Activation::ReLU, 3);
        let resumed_report = Trainer::new(cfg(epochs).checkpoint_dir(&dir).resume(true))
            .fit(&mut resumed, &x, &y)
            .expect("resumed");
        let _ = std::fs::remove_dir_all(&dir);

        prop_assert_eq!(ref_report, resumed_report);
        prop_assert_eq!(reference, resumed);
    }

    #[test]
    fn probability_jacobian_columns_sum_to_zero((input, hidden, act, seed) in arch()) {
        let net = build(input, &hidden, act, seed);
        let sample: Vec<f64> = (0..input).map(|i| (i as f64 * 0.3).sin() * 0.5).collect();
        let jac = net.probability_jacobian(&sample, 1.0).expect("jacobian");
        for j in 0..input {
            let col: f64 = (0..2).map(|c| jac.get(c, j)).sum();
            prop_assert!(col.abs() < 1e-10, "column {j} sums to {col}");
        }
    }
}

/// Strategy: a stack whose hidden and output layers each take any of the
/// four activations, with 2–4 classes, plus a weight seed.
fn any_stack() -> impl Strategy<Value = (usize, Vec<Activation>, usize, u64)> {
    let act = || {
        prop::sample::select(vec![
            Activation::ReLU,
            Activation::Sigmoid,
            Activation::Tanh,
            Activation::Identity,
        ])
    };
    (
        2usize..9,
        prop::collection::vec(act(), 2..4),
        2usize..5,
        0u64..1_000,
    )
}

/// The Jacobians as computed before the one-row forward pass existed:
/// the sample replicated once per class through `input_gradient` with an
/// identity seed, and S·J with S built from a separate `logits` pass.
fn replicated_jacobians(net: &Network, sample: &[f64], t: f64) -> (Matrix, Matrix) {
    let c = net.num_classes();
    let rows: Vec<Vec<f64>> = (0..c).map(|_| sample.to_vec()).collect();
    let x = Matrix::from_rows(&rows).expect("replicated rows");
    let logit_jac = net
        .input_gradient(&x, &Matrix::identity(c))
        .expect("input gradient");
    let z = net.logits(&Matrix::row_vector(sample)).expect("logits");
    let p = softmax(z.row(0), t);
    let s = Matrix::from_fn(c, c, |i, j| {
        let delta = if i == j { 1.0 } else { 0.0 };
        (delta * p[i] - p[i] * p[j]) / t
    });
    let prob_jac = s.matmul(&logit_jac).expect("S·J");
    (logit_jac, prob_jac)
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.iter().map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_row_jacobians_equal_the_replicated_batch_bit_for_bit(
        (input, acts, classes, seed) in any_stack(),
        raw in prop::collection::vec((0u32..10, -1.0f64..1.0), 8),
        t in prop::sample::select(vec![1.0, 2.0, 50.0]),
    ) {
        let (hidden, output) = acts.split_at(acts.len() - 1);
        let mut b = NetworkBuilder::new(input);
        for (i, &act) in hidden.iter().enumerate() {
            b = b.layer(3 + i * 2, act);
        }
        let net = b.layer(classes, output[0]).seed(seed).build().expect("net");
        // Count rows are sparse: exact zeros exercise the kernels' skip.
        let sample: Vec<f64> = raw
            .into_iter()
            .take(input)
            .map(|(z, v)| if z < 3 { 0.0 } else { v })
            .collect();
        let (logit_ref, prob_ref) = replicated_jacobians(&net, &sample, t);
        prop_assert_eq!(bits(&net.input_jacobian(&sample).expect("J")), bits(&logit_ref));
        prop_assert_eq!(
            bits(&net.probability_jacobian(&sample, t).expect("P-J")),
            bits(&prob_ref)
        );

        let pass = net.forward_pass(&sample).expect("forward pass");
        prop_assert_eq!(bits(&net.input_jacobian_at(&pass).expect("J")), bits(&logit_ref));
        prop_assert_eq!(
            bits(&net.probability_jacobian_at(&pass, t).expect("P-J")),
            bits(&prob_ref)
        );
        let row = Matrix::row_vector(&sample);
        let logits = net.logits(&row).expect("logits");
        let pass_logits: Vec<u64> = pass.logits().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(pass_logits, bits(&logits));
        prop_assert_eq!(pass.predicted_class(), net.predict(&row).expect("predict")[0]);
    }
}

#[test]
fn a_forward_pass_of_another_network_is_rejected() {
    let small = build(3, &[4], Activation::ReLU, 1);
    let wide = build(3, &[5], Activation::ReLU, 1);
    let pass = small.forward_pass(&[0.1, 0.2, 0.3]).expect("forward pass");
    assert!(wide.input_jacobian_at(&pass).is_err());
    assert!(wide.probability_jacobian_at(&pass, 1.0).is_err());
    assert!(small.forward_pass(&[0.1, 0.2]).is_err());
}
