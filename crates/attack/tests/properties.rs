//! Property-based tests for the attack implementations: domain
//! constraints must hold for arbitrary inputs and parameters.

use maleva_attack::{
    craft_batch_parallel_with, AttackOutcome, BatchPolicy, EvasionAttack, FailureBudget, Jsma,
    RandomAddition, RowOutcome, SaliencyPolicy,
};
use maleva_linalg::Matrix;
use maleva_nn::{Activation, Network, NetworkBuilder, NnError};
use proptest::prelude::*;

const DIM: usize = 12;

fn net(seed: u64) -> Network {
    NetworkBuilder::new(DIM)
        .layer(8, Activation::ReLU)
        .layer(2, Activation::Identity)
        .seed(seed)
        .build()
        .expect("net")
}

fn sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..1.0, DIM)
}

/// Sentinel values in column 0, outside the `sample()` range, that make
/// [`Sabotaged`] misbehave on exactly that row.
const PANIC_MARK: f64 = 2.0;
const ERR_MARK: f64 = 3.0;

/// A JSMA wrapper that panics or errors on marked rows and behaves
/// exactly like plain JSMA on everything else.
struct Sabotaged {
    inner: Jsma,
}

impl EvasionAttack for Sabotaged {
    fn name(&self) -> &str {
        "sabotaged-jsma"
    }

    fn craft(&self, net: &Network, sample: &[f64]) -> Result<AttackOutcome, NnError> {
        if sample[0] == PANIC_MARK {
            panic!("sabotaged row");
        }
        if sample[0] == ERR_MARK {
            return Err(NnError::InvalidConfig {
                detail: "sabotaged row".into(),
            });
        }
        self.inner.craft(net, sample)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn jsma_stays_in_box_and_is_monotone(x in sample(),
                                         theta in 0.01f64..1.0,
                                         gamma in 0.0f64..1.0,
                                         seed in 0u64..100,
                                         hc in any::<bool>()) {
        let net = net(seed);
        let mut jsma = Jsma::new(theta, gamma);
        if hc {
            jsma = jsma.with_high_confidence();
        }
        let o = jsma.craft(&net, &x).expect("craft");
        prop_assert!(o.adversarial.iter().all(|v| (0.0..=1.0).contains(v)));
        for (orig, adv) in x.iter().zip(o.adversarial.iter()) {
            prop_assert!(adv + 1e-12 >= *orig, "add-only violated");
        }
        prop_assert!(o.features_modified() <= jsma.max_features(DIM));
    }

    #[test]
    fn jsma_budget_is_floor_of_gamma_m(gamma in 0.0f64..1.0) {
        let jsma = Jsma::new(0.1, gamma);
        prop_assert_eq!(jsma.max_features(491), (gamma * 491.0).floor() as usize);
    }

    #[test]
    fn pairwise_jsma_obeys_constraints(x in sample(), seed in 0u64..50) {
        let net = net(seed);
        let jsma = Jsma::new(0.3, 0.5).with_policy(SaliencyPolicy::PairwiseProduct);
        let o = jsma.craft(&net, &x).expect("craft");
        prop_assert!(o.adversarial.iter().all(|v| (0.0..=1.0).contains(v)));
        let mut dedup = o.perturbed_features.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), o.perturbed_features.len(), "duplicate features");
    }

    #[test]
    fn random_addition_is_reproducible_and_bounded(x in sample(),
                                                   theta in 0.01f64..0.9,
                                                   gamma in 0.0f64..1.0,
                                                   seed in 0u64..100) {
        let net = net(7);
        let attack = RandomAddition::new(theta, gamma, seed);
        let a = attack.craft(&net, &x).expect("craft");
        let b = attack.craft(&net, &x).expect("craft");
        prop_assert_eq!(&a, &b, "same seed+sample must agree");
        prop_assert!(a.features_modified() <= (gamma * DIM as f64).floor() as usize);
        prop_assert!(a.adversarial.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn l2_distance_is_bounded_by_theta_sqrt_k(x in sample(),
                                              theta in 0.01f64..1.0,
                                              seed in 0u64..50) {
        let net = net(seed);
        let o = Jsma::new(theta, 1.0).with_high_confidence().craft(&net, &x).expect("craft");
        let bound = theta * (o.features_modified() as f64).sqrt();
        prop_assert!(o.l2_distance <= bound + 1e-9);
    }

    #[test]
    fn faulty_rows_are_isolated_and_healthy_rows_match_sequential(
        rows in prop::collection::vec(sample(), 2..7),
        faults in prop::collection::vec(0u8..3, 2..7),
        threads in 1usize..5,
        seed in 0u64..50,
    ) {
        // A row whose attack panics or errors must be reported as exactly
        // that, degrade to the unperturbed input, and leave every other
        // row bit-identical to a sequential single-row craft.
        let net = net(seed);
        let jsma = Jsma::new(0.3, 0.5);
        let mut marked = rows.clone();
        for (row, &f) in marked.iter_mut().zip(faults.iter()) {
            match f {
                1 => row[0] = PANIC_MARK,
                2 => row[0] = ERR_MARK,
                _ => {}
            }
        }
        let batch = Matrix::from_rows(&marked).expect("batch");
        let policy = BatchPolicy::new()
            .threads(threads)
            .failure_budget(FailureBudget::Degrade);
        let report = craft_batch_parallel_with(&Sabotaged { inner: jsma.clone() }, &net, &batch, &policy)
            .expect("degrade policy never aborts");

        prop_assert_eq!(report.rows.len(), marked.len());
        for (r, outcome) in report.rows.iter().enumerate() {
            match faults.get(r).copied().unwrap_or(0) {
                1 => {
                    prop_assert!(
                        matches!(outcome, RowOutcome::Panicked { .. }),
                        "row {r} should be Panicked, got {outcome:?}"
                    );
                    prop_assert_eq!(batch.row(r), report.adversarial.row(r));
                }
                2 => {
                    prop_assert!(
                        matches!(outcome, RowOutcome::Err(_)),
                        "row {r} should be Err, got {outcome:?}"
                    );
                    prop_assert_eq!(batch.row(r), report.adversarial.row(r));
                }
                _ => {
                    let reference = jsma.craft(&net, batch.row(r)).expect("sequential");
                    match outcome {
                        RowOutcome::Ok(o) => prop_assert_eq!(o, &reference),
                        other => prop_assert!(false, "row {r} should be Ok, got {other:?}"),
                    }
                    prop_assert_eq!(report.adversarial.row(r), reference.adversarial.as_slice());
                }
            }
        }
    }

    #[test]
    fn evaded_flag_matches_model_prediction(x in sample(), seed in 0u64..50) {
        let net = net(seed);
        let o = Jsma::new(0.4, 0.5).craft(&net, &x).expect("craft");
        let pred = net
            .predict(&maleva_linalg::Matrix::row_vector(&o.adversarial))
            .expect("predict")[0];
        prop_assert_eq!(o.evaded, pred == 0);
    }
}
