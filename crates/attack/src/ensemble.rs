use maleva_linalg::Matrix;
use maleva_nn::{Network, NnError};

use crate::{AttackOutcome, CLEAN_CLASS};

/// JSMA driven by an **ensemble of substitute models**: the saliency map
/// is the mean probability-Jacobian over all members, and "evaded" means
/// a majority of members classify the sample as clean.
///
/// This is the standard transferability booster from the literature the
/// paper cites (Liu et al., "Delving into transferable adversarial
/// examples"): averaging gradients across independently trained
/// substitutes cancels model-specific quirks, leaving the *shared*
/// adversarial directions that are most likely to also exist in the
/// unseen target.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleJsma {
    /// Perturbation magnitude per modified feature.
    pub theta: f64,
    /// Maximum fraction of features that may be modified.
    pub gamma: f64,
}

impl EnsembleJsma {
    /// Creates the ensemble attack. It always runs in high-confidence
    /// mode, spending the whole budget — the whole point is transfer.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not positive-finite or `gamma` is outside
    /// `[0, 1]`.
    pub fn new(theta: f64, gamma: f64) -> Self {
        assert!(
            theta.is_finite() && theta > 0.0,
            "theta must be positive and finite, got {theta}"
        );
        assert!(
            (0.0..=1.0).contains(&gamma),
            "gamma must be in [0, 1], got {gamma}"
        );
        EnsembleJsma { theta, gamma }
    }

    /// The feature budget for `dim` features.
    pub fn max_features(&self, dim: usize) -> usize {
        (self.gamma * dim as f64).floor() as usize
    }

    /// Crafts one adversarial example against the member ensemble.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if members disagree on input width or the
    /// sample width is wrong.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn craft(&self, members: &[&Network], sample: &[f64]) -> Result<AttackOutcome, NnError> {
        assert!(!members.is_empty(), "ensemble needs at least one member");
        let dim = sample.len();
        for m in members {
            if m.input_dim() != dim {
                return Err(NnError::InputShape {
                    expected: m.input_dim(),
                    actual: dim,
                });
            }
        }
        let budget = self.max_features(dim);
        let mut x = sample.to_vec();
        let mut perturbed = vec![false; dim];
        let mut order = Vec::new();
        let mut iterations = 0usize;

        while order.len() < budget {
            iterations += 1;
            // Mean saliency toward clean over all members.
            let mut mean = vec![0.0f64; dim];
            for m in members {
                let jac = m.probability_jacobian(&x, 1.0)?;
                for (acc, j) in mean.iter_mut().zip(0..dim) {
                    *acc += jac.get(CLEAN_CLASS, j);
                }
            }
            let n = members.len() as f64;
            for v in &mut mean {
                *v /= n;
            }
            let mut best: Option<(usize, f64)> = None;
            for (j, &s) in mean.iter().enumerate() {
                if perturbed[j] || x[j] >= 1.0 - 1e-12 {
                    continue;
                }
                if s > 0.0 && best.is_none_or(|(_, bv)| s > bv) {
                    best = Some((j, s));
                }
            }
            let Some((j, _)) = best else { break };
            x[j] = (x[j] + self.theta).min(1.0);
            perturbed[j] = true;
            order.push(j);
        }
        // The loop never stops at the first evasion (high-confidence
        // mode), so only the final sample's vote matters.
        let xm = Matrix::row_vector(&x);
        let mut clean_votes = 0usize;
        for m in members {
            if m.predict(&xm)?[0] == CLEAN_CLASS {
                clean_votes += 1;
            }
        }
        let evaded = clean_votes * 2 > members.len();
        Ok(AttackOutcome::new(sample, x, order, evaded, iterations))
    }

    /// Crafts adversarial examples for every row of `batch`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] on width mismatches.
    pub fn craft_batch(
        &self,
        members: &[&Network],
        batch: &Matrix,
    ) -> Result<(Matrix, Vec<AttackOutcome>), NnError> {
        let mut rows = Vec::with_capacity(batch.rows());
        let mut outcomes = Vec::with_capacity(batch.rows());
        for r in 0..batch.rows() {
            let o = self.craft(members, batch.row(r))?;
            rows.push(o.adversarial.clone());
            outcomes.push(o);
        }
        Ok((Matrix::from_rows(&rows).expect("uniform rows"), outcomes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection_rate;
    use crate::testutil::trained_detector;

    #[test]
    fn ensemble_attack_evades_all_members() {
        let (a, mal, _) = trained_detector(12, 70);
        let (b, _, _) = trained_detector(12, 71);
        let (c, _, _) = trained_detector(12, 72);
        let members = [&a, &b, &c];
        let attack = EnsembleJsma::new(0.5, 0.5);
        let (adv, outcomes) = attack.craft_batch(&members, &mal).unwrap();
        assert!(outcomes.iter().filter(|o| o.evaded).count() > mal.rows() / 2);
        // Each member's detection drops substantially.
        for m in members {
            let before = detection_rate(m, &mal).unwrap();
            let after = detection_rate(m, &adv).unwrap();
            assert!(after < before - 0.3, "member detection {before} -> {after}");
        }
    }

    #[test]
    fn ensemble_respects_constraints() {
        let (a, mal, _) = trained_detector(12, 73);
        let (b, _, _) = trained_detector(12, 74);
        let attack = EnsembleJsma::new(0.4, 0.25);
        let (adv, outcomes) = attack.craft_batch(&[&a, &b], &mal).unwrap();
        assert!(adv.iter().all(|v| (0.0..=1.0).contains(&v)));
        for (r, o) in outcomes.iter().enumerate() {
            assert!(o.features_modified() <= 3); // floor(0.25 * 12)
            for (orig, x) in mal.row(r).iter().zip(o.adversarial.iter()) {
                assert!(x >= orig);
            }
        }
    }

    #[test]
    fn single_member_ensemble_behaves_like_jsma_hc() {
        let (a, mal, _) = trained_detector(12, 75);
        let ens = EnsembleJsma::new(0.3, 0.5);
        let jsma = crate::Jsma::new(0.3, 0.5).with_high_confidence();
        use crate::EvasionAttack;
        let eo = ens.craft(&[&a], mal.row(0)).unwrap();
        let jo = jsma.craft(&a, mal.row(0)).unwrap();
        assert_eq!(eo.adversarial, jo.adversarial);
        assert_eq!(eo.perturbed_features, jo.perturbed_features);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_ensemble_panics() {
        let attack = EnsembleJsma::new(0.1, 0.1);
        let _ = attack.craft(&[], &[0.0; 4]);
    }

    #[test]
    fn mismatched_member_width_errors() {
        let (a, mal, _) = trained_detector(12, 76);
        let (b, _, _) = trained_detector(15, 77);
        let attack = EnsembleJsma::new(0.3, 0.2);
        assert!(attack.craft(&[&a, &b], mal.row(0)).is_err());
    }
}
