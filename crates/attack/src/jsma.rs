use serde::{Deserialize, Serialize};

use maleva_linalg::Matrix;
use maleva_nn::{Network, NnError};

use crate::{AttackOutcome, EvasionAttack, CLEAN_CLASS};

/// How JSMA selects which feature(s) to perturb each iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SaliencyPolicy {
    /// The paper's policy: the single feature with the maximum positive
    /// gradient toward the target class ("select the most important
    /// feature associated with the maximum gradient based on the saliency
    /// map").
    #[default]
    SingleMaxGradient,
    /// The original Papernot JSMA: the *pair* of features maximizing the
    /// product saliency `(∂Ft/∂xj + ∂Ft/∂xk)·|Σ_{i≠t}(∂Fi/∂xj + ∂Fi/∂xk)|`.
    /// Kept as an ablation of the paper's simplification.
    PairwiseProduct,
}

/// The Jacobian-based Saliency Map Attack with the paper's malware-domain
/// constraints.
///
/// Each iteration computes the Jacobian of the class probabilities with
/// respect to the input (paper Equation 1), selects the eligible
/// feature(s) with the highest saliency toward the clean class, and adds
/// `θ` to them (clamped to the `[0,1]` feature box). A feature is
/// *eligible* if it has not been perturbed yet and — under the add-only
/// constraint — is not already saturated at 1. The attack stops when the
/// crafting model classifies the sample as clean or when `⌊γ·M⌋` distinct
/// features have been perturbed.
///
/// An iteration runs one forward pass, at the freshly perturbed sample:
/// its logits answer the evasion test, and its pre-activations feed the
/// next iteration's Jacobian, which then costs only a backward pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Jsma {
    /// Perturbation magnitude per modified feature.
    pub theta: f64,
    /// Maximum fraction of features that may be modified.
    pub gamma: f64,
    /// Saliency selection policy.
    pub policy: SaliencyPolicy,
    /// If `true` (the paper's setting), features may only increase —
    /// adding API calls never deletes existing behaviour.
    pub add_only: bool,
    /// Softmax temperature used when computing probability Jacobians.
    pub temperature: f64,
    /// If `true` (default), stop as soon as the crafting model is evaded
    /// (standard JSMA). If `false`, keep perturbing until the feature
    /// budget is exhausted, producing *high-confidence* adversarial
    /// examples — the standard lever for improving transferability in
    /// grey-box attacks (cf. the transferable-adversarial-examples
    /// literature the paper cites).
    pub stop_on_success: bool,
}

impl Jsma {
    /// Creates the paper-standard JSMA: single-max-gradient saliency,
    /// add-only, temperature 1.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not positive-finite or `gamma` is not in
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
        Jsma {
            theta,
            gamma,
            policy: SaliencyPolicy::SingleMaxGradient,
            add_only: true,
            temperature: 1.0,
            stop_on_success: true,
        }
    }

    /// Switches to high-confidence crafting: exhaust the feature budget
    /// even after the crafting model is already evaded.
    pub fn with_high_confidence(mut self) -> Self {
        self.stop_on_success = false;
        self
    }

    /// Switches the saliency policy.
    pub fn with_policy(mut self, policy: SaliencyPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables the add-only constraint (ablation).
    pub fn with_add_only(mut self, add_only: bool) -> Self {
        self.add_only = add_only;
        self
    }

    /// The feature budget for an input of `dim` features: `⌊γ·dim⌋`
    /// (γ = 0.025 over 491 features ⇒ 12, the paper's mapping).
    pub fn max_features(&self, dim: usize) -> usize {
        (self.gamma * dim as f64).floor() as usize
    }

    /// One saliency evaluation over the probability Jacobian `jac` at
    /// `x`: returns the best eligible feature (or pair), or nothing when
    /// no positive-saliency choice exists.
    fn select_features(&self, jac: &Matrix, x: &[f64], perturbed: &[bool]) -> Vec<usize> {
        let dim = x.len();
        let eligible = |j: usize| !perturbed[j] && (!self.add_only || x[j] < 1.0 - 1e-12);
        // With clean as the target class: saliency is the gradient of
        // F_clean; the "other classes decrease" condition of full JSMA is
        // automatic for 2 classes (∂F1 = −∂F0) and enforced generally here.
        let toward = |j: usize| jac.get(CLEAN_CLASS, j);
        let away = |j: usize| -> f64 {
            (0..jac.rows())
                .filter(|&c| c != CLEAN_CLASS)
                .map(|c| jac.get(c, j))
                .sum()
        };
        match self.policy {
            SaliencyPolicy::SingleMaxGradient => {
                let mut best: Option<(usize, f64)> = None;
                for j in 0..dim {
                    if !eligible(j) {
                        continue;
                    }
                    let s = toward(j);
                    if s > 0.0 && away(j) <= 0.0 && best.is_none_or(|(_, bv)| s > bv) {
                        best = Some((j, s));
                    }
                }
                best.map(|(j, _)| vec![j]).unwrap_or_default()
            }
            SaliencyPolicy::PairwiseProduct => {
                let mut best: Option<((usize, usize), f64)> = None;
                // Restrict the pair search to the top candidates by
                // |gradient| to stay O(k²) instead of O(dim²).
                let mut candidates: Vec<usize> = (0..dim).filter(|&j| eligible(j)).collect();
                candidates
                    .sort_by(|&a, &b| toward(b).partial_cmp(&toward(a)).expect("NaN saliency"));
                candidates.truncate(32);
                for (ai, &a) in candidates.iter().enumerate() {
                    for &b in candidates.iter().skip(ai + 1) {
                        let t = toward(a) + toward(b);
                        let o = away(a) + away(b);
                        if t > 0.0 && o <= 0.0 {
                            let s = t * o.abs().max(f64::MIN_POSITIVE);
                            if best.is_none_or(|(_, bv)| s > bv) {
                                best = Some(((a, b), s));
                            }
                        }
                    }
                }
                best.map(|((a, b), _)| vec![a, b]).unwrap_or_default()
            }
        }
    }
}

impl EvasionAttack for Jsma {
    fn name(&self) -> &str {
        "jsma"
    }

    fn craft(&self, net: &Network, sample: &[f64]) -> Result<AttackOutcome, NnError> {
        let mut span = maleva_obs::Span::enter("jsma.craft");
        let mut x = sample.to_vec();
        let dim = x.len();
        let budget = self.max_features(dim);
        let mut perturbed = vec![false; dim];
        let mut order = Vec::new();
        let mut iterations = 0usize;

        let mut pass = net.forward_pass(&x)?;
        let mut evaded = pass.predicted_class() == CLEAN_CLASS;
        while (!evaded || !self.stop_on_success) && order.len() < budget {
            iterations += 1;
            let jac = net.probability_jacobian_at(&pass, self.temperature)?;
            let chosen = self.select_features(&jac, &x, &perturbed);
            if chosen.is_empty() {
                break; // no admissible saliency direction remains
            }
            for &j in &chosen {
                if order.len() >= budget {
                    break;
                }
                let lo = if self.add_only { x[j] } else { 0.0 };
                x[j] = (x[j] + self.theta).clamp(lo, 1.0);
                perturbed[j] = true;
                order.push(j);
            }
            pass = net.forward_pass(&x)?;
            evaded = pass.predicted_class() == CLEAN_CLASS;
        }
        let outcome = AttackOutcome::new(sample, x, order, evaded, iterations);
        span.record("iterations", outcome.iterations as u64);
        span.record("features_modified", outcome.features_modified() as u64);
        span.record("l2_distance", outcome.l2_distance);
        span.record("evaded", outcome.evaded);
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detection_rate;
    use crate::testutil::trained_detector;

    #[test]
    fn jsma_reduces_detection_rate() {
        let (net, mal, _) = trained_detector(12, 3);
        assert!(detection_rate(&net, &mal).unwrap() > 0.9);
        let jsma = Jsma::new(0.5, 0.5);
        let (adv, outcomes) = jsma.craft_batch(&net, &mal).unwrap();
        let dr = detection_rate(&net, &adv).unwrap();
        assert!(dr < 0.3, "detection rate after attack: {dr}");
        assert!(outcomes.iter().filter(|o| o.evaded).count() > mal.rows() / 2);
    }

    #[test]
    fn respects_feature_budget() {
        let (net, mal, _) = trained_detector(12, 4);
        for gamma in [0.0, 0.1, 0.25] {
            let jsma = Jsma::new(0.5, gamma);
            let budget = jsma.max_features(12);
            let (_, outcomes) = jsma.craft_batch(&net, &mal).unwrap();
            for o in &outcomes {
                assert!(
                    o.features_modified() <= budget,
                    "γ={gamma}: modified {} > budget {budget}",
                    o.features_modified()
                );
            }
        }
    }

    #[test]
    fn gamma_zero_is_a_noop() {
        let (net, mal, _) = trained_detector(12, 5);
        let jsma = Jsma::new(0.5, 0.0);
        let outcome = jsma.craft(&net, mal.row(0)).unwrap();
        assert_eq!(outcome.adversarial, mal.row(0).to_vec());
        assert_eq!(outcome.l2_distance, 0.0);
    }

    #[test]
    fn add_only_never_decreases_features() {
        let (net, mal, _) = trained_detector(12, 6);
        let jsma = Jsma::new(0.4, 0.5);
        for r in 0..mal.rows() {
            let original = mal.row(r);
            let outcome = jsma.craft(&net, original).unwrap();
            for (o, a) in original.iter().zip(outcome.adversarial.iter()) {
                assert!(a >= o, "add-only violated: {a} < {o}");
            }
        }
    }

    #[test]
    fn unconstrained_variant_may_decrease_features() {
        // Build an input where the clean direction requires *lowering* a
        // malware-signal feature that is already at its max.
        let (net, mal, _) = trained_detector(12, 7);
        let jsma = Jsma::new(0.4, 0.5).with_add_only(false);
        let mut saturated = mal.row(0).to_vec();
        for v in saturated.iter_mut().take(6) {
            *v = 1.0; // saturate all malware-signal features
        }
        let outcome = jsma.craft(&net, &saturated).unwrap();
        // The unconstrained attack is allowed to go below the original,
        // but regardless must stay inside the box.
        assert!(outcome
            .adversarial
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn stays_in_unit_box() {
        let (net, mal, _) = trained_detector(12, 8);
        let jsma = Jsma::new(0.9, 1.0);
        let (adv, _) = jsma.craft_batch(&net, &mal).unwrap();
        assert!(adv.iter().all(|v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn perturbed_features_are_distinct() {
        let (net, mal, _) = trained_detector(12, 9);
        let jsma = Jsma::new(0.3, 1.0);
        let outcome = jsma.craft(&net, mal.row(1)).unwrap();
        let mut sorted = outcome.perturbed_features.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outcome.perturbed_features.len());
    }

    #[test]
    fn pairwise_policy_also_attacks() {
        let (net, mal, _) = trained_detector(12, 10);
        let jsma = Jsma::new(0.5, 0.5).with_policy(SaliencyPolicy::PairwiseProduct);
        let (adv, _) = jsma.craft_batch(&net, &mal).unwrap();
        let dr = detection_rate(&net, &adv).unwrap();
        assert!(dr < 0.5, "pairwise JSMA detection rate: {dr}");
    }

    #[test]
    fn already_clean_input_is_untouched() {
        let (net, _, clean) = trained_detector(12, 11);
        let jsma = Jsma::new(0.5, 0.5);
        let outcome = jsma.craft(&net, clean.row(0)).unwrap();
        assert!(outcome.evaded);
        assert_eq!(outcome.iterations, 0);
        assert_eq!(outcome.features_modified(), 0);
    }

    #[test]
    fn larger_theta_needs_fewer_features() {
        let (net, mal, _) = trained_detector(12, 12);
        let small = Jsma::new(0.1, 1.0);
        let large = Jsma::new(0.8, 1.0);
        let (_, so) = small.craft_batch(&net, &mal).unwrap();
        let (_, lo) = large.craft_batch(&net, &mal).unwrap();
        let avg = |os: &[AttackOutcome]| {
            os.iter().map(|o| o.features_modified() as f64).sum::<f64>() / os.len() as f64
        };
        assert!(avg(&lo) <= avg(&so));
    }

    #[test]
    fn rejects_bad_parameters() {
        let r = std::panic::catch_unwind(|| Jsma::new(0.0, 0.5));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| Jsma::new(0.1, 1.5));
        assert!(r.is_err());
    }

    #[test]
    fn wrong_width_sample_errors() {
        let (net, _, _) = trained_detector(12, 13);
        let jsma = Jsma::new(0.1, 0.5);
        assert!(jsma.craft(&net, &[0.0; 5]).is_err());
        assert!(jsma.craft_batch(&net, &Matrix::zeros(2, 5)).is_err());
    }
}
