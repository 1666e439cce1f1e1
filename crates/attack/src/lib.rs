//! Evasion attacks against DNN malware detectors.
//!
//! The paper's attack (Section II-B-1) is the **Jacobian-based Saliency
//! Map Approach** (JSMA, Papernot et al. 2016) with two domain
//! constraints: only API calls may be *added* (never removed, so the
//! malware keeps working), and the feature box is `[0, 1]`. Two knobs set
//! the attack strength:
//!
//! * `θ` (theta) — the perturbation magnitude added to each modified
//!   feature;
//! * `γ` (gamma) — the maximum *fraction* of features that may be
//!   modified; `⌊γ·M⌋` features for `M = 491` (γ = 0.025 ⇒ 12 features,
//!   exactly the paper's operating point).
//!
//! Alongside [`Jsma`] the crate ships the paper's **random-noise
//! baseline** ([`RandomAddition`]; "randomly adding features does not
//! decrease the detection rates") and [`sweep`] — the security-
//! evaluation-curve runner behind Figures 3 and 4.
//!
//! # Example
//!
//! ```
//! use maleva_linalg::Matrix;
//! use maleva_nn::{Activation, NetworkBuilder, Trainer, TrainConfig};
//! use maleva_attack::{EvasionAttack, Jsma};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A detector over 8 features, trained so feature 0 signals malware.
//! let x = Matrix::from_rows(&[
//!     vec![0.9, 0.1, 0.0, 0.0, 0.2, 0.0, 0.1, 0.0],
//!     vec![0.0, 0.2, 0.1, 0.3, 0.0, 0.1, 0.0, 0.2],
//! ])?;
//! let mut net = NetworkBuilder::new(8)
//!     .layer(8, Activation::ReLU)
//!     .layer(2, Activation::Identity)
//!     .seed(3)
//!     .build()?;
//! Trainer::new(TrainConfig::new().epochs(100).batch_size(2).learning_rate(0.1))
//!     .fit(&mut net, &x, &[1, 0])?;
//!
//! let jsma = Jsma::new(0.5, 0.5);
//! let outcome = jsma.craft(&net, x.row(0))?;
//! assert!(outcome.perturbed_features.len() <= 4); // γ·M = 4
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod adaptive;
mod ensemble;
mod jsma;
mod outcome;
pub mod parallel;
pub mod perturbation;
mod random;
pub mod sweep;

pub use adaptive::SqueezeAwareJsma;
pub use ensemble::EnsembleJsma;
pub use jsma::{Jsma, SaliencyPolicy};
pub use outcome::AttackOutcome;
pub use parallel::{
    craft_batch_parallel, craft_batch_parallel_with, BatchPolicy, BatchReport, FailureBudget,
    RowOutcome,
};
pub use random::RandomAddition;

use maleva_linalg::Matrix;
use maleva_nn::{Network, NnError};

/// The clean class index (the evasion target; paper Equation 1 perturbs
/// toward class 0).
pub const CLEAN_CLASS: usize = 0;

/// The malware class index.
pub const MALWARE_CLASS: usize = 1;

/// A targeted evasion attack: given a detector and one malware feature
/// vector, produce an adversarial feature vector.
pub trait EvasionAttack {
    /// Short display name ("jsma", "random").
    fn name(&self) -> &str;

    /// Crafts an adversarial example for `sample` against `net`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the sample width does not match the network.
    fn craft(&self, net: &Network, sample: &[f64]) -> Result<AttackOutcome, NnError>;

    /// Crafts adversarial examples for every row of `batch`, returning
    /// the adversarial batch and per-sample outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the batch width does not match the network.
    fn craft_batch(
        &self,
        net: &Network,
        batch: &Matrix,
    ) -> Result<(Matrix, Vec<AttackOutcome>), NnError> {
        let mut rows = Vec::with_capacity(batch.rows());
        let mut outcomes = Vec::with_capacity(batch.rows());
        for r in 0..batch.rows() {
            let outcome = self.craft(net, batch.row(r))?;
            rows.push(outcome.adversarial.clone());
            outcomes.push(outcome);
        }
        let adv = Matrix::from_rows(&rows).expect("uniform adversarial rows");
        Ok((adv, outcomes))
    }
}

/// Fraction of `batch` rows that `net` classifies as malware — the
/// "detection rate" axis of every security evaluation curve.
///
/// # Errors
///
/// Returns [`NnError`] if the batch width does not match the network.
pub fn detection_rate(net: &Network, batch: &Matrix) -> Result<f64, NnError> {
    let preds = net.predict(batch)?;
    Ok(preds.iter().filter(|&&p| p == MALWARE_CLASS).count() as f64 / preds.len().max(1) as f64)
}

#[cfg(test)]
pub(crate) mod testutil {
    use maleva_linalg::Matrix;
    use maleva_nn::{Activation, Network, NetworkBuilder, TrainConfig, Trainer};

    /// A small trained detector mirroring the malware-domain geometry:
    /// the first third of the features are a *weak* malware signal, the
    /// middle third a *strong* clean signal, the rest a shared common
    /// baseline. The classifier therefore leans on the clean-evidence
    /// features — which is what makes the add-only attack (add benign-
    /// looking API calls) viable, exactly as in the paper.
    pub fn trained_detector(dim: usize, seed: u64) -> (Network, Matrix, Matrix) {
        let n = 48;
        let third = dim / 3;
        let mut mal_rows = Vec::new();
        let mut clean_rows = Vec::new();
        for i in 0..n {
            let j = (i % 5) as f64 * 0.03;
            let mal: Vec<f64> = (0..dim)
                .map(|f| {
                    if f < third {
                        0.35 + j // weak malware signature
                    } else if f < 2 * third {
                        0.02 + j * 0.3 // clean signature absent
                    } else {
                        0.3 + j // common baseline
                    }
                })
                .collect();
            let clean: Vec<f64> = (0..dim)
                .map(|f| {
                    if f < third {
                        0.2 + j * 0.5 // malware APIs moderately present in clean too
                    } else if f < 2 * third {
                        0.5 + j // strong clean signature
                    } else {
                        0.3 + j // common baseline
                    }
                })
                .collect();
            mal_rows.push(mal);
            clean_rows.push(clean);
        }
        let mal = Matrix::from_rows(&mal_rows).unwrap();
        let clean = Matrix::from_rows(&clean_rows).unwrap();
        let x = mal.vstack(&clean).unwrap();
        let mut labels = vec![1usize; n];
        labels.extend(vec![0usize; n]);
        let mut net = NetworkBuilder::new(dim)
            .layer(16, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(seed)
            .build()
            .unwrap();
        Trainer::new(
            TrainConfig::new()
                .epochs(60)
                .batch_size(16)
                .learning_rate(0.02)
                .seed(seed),
        )
        .fit(&mut net, &x, &labels)
        .unwrap();
        (net, mal, clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::trained_detector;

    #[test]
    fn detection_rate_on_trained_detector() {
        let (net, mal, clean) = trained_detector(10, 1);
        assert!(detection_rate(&net, &mal).unwrap() > 0.95);
        assert!(detection_rate(&net, &clean).unwrap() < 0.05);
    }

    #[test]
    fn craft_batch_preserves_shape() {
        let (net, mal, _) = trained_detector(10, 2);
        let jsma = Jsma::new(0.3, 0.5);
        let (adv, outcomes) = jsma.craft_batch(&net, &mal).unwrap();
        assert_eq!(adv.shape(), mal.shape());
        assert_eq!(outcomes.len(), mal.rows());
    }
}
