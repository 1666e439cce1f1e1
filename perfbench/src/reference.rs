//! The benchmark's own correctness layer: a plain-`f64` reference
//! detector and the property checks each workload applies to the
//! program's outputs.
//!
//! The reference reads the trained parameters through the public
//! accessors (`layers()`, `weights()`, `bias()`, `FeaturePipeline::scale()`)
//! and does its own arithmetic in plain loops, so a fault in the
//! program's forward pass, its linalg backends or its feature transform
//! cannot hide by agreeing with itself.

use maleva_core::DetectorPipeline;
use maleva_features::{CountTransform, FeaturePipeline};
use maleva_nn::{Activation, Network};

/// Largest accepted distance between a served score and the reference
/// malware probability. The f64 backends agree to ~1e-15; the bound
/// leaves room for an f32 inference path while still catching any
/// wrong weights, wrong rows or stale cache entries.
pub const SCORE_TOLERANCE: f64 = 1e-4;

/// Reference probabilities this close to 0.5 may be classified either
/// way by the program's own arithmetic.
const BOUNDARY: f64 = 1e-9;

struct RefLayer {
    outputs: usize,
    /// Row-major `inputs x outputs`.
    weights: Vec<f64>,
    bias: Vec<f64>,
    activation: Activation,
}

/// A plain-loop copy of a trained [`Network`].
pub struct ReferenceNet {
    layers: Vec<RefLayer>,
}

impl ReferenceNet {
    pub fn new(network: &Network) -> Self {
        let layers = network
            .layers()
            .iter()
            .map(|layer| RefLayer {
                outputs: layer.out_dim(),
                weights: layer.weights().as_slice().to_vec(),
                bias: layer.bias().to_vec(),
                activation: layer.activation(),
            })
            .collect();
        ReferenceNet { layers }
    }

    /// Malware (class-1) probability of one transformed feature row.
    pub fn malware_proba(&self, features: &[f64]) -> f64 {
        let mut h = features.to_vec();
        for layer in &self.layers {
            let mut z = vec![0.0; layer.outputs];
            for (k, &x) in h.iter().enumerate() {
                let row = &layer.weights[k * layer.outputs..(k + 1) * layer.outputs];
                for (zj, &w) in z.iter_mut().zip(row) {
                    *zj += x * w;
                }
            }
            for (zj, &b) in z.iter_mut().zip(&layer.bias) {
                *zj = activate(layer.activation, *zj + b);
            }
            h = z;
        }
        let max = h.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = h.iter().map(|&z| (z - max).exp()).collect();
        exps[1] / exps.iter().sum::<f64>()
    }
}

fn activate(activation: Activation, x: f64) -> f64 {
    match activation {
        Activation::ReLU => x.max(0.0),
        Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        Activation::Tanh => x.tanh(),
        Activation::Identity => x,
    }
}

/// A plain-loop copy of a whole [`DetectorPipeline`]: raw API counts in,
/// malware probability out.
pub struct ReferenceDetector {
    transform: CountTransform,
    scale: Option<Vec<f64>>,
    net: ReferenceNet,
}

impl ReferenceDetector {
    pub fn new(pipeline: &DetectorPipeline) -> Self {
        Self::with_network(pipeline.features(), pipeline.network())
    }

    pub fn with_network(features: &FeaturePipeline, network: &Network) -> Self {
        ReferenceDetector {
            transform: features.transform_kind(),
            scale: features.scale().map(<[f64]>::to_vec),
            net: ReferenceNet::new(network),
        }
    }

    pub fn features(&self, counts: &[u32]) -> Vec<f64> {
        counts
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let v = match self.transform {
                    CountTransform::Log1p => (1.0 + f64::from(c)).ln(),
                    CountTransform::Raw => f64::from(c),
                    CountTransform::Binary => f64::from(u8::from(c > 0)),
                };
                match &self.scale {
                    Some(scale) => (v / scale[i]).clamp(0.0, 1.0),
                    None => v,
                }
            })
            .collect()
    }

    pub fn score_counts(&self, counts: &[u32]) -> f64 {
        self.net.malware_proba(&self.features(counts))
    }
}

/// One served reply against the reference scores of the model(s) that
/// may have produced it (more than one for a request in flight across a
/// reload): its score must match one of them and its verdict its score.
pub fn check_reply_any(score: f64, verdict: &str, references: &[f64]) -> Result<(), String> {
    let want = if score >= 0.5 { "malware" } else { "clean" };
    if verdict != want {
        return Err(format!("verdict {verdict} disagrees with score {score}"));
    }
    if references
        .iter()
        .any(|r| (score - r).abs() <= SCORE_TOLERANCE)
    {
        Ok(())
    } else {
        Err(format!(
            "score {score} is not within {SCORE_TOLERANCE} of any reference {references:?}"
        ))
    }
}

pub fn check_unit_interval(name: &str, values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
        Some(v) => Err(format!("{name}: rate {v} outside [0, 1]")),
        None => Ok(()),
    }
}

/// A JSMA detection curve along γ must never rise: a larger budget only
/// extends the same greedy feature sequence.
pub fn check_nonincreasing(name: &str, values: &[f64]) -> Result<(), String> {
    match values.windows(2).position(|w| w[1] > w[0]) {
        Some(i) => Err(format!(
            "{name}: detection rises from {} to {} at point {}",
            values[i],
            values[i + 1],
            i + 1
        )),
        None => Ok(()),
    }
}

/// A detection rate the program reported for a batch must equal the
/// share of rows the reference classifies as malware (rows within
/// [`BOUNDARY`] of 0.5 may count either way).
pub fn check_detection(name: &str, rate: f64, reference_probas: &[f64]) -> Result<(), String> {
    let n = reference_probas.len().max(1) as f64;
    let sure = reference_probas
        .iter()
        .filter(|&&p| p > 0.5 + BOUNDARY)
        .count();
    let close = reference_probas
        .iter()
        .filter(|&&p| (p - 0.5).abs() <= BOUNDARY)
        .count();
    let reported = (rate * n).round() as usize;
    if (sure..=sure + close).contains(&reported) {
        Ok(())
    } else {
        Err(format!(
            "{name}: program reports {reported} detected rows, reference {sure} (+{close} on the boundary)"
        ))
    }
}

/// A row reported as evaded must be classified clean by the reference.
pub fn check_evaded(reference_proba: f64) -> Result<(), String> {
    if reference_proba < 0.5 + BOUNDARY {
        Ok(())
    } else {
        Err(format!(
            "row reported evaded but the reference scores it {reference_proba}"
        ))
    }
}

/// The paper's attack constraints on one crafted row: features only grow
/// (API calls are added, never removed), stay inside `[0, 1]`, and at
/// most `budget` of them change.
pub fn check_crafted(original: &[f64], adversarial: &[f64], budget: usize) -> Result<(), String> {
    if original.len() != adversarial.len() {
        return Err("crafted row changed width".to_string());
    }
    let mut changed = 0;
    for (j, (&o, &a)) in original.iter().zip(adversarial).enumerate() {
        if a < o {
            return Err(format!("feature {j} decreased from {o} to {a}"));
        }
        if !(0.0..=1.0).contains(&a) {
            return Err(format!("feature {j} left the unit box: {a}"));
        }
        changed += usize::from(a != o);
    }
    if changed > budget {
        return Err(format!("{changed} features changed, budget {budget}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use maleva_core::models::{target_model, ModelScale};
    use rand::Rng;

    #[test]
    fn reference_matches_served_scores_at_paper_width() {
        let net = target_model(491, ModelScale::Paper, 7).expect("paper-width network");
        let mut rng = maleva_apisim::rng(11);
        let rows: Vec<Vec<f64>> = (0..16)
            .map(|_| (0..491).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let served = maleva_serve::score_rows(&net, &rows).expect("batched scores");
        let reference = ReferenceNet::new(&net);
        for (row, score) in rows.iter().zip(served) {
            let want = reference.malware_proba(row);
            assert!((score - want).abs() < 1e-12, "{score} vs {want}");
        }
    }

    #[test]
    fn reference_features_match_the_pipeline() {
        let world = maleva_apisim::World::default();
        let mut rng = maleva_apisim::rng(3);
        let programs = world.sample_batch(20, 20, &mut rng);
        for transform in [
            CountTransform::Raw,
            CountTransform::Log1p,
            CountTransform::Binary,
        ] {
            let features = FeaturePipeline::fit(transform, &programs);
            let net = target_model(491, ModelScale::Tiny, 1).expect("network");
            let reference = ReferenceDetector::with_network(&features, &net);
            for p in &programs {
                assert_eq!(
                    reference.features(p.counts()),
                    features.transform_counts(p.counts())
                );
            }
        }
    }

    #[test]
    fn a_perturbed_score_or_a_wrong_verdict_fails() {
        assert!(check_reply_any(0.7, "malware", &[0.7]).is_ok());
        assert!(check_reply_any(0.7 + 1e-3, "malware", &[0.7]).is_err());
        assert!(check_reply_any(0.7, "clean", &[0.7]).is_err());
        assert!(check_reply_any(0.2, "clean", &[0.9, 0.2]).is_ok());
        assert!(check_reply_any(0.5, "malware", &[0.9, 0.2]).is_err());
    }

    #[test]
    fn a_curve_that_rises_or_leaves_the_unit_interval_fails() {
        assert!(check_nonincreasing("c", &[0.9, 0.8, 0.8, 0.1]).is_ok());
        assert!(check_nonincreasing("c", &[0.9, 0.8, 0.81, 0.1]).is_err());
        assert!(check_unit_interval("c", &[0.0, 1.0]).is_ok());
        assert!(check_unit_interval("c", &[0.5, 1.01]).is_err());
    }

    #[test]
    fn a_wrong_detection_count_or_evasion_claim_fails() {
        let probas = [0.9, 0.1, 0.6, 0.4];
        assert!(check_detection("d", 0.5, &probas).is_ok());
        assert!(check_detection("d", 0.75, &probas).is_err());
        assert!(check_evaded(0.1).is_ok());
        assert!(check_evaded(0.9).is_err());
    }

    #[test]
    fn a_row_that_is_not_add_only_or_over_budget_fails() {
        let original = [0.2, 0.0, 0.5];
        assert!(check_crafted(&original, &[0.3, 0.1, 0.5], 2).is_ok());
        assert!(check_crafted(&original, &[0.1, 0.1, 0.5], 2).is_err());
        assert!(check_crafted(&original, &[0.3, 0.1, 0.6], 2).is_err());
        assert!(check_crafted(&original, &[0.2, 1.5, 0.5], 2).is_err());
    }
}
