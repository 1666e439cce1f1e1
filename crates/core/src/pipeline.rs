use maleva_apisim::{ApiVocab, Program};
use maleva_features::FeaturePipeline;
use maleva_linalg::{LinalgError, Matrix};
use maleva_nn::{Network, NnError};
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize};

/// The end-to-end detector: sandbox log → 491 features → DNN → verdict.
///
/// This is the deployed artifact of the paper's Figure 2 — the thing an
/// attacker queries. It owns the fitted [`FeaturePipeline`] (the
/// defender's secret feature engineering) and the trained [`Network`].
#[derive(Debug, Clone, Serialize)]
pub struct DetectorPipeline {
    vocab: ApiVocab,
    features: FeaturePipeline,
    network: Network,
}

/// Loads through [`DetectorPipeline::new`]; the network inside is
/// validated by its own `Deserialize`.
impl<'de> Deserialize<'de> for DetectorPipeline {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Raw {
            vocab: ApiVocab,
            features: FeaturePipeline,
            network: Network,
        }
        let raw = Raw::deserialize(d)?;
        DetectorPipeline::new(raw.vocab, raw.features, raw.network).map_err(D::Error::custom)
    }
}

impl DetectorPipeline {
    /// Assembles a pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the network's input width
    /// differs from the feature pipeline's dimensionality or the
    /// vocabulary size differs from the pipeline's.
    pub fn new(
        vocab: ApiVocab,
        features: FeaturePipeline,
        network: Network,
    ) -> Result<Self, NnError> {
        if network.input_dim() != features.dim() {
            return Err(NnError::InvalidConfig {
                detail: format!(
                    "network expects {} inputs but the feature pipeline produces {}",
                    network.input_dim(),
                    features.dim()
                ),
            });
        }
        if vocab.len() != features.dim() {
            return Err(NnError::InvalidConfig {
                detail: format!(
                    "vocabulary has {} APIs but the feature pipeline expects {}",
                    vocab.len(),
                    features.dim()
                ),
            });
        }
        Ok(DetectorPipeline {
            vocab,
            features,
            network,
        })
    }

    /// The detector's API vocabulary.
    pub fn vocab(&self) -> &ApiVocab {
        &self.vocab
    }

    /// The fitted feature pipeline.
    pub fn features(&self) -> &FeaturePipeline {
        &self.features
    }

    /// The trained classifier.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Replaces the classifier (e.g. with a defended retrained model).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] on input-width mismatch.
    pub fn with_network(self, network: Network) -> Result<Self, NnError> {
        DetectorPipeline::new(self.vocab, self.features, network)
    }

    /// Scans a program end-to-end **through its log text** — render the
    /// log, parse counts, extract features, classify. This is the full
    /// deployment path the live grey-box test exercises.
    ///
    /// Returns the malware confidence in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] on internal shape mismatches.
    pub fn scan(&self, program: &Program) -> Result<f64, NnError> {
        let log_text = program.render_log(&self.vocab);
        self.scan_log(&log_text)
    }

    /// Scans raw log text (the paper's engine consumes log files).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] on internal shape mismatches, and
    /// [`LinalgError::NonFinite`] (labelled `score`) when the forward
    /// pass overflows to a NaN or infinite score — a score no verdict
    /// can be read from.
    pub fn scan_log(&self, log_text: &str) -> Result<f64, NnError> {
        let mut span = maleva_obs::Span::enter("pipeline.scan");
        // Stage timers are pure diagnostics; the clock is only read when
        // a trace sink is installed.
        let t0 = span.is_active().then(std::time::Instant::now);
        let counts = maleva_apisim::log::parse_counts(log_text, &self.vocab);
        let t1 = span.is_active().then(std::time::Instant::now);
        let feats = self.features.transform_counts(&counts);
        let t2 = span.is_active().then(std::time::Instant::now);
        let p = self.network.predict_proba(&Matrix::row_vector(&feats))?;
        let score = p.get(0, 1);
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
            span.record("parse_us", t1.duration_since(t0).as_micros() as u64);
            span.record("featurize_us", t2.duration_since(t1).as_micros() as u64);
            span.record("classify_us", t2.elapsed().as_micros() as u64);
            span.record("score", score);
        }
        if !score.is_finite() {
            return Err(NnError::Linalg(LinalgError::NonFinite {
                label: "score".to_string(),
                index: 0,
                value: score.to_string(),
            }));
        }
        Ok(score)
    }

    /// Hard verdict for a program: `true` = malware.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] on internal shape mismatches.
    pub fn is_malware(&self, program: &Program) -> Result<bool, NnError> {
        Ok(self.scan(program)? >= 0.5)
    }

    /// Extracts the feature matrix for a batch of programs (the direct
    /// count path, bypassing log rendering — used for bulk experiments).
    pub fn featurize(&self, programs: &[Program]) -> Matrix {
        self.features.transform_batch(programs)
    }

    /// Serializes the whole deployed detector (vocabulary + fitted
    /// feature pipeline + trained network) to JSON — the artifact the
    /// `maleva` CLI trains once and scans with repeatedly.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] on encoding failure.
    pub fn to_json(&self) -> Result<String, NnError> {
        serde_json::to_string(self).map_err(|e| NnError::Serialization {
            detail: e.to_string(),
        })
    }

    /// Restores a detector saved with [`DetectorPipeline::to_json`],
    /// re-validating all component invariants.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] on decode failure, including
    /// when the components do not fit together or the network breaks an
    /// invariant of [`Network::from_layers`].
    pub fn from_json(json: &str) -> Result<Self, NnError> {
        serde_json::from_str(json).map_err(|e| NnError::Serialization {
            detail: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{target_model, ModelScale};
    use maleva_apisim::{Class, Dataset, DatasetSpec, World, WorldConfig};
    use maleva_features::CountTransform;
    use maleva_nn::{TrainConfig, Trainer};

    fn trained_pipeline() -> (DetectorPipeline, World, Dataset) {
        let world = World::new(WorldConfig::default());
        let ds = world.build_dataset(&DatasetSpec::tiny(), 5);
        let features = FeaturePipeline::fit(CountTransform::Log1p, ds.train());
        let x = features.transform_batch(ds.train());
        let y = Dataset::labels(ds.train());
        let mut net = target_model(features.dim(), ModelScale::Tiny, 7).unwrap();
        Trainer::new(
            TrainConfig::new()
                .epochs(25)
                .batch_size(32)
                .learning_rate(0.005),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        let p = DetectorPipeline::new(world.vocab().clone(), features, net).unwrap();
        (p, world, ds)
    }

    #[test]
    fn scan_matches_featurize_path() {
        let (pipeline, _, ds) = trained_pipeline();
        // The log path and the direct count path agree.
        let prog = &ds.test()[0];
        let via_log = pipeline.scan(prog).unwrap();
        let x = pipeline.featurize(std::slice::from_ref(prog));
        let direct = pipeline.network().predict_proba(&x).unwrap().get(0, 1);
        assert!((via_log - direct).abs() < 1e-12);
    }

    #[test]
    fn trained_pipeline_detects_most_test_malware() {
        let (pipeline, _, ds) = trained_pipeline();
        let mut correct = 0usize;
        let mut total = 0usize;
        for prog in ds.test() {
            let verdict = pipeline.is_malware(prog).unwrap();
            if verdict == (prog.class() == Class::Malware) {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "end-to-end accuracy {acc}");
    }

    #[test]
    fn rejects_mismatched_components() {
        let (pipeline, world, ds) = trained_pipeline();
        let bad_net = target_model(32, ModelScale::Tiny, 0).unwrap();
        assert!(
            DetectorPipeline::new(world.vocab().clone(), pipeline.features().clone(), bad_net)
                .is_err()
        );
        let bad_vocab = maleva_apisim::ApiVocab::attacker_guess(0.3);
        let features = FeaturePipeline::fit(CountTransform::Log1p, ds.train());
        let net = target_model(features.dim(), ModelScale::Tiny, 0).unwrap();
        assert!(DetectorPipeline::new(bad_vocab, features, net).is_err());
    }

    #[test]
    fn scan_log_handles_foreign_text() {
        let (pipeline, _, _) = trained_pipeline();
        // Unknown APIs only → all-zero features → some deterministic score.
        let score = pipeline.scan_log("unknownapi:1 ()\"1\"\n").unwrap();
        assert!((0.0..=1.0).contains(&score));
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::{ExperimentContext, ExperimentScale};
    use maleva_nn::{Activation, NetworkBuilder};

    #[test]
    fn detector_round_trips_through_json() {
        let ctx = ExperimentContext::build(ExperimentScale::tiny(), 93).unwrap();
        let json = ctx.detector.to_json().unwrap();
        let restored = DetectorPipeline::from_json(&json).unwrap();
        for prog in ctx.dataset.test().iter().take(5) {
            assert_eq!(
                ctx.detector.scan(prog).unwrap(),
                restored.scan(prog).unwrap()
            );
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(DetectorPipeline::from_json("{oops").is_err());
        assert!(DetectorPipeline::from_json("{}").is_err());
    }

    /// An untrained `inputs`→2→2 network, which is all a load check needs.
    fn small_network(inputs: usize) -> Network {
        NetworkBuilder::new(inputs)
            .layer(2, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(5)
            .build()
            .unwrap()
    }

    /// A detector around a 491→2→2 network (the vocabulary fixes the
    /// input width).
    fn small_pipeline() -> DetectorPipeline {
        use maleva_features::CountTransform;
        let vocab = ApiVocab::standard();
        let features = FeaturePipeline::fit_counts(CountTransform::Log1p, &[vec![3; vocab.len()]]);
        let network = small_network(vocab.len());
        DetectorPipeline::new(vocab, features, network).unwrap()
    }

    /// Rewrites a layer's text, from its `"weights"` key on.
    type LayerEdit = fn(&str) -> String;

    /// `json` with its first layer rewritten by `edit`.
    fn edit_first_layer(json: &str, edit: LayerEdit) -> String {
        let at = json.find("\"weights\":").expect("a layer");
        let edited = format!("{}{}", &json[..at], edit(&json[at..]));
        assert_ne!(edited, json, "the edit changed nothing");
        edited
    }

    /// The three ways a hand-edited or corrupted export used to load and
    /// only fail (or quietly serve NaN) later, each with the cause its
    /// load error now names: a weight that overflows to +∞, a bias
    /// shorter than the layer, and weight data shorter than rows × cols.
    const BAD_EDITS: [(&str, LayerEdit); 3] = [
        ("non-finite value inf in weights", |layer| {
            let at = layer.find("\"data\":[").unwrap() + "\"data\":[".len();
            let end = at + layer[at..].find(',').unwrap();
            format!("{}1e400{}", &layer[..at], &layer[end..])
        }),
        ("bias has length 1", |layer| {
            let at = layer.find("\"bias\":[").unwrap() + "\"bias\":[".len();
            let end = at + layer[at..].find(',').unwrap();
            format!("{}{}", &layer[..at], &layer[end + 1..])
        }),
        ("flat data has length", |layer| {
            let close = layer.find(']').unwrap();
            let cut = layer[..close].rfind(',').unwrap();
            format!("{}{}", &layer[..cut], &layer[close..])
        }),
    ];

    #[test]
    fn network_and_pipeline_loads_reject_invalid_weights() {
        let pipeline = small_pipeline();
        let network = small_network(3);
        let network_json = network.to_json().unwrap();
        let pipeline_json = pipeline.to_json().unwrap();
        assert_eq!(Network::from_json(&network_json).unwrap(), network);
        DetectorPipeline::from_json(&pipeline_json).unwrap();
        for (cause, edit) in BAD_EDITS {
            let loads = [
                Network::from_json(&edit_first_layer(&network_json, edit)).map(drop),
                DetectorPipeline::from_json(&edit_first_layer(&pipeline_json, edit)).map(drop),
            ];
            for load in loads {
                let err = load.expect_err(cause);
                let detail = match &err {
                    NnError::Serialization { detail } => detail,
                    other => panic!("{cause}: {other}"),
                };
                assert!(detail.contains(cause), "{cause}: {err}");
            }
        }
    }
}
