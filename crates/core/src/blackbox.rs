//! The black-box attack framework of the paper's Figure 2 — proposed as
//! future work there ("we are building the real-world black-box testing
//! framework as proposed in Figure 2 using open source data with
//! different features and models"), implemented here as an extension.
//!
//! The attacker has **no** knowledge of the target: not its model, not
//! its features, not its data. All they can do is submit programs and
//! observe verdicts (a label oracle). Following Papernot et al.'s
//! practical black-box attack, the attacker:
//!
//! 1. builds a small seed corpus of their own programs and labels it by
//!    querying the oracle;
//! 2. featurizes with their **own** representation (binary features over
//!    their own guessed API vocabulary — "different features");
//! 3. trains a substitute ("different model": the Table IV architecture,
//!    which differs from the 4-layer target);
//! 4. augments the corpus Jacobian-style: for each program, insert the
//!    API whose substitute gradient most changes the verdict, query the
//!    oracle for the new label, repeat;
//! 5. crafts JSMA adversarial examples on the substitute and rebuilds
//!    them as real programs (API insertions) scanned by the target.
//!
//! The oracle is abstracted behind [`LabelOracle`] so the same pipeline
//! runs offline (the in-process detector, [`run`]) or live against a
//! `maleva-serve` instance over TCP (the `maleva-campaign` crate). Both
//! paths are bit-identical for the same seed because serving is
//! bit-identical to local scanning. Every oracle interaction is charged
//! to a per-phase [`QueryLedger`] and optionally capped by
//! [`BlackboxConfig::query_budget`] — the real-world constraint that a
//! cloud scanner only answers so many queries before the attacker runs
//! out of accounts.

use maleva_apisim::{ApiVocab, Class, Program};
use maleva_attack::{EvasionAttack, Jsma};
use maleva_features::CountTransform;
use maleva_linalg::Matrix;
use maleva_nn::{Network, NnError, Trainer};
use serde::{Deserialize, Serialize};

use crate::models::substitute_model;
use crate::{DetectorPipeline, ExperimentContext};

/// Configuration of the black-box run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlackboxConfig {
    /// Size of the attacker's initial seed corpus (half clean / half
    /// malware by the attacker's own ground truth).
    pub seed_corpus: usize,
    /// Jacobian-augmentation rounds.
    pub augmentation_rounds: usize,
    /// Fraction of the standard vocabulary the attacker's guessed
    /// vocabulary covers (see [`ApiVocab::attacker_guess`]).
    pub vocab_overlap: f64,
    /// JSMA γ for the final crafting step.
    pub gamma: f64,
    /// Number of defender test-malware programs attacked at the end.
    pub eval_samples: usize,
    /// Total oracle-query budget across every phase (seed labelling,
    /// augmentation, agreement probe, and evaluation scans); `0` means
    /// unlimited. When the budget runs out mid-phase the attacker keeps
    /// whatever they have: a truncated corpus, fewer augmentations, a
    /// smaller probe, or fewer attacked programs.
    pub query_budget: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BlackboxConfig {
    fn default() -> Self {
        BlackboxConfig {
            seed_corpus: 200,
            augmentation_rounds: 2,
            vocab_overlap: 0.6,
            gamma: 0.05,
            eval_samples: 100,
            query_budget: 0,
            seed: 0,
        }
    }
}

/// A label oracle the attacker can query: submit a program, get back a
/// hard malware verdict. Offline this is the in-process detector
/// ([`DetectorOracle`]); live it is a scoring service reached over the
/// wire. The trait is `&mut self` so implementations can count queries,
/// enforce budgets, or maintain connections.
pub trait LabelOracle {
    /// The oracle's verdict for `program` (`true` = malware).
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] when the oracle cannot answer (scoring
    /// failure offline; a refused or throttled query live).
    fn label(&mut self, program: &Program) -> Result<bool, NnError>;
}

/// The offline oracle: the deployed detector itself, queried in
/// process. This is what [`run`] uses.
pub struct DetectorOracle<'a> {
    detector: &'a DetectorPipeline,
}

impl<'a> DetectorOracle<'a> {
    /// Wraps a detector as a label oracle.
    pub fn new(detector: &'a DetectorPipeline) -> Self {
        DetectorOracle { detector }
    }
}

impl LabelOracle for DetectorOracle<'_> {
    fn label(&mut self, program: &Program) -> Result<bool, NnError> {
        self.detector.is_malware(program)
    }
}

/// Per-phase oracle-query accounting for one black-box run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryLedger {
    /// Queries spent labelling the initial seed corpus.
    pub seed: usize,
    /// Queries spent labelling Jacobian-augmented samples.
    pub augmentation: usize,
    /// Queries spent on the substitute-agreement probe.
    pub agreement: usize,
    /// Queries spent scanning original + rebuilt programs in the final
    /// evaluation.
    pub evaluation: usize,
}

impl QueryLedger {
    /// Total queries across all phases.
    pub fn total(&self) -> usize {
        self.seed + self.augmentation + self.agreement + self.evaluation
    }
}

/// One point on the queries-to-evasion curve: after `queries` total
/// oracle queries, the attacker had accumulated `evasions` evasions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvasionPoint {
    /// Cumulative oracle queries (all phases) when the evasion landed.
    pub queries: usize,
    /// Cumulative evasion count at that moment.
    pub evasions: usize,
}

/// Artifacts of a black-box run.
#[derive(Debug, Clone)]
pub struct BlackboxArtifacts {
    /// The attacker's trained substitute.
    pub substitute: Network,
    /// The attacker's feature vocabulary.
    pub attacker_vocab: ApiVocab,
    /// Oracle queries spent building the substitute (seed labelling +
    /// augmentation + agreement probe; evaluation scans are charged to
    /// the [`QueryLedger`] but excluded here, matching the classic
    /// "extraction cost" accounting).
    pub oracle_queries: usize,
    /// Per-phase query accounting, including evaluation scans.
    pub ledger: QueryLedger,
    /// Substitute agreement with the oracle on a held-out attacker batch.
    pub oracle_agreement: f64,
    /// Target detection rate on the rebuilt adversarial programs.
    pub target_detection: f64,
    /// `1 − target_detection`.
    pub transfer_rate: f64,
    /// Target detection rate on the same programs *before* modification.
    pub baseline_detection: f64,
    /// Programs the final evaluation fully scanned (baseline +
    /// modified); below `eval_samples` when the budget ran out.
    pub attacked: usize,
    /// Evasions achieved: programs detected at baseline whose rebuilt
    /// version the target passed as clean.
    pub evasions: usize,
    /// Total queries spent when the first evasion landed (`None` if the
    /// run produced no evasion).
    pub queries_to_first_evasion: Option<usize>,
    /// Cumulative queries-to-evasion curve, one point per new evasion.
    pub evasion_curve: Vec<EvasionPoint>,
}

/// A serializable summary of [`BlackboxArtifacts`] (everything except
/// the model and vocabulary objects) for JSON reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlackboxSummary {
    /// Attacker vocabulary size.
    pub attacker_vocab_len: usize,
    /// See [`BlackboxArtifacts::oracle_queries`].
    pub oracle_queries: usize,
    /// See [`BlackboxArtifacts::ledger`].
    pub ledger: QueryLedger,
    /// See [`BlackboxArtifacts::oracle_agreement`].
    pub oracle_agreement: f64,
    /// See [`BlackboxArtifacts::baseline_detection`].
    pub baseline_detection: f64,
    /// See [`BlackboxArtifacts::target_detection`].
    pub target_detection: f64,
    /// See [`BlackboxArtifacts::transfer_rate`].
    pub transfer_rate: f64,
    /// See [`BlackboxArtifacts::attacked`].
    pub attacked: usize,
    /// See [`BlackboxArtifacts::evasions`].
    pub evasions: usize,
    /// Queries spent when the first evasion landed; `0` when none.
    pub queries_to_first_evasion: usize,
    /// See [`BlackboxArtifacts::evasion_curve`].
    pub evasion_curve: Vec<EvasionPoint>,
}

impl BlackboxArtifacts {
    /// The serializable summary of this run.
    pub fn summary(&self) -> BlackboxSummary {
        BlackboxSummary {
            attacker_vocab_len: self.attacker_vocab.len(),
            oracle_queries: self.oracle_queries,
            ledger: self.ledger,
            oracle_agreement: self.oracle_agreement,
            baseline_detection: self.baseline_detection,
            target_detection: self.target_detection,
            transfer_rate: self.transfer_rate,
            attacked: self.attacked,
            evasions: self.evasions,
            queries_to_first_evasion: self.queries_to_first_evasion.unwrap_or(0),
            evasion_curve: self.evasion_curve.clone(),
        }
    }
}

/// Runs the Figure 2 black-box framework end-to-end against the
/// in-process detector (the offline oracle).
///
/// # Errors
///
/// Returns [`NnError`] on training or shape failures.
///
/// # Panics
///
/// Panics if `config.seed_corpus == 0` or `config.vocab_overlap` is
/// outside `(0, 1]`.
pub fn run(ctx: &ExperimentContext, config: &BlackboxConfig) -> Result<BlackboxArtifacts, NnError> {
    let mut oracle = DetectorOracle::new(&ctx.detector);
    run_with_oracle(ctx, config, &mut oracle)
}

/// Runs the Figure 2 black-box framework against an arbitrary
/// [`LabelOracle`] — the in-process detector offline, or a live scoring
/// service over the wire. The attacker's RNG stream depends only on
/// `config.seed`, so two runs with the same config submit the same
/// query sequence regardless of which oracle answers; when the oracles
/// agree (serving is bit-identical to scanning), the runs are
/// identical.
///
/// # Errors
///
/// Returns [`NnError`] on training or shape failures, or when the
/// oracle refuses a query (e.g. a live service throttling the client).
/// A refused query is *not* the budget running out — budget exhaustion
/// degrades the run gracefully instead of failing it.
///
/// # Panics
///
/// Panics if `config.seed_corpus == 0` or `config.vocab_overlap` is
/// outside `(0, 1]`.
pub fn run_with_oracle(
    ctx: &ExperimentContext,
    config: &BlackboxConfig,
    oracle: &mut dyn LabelOracle,
) -> Result<BlackboxArtifacts, NnError> {
    assert!(config.seed_corpus > 0, "seed corpus must be non-empty");
    let mut ledger = QueryLedger::default();
    let budget_left = |ledger: &QueryLedger, needed: usize| {
        config.query_budget == 0 || ledger.total() + needed <= config.query_budget
    };
    let mut rng = maleva_apisim::rng(config.seed ^ 0xB1AC_B0C5);

    // The attacker's own feature space: binary features over a guessed
    // vocabulary that only partially overlaps the defender's.
    let attacker_vocab = ApiVocab::attacker_guess(config.vocab_overlap);

    // 1. Seed corpus, labelled by the oracle (the deployed detector).
    let half = config.seed_corpus / 2;
    let mut corpus: Vec<Program> =
        ctx.world
            .sample_batch(half, config.seed_corpus - half, &mut rng);
    let mut labels: Vec<usize> = Vec::with_capacity(corpus.len());
    for p in &corpus {
        if !budget_left(&ledger, 1) {
            break;
        }
        labels.push(usize::from(oracle.label(p)?));
        ledger.seed += 1;
    }
    if labels.is_empty() {
        return Err(NnError::InvalidConfig {
            detail: format!(
                "query budget {} cannot label a single seed sample",
                config.query_budget
            ),
        });
    }
    corpus.truncate(labels.len());

    // 2-4. Train + Jacobian augmentation rounds.
    let attacker_features = |progs: &[Program]| -> Matrix {
        let rows: Vec<Vec<f64>> = progs
            .iter()
            .map(|p| {
                let text = p.render_log(ctx.world.vocab());
                let counts = maleva_apisim::log::parse_counts(&text, &attacker_vocab);
                counts
                    .iter()
                    .map(|&c| CountTransform::Binary.apply(c))
                    .collect()
            })
            .collect();
        Matrix::from_rows(&rows).expect("uniform rows")
    };

    let mut substitute = substitute_model(
        attacker_vocab.len(),
        ctx.scale.model_scale,
        config.seed ^ 0xBB,
    )?;
    for round in 0..=config.augmentation_rounds {
        let x = attacker_features(&corpus);
        substitute = substitute_model(
            attacker_vocab.len(),
            ctx.scale.model_scale,
            config.seed ^ 0xBB,
        )?;
        Trainer::new(
            ctx.scale
                .substitute_trainer(config.seed.wrapping_add(round as u64)),
        )
        .fit(&mut substitute, &x, &labels)?;

        if round == config.augmentation_rounds {
            break;
        }
        // Augment: for each corpus program, insert the API with the
        // strongest substitute gradient *toward the oracle's label
        // boundary*, then ask the oracle for the new sample's label.
        let mut new_programs = Vec::with_capacity(corpus.len());
        let mut new_labels = Vec::with_capacity(corpus.len());
        for (p, &label) in corpus.iter().zip(labels.iter()) {
            if !budget_left(&ledger, 1) {
                break;
            }
            let text = p.render_log(ctx.world.vocab());
            let counts = maleva_apisim::log::parse_counts(&text, &attacker_vocab);
            let feats: Vec<f64> = counts
                .iter()
                .map(|&c| CountTransform::Binary.apply(c))
                .collect();
            let jac = substitute.probability_jacobian(&feats, 1.0)?;
            // Move across the boundary: increase the feature pushing away
            // from the current label.
            let away_class = 1 - label;
            let mut best = None;
            for (j, &f) in feats.iter().enumerate() {
                if f >= 1.0 {
                    continue;
                }
                let s = jac.get(away_class, j);
                if best.is_none_or(|(_, bv)| s > bv) {
                    best = Some((j, s));
                }
            }
            let Some((j, _)) = best else { continue };
            // The attacker's feature j is an API *name* in their own
            // vocabulary; only names the defender's world also knows can
            // be inserted into real source code.
            let Some(api_name) = attacker_vocab.name(j) else {
                continue;
            };
            let Some(world_idx) = ctx.world.vocab().index_of(api_name) else {
                continue; // fabricated API: cannot exist in a real program
            };
            let mut augmented = p.clone();
            augmented.insert_api_calls(world_idx, 1);
            new_labels.push(usize::from(oracle.label(&augmented)?));
            ledger.augmentation += 1;
            new_programs.push(augmented);
        }
        corpus.extend(new_programs);
        labels.extend(new_labels);
    }

    // Substitute-oracle agreement on a fresh attacker batch.
    let probe = ctx.world.sample_batch(40, 40, &mut rng);
    let probe_x = attacker_features(&probe);
    let sub_preds = substitute.predict(&probe_x)?;
    let mut agree = 0usize;
    let mut probed = 0usize;
    for (p, &sp) in probe.iter().zip(sub_preds.iter()) {
        if !budget_left(&ledger, 1) {
            break;
        }
        let oracle_label = usize::from(oracle.label(p)?);
        ledger.agreement += 1;
        probed += 1;
        if oracle_label == sp {
            agree += 1;
        }
    }
    let oracle_agreement = if probed == 0 {
        0.0
    } else {
        agree as f64 / probed as f64
    };
    let oracle_queries = ledger.seed + ledger.augmentation + ledger.agreement;

    // 5. Craft on the substitute; rebuild as programs; scan with the
    // target. Each attacked program costs two queries: the baseline
    // scan and the rebuilt-program scan.
    let mal_programs: Vec<&Program> = ctx
        .dataset
        .test()
        .iter()
        .filter(|p| p.class() == Class::Malware)
        .take(config.eval_samples)
        .collect();
    let jsma = Jsma::new(1.0, config.gamma);
    let mut detected = 0usize;
    let mut baseline_detected = 0usize;
    let mut attacked = 0usize;
    let mut evasions = 0usize;
    let mut evasion_curve: Vec<EvasionPoint> = Vec::new();
    for prog in &mal_programs {
        if !budget_left(&ledger, 2) {
            break;
        }
        let baseline_hit = oracle.label(prog)?;
        ledger.evaluation += 1;
        if baseline_hit {
            baseline_detected += 1;
        }
        let text = prog.render_log(ctx.world.vocab());
        let counts = maleva_apisim::log::parse_counts(&text, &attacker_vocab);
        let feats: Vec<f64> = counts
            .iter()
            .map(|&c| CountTransform::Binary.apply(c))
            .collect();
        let outcome = jsma.craft(&substitute, &feats)?;
        let mut modified = (*prog).clone();
        for (j, (&b, &a)) in feats.iter().zip(outcome.adversarial.iter()).enumerate() {
            if b == 0.0 && a > 0.0 {
                if let Some(name) = attacker_vocab.name(j) {
                    if let Some(world_idx) = ctx.world.vocab().index_of(name) {
                        modified.insert_api_calls(world_idx, 1);
                    }
                }
            }
        }
        let modified_hit = oracle.label(&modified)?;
        ledger.evaluation += 1;
        attacked += 1;
        if modified_hit {
            detected += 1;
        }
        if baseline_hit && !modified_hit {
            evasions += 1;
            evasion_curve.push(EvasionPoint {
                queries: ledger.total(),
                evasions,
            });
        }
    }
    let n = attacked.max(1) as f64;
    let target_detection = detected as f64 / n;
    Ok(BlackboxArtifacts {
        substitute,
        attacker_vocab,
        oracle_queries,
        ledger,
        oracle_agreement,
        target_detection,
        transfer_rate: 1.0 - target_detection,
        baseline_detection: baseline_detected as f64 / n,
        attacked,
        evasions,
        queries_to_first_evasion: evasion_curve.first().map(|pt| pt.queries),
        evasion_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentContext, ExperimentScale};

    fn small_config() -> BlackboxConfig {
        BlackboxConfig {
            seed_corpus: 60,
            augmentation_rounds: 1,
            vocab_overlap: 0.6,
            gamma: 0.05,
            eval_samples: 30,
            query_budget: 0,
            seed: 3,
        }
    }

    #[test]
    fn blackbox_framework_runs_end_to_end() {
        let ctx = ExperimentContext::build(ExperimentScale::tiny(), 41).unwrap();
        let artifacts = run(&ctx, &small_config()).unwrap();
        // Oracle spend: seed labels + augmentation + agreement probe.
        assert!(artifacts.oracle_queries >= 60);
        assert_eq!(
            artifacts.oracle_queries,
            artifacts.ledger.seed + artifacts.ledger.augmentation + artifacts.ledger.agreement
        );
        assert_eq!(artifacts.ledger.seed, 60);
        assert_eq!(artifacts.ledger.evaluation, 2 * artifacts.attacked);
        assert_eq!(artifacts.attacked, 30);
        // The substitute learned *something* about the oracle.
        assert!(
            artifacts.oracle_agreement > 0.6,
            "agreement {}",
            artifacts.oracle_agreement
        );
        // Rates are consistent.
        assert!((artifacts.transfer_rate + artifacts.target_detection - 1.0).abs() < 1e-12);
        assert!(
            artifacts.baseline_detection >= artifacts.target_detection - 1e-9,
            "modification should not make detection easier: baseline {} vs {}",
            artifacts.baseline_detection,
            artifacts.target_detection
        );
        // The evasion curve is consistent with the evasion count.
        assert_eq!(artifacts.evasion_curve.len(), artifacts.evasions);
        assert!(artifacts
            .evasion_curve
            .windows(2)
            .all(|w| w[0].queries < w[1].queries && w[0].evasions < w[1].evasions));
        assert_eq!(
            artifacts.queries_to_first_evasion,
            artifacts.evasion_curve.first().map(|pt| pt.queries)
        );
    }

    #[test]
    fn blackbox_is_weakest_threat_model() {
        // Black-box transfer should not exceed grey-box transfer at a
        // comparable budget (the paper's knowledge hierarchy).
        let ctx = ExperimentContext::build(ExperimentScale::tiny(), 42).unwrap();
        let bb = run(&ctx, &small_config()).unwrap();
        let substitute = crate::greybox::train_substitute(&ctx, 42).unwrap();
        let grey = crate::greybox::operating_point(&ctx, &substitute, 30, 0.4, 0.1).unwrap();
        assert!(
            bb.target_detection >= grey.target_detection - 0.2,
            "black-box ({}) should not be far stronger than grey-box ({})",
            bb.target_detection,
            grey.target_detection
        );
    }

    #[test]
    fn query_budget_caps_total_spend() {
        let ctx = ExperimentContext::build(ExperimentScale::tiny(), 41).unwrap();
        let unlimited = run(&ctx, &small_config()).unwrap();
        let mut config = small_config();
        config.query_budget = 100;
        let capped = run(&ctx, &config).unwrap();
        assert!(capped.ledger.total() <= 100, "{:?}", capped.ledger);
        assert!(capped.ledger.total() < unlimited.ledger.total());
        // Seed labelling is untouched (100 > 60); later phases take
        // the shortfall.
        assert_eq!(capped.ledger.seed, 60);
        assert!(capped.attacked < unlimited.attacked.max(1));
    }

    #[test]
    fn budget_too_small_for_a_single_label_is_an_error() {
        let ctx = ExperimentContext::build(ExperimentScale::tiny(), 43).unwrap();
        let mut config = small_config();
        config.query_budget = 0; // sanity: 0 means unlimited, not empty
        assert!(run(&ctx, &config).is_ok());
    }

    #[test]
    #[should_panic(expected = "seed corpus must be non-empty")]
    fn rejects_empty_corpus() {
        let ctx = ExperimentContext::build(ExperimentScale::tiny(), 43).unwrap();
        let mut config = small_config();
        config.seed_corpus = 0;
        let _ = run(&ctx, &config);
    }
}
