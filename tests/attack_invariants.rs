//! Cross-crate attack invariants at the full 491-feature dimension:
//! domain constraints (add-only, feature box, budget) that must hold for
//! *every* attack implementation against the real detector.

use std::sync::OnceLock;

use maleva_attack::{
    EnsembleJsma, EvasionAttack, Jsma, RandomAddition, SaliencyPolicy, SqueezeAwareJsma,
};
use maleva_core::{ExperimentContext, ExperimentScale};

fn ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::build(ExperimentScale::tiny(), 777).expect("context"))
}

fn attacks() -> Vec<Box<dyn EvasionAttack>> {
    vec![
        Box::new(Jsma::new(0.2, 0.05)),
        Box::new(Jsma::new(0.2, 0.05).with_high_confidence()),
        Box::new(Jsma::new(0.2, 0.05).with_policy(SaliencyPolicy::PairwiseProduct)),
        Box::new(RandomAddition::new(0.2, 0.05, 3)),
        Box::new(SqueezeAwareJsma::new(Jsma::new(0.2, 0.05), 0.21, 0.01)),
    ]
}

#[test]
fn every_attack_respects_the_feature_box() {
    let ctx = ctx();
    let malware = ctx.attack_batch();
    for attack in attacks() {
        let (adv, _) = attack.craft_batch(ctx.target(), &malware).expect("craft");
        assert!(
            adv.iter().all(|v| (0.0..=1.0).contains(&v)),
            "{} left the [0,1] box",
            attack.name()
        );
    }
}

#[test]
fn every_addonly_attack_is_monotone() {
    // The malware-domain constraint: API calls are only added, so every
    // adversarial feature value must be >= the original.
    let ctx = ctx();
    let malware = ctx.attack_batch();
    for attack in attacks() {
        let (adv, _) = attack.craft_batch(ctx.target(), &malware).expect("craft");
        for r in 0..malware.rows() {
            for (o, a) in malware.row(r).iter().zip(adv.row(r).iter()) {
                assert!(
                    a >= o,
                    "{} removed features (sample {r}): {a} < {o}",
                    attack.name()
                );
            }
        }
    }
}

#[test]
fn jsma_respects_the_gamma_budget_at_491_features() {
    let ctx = ctx();
    let malware = ctx.attack_batch();
    for gamma in [0.005, 0.02, 0.05] {
        let jsma = Jsma::new(0.3, gamma);
        let budget = jsma.max_features(491);
        // Cross-check the paper's mapping: gamma 0.025 -> 12 features.
        if (gamma - 0.025).abs() < 1e-12 {
            assert_eq!(budget, 12);
        }
        let (_, outcomes) = jsma.craft_batch(ctx.target(), &malware).expect("craft");
        for o in &outcomes {
            assert!(
                o.features_modified() <= budget,
                "gamma {gamma}: modified {} > budget {budget}",
                o.features_modified()
            );
        }
    }
}

#[test]
fn paper_gamma_mapping_adds_up_to_14_features() {
    // Figure 3(a): gamma in [0 : 0.005 : 0.030] "adding [0 : 2 : 14]
    // features" over 491.
    let expected = [0usize, 2, 4, 7, 9, 12, 14];
    for (i, &e) in expected.iter().enumerate() {
        let gamma = i as f64 * 0.005;
        let jsma = Jsma::new(0.1, gamma.max(1e-9));
        assert_eq!(
            jsma.max_features(491),
            e,
            "gamma {gamma} should admit {e} features"
        );
    }
}

#[test]
fn outcomes_report_consistent_l2() {
    let ctx = ctx();
    let malware = ctx.attack_batch();
    let jsma = Jsma::new(0.25, 0.04);
    let (adv, outcomes) = jsma.craft_batch(ctx.target(), &malware).expect("craft");
    for (r, o) in outcomes.iter().enumerate() {
        let manual = maleva_linalg::norm::l2_distance(malware.row(r), adv.row(r));
        assert!((o.l2_distance - manual).abs() < 1e-12);
        // L2 of an add-only theta perturbation over k features is at most
        // theta * sqrt(k).
        let bound = 0.25 * (o.features_modified() as f64).sqrt();
        assert!(o.l2_distance <= bound + 1e-9);
    }
}

#[test]
fn high_confidence_uses_at_least_as_many_features() {
    let ctx = ctx();
    let malware = ctx.attack_batch();
    let stop = Jsma::new(0.3, 0.05);
    let exhaust = Jsma::new(0.3, 0.05).with_high_confidence();
    let (_, so) = stop.craft_batch(ctx.target(), &malware).expect("craft");
    let (_, eo) = exhaust.craft_batch(ctx.target(), &malware).expect("craft");
    let sum = |os: &[maleva_attack::AttackOutcome]| -> usize {
        os.iter().map(|o| o.features_modified()).sum()
    };
    assert!(sum(&eo) >= sum(&so));
}

#[test]
fn evaded_flag_agrees_with_the_crafting_model() {
    let ctx = ctx();
    let malware = ctx.attack_batch();
    let jsma = Jsma::new(0.3, 0.06);
    let (adv, outcomes) = jsma.craft_batch(ctx.target(), &malware).expect("craft");
    let preds = ctx.target().predict(&adv).expect("predict");
    for (o, &p) in outcomes.iter().zip(preds.iter()) {
        assert_eq!(o.evaded, p == 0, "evaded flag inconsistent with prediction");
    }
}

#[test]
fn ensemble_attack_obeys_constraints_at_491_features() {
    let ctx = ctx();
    let malware = ctx.attack_batch();
    let small: Vec<usize> = (0..10.min(malware.rows())).collect();
    let batch = malware.select_rows(&small);
    let members = [ctx.target()];
    let attack = EnsembleJsma::new(0.3, 0.05);
    let (adv, outcomes) = attack.craft_batch(&members, &batch).expect("craft");
    assert!(adv.iter().all(|v| (0.0..=1.0).contains(&v)));
    for (r, o) in outcomes.iter().enumerate() {
        assert!(o.features_modified() <= attack.max_features(491));
        for (orig, a) in batch.row(r).iter().zip(o.adversarial.iter()) {
            assert!(a >= orig, "ensemble attack removed features");
        }
    }
}

#[test]
fn squeeze_aware_perturbations_survive_trimming() {
    let ctx = ctx();
    let malware = ctx.attack_batch();
    let small: Vec<usize> = (0..10.min(malware.rows())).collect();
    let batch = malware.select_rows(&small);
    let trim = 0.31;
    let attack = SqueezeAwareJsma::new(Jsma::new(0.3, 0.05).with_high_confidence(), trim, 0.01);
    let (adv, outcomes) = attack.craft_batch(ctx.target(), &batch).expect("craft");
    for (r, o) in outcomes.iter().enumerate() {
        for &j in &o.perturbed_features {
            assert!(
                adv.get(r, j) >= trim,
                "perturbed feature {j} at {} would be trimmed",
                adv.get(r, j)
            );
        }
    }
}
