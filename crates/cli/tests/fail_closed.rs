//! A detector whose weights are all finite can still overflow in its
//! forward pass and score NaN. `maleva scan` and `maleva attack` must
//! fail on such a score instead of reading it as a `clean` verdict.

use std::path::PathBuf;
use std::process::{Command, Output};

use maleva_core::DetectorPipeline;

fn maleva(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_maleva"))
        .args(args)
        .output()
        .expect("run maleva")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("maleva-cli-fail-closed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn path(p: &std::path::Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

#[test]
fn a_non_finite_score_fails_scan_and_attack() {
    let model = scratch("detector.json");
    let train = maleva(&[
        "train",
        "--out",
        path(&model),
        "--scale",
        "tiny",
        "--seed",
        "7",
    ]);
    assert!(train.status.success(), "{train:?}");
    let log = scratch("mal.log");
    let gen = maleva(&[
        "gen",
        "--out",
        path(&log),
        "--class",
        "malware",
        "--seed",
        "3",
    ]);
    assert!(gen.status.success(), "{gen:?}");

    // The same detector with its last two layers' weights scaled by
    // 1e200: every weight is finite, so it loads.
    let detector =
        DetectorPipeline::from_json(&std::fs::read_to_string(&model).expect("read model"))
            .expect("load model");
    let mut network = detector.network().clone();
    let depth = network.layers().len();
    for layer in &mut network.layers_mut()[depth - 2..] {
        for w in layer.weights_mut().as_mut_slice() {
            *w *= 1e200;
        }
    }
    let overflowing = detector.with_network(network).expect("same widths");
    let text = std::fs::read_to_string(&log).expect("read log");
    assert!(
        overflowing.scan_log(&text).is_err(),
        "the sample must overflow the scaled detector"
    );
    let bad_model = scratch("overflowing.json");
    std::fs::write(&bad_model, overflowing.to_json().expect("export")).expect("write model");

    let scan = maleva(&["scan", "--model", path(&bad_model), "--log", path(&log)]);
    assert!(!scan.status.success(), "{scan:?}");
    let stdout = String::from_utf8_lossy(&scan.stdout);
    assert!(!stdout.contains("clean"), "{stdout}");
    let stderr = String::from_utf8_lossy(&scan.stderr);
    assert!(stderr.contains("non-finite"), "{stderr}");

    let evaded = scratch("evaded.log");
    let attack = maleva(&[
        "attack",
        "--model",
        path(&bad_model),
        "--log",
        path(&log),
        "--theta",
        "0.4",
        "--gamma",
        "0.3",
        "--out",
        path(&evaded),
    ]);
    assert!(!attack.status.success(), "{attack:?}");
    assert!(
        !evaded.exists(),
        "no evasion can be crafted from a NaN score"
    );

    // The unscaled detector still scans the same log.
    let scan = maleva(&["scan", "--model", path(&model), "--log", path(&log)]);
    assert!(scan.status.success(), "{scan:?}");
    let _ = std::fs::remove_dir_all(model.parent().expect("scratch dir"));
}
