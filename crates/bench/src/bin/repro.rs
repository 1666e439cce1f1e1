//! `repro` — regenerates every table and figure of *"Malware Evasion
//! Attack and Defense"* (Huang et al., DSN 2019) on the synthetic world.
//!
//! ```text
//! repro [--scale tiny|quick|paper] [--seed N] [--exp ID]
//!       [--checkpoint-dir DIR [--checkpoint-every K] [--resume]]
//!       [--trace-out FILE] [--manifest-out FILE] [--threads N]
//!       [--backend pooled|simd]
//!
//! IDs: table1 table2 table3 table4 figure1 figure2 fig3a fig3b
//!      fig4a fig4b fig4c fig5a fig5b live table5 table6 all
//! ```
//!
//! `--trace-out FILE` streams structured JSONL spans (pipeline stages,
//! training epochs, attack batches) to FILE, or to stderr with `-`.
//! Every run writes a provenance manifest (seed, config hash, per-phase
//! wall-clock) to `--manifest-out` (default `manifest.json`).
//!
//! With `--checkpoint-dir` the target-model training snapshots its full
//! state every K epochs (default 1); re-running with `--resume` after an
//! interruption continues from the snapshot and produces bit-identical
//! results to an uninterrupted run.
//!
//! Absolute numbers will not match the paper (the substrate is a
//! simulator, not McAfee's production corpus); the printed paper values
//! are reproduced alongside for shape comparison. See EXPERIMENTS.md.

use std::process::ExitCode;

use maleva_attack::sweep::SweepAxis;
use maleva_core::{blackbox, defenses, greybox, live, whitebox};
use maleva_core::{CheckpointPlan, ExperimentContext, ExperimentScale};
use maleva_nn::Network;
use maleva_obs::trace;

struct Args {
    scale: ExperimentScale,
    seed: u64,
    exp: String,
    csv_dir: Option<String>,
    checkpoint_dir: Option<String>,
    checkpoint_every: usize,
    resume: bool,
    trace_out: Option<String>,
    manifest_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = ExperimentScale::quick();
    let mut seed = 42u64;
    let mut exp = "all".to_string();
    let mut csv_dir = None;
    let mut checkpoint_dir = None;
    let mut checkpoint_every = 1usize;
    let mut resume = false;
    let mut trace_out = None;
    let mut manifest_out = "manifest.json".to_string();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--scale" => {
                let v = argv.next().ok_or("--scale needs a value")?;
                scale = match v.as_str() {
                    "tiny" => ExperimentScale::tiny(),
                    "quick" => ExperimentScale::quick(),
                    "paper" => ExperimentScale::paper(),
                    other => return Err(format!("unknown scale: {other}")),
                };
            }
            "--seed" => {
                seed = argv
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--exp" => {
                exp = argv.next().ok_or("--exp needs a value")?;
            }
            "--csv-dir" => {
                csv_dir = Some(argv.next().ok_or("--csv-dir needs a value")?);
            }
            "--checkpoint-dir" => {
                checkpoint_dir = Some(argv.next().ok_or("--checkpoint-dir needs a value")?);
            }
            "--checkpoint-every" => {
                checkpoint_every = argv
                    .next()
                    .ok_or("--checkpoint-every needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if checkpoint_every == 0 {
                    return Err("--checkpoint-every must be positive".to_string());
                }
            }
            "--resume" => {
                resume = true;
            }
            "--trace-out" => {
                trace_out = Some(argv.next().ok_or("--trace-out needs a value")?);
            }
            "--manifest-out" => {
                manifest_out = argv.next().ok_or("--manifest-out needs a value")?;
            }
            "--threads" => {
                let n: usize = argv
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be positive".to_string());
                }
                maleva_linalg::pool::set_threads(n);
            }
            "--backend" => {
                let kind: maleva_linalg::BackendKind = argv
                    .next()
                    .ok_or("--backend needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --backend: {e}"))?;
                maleva_linalg::set_backend(Some(kind));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [--scale tiny|quick|paper] [--seed N] [--exp ID] [--csv-dir DIR]\n\
                     \x20           [--checkpoint-dir DIR [--checkpoint-every K] [--resume]]\n\
                     \x20           [--trace-out FILE] [--manifest-out FILE] [--threads N]\n\
                     \x20           [--backend pooled|simd]\n\
                     IDs: table1 table2 table3 table4 figure1 figure2 fig3a fig3b\n\
                     \x20     fig4a fig4b fig4c fig5a fig5b live table5 table6 all"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if checkpoint_dir.is_none() && resume {
        return Err("--resume requires --checkpoint-dir".to_string());
    }
    Ok(Args {
        scale,
        seed,
        exp,
        csv_dir,
        checkpoint_dir,
        checkpoint_every,
        resume,
        trace_out,
        manifest_out,
    })
}

/// Lazily-built shared state: the context plus the grey-box substitute.
struct Session {
    ctx: ExperimentContext,
    substitute: Option<Network>,
    samples: usize,
    csv_dir: Option<String>,
}

impl Session {
    fn new(args: &Args) -> Self {
        eprintln!(
            "[repro] building context (scale={}, seed={}) ...",
            args.scale.name, args.seed
        );
        let t = std::time::Instant::now();
        let plan = match &args.checkpoint_dir {
            Some(dir) => {
                eprintln!(
                    "[repro] checkpointing target training into {dir} every {} epoch(s){}",
                    args.checkpoint_every,
                    if args.resume {
                        ", resuming if possible"
                    } else {
                        ""
                    }
                );
                CheckpointPlan::new(dir, args.checkpoint_every, args.resume)
            }
            None => CheckpointPlan::none(),
        };
        let ctx = ExperimentContext::build_with_checkpoints(args.scale.clone(), args.seed, plan)
            .expect("context construction");
        eprintln!("[repro] context ready in {:.1?}", t.elapsed());
        let samples = ctx.scale.attack_samples;
        if let Some(dir) = &args.csv_dir {
            std::fs::create_dir_all(dir).expect("create --csv-dir");
        }
        Session {
            ctx,
            substitute: None,
            samples,
            csv_dir: args.csv_dir.clone(),
        }
    }

    /// Writes a curve as `<csv_dir>/<name>.csv` when --csv-dir is set.
    fn emit_csv(&self, name: &str, curve: &maleva_eval::SecurityCurve) {
        if let Some(dir) = &self.csv_dir {
            let path = format!("{dir}/{name}.csv");
            std::fs::write(&path, curve.to_csv()).expect("write csv");
            eprintln!("[repro] wrote {path}");
        }
    }

    fn substitute(&mut self) -> &Network {
        if self.substitute.is_none() {
            eprintln!("[repro] training substitute model (Table IV) ...");
            let t = std::time::Instant::now();
            self.substitute = Some(
                greybox::train_substitute(&self.ctx, self.ctx.seed ^ 0x5B).expect("substitute"),
            );
            eprintln!("[repro] substitute ready in {:.1?}", t.elapsed());
        }
        self.substitute.as_ref().expect("just built")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let all = [
        "table1", "table2", "table3", "table4", "figure1", "fig3a", "fig3b", "fig4a", "fig4b",
        "fig4c", "fig5a", "fig5b", "live", "table5", "table6", "figure2",
    ];
    let extras = ["ablations", "ensemble", "adaptive", "osshift"];
    let selected: Vec<&str> = if args.exp == "all" {
        all.to_vec()
    } else if all.contains(&args.exp.as_str()) || extras.contains(&args.exp.as_str()) {
        vec![args.exp.as_str()]
    } else {
        eprintln!("error: unknown experiment id: {}", args.exp);
        return ExitCode::FAILURE;
    };

    if let Some(path) = &args.trace_out {
        let sink = if path == "-" {
            trace::Sink::Stderr
        } else {
            trace::Sink::File(path.into())
        };
        if let Err(e) = trace::install(sink) {
            eprintln!("error: cannot open --trace-out {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let build_start = std::time::Instant::now();
    let mut session = Session::new(&args);
    let mut manifest = maleva_obs::ManifestBuilder::new("repro")
        .seed(args.seed)
        .scale(args.scale.name)
        .config(&format!(
            "repro scale={} seed={} exp={}",
            args.scale.name, args.seed, args.exp
        ))
        .crate_version("maleva-bench", env!("CARGO_PKG_VERSION"))
        .phase("build_context", build_start.elapsed());
    let (tpr, tnr) = session.ctx.baseline_rates().expect("baseline");
    println!(
        "=== maleva repro | scale={} seed={} ===",
        args.scale.name, args.seed
    );
    let auc = session
        .ctx
        .target_auc()
        .expect("auc")
        .map(|a| format!("{a:.3}"))
        .unwrap_or_else(|| "nan".to_string());
    println!(
        "baseline: malware TPR {tpr:.3} (paper 0.883) | clean TNR {tnr:.3} (paper 0.964) | AUC {auc}\n"
    );

    for exp in selected {
        let t = std::time::Instant::now();
        let mut span = maleva_obs::Span::enter("repro.experiment");
        span.record("exp", exp);
        run_experiment(exp, &mut session);
        drop(span);
        let elapsed = t.elapsed();
        manifest = manifest.phase(exp, elapsed);
        eprintln!("[repro] {exp} finished in {elapsed:.1?}\n");
    }

    match manifest
        .build()
        .write_to(std::path::Path::new(&args.manifest_out))
    {
        Ok(()) => eprintln!("[repro] wrote provenance manifest to {}", args.manifest_out),
        Err(e) => {
            eprintln!("error: cannot write {}: {e}", args.manifest_out);
            return ExitCode::FAILURE;
        }
    }
    trace::flush();
    ExitCode::SUCCESS
}

fn run_experiment(id: &str, s: &mut Session) {
    match id {
        "table1" => table1(s),
        "table2" => table2(s),
        "table3" => table3(s),
        "table4" => table4(s),
        "figure1" => figure1(s),
        "fig3a" => fig3a(s),
        "fig3b" => fig3b(s),
        "fig4a" => fig4a(s),
        "fig4b" => fig4b(s),
        "fig4c" => fig4c(s),
        "fig5a" => fig5(s, true),
        "fig5b" => fig5(s, false),
        "live" => live_test(s),
        "table5" | "table6" => tables_5_and_6(s),
        "figure2" => figure2(s),
        "ablations" => ablations(s),
        "ensemble" => ensemble_transfer(s),
        "adaptive" => adaptive_squeeze(s),
        "osshift" => os_shift(s),
        other => unreachable!("unknown experiment {other}"),
    }
}

fn table1(s: &mut Session) {
    println!("--- Table I: the dataset ---");
    println!("{}", s.ctx.dataset.render_table_i());
    println!(
        "(paper: train 57170 = 28594 clean + 28576 malware; val 578; test 45028 = 16154 + 28874)\n"
    );
}

fn table2(s: &mut Session) {
    println!("--- Table II: excerpt of a log file ---");
    let prog = &s.ctx.dataset.test()[0];
    let log = prog.render_log(s.ctx.world.vocab());
    for line in log.lines().take(10) {
        println!("{line}");
    }
    println!();
}

fn table3(s: &mut Session) {
    println!("--- Table III: excerpt of the API features (indices 475-484) ---");
    let vocab = s.ctx.world.vocab();
    for i in 475..485.min(vocab.len()) {
        println!("{i} {}", vocab.name(i).expect("in range"));
    }
    println!("(paper shows 475 waitmessage ... 484 writeprofilestringa)\n");
}

fn table4(s: &mut Session) {
    println!("--- Table IV: the substitute model ---");
    let spec = &s.ctx.scale.dataset;
    println!("{} balanced training data", spec.train_total());
    let sub = s.substitute();
    let dims = sub.dims();
    println!("{}-layer DNN", dims.len());
    for (i, d) in dims.iter().enumerate() {
        println!("layer {} : {} nodes", i + 1, d);
    }
    println!("(paper: 491 / 1200 / 1500 / 1300 / 2 at full width)\n");
}

fn figure1(s: &mut Session) {
    println!("--- Figure 1: generating one adversarial example ---");
    let ctx = &s.ctx;
    let batch = ctx.attack_batch();
    let jsma = maleva_attack::Jsma::new(0.1, 0.025);
    use maleva_attack::EvasionAttack;
    // Find a sample the attack flips and show which APIs were added.
    for r in 0..batch.rows().min(50) {
        let outcome = jsma.craft(ctx.target(), batch.row(r)).expect("craft");
        if outcome.evaded && !outcome.perturbed_features.is_empty() {
            let names: Vec<&str> = outcome
                .perturbed_features
                .iter()
                .filter_map(|&i| ctx.world.vocab().name(i))
                .collect();
            println!("malware sample #{r}: added API calls {names:?}");
            println!(
                "evaded after touching {} of 491 features, L2 distance {:.4}",
                outcome.features_modified(),
                outcome.l2_distance
            );
            println!("(paper's example adds 'destroyicon' and 'dllsload')\n");
            return;
        }
    }
    println!("no sample flipped at theta=0.1, gamma=0.025 in the first 50; see fig3a\n");
}

fn fig3a(s: &mut Session) {
    println!("--- Figure 3(a): white-box, theta = 0.100, gamma in [0 : 0.005 : 0.030] ---");
    let curve = whitebox::gamma_curve(&s.ctx, s.samples).expect("fig3a");
    s.emit_csv("fig3a", &curve);
    println!("{}", curve.render());
    println!("(paper: detection collapses to ~0.099 by gamma = 0.025; random stays flat)\n");
}

fn fig3b(s: &mut Session) {
    println!("--- Figure 3(b): white-box, gamma = 0.025, theta in [0 : 0.0125 : 0.15] ---");
    let curve = whitebox::theta_curve(&s.ctx, s.samples).expect("fig3b");
    s.emit_csv("fig3b", &curve);
    println!("{}", curve.render());
    println!("--- extended axis (simulated detector is more robust than the paper's) ---");
    let ext = whitebox::curve(
        &s.ctx,
        s.samples,
        SweepAxis::Theta {
            gamma: 0.025,
            values: (0..=6).map(|i| i as f64 * 0.05).collect(),
        },
    )
    .expect("fig3b-ext");
    println!("{}", ext.render());
}

fn fig4a(s: &mut Session) {
    println!("--- Figure 4(a): grey-box transfer, theta = 0.100, gamma sweep ---");
    let samples = s.samples;
    let ctx = s.ctx.clone();
    let sub = s.substitute().clone();
    let curve = greybox::gamma_transfer_curve(&ctx, &sub, samples).expect("fig4a");
    s.emit_csv("fig4a", &curve);
    println!("{}", curve.render());
    println!("--- extended axis (simulated detector is more robust than the paper's) ---");
    let ext = greybox::transfer_curve(
        &ctx,
        &sub,
        samples,
        SweepAxis::Gamma {
            theta: 0.25,
            values: (0..=6).map(|i| i as f64 * 0.01).collect(),
        },
    )
    .expect("fig4a-ext");
    println!("{}", ext.render());
    println!("(paper: target detection 0.147 at gamma = 0.005 — transfer rate 0.853)\n");
}

fn fig4b(s: &mut Session) {
    println!("--- Figure 4(b): grey-box transfer, gamma = 0.005, theta sweep ---");
    let samples = s.samples;
    let ctx = s.ctx.clone();
    let sub = s.substitute().clone();
    let curve = greybox::theta_transfer_curve(&ctx, &sub, samples).expect("fig4b");
    s.emit_csv("fig4b", &curve);
    println!("{}", curve.render());
    println!("--- extended axis ---");
    let ext = greybox::transfer_curve(
        &ctx,
        &sub,
        samples,
        SweepAxis::Theta {
            gamma: 0.05,
            values: (0..=6).map(|i| i as f64 * 0.05).collect(),
        },
    )
    .expect("fig4b-ext");
    println!("{}", ext.render());
}

fn fig4c(s: &mut Session) {
    println!("--- Figure 4(c): grey-box with binary features (end-to-end rescan) ---");
    let gammas: Vec<f64> = (0..=6).map(|i| i as f64 * 0.005).collect();
    let samples = s.samples.min(150);
    let report = greybox::binary_feature_experiment(&s.ctx, s.ctx.seed ^ 0x4C, samples, &gammas)
        .expect("fig4c");
    s.emit_csv("fig4c", &report.curve);
    println!("{}", report.curve.render());
    println!(
        "final target detection {:.3} (paper 0.6951), transfer rate {:.3} (paper 0.3049)\n",
        report.final_target_detection, report.final_transfer_rate
    );
}

fn fig5(s: &mut Session, gamma_axis: bool) {
    let samples = s.samples.min(300);
    let ctx = s.ctx.clone();
    let sub = s.substitute().clone();
    if gamma_axis {
        println!("--- Figure 5(a): L2 distances, theta = 0.100, gamma sweep ---");
        let curve =
            greybox::l2_curves(&ctx, &sub, samples, SweepAxis::paper_gamma()).expect("fig5a");
        s.emit_csv("fig5a", &curve);
        println!("{}", curve.render());
    } else {
        println!("--- Figure 5(b): L2 distances, gamma = 0.005, theta sweep ---");
        let axis = SweepAxis::Theta {
            gamma: 0.005,
            values: (0..=12).map(|i| i as f64 * 0.0125).collect(),
        };
        let curve = greybox::l2_curves(&ctx, &sub, samples, axis).expect("fig5b");
        s.emit_csv("fig5b", &curve);
        println!("{}", curve.render());
    }
    println!("(paper: d(mal,adv) < d(mal,clean) < d(clean,adv); distances grow with strength)\n");
}

fn live_test(s: &mut Session) {
    println!("--- Live grey-box test: insert one API repeatedly ---");
    let ctx = s.ctx.clone();
    let sub = s.substitute().clone();
    let report = live::live_greybox_test(&ctx, &sub, 16).expect("live");
    println!("{}", report.render());
    match report.evaded_at {
        Some(n) => println!("verdict flipped to clean after {n} insertions"),
        None => println!("verdict did not flip within the insertion budget"),
    }
    println!("(paper: 98.43% at 0, 88.88% at 1, 0% at 8 insertions)\n");
}

fn tables_5_and_6(s: &mut Session) {
    println!("--- Tables V & VI: defense comparison ---");
    let ctx = s.ctx.clone();
    let sub = s.substitute().clone();
    let config = defenses::DefenseConfig::default();
    let cmp = defenses::compare_defenses(&ctx, &sub, &config).expect("defenses");
    println!("{}", cmp.render_table_v());
    println!("{}", cmp.render_table_vi());
    println!(
        "(paper Table VI: NoDefense advex TPR 0.304; AdvTraining 0.931; Distillation 0.577;\n\
         FeaSqueezing 0.554; DimReduct 0.913 with clean TNR dropping to 0.674)\n"
    );
}

fn figure2(s: &mut Session) {
    println!("--- Figure 2: black-box framework (paper future work; implemented) ---");
    let config = blackbox::BlackboxConfig {
        seed_corpus: 200.min(s.ctx.scale.dataset.train_total() / 4).max(40),
        augmentation_rounds: 2,
        vocab_overlap: 0.6,
        gamma: 0.05,
        eval_samples: s.samples.min(150),
        query_budget: 0,
        seed: s.ctx.seed ^ 0xF2,
    };
    let artifacts = blackbox::run(&s.ctx, &config).expect("blackbox");
    println!("oracle queries spent     : {}", artifacts.oracle_queries);
    println!(
        "substitute-oracle agree  : {:.3}",
        artifacts.oracle_agreement
    );
    println!(
        "baseline detection       : {:.3}",
        artifacts.baseline_detection
    );
    println!(
        "post-attack detection    : {:.3}",
        artifacts.target_detection
    );
    println!("transfer (evasion) rate  : {:.3}", artifacts.transfer_rate);
    println!("(black-box should be the weakest threat model)\n");
}

/// Effectiveness ablations for the design choices DESIGN.md calls out.
fn ablations(s: &mut Session) {
    use maleva_attack::{detection_rate, EvasionAttack, Jsma, SaliencyPolicy};
    use maleva_core::models::{reduced_model, target_model};
    use maleva_defense::{DefensiveDistillation, Detector, PcaDefense};

    let ctx = s.ctx.clone();
    let sub = s.substitute().clone();
    let batch = {
        let full = ctx.attack_batch();
        let n = 150.min(full.rows());
        let idx: Vec<usize> = (0..n).collect();
        full.select_rows(&idx)
    };
    let baseline = detection_rate(ctx.target(), &batch).expect("baseline");

    println!("--- Ablation 1 & 2: JSMA saliency policy and add-only constraint ---");
    println!("baseline detection: {baseline:.3}");
    let variants: Vec<(&str, Jsma)> = vec![
        ("single+add-only (paper)", Jsma::new(0.15, 0.025)),
        (
            "pairwise+add-only",
            Jsma::new(0.15, 0.025).with_policy(SaliencyPolicy::PairwiseProduct),
        ),
        (
            "single, unconstrained",
            Jsma::new(0.15, 0.025).with_add_only(false),
        ),
        (
            "single, high-confidence",
            Jsma::new(0.15, 0.025).with_high_confidence(),
        ),
    ];
    for (name, jsma) in variants {
        let (adv, outcomes) = jsma.craft_batch(ctx.target(), &batch).expect("craft");
        let dr = detection_rate(ctx.target(), &adv).expect("rate");
        let mean_feat: f64 = outcomes
            .iter()
            .map(|o| o.features_modified() as f64)
            .sum::<f64>()
            / outcomes.len() as f64;
        println!("{name:<28} detection {dr:.3}  mean features {mean_feat:.1}");
    }

    println!("\n--- Ablation 4: distillation temperature sweep (advex crafted white-box) ---");
    let jsma = Jsma::new(0.2, 0.04).with_high_confidence();
    for t in [1.0, 5.0, 20.0, 50.0, 100.0] {
        let distill = DefensiveDistillation::new(
            t,
            ctx.scale.substitute_trainer(ctx.seed ^ 0x71),
            ctx.scale.substitute_trainer(ctx.seed ^ 0x72),
        );
        let teacher =
            target_model(ctx.x_train.cols(), ctx.scale.model_scale, ctx.seed ^ 0x73).expect("m");
        let fresh =
            target_model(ctx.x_train.cols(), ctx.scale.model_scale, ctx.seed ^ 0x74).expect("m");
        let (student, _) = distill
            .defend(teacher, fresh, &ctx.x_train, &ctx.y_train)
            .expect("distill");
        let (adv, _) = jsma.craft_batch(&student, &batch).expect("craft");
        let adv_tpr = detection_rate(&student, &adv).expect("rate");
        let mal_tpr = detection_rate(&student, &batch).expect("rate");
        let clean_fp = detection_rate(&student, &ctx.clean_batch()).expect("rate");
        println!(
            "T = {t:<5}  malware TPR {mal_tpr:.3}  clean TNR {:.3}  whitebox-advex TPR {adv_tpr:.3}",
            1.0 - clean_fp
        );
    }

    println!("\n--- Ablation 5: PCA K sweep (transferred advex from the substitute) ---");
    let (advex, _) = Jsma::new(0.25, 0.05)
        .with_high_confidence()
        .craft_batch(&sub, &batch)
        .expect("craft");
    for k in [2usize, 10, 19, 50, 100] {
        let reduced =
            reduced_model(k, ctx.scale.model_scale, ctx.seed ^ (k as u64)).expect("reduced");
        let pca = PcaDefense::fit(
            k,
            reduced,
            &ctx.x_train,
            &ctx.y_train,
            ctx.scale.substitute_trainer(ctx.seed ^ 0x75),
        )
        .expect("pca defense");
        let rate = |x: &maleva_linalg::Matrix| {
            let l = pca.predict_labels(x).expect("labels");
            l.iter().filter(|&&v| v == 1).count() as f64 / l.len() as f64
        };
        println!(
            "K = {k:<4}  malware TPR {:.3}  clean TNR {:.3}  advex TPR {:.3}",
            rate(&batch),
            1.0 - rate(&ctx.clean_batch()),
            rate(&advex)
        );
    }
    println!();
}

/// Extension: ensemble-substitute transfer (the transferability booster
/// from the literature the paper cites).
fn ensemble_transfer(s: &mut Session) {
    println!("--- Extension: ensemble-substitute transfer attack ---");
    let ctx = s.ctx.clone();
    let single = s.substitute().clone();
    let members = greybox::train_substitute_ensemble(&ctx, ctx.seed ^ 0xE5, 3).expect("ensemble");
    let samples = s.samples.min(200);
    let batch = {
        let full = ctx.attack_batch();
        let idx: Vec<usize> = (0..samples.min(full.rows())).collect();
        full.select_rows(&idx)
    };
    for (t, g) in [(0.15, 0.03), (0.25, 0.05)] {
        // Fair comparison: both attackers craft high-confidence examples.
        use maleva_attack::{detection_rate, EvasionAttack, Jsma};
        let (adv_single, _) = Jsma::new(t, g)
            .with_high_confidence()
            .craft_batch(&single, &batch)
            .expect("single craft");
        let lone = detection_rate(ctx.target(), &adv_single).expect("rate");
        let joint =
            greybox::ensemble_operating_point(&ctx, &members, samples, t, g).expect("joint");
        println!(
            "theta {t} gamma {g}: single-substitute target detection {lone:.3} | \
             3-member ensemble {:.3}",
            joint.target_detection
        );
    }
    println!("(averaging substitute gradients cancels model-specific quirks)\n");
}

/// Extension: the adaptive attacker vs feature squeezing (the paper's
/// closing open challenge).
fn adaptive_squeeze(s: &mut Session) {
    println!("--- Extension: adaptive attacker vs feature squeezing ---");
    let ctx = s.ctx.clone();
    let sub = s.substitute().clone();
    let config = defenses::DefenseConfig::default();
    let report = defenses::adaptive_squeeze_experiment(&ctx, &sub, &config).expect("adaptive");
    println!(
        "squeezer false alarms on clean      : {:.3}",
        report.clean_flag_rate
    );
    println!(
        "squeezer flags naive advex          : {:.3}",
        report.naive_flag_rate
    );
    println!(
        "squeezer flags squeeze-aware advex  : {:.3}",
        report.adaptive_flag_rate
    );
    println!(
        "classifier detects naive advex      : {:.3}",
        report.naive_detection
    );
    println!(
        "classifier detects adaptive advex   : {:.3}",
        report.adaptive_detection
    );
    println!(
        "(the paper's conclusion: defenses must anticipate adaptive attacks — a \
         squeeze-aware attacker plants perturbations above the trim threshold and \
         blinds the detector)\n"
    );
}

/// Extension: OS distribution shift — why the paper mixes Win XP/7/8/10
/// logs in its training corpus.
fn os_shift(s: &mut Session) {
    println!("--- Extension: OS distribution shift ---");
    let report = maleva_core::drift::os_shift_for(&s.ctx).expect("os shift");
    println!(
        "legacy-trained on legacy-OS test : {:.3}",
        report.legacy_on_legacy
    );
    println!(
        "legacy-trained on modern-OS test : {:.3}",
        report.legacy_on_modern
    );
    println!(
        "mixed-trained  on modern-OS test : {:.3}",
        report.mixed_on_modern
    );
    println!(
        "shift penalty {:.3}, recovered by mixed training {:.3}\n",
        report.shift_penalty(),
        report.mitigation_gain()
    );
}
