use std::path::PathBuf;

use maleva_linalg::{stats, Matrix};
use maleva_obs::trace::{self, Span};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{TrainCheckpoint, CHECKPOINT_VERSION};
use crate::optim::{Adam, OptimizerState, Sgd};
use crate::{init, loss, Gradients, Network, NnError};

/// What the trainer does when an epoch numerically diverges (non-finite
/// loss, gradient or weight — see [`NnError::NumericDivergence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DivergencePolicy {
    /// Fail the run with the divergence error (the default).
    Abort,
    /// Restore the network to the end of the last good epoch and return
    /// the report so far. Diverging before any epoch completes is still
    /// an error.
    Rollback,
    /// Restore the last good epoch, halve the learning rate, and retry
    /// the epoch — up to 8 halvings, after which the error surfaces.
    HalveLrRetry,
}

/// Retry bound for [`DivergencePolicy::HalveLrRetry`]: 8 halvings cut
/// the learning rate by 256×; a run still diverging there is beyond
/// rescue by step size.
const MAX_LR_HALVINGS: usize = 8;

/// Which optimizer the trainer instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Adam with the configured learning rate (the paper's choice).
    Adam,
    /// SGD with the configured learning rate and this momentum.
    Sgd {
        /// Momentum coefficient in `[0, 1)`.
        momentum: f64,
    },
}

/// Training hyperparameters.
///
/// Defaults mirror the paper's substitute-model recipe where practical:
/// Adam, learning rate 0.001, batch size 256 (Section III-B; the paper's
/// 1000 epochs are impractical on a laptop reproduction — configure
/// `epochs` per experiment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    epochs: usize,
    batch_size: usize,
    learning_rate: f64,
    temperature: f64,
    optimizer: OptimizerKind,
    weight_decay: f64,
    seed: u64,
    early_stop_patience: Option<usize>,
    grad_clip: Option<f64>,
    on_divergence: DivergencePolicy,
    checkpoint_dir: Option<String>,
    checkpoint_every: usize,
    resume: bool,
}

impl TrainConfig {
    /// Creates the default configuration (Adam, lr 0.001, batch 256,
    /// 10 epochs, T = 1, no weight decay, seed 0, abort on divergence,
    /// no gradient clipping, no checkpointing).
    pub fn new() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 256,
            learning_rate: 0.001,
            temperature: 1.0,
            optimizer: OptimizerKind::Adam,
            weight_decay: 0.0,
            seed: 0,
            early_stop_patience: None,
            grad_clip: None,
            on_divergence: DivergencePolicy::Abort,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
        }
    }

    /// Sets the number of passes over the training data.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the minibatch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the optimizer learning rate.
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the softmax temperature used in the training loss. Defensive
    /// distillation trains teacher and student at T ≫ 1 (the paper uses
    /// T = 50).
    pub fn temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// Selects the optimizer.
    pub fn optimizer(mut self, kind: OptimizerKind) -> Self {
        self.optimizer = kind;
        self
    }

    /// Sets L2 weight decay.
    pub fn weight_decay(mut self, wd: f64) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Sets the RNG seed governing shuffling and dropout.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables early stopping: training ends once the validation loss has
    /// not improved by at least `1e-4` for `patience` consecutive epochs.
    /// Requires a validation set to be passed to
    /// [`Trainer::fit_labeled`]; without one the setting is ignored.
    pub fn early_stop_patience(mut self, patience: usize) -> Self {
        self.early_stop_patience = Some(patience);
        self
    }

    /// Enables global gradient clipping: whenever the L2 norm of the
    /// full gradient (all layers, weights and biases together) exceeds
    /// `max_norm`, the gradient is rescaled to that norm. A standard
    /// guard against exploding gradients.
    pub fn grad_clip(mut self, max_norm: f64) -> Self {
        self.grad_clip = Some(max_norm);
        self
    }

    /// Selects what happens when training numerically diverges. The
    /// default is [`DivergencePolicy::Abort`].
    pub fn on_divergence(mut self, policy: DivergencePolicy) -> Self {
        self.on_divergence = policy;
        self
    }

    /// Enables checkpointing into `dir`: a [`TrainCheckpoint`] is
    /// written there after every K-th completed epoch (see
    /// [`TrainConfig::checkpoint_every`]). Combine with
    /// [`TrainConfig::resume`] to continue an interrupted run.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into().to_string_lossy().into_owned());
        self
    }

    /// Sets the checkpoint cadence: write every `k` completed epochs
    /// (default 1). Ignored without [`TrainConfig::checkpoint_dir`].
    pub fn checkpoint_every(mut self, k: usize) -> Self {
        self.checkpoint_every = k;
        self
    }

    /// When a checkpoint exists in the checkpoint directory, resume from
    /// it instead of starting over. A resumed run is bit-identical to an
    /// uninterrupted one. Without an existing checkpoint, training
    /// starts fresh.
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.epochs == 0 {
            return Err(NnError::InvalidConfig {
                detail: "epochs must be positive".to_string(),
            });
        }
        if self.batch_size == 0 {
            return Err(NnError::InvalidConfig {
                detail: "batch size must be positive".to_string(),
            });
        }
        if self.learning_rate <= 0.0 {
            return Err(NnError::InvalidConfig {
                detail: format!("learning rate must be positive, got {}", self.learning_rate),
            });
        }
        if self.temperature <= 0.0 {
            return Err(NnError::InvalidConfig {
                detail: format!("temperature must be positive, got {}", self.temperature),
            });
        }
        if let OptimizerKind::Sgd { momentum } = self.optimizer {
            if !(0.0..1.0).contains(&momentum) {
                return Err(NnError::InvalidConfig {
                    detail: format!("momentum must be in [0, 1), got {momentum}"),
                });
            }
        }
        if let Some(c) = self.grad_clip {
            if !(c > 0.0 && c.is_finite()) {
                return Err(NnError::InvalidConfig {
                    detail: format!("gradient clip norm must be positive and finite, got {c}"),
                });
            }
        }
        if self.checkpoint_every == 0 {
            return Err(NnError::InvalidConfig {
                detail: "checkpoint cadence must be positive".to_string(),
            });
        }
        Ok(())
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Labels for one training run: hard class indices or soft probability
/// rows (the distillation student trains on the teacher's soft labels).
#[derive(Debug, Clone, Copy)]
pub enum LabelSource<'a> {
    /// One class index per sample.
    Hard(&'a [usize]),
    /// One probability row per sample (`n x num_classes`).
    Soft(&'a Matrix),
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index, starting at 0.
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub train_loss: f64,
    /// Training accuracy over the epoch (argmax vs hard labels;
    /// `None` when training on soft labels).
    pub train_accuracy: Option<f64>,
    /// Validation loss, if a validation set was supplied.
    pub val_loss: Option<f64>,
    /// Validation accuracy, if a validation set was supplied.
    pub val_accuracy: Option<f64>,
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Statistics for each epoch in order.
    pub epochs: Vec<EpochStats>,
}

impl TrainReport {
    /// The final epoch's training loss.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map(|e| e.train_loss).unwrap_or(f64::NAN)
    }

    /// The final epoch's training accuracy, if tracked.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.epochs.last().and_then(|e| e.train_accuracy)
    }
}

/// Seeded minibatch trainer for [`Network`].
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// Trains on hard labels. Convenience for
    /// [`Trainer::fit_labeled`] with [`LabelSource::Hard`].
    ///
    /// # Errors
    ///
    /// See [`Trainer::fit_labeled`].
    pub fn fit(
        &self,
        net: &mut Network,
        x: &Matrix,
        labels: &[usize],
    ) -> Result<TrainReport, NnError> {
        self.fit_labeled(net, x, LabelSource::Hard(labels), None)
    }

    /// Trains on soft labels (distillation).
    ///
    /// # Errors
    ///
    /// See [`Trainer::fit_labeled`].
    pub fn fit_soft(
        &self,
        net: &mut Network,
        x: &Matrix,
        soft: &Matrix,
    ) -> Result<TrainReport, NnError> {
        self.fit_labeled(net, x, LabelSource::Soft(soft), None)
    }

    /// Trains with full control: hard or soft labels, plus an optional
    /// hard-labelled validation set evaluated after every epoch.
    ///
    /// # Errors
    ///
    /// * [`NnError::InvalidConfig`] for degenerate hyperparameters.
    /// * [`NnError::LabelMismatch`] if labels do not match the batch.
    /// * [`NnError::InputShape`] if the feature width is wrong.
    pub fn fit_labeled(
        &self,
        net: &mut Network,
        x: &Matrix,
        labels: LabelSource<'_>,
        validation: Option<(&Matrix, &[usize])>,
    ) -> Result<TrainReport, NnError> {
        self.config.validate()?;
        let n = x.rows();
        if n == 0 {
            return Err(NnError::LabelMismatch {
                detail: "empty training set".to_string(),
            });
        }
        match labels {
            LabelSource::Hard(l) => {
                if l.len() != n {
                    return Err(NnError::LabelMismatch {
                        detail: format!("{} labels for {} samples", l.len(), n),
                    });
                }
                if let Some(&bad) = l.iter().find(|&&c| c >= net.num_classes()) {
                    return Err(NnError::LabelMismatch {
                        detail: format!(
                            "label {bad} out of range for {} classes",
                            net.num_classes()
                        ),
                    });
                }
            }
            LabelSource::Soft(s) => {
                if s.shape() != (n, net.num_classes()) {
                    return Err(NnError::LabelMismatch {
                        detail: format!(
                            "soft labels are {:?}, expected ({n}, {})",
                            s.shape(),
                            net.num_classes()
                        ),
                    });
                }
            }
        }

        let mut rng = init::rng(self.config.seed);
        let mut opt = match self.config.optimizer {
            OptimizerKind::Adam => OptimizerState::Adam(
                Adam::new(self.config.learning_rate).with_weight_decay(self.config.weight_decay),
            ),
            OptimizerKind::Sgd { momentum } => OptimizerState::Sgd(
                Sgd::new(self.config.learning_rate)
                    .with_momentum(momentum)
                    .with_weight_decay(self.config.weight_decay),
            ),
        };

        let mut indices: Vec<usize> = (0..n).collect();
        let mut report = TrainReport { epochs: Vec::new() };
        let mut best_val_loss = f64::INFINITY;
        let mut epochs_since_best = 0usize;
        let mut lr_halvings = 0usize;
        let mut epoch = 0usize;

        let checkpoint_dir = self.config.checkpoint_dir.as_ref().map(PathBuf::from);
        if self.config.resume {
            if let Some(dir) = &checkpoint_dir {
                if let Some(cp) = TrainCheckpoint::load(dir)? {
                    if cp.indices.len() != n {
                        return Err(NnError::Checkpoint {
                            detail: format!(
                                "checkpoint was taken on {} samples but the training set has {n}",
                                cp.indices.len()
                            ),
                        });
                    }
                    *net = cp.network;
                    opt = cp.optimizer;
                    rng = cp.rng;
                    indices = cp.indices;
                    report = cp.report;
                    best_val_loss = cp.best_val_loss.unwrap_or(f64::INFINITY);
                    epochs_since_best = cp.epochs_since_best;
                    lr_halvings = cp.lr_halvings;
                    epoch = cp.next_epoch;
                }
            }
        }

        let mut fit_span = Span::enter("train.fit");
        fit_span.record("samples", n as u64);
        fit_span.record("target_epochs", self.config.epochs as u64);
        fit_span.record("resume_epoch", epoch as u64);

        while epoch < self.config.epochs {
            // Pre-epoch snapshot for the restoring divergence policies;
            // Abort skips the clone cost.
            let snapshot = if self.config.on_divergence == DivergencePolicy::Abort {
                None
            } else {
                Some((net.clone(), opt.clone(), rng.clone(), indices.clone()))
            };

            match self.run_epoch(
                net,
                x,
                labels,
                validation,
                &mut indices,
                &mut rng,
                &mut opt,
                epoch,
            ) {
                Ok(epoch_stats) => {
                    let val_loss = epoch_stats.val_loss;
                    report.epochs.push(epoch_stats);
                    let mut stop = false;
                    if let (Some(patience), Some(vl)) = (self.config.early_stop_patience, val_loss)
                    {
                        // Improvements smaller than min_delta do not reset the
                        // counter — cross-entropy keeps creeping down forever on
                        // separable data, which is exactly when stopping should
                        // fire.
                        const MIN_DELTA: f64 = 1e-4;
                        if vl + MIN_DELTA < best_val_loss {
                            best_val_loss = vl;
                            epochs_since_best = 0;
                        } else {
                            epochs_since_best += 1;
                            if epochs_since_best >= patience {
                                stop = true;
                            }
                        }
                    }
                    epoch += 1;
                    if let Some(dir) = &checkpoint_dir {
                        let due = epoch.is_multiple_of(self.config.checkpoint_every);
                        if due || stop || epoch == self.config.epochs {
                            TrainCheckpoint {
                                version: CHECKPOINT_VERSION,
                                next_epoch: epoch,
                                network: net.clone(),
                                optimizer: opt.clone(),
                                rng: rng.clone(),
                                indices: indices.clone(),
                                report: report.clone(),
                                best_val_loss: best_val_loss.is_finite().then_some(best_val_loss),
                                epochs_since_best,
                                lr_halvings,
                            }
                            .save(dir)?;
                        }
                    }
                    if stop {
                        break;
                    }
                }
                Err(e)
                    if e.is_retryable() && self.config.on_divergence != DivergencePolicy::Abort =>
                {
                    let (net0, opt0, rng0, idx0) =
                        snapshot.expect("snapshot taken for non-abort policies");
                    match self.config.on_divergence {
                        DivergencePolicy::Rollback => {
                            *net = net0;
                            if report.epochs.is_empty() {
                                return Err(e);
                            }
                            return Ok(report);
                        }
                        DivergencePolicy::HalveLrRetry => {
                            if lr_halvings >= MAX_LR_HALVINGS {
                                return Err(e);
                            }
                            *net = net0;
                            opt = opt0;
                            rng = rng0;
                            indices = idx0;
                            opt.scale_learning_rate(0.5);
                            lr_halvings += 1;
                        }
                        DivergencePolicy::Abort => unreachable!("guarded above"),
                    }
                }
                Err(e) => return Err(e),
            }
        }
        fit_span.record("epochs_run", report.epochs.len() as u64);
        fit_span.record("lr_halvings", lr_halvings as u64);
        if let Some(last) = report.epochs.last() {
            fit_span.record("final_loss", last.train_loss);
        }
        Ok(report)
    }

    /// Runs one epoch: shuffle, minibatch updates, per-batch numeric
    /// guards, and the end-of-epoch statistics/validation pass.
    #[allow(clippy::too_many_arguments)]
    fn run_epoch(
        &self,
        net: &mut Network,
        x: &Matrix,
        labels: LabelSource<'_>,
        validation: Option<(&Matrix, &[usize])>,
        indices: &mut [usize],
        rng: &mut rand_chacha::ChaCha8Rng,
        opt: &mut OptimizerState,
        epoch: usize,
    ) -> Result<EpochStats, NnError> {
        let mut span = Span::enter("train.epoch");
        span.record("epoch", epoch as u64);
        let n = x.rows();
        let t = self.config.temperature;
        shuffle(indices, rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        let mut correct = 0usize;
        // Gradient-norm telemetry is computed only when tracing is on:
        // the extra O(params) pass is pure diagnostics and must not
        // change timing-insensitive results (it never touches values).
        let mut grad_sq_sum = 0.0;

        for chunk in indices.chunks(self.config.batch_size) {
            let xb = x.select_rows(chunk);
            let (logits, caches) = net.forward_train(&xb, rng)?;
            let (batch_loss, grad) = match labels {
                LabelSource::Hard(l) => {
                    let lb: Vec<usize> = chunk.iter().map(|&i| l[i]).collect();
                    let loss_val = loss::cross_entropy(&logits, &lb, t)?;
                    let g = loss::cross_entropy_grad(&logits, &lb, t)?;
                    let preds = logits.argmax_rows();
                    correct += preds.iter().zip(lb.iter()).filter(|(p, y)| p == y).count();
                    (loss_val, g)
                }
                LabelSource::Soft(s) => {
                    let sb = s.select_rows(chunk);
                    let loss_val = loss::soft_cross_entropy(&logits, &sb, t)?;
                    let g = loss::soft_cross_entropy_grad(&logits, &sb, t)?;
                    (loss_val, g)
                }
            };
            if !batch_loss.is_finite() {
                return Err(NnError::NumericDivergence {
                    epoch,
                    batch: batches,
                    detail: format!("training loss is {batch_loss}"),
                });
            }
            epoch_loss += batch_loss;

            let mut grads = net.backward(&caches, &grad)?;
            check_gradients_finite(&grads, epoch, batches)?;
            if trace::enabled() {
                grad_sq_sum += grad_sq_norm(&grads);
            }
            if let Some(max_norm) = self.config.grad_clip {
                clip_gradients(&mut grads, max_norm);
            }
            let opt = opt.as_optimizer();
            opt.tick();
            for (i, ((gw, gb), layer)) in grads
                .layers
                .iter()
                .zip(net.layers_mut().iter_mut())
                .enumerate()
            {
                opt.step(2 * i, layer.weights_mut().as_mut_slice(), gw.as_slice());
                opt.step(2 * i + 1, layer.bias_mut(), gb);
            }
            batches += 1;
        }

        // Weight guard once per epoch: an update that produced NaN/Inf
        // parameters poisons everything downstream.
        for (i, layer) in net.layers().iter().enumerate() {
            stats::check_matrix_finite(&format!("layer {i} weights"), layer.weights())
                .and_then(|()| stats::check_finite(&format!("layer {i} bias"), layer.bias()))
                .map_err(|e| NnError::NumericDivergence {
                    epoch,
                    batch: batches.saturating_sub(1),
                    detail: e.to_string(),
                })?;
        }

        let train_accuracy = match labels {
            LabelSource::Hard(_) => Some(correct as f64 / n as f64),
            LabelSource::Soft(_) => None,
        };
        let (val_loss, val_accuracy) = match validation {
            Some((vx, vy)) => {
                let logits = net.logits(vx)?;
                let vl = loss::cross_entropy(&logits, vy, t)?;
                if !vl.is_finite() {
                    return Err(NnError::NumericDivergence {
                        epoch,
                        batch: batches.saturating_sub(1),
                        detail: format!("validation loss is {vl}"),
                    });
                }
                (Some(vl), Some(loss::accuracy(&logits, vy)?))
            }
            None => (None, None),
        };
        let stats = EpochStats {
            epoch,
            train_loss: epoch_loss / batches.max(1) as f64,
            train_accuracy,
            val_loss,
            val_accuracy,
        };
        if trace::enabled() {
            let grad_norm_mean = (grad_sq_sum / batches.max(1) as f64).sqrt();
            trace::event(
                "train.epoch_stats",
                &[
                    ("epoch", (epoch as u64).into()),
                    ("loss", stats.train_loss.into()),
                    ("accuracy", stats.train_accuracy.unwrap_or(f64::NAN).into()),
                    ("val_loss", stats.val_loss.unwrap_or(f64::NAN).into()),
                    ("grad_norm_mean", grad_norm_mean.into()),
                ],
            );
            span.record("batches", batches as u64);
            span.record("loss", stats.train_loss);
            if let Some(acc) = stats.train_accuracy {
                span.record("accuracy", acc);
            }
            if let Some(vl) = stats.val_loss {
                span.record("val_loss", vl);
            }
            span.record("grad_norm_mean", grad_norm_mean);
        }
        Ok(stats)
    }
}

/// Squared global L2 norm of the gradient (all layers, weights + biases).
fn grad_sq_norm(grads: &Gradients) -> f64 {
    let mut sq = 0.0;
    for (gw, gb) in &grads.layers {
        sq += gw.as_slice().iter().map(|g| g * g).sum::<f64>();
        sq += gb.iter().map(|g| g * g).sum::<f64>();
    }
    sq
}

/// Fails with [`NnError::NumericDivergence`] if any gradient element is
/// non-finite.
fn check_gradients_finite(grads: &Gradients, epoch: usize, batch: usize) -> Result<(), NnError> {
    for (i, (gw, gb)) in grads.layers.iter().enumerate() {
        stats::check_matrix_finite(&format!("layer {i} weight gradient"), gw)
            .and_then(|()| stats::check_finite(&format!("layer {i} bias gradient"), gb))
            .map_err(|e| NnError::NumericDivergence {
                epoch,
                batch,
                detail: e.to_string(),
            })?;
    }
    Ok(())
}

/// Rescales the whole gradient (all layers, weights + biases) to at most
/// `max_norm` in global L2 norm.
fn clip_gradients(grads: &mut Gradients, max_norm: f64) {
    let norm = grad_sq_norm(grads).sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        for (gw, gb) in &mut grads.layers {
            for g in gw.as_mut_slice() {
                *g *= scale;
            }
            for g in gb {
                *g *= scale;
            }
        }
    }
}

/// Fisher–Yates shuffle with the crate's deterministic RNG.
fn shuffle(indices: &mut [usize], rng: &mut impl rand::Rng) {
    for i in (1..indices.len()).rev() {
        let j = rng.gen_range(0..=i);
        indices.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, NetworkBuilder};

    fn blob_data(n_per_class: usize) -> (Matrix, Vec<usize>) {
        // Two well-separated Gaussian-ish blobs on a 4-D grid (deterministic).
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class {
            let jitter = (i % 7) as f64 * 0.02;
            rows.push(vec![0.1 + jitter, 0.2, 0.1, 0.15 + jitter]);
            labels.push(0);
            rows.push(vec![0.9 - jitter, 0.8, 0.85, 0.9 - jitter]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn small_net(seed: u64) -> Network {
        NetworkBuilder::new(4)
            .layer(8, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn training_reduces_loss_and_reaches_high_accuracy() {
        let (x, y) = blob_data(32);
        let mut net = small_net(1);
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(30)
                .batch_size(16)
                .learning_rate(0.01),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        assert!(report.epochs.len() == 30);
        assert!(report.final_loss() < report.epochs[0].train_loss);
        assert!(report.final_accuracy().unwrap() > 0.95);
    }

    #[test]
    fn sgd_also_trains() {
        let (x, y) = blob_data(32);
        let mut net = small_net(2);
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(50)
                .batch_size(16)
                .learning_rate(0.1)
                .optimizer(OptimizerKind::Sgd { momentum: 0.9 }),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        assert!(report.final_accuracy().unwrap() > 0.9);
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (x, y) = blob_data(16);
        let cfg = TrainConfig::new().epochs(5).batch_size(8).seed(99);
        let mut a = small_net(7);
        let mut b = small_net(7);
        let ra = Trainer::new(cfg.clone()).fit(&mut a, &x, &y).unwrap();
        let rb = Trainer::new(cfg).fit(&mut b, &x, &y).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.logits(&x).unwrap(), b.logits(&x).unwrap());
    }

    #[test]
    fn validation_stats_are_reported() {
        let (x, y) = blob_data(16);
        let (vx, vy) = blob_data(4);
        let mut net = small_net(3);
        let report = Trainer::new(TrainConfig::new().epochs(3).batch_size(8))
            .fit_labeled(&mut net, &x, LabelSource::Hard(&y), Some((&vx, &vy)))
            .unwrap();
        for e in &report.epochs {
            assert!(e.val_loss.is_some());
            assert!(e.val_accuracy.is_some());
        }
    }

    #[test]
    fn soft_label_training_matches_teacher_distribution() {
        let (x, y) = blob_data(32);
        // Teacher: train normally.
        let mut teacher = small_net(4);
        Trainer::new(
            TrainConfig::new()
                .epochs(30)
                .batch_size(16)
                .learning_rate(0.01),
        )
        .fit(&mut teacher, &x, &y)
        .unwrap();
        let soft = teacher.predict_proba(&x).unwrap();
        // Student: train on teacher's soft labels only.
        let mut student = small_net(5);
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(30)
                .batch_size(16)
                .learning_rate(0.01),
        )
        .fit_soft(&mut student, &x, &soft)
        .unwrap();
        assert!(report.epochs.iter().all(|e| e.train_accuracy.is_none()));
        // The student should agree with the teacher on most samples.
        let tp = teacher.predict(&x).unwrap();
        let sp = student.predict(&x).unwrap();
        let agree = tp.iter().zip(sp.iter()).filter(|(a, b)| a == b).count();
        assert!(agree as f64 / tp.len() as f64 > 0.9);
    }

    #[test]
    fn dropout_training_still_converges() {
        let (x, y) = blob_data(32);
        let mut net = NetworkBuilder::new(4)
            .layer(16, Activation::ReLU)
            .dropout(0.3)
            .layer(2, Activation::Identity)
            .seed(6)
            .build()
            .unwrap();
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(40)
                .batch_size(16)
                .learning_rate(0.01),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        assert!(report.final_accuracy().unwrap() > 0.9);
    }

    #[test]
    fn rejects_bad_configs() {
        let (x, y) = blob_data(4);
        let mut net = small_net(0);
        for cfg in [
            TrainConfig::new().epochs(0),
            TrainConfig::new().batch_size(0),
            TrainConfig::new().learning_rate(0.0),
            TrainConfig::new().temperature(0.0),
            TrainConfig::new().optimizer(OptimizerKind::Sgd { momentum: 1.5 }),
        ] {
            assert!(Trainer::new(cfg).fit(&mut net, &x, &y).is_err());
        }
    }

    #[test]
    fn rejects_label_mismatches() {
        let (x, _) = blob_data(4);
        let mut net = small_net(0);
        let trainer = Trainer::new(TrainConfig::new().epochs(1));
        assert!(trainer.fit(&mut net, &x, &[0, 1]).is_err()); // too few
        let bad: Vec<usize> = vec![5; x.rows()]; // out of range
        assert!(trainer.fit(&mut net, &x, &bad).is_err());
        let soft = Matrix::zeros(3, 2); // wrong rows
        assert!(trainer.fit_soft(&mut net, &x, &soft).is_err());
    }

    #[test]
    fn empty_training_set_errors() {
        let mut net = small_net(0);
        let x = Matrix::zeros(0, 4);
        assert!(Trainer::new(TrainConfig::new())
            .fit(&mut net, &x, &[])
            .is_err());
    }

    /// A deep *linear* net: with no saturating activation in the way,
    /// gradient magnitudes scale with the weights themselves, so a
    /// ruinous learning rate grows the parameters multiplicatively until
    /// f64 overflows — the classic exploding-gradient failure mode.
    fn linear_net(seed: u64) -> Network {
        NetworkBuilder::new(4)
            .layer(8, Activation::Identity)
            .layer(8, Activation::Identity)
            .layer(2, Activation::Identity)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn diverging_run_returns_numeric_divergence() {
        // An absurd learning rate makes SGD blow up exponentially: the
        // guard must surface a typed error instead of silently returning
        // NaN weights.
        let (x, y) = blob_data(32);
        let mut net = linear_net(9);
        let err = Trainer::new(
            TrainConfig::new()
                .epochs(30)
                .batch_size(16)
                .learning_rate(1e3)
                .optimizer(OptimizerKind::Sgd { momentum: 0.9 }),
        )
        .fit(&mut net, &x, &y)
        .unwrap_err();
        assert!(
            matches!(err, NnError::NumericDivergence { .. }),
            "expected NumericDivergence, got {err:?}"
        );
        // The guard fired before NaN weights could be committed as the
        // "result": an aborted run reports the error, and downstream code
        // never mistakes the poisoned network for a trained one.
    }

    #[test]
    fn gradient_clipping_keeps_training_stable() {
        let (x, y) = blob_data(32);
        let mut net = small_net(10);
        // Same ruinous learning rate, but with the global gradient norm
        // clipped hard the updates stay bounded and finite.
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(5)
                .batch_size(16)
                .learning_rate(1e3)
                .optimizer(OptimizerKind::Sgd { momentum: 0.9 })
                .grad_clip(1e-4),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        assert!(report.final_loss().is_finite());
        for layer in net.layers() {
            assert!(layer.weights().as_slice().iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn rollback_policy_returns_last_good_epochs() {
        let (x, y) = blob_data(32);
        // Reference: a healthy run at a sane learning rate.
        let sane_cfg = TrainConfig::new()
            .epochs(3)
            .batch_size(16)
            .learning_rate(0.05)
            .optimizer(OptimizerKind::Sgd { momentum: 0.0 });
        let mut reference = small_net(11);
        let sane = Trainer::new(sane_cfg).fit(&mut reference, &x, &y).unwrap();
        assert_eq!(sane.epochs.len(), 3);

        // A run that diverges partway through (seed 12 at this rate blows
        // up in epoch 1) must roll back to its last completed epoch rather
        // than erroring out.
        let mut net = linear_net(12);
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(50)
                .batch_size(16)
                .learning_rate(1e3)
                .optimizer(OptimizerKind::Sgd { momentum: 0.9 })
                .on_divergence(DivergencePolicy::Rollback),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        assert!(
            !report.epochs.is_empty() && report.epochs.len() < 50,
            "expected a truncated report, got {} epochs",
            report.epochs.len()
        );
        // The returned network is the last pre-divergence snapshot, so
        // every parameter is still finite.
        for layer in net.layers() {
            assert!(layer.weights().as_slice().iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn halve_lr_policy_rescues_a_too_hot_run() {
        let (x, y) = blob_data(32);
        // At batch size 2 this linear net blows up *within the first
        // epoch* for every rate down to 0.5 and is stable at 0.25. Each
        // divergence restores the pre-epoch snapshot — here the initial
        // state — and halves the rate, so 16.0 walks down six halvings
        // (16 → … → 0.25) and then completes every epoch.
        let hot_cfg = TrainConfig::new()
            .epochs(10)
            .batch_size(2)
            .learning_rate(16.0)
            .optimizer(OptimizerKind::Sgd { momentum: 0.9 })
            .on_divergence(DivergencePolicy::HalveLrRetry);
        let mut net = linear_net(12);
        let report = Trainer::new(hot_cfg).fit(&mut net, &x, &y).unwrap();
        assert_eq!(report.epochs.len(), 10);
        assert!(report.final_loss().is_finite());
        for layer in net.layers() {
            assert!(layer.weights().as_slice().iter().all(|w| w.is_finite()));
        }
        // Because every failed attempt died in epoch 0, each retry
        // restarted from the initial snapshot (network, optimizer, RNG,
        // shuffle order). The rescued run is therefore bit-identical to
        // simply training at the settled rate from the start.
        let mut settled = linear_net(12);
        let straight = Trainer::new(
            TrainConfig::new()
                .epochs(10)
                .batch_size(2)
                .learning_rate(0.25)
                .optimizer(OptimizerKind::Sgd { momentum: 0.9 }),
        )
        .fit(&mut settled, &x, &y)
        .unwrap();
        assert_eq!(report, straight);
        assert_eq!(net, settled);
    }

    #[test]
    fn rejects_degenerate_fault_tolerance_configs() {
        let (x, y) = blob_data(4);
        let mut net = small_net(0);
        for cfg in [
            TrainConfig::new().grad_clip(0.0),
            TrainConfig::new().grad_clip(f64::NAN),
            TrainConfig::new().checkpoint_every(0),
        ] {
            assert!(Trainer::new(cfg).fit(&mut net, &x, &y).is_err());
        }
    }

    #[test]
    fn high_temperature_training_converges() {
        // Distillation-style: train at T = 50 like the paper.
        let (x, y) = blob_data(32);
        let mut net = small_net(8);
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(60)
                .batch_size(16)
                .learning_rate(0.05)
                .temperature(50.0),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        assert!(report.final_accuracy().unwrap() > 0.9);
    }
}

#[cfg(test)]
mod checkpoint_tests {
    use super::*;
    use crate::{Activation, NetworkBuilder};
    use std::path::PathBuf;

    fn blob_data(n_per_class: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per_class {
            let jitter = (i % 7) as f64 * 0.02;
            rows.push(vec![0.1 + jitter, 0.2, 0.1, 0.15 + jitter]);
            labels.push(0);
            rows.push(vec![0.9 - jitter, 0.8, 0.85, 0.9 - jitter]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    fn small_net(seed: u64) -> Network {
        NetworkBuilder::new(4)
            .layer(8, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(seed)
            .build()
            .unwrap()
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("maleva-trainer-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn interrupted_then_resumed_run_is_bit_identical() {
        let (x, y) = blob_data(24);
        let (vx, vy) = blob_data(6);
        let dir = scratch_dir("resume");

        // Uninterrupted reference run: 12 epochs straight through.
        let full_cfg = TrainConfig::new()
            .epochs(12)
            .batch_size(8)
            .learning_rate(0.05)
            .seed(42);
        let mut reference = small_net(21);
        let full_report = Trainer::new(full_cfg)
            .fit_labeled(&mut reference, &x, LabelSource::Hard(&y), Some((&vx, &vy)))
            .unwrap();

        // "Killed" run: the same recipe stops after 5 epochs, simulating
        // an interruption right after a checkpoint was written.
        let partial_cfg = TrainConfig::new()
            .epochs(5)
            .batch_size(8)
            .learning_rate(0.05)
            .seed(42)
            .checkpoint_dir(&dir)
            .checkpoint_every(1);
        let mut partial = small_net(21);
        Trainer::new(partial_cfg)
            .fit_labeled(&mut partial, &x, LabelSource::Hard(&y), Some((&vx, &vy)))
            .unwrap();

        // Resume to the full 12 epochs from the on-disk checkpoint. The
        // network passed in is a *fresh* one — everything comes from disk.
        let resume_cfg = TrainConfig::new()
            .epochs(12)
            .batch_size(8)
            .learning_rate(0.05)
            .seed(42)
            .checkpoint_dir(&dir)
            .resume(true);
        let mut resumed = small_net(21);
        let resumed_report = Trainer::new(resume_cfg)
            .fit_labeled(&mut resumed, &x, LabelSource::Hard(&y), Some((&vx, &vy)))
            .unwrap();

        assert_eq!(resumed_report, full_report, "reports must be bit-identical");
        assert_eq!(resumed, reference, "weights must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_without_checkpoint_starts_fresh() {
        let (x, y) = blob_data(8);
        let dir = scratch_dir("fresh");
        let cfg = TrainConfig::new()
            .epochs(3)
            .batch_size(8)
            .checkpoint_dir(&dir)
            .resume(true);
        let mut net = small_net(22);
        let report = Trainer::new(cfg).fit(&mut net, &x, &y).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert!(TrainCheckpoint::path_in(&dir).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_cadence_is_respected() {
        let (x, y) = blob_data(8);
        let dir = scratch_dir("cadence");
        let cfg = TrainConfig::new()
            .epochs(7)
            .batch_size(8)
            .checkpoint_dir(&dir)
            .checkpoint_every(3);
        let mut net = small_net(23);
        Trainer::new(cfg).fit(&mut net, &x, &y).unwrap();
        // Saves fire after epochs 3 and 6 — and at the end of the run, so
        // the final checkpoint carries all 7 epochs.
        let cp = TrainCheckpoint::load(&dir).unwrap().unwrap();
        assert_eq!(cp.next_epoch, 7);
        assert_eq!(cp.report.epochs.len(), 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_training_set() {
        let (x, y) = blob_data(8);
        let dir = scratch_dir("mismatch");
        let cfg = TrainConfig::new()
            .epochs(2)
            .batch_size(8)
            .checkpoint_dir(&dir);
        let mut net = small_net(24);
        Trainer::new(cfg.clone()).fit(&mut net, &x, &y).unwrap();
        // Resuming against a differently-sized training set must fail
        // loudly, not silently train on misaligned minibatches.
        let (x2, y2) = blob_data(5);
        let err = Trainer::new(cfg.epochs(4).resume(true))
            .fit(&mut net, &x2, &y2)
            .unwrap_err();
        assert!(matches!(err, NnError::Checkpoint { .. }), "{err:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod early_stop_tests {
    use super::*;
    use crate::{Activation, NetworkBuilder};
    use maleva_linalg::Matrix;

    fn blobs(n: usize) -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let j = (i % 7) as f64 * 0.02;
            rows.push(vec![0.1 + j, 0.2, 0.1, 0.15]);
            labels.push(0);
            rows.push(vec![0.9 - j, 0.8, 0.85, 0.9]);
            labels.push(1);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn early_stopping_cuts_training_short() {
        let (x, y) = blobs(24);
        let (vx, vy) = blobs(6);
        let mut net = NetworkBuilder::new(4)
            .layer(8, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(5)
            .build()
            .unwrap();
        // This problem converges in a handful of epochs; with patience 3
        // the 200-epoch budget must not be exhausted.
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(200)
                .batch_size(16)
                .learning_rate(0.05)
                .early_stop_patience(3),
        )
        .fit_labeled(&mut net, &x, LabelSource::Hard(&y), Some((&vx, &vy)))
        .unwrap();
        assert!(
            report.epochs.len() < 200,
            "early stopping never fired ({} epochs)",
            report.epochs.len()
        );
        assert!(report.final_accuracy().unwrap() > 0.95);
    }

    #[test]
    fn early_stopping_without_validation_is_ignored() {
        let (x, y) = blobs(8);
        let mut net = NetworkBuilder::new(4)
            .layer(4, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(6)
            .build()
            .unwrap();
        let report = Trainer::new(
            TrainConfig::new()
                .epochs(7)
                .batch_size(8)
                .early_stop_patience(1),
        )
        .fit(&mut net, &x, &y)
        .unwrap();
        assert_eq!(report.epochs.len(), 7, "no validation set: run all epochs");
    }
}
