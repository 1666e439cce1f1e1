//! The micro-batching core: job types, the pure batched scorer, and
//! its panic-isolated wrapper.
//!
//! Acceptor threads enqueue [`ScoreJob`]s into a bounded channel; the
//! scorer thread drains up to `max_batch` jobs (or until the batch
//! deadline) and runs **one** batched forward pass via
//! [`score_rows`]. The contract — pinned by this crate's proptests —
//! is that batched scores are bit-identical to scoring each row alone,
//! so batching is purely a throughput optimization, never a semantic
//! one.
//!
//! [`score_rows_isolated`] hardens that hot path: the batched forward
//! runs under `catch_unwind`, and if it panics (or errors) every row is
//! re-scored alone, each under its own `catch_unwind`, so a poisoned
//! row fails by itself with a typed `internal` error while its
//! batchmates still get their bit-exact scores — one bad request can
//! never kill the scorer loop or starve the batch. A row the model
//! scores NaN or infinite fails the same way: it gets no verdict and is
//! never cached.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use maleva_nn::{Network, NnError};

use crate::error::ServeError;
use crate::fault::{FaultInjector, FaultSite};

/// One pending scoring request travelling from a connection thread to
/// the scorer thread.
pub struct ScoreJob {
    /// Transformed feature row (already through the feature pipeline).
    pub features: Vec<f64>,
    /// Quantized cache key for post-scoring insertion, shared with the
    /// request's sentinel record.
    pub cache_key: Arc<[i64]>,
    /// Where the scorer sends the result: the score, or the typed
    /// error for a row that failed in isolation.
    pub reply: mpsc::Sender<Result<ScoredReply, ServeError>>,
    /// Wire trace id propagated from the client (`0` when absent), so
    /// batch spans can be tagged with every member's trace.
    pub trace_id: u64,
    /// The client's wire span id for this attempt (`0` when absent).
    pub client_span: u64,
    /// When the connection thread enqueued the job; the gap to
    /// `received_at` is the `queue_wait` stage.
    pub enqueued_at: Instant,
    /// When the scorer popped the job off the queue, stamped by
    /// [`collect_batch`]; the gap to batch execution is `batch_wait`.
    pub received_at: Instant,
}

impl ScoreJob {
    /// Builds a job stamped "enqueued now" with no trace context; the
    /// caller sets `trace_id` / `client_span` when the wire carried one.
    pub fn new(
        features: Vec<f64>,
        cache_key: Arc<[i64]>,
        reply: mpsc::Sender<Result<ScoredReply, ServeError>>,
    ) -> Self {
        let now = Instant::now();
        ScoreJob {
            features,
            cache_key,
            reply,
            trace_id: 0,
            client_span: 0,
            enqueued_at: now,
            received_at: now,
        }
    }
}

/// The scorer's answer to one [`ScoreJob`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredReply {
    /// Malware confidence in `[0, 1]`.
    pub score: f64,
    /// Number of rows in the batch this job was scored with.
    pub batch_size: usize,
    /// Time the job sat in the scoring queue before the scorer popped it.
    pub queue_wait: Duration,
    /// Time the job waited inside the forming batch before execution.
    pub batch_wait: Duration,
    /// Time spent in the batched forward pass (shared by the batch).
    pub inference: Duration,
    /// Generation of the model that scored this batch (0 = the boot
    /// model; see [`crate::reload::ModelSlot`]).
    pub generation: u64,
}

/// Scores `rows` (transformed features) in one batched forward pass,
/// returning the malware confidence (class-1 probability) per row.
///
/// Bit-identical to calling the network on each row individually — see
/// [`maleva_nn::Network::predict_proba_rows`].
///
/// # Errors
///
/// Returns [`NnError::InputShape`] if `rows` is empty or any row's
/// width differs from the network's input dimensionality.
pub fn score_rows(network: &Network, rows: &[Vec<f64>]) -> Result<Vec<f64>, NnError> {
    let proba = network.predict_proba_rows(rows)?;
    Ok((0..proba.rows()).map(|r| proba.get(r, 1)).collect())
}

/// Reference implementation: scores each row with its own forward pass.
/// Exists so tests can assert the batched path bit-identically matches.
///
/// # Errors
///
/// Returns [`NnError::InputShape`] on row-width mismatch.
pub fn score_rows_sequential(network: &Network, rows: &[Vec<f64>]) -> Result<Vec<f64>, NnError> {
    rows.iter()
        .map(|row| {
            let proba = network.predict_proba_rows(std::slice::from_ref(row))?;
            Ok(proba.get(0, 1))
        })
        .collect()
}

/// Outcome of scoring one batch with panic isolation
/// ([`score_rows_isolated`]).
pub struct BatchOutcome {
    /// Per-row result, index-aligned with the input rows: the score,
    /// or the failure message for a row that failed alone.
    pub scores: Vec<Result<f64, String>>,
    /// Whether the batched forward panicked or errored and the batch
    /// fell back to per-row scoring.
    pub batch_failed: bool,
    /// Rows that failed (the `Err` entries): in isolation, or with a
    /// score that is not finite.
    pub row_failures: u64,
}

/// Extracts a printable message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "scorer panicked (non-string payload)".to_string()
    }
}

/// A row's score, or the failure message for a score that is NaN or
/// infinite: a model whose weights overflow in the forward pass scores
/// NaN, and no verdict can be read from that.
fn finite_score(score: f64) -> Result<f64, String> {
    if score.is_finite() {
        Ok(score)
    } else {
        Err(format!("the model scored this row {score}"))
    }
}

/// Scores `rows` with panic isolation: one batched forward pass under
/// `catch_unwind`; if it panics or errors, each row is re-scored alone
/// under its own `catch_unwind`, so a poisoned row fails by itself
/// while the rest of the batch still gets bit-exact scores. A row
/// whose score is not finite fails by itself too, on either path.
///
/// `faults` drives the injectable failure points
/// ([`FaultSite::BatchPanic`] fires inside the batched pass,
/// [`FaultSite::RowPanic`] inside the per-row fallback); pass a
/// disabled injector in production.
pub fn score_rows_isolated(
    network: &Network,
    rows: &[Vec<f64>],
    faults: &FaultInjector,
) -> BatchOutcome {
    let batched = catch_unwind(AssertUnwindSafe(|| {
        if faults.should_fire(FaultSite::BatchPanic) {
            panic!("injected fault: scorer batch panic");
        }
        score_rows(network, rows)
    }));
    let (scores, batch_failed): (Vec<Result<f64, String>>, bool) = match batched {
        Ok(Ok(scores)) => (scores.into_iter().map(finite_score).collect(), false),
        // The batch panicked or errored: isolate the poison by scoring
        // every row alone, each under its own catch_unwind.
        _ => {
            let scores = rows
                .iter()
                .map(|row| {
                    let attempt = catch_unwind(AssertUnwindSafe(|| {
                        if faults.should_fire(FaultSite::RowPanic) {
                            panic!("injected fault: scorer row panic");
                        }
                        score_rows(network, std::slice::from_ref(row)).map(|scores| scores[0])
                    }));
                    match attempt {
                        Ok(Ok(score)) => finite_score(score),
                        Ok(Err(e)) => Err(e.to_string()),
                        Err(payload) => Err(panic_message(payload)),
                    }
                })
                .collect();
            (scores, true)
        }
    };
    let row_failures = scores.iter().filter(|s| s.is_err()).count() as u64;
    BatchOutcome {
        scores,
        batch_failed,
        row_failures,
    }
}

/// Drains one micro-batch from `rx`: blocks for the first job, then
/// keeps collecting until `max_batch` jobs are gathered or
/// `batch_timeout` elapses since the first arrival. Returns `None` once
/// the channel is disconnected and empty (drain complete).
///
/// Each job's `received_at` is stamped as it is popped, ending its
/// `queue_wait` stage and starting its `batch_wait`.
pub fn collect_batch(
    rx: &mpsc::Receiver<ScoreJob>,
    max_batch: usize,
    batch_timeout: Duration,
) -> Option<Vec<ScoreJob>> {
    let mut first = rx.recv().ok()?;
    first.received_at = Instant::now();
    let mut jobs = vec![first];
    let deadline = Instant::now() + batch_timeout;
    while jobs.len() < max_batch {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let job = if remaining.is_zero() {
            // Deadline passed: take whatever is already queued, but do
            // not wait for stragglers.
            match rx.try_recv() {
                Ok(job) => job,
                Err(_) => break,
            }
        } else {
            match rx.recv_timeout(remaining) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        };
        let mut job = job;
        job.received_at = Instant::now();
        jobs.push(job);
    }
    Some(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultPlan};
    use maleva_nn::{Activation, NetworkBuilder};

    /// Silences the default panic hook for intentionally injected
    /// panics (they are caught by `catch_unwind`; the hook would still
    /// spam stderr). Installed once per test binary; everything else
    /// still reaches the previous hook.
    fn quiet_injected_panics() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected fault"));
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    fn net() -> Network {
        NetworkBuilder::new(4)
            .layer(6, Activation::ReLU)
            .layer(2, Activation::Identity)
            .seed(3)
            .build()
            .unwrap()
    }

    #[test]
    fn batched_equals_sequential_bitwise() {
        let net = net();
        let rows: Vec<Vec<f64>> = (0..13)
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 7 + j) as f64 * 0.13).sin().abs())
                    .collect()
            })
            .collect();
        let batched = score_rows(&net, &rows).unwrap();
        let sequential = score_rows_sequential(&net, &rows).unwrap();
        assert_eq!(batched.len(), 13);
        for (b, s) in batched.iter().zip(&sequential) {
            assert_eq!(b.to_bits(), s.to_bits());
        }
    }

    fn rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..4)
                    .map(|j| ((i * 5 + j) as f64 * 0.21).cos().abs())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn isolated_scoring_without_faults_is_bit_identical() {
        let net = net();
        let rows = rows(9);
        let reference = score_rows(&net, &rows).unwrap();
        let outcome = score_rows_isolated(&net, &rows, &FaultInjector::new(FaultPlan::disabled()));
        assert!(!outcome.batch_failed);
        assert_eq!(outcome.row_failures, 0);
        for (got, want) in outcome.scores.iter().zip(&reference) {
            assert_eq!(got.as_ref().unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn batch_panic_falls_back_to_per_row_with_identical_bits() {
        quiet_injected_panics();
        let net = net();
        let rows = rows(7);
        let reference = score_rows(&net, &rows).unwrap();
        // Every batched attempt panics; the per-row fallback is clean.
        let plan = FaultPlan::disabled().with(FaultSite::BatchPanic, FaultAction::EveryNth(1));
        let injector = FaultInjector::new(plan);
        let outcome = score_rows_isolated(&net, &rows, &injector);
        assert!(outcome.batch_failed);
        assert_eq!(outcome.row_failures, 0);
        assert_eq!(injector.fired(FaultSite::BatchPanic), 1);
        for (got, want) in outcome.scores.iter().zip(&reference) {
            assert_eq!(got.as_ref().unwrap().to_bits(), want.to_bits());
        }
    }

    #[test]
    fn poisoned_row_fails_alone_and_neighbors_survive() {
        quiet_injected_panics();
        let net = net();
        let rows = rows(6);
        let reference = score_rows(&net, &rows).unwrap();
        // The batch panics, then exactly one of the six fallback rows
        // panics too — that row alone must carry the error.
        let plan = FaultPlan::disabled()
            .with(FaultSite::BatchPanic, FaultAction::EveryNth(1))
            .with(FaultSite::RowPanic, FaultAction::EveryNth(6));
        let outcome = score_rows_isolated(&net, &rows, &FaultInjector::new(plan));
        assert!(outcome.batch_failed);
        assert_eq!(outcome.row_failures, 1);
        let mut failed = 0;
        for (got, want) in outcome.scores.iter().zip(&reference) {
            match got {
                Ok(score) => assert_eq!(score.to_bits(), want.to_bits()),
                Err(msg) => {
                    failed += 1;
                    assert!(msg.contains("injected fault"), "{msg}");
                }
            }
        }
        assert_eq!(failed, 1);
    }

    /// `net()` with every weight scaled by 1e200: each weight stays
    /// finite, but a row that reaches the output through a live ReLU
    /// overflows to an infinite logit and a NaN score, while an all-zero
    /// row only meets the (finite) biases.
    fn overflowing_net() -> Network {
        let mut net = net();
        for layer in net.layers_mut() {
            for w in layer.weights_mut().as_mut_slice() {
                *w *= 1e200;
            }
        }
        net
    }

    #[test]
    fn a_non_finite_score_fails_its_row_alone() {
        let net = overflowing_net();
        let mut rows = rows(6);
        rows[1] = vec![0.0; 4];
        rows[4] = vec![0.0; 4];
        let reference = score_rows_sequential(&net, &rows).unwrap();
        let finite = reference.iter().filter(|s| s.is_finite()).count();
        assert!(finite >= 2 && finite < rows.len(), "{reference:?}");

        let outcome = score_rows_isolated(&net, &rows, &FaultInjector::new(FaultPlan::disabled()));
        assert!(!outcome.batch_failed);
        assert_eq!(outcome.row_failures, (rows.len() - finite) as u64);
        for (got, want) in outcome.scores.iter().zip(&reference) {
            match got {
                Ok(score) => assert_eq!(score.to_bits(), want.to_bits()),
                Err(msg) => {
                    assert!(!want.is_finite());
                    assert!(msg.contains("NaN") || msg.contains("inf"), "{msg}");
                }
            }
        }
    }

    #[test]
    fn a_non_finite_score_fails_its_row_on_the_fallback_path_too() {
        quiet_injected_panics();
        let net = overflowing_net();
        let mut rows = rows(3);
        rows[0] = vec![0.0; 4];
        let reference = score_rows_sequential(&net, &rows).unwrap();
        let plan = FaultPlan::disabled().with(FaultSite::BatchPanic, FaultAction::EveryNth(1));
        let outcome = score_rows_isolated(&net, &rows, &FaultInjector::new(plan));
        assert!(outcome.batch_failed);
        let failures = reference.iter().filter(|s| !s.is_finite()).count() as u64;
        assert!(failures > 0, "{reference:?}");
        assert_eq!(outcome.row_failures, failures);
        assert_eq!(
            outcome.scores[0].as_ref().unwrap().to_bits(),
            reference[0].to_bits()
        );
    }

    #[test]
    fn collect_batch_honors_max_batch() {
        let (tx, rx) = mpsc::sync_channel::<ScoreJob>(16);
        let (reply, _keep) = mpsc::channel();
        for _ in 0..5 {
            tx.try_send(ScoreJob::new(vec![0.0; 4], Arc::from([]), reply.clone()))
                .unwrap();
        }
        let batch = collect_batch(&rx, 3, Duration::from_millis(50)).unwrap();
        assert_eq!(batch.len(), 3);
        let batch = collect_batch(&rx, 3, Duration::from_millis(1)).unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn collect_batch_returns_none_when_disconnected() {
        let (tx, rx) = mpsc::sync_channel::<ScoreJob>(4);
        drop(tx);
        assert!(collect_batch(&rx, 8, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn collect_batch_drains_leftovers_after_disconnect() {
        let (tx, rx) = mpsc::sync_channel::<ScoreJob>(4);
        let (reply, _keep) = mpsc::channel();
        for _ in 0..2 {
            tx.try_send(ScoreJob::new(vec![], Arc::from([]), reply.clone()))
                .unwrap();
        }
        drop(tx);
        let batch = collect_batch(&rx, 8, Duration::from_millis(1)).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(collect_batch(&rx, 8, Duration::from_millis(1)).is_none());
    }

    #[test]
    fn collect_batch_stamps_received_at_per_job() {
        let (tx, rx) = mpsc::sync_channel::<ScoreJob>(4);
        let (reply, _keep) = mpsc::channel();
        let job = ScoreJob::new(vec![], Arc::from([]), reply.clone());
        let enqueued = job.enqueued_at;
        tx.try_send(job).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let batch = collect_batch(&rx, 1, Duration::from_millis(1)).unwrap();
        let popped = &batch[0];
        assert!(popped.received_at >= enqueued);
        assert!(
            popped.received_at.duration_since(enqueued) >= Duration::from_millis(4),
            "queue wait should cover the sleep"
        );
    }
}
