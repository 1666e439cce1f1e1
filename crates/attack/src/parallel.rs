//! Multi-threaded, fault-tolerant adversarial crafting.
//!
//! Crafting is embarrassingly parallel across samples — each JSMA run
//! touches only its own row — so sweeps over thousands of malware
//! samples scale with cores. Results are **bit-identical** to the
//! sequential path: workers claim rows from a shared counter, each
//! outcome is written back by its row index, and every attack in this
//! crate derives its randomness (if any) from the sample contents, not
//! from shared state.
//!
//! Long attack sweeps are also where a single bad sample can waste hours
//! of work, so the batch runner is fault-tolerant:
//!
//! * every `craft` call runs under [`std::panic::catch_unwind`], so a
//!   panicking sample is recorded as [`RowOutcome::Panicked`] instead of
//!   tearing down the whole sweep;
//! * per-row errors are recorded, not short-circuited, and a
//!   [`FailureBudget`] decides whether the batch as a whole aborts or
//!   degrades gracefully (failed rows carry the unperturbed input);
//! * retryable numeric errors (see [`NnError::is_retryable`]) get a
//!   bounded number of retries before being recorded.
//!
//! The strict entry point [`craft_batch_parallel`] keeps the original
//! "first error wins" contract on top of the fault-tolerant core.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use maleva_linalg::Matrix;
use maleva_nn::{Network, NnError};
use maleva_obs::trace::Span;

use crate::{AttackOutcome, EvasionAttack};

/// What happened to one row of a fault-tolerant batch run.
#[derive(Debug, Clone, PartialEq)]
pub enum RowOutcome {
    /// The attack completed (successfully evading or not — see
    /// [`AttackOutcome::evaded`]).
    Ok(AttackOutcome),
    /// The attack returned an error (after any configured retries).
    Err(NnError),
    /// The attack panicked; the payload message is captured.
    Panicked {
        /// The panic payload rendered as a string (`"<non-string panic>"`
        /// when the payload was not a string).
        message: String,
    },
}

impl RowOutcome {
    /// True for [`RowOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, RowOutcome::Ok(_))
    }

    /// The successful outcome, if any.
    pub fn outcome(&self) -> Option<&AttackOutcome> {
        match self {
            RowOutcome::Ok(o) => Some(o),
            _ => None,
        }
    }
}

/// Whether a batch with failed rows aborts or degrades.
#[derive(Debug, Clone, PartialEq)]
pub enum FailureBudget {
    /// Abort (return [`NnError::BatchFailure`]) when the fraction of
    /// failed rows exceeds `fraction` (in `[0, 1]`). `fraction: 0.0`
    /// tolerates no failures at all.
    AbortAbove {
        /// Maximum tolerated failed fraction.
        fraction: f64,
    },
    /// Never abort: failed rows carry the unperturbed input row in the
    /// adversarial matrix and are reported in [`BatchReport::rows`].
    Degrade,
}

/// Policy knobs for [`craft_batch_parallel_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPolicy {
    /// Worker thread count (must be positive; see [`default_threads`]).
    pub threads: usize,
    /// Abort-vs-degrade policy for failed rows.
    pub failure_budget: FailureBudget,
    /// Extra attempts for rows failing with a retryable numeric error
    /// (see [`NnError::is_retryable`]). Panics are never retried.
    pub max_retries: usize,
}

impl BatchPolicy {
    /// Degrade-gracefully policy with [`default_threads`] workers and no
    /// retries.
    pub fn new() -> Self {
        BatchPolicy {
            threads: default_threads(),
            failure_budget: FailureBudget::Degrade,
            max_retries: 0,
        }
    }

    /// Sets the worker thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the failure budget.
    pub fn failure_budget(mut self, budget: FailureBudget) -> Self {
        self.failure_budget = budget;
        self
    }

    /// Sets the retry bound for retryable numeric errors.
    pub fn max_retries(mut self, retries: usize) -> Self {
        self.max_retries = retries;
        self
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.threads == 0 {
            return Err(NnError::InvalidConfig {
                detail: "need at least one thread".to_string(),
            });
        }
        if let FailureBudget::AbortAbove { fraction } = self.failure_budget {
            if !(0.0..=1.0).contains(&fraction) {
                return Err(NnError::InvalidConfig {
                    detail: format!("failure budget fraction must be in [0, 1], got {fraction}"),
                });
            }
        }
        Ok(())
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// The result of a fault-tolerant batch run: per-row outcomes plus the
/// adversarial batch, with failed rows carrying the unperturbed input.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One row per input row: the adversarial vector for successful rows,
    /// the unperturbed input for failed ones.
    pub adversarial: Matrix,
    /// Per-row outcome, in input order.
    pub rows: Vec<RowOutcome>,
}

impl BatchReport {
    /// Number of rows the attack completed on.
    pub fn ok_count(&self) -> usize {
        self.rows.iter().filter(|r| r.is_ok()).count()
    }

    /// Number of rows that returned an error.
    pub fn err_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r, RowOutcome::Err(_)))
            .count()
    }

    /// Number of rows whose attack panicked.
    pub fn panicked_count(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| matches!(r, RowOutcome::Panicked { .. }))
            .count()
    }

    /// Total failed rows (errors + panics).
    pub fn failed_count(&self) -> usize {
        self.rows.len() - self.ok_count()
    }

    /// Failed fraction in `[0, 1]`; 0 for an empty batch.
    pub fn failure_fraction(&self) -> f64 {
        if self.rows.is_empty() {
            0.0
        } else {
            self.failed_count() as f64 / self.rows.len() as f64
        }
    }

    /// The successful outcomes, in row order (failed rows skipped).
    pub fn outcomes(&self) -> impl Iterator<Item = &AttackOutcome> {
        self.rows.iter().filter_map(|r| r.outcome())
    }

    /// Converts to the strict `(adversarial, outcomes)` shape, failing on
    /// the first non-[`RowOutcome::Ok`] row (by row order). Panicked rows
    /// surface as [`NnError::BatchFailure`].
    ///
    /// # Errors
    ///
    /// The first row-level error, or [`NnError::BatchFailure`] for a
    /// panicked row.
    pub fn into_strict(self) -> Result<(Matrix, Vec<AttackOutcome>), NnError> {
        let total = self.rows.len();
        let mut outcomes = Vec::with_capacity(total);
        for (i, row) in self.rows.into_iter().enumerate() {
            match row {
                RowOutcome::Ok(o) => outcomes.push(o),
                RowOutcome::Err(e) => return Err(e),
                RowOutcome::Panicked { message } => {
                    return Err(NnError::BatchFailure {
                        failed: 1,
                        total,
                        detail: format!("attack panicked on row {i}: {message}"),
                    })
                }
            }
        }
        Ok((self.adversarial, outcomes))
    }
}

/// Crafts one row under `catch_unwind`, retrying retryable errors up to
/// `max_retries` extra times.
fn craft_row<A>(
    attack: &A,
    net: &Network,
    row_index: usize,
    sample: &[f64],
    max_retries: usize,
) -> RowOutcome
where
    A: EvasionAttack + Sync,
{
    let mut span = Span::enter("attack.row");
    span.record("row", row_index as u64);
    let mut attempt = 0;
    loop {
        match catch_unwind(AssertUnwindSafe(|| attack.craft(net, sample))) {
            Ok(Ok(outcome)) => {
                span.record("outcome", "ok");
                span.record("evaded", outcome.evaded);
                span.record("retries", attempt as u64);
                return RowOutcome::Ok(outcome);
            }
            Ok(Err(e)) => {
                if e.is_retryable() && attempt < max_retries {
                    attempt += 1;
                    continue;
                }
                span.record("outcome", "err");
                return RowOutcome::Err(e);
            }
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "<non-string panic>".to_string());
                span.record("outcome", "panicked");
                return RowOutcome::Panicked { message };
            }
        }
    }
}

/// Crafts adversarial examples for every row of `batch` under the given
/// fault-tolerance policy. Row outcomes and the adversarial matrix are
/// bit-identical for any positive thread count.
///
/// # Errors
///
/// * [`NnError::InvalidConfig`] for a zero thread count or an
///   out-of-range failure budget.
/// * [`NnError::BatchFailure`] when an [`FailureBudget::AbortAbove`]
///   budget is exceeded.
pub fn craft_batch_parallel_with<A>(
    attack: &A,
    net: &Network,
    batch: &Matrix,
    policy: &BatchPolicy,
) -> Result<BatchReport, NnError>
where
    A: EvasionAttack + Sync,
{
    policy.validate()?;
    let n = batch.rows();
    let threads = policy.threads.min(n.max(1));

    let mut batch_span = Span::enter("attack.batch");
    batch_span.record("attack", attack.name().to_string());
    batch_span.record("rows", n as u64);
    batch_span.record("threads", threads as u64);

    // Workers claim rows one at a time from a shared counter, so a
    // worker that drew short rows keeps crafting instead of idling while
    // another finishes a long static chunk. Each outcome lands in its
    // row's slot, so claim order cannot affect the result. The counter
    // publishes nothing but the index it hands out, hence `Relaxed`; the
    // slots are read only after every worker has been joined.
    let slots: Vec<OnceLock<RowOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    let next_row = AtomicUsize::new(0);
    let work = || loop {
        let r = next_row.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(r) else {
            break;
        };
        slot.set(craft_row(attack, net, r, batch.row(r), policy.max_retries))
            .expect("each row is claimed once");
    };
    if threads <= 1 {
        work();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(work);
            }
        });
    }

    let rows: Vec<RowOutcome> = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every row visited"))
        .collect();

    if batch_span.is_active() {
        let ok = rows.iter().filter(|r| r.is_ok()).count();
        let panicked = rows
            .iter()
            .filter(|r| matches!(r, RowOutcome::Panicked { .. }))
            .count();
        let evaded = rows
            .iter()
            .filter_map(|r| r.outcome())
            .filter(|o| o.evaded)
            .count();
        batch_span.record("ok", ok as u64);
        batch_span.record("err", (rows.len() - ok - panicked) as u64);
        batch_span.record("panicked", panicked as u64);
        batch_span.record("evaded", evaded as u64);
    }

    let failed = rows.iter().filter(|r| !r.is_ok()).count();
    if let FailureBudget::AbortAbove { fraction } = policy.failure_budget {
        if n > 0 && failed as f64 / n as f64 > fraction {
            let first = rows
                .iter()
                .enumerate()
                .find(|(_, r)| !r.is_ok())
                .map(|(i, r)| match r {
                    RowOutcome::Err(e) => format!("first failure at row {i}: {e}"),
                    RowOutcome::Panicked { message } => {
                        format!("first panic at row {i}: {message}")
                    }
                    RowOutcome::Ok(_) => unreachable!("filtered to failures"),
                })
                .unwrap_or_default();
            return Err(NnError::BatchFailure {
                failed,
                total: n,
                detail: format!("budget allows {fraction:.3}; {first}"),
            });
        }
    }

    // Failed rows degrade to the unperturbed input so downstream shape
    // invariants (one adversarial row per input row) hold.
    let adv_rows: Vec<Vec<f64>> = rows
        .iter()
        .enumerate()
        .map(|(r, row)| match row {
            RowOutcome::Ok(o) => o.adversarial.clone(),
            _ => batch.row(r).to_vec(),
        })
        .collect();
    let adversarial = if n == 0 {
        Matrix::zeros(0, batch.cols())
    } else {
        Matrix::from_rows(&adv_rows).map_err(NnError::Linalg)?
    };
    Ok(BatchReport { adversarial, rows })
}

/// Crafts adversarial examples for every row of `batch` using up to
/// `threads` worker threads. Equivalent to
/// [`EvasionAttack::craft_batch`] but parallel; the output is
/// bit-identical.
///
/// This is the strict entry point: any row-level failure fails the whole
/// batch. Use [`craft_batch_parallel_with`] for per-row outcomes and
/// graceful degradation.
///
/// # Errors
///
/// * [`NnError::InvalidConfig`] if `threads == 0`.
/// * The first row-level [`NnError`] (by row order).
/// * [`NnError::BatchFailure`] if a row's attack panicked.
pub fn craft_batch_parallel<A>(
    attack: &A,
    net: &Network,
    batch: &Matrix,
    threads: usize,
) -> Result<(Matrix, Vec<AttackOutcome>), NnError>
where
    A: EvasionAttack + Sync,
{
    let policy = BatchPolicy::new()
        .threads(threads)
        .failure_budget(FailureBudget::Degrade);
    craft_batch_parallel_with(attack, net, batch, &policy)?.into_strict()
}

/// A reasonable worker count: the number of available CPUs, at least 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_detector;
    use crate::Jsma;

    /// An attack that misbehaves on selected rows: panics on rows whose
    /// feature-0 value is `PANIC_MARK`, errors on `ERR_MARK`, and
    /// delegates to JSMA otherwise.
    struct Faulty {
        inner: Jsma,
    }

    const PANIC_MARK: f64 = -77.0;
    const ERR_MARK: f64 = -88.0;

    impl EvasionAttack for Faulty {
        fn name(&self) -> &str {
            "faulty"
        }

        fn craft(&self, net: &Network, sample: &[f64]) -> Result<AttackOutcome, NnError> {
            if sample[0] == PANIC_MARK {
                panic!("injected panic for testing");
            }
            if sample[0] == ERR_MARK {
                return Err(NnError::NumericDivergence {
                    epoch: 0,
                    batch: 0,
                    detail: "injected numeric error".to_string(),
                });
            }
            self.inner.craft(net, sample)
        }
    }

    fn with_marked_rows(base: &Matrix, marks: &[(usize, f64)]) -> Matrix {
        let mut rows: Vec<Vec<f64>> = base.rows_iter().map(|r| r.to_vec()).collect();
        for &(i, mark) in marks {
            rows[i][0] = mark;
        }
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (net, mal, _) = trained_detector(12, 90);
        let jsma = Jsma::new(0.3, 0.25);
        let (seq_adv, seq_out) = jsma.craft_batch(&net, &mal).unwrap();
        for threads in [1, 2, 3, 8] {
            let (par_adv, par_out) = craft_batch_parallel(&jsma, &net, &mal, threads).unwrap();
            assert_eq!(par_adv, seq_adv, "threads = {threads}");
            assert_eq!(par_out, seq_out, "threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let (net, mal, _) = trained_detector(12, 91);
        let small = mal.select_rows(&[0, 1]);
        let jsma = Jsma::new(0.3, 0.25);
        let (adv, outcomes) = craft_batch_parallel(&jsma, &net, &small, 64).unwrap();
        assert_eq!(adv.rows(), 2);
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn errors_propagate() {
        let (net, _, _) = trained_detector(12, 92);
        let jsma = Jsma::new(0.3, 0.25);
        let bad = Matrix::zeros(4, 5); // wrong width
        assert!(craft_batch_parallel(&jsma, &net, &bad, 2).is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn zero_threads_is_invalid_config() {
        let (net, mal, _) = trained_detector(12, 93);
        let err = craft_batch_parallel(&Jsma::new(0.1, 0.1), &net, &mal, 0).unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig { .. }), "{err:?}");
        let policy = BatchPolicy::new().threads(0);
        let err = craft_batch_parallel_with(&Jsma::new(0.1, 0.1), &net, &mal, &policy).unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn out_of_range_budget_is_invalid_config() {
        let (net, mal, _) = trained_detector(12, 93);
        let policy = BatchPolicy::new().failure_budget(FailureBudget::AbortAbove { fraction: 1.5 });
        let err = craft_batch_parallel_with(&Jsma::new(0.1, 0.1), &net, &mal, &policy).unwrap_err();
        assert!(matches!(err, NnError::InvalidConfig { .. }), "{err:?}");
    }

    #[test]
    fn panicking_row_is_isolated_and_other_rows_match_sequential() {
        let (net, mal, _) = trained_detector(12, 94);
        let jsma = Jsma::new(0.3, 0.25);
        let (seq_adv, _) = jsma.craft_batch(&net, &mal).unwrap();
        let bad_row = 2;
        let marked = with_marked_rows(&mal, &[(bad_row, PANIC_MARK)]);
        let faulty = Faulty {
            inner: Jsma::new(0.3, 0.25),
        };
        for threads in [1, 3] {
            let policy = BatchPolicy::new().threads(threads);
            let report = craft_batch_parallel_with(&faulty, &net, &marked, &policy).unwrap();
            assert_eq!(report.panicked_count(), 1, "threads = {threads}");
            assert!(matches!(
                &report.rows[bad_row],
                RowOutcome::Panicked { message } if message.contains("injected")
            ));
            // The failed row carries the unperturbed (marked) input...
            assert_eq!(report.adversarial.row(bad_row), marked.row(bad_row));
            // ...and every other row is bit-identical to the sequential run.
            for r in 0..mal.rows() {
                if r != bad_row {
                    assert_eq!(
                        report.adversarial.row(r),
                        seq_adv.row(r),
                        "row {r}, threads = {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn failure_budget_aborts_when_exceeded() {
        let (net, mal, _) = trained_detector(12, 95);
        let faulty = Faulty {
            inner: Jsma::new(0.3, 0.25),
        };
        let marked = with_marked_rows(&mal, &[(0, ERR_MARK), (1, PANIC_MARK)]);
        // 2 failures out of n rows; a zero budget must abort...
        let strict = BatchPolicy::new()
            .threads(2)
            .failure_budget(FailureBudget::AbortAbove { fraction: 0.0 });
        let err = craft_batch_parallel_with(&faulty, &net, &marked, &strict).unwrap_err();
        match err {
            NnError::BatchFailure { failed, total, .. } => {
                assert_eq!(failed, 2);
                assert_eq!(total, mal.rows());
            }
            other => panic!("expected BatchFailure, got {other:?}"),
        }
        // ...while a generous budget degrades.
        let lax = BatchPolicy::new()
            .threads(2)
            .failure_budget(FailureBudget::AbortAbove { fraction: 0.9 });
        let report = craft_batch_parallel_with(&faulty, &net, &marked, &lax).unwrap();
        assert_eq!(report.failed_count(), 2);
        assert_eq!(report.err_count(), 1);
        assert_eq!(report.panicked_count(), 1);
        assert_eq!(report.ok_count(), mal.rows() - 2);
        assert!(report.failure_fraction() > 0.0);
    }

    #[test]
    fn retryable_errors_are_retried_up_to_the_bound() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        struct FlakyOnce {
            inner: Jsma,
            calls: AtomicUsize,
        }
        impl EvasionAttack for FlakyOnce {
            fn name(&self) -> &str {
                "flaky"
            }
            fn craft(&self, net: &Network, sample: &[f64]) -> Result<AttackOutcome, NnError> {
                // Fail the very first call with a retryable error.
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    return Err(NnError::NumericDivergence {
                        epoch: 0,
                        batch: 0,
                        detail: "transient".to_string(),
                    });
                }
                self.inner.craft(net, sample)
            }
        }

        let (net, mal, _) = trained_detector(12, 96);
        let small = mal.select_rows(&[0, 1]);
        let flaky = FlakyOnce {
            inner: Jsma::new(0.3, 0.25),
            calls: AtomicUsize::new(0),
        };
        // One retry turns the transient failure into a success.
        let policy = BatchPolicy::new().threads(1).max_retries(1);
        let report = craft_batch_parallel_with(&flaky, &net, &small, &policy).unwrap();
        assert_eq!(report.ok_count(), 2);

        // Without retries the same failure is recorded.
        let flaky = FlakyOnce {
            inner: Jsma::new(0.3, 0.25),
            calls: AtomicUsize::new(0),
        };
        let policy = BatchPolicy::new().threads(1).max_retries(0);
        let report = craft_batch_parallel_with(&flaky, &net, &small, &policy).unwrap();
        assert_eq!(report.err_count(), 1);
    }

    #[test]
    fn empty_batch_reports_empty() {
        let (net, mal, _) = trained_detector(12, 97);
        let empty = mal.select_rows(&[]);
        let report =
            craft_batch_parallel_with(&Jsma::new(0.3, 0.25), &net, &empty, &BatchPolicy::new())
                .unwrap();
        assert_eq!(report.rows.len(), 0);
        assert_eq!(report.failure_fraction(), 0.0);
    }
}
