//! Service metrics built on the shared `maleva-obs` primitives: lock-free
//! counters plus power-of-two histograms for request latency and batch
//! size, registered in a per-shard [`Registry`]. A read captures each
//! shard's registry, merges the captures with
//! [`maleva_obs::metrics::merge`], and renders the merge as Prometheus
//! text for `{"cmd": "metrics"}`; [`summarize`] reads the `stats` view
//! of a capture.
//!
//! Every counter is a relaxed atomic — the snapshot is advisory
//! monitoring data, not a synchronization point, so the hot path pays
//! one uncontended atomic add per event. Latencies land in power-of-two
//! microsecond buckets; percentiles are read off the cumulative bucket
//! counts (upper-bound estimate, ≤ 2x resolution error — plenty for
//! p50/p99 monitoring). Samples at or above the top bucket bound
//! saturate into the last bucket rather than being dropped, so extreme
//! outliers still move the high percentiles.

use std::sync::Arc;
use std::time::Duration;

use maleva_obs::metrics::{
    Counter, Gauge, Histogram, MetricReading, Registry, Snapshot, HISTOGRAM_BUCKETS,
};
pub use maleva_wire::MetricsSnapshot;

/// The metrics of one shard, in a [`Registry`] of their own so shards
/// (and concurrent servers in one process) never collide.
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    /// Score requests received (valid enough to reach scoring or cache).
    pub requests: Arc<Counter>,
    /// Batches executed by the scorer thread.
    pub batches: Arc<Counter>,
    /// Rows scored through batches (misses that ran the network).
    pub rows_scored: Arc<Counter>,
    /// Cache hits.
    pub cache_hits: Arc<Counter>,
    /// Cache misses.
    pub cache_misses: Arc<Counter>,
    /// Typed error responses sent (malformed input, overload, ...).
    pub errors: Arc<Counter>,
    /// Requests rejected with `overloaded` (also counted in `errors`).
    pub overloaded: Arc<Counter>,
    /// Overload rejections made by admission control *before* the
    /// queue was full (subset of `overloaded`).
    pub shed: Arc<Counter>,
    /// Requests answered with `deadline_exceeded` (also in `errors`).
    pub deadline_exceeded: Arc<Counter>,
    /// Batches whose forward pass panicked (or errored) and fell back
    /// to per-row scoring — the scorer loop survived each one.
    pub scorer_panics: Arc<Counter>,
    /// Rows that failed even the per-row fallback and were answered
    /// with a typed `internal` error.
    pub row_failures: Arc<Counter>,
    /// Faults fired by the injector (0 unless fault injection is on).
    pub faults_injected: Arc<Counter>,
    /// Requests refused with `throttled` by the sentinel (also in
    /// `errors`).
    pub sentinel_throttled: Arc<Counter>,
    /// Requests answered with poisoned scores by the sentinel.
    pub sentinel_poisoned: Arc<Counter>,
    /// Near-duplicate queries observed by the sentinel.
    pub sentinel_near_duplicates: Arc<Counter>,
    /// Decision-boundary verdict flips observed by the sentinel.
    pub sentinel_verdict_flips: Arc<Counter>,
    /// Clients newly flagged by the sentinel.
    pub sentinel_flagged: Arc<Counter>,
    /// Clients currently tracked by the sentinel.
    pub sentinel_tracked_clients: Arc<Gauge>,
    /// Jobs currently waiting in the scoring queue.
    pub queue_depth: Arc<Gauge>,
    /// Live score-cache entries, set right before each capture.
    pub cache_entries: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    /// Per-stage latency histograms, in pipeline order:
    /// `queue_wait`, `batch_wait`, `cache_lookup`, `sentinel_check`,
    /// `inference`, `serialize` (see `maleva_obs::report::STAGES`).
    stages_us: [Arc<Histogram>; 6],
}

/// Per-stage durations for one score request, decomposing its
/// end-to-end latency. Stages a request never entered stay zero (a
/// cache hit has zero `queue_wait`/`batch_wait`/`inference`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Time in the scoring queue before the scorer popped the job.
    pub queue_wait: Duration,
    /// Time inside the forming batch before execution started.
    pub batch_wait: Duration,
    /// Time spent in the score-cache lookup.
    pub cache_lookup: Duration,
    /// Time spent consulting and updating the sentinel.
    pub sentinel_check: Duration,
    /// Time in the batched forward pass (shared across the batch).
    pub inference: Duration,
    /// Time encoding and writing the response line.
    pub serialize: Duration,
}

impl StageTimes {
    /// The stage durations in pipeline order, microseconds, aligned
    /// with `maleva_obs::report::STAGES`.
    pub fn as_us(&self) -> [u64; 6] {
        [
            self.queue_wait.as_micros() as u64,
            self.batch_wait.as_micros() as u64,
            self.cache_lookup.as_micros() as u64,
            self.sentinel_check.as_micros() as u64,
            self.inference.as_micros() as u64,
            self.serialize.as_micros() as u64,
        ]
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates zeroed metrics registered in a fresh registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.counter("serve_requests_total", "Score requests received.");
        let batches = registry.counter("serve_batches_total", "Batches executed by the scorer.");
        let rows_scored =
            registry.counter("serve_rows_scored_total", "Rows scored through batches.");
        let cache_hits = registry.counter("serve_cache_hits_total", "Score cache hits.");
        let cache_misses = registry.counter("serve_cache_misses_total", "Score cache misses.");
        let errors = registry.counter("serve_errors_total", "Typed error responses sent.");
        let overloaded =
            registry.counter("serve_overloaded_total", "Requests rejected as overloaded.");
        let shed = registry.counter(
            "serve_shed_total",
            "Requests shed by admission control before the queue filled.",
        );
        let deadline_exceeded = registry.counter(
            "serve_deadline_exceeded_total",
            "Requests answered with deadline_exceeded.",
        );
        let scorer_panics = registry.counter(
            "serve_scorer_panics_total",
            "Batched forward passes that panicked and fell back to per-row scoring.",
        );
        let row_failures = registry.counter(
            "serve_row_failures_total",
            "Rows that failed even in per-row isolation.",
        );
        let faults_injected = registry.counter(
            "serve_faults_injected_total",
            "Faults fired by the fault injector.",
        );
        let sentinel_throttled = registry.counter(
            "serve_sentinel_throttled_total",
            "Requests refused with throttled by the sentinel.",
        );
        let sentinel_poisoned = registry.counter(
            "serve_sentinel_poisoned_total",
            "Requests answered with poisoned scores by the sentinel.",
        );
        let sentinel_near_duplicates = registry.counter(
            "serve_sentinel_near_duplicates_total",
            "Near-duplicate queries observed by the sentinel.",
        );
        let sentinel_verdict_flips = registry.counter(
            "serve_sentinel_verdict_flips_total",
            "Decision-boundary verdict flips observed by the sentinel.",
        );
        let sentinel_flagged = registry.counter(
            "serve_sentinel_flagged_total",
            "Clients newly flagged by the sentinel.",
        );
        let sentinel_tracked_clients = registry.gauge(
            "serve_sentinel_tracked_clients",
            "Clients currently tracked by the sentinel.",
        );
        let queue_depth = registry.gauge("serve_queue_depth", "Jobs waiting in the scoring queue.");
        let cache_entries = registry.gauge("serve_cache_entries", "Live score cache entries.");
        let latency_us = registry.histogram(
            "serve_request_latency_us",
            "End-to-end score request latency in microseconds.",
        );
        let batch_size = registry.histogram("serve_batch_size", "Rows per executed scoring batch.");
        let stages_us: [Arc<Histogram>; 6] = std::array::from_fn(|i| {
            let stage = maleva_obs::report::STAGES[i];
            registry.histogram(
                &format!("serve_stage_{stage}_us"),
                &format!("Time score requests spent in the {stage} stage, microseconds."),
            )
        });
        Metrics {
            registry,
            requests,
            batches,
            rows_scored,
            cache_hits,
            cache_misses,
            errors,
            overloaded,
            shed,
            deadline_exceeded,
            scorer_panics,
            row_failures,
            faults_injected,
            sentinel_throttled,
            sentinel_poisoned,
            sentinel_near_duplicates,
            sentinel_verdict_flips,
            sentinel_flagged,
            sentinel_tracked_clients,
            queue_depth,
            cache_entries,
            latency_us,
            batch_size,
            stages_us,
        }
    }

    /// The registry behind these metrics, for captures.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one request's per-stage latency decomposition into the
    /// six `serve_stage_*_us` histograms.
    pub fn record_stages(&self, stages: &StageTimes) {
        for (histogram, us) in self.stages_us.iter().zip(stages.as_us()) {
            histogram.record(us);
        }
    }

    /// Records one request latency (microsecond resolution; values at
    /// or above the top bucket bound saturate into the last bucket).
    pub fn record_latency(&self, elapsed: Duration) {
        self.latency_us.record_duration_us(elapsed);
    }

    /// Records the row count of one executed batch.
    pub fn record_batch_size(&self, rows: u64) {
        self.batch_size.record(rows);
    }
}

/// Reads the `stats` view of a capture of one or more (merged)
/// [`Metrics`] registries. Counters, gauges, buckets, and sums are the
/// captured series; the hit rate, mean batch size, and percentiles are
/// derived from them. A missing series reads as zero.
pub fn summarize(capture: &Snapshot) -> MetricsSnapshot {
    let counter = |name: &str| match capture.get(name) {
        Some(MetricReading::Counter(v)) => *v,
        _ => 0,
    };
    let gauge = |name: &str| match capture.get(name) {
        Some(MetricReading::Gauge(v)) => (*v).max(0) as u64,
        _ => 0,
    };
    let histogram = |name: &str| match capture.get(name) {
        Some(MetricReading::Histogram { buckets, sum, .. }) => (buckets.clone(), *sum),
        _ => (vec![0; HISTOGRAM_BUCKETS], 0),
    };
    let requests = counter("serve_requests_total");
    let batches = counter("serve_batches_total");
    let rows_scored = counter("serve_rows_scored_total");
    let cache_hits = counter("serve_cache_hits_total");
    let cache_misses = counter("serve_cache_misses_total");
    let lookups = cache_hits + cache_misses;
    let (latency_buckets_us, latency_sum_us) = histogram("serve_request_latency_us");
    let (batch_size_buckets, batch_size_sum) = histogram("serve_batch_size");
    let (stage_buckets_us, stage_sums_us) = maleva_obs::report::STAGES
        .iter()
        .map(|stage| histogram(&format!("serve_stage_{stage}_us")))
        .unzip();
    MetricsSnapshot {
        requests,
        batches,
        rows_scored,
        cache_hits,
        cache_misses,
        cache_hit_rate: if lookups == 0 {
            0.0
        } else {
            cache_hits as f64 / lookups as f64
        },
        cache_entries: gauge("serve_cache_entries") as usize,
        errors: counter("serve_errors_total"),
        overloaded: counter("serve_overloaded_total"),
        shed: counter("serve_shed_total"),
        deadline_exceeded: counter("serve_deadline_exceeded_total"),
        scorer_panics: counter("serve_scorer_panics_total"),
        row_failures: counter("serve_row_failures_total"),
        faults_injected: counter("serve_faults_injected_total"),
        sentinel_throttled: counter("serve_sentinel_throttled_total"),
        sentinel_poisoned: counter("serve_sentinel_poisoned_total"),
        sentinel_near_duplicates: counter("serve_sentinel_near_duplicates_total"),
        sentinel_verdict_flips: counter("serve_sentinel_verdict_flips_total"),
        sentinel_flagged: counter("serve_sentinel_flagged_total"),
        sentinel_tracked_clients: gauge("serve_sentinel_tracked_clients"),
        queue_depth: gauge("serve_queue_depth"),
        mean_batch_size: if batches == 0 {
            0.0
        } else {
            rows_scored as f64 / batches as f64
        },
        p50_latency_us: Histogram::quantile_of_buckets(&latency_buckets_us, 0.50),
        p99_latency_us: Histogram::quantile_of_buckets(&latency_buckets_us, 0.99),
        latency_buckets_us,
        batch_size_buckets,
        latency_sum_us,
        batch_size_sum,
        stage_buckets_us,
        stage_sums_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maleva_obs::metrics::merge;

    fn summary(m: &Metrics) -> MetricsSnapshot {
        summarize(&m.registry().snapshot())
    }

    #[test]
    fn empty_metrics_snapshot_is_all_zero() {
        let m = Metrics::new();
        let s = summary(&m);
        assert_eq!(s.requests, 0);
        assert_eq!(s.p50_latency_us, 0);
        assert_eq!(s.cache_hit_rate, 0.0);
        assert_eq!(s.mean_batch_size, 0.0);
        assert!(s.latency_buckets_us.iter().all(|&c| c == 0));
    }

    #[test]
    fn latency_percentiles_track_the_distribution() {
        let m = Metrics::new();
        // 90 fast samples (~8µs) and 10 slow (~1000µs): p50 sits in the
        // fast bucket, p99 in the slow one.
        for _ in 0..90 {
            m.record_latency(Duration::from_micros(8));
        }
        for _ in 0..10 {
            m.record_latency(Duration::from_micros(1000));
        }
        let s = summary(&m);
        assert!(s.p50_latency_us <= 16, "p50 {}", s.p50_latency_us);
        assert!(s.p99_latency_us >= 512, "p99 {}", s.p99_latency_us);
    }

    #[test]
    fn derived_rates_compute() {
        let m = Metrics::new();
        m.cache_hits.add(3);
        m.cache_misses.add(1);
        m.batches.add(2);
        m.rows_scored.add(12);
        m.cache_entries.set(5);
        let s = summary(&m);
        assert!((s.cache_hit_rate - 0.75).abs() < 1e-12);
        assert!((s.mean_batch_size - 6.0).abs() < 1e-12);
        assert_eq!(s.cache_entries, 5);
    }

    #[test]
    fn sub_microsecond_latencies_land_in_bucket_zero() {
        let m = Metrics::new();
        m.record_latency(Duration::from_nanos(10));
        let s = summary(&m);
        assert_eq!(s.p50_latency_us, 1);
        assert_eq!(s.latency_buckets_us[0], 1);
    }

    #[test]
    fn extreme_latencies_saturate_into_the_top_bucket() {
        let m = Metrics::new();
        // ~2^41 µs — far past the top bucket bound of 2^31 µs. The
        // sample must land in the last bucket, not be dropped.
        m.record_latency(Duration::from_secs(40 * 24 * 3600));
        let s = summary(&m);
        assert_eq!(s.latency_buckets_us[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(
            s.p99_latency_us,
            maleva_obs::metrics::Histogram::bucket_upper(HISTOGRAM_BUCKETS - 1)
        );
        assert_eq!(s.latency_buckets_us.iter().sum::<u64>(), 1);
    }

    #[test]
    fn percentiles_pin_both_extremes_of_a_mixed_distribution() {
        let m = Metrics::new();
        for _ in 0..99 {
            m.record_latency(Duration::from_nanos(1)); // bucket 0
        }
        m.record_latency(Duration::from_secs(u32::MAX as u64)); // saturates
        let s = summary(&m);
        assert_eq!(s.p50_latency_us, 1); // bucket 0 upper bound
        assert_eq!(
            s.p99_latency_us,
            1 // 99th of 100 samples still in bucket 0
        );
        // The max (p100) lives in the saturated top bucket.
        assert_eq!(s.latency_buckets_us[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn batch_size_distribution_is_tracked() {
        let m = Metrics::new();
        m.record_batch_size(1);
        m.record_batch_size(8);
        m.record_batch_size(8);
        let s = summary(&m);
        assert_eq!(s.batch_size_buckets[1], 1); // [1, 2)
        assert_eq!(s.batch_size_buckets[4], 2); // [8, 16)
    }

    #[test]
    fn stage_histograms_record_in_pipeline_order() {
        let m = Metrics::new();
        m.record_stages(&StageTimes {
            queue_wait: Duration::from_micros(3),
            batch_wait: Duration::from_micros(5),
            cache_lookup: Duration::from_micros(1),
            sentinel_check: Duration::from_micros(2),
            inference: Duration::from_micros(900),
            serialize: Duration::from_micros(7),
        });
        let text = m.registry().render_prometheus();
        for stage in maleva_obs::report::STAGES {
            assert!(
                text.contains(&format!("serve_stage_{stage}_us_count 1")),
                "missing {stage} series in {text}"
            );
        }
        // The slow inference sample must land above the fast stages.
        use maleva_obs::metrics::MetricReading;
        match m.registry().snapshot().get("serve_stage_inference_us") {
            Some(MetricReading::Histogram { sum, count, .. }) => {
                assert_eq!(*count, 1);
                assert_eq!(*sum, 900);
            }
            other => panic!("unexpected reading {other:?}"),
        }
    }

    #[test]
    fn merge_sums_counters_and_recomputes_derived_values() {
        let a = Metrics::new();
        a.requests.add(10);
        a.cache_hits.add(6);
        a.cache_misses.add(2);
        a.batches.add(2);
        a.rows_scored.add(8);
        a.record_latency(Duration::from_micros(8));
        let b = Metrics::new();
        b.requests.add(5);
        b.cache_misses.add(2);
        b.batches.add(1);
        b.rows_scored.add(4);
        b.record_latency(Duration::from_micros(1000));
        a.cache_entries.set(3);
        b.cache_entries.set(1);
        let merged = summarize(&merge([&a.registry().snapshot(), &b.registry().snapshot()]));
        assert_eq!(merged.requests, 15);
        assert_eq!(merged.cache_entries, 4);
        assert!((merged.cache_hit_rate - 0.6).abs() < 1e-12);
        assert!((merged.mean_batch_size - 4.0).abs() < 1e-12);
        assert_eq!(merged.latency_buckets_us.iter().sum::<u64>(), 2);
        assert_eq!(merged.latency_sum_us, 1008);
        // Percentiles come off the merged distribution.
        assert!(merged.p50_latency_us <= 16, "{}", merged.p50_latency_us);
        assert!(merged.p99_latency_us >= 512, "{}", merged.p99_latency_us);
        // Merging one snapshot is the identity on the counter sums.
        let solo = summarize(&merge([&a.registry().snapshot()]));
        assert_eq!(solo.requests, 10);
        assert_eq!(solo.p50_latency_us, summary(&a).p50_latency_us);
    }

    #[test]
    fn summary_reads_every_series() {
        let m = Metrics::new();
        let counters = [
            &m.requests,
            &m.batches,
            &m.rows_scored,
            &m.cache_hits,
            &m.cache_misses,
            &m.errors,
            &m.overloaded,
            &m.shed,
            &m.deadline_exceeded,
            &m.scorer_panics,
            &m.row_failures,
            &m.faults_injected,
            &m.sentinel_throttled,
            &m.sentinel_poisoned,
            &m.sentinel_near_duplicates,
            &m.sentinel_verdict_flips,
            &m.sentinel_flagged,
        ];
        for (i, counter) in counters.iter().enumerate() {
            counter.add(i as u64 + 1);
        }
        m.sentinel_tracked_clients.set(18);
        m.queue_depth.set(19);
        m.cache_entries.set(20);
        m.record_batch_size(3);
        m.record_latency(Duration::from_micros(21));
        let us = Duration::from_micros;
        m.record_stages(&StageTimes {
            queue_wait: us(1),
            batch_wait: us(2),
            cache_lookup: us(3),
            sentinel_check: us(4),
            inference: us(5),
            serialize: us(6),
        });
        let s = summary(&m);
        let read = [
            s.requests,
            s.batches,
            s.rows_scored,
            s.cache_hits,
            s.cache_misses,
            s.errors,
            s.overloaded,
            s.shed,
            s.deadline_exceeded,
            s.scorer_panics,
            s.row_failures,
            s.faults_injected,
            s.sentinel_throttled,
            s.sentinel_poisoned,
            s.sentinel_near_duplicates,
            s.sentinel_verdict_flips,
            s.sentinel_flagged,
        ];
        assert_eq!(read.to_vec(), (1..=17).collect::<Vec<u64>>());
        assert_eq!(s.sentinel_tracked_clients, 18);
        assert_eq!(s.queue_depth, 19);
        assert_eq!(s.cache_entries, 20);
        assert_eq!((s.batch_size_sum, s.latency_sum_us), (3, 21));
        assert_eq!(s.stage_sums_us, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn prometheus_rendering_includes_all_series() {
        let m = Metrics::new();
        m.requests.add(7);
        m.record_latency(Duration::from_micros(100));
        m.record_batch_size(4);
        m.cache_entries.set(3);
        let text = m.registry().render_prometheus();
        assert!(
            text.contains("# TYPE serve_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("serve_requests_total 7"), "{text}");
        assert!(text.contains("serve_cache_entries 3"), "{text}");
        assert!(
            text.contains("serve_request_latency_us_bucket{le=\"128\"} 1"),
            "{text}"
        );
        assert!(text.contains("serve_request_latency_us_count 1"), "{text}");
        assert!(text.contains("serve_batch_size_count 1"), "{text}");
    }
}
