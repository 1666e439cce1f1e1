//! Counters, gauges, and power-of-two histograms behind a named
//! registry with a Prometheus text-exposition renderer.
//!
//! All primitives are lock-free on the record path (relaxed atomics);
//! the registry only takes a lock on registration and capture. A
//! capture ([`Registry::snapshot`]) is a [`Snapshot`]: every series
//! with its help text and [`MetricReading`]. Snapshots of several
//! registries combine with [`merge`], and a snapshot is what renders
//! and what [`crate::slo`] observes.
//!
//! The histogram layout is shared with `serve::metrics`: bucket `i`
//! counts samples in `[2^(i-1), 2^i)` (bucket 0 holds zeros), and
//! samples at or above the top bucket bound saturate into the last
//! bucket rather than being dropped.

use std::fmt::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Number of power-of-two histogram buckets.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// New gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Maps a sample to its power-of-two bucket. Zero lands in bucket 0;
/// samples at or above `2^(HISTOGRAM_BUCKETS-1)` saturate into the
/// last bucket.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A fixed-size power-of-two histogram with total count and sum.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample (in whatever unit the caller uses
    /// consistently — the serving layer records microseconds).
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Records a duration as whole microseconds.
    #[inline]
    pub fn record_duration_us(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bound (exclusive) of bucket `i`, i.e. `2^i`. The last
    /// bucket is unbounded in practice (saturation), so its reported
    /// bound is a cap, not a maximum observed value.
    pub fn bucket_upper(i: usize) -> u64 {
        1u64 << i.min(63)
    }

    /// Approximate quantile `q` in `[0, 1]` of a bucket vector — a
    /// [`Histogram::snapshot_buckets`] copy, or buckets merged across
    /// several histograms (the sharded server merges per-shard captures
    /// and reads percentiles off the combined distribution): the upper
    /// bound of the first bucket at which the cumulative count reaches
    /// `q * count`. Returns 0 for an empty vector.
    pub fn quantile_of_buckets(counts: &[u64], q: f64) -> u64 {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let threshold = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= threshold {
                return Self::bucket_upper(i);
            }
        }
        Self::bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    /// A copy of the per-bucket counts.
    pub fn snapshot_buckets(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// The kind and handle of a registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    name: Arc<str>,
    help: Arc<str>,
    metric: Metric,
    /// Whether the help-text-mismatch warning already fired for this
    /// name — re-registration with different help warns once, not per
    /// call site execution.
    help_warned: bool,
}

/// A point-in-time reading of one metric, as captured in a
/// [`Snapshot`]. Histograms carry their full power-of-two bucket
/// counts so consumers (e.g. the SLO engine in [`crate::slo`]) can
/// compute threshold-exceedance fractions from window deltas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricReading {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram bucket counts (length [`HISTOGRAM_BUCKETS`]), total
    /// count, and sum.
    Histogram {
        /// Per-bucket counts; bucket `i` covers `[2^(i-1), 2^i)`.
        buckets: Vec<u64>,
        /// Total recorded samples.
        count: u64,
        /// Sum of recorded samples.
        sum: u64,
    },
}

impl MetricReading {
    /// Adds `other` into this reading: counters and gauges add,
    /// histograms add bucket by bucket, count and sum included. A
    /// reading of another kind is ignored.
    fn accumulate(&mut self, other: &MetricReading) {
        match (self, other) {
            (MetricReading::Counter(into), MetricReading::Counter(from)) => *into += from,
            (MetricReading::Gauge(into), MetricReading::Gauge(from)) => *into += from,
            (
                MetricReading::Histogram {
                    buckets,
                    count,
                    sum,
                },
                MetricReading::Histogram {
                    buckets: from_buckets,
                    count: from_count,
                    sum: from_sum,
                },
            ) => {
                for (into, from) in buckets.iter_mut().zip(from_buckets) {
                    *into += from;
                }
                *count += from_count;
                *sum += from_sum;
            }
            _ => {}
        }
    }
}

/// One named series of a [`Snapshot`]: the sanitized name, the help
/// text rendered as `# HELP` (omitted when empty), and the value.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Series {
    name: Arc<str>,
    help: Arc<str>,
    reading: MetricReading,
}

/// A captured reading of one registry ([`Registry::snapshot`]) or of
/// several merged ([`merge`]): every series in registration order.
/// This is what renders to Prometheus text and what the SLO engine
/// observes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    series: Vec<Series>,
}

impl Snapshot {
    /// The reading of the series named `name` (after the same
    /// sanitization registration applies), if captured.
    pub fn get(&self, name: &str) -> Option<&MetricReading> {
        let name = sanitize_name(name);
        self.series
            .iter()
            .find(|s| *s.name == *name)
            .map(|s| &s.reading)
    }

    /// Renders every series in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative histogram buckets with
    /// `le` labels, `_sum` and `_count` series).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for Series {
            name,
            help,
            reading,
        } in &self.series
        {
            match reading {
                MetricReading::Counter(v) => {
                    render_header(&mut out, name, help, "counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricReading::Gauge(v) => {
                    render_header(&mut out, name, help, "gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricReading::Histogram {
                    buckets,
                    count,
                    sum,
                } => {
                    render_header(&mut out, name, help, "histogram");
                    let mut cumulative = 0u64;
                    for (i, c) in buckets.iter().enumerate() {
                        cumulative += c;
                        // Skip leading all-zero buckets to keep output
                        // compact, but always render at least the
                        // occupied range and the +Inf bucket.
                        if cumulative == 0 && i < HISTOGRAM_BUCKETS - 1 {
                            continue;
                        }
                        if i == HISTOGRAM_BUCKETS - 1 {
                            break;
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cumulative}",
                            Histogram::bucket_upper(i)
                        );
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                    let _ = writeln!(out, "{name}_sum {sum}");
                    let _ = writeln!(out, "{name}_count {count}");
                }
            }
        }
        out
    }
}

/// Combines snapshots into one: a series present in several parts
/// adds up ([`MetricReading`] kinds must agree; a part whose kind
/// disagrees with the first is skipped), a series present in one part
/// passes through, and series keep first-appearance order. Help text
/// is the first part's.
pub fn merge<'a>(parts: impl IntoIterator<Item = &'a Snapshot>) -> Snapshot {
    let mut out = Snapshot::default();
    for part in parts {
        for series in &part.series {
            match out.series.iter_mut().find(|s| s.name == series.name) {
                Some(into) => into.reading.accumulate(&series.reading),
                None => out.series.push(series.clone()),
            }
        }
    }
    out
}

/// A named collection of metrics that renders to Prometheus text
/// exposition format. Registration is idempotent: registering the same
/// name and kind twice returns the existing handle.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers (or fetches) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.get_or_insert(
            name,
            help,
            || Metric::Counter(Arc::new(Counter::new())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
        .unwrap_or_else(|| Arc::new(Counter::new()))
    }

    /// Registers (or fetches) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.get_or_insert(
            name,
            help,
            || Metric::Gauge(Arc::new(Gauge::new())),
            |m| match m {
                Metric::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
        .unwrap_or_else(|| Arc::new(Gauge::new()))
    }

    /// Registers (or fetches) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.get_or_insert(
            name,
            help,
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
        .unwrap_or_else(|| Arc::new(Histogram::new()))
    }

    /// Shared lookup-or-insert. On a name collision with a different
    /// kind the caller gets a detached metric (registered nothing) so
    /// instrumentation never panics; the mismatch is a programming
    /// error surfaced by the returned handle not appearing in renders.
    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        make: impl FnOnce() -> Metric,
        downcast: impl Fn(&Metric) -> Option<Arc<T>>,
    ) -> Option<Arc<T>> {
        let name = sanitize_name(name);
        let mut entries = self.lock();
        if let Some(entry) = entries.iter_mut().find(|e| *e.name == *name) {
            // Same name, different help: almost always a programming
            // error (two call sites disagreeing about what the series
            // means). Keep the first help string but say so — once.
            if *entry.help != *help && !entry.help_warned {
                entry.help_warned = true;
                eprintln!(
                    "maleva-obs: metric `{name}` re-registered with different help \
                     text; keeping {:?}, ignoring {:?}",
                    entry.help, help
                );
            }
            return downcast(&entry.metric);
        }
        let metric = make();
        let handle = downcast(&metric);
        entries.push(Entry {
            name: name.into(),
            help: help.into(),
            metric,
            help_warned: false,
        });
        handle
    }

    /// Captures every registered metric, in registration order. One
    /// lock, one load per atomic, no string copies.
    pub fn snapshot(&self) -> Snapshot {
        let entries = self.lock();
        Snapshot {
            series: entries
                .iter()
                .map(|e| Series {
                    name: Arc::clone(&e.name),
                    help: Arc::clone(&e.help),
                    reading: match &e.metric {
                        Metric::Counter(c) => MetricReading::Counter(c.get()),
                        Metric::Gauge(g) => MetricReading::Gauge(g.get()),
                        Metric::Histogram(h) => MetricReading::Histogram {
                            buckets: h.snapshot_buckets(),
                            count: h.count(),
                            sum: h.sum(),
                        },
                    },
                })
                .collect(),
        }
    }

    /// Renders every registered metric in Prometheus text exposition
    /// format: [`Registry::snapshot`] then [`Snapshot::render_prometheus`].
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Entry>> {
        match self.entries.lock() {
            Ok(e) => e,
            Err(p) => p.into_inner(),
        }
    }
}

fn render_header(out: &mut String, name: &str, help: &str, kind: &str) {
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
    }
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Escapes help text for the exposition format: `\` and newlines would
/// otherwise corrupt the line-oriented output.
fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for c in help.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Replaces characters outside `[a-zA-Z0-9_:]` with `_` so any
/// dotted/hyphenated internal name is a valid Prometheus metric name.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_and_saturation() {
        let h = Histogram::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 1: [1, 2)
        h.record(8); // bucket 4: [8, 16)
        h.record(u64::MAX); // saturates into last bucket
        let buckets = h.snapshot_buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[4], 1);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantiles_pin_both_extremes() {
        let h = Histogram::new();
        // All samples tiny: every quantile is the smallest occupied bound.
        let quantile = |h: &Histogram, q| Histogram::quantile_of_buckets(&h.snapshot_buckets(), q);
        for _ in 0..100 {
            h.record(1);
        }
        assert_eq!(quantile(&h, 0.0), 2);
        assert_eq!(quantile(&h, 0.5), 2);
        assert_eq!(quantile(&h, 1.0), 2);
        // Add huge saturating samples: the high quantiles move to the cap.
        for _ in 0..100 {
            h.record(u64::MAX);
        }
        assert_eq!(quantile(&h, 0.5), 2);
        assert_eq!(
            quantile(&h, 1.0),
            Histogram::bucket_upper(HISTOGRAM_BUCKETS - 1)
        );
        assert_eq!(h.count(), 200);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new();
        assert_eq!(
            Histogram::quantile_of_buckets(&h.snapshot_buckets(), 0.5),
            0
        );
        assert_eq!(
            Histogram::quantile_of_buckets(&h.snapshot_buckets(), 0.99),
            0
        );
    }

    #[test]
    fn quantile_of_buckets_matches_live_histogram() {
        let h = Histogram::new();
        for v in [1u64, 8, 8, 1000, u64::MAX] {
            h.record(v);
        }
        let buckets = h.snapshot_buckets();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                Histogram::quantile_of_buckets(&buckets, q),
                Histogram::quantile_of_buckets(&h.snapshot_buckets(), q)
            );
        }
        assert_eq!(Histogram::quantile_of_buckets(&[], 0.5), 0);
    }

    #[test]
    fn merge_adds_series_and_keeps_first_appearance_order() {
        let a = Registry::new();
        a.counter("reqs_total", "Requests.").add(3);
        a.gauge("depth", "Depth.").set(-2);
        let h = a.histogram("lat_us", "Latency.");
        h.record(5);
        h.record(9);
        let b = Registry::new();
        b.counter("only_b_total", "Only in b.").add(7);
        b.histogram("lat_us", "Latency.").record(6);
        b.gauge("depth", "Depth.").set(5);
        b.counter("reqs_total", "Requests.").add(4);

        let merged = merge([&a.snapshot(), &b.snapshot()]);
        let names: Vec<&str> = merged.series.iter().map(|s| &*s.name).collect();
        assert_eq!(names, ["reqs_total", "depth", "lat_us", "only_b_total"]);
        assert_eq!(merged.get("reqs_total"), Some(&MetricReading::Counter(7)));
        assert_eq!(merged.get("depth"), Some(&MetricReading::Gauge(3)));
        assert_eq!(merged.get("only_b_total"), Some(&MetricReading::Counter(7)));
        let mut buckets = vec![0; HISTOGRAM_BUCKETS];
        buckets[3] = 2; // 5 and 6 in [4, 8)
        buckets[4] = 1; // 9 in [8, 16)
        assert_eq!(
            merged.get("lat_us"),
            Some(&MetricReading::Histogram {
                buckets,
                count: 3,
                sum: 20,
            })
        );
        // Merging one part, or none, changes nothing.
        assert_eq!(merge([&a.snapshot()]), a.snapshot());
        assert_eq!(merge([]), Snapshot::default());
    }

    #[test]
    fn registry_is_idempotent_and_shares_handles() {
        let r = Registry::new();
        let a = r.counter("requests_total", "Total requests.");
        let b = r.counter("requests_total", "Total requests.");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(b.get(), 2);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("reqs_total", "Requests.").add(3);
        r.gauge("cache_entries", "Entries.").set(12);
        let h = r.histogram("latency_us", "Latency.");
        h.record(5);
        h.record(u64::MAX);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"), "{text}");
        assert!(text.contains("reqs_total 3"), "{text}");
        assert!(text.contains("# TYPE cache_entries gauge"), "{text}");
        assert!(text.contains("cache_entries 12"), "{text}");
        assert!(text.contains("# TYPE latency_us histogram"), "{text}");
        assert!(text.contains("latency_us_bucket{le=\"8\"} 1"), "{text}");
        assert!(text.contains("latency_us_bucket{le=\"+Inf\"} 2"), "{text}");
        assert!(text.contains("latency_us_count 2"), "{text}");
    }

    #[test]
    fn re_registration_with_different_help_keeps_first_and_shares_handle() {
        let r = Registry::new();
        let a = r.counter("dup_total", "First help.");
        // Different help: warns (once, to stderr) but still returns the
        // same underlying counter, and rendering keeps the first help.
        let b = r.counter("dup_total", "Second help.");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let text = r.render_prometheus();
        assert!(text.contains("# HELP dup_total First help."), "{text}");
        assert!(!text.contains("Second help."), "{text}");
    }

    #[test]
    fn help_text_is_escaped_in_exposition_output() {
        let r = Registry::new();
        r.counter("tricky_total", "line one\nline two with back\\slash")
            .inc();
        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP tricky_total line one\\nline two with back\\\\slash"),
            "{text}"
        );
        // The renderer output stays one-record-per-line.
        assert!(
            text.lines().all(|l| !l.starts_with("line two")),
            "raw newline leaked into exposition output: {text}"
        );
    }

    #[test]
    fn read_by_name_returns_current_values() {
        let r = Registry::new();
        r.counter("reads_total", "Reads.").add(3);
        r.gauge("depth", "Depth.").set(-2);
        let h = r.histogram("lat_us", "Latency.");
        h.record(5);
        h.record(9);
        let snap = r.snapshot();
        assert_eq!(snap.get("reads_total"), Some(&MetricReading::Counter(3)));
        assert_eq!(snap.get("depth"), Some(&MetricReading::Gauge(-2)));
        match snap.get("lat_us") {
            Some(MetricReading::Histogram {
                buckets,
                count,
                sum,
            }) => {
                assert_eq!(*count, 2);
                assert_eq!(*sum, 14);
                assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
                assert_eq!(buckets[3], 1); // 5 in [4, 8)
                assert_eq!(buckets[4], 1); // 9 in [8, 16)
            }
            other => panic!("unexpected reading: {other:?}"),
        }
        // Dotted names resolve through the same sanitization as
        // registration did.
        assert_eq!(snap.get("missing"), None);
        r.counter("dotted.name_total", "Dotted.").inc();
        assert_eq!(
            r.snapshot().get("dotted.name_total"),
            Some(&MetricReading::Counter(1))
        );
    }

    #[test]
    fn names_are_sanitized_for_prometheus() {
        let r = Registry::new();
        r.counter("jsma.rows-total", "Rows.").inc();
        let text = r.render_prometheus();
        assert!(text.contains("jsma_rows_total 1"), "{text}");
    }
}
