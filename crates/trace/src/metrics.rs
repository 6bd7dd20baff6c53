//! Hand-rolled metrics: monotonic counters and log-scale latency
//! histograms in a [`Registry`], dumped as Prometheus-compatible text
//! exposition or a JSON snapshot. No external registry crates — the
//! build environment is offline, and the formats are simple enough to
//! emit directly.
//!
//! Handles ([`Counter`], [`Histogram`]) are cheap `Arc`-backed views:
//! registering the same name twice returns the same underlying metric,
//! which is how `ServeStats` and `CacheStats` become *views over* the
//! registry rather than parallel bookkeeping. All updates are relaxed
//! atomics — metrics observe, they never synchronize.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A monotonically increasing counter.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not in any registry); `VerdictCache::new`
    /// without a service uses these.
    pub fn detached() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of finite histogram buckets; bucket `i` has upper bound
/// [`bucket_bound`]`(i)`, and one extra overflow bucket catches the rest
/// (`+Inf` in the exposition).
pub const HIST_BUCKETS: usize = 24;

/// Upper bound (inclusive, nanoseconds) of finite bucket `i`: powers of
/// two from 1024 ns (~1 µs) to 2^33 ns (~8.6 s).
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << (10 + i)
}

#[derive(Debug)]
struct HistogramInner {
    // buckets[HIST_BUCKETS] is the overflow (+Inf) bucket.
    buckets: [AtomicU64; HIST_BUCKETS + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A log-scale (power-of-two buckets) latency histogram in nanoseconds.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// A detached histogram (not in any registry).
    pub fn detached() -> Self {
        Self::default()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let idx = (0..HIST_BUCKETS)
            .find(|&i| ns <= bucket_bound(i))
            .unwrap_or(HIST_BUCKETS);
        self.inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.inner.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an elapsed [`Duration`](std::time::Duration).
    pub fn observe(&self, d: std::time::Duration) {
        self.observe_ns(d.as_nanos() as u64);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.inner.sum_ns.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (finite buckets then overflow), non-cumulative.
    pub fn buckets(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Approximate `q`-quantile (`q` clamped to `[0, 1]`): the upper
    /// bound of the log2 bucket containing the ⌈q·count⌉-th observation.
    /// The resolution is therefore one power of two — good enough for
    /// the perf harness's latency columns, and monotone in `q` by
    /// construction. Observations in the overflow bucket report
    /// `u64::MAX` ("off the scale"). Returns `None` for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ⌈q·count⌉, at least 1 so quantile(0.0) is the first bucket.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (i, b) in self.buckets().iter().enumerate() {
            cumulative = cumulative.saturating_add(*b);
            if cumulative >= rank {
                return Some(if i < HIST_BUCKETS {
                    bucket_bound(i)
                } else {
                    u64::MAX
                });
            }
        }
        Some(u64::MAX)
    }
}

enum Metric {
    Counter { help: String, counter: Counter },
    Histogram { help: String, histogram: Histogram },
}

/// A named collection of metrics. Cloning shares the collection. Each
/// `VerifyService` owns one, which keeps concurrent services — and
/// concurrent tests — from polluting each other's counts.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

fn lock(m: &Mutex<BTreeMap<String, Metric>>) -> MutexGuard<'_, BTreeMap<String, Metric>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Registering the same name twice returns a view of the same
    /// counter (that is the point: stats structs become views).
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a histogram — a programming
    /// error worth failing loudly on.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let mut metrics = lock(&self.inner);
        match metrics.get(name) {
            Some(Metric::Counter { counter, .. }) => counter.clone(),
            Some(Metric::Histogram { .. }) => {
                panic!("metric `{name}` is already registered as a histogram")
            }
            None => {
                let counter = Counter::default();
                metrics.insert(
                    name.to_string(),
                    Metric::Counter {
                        help: help.to_string(),
                        counter: counter.clone(),
                    },
                );
                counter
            }
        }
    }

    /// Returns the histogram registered under `name`, creating it on
    /// first use.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a counter.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        let mut metrics = lock(&self.inner);
        match metrics.get(name) {
            Some(Metric::Histogram { histogram, .. }) => histogram.clone(),
            Some(Metric::Counter { .. }) => {
                panic!("metric `{name}` is already registered as a counter")
            }
            None => {
                let histogram = Histogram::default();
                metrics.insert(
                    name.to_string(),
                    Metric::Histogram {
                        help: help.to_string(),
                        histogram: histogram.clone(),
                    },
                );
                histogram
            }
        }
    }

    /// Current value of a registered counter, if any.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match lock(&self.inner).get(name) {
            Some(Metric::Counter { counter, .. }) => Some(counter.get()),
            _ => None,
        }
    }

    /// Prometheus text exposition (v0.0.4): `# HELP` / `# TYPE` headers,
    /// counters as `<name> <value>`, histograms as cumulative
    /// `_bucket{le="..."}` series plus `_sum` and `_count`. Names are
    /// sorted, so the dump is deterministic in the registry contents.
    pub fn dump_prometheus(&self) -> String {
        let metrics = lock(&self.inner);
        let mut out = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter { help, counter } => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", counter.get());
                }
                Metric::Histogram { help, histogram } => {
                    let _ = writeln!(out, "# HELP {name} {help}");
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let buckets = histogram.buckets();
                    let mut cumulative = 0u64;
                    for (i, b) in buckets.iter().take(HIST_BUCKETS).enumerate() {
                        cumulative += b;
                        let _ = writeln!(
                            out,
                            "{name}_bucket{{le=\"{}\"}} {cumulative}",
                            bucket_bound(i)
                        );
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", histogram.count());
                    let _ = writeln!(out, "{name}_sum {}", histogram.sum_ns());
                    let _ = writeln!(out, "{name}_count {}", histogram.count());
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"counters":{...},"histograms":{...}}` with
    /// per-histogram `count`, `sum_ns` and non-cumulative
    /// `[bound, count]` bucket pairs. Deterministic (sorted names).
    pub fn dump_json(&self) -> String {
        let metrics = lock(&self.inner);
        let mut counters = String::new();
        let mut histograms = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter { counter, .. } => {
                    if !counters.is_empty() {
                        counters.push(',');
                    }
                    let _ = write!(counters, "\"{name}\":{}", counter.get());
                }
                Metric::Histogram { histogram, .. } => {
                    if !histograms.is_empty() {
                        histograms.push(',');
                    }
                    let buckets = histogram.buckets();
                    let mut pairs = String::new();
                    for (i, b) in buckets.iter().enumerate() {
                        if *b == 0 {
                            continue; // sparse: empty buckets are implied
                        }
                        if !pairs.is_empty() {
                            pairs.push(',');
                        }
                        if i < HIST_BUCKETS {
                            let _ = write!(pairs, "[{},{b}]", bucket_bound(i));
                        } else {
                            let _ = write!(pairs, "[null,{b}]");
                        }
                    }
                    let _ = write!(
                        histograms,
                        "\"{name}\":{{\"count\":{},\"sum_ns\":{},\"buckets\":[{pairs}]}}",
                        histogram.count(),
                        histogram.sum_ns(),
                    );
                }
            }
        }
        format!("{{\"counters\":{{{counters}}},\"histograms\":{{{histograms}}}}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_views_share_the_value() {
        let r = Registry::new();
        let a = r.counter("asv_test_total", "test counter");
        let b = r.counter("asv_test_total", "test counter");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.counter_value("asv_test_total"), Some(4));
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let h = Histogram::detached();
        h.observe_ns(1); // <= 1024 → bucket 0
        h.observe_ns(1024); // inclusive bound → bucket 0
        h.observe_ns(1025); // bucket 1
        h.observe_ns(u64::MAX); // overflow
        let b = h.buckets();
        assert_eq!(b[0], 2);
        assert_eq!(b[1], 1);
        assert_eq!(b[HIST_BUCKETS], 1);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn quantile_of_empty_histogram_is_none() {
        assert_eq!(Histogram::detached().quantile(0.5), None);
    }

    #[test]
    fn quantile_of_value_zero_lands_in_the_first_bucket() {
        // 0 ns is below the smallest bound; every quantile reports the
        // first bucket's bound.
        let h = Histogram::detached();
        h.observe_ns(0);
        assert_eq!(h.quantile(0.0), Some(bucket_bound(0)));
        assert_eq!(h.quantile(0.5), Some(bucket_bound(0)));
        assert_eq!(h.quantile(1.0), Some(bucket_bound(0)));
    }

    #[test]
    fn quantile_with_a_single_bucket_is_that_bucket_for_all_q() {
        let h = Histogram::detached();
        for _ in 0..10 {
            h.observe_ns(5000); // bucket le=8192
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(8192), "q={q}");
        }
    }

    #[test]
    fn quantile_splits_across_buckets_at_the_rank_boundary() {
        let h = Histogram::detached();
        h.observe_ns(1000); // bucket 0 (le=1024)
        h.observe_ns(3000); // bucket 2 (le=4096)
        h.observe_ns(3000);
        h.observe_ns(3000);
        // rank(0.25·4)=1 → bucket 0; rank(0.5·4)=2 → bucket 2.
        assert_eq!(h.quantile(0.25), Some(1024));
        assert_eq!(h.quantile(0.5), Some(4096));
        assert_eq!(h.quantile(1.0), Some(4096));
    }

    #[test]
    fn quantile_saturates_in_the_overflow_bucket() {
        let h = Histogram::detached();
        h.observe_ns(1024); // bucket 0
        h.observe_ns(u64::MAX); // overflow
        assert_eq!(h.quantile(0.5), Some(1024));
        assert_eq!(h.quantile(1.0), Some(u64::MAX), "overflow is off-scale");
        // Out-of-range q is clamped, not a panic.
        assert_eq!(h.quantile(7.0), Some(u64::MAX));
        assert_eq!(h.quantile(-1.0), Some(1024));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("asv_clash", "a counter");
        r.histogram("asv_clash", "now a histogram");
    }

    /// The exposition-format golden test: byte-exact output for a known
    /// registry state. Guards the hand-rolled format against drift —
    /// Prometheus scrapers are parsing this exact text.
    #[test]
    fn prometheus_exposition_golden() {
        let r = Registry::new();
        r.counter("asv_jobs_total", "Jobs submitted").add(7);
        let h = r.histogram("asv_job_ns", "Job latency in nanoseconds");
        h.observe_ns(1000); // bucket le=1024
        h.observe_ns(3000); // bucket le=4096
        h.observe_ns(3000);
        let dump = r.dump_prometheus();
        let mut expected = String::new();
        expected.push_str("# HELP asv_job_ns Job latency in nanoseconds\n");
        expected.push_str("# TYPE asv_job_ns histogram\n");
        let mut cumulative;
        for i in 0..HIST_BUCKETS {
            cumulative = match bucket_bound(i) {
                0..=1023 => 0,
                1024..=4095 => 1,
                _ => 3,
            };
            expected.push_str(&format!(
                "asv_job_ns_bucket{{le=\"{}\"}} {cumulative}\n",
                bucket_bound(i)
            ));
        }
        expected.push_str("asv_job_ns_bucket{le=\"+Inf\"} 3\n");
        expected.push_str("asv_job_ns_sum 7000\n");
        expected.push_str("asv_job_ns_count 3\n");
        expected.push_str("# HELP asv_jobs_total Jobs submitted\n");
        expected.push_str("# TYPE asv_jobs_total counter\n");
        expected.push_str("asv_jobs_total 7\n");
        assert_eq!(dump, expected);
    }

    #[test]
    fn json_snapshot_is_valid_and_sparse() {
        let r = Registry::new();
        r.counter("asv_a_total", "a").add(2);
        let h = r.histogram("asv_b_ns", "b");
        h.observe_ns(100);
        let json = r.dump_json();
        assert_eq!(
            json,
            "{\"counters\":{\"asv_a_total\":2},\
             \"histograms\":{\"asv_b_ns\":{\"count\":1,\"sum_ns\":100,\"buckets\":[[1024,1]]}}}"
        );
    }
}
