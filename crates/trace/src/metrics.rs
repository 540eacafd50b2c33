//! Counters and duration histograms.
//!
//! * `ShardedCounter` — monotone event counters, sharded across 16
//!   cache-line slots so concurrent increments from ingestion shards and
//!   multi-query workers rarely contend. Totals are exact (summing shards),
//!   only the shard an increment lands on is thread-dependent.
//! * `Histogram` — log2-bucketed duration histogram with p50/p95/p99
//!   readout. The tracer records every finished span's duration into the
//!   histogram named after the span, so per-stage tail latency falls out of
//!   the span taxonomy for free.
//!
//! Both are registered on demand in a `Metrics` registry keyed by static
//! name; `Metrics::snapshot` freezes everything into a [`TraceSummary`]
//! with canonical (sorted-key) JSON rendering.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Shard count for [`ShardedCounter`] (matches the inference cache's 16-way
/// sharding — enough for the thread counts this workspace uses).
const SHARDS: usize = 16;

/// Returns this thread's stable shard index, assigned round-robin on first
/// use so threads spread across shards deterministically per-process.
fn shard_index() -> usize {
    thread_local! {
        static IDX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    IDX.with(|c| {
        let mut v = c.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
            c.set(v);
        }
        v
    })
}

/// A monotone `u64` counter sharded across [`SHARDS`] atomic slots.
#[derive(Debug)]
pub(crate) struct ShardedCounter {
    shards: [AtomicU64; SHARDS],
}

impl ShardedCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self {
            shards: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds `delta` to this thread's shard.
    pub fn add(&self, delta: u64) {
        if let Some(shard) = self.shards.get(shard_index()) {
            shard.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The exact total across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }
}

impl Default for ShardedCounter {
    fn default() -> Self {
        Self::new()
    }
}

/// Number of log2 buckets: bucket 0 holds exactly 0, bucket `b >= 1` holds
/// values in `[2^(b-1), 2^b)`, up to bucket 64 for values `>= 2^63`.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of nanosecond durations.
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// Maps a value to its log2 bucket.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of a bucket — the value a quantile readout
/// reports for samples landing in it.
fn bucket_upper_bound(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        if let Some(bucket) = self.buckets.get(bucket_of(v)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Freezes the histogram into a consistent snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // 1-based rank of the q-quantile sample.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (b, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_upper_bound(b);
                }
            }
            bucket_upper_bound(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum_ns: self.sum.load(Ordering::Relaxed),
            p50_ns: quantile(0.50),
            p95_ns: quantile(0.95),
            p99_ns: quantile(0.99),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen histogram readout. Quantiles are log2-bucket upper bounds, so
/// they over-report by at most 2x — stage *attribution*, not benchmarking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (exact).
    pub sum_ns: u64,
    /// Median upper bound.
    pub p50_ns: u64,
    /// 95th-percentile upper bound.
    pub p95_ns: u64,
    /// 99th-percentile upper bound.
    pub p99_ns: u64,
}

/// On-demand registry of named counters and histograms.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    counters: Mutex<BTreeMap<&'static str, Arc<ShardedCounter>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn counter_add(&self, name: &'static str, delta: u64) {
        let counter = {
            let mut map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(name).or_default())
        };
        counter.add(delta);
    }

    pub(crate) fn record_duration(&self, name: &'static str, ns: u64) {
        let hist = {
            let mut map = self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(name).or_default())
        };
        hist.record(ns);
    }

    pub(crate) fn snapshot(&self) -> TraceSummary {
        // Clone the Arcs out under each registry lock, then read the
        // (atomic) metric values with no guard held: snapshotting must not
        // serialize against concurrent `counter_add`/`record_duration`
        // registrations any longer than the map clone itself.
        let counter_refs: Vec<(&'static str, Arc<ShardedCounter>)> = {
            let map = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
            map.iter().map(|(&k, v)| (k, Arc::clone(v))).collect()
        };
        let hist_refs: Vec<(&'static str, Arc<Histogram>)> = {
            let map = self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            map.iter().map(|(&k, v)| (k, Arc::clone(v))).collect()
        };
        let counters = counter_refs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.value()))
            .collect();
        let spans = hist_refs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .collect();
        TraceSummary { counters, spans }
    }
}

/// Everything the tracer counted, frozen. `BTreeMap` keys make rendering
/// canonical: equal summaries produce byte-equal JSON and tables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Per-span-name duration histograms (one sample per finished span).
    pub spans: BTreeMap<String, HistogramSnapshot>,
}

impl TraceSummary {
    /// Canonical pretty JSON (sorted keys, stable layout).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("    \"{}\": {v}", crate::record::escape_json(k)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"spans\": {");
        let mut first = true;
        for (k, s) in &self.spans {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!(
                "    \"{}\": {{\"count\": {}, \"sum_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                crate::record::escape_json(k),
                s.count,
                s.sum_ns,
                s.p50_ns,
                s.p95_ns,
                s.p99_ns
            ));
        }
        out.push_str(if first { "}\n}\n" } else { "\n  }\n}\n" });
        out
    }

    /// Human-readable summary table (for `vaq-cli`).
    pub fn render_table(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            if ns >= 1_000_000_000 {
                format!("{:.2}s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.2}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.2}us", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        let mut out = String::new();
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                "span", "count", "total", "p50", "p95", "p99"
            ));
            for (k, s) in &self.spans {
                out.push_str(&format!(
                    "{:<32} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
                    k,
                    s.count,
                    fmt_ns(s.sum_ns),
                    fmt_ns(s.p50_ns),
                    fmt_ns(s.p95_ns),
                    fmt_ns(s.p99_ns)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("{:<48} {:>12}\n", "counter", "value"));
            for (k, v) in &self.counters {
                out.push_str(&format!("{k:<48} {v:>12}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn counter_totals_are_exact_across_threads() {
        let c = std::sync::Arc::new(ShardedCounter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn histogram_quantiles_bound_the_samples() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 50, 60, 70, 80, 90, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 10);
        assert_eq!(s.sum_ns, 450 + 10_000);
        // p50 falls in the bucket of 50 ([32,64) => upper bound 63).
        assert_eq!(s.p50_ns, 63);
        // p99 lands on the outlier's bucket ([8192,16384) => 16383).
        assert_eq!(s.p99_ns, 16383);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(
            s,
            HistogramSnapshot {
                count: 0,
                sum_ns: 0,
                p50_ns: 0,
                p95_ns: 0,
                p99_ns: 0
            }
        );
    }

    #[test]
    fn all_zero_samples_snapshot_to_zero_quantiles() {
        let h = Histogram::new();
        for _ in 0..5 {
            h.record(0);
        }
        let s = h.snapshot();
        assert_eq!((s.count, s.p50_ns, s.p95_ns, s.p99_ns), (5, 0, 0, 0));
    }

    #[test]
    fn summary_json_is_canonical_and_sorted() {
        let m = Metrics::new();
        m.counter_add("b.second", 2);
        m.counter_add("a.first", 1);
        m.record_duration("z.span", 0);
        let a = m.snapshot();
        let b = m.snapshot();
        assert_eq!(a, b);
        let json = a.to_json();
        assert_eq!(json, b.to_json());
        let a_pos = json.find("a.first").unwrap();
        let b_pos = json.find("b.second").unwrap();
        assert!(a_pos < b_pos, "keys must render sorted");
        assert!(json.contains("\"z.span\": {\"count\": 1"));
    }

    #[test]
    fn empty_summary_renders_valid_json() {
        let json = TraceSummary::default().to_json();
        assert_eq!(json, "{\n  \"counters\": {},\n  \"spans\": {}\n}\n");
    }

    #[test]
    fn table_renders_all_names() {
        let m = Metrics::new();
        m.counter_add("ingest.frames", 1500);
        m.record_duration("ingest", 2_500_000);
        let table = m.snapshot().render_table();
        assert!(table.contains("ingest.frames"));
        assert!(table.contains("2.50ms"));
    }
}
