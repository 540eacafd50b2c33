//! # vaq-trace
//!
//! Zero-dependency, deterministic-replay-safe tracing and telemetry for the
//! vaq workspace.
//!
//! The paper's evaluation (§5) attributes cost per *stage* — detector and
//! recognizer invocations, scan-statistic evaluations per clip, RVAQ
//! bound-refinement iterations — while the reproduction previously observed
//! only end-to-end wall clock plus coarse `InferenceStats` counters. This
//! crate supplies the missing substrate:
//!
//! * **Hierarchical spans** ([`Tracer::span`], the [`span!`] macro): each
//!   span times one stage via an injectable [`Clock`], parents under the
//!   ambient enclosing span on the same thread, or under an explicit parent
//!   id ([`Tracer::span_with_parent`]) for cross-thread attribution (e.g.
//!   parallel ingestion shards).
//! * **Counters and histograms** ([`Tracer::counter_add`],
//!   `Histogram`): sharded counters plus log2-bucketed duration
//!   histograms with p50/p95/p99 readout; every finished span feeds the
//!   histogram named after it.
//! * **Pluggable sinks** ([`Sink`]): [`NullSink`] (overhead measurement),
//!   [`MemorySink`] (tests, golden traces), [`JsonLinesSink`]
//!   (`vaq-cli --trace <path>`).
//!
//! ## Determinism contract
//!
//! No crate may read wall-clock time (the `disallowed-methods` ban in the
//! workspace's `clippy.toml`, DESIGN.md §12.1). Tracing
//! threads time through the [`Clock`] trait instead: [`MonotonicClock`] is
//! the one audited wall-clock boundary, and [`MockClock`] makes traces
//! bit-for-bit reproducible in tests. A **disabled** tracer
//! ([`Tracer::disabled`], the default) never reads any clock and makes
//! every operation a no-op, so instrumented hot paths cost one branch when
//! tracing is off — and, crucially, instrumentation can never perturb
//! algorithm results: it observes, it does not participate.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod clock;
pub mod metrics;
pub mod record;
pub mod sink;

pub use clock::{Clock, MockClock, MonotonicClock};
pub use metrics::{HistogramSnapshot, TraceSummary};
pub use record::{render_tree, FieldValue, SpanRecord};
pub use sink::{JsonLinesSink, MemorySink, NullSink, Sink};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared tracer state behind an enabled [`Tracer`].
struct Inner {
    clock: Box<dyn Clock>,
    sink: Box<dyn Sink>,
    next_id: AtomicU64,
    metrics: metrics::Metrics,
}

thread_local! {
    /// Ambient span stack: `(tracer token, span id)` pairs for every span
    /// currently open on this thread. Keyed by tracer so two tracers on one
    /// thread never adopt each other's spans.
    static AMBIENT: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A cheap-to-clone handle to a tracing pipeline, or a disabled no-op.
///
/// All engine APIs accept a `Tracer` by value or reference; passing
/// [`Tracer::disabled`] (also the `Default`) turns every tracing operation
/// into a branch-and-return.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A tracer timing via `clock` and delivering spans to `sink`.
    pub fn new(clock: impl Clock + 'static, sink: impl Sink + 'static) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                clock: Box::new(clock),
                sink: Box::new(sink),
                next_id: AtomicU64::new(1),
                metrics: metrics::Metrics::new(),
            })),
        }
    }

    /// Whether this tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span parented under the innermost span this tracer has open
    /// on the current thread (a root span if none). Prefer the [`span!`]
    /// macro, which also records fields.
    pub fn span(&self, name: &'static str) -> Span {
        let parent = match &self.inner {
            None => None,
            Some(inner) => {
                let token = Arc::as_ptr(inner) as usize;
                AMBIENT.with(|s| {
                    s.borrow()
                        .iter()
                        .rev()
                        .find(|&&(t, _)| t == token)
                        .map(|&(_, id)| id)
                })
            }
        };
        self.span_with_parent(name, parent)
    }

    /// Opens a span under an explicit parent id — the cross-thread variant
    /// for work handed to worker threads (parallel ingestion shards record
    /// their shard spans under the root `ingest.parallel` span this way).
    pub fn span_with_parent(&self, name: &'static str, parent: Option<u64>) -> Span {
        let Some(inner) = &self.inner else {
            return Span {
                inner: None,
                token: 0,
                id: 0,
                parent: None,
                name,
                start_ns: 0,
                fields: Vec::new(),
            };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let token = Arc::as_ptr(inner) as usize;
        let start_ns = inner.clock.now_ns();
        AMBIENT.with(|s| s.borrow_mut().push((token, id)));
        Span {
            inner: Some(Arc::clone(inner)),
            token,
            id,
            parent,
            name,
            start_ns,
            fields: Vec::new(),
        }
    }

    /// Adds `delta` to the named counter.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter_add(name, delta);
        }
    }

    /// Records a raw duration sample into the named histogram (spans do
    /// this automatically on drop; this entry point serves histogram-only
    /// call sites like cache miss computation).
    pub fn record_duration_ns(&self, name: &'static str, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.record_duration(name, ns);
        }
    }

    /// Freezes all counters and histograms.
    pub fn snapshot(&self) -> TraceSummary {
        self.inner
            .as_ref()
            .map_or_else(TraceSummary::default, |i| i.metrics.snapshot())
    }

    /// Flushes the sink (best-effort).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

/// An open span. Dropping it closes the span: the duration is recorded in
/// the histogram named after the span and the finished [`SpanRecord`] is
/// delivered to the sink. Spans from a disabled tracer are inert.
pub struct Span {
    inner: Option<Arc<Inner>>,
    token: usize,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

impl Span {
    /// Attaches a field (no-op on disabled spans).
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        if self.inner.is_some() {
            self.fields.push((key, value.into()));
        }
    }

    /// This span's id, for parenting cross-thread children. `None` when the
    /// tracer is disabled.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|_| self.id)
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Span")
            .field("name", &self.name)
            .field("id", &self.id)
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let (token, id) = (self.token, self.id);
        AMBIENT.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|&(t, i)| t == token && i == id) {
                stack.remove(pos);
            }
        });
        let end_ns = inner.clock.now_ns();
        inner
            .metrics
            .record_duration(self.name, end_ns.saturating_sub(self.start_ns));
        let record = SpanRecord {
            id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            fields: std::mem::take(&mut self.fields),
        };
        inner.sink.record_span(&record);
    }
}

/// Opens a span on a tracer, optionally recording fields:
///
/// ```
/// # use vaq_trace as trace;
/// # let tracer = trace::Tracer::disabled();
/// let _root = trace::span!(&tracer, "ingest");
/// let mut clip = trace::span!(&tracer, "ingest.clip", "clip" = 3u64);
/// clip.record("frames", 50u64);
/// ```
///
/// Engine entry points are required (by the `root-span` rule of
/// `cargo xtask check`) to open their root span through this macro.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr $(,)?) => {
        $tracer.span($name)
    };
    ($tracer:expr, $name:expr, $($key:literal = $value:expr),+ $(,)?) => {{
        let mut __vaq_span = $tracer.span($name);
        $( __vaq_span.record($key, $value); )+
        __vaq_span
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mock_tracer() -> (Tracer, MockClock, MemorySink) {
        let clock = MockClock::new();
        let sink = MemorySink::unbounded();
        let tracer = Tracer::new(clock.clone(), sink.clone());
        (tracer, clock, sink)
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let mut s = span!(&t, "x", "k" = 1u64);
        s.record("more", "y");
        assert_eq!(s.id(), None);
        drop(s);
        t.counter_add("c", 5);
        let summary = t.snapshot();
        assert!(summary.counters.is_empty() && summary.spans.is_empty());
    }

    #[test]
    fn spans_nest_ambiently_and_time_via_the_clock() {
        let (t, clock, sink) = mock_tracer();
        {
            let _root = span!(&t, "root");
            clock.advance(100);
            {
                let mut child = span!(&t, "child", "clip" = 7u64);
                clock.advance(50);
                child.record("late", true);
            }
            clock.advance(25);
        }
        let spans = sink.spans();
        // Children close (and are sunk) before parents.
        assert_eq!(spans.len(), 2);
        let child = &spans[0];
        let root = &spans[1];
        assert_eq!(child.name, "child");
        assert_eq!(root.name, "root");
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert_eq!((root.start_ns, root.end_ns), (0, 175));
        assert_eq!((child.start_ns, child.end_ns), (100, 150));
        assert_eq!(
            child.fields,
            vec![
                ("clip", FieldValue::U64(7)),
                ("late", FieldValue::Bool(true))
            ]
        );
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let (t, _clock, sink) = mock_tracer();
        {
            let _root = span!(&t, "root");
            for i in 0..3u64 {
                let _child = span!(&t, "child", "i" = i);
            }
        }
        let spans = sink.spans();
        let root_id = spans.last().unwrap().id;
        assert!(spans[..3].iter().all(|s| s.parent == Some(root_id)));
    }

    #[test]
    fn explicit_parent_supports_cross_thread_attribution() {
        let (t, _clock, sink) = mock_tracer();
        {
            let root = span!(&t, "ingest.parallel");
            let root_id = root.id();
            std::thread::scope(|scope| {
                for shard in 0..2u64 {
                    let t = t.clone();
                    scope.spawn(move || {
                        let _s = {
                            let mut s = t.span_with_parent("ingest.shard", root_id);
                            s.record("shard", shard);
                            s
                        };
                    });
                }
            });
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "ingest.parallel").unwrap();
        for s in spans.iter().filter(|s| s.name == "ingest.shard") {
            assert_eq!(s.parent, Some(root.id));
        }
    }

    #[test]
    fn two_tracers_on_one_thread_do_not_adopt_each_other() {
        let (t1, _c1, sink1) = mock_tracer();
        let (t2, _c2, sink2) = mock_tracer();
        {
            let _outer = span!(&t1, "outer");
            let _other = span!(&t2, "other"); // must be a root of t2
            let _inner = span!(&t1, "inner"); // must parent under "outer"
        }
        assert_eq!(sink2.spans()[0].parent, None);
        let spans1 = sink1.spans();
        let outer = spans1.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans1.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }

    #[test]
    fn out_of_order_drop_keeps_the_stack_consistent() {
        let (t, _clock, sink) = mock_tracer();
        {
            let a = span!(&t, "a");
            let b = span!(&t, "b");
            drop(a); // dropped before b: b must still pop itself cleanly
            let c = span!(&t, "c"); // ambient parent is b
            drop(c);
            drop(b);
        }
        let spans = sink.spans();
        let b = spans.iter().find(|s| s.name == "b").unwrap();
        let c = spans.iter().find(|s| s.name == "c").unwrap();
        assert_eq!(c.parent, Some(b.id));
        // Nothing is left on the ambient stack: a fresh span is a root.
        {
            let _fresh = span!(&t, "fresh");
        }
        assert_eq!(sink.spans().last().unwrap().parent, None);
    }

    #[test]
    fn every_finished_span_feeds_its_histogram() {
        let (t, clock, _sink) = mock_tracer();
        for _ in 0..4 {
            let _s = span!(&t, "stage");
            clock.advance(10);
        }
        t.counter_add("hits", 2);
        t.counter_add("hits", 3);
        let summary = t.snapshot();
        assert_eq!(summary.counters.get("hits"), Some(&5));
        let stage = summary.spans.get("stage").unwrap();
        assert_eq!(stage.count, 4);
        assert_eq!(stage.sum_ns, 40);
        // 10ns lands in bucket [8,16) => upper bound 15.
        assert_eq!(stage.p50_ns, 15);
    }

    #[test]
    fn span_ids_are_unique_across_threads() {
        let (t, _clock, sink) = mock_tracer();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let _s = span!(&t, "w");
                    }
                });
            }
        });
        let mut ids: Vec<u64> = sink.spans().iter().map(|s| s.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 200);
    }

    #[test]
    fn snapshot_is_deterministic_under_mock_clock() {
        let run = || {
            let (t, clock, sink) = mock_tracer();
            {
                let _root = span!(&t, "root", "n" = 2u64);
                for i in 0..2u64 {
                    let _c = span!(&t, "clip", "clip" = i);
                    clock.advance(5);
                }
            }
            t.counter_add("frames", 100);
            (t.snapshot().to_json(), render_tree(&sink.spans()))
        };
        assert_eq!(run(), run());
    }
}
