//! Span sinks: where finished spans go.
//!
//! * [`NullSink`] — discards everything; used to measure tracing overhead
//!   and as the default for latency-only telemetry (counters/histograms
//!   still accumulate in the tracer).
//! * [`MemorySink`] — bounded ring buffer for tests and golden traces.
//! * [`JsonLinesSink`] — one canonical JSON object per line, for
//!   `vaq-cli --trace <path>`.
//!
//! Sink contract: `record_span` must be cheap, thread-safe and must never
//! panic — a sink failure (e.g. a full disk under [`JsonLinesSink`]) is
//! counted and otherwise ignored, because telemetry must not take down the
//! query path it observes.

use crate::record::SpanRecord;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Receives finished spans. Implementations must be thread-safe and
/// panic-free.
pub trait Sink: Send + Sync {
    /// Accepts one finished span.
    fn record_span(&self, span: &SpanRecord);

    /// Flushes any buffered output (best-effort; default no-op).
    fn flush(&self) {}
}

/// A shared sink: the caller keeps a handle (to read a sink's own
/// counters, such as [`JsonLinesSink::write_errors`]) while the tracer owns
/// another.
impl<S: Sink + ?Sized> Sink for Arc<S> {
    fn record_span(&self, span: &SpanRecord) {
        (**self).record_span(span);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

/// Discards all spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn record_span(&self, _span: &SpanRecord) {}
}

#[derive(Debug, Default)]
struct MemoryInner {
    spans: Mutex<VecDeque<SpanRecord>>,
    dropped: AtomicU64,
}

/// A bounded in-memory ring buffer of spans. Cloning yields a handle onto
/// the same buffer, so tests keep one handle while the tracer owns another.
#[derive(Debug, Clone)]
pub struct MemorySink {
    inner: Arc<MemoryInner>,
    capacity: usize,
}

impl MemorySink {
    /// Creates a ring buffer holding at most `capacity` spans (oldest
    /// evicted first; evictions are counted in [`Self::dropped`]).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::default(),
            capacity: capacity.max(1),
        }
    }

    /// A ring buffer that never evicts in practice.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Snapshot of the buffered spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .cloned()
            .collect()
    }

    /// Buffered span count.
    pub fn len(&self) -> usize {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Spans evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Clears the buffer (eviction counter is preserved).
    pub fn clear(&self) {
        self.inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Sink for MemorySink {
    fn record_span(&self, span: &SpanRecord) {
        let mut spans = self
            .inner
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if spans.len() >= self.capacity {
            spans.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        spans.push_back(span.clone());
    }
}

/// Appends one canonical JSON object per finished span to a file.
#[derive(Debug)]
pub struct JsonLinesSink {
    out: Mutex<BufWriter<File>>,
    write_errors: AtomicU64,
}

impl JsonLinesSink {
    /// Creates (truncates) the output file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            out: Mutex::new(BufWriter::new(File::create(path)?)),
            write_errors: AtomicU64::new(0),
        })
    }

    /// I/O failures swallowed so far (the sink contract forbids panicking
    /// in the query path; callers may surface this at shutdown).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed)
    }
}

impl Sink for JsonLinesSink {
    fn record_span(&self, span: &SpanRecord) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if writeln!(out, "{}", span.to_json()).is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush(&self) {
        let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
        if out.flush().is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::FieldValue;

    fn rec(id: u64, name: &'static str) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            name,
            start_ns: id * 10,
            end_ns: id * 10 + 5,
            fields: vec![("clip", FieldValue::from(id))],
        }
    }

    #[test]
    fn memory_sink_is_a_ring_buffer() {
        let sink = MemorySink::new(3);
        for i in 1..=5 {
            sink.record_span(&rec(i, "s"));
        }
        assert_eq!(sink.len(), 3);
        assert_eq!(sink.dropped(), 2);
        let ids: Vec<u64> = sink.spans().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![3, 4, 5]);
    }

    #[test]
    fn memory_sink_clones_share_the_buffer() {
        let a = MemorySink::unbounded();
        let b = a.clone();
        a.record_span(&rec(1, "s"));
        assert_eq!(b.len(), 1);
        b.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_span() {
        let dir = std::env::temp_dir().join(format!("vaq-trace-sink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        {
            let sink = JsonLinesSink::create(&path).unwrap();
            sink.record_span(&rec(1, "a"));
            sink.record_span(&rec(2, "b"));
            assert_eq!(sink.write_errors(), 0);
        } // drop flushes
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,"));
        assert!(lines[1].contains("\"name\":\"b\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
