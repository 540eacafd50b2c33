//! Frame-granularity spans and their clip-level projections.
//!
//! Ground truth is annotated at frame granularity ("we label the temporal
//! boundaries of the appearances", paper §5.1); query evaluation happens at
//! clip granularity. [`FrameSpan`] is the annotation unit and
//! `spans_to_clip_set` projects a set of spans down to clips using a
//! coverage fraction: a clip counts as covered when at least
//! `coverage` of its frames fall inside some span (the paper's IOU-based
//! evaluation needs a definite clip-level ground truth; half-coverage is the
//! natural unbiased rounding).

use vaq_types::{ClipInterval, FrameId, SequenceSet, VideoGeometry};

/// A run of frames `[start, end)` — half-open, so `len = end − start` and
/// zero-length spans are representable (and rejected where meaningless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameSpan {
    /// First frame of the span.
    pub start: u64,
    /// One past the last frame of the span.
    pub end: u64,
}

vaq_types::json_record!(FrameSpan: start, end);

impl FrameSpan {
    /// Creates a span; panics if `start > end`.
    #[inline]
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "FrameSpan start {start} > end {end}");
        Self { start, end }
    }

    /// Number of frames in the span.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// Whether the span holds no frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether frame `f` lies inside the span.
    #[inline]
    pub fn contains(&self, f: FrameId) -> bool {
        self.start <= f.raw() && f.raw() < self.end
    }

    /// Overlap with another span, if non-empty.
    pub fn intersection(&self, other: &Self) -> Option<Self> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then(|| Self::new(start, end))
    }

    /// Number of overlapping frames.
    pub fn overlap_len(&self, other: &Self) -> u64 {
        self.intersection(other).map_or(0, |s| s.len())
    }
}

/// Sorts and merges overlapping/touching spans into a minimal disjoint list.
pub fn normalize_spans(mut spans: Vec<FrameSpan>) -> Vec<FrameSpan> {
    spans.retain(|s| !s.is_empty());
    spans.sort_unstable();
    let mut out: Vec<FrameSpan> = Vec::with_capacity(spans.len());
    for s in spans {
        match out.last_mut() {
            Some(last) if s.start <= last.end => last.end = last.end.max(s.end),
            _ => out.push(s),
        }
    }
    out
}

/// Frame-level intersection of two normalized span lists.
pub fn intersect_spans(a: &[FrameSpan], b: &[FrameSpan]) -> Vec<FrameSpan> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        if let Some(piece) = a[i].intersection(&b[j]) {
            out.push(piece);
        }
        if a[i].end <= b[j].end {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Total frames covered by a normalized span list.
pub fn total_frames(spans: &[FrameSpan]) -> u64 {
    spans.iter().map(FrameSpan::len).sum()
}

/// Projects normalized frame spans to the clip level: clip `c` is covered
/// when at least `coverage · frames_per_clip` of its frames lie inside the
/// spans. Adjacent covered clips merge into maximal sequences.
///
/// # Panics
/// Panics unless `0 < coverage ≤ 1`.
pub(crate) fn spans_to_clip_set(
    spans: &[FrameSpan],
    geometry: &VideoGeometry,
    num_frames: u64,
    coverage: f64,
) -> SequenceSet {
    assert!(
        coverage > 0.0 && coverage <= 1.0,
        "coverage {coverage} outside (0, 1]"
    );
    let fpc = geometry.frames_per_clip();
    let num_clips = geometry.num_clips(num_frames);
    let needed = (coverage * fpc as f64).ceil() as u64;
    let mut intervals: Vec<ClipInterval> = Vec::new();
    let mut open: Option<(u64, u64)> = None; // (start clip, last clip)
    for c in 0..num_clips {
        let clip_span = FrameSpan::new(c * fpc, (c + 1) * fpc);
        let covered: u64 = spans.iter().map(|s| s.overlap_len(&clip_span)).sum();
        if covered >= needed {
            open = match open {
                Some((s, _)) => Some((s, c)),
                None => Some((c, c)),
            };
        } else if let Some((s, e)) = open.take() {
            intervals.push(ClipInterval::new(s, e));
        }
    }
    if let Some((s, e)) = open {
        intervals.push(ClipInterval::new(s, e));
    }
    SequenceSet::from_intervals(intervals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::rng::{for_cases, SeededRng};
    use vaq_types::ClipInterval;

    const G: VideoGeometry = VideoGeometry::PAPER_DEFAULT; // 50 frames/clip

    #[test]
    fn span_basics() {
        let s = FrameSpan::new(10, 20);
        assert_eq!(s.len(), 10);
        assert!(s.contains(FrameId::new(10)));
        assert!(!s.contains(FrameId::new(20)));
        assert!(FrameSpan::new(5, 5).is_empty());
    }

    #[test]
    fn intersection_half_open() {
        let a = FrameSpan::new(0, 10);
        let b = FrameSpan::new(10, 20);
        assert_eq!(
            a.intersection(&b),
            None,
            "touching half-open spans are disjoint"
        );
        let c = FrameSpan::new(5, 15);
        assert_eq!(a.intersection(&c), Some(FrameSpan::new(5, 10)));
    }

    #[test]
    fn normalize_merges_and_drops_empty() {
        let out = normalize_spans(vec![
            FrameSpan::new(10, 20),
            FrameSpan::new(0, 10),
            FrameSpan::new(5, 5),
            FrameSpan::new(30, 40),
        ]);
        assert_eq!(out, vec![FrameSpan::new(0, 20), FrameSpan::new(30, 40)]);
    }

    #[test]
    fn intersect_spans_sweep() {
        let a = vec![FrameSpan::new(0, 100), FrameSpan::new(200, 300)];
        let b = vec![FrameSpan::new(50, 250)];
        assert_eq!(
            intersect_spans(&a, &b),
            vec![FrameSpan::new(50, 100), FrameSpan::new(200, 250)]
        );
    }

    #[test]
    fn clip_projection_respects_coverage() {
        // Span covers frames 0..75: clip 0 fully (50/50), clip 1 half (25/50).
        let spans = vec![FrameSpan::new(0, 75)];
        let half = spans_to_clip_set(&spans, &G, 200, 0.5);
        assert_eq!(half.intervals(), &[ClipInterval::new(0, 1)]);
        let strict = spans_to_clip_set(&spans, &G, 200, 0.6);
        assert_eq!(strict.intervals(), &[ClipInterval::new(0, 0)]);
    }

    #[test]
    fn clip_projection_merges_runs() {
        let spans = vec![FrameSpan::new(0, 50), FrameSpan::new(50, 100)];
        let set = spans_to_clip_set(&spans, &G, 200, 0.5);
        assert_eq!(set.intervals(), &[ClipInterval::new(0, 1)]);
    }

    #[test]
    fn clip_projection_drops_partial_tail_clip() {
        // 120 frames = 2 complete clips; span reaching into the partial tail
        // contributes nothing beyond clip 1.
        let spans = vec![FrameSpan::new(0, 120)];
        let set = spans_to_clip_set(&spans, &G, 120, 0.5);
        assert_eq!(set.intervals(), &[ClipInterval::new(0, 1)]);
    }

    /// Up to 9 spans, each starting below `max` and 1–199 frames long
    /// (clamped to `max`), normalized.
    fn draw_spans(r: &mut SeededRng, max: u64) -> Vec<FrameSpan> {
        let n = r.gen_range(0..10usize);
        let spans = (0..n)
            .map(|_| {
                let s = r.gen_range(0..max);
                let l = r.gen_range(1..200u64);
                FrameSpan::new(s, (s + l).min(max))
            })
            .collect();
        normalize_spans(spans)
    }

    #[test]
    fn prop_normalized_disjoint_sorted() -> Result<(), String> {
        for_cases(
            "prop_normalized_disjoint_sorted",
            256,
            |r| draw_spans(r, 2000),
            |spans| {
                for w in spans.windows(2) {
                    assert!(w[0].end < w[1].start);
                }
            },
        )
    }

    #[test]
    fn prop_intersection_commutes() -> Result<(), String> {
        for_cases(
            "prop_intersection_commutes",
            256,
            |r| (draw_spans(r, 1000), draw_spans(r, 1000)),
            |(a, b)| assert_eq!(intersect_spans(a, b), intersect_spans(b, a)),
        )
    }

    #[test]
    fn prop_intersection_frame_count_matches_naive() -> Result<(), String> {
        for_cases(
            "prop_intersection_frame_count_matches_naive",
            256,
            |r| (draw_spans(r, 500), draw_spans(r, 500)),
            |(a, b)| {
                let swept = total_frames(&intersect_spans(a, b));
                let naive = (0..500u64)
                    .filter(|&f| {
                        let fid = FrameId::new(f);
                        a.iter().any(|s| s.contains(fid)) && b.iter().any(|s| s.contains(fid))
                    })
                    .count() as u64;
                assert_eq!(swept, naive);
            },
        )
    }

    #[test]
    fn prop_projection_monotone_in_coverage() -> Result<(), String> {
        for_cases(
            "prop_projection_monotone_in_coverage",
            256,
            |r| draw_spans(r, 1000),
            |spans| {
                let loose = spans_to_clip_set(spans, &G, 1000, 0.2);
                let tight = spans_to_clip_set(spans, &G, 1000, 0.8);
                // Every clip covered at 0.8 is also covered at 0.2.
                for c in tight.clips() {
                    assert!(loose.contains(c));
                }
            },
        )
    }
}
