//! Differential testing against brute-force oracles.
//!
//! Each optimized decision procedure in the workspace is checked here
//! against an independent from-scratch reference implemented *in this
//! file* — not against the library's own helper of the same shape — so a
//! bug shared between an algorithm and its in-crate test double cannot
//! hide:
//!
//! * critical values: the binary search vs a linear scan, and vs
//!   thresholds pinned from the pre-row Naus evaluation on every quantized
//!   bucket of the default geometry's frame and shot windows;
//! * clip decisions: the full SVAQ engine vs a direct Naus evaluation
//!   (linear-scan critical values, no caches, no shared state);
//! * candidate intersection: the merge-sweep `SequenceSet::intersect` /
//!   `candidates` vs a naive O(n·m) membership scan;
//! * top-K: RVAQ's bound refinement (with and without the skip
//!   mechanism, traced and untraced) vs a full-sort oracle, and its
//!   rankings, access counts and iterations on a movie-shaped workload vs
//!   values pinned from the ordered-map TBClip.
//!
//! Random cases are driven by pinned-seed splitmix64 sweeps plus property
//! cases seeded by the test's name (`vaq::types::rng::for_cases`), so every
//! run covers the same fixed corpus.

use vaq::core::offline::candidates::candidates;
use vaq::core::offline::tbclip::QueryTables;
use vaq::core::{rvaq, rvaq_traced, OnlineConfig, OnlineEngine, PaperScoring, RvaqOptions};
use vaq::detect::{profiles, SimulatedActionRecognizer, SimulatedObjectDetector};
use vaq::scanstats::{
    critical_value, critical_value_checked, scan_prob, CriticalValueCache, ScanConfig,
};
use vaq::storage::{CostModel, MemTable, ScoreRow};
use vaq::trace::{MemorySink, MockClock, Tracer};
use vaq::types::rng::{for_cases, splitmix64, SeededRng};
use vaq::video::{SceneScriptBuilder, VideoStream};
use vaq::{ActionType, ClipId, ClipInterval, ObjectType, Query, SequenceSet, VideoGeometry};

fn o(i: u32) -> ObjectType {
    ObjectType::new(i)
}
fn a(i: u32) -> ActionType {
    ActionType::new(i)
}

// ---------------------------------------------------------------------------
// Oracle 1: critical values by linear scan (no binary search, no cache).
// ---------------------------------------------------------------------------

/// Smallest `k ∈ [1, w]` with `P(S_w ≥ k) ≤ α`, by scanning k upward —
/// the obviously-correct counterpart of the library's binary search.
/// Saturates at `w` exactly like `critical_value`.
fn critical_value_linear(cfg: &ScanConfig, p0: f64) -> u64 {
    for k in 1..=cfg.window {
        if scan_prob(k, cfg.window, cfg.horizon, p0) <= cfg.alpha {
            return k;
        }
    }
    cfg.window
}

#[test]
fn critical_value_binary_search_matches_linear_scan_grid() {
    for &w in &[2u64, 5, 13, 50] {
        for &mult in &[10u64, 200] {
            for &alpha in &[0.01, 0.05, 0.2] {
                for &p0 in &[1e-6, 1e-4, 1e-3, 1e-2, 0.05, 0.2, 0.9] {
                    let cfg = ScanConfig::new(w, w * mult, alpha).unwrap();
                    let want = critical_value_linear(&cfg, p0);
                    let got = critical_value(&cfg, p0);
                    assert_eq!(got, want, "w={w} N={} alpha={alpha} p0={p0}", w * mult);
                    // The checked variant errors exactly when even k=w is
                    // insignificant; otherwise it agrees with the oracle.
                    match critical_value_checked(&cfg, p0) {
                        Ok(k) => {
                            assert_eq!(k, want);
                            assert!(scan_prob(k, w, cfg.horizon, p0) <= alpha);
                        }
                        Err(_) => {
                            assert!(scan_prob(w, w, cfg.horizon, p0) > alpha);
                            assert_eq!(got, w, "clamped on saturation");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn prop_critical_value_matches_linear_scan() -> Result<(), String> {
    for_cases(
        "prop_critical_value_matches_linear_scan",
        64,
        |r| {
            let w = r.gen_range(2u64..60);
            let mult = r.gen_range(2u64..300);
            let alpha_m = r.gen_range(1u32..30);
            let p_exp = r.gen_range(1u32..6) as i32;
            (w, mult, alpha_m, p_exp, r.gen_range(1u64..99))
        },
        |&(w, mult, alpha_m, p_exp, p_m)| {
            let alpha = f64::from(alpha_m) / 100.0;
            let p0 = p_m as f64 * 10f64.powi(-p_exp) / 10.0;
            let cfg = ScanConfig::new(w, w * mult, alpha).unwrap();
            assert_eq!(critical_value(&cfg, p0), critical_value_linear(&cfg, p0));
        },
    )
}

/// `(k, first bucket)`: the smallest quantized `p0` at which `k_crit`
/// reaches `k`, for the default geometry's frame window (w = 50,
/// N = 10 000, α = 0.05). Recorded from the per-call Naus evaluation that
/// predates the binomial row; `k_crit` is monotone in `p0`, so these
/// thresholds pin it on every bucket.
const FRAME_THRESHOLDS: [(u64, f64); 50] = [
    (1, 1e-9),
    (2, 5.13e-6),
    (3, 3.28e-4),
    (4, 1.7e-3),
    (5, 4.36e-3),
    (6, 8.27e-3),
    (7, 1.33e-2),
    (8, 1.93e-2),
    (9, 2.62e-2),
    (10, 3.38e-2),
    (11, 4.22e-2),
    (12, 5.13e-2),
    (13, 6.09e-2),
    (14, 7.11e-2),
    (15, 8.18e-2),
    (16, 9.3e-2),
    (17, 1.05e-1),
    (18, 1.17e-1),
    (19, 1.3e-1),
    (20, 1.43e-1),
    (21, 1.56e-1),
    (22, 1.7e-1),
    (23, 1.85e-1),
    (24, 1.99e-1),
    (25, 2.14e-1),
    (26, 2.3e-1),
    (27, 2.45e-1),
    (28, 2.62e-1),
    (29, 2.78e-1),
    (30, 2.95e-1),
    (31, 3.13e-1),
    (32, 3.3e-1),
    (33, 3.49e-1),
    (34, 3.67e-1),
    (35, 3.86e-1),
    (36, 4.06e-1),
    (37, 4.26e-1),
    (38, 4.47e-1),
    (39, 4.68e-1),
    (40, 4.89e-1),
    (41, 5.12e-1),
    (42, 5.35e-1),
    (43, 5.59e-1),
    (44, 5.84e-1),
    (45, 6.1e-1),
    (46, 6.37e-1),
    (47, 6.65e-1),
    (48, 6.96e-1),
    (49, 7.29e-1),
    (50, 7.66e-1),
];

/// As [`FRAME_THRESHOLDS`], for the shot window (w = 5, N = 1 000,
/// α = 0.05).
const SHOT_THRESHOLDS: [(u64, f64); 5] = [
    (1, 1e-9),
    (2, 5.13e-5),
    (3, 3.63e-3),
    (4, 2.11e-2),
    (5, 6.22e-2),
];

/// Every probability `CriticalValueCache` can key on: three significant
/// digits `m · 10^(d−2)` for `m ∈ 100..=999` in each decade
/// `d ∈ −9..=−1`, plus `1.0` — 8101 buckets.
fn quantized_buckets() -> Vec<f64> {
    let mut buckets: Vec<f64> = (-9i32..=-1)
        .flat_map(|d| (100u32..=999).map(move |m| f64::from(m) / 10f64.powi(2 - d)))
        .collect();
    buckets.push(1.0);
    buckets
}

/// The step function the thresholds define.
fn pinned_k(thresholds: &[(u64, f64)], q: f64) -> u64 {
    thresholds
        .iter()
        .rev()
        .find(|&&(_, first)| q >= first)
        .map(|&(k, _)| k)
        .expect("the first threshold is the lowest bucket")
}

#[test]
fn critical_value_matches_pinned_thresholds_on_every_bucket() {
    let geometry = VideoGeometry::PAPER_DEFAULT;
    let cfg = OnlineConfig::svaq();
    let fpc = geometry.frames_per_clip();
    let spc = u64::from(geometry.shots_per_clip);
    let frame = ScanConfig::new(fpc, cfg.horizon_clips * fpc, cfg.alpha).unwrap();
    let shot = ScanConfig::new(spc, cfg.horizon_clips * spc, cfg.alpha).unwrap();
    assert_eq!(frame, ScanConfig::new(50, 10_000, 0.05).unwrap());
    assert_eq!(shot, ScanConfig::new(5, 1_000, 0.05).unwrap());

    let buckets = quantized_buckets();
    assert_eq!(buckets.len(), 8101);
    for &q in &buckets {
        let requantized = CriticalValueCache::quantize(q);
        assert_eq!(
            requantized.to_bits(),
            q.to_bits(),
            "bucket {q:e} is not a fixed point"
        );
    }
    for (scan, thresholds) in [(frame, &FRAME_THRESHOLDS[..]), (shot, &SHOT_THRESHOLDS[..])] {
        for &q in &buckets {
            assert_eq!(
                critical_value(&scan, q),
                pinned_k(thresholds, q),
                "w={} p0={q:e}",
                scan.window
            );
        }
        // NaN is off the grid: computed (saturating at w), never stored.
        let cache = CriticalValueCache::new(scan);
        assert_eq!(cache.get(f64::NAN), scan.window, "NaN saturates at w");
        assert!(cache.is_empty(), "NaN took a slot");
        // Probabilities between buckets, read first so that their misses
        // fill the slots: half a step below each bucket, the bucket's
        // neighbours one ulp away, and the mantissas that round up into
        // the next decade, `9.995·10^d`, with theirs.
        let edges = (-9i32..=-1).map(|d| 9.995 * 10f64.powi(d));
        for p in buckets.iter().copied().chain(edges) {
            // One unit of the third significant digit.
            let step = 10f64.powf(p.log10().floor() - 2.0);
            let (below, above) = (
                f64::from_bits(p.to_bits() - 1),
                f64::from_bits(p.to_bits() + 1),
            );
            for p in [p - 0.49 * step, below, above] {
                let want = pinned_k(thresholds, CriticalValueCache::quantize(p));
                assert_eq!(cache.get(p), want, "w={} get({p:e})", scan.window);
            }
        }
        // Every bucket now has a slot of its own, holding the step
        // function.
        for &q in &buckets {
            assert_eq!(
                cache.get(q),
                pinned_k(thresholds, q),
                "w={} get({q:e})",
                scan.window
            );
        }
        assert_eq!(cache.len(), buckets.len(), "w={}", scan.window);
    }
}

// ---------------------------------------------------------------------------
// Oracle 2: naive interval intersection by per-clip membership.
// ---------------------------------------------------------------------------

/// O(clips × intervals) membership-scan intersection — deliberately *not*
/// `SequenceSet::intersect_naive` (which shares this repo's authorship with
/// the sweep under test): build both indicator vectors the slow way, AND
/// them, and let `from_indicator` re-extract maximal runs.
fn membership_intersect(a: &SequenceSet, b: &SequenceSet, max_clip: u64) -> SequenceSet {
    let mut indicator = Vec::with_capacity(max_clip as usize + 1);
    for c in 0..=max_clip {
        let cid = ClipId::new(c);
        let in_a = a.intervals().iter().any(|iv| iv.contains(cid));
        let in_b = b.intervals().iter().any(|iv| iv.contains(cid));
        indicator.push(in_a && in_b);
    }
    SequenceSet::from_indicator(&indicator)
}

/// Highest clip id mentioned by any of the sets (0 when all empty).
fn max_clip_of(sets: &[&SequenceSet]) -> u64 {
    sets.iter()
        .flat_map(|s| s.intervals())
        .map(|iv| iv.end.raw())
        .max()
        .unwrap_or(0)
}

fn set_of(pairs: &[(u64, u64)]) -> SequenceSet {
    SequenceSet::from_intervals(
        pairs
            .iter()
            .map(|&(s, len)| ClipInterval::new(s, s + len))
            .collect(),
    )
}

/// `(start, length)` pairs of one side of an intersection case.
type Pairs<'a> = &'a [(u64, u64)];

#[test]
fn intersect_matches_membership_oracle_on_edge_cases() {
    let cases: &[(Pairs, Pairs)] = &[
        (&[], &[]),
        (&[(0, 5)], &[]),
        (&[(0, 5)], &[(6, 2)]),         // disjoint, adjacent boundary
        (&[(0, 5)], &[(5, 5)]),         // single-clip overlap at the seam
        (&[(0, 10)], &[(2, 3)]),        // containment
        (&[(0, 3), (5, 3)], &[(0, 9)]), // gap in a, b spans it
        (&[(0, 0), (2, 0), (4, 0)], &[(1, 2)]),
        (&[(3, 4), (10, 0)], &[(0, 20)]),
    ];
    for (pa, pb) in cases {
        let a = set_of(pa);
        let b = set_of(pb);
        let max = max_clip_of(&[&a, &b]);
        let want = membership_intersect(&a, &b, max);
        assert_eq!(a.intersect(&b), want, "a={a} b={b}");
        assert_eq!(b.intersect(&a), want, "commuted: a={a} b={b}");
    }
}

#[test]
fn intersect_matches_membership_oracle_pinned_sweep() {
    // 200 pinned-seed random cases; identical corpus on every run.
    for seed in 0..200u64 {
        let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xDA3E_39CB_94B9_5BDB;
        let gen_set = |state: &mut u64| {
            let n = (splitmix64(state) % 7) as usize;
            let pairs: Vec<(u64, u64)> = (0..n)
                .map(|_| (splitmix64(state) % 60, splitmix64(state) % 9))
                .collect();
            set_of(&pairs)
        };
        let a = gen_set(&mut s);
        let b = gen_set(&mut s);
        let c = gen_set(&mut s);
        let max = max_clip_of(&[&a, &b, &c]);
        assert_eq!(
            a.intersect(&b),
            membership_intersect(&a, &b, max),
            "seed={seed}"
        );
        // candidates() folds intersect over all predicate sequences; the
        // oracle folds the membership scan the same way.
        let want = membership_intersect(&membership_intersect(&a, &b, max), &c, max);
        assert_eq!(candidates(&a, &[&b, &c]), want, "seed={seed}");
    }
}

/// Up to 7 `(start, length)` pairs, starts below 80, lengths below 10.
fn draw_pairs(r: &mut SeededRng) -> Vec<(u64, u64)> {
    let n = r.gen_range(0..8usize);
    (0..n)
        .map(|_| (r.gen_range(0u64..80), r.gen_range(0u64..10)))
        .collect()
}

#[test]
fn prop_intersect_matches_membership_oracle() -> Result<(), String> {
    for_cases(
        "prop_intersect_matches_membership_oracle",
        128,
        |r| (draw_pairs(r), draw_pairs(r)),
        |(pa, pb)| {
            let a = set_of(pa);
            let b = set_of(pb);
            let max = max_clip_of(&[&a, &b]);
            let want = membership_intersect(&a, &b, max);
            assert_eq!(a.intersect(&b), want.clone());
            assert_eq!(b.intersect(&a), want);
        },
    )
}

// ---------------------------------------------------------------------------
// Oracle 3: SVAQ clip decisions by direct Naus evaluation.
// ---------------------------------------------------------------------------

/// Per-clip decision of one query, recomputed from scratch: raw model
/// calls, linear-scan critical values, Algorithm 2's short-circuit order —
/// no engine, no critical-value cache, no shared scratch.
struct DirectDecision {
    object_counts: Vec<u64>,
    object_indicators: Vec<bool>,
    action_count: Option<u64>,
    indicator: bool,
}

#[allow(clippy::too_many_arguments)]
fn direct_clip_decision(
    query: &Query,
    clip: &vaq::video::ClipView,
    det: &SimulatedObjectDetector,
    rec: &SimulatedActionRecognizer,
    cfg: &OnlineConfig,
    k_obj: u64,
    k_act: u64,
) -> DirectDecision {
    use vaq::detect::ActionRecognizer as _;
    use vaq::detect::ObjectDetector as _;
    let mut object_counts = Vec::new();
    let mut object_indicators = Vec::new();
    let mut all_pass = true;
    for &obj in &query.objects {
        let mut count = 0u64;
        for frame in clip.frames() {
            let hit = det
                .detect(&frame)
                .iter()
                .any(|d| d.object == obj && d.score >= cfg.t_obj);
            count += u64::from(hit);
        }
        let ind = count >= k_obj;
        all_pass &= ind;
        object_counts.push(count);
        object_indicators.push(ind);
    }
    if !all_pass {
        return DirectDecision {
            object_counts,
            object_indicators,
            action_count: None,
            indicator: false,
        };
    }
    let mut action_count = 0u64;
    for shot in clip.shots() {
        let hit = rec
            .recognize(&shot)
            .iter()
            .any(|p| p.action == query.action && p.score >= cfg.t_act);
        action_count += u64::from(hit);
    }
    DirectDecision {
        object_counts,
        object_indicators,
        action_count: Some(action_count),
        indicator: action_count >= k_act,
    }
}

/// Runs SVAQ end to end and replays every clip through the direct oracle:
/// per-clip counts, indicators, short-circuit visibility (`action_count`
/// presence) and the final merged sequences must all agree.
fn assert_svaq_matches_direct(det_seed: u64, rec_seed: u64, noisy: bool) {
    let geometry = VideoGeometry::PAPER_DEFAULT;
    let mut b = SceneScriptBuilder::new(1500, geometry);
    b.object_span(o(1), 200, 700).unwrap();
    b.object_span(o(2), 0, 1200).unwrap();
    b.action_span(a(0), 300, 900).unwrap();
    let script = b.build();

    let (op, ap) = if noisy {
        (profiles::mask_rcnn(), profiles::i3d())
    } else {
        (profiles::ideal_object(), profiles::ideal_action())
    };
    let det = SimulatedObjectDetector::new(op, 8, det_seed);
    let rec = SimulatedActionRecognizer::new(ap, 4, rec_seed);
    let query = Query::new(a(0), vec![o(1), o(2)]);
    let cfg = OnlineConfig::svaq();

    let engine = OnlineEngine::new(query.clone(), cfg, &geometry, &det, &rec).unwrap();
    let result = engine.run(VideoStream::new(&script));
    assert!(result.gaps.is_empty(), "clean models cannot produce gaps");

    // Oracle critical values: linear scan, straight from the config — the
    // engine's cached/binary-searched values must land on the same k.
    let fpc = geometry.frames_per_clip();
    let spc = u64::from(geometry.shots_per_clip);
    let obj_scan = ScanConfig::new(fpc, cfg.horizon_clips * fpc, cfg.alpha).unwrap();
    let act_scan = ScanConfig::new(spc, cfg.horizon_clips * spc, cfg.alpha).unwrap();
    let k_obj = critical_value_linear(&obj_scan, cfg.p0_obj);
    let k_act = critical_value_linear(&act_scan, cfg.p0_act);

    let stream = VideoStream::new(&script);
    let mut oracle_indicators = Vec::new();
    for (cid, record) in result.records.iter().enumerate() {
        let clip = stream.materialize(ClipId::new(cid as u64));
        let want = direct_clip_decision(&query, &clip, &det, &rec, &cfg, k_obj, k_act);
        let at = format!("clip {cid} (seeds {det_seed}/{rec_seed}, noisy={noisy})");
        assert_eq!(
            record.object_counts, want.object_counts,
            "{at}: object_counts"
        );
        assert_eq!(
            record.object_indicators, want.object_indicators,
            "{at}: object_indicators"
        );
        assert_eq!(record.action_count, want.action_count, "{at}: action_count");
        assert_eq!(record.indicator, want.indicator, "{at}: indicator");
        oracle_indicators.push(want.indicator);
    }
    assert_eq!(
        result.sequences,
        SequenceSet::from_indicator(&oracle_indicators),
        "merged sequences"
    );
}

#[test]
fn svaq_clip_decisions_match_direct_naus_ideal() {
    assert_svaq_matches_direct(1, 1, false);
}

#[test]
fn svaq_clip_decisions_match_direct_naus_noisy() {
    for &(ds, rs) in &[(42u64, 42u64), (7, 99), (1234, 5678)] {
        assert_svaq_matches_direct(ds, rs, true);
    }
}

// ---------------------------------------------------------------------------
// Oracle 4: top-K by full sort (Pq-Traverse semantics, no bounds).
// ---------------------------------------------------------------------------

/// Scores every candidate sequence directly and full-sorts — the
/// brute-force reference for RVAQ's bound refinement.
fn topk_full_sort(
    tables: &QueryTables<'_>,
    pq: &SequenceSet,
    k: usize,
) -> Vec<(ClipInterval, f64)> {
    let mut all: Vec<(ClipInterval, f64)> = pq
        .intervals()
        .iter()
        .map(|&iv| {
            let s: f64 = iv
                .clips()
                .map(|c| tables.clip_score(c, &PaperScoring))
                .sum();
            (iv, s)
        })
        .collect();
    all.sort_by(|x, y| y.1.total_cmp(&x.1));
    all.truncate(k);
    all
}

/// How [`random_workload`] numbers its clips.
#[derive(Debug, Clone, Copy)]
enum ClipIds {
    /// `0..clips`.
    Dense,
    /// Runs of [`SPARSE_RUN`] contiguous ids, [`SPARSE_GAP`] apart, and
    /// the last clip far beyond them at [`SPARSE_OUTLIER`]. No
    /// `dense_span` admits these ids (four slots per entry), so the
    /// tables' clip index and RVAQ's candidate index both keep their
    /// sorted, binary-searched form.
    Sparse,
}

const SPARSE_RUN: u64 = 8;
const SPARSE_GAP: u64 = 1 << 20;
const SPARSE_OUTLIER: u64 = 1 << 50;

impl ClipIds {
    /// The id of the workload's `c`-th clip of `clips`.
    fn id(self, c: u64, clips: u64) -> ClipId {
        ClipId::new(match self {
            ClipIds::Dense => c,
            ClipIds::Sparse if c + 1 == clips => SPARSE_OUTLIER,
            ClipIds::Sparse => c / SPARSE_RUN * SPARSE_GAP + c % SPARSE_RUN,
        })
    }
}

/// Builds a random workload: action/object score tables with a row for
/// each of `clips` clips, numbered as `ids` says, and a candidate set of
/// disjoint runs (a run the sparse numbering cuts is two sequences).
fn random_workload(state: &mut u64, clips: u64, ids: ClipIds) -> (MemTable, MemTable, SequenceSet) {
    let mut action = Vec::new();
    let mut object = Vec::new();
    for c in 0..clips {
        action.push(ScoreRow {
            clip: ids.id(c, clips),
            score: 0.1 + (splitmix64(state) % 100_000) as f64 / 1000.0,
        });
        object.push(ScoreRow {
            clip: ids.id(c, clips),
            score: 0.1 + (splitmix64(state) % 100_000) as f64 / 1000.0,
        });
    }
    let mut intervals = Vec::new();
    let mut next = 0u64;
    while next < clips {
        let len = 1 + splitmix64(state) % 6;
        let end = (next + len - 1).min(clips - 1);
        if splitmix64(state) % 4 != 0 {
            // One interval per clip: the set merges the touching ones.
            intervals.extend((next..=end).map(|c| {
                let id = ids.id(c, clips).raw();
                ClipInterval::new(id, id)
            }));
        }
        next = end + 2; // gap so runs stay maximal
    }
    (
        MemTable::new(action, CostModel::FREE),
        MemTable::new(object, CostModel::FREE),
        SequenceSet::from_intervals(intervals),
    )
}

/// Tie-robust comparison: the score vectors must match rank for rank, and
/// every returned interval must carry its own direct score (so a swap of
/// equal-scored intervals passes, a wrong interval or score does not).
fn assert_topk_matches(
    tables: &QueryTables<'_>,
    got: &[(ClipInterval, f64)],
    want: &[(ClipInterval, f64)],
    label: &str,
) {
    assert_eq!(got.len(), want.len(), "{label}: result count");
    for (rank, ((giv, gs), (_, ws))) in got.iter().zip(want).enumerate() {
        assert!(
            (gs - ws).abs() < 1e-9,
            "{label}: rank {rank} score {gs} vs oracle {ws}"
        );
        let direct: f64 = giv
            .clips()
            .map(|c| tables.clip_score(c, &PaperScoring))
            .sum();
        assert!(
            (gs - direct).abs() < 1e-9,
            "{label}: rank {rank} reported {gs} but {giv} scores {direct}"
        );
    }
}

#[test]
fn rvaq_matches_full_sort_oracle_pinned_sweep() {
    for (seed, ids) in (0..24u64).flat_map(|s| [(s, ClipIds::Dense), (s, ClipIds::Sparse)]) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC0FF_EE00_DEAD_BEEF;
        let (at, ot, pq) = random_workload(&mut s, 40 + seed % 40, ids);
        if pq.is_empty() {
            continue;
        }
        let tables = QueryTables {
            action: &at,
            objects: vec![&ot],
        };
        for k in [1usize, 2, pq.len()] {
            let want = topk_full_sort(&tables, &pq, k);
            let got = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(k));
            assert_topk_matches(
                &tables,
                &got.sequences,
                &want,
                &format!("seed={seed} {ids:?} k={k}"),
            );
            let noskip = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::no_skip(k));
            assert_topk_matches(
                &tables,
                &noskip.sequences,
                &want,
                &format!("noskip seed={seed} {ids:?} k={k}"),
            );
        }
    }
}

#[test]
fn traced_rvaq_is_bit_identical_and_accounts_iterations() {
    let mut s = 0xABCD_EF01_2345_6789u64;
    let (at, ot, pq) = random_workload(&mut s, 60, ClipIds::Dense);
    let tables = QueryTables {
        action: &at,
        objects: vec![&ot],
    };
    let plain = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(3));
    let sink = MemorySink::unbounded();
    let tracer = Tracer::new(MockClock::new(), sink.clone());
    let traced = rvaq_traced(&tables, &pq, &PaperScoring, &RvaqOptions::new(3), &tracer);
    assert_eq!(
        plain.sequences, traced.sequences,
        "tracing must not change results"
    );
    assert_eq!(plain.iterations, traced.iterations);
    let spans = sink.spans();
    let iteration_spans = spans.iter().filter(|r| r.name == "rvaq.iteration").count() as u64;
    assert_eq!(iteration_spans, traced.iterations, "one span per iteration");
    assert_eq!(
        tracer.snapshot().counters.get("rvaq.iterations"),
        Some(&traced.iterations)
    );
    assert!(spans.iter().any(|r| r.name == "rvaq"), "root span present");
}

#[test]
fn prop_rvaq_matches_full_sort_oracle() -> Result<(), String> {
    for_cases(
        "prop_rvaq_matches_full_sort_oracle",
        24,
        // Redrawn until the workload has a candidate sequence.
        |r| loop {
            let (seed, clips) = (r.gen_range(0u64..1 << 48), r.gen_range(10u64..90));
            let ids = if r.gen_bool(0.5) {
                ClipIds::Sparse
            } else {
                ClipIds::Dense
            };
            if !random_workload(&mut seed.clone(), clips, ids).2.is_empty() {
                break (seed, clips, ids);
            }
        },
        |&(seed, clips, ids)| {
            let mut s = seed;
            let (at, ot, pq) = random_workload(&mut s, clips, ids);
            let tables = QueryTables {
                action: &at,
                objects: vec![&ot],
            };
            let k = 1 + (seed as usize) % pq.len();
            let want = topk_full_sort(&tables, &pq, k);
            for opts in [RvaqOptions::new(k), RvaqOptions::no_skip(k)] {
                let got = rvaq(&tables, &pq, &PaperScoring, &opts);
                assert_topk_matches(&tables, &got.sequences, &want, &format!("{opts:?}"));
            }
        },
    )
}

// ---------------------------------------------------------------------------
// Pinned top-K: RVAQ's rankings and access counts on a movie-shaped
// workload, recorded from the ordered-map TBClip (before dense slots and
// delivery heaps). Any change to delivery order, tie-breaking, skip
// handling or score completion moves at least one of these numbers. The
// elided lookups count candidate clips only: a row outside `P_q` is never
// a lookup the skip mechanism excused, so RVAQ-noSkip elides none.
// ---------------------------------------------------------------------------

/// A movie-shaped workload, generated by raw splitmix64 draws (so the
/// pins do not depend on `SeededRng`'s range mappings): 4000 clips of background in which query
/// scenes of 4–40 clips recur. The action table and two object tables
/// hold strong, correlated rows inside scenes and sparse weak rows in the
/// background; about one scene clip in twenty misses an object row, and
/// scores sit on a 1/16 grid so ties occur. `P_q` is the scene set.
fn movie_workload(seed: u64) -> (Vec<MemTable>, SequenceSet) {
    const CLIPS: u64 = 4000;
    let mut s = seed;
    let mut unit = move || (splitmix64(&mut s) % 1_000_000) as f64 / 1_000_000.0;
    let grid = |x: f64| (x * 16.0).round() / 16.0;
    let mut rows: Vec<Vec<ScoreRow>> = vec![Vec::new(); 3];
    let mut scenes = Vec::new();
    let mut c = 0u64;
    while c < CLIPS {
        let gap = 5 + (unit() * 75.0) as u64;
        for clip in c..(c + gap).min(CLIPS) {
            let clip = ClipId::new(clip);
            if unit() < 0.3 {
                rows[0].push(ScoreRow {
                    clip,
                    score: grid(unit() * 3.0),
                });
            }
            for table in &mut rows[1..] {
                if unit() < 0.4 {
                    table.push(ScoreRow {
                        clip,
                        score: grid(unit() * 10.0),
                    });
                }
            }
        }
        c += gap;
        let len = 4 + (unit() * 36.0) as u64;
        if c + len > CLIPS {
            break;
        }
        let strength = 0.3 + 0.7 * unit();
        for clip in c..c + len {
            let clip = ClipId::new(clip);
            rows[0].push(ScoreRow {
                clip,
                score: grid(strength * (0.5 + 0.5 * unit()) * 24.0),
            });
            for table in &mut rows[1..] {
                if unit() >= 0.05 {
                    table.push(ScoreRow {
                        clip,
                        score: grid(strength * unit() * 30.0),
                    });
                }
            }
        }
        scenes.push(ClipInterval::new(c, c + len - 1));
        c += len;
    }
    let tables = rows
        .into_iter()
        .map(|r| MemTable::new(r, CostModel::FREE))
        .collect();
    (tables, SequenceSet::from_intervals(scenes))
}

/// FNV-1a over a ranking's intervals and score bits.
fn ranking_digest(ranking: &[(ClipInterval, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (iv, s) in ranking {
        for word in [iv.start.raw(), iv.end.raw(), s.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}

/// `(variant, K, iterations, sorted, reverse, random, elided, ranking
/// digest)` of one run.
type PinnedRun = (&'static str, usize, u64, u64, u64, u64, u64, u64);

/// Every run's [`PinnedRun`], recorded from the ordered-map TBClip
/// (`elided` since it bills candidate clips only).
const PINNED_MOVIE_TOPK: &[PinnedRun] = &[
    ("new", 1, 242, 5988, 6415, 2574, 200, 4529207719497550034),
    ("no_skip", 1, 639, 5070, 6204, 2664, 0, 4529207719497550034),
    (
        "planned",
        1,
        242,
        5988,
        6415,
        2574,
        200,
        4529207719497550034,
    ),
    ("new", 5, 292, 5346, 6327, 2630, 124, 7644530220652812994),
    ("no_skip", 5, 508, 4116, 5880, 2664, 0, 7644530220652812994),
    (
        "planned",
        5,
        282,
        5583,
        6383,
        2630,
        127,
        7644530220652812994,
    ),
    ("new", 15, 421, 5478, 6204, 2660, 50, 8452050436691084037),
    ("no_skip", 15, 569, 4548, 6033, 2664, 0, 8452050436691084037),
    (
        "planned",
        15,
        368,
        5457,
        6213,
        2660,
        57,
        8452050436691084037,
    ),
];

#[test]
fn rvaq_movie_topk_matches_pinned_runs() {
    let (tables, pq) = movie_workload(0x5EED_0FC0_FFEE);
    let qt = QueryTables {
        action: &tables[0],
        objects: vec![&tables[1], &tables[2]],
    };
    let mut got = Vec::new();
    for k in [1usize, 5, 15] {
        let variants = [
            ("new", RvaqOptions::new(k)),
            ("no_skip", RvaqOptions::no_skip(k)),
            ("planned", RvaqOptions::planned(k)),
        ];
        let want = topk_full_sort(&qt, &pq, k);
        for (name, opts) in variants {
            let r = rvaq(&qt, &pq, &PaperScoring, &opts);
            assert_topk_matches(&qt, &r.sequences, &want, &format!("{name} K={k}"));
            let s = r.stats;
            got.push((
                name,
                k,
                r.iterations,
                s.sorted,
                s.reverse,
                s.random,
                s.elided,
                ranking_digest(&r.sequences),
            ));
        }
    }
    let rendered: Vec<String> = got.iter().map(|g| format!("{g:?}")).collect();
    assert_eq!(
        got.as_slice(),
        PINNED_MOVIE_TOPK,
        "pinned runs moved; now:\n{}",
        rendered.join(",\n")
    );
}
