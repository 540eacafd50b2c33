//! The ingestion phase — paper §4.2.
//!
//! Queries are unknown at ingestion time, so the video is processed once for
//! *every* object type and action type the deployed models support:
//!
//! 1. **Clip score tables.** For each type `x` and each clip `c`, the score
//!    `S_x(c) = h(all detection scores of x in c)` is computed — for objects
//!    over frames × tracked instances (`S_{o_i}^t(v)`), for actions over
//!    shots — and materialized into `table_x : {cid, Score}` ordered by
//!    score. Clips with no detections of a type are omitted (score 0).
//! 2. **Individual sequences.** Per type, positive clips are determined
//!    exactly as SVAQD would (per-type background-rate estimator + critical
//!    value; Eqs. 1–2) and merged into the maximal runs `P_{o_i}` / `P_{a_j}`.
//!
//! The output can be kept in memory ([`IngestOutput::mem_tables`]) or
//! written as a [`vaq_storage::VideoCatalog`]
//! ([`IngestOutput::write_catalog`]).

use crate::config::{OnlineConfig, ParameterPolicy};
use crate::online::SharedScanCaches;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use trace::Tracer;
use vaq_detect::{ActionRecognizer, InferenceStats, IouTracker, ObjectDetector};
use vaq_scanstats::{BackgroundRateEstimator, CriticalValueCache};
use vaq_storage::{CatalogManifest, CostModel, MemTable, ScoreRow, TableKey};
use vaq_types::{conv, ActionType, ClipId, ObjectType, Result, SequenceSet};
use vaq_video::{SceneScript, VideoStream};

/// Per-type state threaded through the clip scan.
struct TypeState {
    estimator: Option<BackgroundRateEstimator>,
    k_crit: u64,
    rows: Vec<ScoreRow>,
    indicator: Vec<bool>,
    /// Censor-dilation buffer: (OUs, events) of the last below-threshold
    /// clip, awaiting confirmation that its successor is also below.
    pending: Option<(u64, u64)>,
    pending_ok: bool,
    prev_below: bool,
}

impl TypeState {
    fn new(
        policy: &ParameterPolicy,
        p0: f64,
        bandwidth_ou: f64,
        cache: &CriticalValueCache,
    ) -> Result<Self> {
        let estimator = match policy {
            ParameterPolicy::Static => None,
            // Seed-only prior weight; see `online::engine` for rationale.
            ParameterPolicy::Dynamic { .. } => Some(BackgroundRateEstimator::with_prior_weight(
                bandwidth_ou,
                p0,
                bandwidth_ou * 0.2,
            )?),
        };
        Ok(Self {
            estimator,
            k_crit: cache.get(p0),
            rows: Vec::new(),
            indicator: Vec::new(),
            pending: None,
            pending_ok: false,
            prev_below: false,
        })
    }

    fn absorb_clip(
        &mut self,
        clip: ClipId,
        score: f64,
        positives: u64,
        ou_per_clip: u64,
        cache: &CriticalValueCache,
    ) {
        let positive_clip = positives >= self.k_crit;
        self.indicator.push(positive_clip);
        if score > 0.0 {
            self.rows.push(ScoreRow { clip, score });
        }
        // Background estimation censors clips whose event count reaches
        // clamp(k_crit, 2, ⌈w/2⌉), with one-clip dilation on both sides —
        // §3.2: the background probability is the prediction rate when the
        // predicate is NOT satisfied. See the detailed reasoning in
        // `online::engine` (same rule, same rationale).
        let censor = self.k_crit.max(2).min(ou_per_clip.div_ceil(2)).max(2);
        let below = positives < censor;
        if below {
            if let Some((n, m)) = self.pending.take() {
                if self.pending_ok {
                    if let Some(est) = &mut self.estimator {
                        est.observe_block_uniform(n, m);
                        self.k_crit = cache.get(est.estimate());
                    }
                }
            }
            self.pending = Some((ou_per_clip, positives.min(ou_per_clip)));
            self.pending_ok = self.prev_below;
        } else {
            self.pending = None;
        }
        self.prev_below = below;
    }
}

/// The materialized ingestion result for one video.
pub struct IngestOutput {
    /// Video name (catalog identity).
    pub name: String,
    /// Frames processed.
    pub num_frames: u64,
    /// Geometry used.
    pub geometry: vaq_types::VideoGeometry,
    /// Per-object-type score rows (non-zero clips only).
    pub object_rows: BTreeMap<ObjectType, Vec<ScoreRow>>,
    /// Per-action-type score rows.
    pub action_rows: BTreeMap<ActionType, Vec<ScoreRow>>,
    /// Per-object-type individual sequences `P_{o_i}`.
    pub object_sequences: BTreeMap<ObjectType, SequenceSet>,
    /// Per-action-type individual sequences `P_{a_j}`.
    pub action_sequences: BTreeMap<ActionType, SequenceSet>,
    /// Inference cost of the ingestion pass.
    pub stats: InferenceStats,
}

impl IngestOutput {
    /// Builds in-memory tables for the queried types.
    pub fn mem_tables(
        &self,
        cost: CostModel,
    ) -> (
        BTreeMap<ObjectType, MemTable>,
        BTreeMap<ActionType, MemTable>,
    ) {
        let objects = self
            .object_rows
            .iter()
            .map(|(&o, rows)| (o, MemTable::new(rows.clone(), cost)))
            .collect();
        let actions = self
            .action_rows
            .iter()
            .map(|(&a, rows)| (a, MemTable::new(rows.clone(), cost)))
            .collect();
        (objects, actions)
    }

    /// Writes the output as an on-disk catalog.
    pub fn write_catalog(&self, dir: &Path) -> Result<CatalogManifest> {
        let mut writer = vaq_storage::catalog::CatalogWriter::create(
            dir,
            self.name.clone(),
            self.geometry,
            self.num_frames,
        )?;
        for (&o, rows) in &self.object_rows {
            writer.add(
                TableKey::Object(o),
                rows.clone(),
                &self.object_sequences[&o],
            )?;
        }
        for (&a, rows) in &self.action_rows {
            writer.add(
                TableKey::Action(a),
                rows.clone(),
                &self.action_sequences[&a],
            )?;
        }
        writer.finish()
    }
}

/// Everything one clip contributes to the sequential merge phase: the
/// per-type accumulator values, sparse over the types actually seen.
struct ClipAccum {
    clip: ClipId,
    frames: u64,
    shots: u64,
    /// `(type index, h-combined score, positive OUs)`, ascending by index.
    obj: Vec<(usize, f64, u64)>,
    act: Vec<(usize, f64, u64)>,
}

/// Model pass over a contiguous range of clips — the embarrassingly
/// parallel half of ingestion. Pure per-clip work: no estimator feedback,
/// no critical values, so disjoint ranges can run on different threads.
///
/// The tracker is per-range: track identifiers then differ across shard
/// boundaries, but ingestion aggregates `detection.score` per *type* and
/// never reads the identifiers ([`IouTracker::update`] returns each input
/// detection unchanged, only annotated), so the accumulators are
/// unaffected. The parallel-determinism test enforces this.
#[allow(clippy::too_many_arguments)]
fn scan_clips(
    script: &SceneScript,
    clips: Range<u64>,
    detector: &dyn ObjectDetector,
    recognizer: &dyn ActionRecognizer,
    tracker: &mut IouTracker,
    config: &OnlineConfig,
    obj_universe: usize,
    act_universe: usize,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Vec<ClipAccum> {
    // Shard span: explicit parent because shards may run on worker threads
    // where the root span is not ambient. Tracing never touches the score
    // accumulators, so the bit-identity contract with the serial path holds
    // with tracing on or off (the overhead guard test enforces this).
    let mut shard_span = tracer.span_with_parent("ingest.shard", parent);
    shard_span.record("clip_start", clips.start);
    shard_span.record("clip_end", clips.end);
    let shard_parent = shard_span.id();
    let stream = VideoStream::new(script);
    let mut out = Vec::with_capacity(conv::capacity_hint(clips.end.saturating_sub(clips.start)));
    // Scratch: per-type accumulators for the current clip, plus a touched
    // list so clearing is O(touched) rather than O(universe).
    let mut obj_score_acc = vec![0.0f64; obj_universe];
    let mut obj_pos_acc = vec![0u64; obj_universe];
    let mut obj_touched: Vec<usize> = Vec::new();
    let mut frame_max = vec![0.0f64; obj_universe];
    let mut frame_touched: Vec<usize> = Vec::new();
    let mut act_score_acc = vec![0.0f64; act_universe];
    let mut act_pos_acc = vec![0u64; act_universe];
    let mut act_touched: Vec<usize> = Vec::new();

    for cid in clips {
        let clip = stream.materialize(ClipId::new(cid));
        let mut clip_span = tracer.span_with_parent("ingest.clip", shard_parent);
        clip_span.record("clip", cid);
        // --- objects: detect + track every frame, accumulate per type.
        for frame in clip.frames() {
            let detections = detector.detect(&frame);
            let tracked = tracker.update(frame.id, &detections);
            for td in &tracked {
                let ti = td.detection.object.index();
                if ti >= obj_universe {
                    continue;
                }
                if obj_score_acc[ti] == 0.0 && obj_pos_acc[ti] == 0 {
                    obj_touched.push(ti);
                }
                // h is additive over S_{o_i}^t(v) in the paper's sample
                // scoring; tables store the h-combined clip score.
                obj_score_acc[ti] += td.detection.score;
                if frame_max[ti] == 0.0 {
                    frame_touched.push(ti);
                }
                if td.detection.score > frame_max[ti] {
                    frame_max[ti] = td.detection.score;
                }
            }
            for &ti in &frame_touched {
                if frame_max[ti] >= config.t_obj {
                    if obj_pos_acc[ti] == 0 && obj_score_acc[ti] == 0.0 {
                        obj_touched.push(ti);
                    }
                    obj_pos_acc[ti] += 1;
                }
                frame_max[ti] = 0.0;
            }
            frame_touched.clear();
        }
        obj_touched.sort_unstable();
        obj_touched.dedup();
        let obj = obj_touched
            .iter()
            .map(|&ti| (ti, obj_score_acc[ti], obj_pos_acc[ti]))
            .collect();
        for &ti in &obj_touched {
            obj_score_acc[ti] = 0.0;
            obj_pos_acc[ti] = 0;
        }
        obj_touched.clear();

        // --- actions: recognize every shot.
        for shot in clip.shots() {
            for pred in recognizer.recognize(&shot) {
                let ai = pred.action.index();
                if ai >= act_universe {
                    continue;
                }
                if act_score_acc[ai] == 0.0 && act_pos_acc[ai] == 0 {
                    act_touched.push(ai);
                }
                act_score_acc[ai] += pred.score;
                if pred.score >= config.t_act {
                    act_pos_acc[ai] += 1;
                }
            }
        }
        act_touched.sort_unstable();
        act_touched.dedup();
        let act = act_touched
            .iter()
            .map(|&ai| (ai, act_score_acc[ai], act_pos_acc[ai]))
            .collect();
        for &ai in &act_touched {
            act_score_acc[ai] = 0.0;
            act_pos_acc[ai] = 0;
        }
        act_touched.clear();

        let num_frames = conv::len_u64(clip.num_frames());
        let num_shots = conv::len_u64(clip.num_shots());
        clip_span.record("frames", num_frames);
        clip_span.record("shots", num_shots);
        tracer.counter_add("ingest.frames", num_frames);
        tracer.counter_add("ingest.shots", num_shots);
        out.push(ClipAccum {
            clip: clip.id,
            frames: num_frames,
            shots: num_shots,
            obj,
            act,
        });
    }
    out
}

/// The sequential merge phase: feeds per-clip accumulators, **in clip
/// order**, through the per-type estimator/critical-value pipeline. This is
/// the order-sensitive half of ingestion and always runs single-threaded —
/// which is what makes the parallel scan deterministic: the estimators see
/// exactly the value sequence the serial pass produces.
#[allow(clippy::too_many_arguments)]
fn assemble(
    name: String,
    script: &SceneScript,
    config: &OnlineConfig,
    obj_universe: usize,
    act_universe: usize,
    latency_ms: (f64, f64, f64),
    accums: Vec<ClipAccum>,
    tracer: &Tracer,
    parent: Option<u64>,
) -> Result<IngestOutput> {
    let mut merge_span = tracer.span_with_parent("ingest.assemble", parent);
    let num_clips = conv::len_u64(accums.len());
    merge_span.record("clips", num_clips);
    tracer.counter_add("ingest.clips", num_clips);
    let geometry = *script.geometry();
    let fpc = geometry.frames_per_clip();
    let spc = geometry.shots_in_clip();
    let (detector_ms, recognizer_ms, tracker_ms) = latency_ms;

    let SharedScanCaches {
        obj: obj_cache,
        act: act_cache,
    } = SharedScanCaches::new(config, &geometry)?;
    let (bw_frames, bw_shots) = match config.policy {
        ParameterPolicy::Static => (1.0, 1.0),
        ParameterPolicy::Dynamic {
            bandwidth_clips, ..
        } => (bandwidth_clips * fpc as f64, bandwidth_clips * spc as f64),
    };

    let mut obj_states: Vec<TypeState> = (0..obj_universe)
        .map(|_| TypeState::new(&config.policy, config.p0_obj, bw_frames, &obj_cache))
        .collect::<Result<_>>()?;
    let mut act_states: Vec<TypeState> = (0..act_universe)
        .map(|_| TypeState::new(&config.policy, config.p0_act, bw_shots, &act_cache))
        .collect::<Result<_>>()?;

    let mut stats = InferenceStats::default();
    for accum in &accums {
        stats.record_detector(accum.frames, detector_ms);
        stats.record_tracker(accum.frames, tracker_ms);
        let mut touched = accum.obj.iter().peekable();
        for (ti, state) in obj_states.iter_mut().enumerate() {
            let (score, pos) = match touched.peek() {
                Some(&&(i, s, p)) if i == ti => {
                    touched.next();
                    (s, p)
                }
                _ => (0.0, 0),
            };
            state.absorb_clip(accum.clip, score, pos, fpc, &obj_cache);
        }

        stats.record_recognizer(accum.shots, recognizer_ms);
        let mut touched = accum.act.iter().peekable();
        for (ai, state) in act_states.iter_mut().enumerate() {
            let (score, pos) = match touched.peek() {
                Some(&&(i, s, p)) if i == ai => {
                    touched.next();
                    (s, p)
                }
                _ => (0.0, 0),
            };
            state.absorb_clip(accum.clip, score, pos, spc, &act_cache);
        }
    }

    let object_rows: BTreeMap<ObjectType, Vec<ScoreRow>> = obj_states
        .iter_mut()
        .enumerate()
        .map(|(ti, s)| (ObjectType::from_index(ti), std::mem::take(&mut s.rows)))
        .collect();
    let object_sequences = obj_states
        .iter()
        .enumerate()
        .map(|(ti, s)| {
            (
                ObjectType::from_index(ti),
                SequenceSet::from_indicator(&s.indicator),
            )
        })
        .collect();
    let action_rows: BTreeMap<ActionType, Vec<ScoreRow>> = act_states
        .iter_mut()
        .enumerate()
        .map(|(ai, s)| (ActionType::from_index(ai), std::mem::take(&mut s.rows)))
        .collect();
    let action_sequences = act_states
        .iter()
        .enumerate()
        .map(|(ai, s)| {
            (
                ActionType::from_index(ai),
                SequenceSet::from_indicator(&s.indicator),
            )
        })
        .collect();

    Ok(IngestOutput {
        name,
        num_frames: script.num_frames(),
        geometry,
        object_rows,
        action_rows,
        object_sequences,
        action_sequences,
        stats,
    })
}

/// Runs the ingestion phase over one scripted video.
///
/// `config` supplies thresholds, the scan-statistics parameters and the
/// background-rate policy (SVAQD-style dynamic estimation per §4.2's
/// "Utilizing algorithm SVAQD … we determine the positive clips").
pub fn ingest(
    script: &SceneScript,
    name: impl Into<String>,
    detector: &dyn ObjectDetector,
    recognizer: &dyn ActionRecognizer,
    tracker: &mut IouTracker,
    config: &OnlineConfig,
) -> Result<IngestOutput> {
    ingest_traced(
        script,
        name,
        detector,
        recognizer,
        tracker,
        config,
        &Tracer::disabled(),
    )
}

/// [`ingest`] with tracing: opens the `ingest` root span, one `ingest.shard`
/// span for the (single) scan range with nested `ingest.clip` spans, and an
/// `ingest.assemble` span for the sequential merge. Structural counters
/// `ingest.frames` / `ingest.shots` / `ingest.clips` are recorded as well.
/// Tracing is strictly observational: the output is bit-identical to the
/// untraced path.
#[allow(clippy::too_many_arguments)]
pub fn ingest_traced(
    script: &SceneScript,
    name: impl Into<String>,
    detector: &dyn ObjectDetector,
    recognizer: &dyn ActionRecognizer,
    tracker: &mut IouTracker,
    config: &OnlineConfig,
    tracer: &Tracer,
) -> Result<IngestOutput> {
    config.validate()?;
    let root = trace::span!(tracer, "ingest", "clips" = script.num_clips());
    let obj_universe = conv::usize_of(detector.universe());
    let act_universe = conv::usize_of(recognizer.universe());
    let latency = (
        detector.latency_ms(),
        recognizer.latency_ms(),
        tracker.latency_ms(),
    );
    let accums = scan_clips(
        script,
        0..script.num_clips(),
        detector,
        recognizer,
        tracker,
        config,
        obj_universe,
        act_universe,
        tracer,
        root.id(),
    );
    assemble(
        name.into(),
        script,
        config,
        obj_universe,
        act_universe,
        latency,
        accums,
        tracer,
        root.id(),
    )
}

/// Parallel ingestion: shards the clip stream into contiguous ranges, scans
/// each range on its own thread, then merges the per-clip accumulators in
/// clip order through the (single-threaded) estimator pipeline.
///
/// **Determinism contract:** the output is bit-identical to [`ingest`] for
/// any `threads >= 1`. Two properties make this hold: (a) per-clip
/// floating-point accumulation happens inside `scan_clips` in the same
/// frame/shot order regardless of which thread owns the clip, and (b) all
/// order-sensitive state — background-rate estimators, evolving critical
/// values, inference-cost sums — is updated only in the ordered merge
/// phase. The parallel-determinism test compares every table, sequence and
/// stats field against the serial path at several thread counts.
///
/// `tracker` is a *prototype*: each shard clones it so per-shard tracking
/// state starts fresh at the shard boundary (see `scan_clips` for why the
/// accumulators do not depend on cross-shard track identity).
///
/// Each shard records its own `ingest.shard` span (explicitly parented
/// under the `ingest.parallel` root, since shards run on worker threads),
/// so per-shard cost is attributable. Span *ids* may interleave
/// differently across runs when `threads > 1`; the output tables do not.
#[allow(clippy::too_many_arguments)]
pub fn ingest_parallel_traced(
    script: &SceneScript,
    name: impl Into<String>,
    detector: &dyn ObjectDetector,
    recognizer: &dyn ActionRecognizer,
    tracker: &IouTracker,
    config: &OnlineConfig,
    threads: usize,
    tracer: &Tracer,
) -> Result<IngestOutput> {
    config.validate()?;
    let threads = conv::len_u64(threads.max(1));
    let root = trace::span!(
        tracer,
        "ingest.parallel",
        "clips" = script.num_clips(),
        "threads" = threads
    );
    let obj_universe = conv::usize_of(detector.universe());
    let act_universe = conv::usize_of(recognizer.universe());
    let latency = (
        detector.latency_ms(),
        recognizer.latency_ms(),
        tracker.latency_ms(),
    );

    let num_clips = script.num_clips();
    let chunk = num_clips.div_ceil(threads).max(1);
    let ranges: Vec<Range<u64>> = (0..threads)
        .map(|i| (i * chunk).min(num_clips)..((i + 1) * chunk).min(num_clips))
        .filter(|r| !r.is_empty())
        .collect();

    let root_id = root.id();
    let accums = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let mut shard_tracker = tracker.clone();
                scope.spawn(move || {
                    scan_clips(
                        script,
                        range,
                        detector,
                        recognizer,
                        &mut shard_tracker,
                        config,
                        obj_universe,
                        act_universe,
                        tracer,
                        root_id,
                    )
                })
            })
            .collect();
        // Shards cover 0..num_clips contiguously in spawn order, so
        // flattening joined results yields accumulators in clip order.
        let mut accums = Vec::with_capacity(conv::capacity_hint(num_clips));
        for handle in handles {
            accums.extend(
                handle
                    .join()
                    .unwrap_or_else(|e| std::panic::resume_unwind(e)),
            );
        }
        accums
    });

    assemble(
        name.into(),
        script,
        config,
        obj_universe,
        act_universe,
        latency,
        accums,
        tracer,
        root_id,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_detect::profiles;
    use vaq_detect::{SimulatedActionRecognizer, SimulatedObjectDetector};
    use vaq_types::{ClipInterval, Query, VideoGeometry};
    use vaq_video::SceneScriptBuilder;

    fn o(i: u32) -> ObjectType {
        ObjectType::new(i)
    }
    fn a(i: u32) -> ActionType {
        ActionType::new(i)
    }

    fn script() -> SceneScript {
        let mut b = SceneScriptBuilder::new(1000, VideoGeometry::PAPER_DEFAULT);
        b.object_span(o(1), 100, 600).unwrap();
        b.object_span(o(2), 0, 1000).unwrap();
        b.action_span(a(0), 250, 750).unwrap();
        b.build()
    }

    fn ideal_ingest(script: &SceneScript) -> IngestOutput {
        let det = SimulatedObjectDetector::new(profiles::ideal_object(), 8, 1);
        let rec = SimulatedActionRecognizer::new(profiles::ideal_action(), 4, 1);
        let mut tracker = IouTracker::new(profiles::ideal_tracker(), 1);
        ingest(
            script,
            "test",
            &det,
            &rec,
            &mut tracker,
            &OnlineConfig::svaqd(),
        )
        .unwrap()
    }

    #[test]
    fn ideal_ingestion_matches_ground_truth_sequences() {
        let s = script();
        let out = ideal_ingest(&s);
        // o1 visible frames 100..600 → clips 2..11.
        assert_eq!(
            out.object_sequences[&o(1)].intervals(),
            &[ClipInterval::new(2, 11)]
        );
        assert_eq!(
            out.object_sequences[&o(2)].intervals(),
            &[ClipInterval::new(0, 19)]
        );
        // action frames 250..750 → clips 5..14.
        assert_eq!(
            out.action_sequences[&a(0)].intervals(),
            &[ClipInterval::new(5, 14)]
        );
        // Types never present have no sequences and no rows.
        assert!(out.object_sequences[&o(5)].is_empty());
        assert!(out.object_rows[&o(5)].is_empty());
    }

    #[test]
    fn scores_reflect_presence_duration() {
        let s = script();
        let out = ideal_ingest(&s);
        // o2 present all 50 frames of every clip at score 1.0 ⇒ h = 50.
        for row in &out.object_rows[&o(2)] {
            assert!((row.score - 50.0).abs() < 1e-9, "score {}", row.score);
        }
        // o1 has 20 rows? No: only clips 2..11 have detections.
        assert_eq!(out.object_rows[&o(1)].len(), 10);
        // Action score: 5 shots × 1.0 on interior clips.
        let interior: Vec<_> = out.action_rows[&a(0)]
            .iter()
            .filter(|r| (5..=14).contains(&r.clip.raw()))
            .collect();
        assert!(interior.iter().all(|r| (r.score - 5.0).abs() < 1e-9));
    }

    #[test]
    fn intersection_gives_query_candidates() {
        let s = script();
        let out = ideal_ingest(&s);
        let q = Query::new(a(0), vec![o(1), o(2)]);
        let pq = crate::offline::candidates::candidates_from_ingest(&out, &q).unwrap();
        // o1: 2..11, o2: 0..19, action: 5..14 ⇒ P_q = 5..11.
        assert_eq!(pq.intervals(), &[ClipInterval::new(5, 11)]);
        assert_eq!(s.ground_truth(&q, 0.5), pq);
    }

    #[test]
    fn catalog_roundtrip() {
        let s = script();
        let out = ideal_ingest(&s);
        let dir = std::env::temp_dir().join(format!("vaq-ingest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = out.write_catalog(&dir).unwrap();
        assert_eq!(manifest.num_clips(), 20);
        let cat = vaq_storage::VideoCatalog::open(&dir, CostModel::FREE).unwrap();
        assert_eq!(
            cat.object_sequences(o(1)).unwrap(),
            &out.object_sequences[&o(1)]
        );
        use vaq_storage::ClipScoreTable as _;
        let t = cat.table(TableKey::Object(o(2))).unwrap();
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn ingestion_accounts_inference() {
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 8, 1);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 4, 1);
        let mut tracker = IouTracker::new(profiles::centertrack(), 1);
        let out = ingest(&s, "t", &det, &rec, &mut tracker, &OnlineConfig::svaqd()).unwrap();
        assert_eq!(out.stats.detector_frames, 1000);
        assert_eq!(out.stats.recognizer_shots, 100);
        assert_eq!(out.stats.tracker_frames, 1000);
        assert!(out.stats.inference_ms() > 0.0);
    }

    #[test]
    fn noisy_ingestion_close_to_truth() {
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 8, 42);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 4, 42);
        let mut tracker = IouTracker::new(profiles::centertrack(), 42);
        let out = ingest(&s, "t", &det, &rec, &mut tracker, &OnlineConfig::svaqd()).unwrap();
        let got = &out.object_sequences[&o(1)];
        let want = ClipInterval::new(2, 11);
        assert!(
            got.intervals().iter().any(|iv| iv.iou(&want) >= 0.5),
            "o1 sequences {got} do not match {want}"
        );
    }

    /// Field-by-field comparison of two ingestion outputs, with exact
    /// (bitwise) float equality — the parallel path promises bit-identity,
    /// not approximation.
    fn assert_outputs_identical(a: &IngestOutput, b: &IngestOutput, label: &str) {
        assert_eq!(a.name, b.name, "{label}: name");
        assert_eq!(a.num_frames, b.num_frames, "{label}: num_frames");
        assert_eq!(a.object_rows, b.object_rows, "{label}: object_rows");
        assert_eq!(a.action_rows, b.action_rows, "{label}: action_rows");
        assert_eq!(
            a.object_sequences, b.object_sequences,
            "{label}: object_sequences"
        );
        assert_eq!(
            a.action_sequences, b.action_sequences,
            "{label}: action_sequences"
        );
        assert_eq!(a.stats, b.stats, "{label}: stats");
    }

    #[test]
    fn parallel_ingest_is_bit_identical_to_serial() {
        // Noisy models: if shard boundaries leaked into scores or estimator
        // order, noise would amplify the difference into a table mismatch.
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 8, 42);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 4, 42);
        let cfg = OnlineConfig::svaqd();
        let mut tracker = IouTracker::new(profiles::centertrack(), 42);
        let serial = ingest(&s, "t", &det, &rec, &mut tracker, &cfg).unwrap();

        for threads in [1usize, 2, 8] {
            let proto = IouTracker::new(profiles::centertrack(), 42);
            let par = ingest_parallel_traced(
                &s,
                "t",
                &det,
                &rec,
                &proto,
                &cfg,
                threads,
                &Tracer::disabled(),
            )
            .unwrap();
            assert_outputs_identical(&serial, &par, &format!("threads={threads}"));
        }
    }

    #[test]
    fn parallel_ingest_handles_more_shards_than_clips() {
        let s = script(); // 20 clips
        let det = SimulatedObjectDetector::new(profiles::ideal_object(), 8, 1);
        let rec = SimulatedActionRecognizer::new(profiles::ideal_action(), 4, 1);
        let cfg = OnlineConfig::svaqd();
        let mut tracker = IouTracker::new(profiles::ideal_tracker(), 1);
        let serial = ingest(&s, "t", &det, &rec, &mut tracker, &cfg).unwrap();
        let proto = IouTracker::new(profiles::ideal_tracker(), 1);
        let par =
            ingest_parallel_traced(&s, "t", &det, &rec, &proto, &cfg, 64, &Tracer::disabled())
                .unwrap();
        assert_outputs_identical(&serial, &par, "threads=64");
    }
}
