//! Per-clip query evaluation — the paper's Algorithm 2.
//!
//! For every object predicate `o_i`, the per-frame prediction indicator is
//! `𝟙_{o_i}(v) = 𝟙[max S_{o_i}(v) ≥ T_obj]` and the clip indicator fires
//! when the count of positive frames reaches the predicate's critical value
//! (Eq. 1). The action predicate is evaluated analogously over shots
//! (Eq. 2); the clip satisfies the query when every indicator fires (Eq. 3).
//!
//! **Predicate order and short-circuiting.** Algorithm 2 evaluates object
//! predicates in user order and returns early when one fails (lines 6–8);
//! the expensive action recognizer is only consulted on clips whose object
//! predicates all passed. One physical detail differs from the paper's
//! pseudocode: the pseudocode invokes `O(o_i|v)` per predicate, but a real
//! detector scores every label in one forward pass per frame, so the
//! detector runs once per frame, is asked for the labels of all object
//! predicates (`&query.objects`), and its answer is reused across them.
//! That answer holds every detection of a listed label and may hold others
//! (a cache or wrapper may return the full output); each predicate reads
//! only its own label's maximum, so either answer gives the same run (see
//! [`ObjectDetector::try_detect_traced`], DESIGN.md §18). The recognizer is
//! asked for the query's action alone. One call is one executed frame or
//! shot however many labels it names, so short-circuiting saves
//! action-recognizer invocations (the paper's dominant cost) rather than
//! detector passes, and the saved work is visible in
//! [`InferenceStats::clips_short_circuited`].
//!
//! **Buffers, not answers.** The models append each answer to a buffer
//! the caller owns ([`ObjectDetector::try_detect_traced`]): the
//! `EvalScratch` holds one for detections and one for predictions, each
//! cleared before every attempt, so a retried call never reads a failed
//! attempt's entries (a fault appends nothing anyway). A clip's frames go
//! through one frame scope ([`ObjectDetector::with_frames`]): the default
//! scope clears the detection buffer and calls the detector into it per
//! frame, while a shared inference cache takes its lock once per clip and
//! lends each answer from its slot. The frame loop runs inside the scope;
//! a fault that ends the clip is stashed and returned once the scope has
//! closed. The shot loop calls the recognizer per shot. Both loops share
//! one retry step (`Window::attempt`). The scratch also
//! keeps the clip's event vectors, which the engine reads back for
//! SVAQD's estimators. Once their capacities have grown, a clip's
//! evaluation allocates only the two vectors its clip record keeps.
//!
//! **One kernel, two probe modes.** `evaluate_clip` walks each window
//! (the clip's frames, then its shots) in a single probe loop. A
//! `Probe::Exhaustive` run probes every unit in stream order and degrades
//! unrecovered faults per its [`DegradationPolicy`]. A `Probe::Planned`
//! run follows a `ClipPlan`: it probes in the plan's order, stops a
//! window once the reachability bounds settle every predicate sharing it,
//! and imputes faults — the planner's soundness argument assumes the
//! `ImputeBackground` rule (DESIGN.md §14).

use crate::config::{DegradationPolicy, RetryPolicy};
use crate::online::planner::{settled, ClipPlan, ProbeOrder, Verdict};
use vaq_detect::fault::DetectorFault;
use vaq_detect::{
    ActionRecognizer, ActionScore, CallProvenance, Detection, InferenceStats, ObjectDetector,
};
use vaq_scanstats::{edge_corrected_k, verdict};
use vaq_types::{conv, Query, Result, VaqError};
use vaq_video::ClipView;

/// Reusable buffers, hoisting per-frame, per-shot and per-clip
/// allocations out of [`evaluate_clip`]'s hot loop. An engine owns one
/// scratch and threads it through every clip; once their capacities have
/// grown, evaluating a clip allocates only the two vectors its
/// [`ClipEvaluation`] hands to the engine's clip record.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    /// Per object predicate: the current frame's max score.
    maxes: Vec<f64>,
    /// Per object predicate: positive frames observed so far in the clip.
    positives: Vec<u64>,
    /// The buffer the detector appends a frame's answer to; cleared
    /// before each attempt.
    detections: Vec<Detection>,
    /// The buffer the recognizer appends a shot's answer to; cleared
    /// before each attempt.
    pub(crate) predictions: Vec<ActionScore>,
    /// Per object predicate (query order), per observed frame of the last
    /// evaluated clip: `𝟙_{o_i}(v)`.
    pub(crate) object_events: Vec<Vec<bool>>,
    /// Per observed shot of the last evaluated clip: `𝟙_a(s)`. Meaningful
    /// only when that clip's [`ClipEvaluation::action_count`] is `Some`;
    /// otherwise free for the engine's background exploration.
    pub(crate) action_events: Vec<bool>,
}

impl EvalScratch {
    /// Readies the buffers for `predicates` object predicates, keeping
    /// previously grown capacity.
    fn reset(&mut self, predicates: usize) {
        self.maxes.clear();
        self.maxes.resize(predicates, 0.0);
        self.positives.clear();
        self.positives.resize(predicates, 0);
        self.object_events.resize_with(predicates, Vec::new);
        for events in &mut self.object_events {
            events.clear();
        }
        self.action_events.clear();
    }
}

/// Why a clip carries no query answer — the typed gap markers degraded
/// runs report instead of silently mis-answering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapReason {
    /// No frame of the clip produced a detector output (full detector
    /// outage under [`DegradationPolicy::ImputeBackground`]).
    DetectorOutage,
    /// Object predicates passed but no shot produced a recognizer output.
    RecognizerOutage,
    /// The clip was skipped on the first unrecovered fault under
    /// [`DegradationPolicy::SkipClip`].
    SkippedOnFault,
    /// The service's overload policy dropped the clip before evaluation
    /// (queue overflow, priority eviction, or a stalled tenant).
    Shed,
    /// The clip waited in the service queue past its query's deadline and
    /// was dropped without evaluation.
    DeadlineExceeded,
}

vaq_types::json_unit_enum!(GapReason: DetectorOutage, RecognizerOutage, SkippedOnFault, Shed,
    DeadlineExceeded);

impl std::fmt::Display for GapReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GapReason::DetectorOutage => write!(f, "detector outage"),
            GapReason::RecognizerOutage => write!(f, "recognizer outage"),
            GapReason::SkippedOnFault => write!(f, "skipped on fault"),
            GapReason::Shed => write!(f, "shed under overload"),
            GapReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// The outcome of evaluating one clip. The per-occurrence-unit event
/// indicators SVAQD's estimators consume stay in the [`EvalScratch`]
/// (`object_events`, `action_events`) until the next clip.
///
/// The event vectors hold only the *observed* occurrence units — imputed
/// frames/shots must not feed the background estimators as if they had
/// been measured, and a planned run stops recording once a window settles.
#[derive(Debug, Clone)]
pub(crate) struct ClipEvaluation {
    /// Per object predicate: count of positive observed frames in the clip.
    pub(crate) object_counts: Vec<u64>,
    /// Per object predicate: the clip indicator `𝟙_{o_i}(c)`.
    pub(crate) object_indicators: Vec<bool>,
    /// Count of positive observed shots; `None` when the action recognizer
    /// was skipped by short-circuiting (or the clip degraded to a gap).
    pub(crate) action_count: Option<u64>,
    /// The action clip indicator `𝟙_a(c)`, when evaluated.
    pub(crate) action_indicator: Option<bool>,
    /// The query indicator `𝟙_q(c)` (Eq. 3).
    pub(crate) indicator: bool,
}

impl ClipEvaluation {
    /// A negative evaluation whose action predicate was never decided.
    fn without_action(object_counts: Vec<u64>, object_indicators: Vec<bool>) -> Self {
        Self {
            object_counts,
            object_indicators,
            action_count: None,
            action_indicator: None,
            indicator: false,
        }
    }

    /// An all-negative evaluation for a clip degraded to a gap.
    fn gap(query: &Query) -> Self {
        let n = query.objects.len();
        Self::without_action(vec![0; n], vec![false; n])
    }
}

/// How [`evaluate_clip`] probes a clip's occurrence units.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Probe<'p> {
    /// Every frame and shot in stream order; unrecovered faults degrade
    /// per the policy.
    Exhaustive(DegradationPolicy),
    /// The plan's order, stopping each window once it is settled. Carries
    /// no degradation policy: the planner's bounds assume
    /// [`DegradationPolicy::ImputeBackground`], so faults always impute.
    Planned(&'p ClipPlan),
}

/// Probe progress through one window of occurrence units (a clip's frames
/// or its shots).
#[derive(Debug)]
struct Window {
    total: u64,
    attempted: u64,
    missing: u64,
}

impl Window {
    fn new(len: usize) -> Self {
        Self {
            total: conv::len_u64(len),
            attempted: 0,
            missing: 0,
        }
    }

    fn observed(&self) -> u64 {
        self.attempted - self.missing
    }

    fn elided(&self) -> u64 {
        self.total - self.attempted
    }

    /// Whether a predicate over this window is settled under the plan's
    /// floors. Zero-attempt windows never settle.
    fn settled(&self, k_crit: u64, positives: u64, min_accept: u64, allow_reject: bool) -> bool {
        self.attempted > 0
            && settled(
                verdict(
                    k_crit,
                    self.total,
                    self.attempted,
                    self.observed(),
                    positives,
                ),
                positives,
                min_accept,
                allow_reject,
            )
    }

    /// The predicate's clip indicator. A fully attempted window applies the
    /// edge-corrected bar over its observed units; a truncated one was
    /// stopped on a settled verdict, which is monotone under further
    /// probes and therefore equals that bar's value for every completion.
    fn indicator(&self, k_crit: u64, positives: u64) -> bool {
        if self.attempted == self.total {
            positives >= edge_corrected_k(k_crit, self.observed().max(1), self.total.max(1))
        } else {
            verdict(
                k_crit,
                self.total,
                self.attempted,
                self.observed(),
                positives,
            ) == Verdict::Accept
        }
    }
}

/// The model a window probes, with its simulated cost per executed unit.
#[derive(Debug, Clone, Copy)]
enum ModelKind {
    Detector(f64),
    Recognizer(f64),
}

impl ModelKind {
    /// Bills one answered call: its latency if it executed, a cache hit
    /// otherwise.
    fn bill(self, provenance: CallProvenance, stats: &mut InferenceStats) {
        match (self, provenance) {
            (ModelKind::Detector(ms), CallProvenance::Executed) => stats.record_detector(1, ms),
            (ModelKind::Detector(_), CallProvenance::Cached) => stats.record_detector_cached(1),
            (ModelKind::Recognizer(ms), CallProvenance::Executed) => {
                stats.record_recognizer(1, ms);
            }
            (ModelKind::Recognizer(_), CallProvenance::Cached) => {
                stats.record_recognizer_cached(1);
            }
        }
    }

    fn record_fault(self, stats: &mut InferenceStats) {
        match self {
            ModelKind::Detector(_) => stats.record_detector_fault(),
            ModelKind::Recognizer(_) => stats.record_recognizer_fault(),
        }
    }
}

/// What one attempt at a unit came to.
enum Attempt {
    /// The model answered.
    Observed,
    /// An unrecovered fault, imputed as background.
    Imputed,
    /// An unrecovered fault under [`DegradationPolicy::SkipClip`].
    SkipClip,
}

impl Window {
    /// The retry step both windows share: runs `call` under `retry`'s
    /// bounded retry with backoff, handing it the attempt number (0, then
    /// the retries made so far), bills the answer's provenance (or each
    /// fault and backoff wait) to `stats`, and applies `degradation` to a
    /// fault that survives the retries; under
    /// [`DegradationPolicy::Abort`] that fault is a
    /// [`VaqError::DetectorUnavailable`] with the message `describe`
    /// builds. Counts the unit as attempted unless the clip is skipped.
    fn attempt(
        &mut self,
        kind: ModelKind,
        retry: &RetryPolicy,
        degradation: DegradationPolicy,
        stats: &mut InferenceStats,
        mut call: impl FnMut(u32) -> std::result::Result<CallProvenance, DetectorFault>,
        describe: impl FnOnce(DetectorFault) -> String,
    ) -> Result<Attempt> {
        let mut retries = 0u32;
        let fault = loop {
            let fault = match call(retries) {
                Ok(provenance) => {
                    kind.bill(provenance, stats);
                    self.attempted += 1;
                    return Ok(Attempt::Observed);
                }
                Err(fault) => fault,
            };
            kind.record_fault(stats);
            if !fault.is_retryable() || retries >= retry.max_retries {
                break fault;
            }
            stats.record_retry(retry.backoff_ms(retries));
            retries += 1;
        };
        match degradation {
            DegradationPolicy::Abort => Err(VaqError::DetectorUnavailable(describe(fault))),
            DegradationPolicy::SkipClip => Ok(Attempt::SkipClip),
            DegradationPolicy::ImputeBackground => {
                self.attempted += 1;
                self.missing += 1;
                Ok(Attempt::Imputed)
            }
        }
    }
}

/// Evaluates Algorithm 2 on one clip through the fallible model paths.
///
/// Returns the evaluation plus an optional [`GapReason`] when the clip
/// carries no usable answer; under [`DegradationPolicy::Abort`] an
/// unrecovered fault is a [`VaqError::DetectorUnavailable`] error instead.
///
/// Under [`Probe::Planned`] a frame's detector call is elided only when
/// every object predicate is settled, and shots only once the action
/// predicate is; action-only queries skip the detector pass outright,
/// since no predicate reads it. Typed gaps match the exhaustive run's
/// exactly because zero-observation windows never settle.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_clip(
    query: &Query,
    clip: &ClipView,
    detector: &dyn ObjectDetector,
    recognizer: &dyn ActionRecognizer,
    t_obj: f64,
    t_act: f64,
    k_crit_obj: &[u64],
    k_crit_act: u64,
    retry: &RetryPolicy,
    probe: Probe<'_>,
    scratch: &mut EvalScratch,
    stats: &mut InferenceStats,
) -> Result<(ClipEvaluation, Option<GapReason>)> {
    debug_assert_eq!(k_crit_obj.len(), query.objects.len());
    let (plan, degradation) = match probe {
        Probe::Exhaustive(degradation) => (None, degradation),
        Probe::Planned(plan) => {
            debug_assert_eq!(plan.obj_min_accept.len(), query.objects.len());
            (Some(plan), DegradationPolicy::ImputeBackground)
        }
    };
    let mut decided_early = false;

    // One detector pass per frame, reused by all object predicates: the
    // per-frame max score per queried type is all the indicators need.
    scratch.reset(query.objects.len());
    let EvalScratch {
        maxes,
        positives,
        detections,
        predictions,
        object_events,
        action_events,
    } = scratch;
    let mut frames = Window::new(clip.num_frames());
    // Action-only queries read no detector output: a planned run elides
    // the whole pass, while the exhaustive run still probes and charges it.
    // The frames go through one scope of detector calls; a fault that
    // ends the clip is stashed and returned once the scope has closed.
    if plan.is_none() || !query.objects.is_empty() {
        let order = plan.map_or(ProbeOrder::Sequential, |p| p.frame_order);
        let kind = ModelKind::Detector(detector.latency_ms());
        let mut stopped = None;
        detector.with_frames(&query.objects, detections, &mut |calls| {
            for idx in order.indices(clip.num_frames()) {
                if let Some(plan) = plan {
                    let all_settled = (0..query.objects.len()).all(|pi| {
                        frames.settled(
                            k_crit_obj[pi],
                            positives[pi],
                            plan.obj_min_accept[pi],
                            plan.allow_reject,
                        )
                    });
                    if all_settled {
                        decided_early = true;
                        break;
                    }
                }
                let frame = clip.frame(idx);
                let attempt = frames.attempt(
                    kind,
                    retry,
                    degradation,
                    stats,
                    |attempt| calls.try_detect(&frame, attempt),
                    |fault| {
                        format!(
                            "object detector {:?} failed on frame {} of clip {}: {fault}",
                            detector.name(),
                            frame.id,
                            clip.id
                        )
                    },
                );
                match attempt {
                    Ok(Attempt::Observed) => {
                        maxes.fill(0.0);
                        for det in calls.answer() {
                            if let Some(pi) = query.objects.iter().position(|&o| o == det.object) {
                                if det.score > maxes[pi] {
                                    maxes[pi] = det.score;
                                }
                            }
                        }
                        for (pi, &m) in maxes.iter().enumerate() {
                            let event = m >= t_obj;
                            object_events[pi].push(event);
                            positives[pi] += u64::from(event);
                        }
                    }
                    Ok(Attempt::Imputed) => {}
                    Ok(Attempt::SkipClip) | Err(_) => {
                        stopped = Some(attempt);
                        return;
                    }
                }
            }
        });
        match stopped {
            Some(Err(e)) => return Err(e),
            Some(Ok(_)) => {
                return Ok((ClipEvaluation::gap(query), Some(GapReason::SkippedOnFault)));
            }
            None => {}
        }
    }
    if frames.elided() > 0 {
        stats.record_detector_elided(frames.elided());
    }
    if frames.missing > 0 {
        stats.record_imputed_frames(frames.missing);
    }
    // A clip with object predicates but zero observed frames carries no
    // object information at all: degrade to a typed gap rather than
    // imputing an answer out of nothing. Zero observations never settle a
    // window, so this is reached only with every frame attempted.
    if frames.observed() == 0 && !query.objects.is_empty() && frames.total > 0 {
        debug_assert_eq!(frames.elided(), 0);
        return Ok((ClipEvaluation::gap(query), Some(GapReason::DetectorOutage)));
    }
    let object_indicators: Vec<bool> = (0..query.objects.len())
        .map(|pi| frames.indicator(k_crit_obj[pi], positives[pi]))
        .collect();
    let mut evaluation = ClipEvaluation::without_action(positives.to_vec(), object_indicators);

    // Short-circuit: a failed object predicate means the clip cannot
    // satisfy the query; skip the action recognizer entirely.
    if evaluation.object_indicators.contains(&false) {
        stats.record_short_circuit();
        if decided_early {
            stats.record_decided_early();
        }
        return Ok((evaluation, None));
    }

    let mut action_count = 0u64;
    let mut shots = Window::new(clip.num_shots());
    let order = plan.map_or(ProbeOrder::Sequential, |p| p.shot_order);
    let kind = ModelKind::Recognizer(recognizer.latency_ms());
    for idx in order.indices(clip.num_shots()) {
        if let Some(plan) = plan {
            if shots.settled(
                k_crit_act,
                action_count,
                plan.act_min_accept,
                plan.allow_reject,
            ) {
                decided_early = true;
                break;
            }
        }
        let shot = clip.shot(idx);
        let attempt = shots.attempt(
            kind,
            retry,
            degradation,
            stats,
            |attempt| {
                predictions.clear();
                recognizer.try_recognize_traced(&shot, &[query.action], attempt, predictions)
            },
            |fault| {
                format!(
                    "action recognizer {:?} failed on shot {} of clip {}: {fault}",
                    recognizer.name(),
                    shot.id,
                    clip.id
                )
            },
        )?;
        match attempt {
            Attempt::Observed => {
                let event = predictions
                    .iter()
                    .any(|p| p.action == query.action && p.score >= t_act);
                action_events.push(event);
                action_count += u64::from(event);
            }
            Attempt::Imputed => {}
            Attempt::SkipClip => return Ok((evaluation, Some(GapReason::SkippedOnFault))),
        }
    }
    if shots.elided() > 0 {
        stats.record_recognizer_elided(shots.elided());
    }
    if shots.missing > 0 {
        stats.record_imputed_shots(shots.missing);
    }
    if decided_early {
        stats.record_decided_early();
    }
    if shots.observed() == 0 && shots.total > 0 {
        debug_assert_eq!(shots.elided(), 0);
        // Objects passed but the action predicate is unknowable.
        return Ok((evaluation, Some(GapReason::RecognizerOutage)));
    }
    let action_indicator = shots.indicator(k_crit_act, action_count);
    evaluation.action_count = Some(action_count);
    evaluation.action_indicator = Some(action_indicator);
    evaluation.indicator = action_indicator;
    Ok((evaluation, None))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::planner::ProbeOrder;
    use vaq_detect::profiles;
    use vaq_detect::{SimulatedActionRecognizer, SimulatedObjectDetector};
    use vaq_types::{ActionType, ClipId, ObjectType, Query, VideoGeometry};
    use vaq_video::{SceneScriptBuilder, VideoStream};

    const EXHAUSTIVE: Probe<'static> = Probe::Exhaustive(DegradationPolicy::ImputeBackground);

    fn o(i: u32) -> ObjectType {
        ObjectType::new(i)
    }
    fn a(i: u32) -> ActionType {
        ActionType::new(i)
    }

    /// Evaluates clip `cid` of a 500-frame script (object `o1` over frames
    /// 0..250, action `a0` everywhere) with ideal models, `t_act = 0.5` and
    /// an action critical value of 2.
    fn eval(
        q: &Query,
        cid: u64,
        t_obj: f64,
        k_obj: &[u64],
        probe: Probe<'_>,
        stats: &mut InferenceStats,
    ) -> (ClipEvaluation, Option<GapReason>) {
        let mut b = SceneScriptBuilder::new(500, VideoGeometry::PAPER_DEFAULT);
        b.object_span(o(1), 0, 250).unwrap(); // clips 0..4 for o1
        b.action_span(a(0), 0, 500).unwrap(); // action everywhere
        let script = b.build();
        let clip = VideoStream::new(&script).materialize(ClipId::new(cid));
        let det = SimulatedObjectDetector::new(profiles::ideal_object(), 86, 1);
        let rec = SimulatedActionRecognizer::new(profiles::ideal_action(), 36, 1);
        evaluate_clip(
            q,
            &clip,
            &det,
            &rec,
            t_obj,
            0.5,
            k_obj,
            2,
            &RetryPolicy::NONE,
            probe,
            &mut EvalScratch::default(),
            stats,
        )
        .unwrap()
    }

    #[test]
    fn ideal_models_give_exact_indicators() {
        let q = Query::new(a(0), vec![o(1)]);
        let mut stats = InferenceStats::default();

        let (ev, gap) = eval(&q, 0, 0.5, &[3], EXHAUSTIVE, &mut stats);
        assert_eq!(gap, None);
        assert!(ev.indicator);
        assert_eq!(ev.object_counts, vec![50]);
        assert_eq!(ev.action_count, Some(5));

        // Clip 5 (frames 250..300): object gone.
        let (ev, _) = eval(&q, 5, 0.5, &[3], EXHAUSTIVE, &mut stats);
        assert!(!ev.indicator);
        assert_eq!(ev.object_counts, vec![0]);
        assert_eq!(ev.action_count, None, "short-circuited");
    }

    #[test]
    fn short_circuit_skips_recognizer_and_is_accounted() {
        let q = Query::new(a(0), vec![o(1)]);
        let mut stats = InferenceStats::default();
        eval(&q, 5, 0.5, &[3], EXHAUSTIVE, &mut stats);
        assert_eq!(stats.recognizer_shots, 0);
        assert_eq!(stats.clips_short_circuited, 1);
        assert_eq!(stats.detector_frames, 50);
    }

    #[test]
    fn detector_runs_once_for_multiple_object_predicates() {
        // Two object predicates: the second (o2) is absent, so the clip
        // fails — but detector frames stay at 50 (one pass per frame).
        let q = Query::new(a(0), vec![o(1), o(2)]);
        let mut stats = InferenceStats::default();
        let (ev, _) = eval(&q, 0, 0.5, &[3, 3], EXHAUSTIVE, &mut stats);
        assert!(!ev.indicator);
        assert_eq!(ev.object_indicators, vec![true, false]);
        assert_eq!(stats.detector_frames, 50);
    }

    #[test]
    fn threshold_filters_scores() {
        let q = Query::new(a(0), vec![o(1)]);
        let mut stats = InferenceStats::default();
        // Ideal scores are exactly 1.0; a threshold above 1.0 kills them.
        // (t_obj is validated to [0,1] in configs; here we exercise the raw
        // comparison path.)
        let (ev, _) = eval(&q, 0, 1.0, &[3], EXHAUSTIVE, &mut stats);
        assert_eq!(ev.object_counts, vec![50], "score 1.0 passes t=1.0");
        assert!(ev.indicator);
    }

    #[test]
    fn critical_value_gates_indicator() {
        let q = Query::new(a(0), vec![o(1)]);
        let mut stats = InferenceStats::default();
        // Clip 4 = frames 200..250, object present throughout (span 0..250).
        let (ev, _) = eval(&q, 4, 0.5, &[50], EXHAUSTIVE, &mut stats);
        assert!(ev.indicator, "50 positives meet k=50");
        let (ev, _) = eval(&q, 4, 0.5, &[51], EXHAUSTIVE, &mut stats);
        assert!(!ev.indicator, "k=51 cannot be met in a 50-frame clip");
    }

    fn static_plan(order: ProbeOrder, preds: usize) -> ClipPlan {
        ClipPlan {
            frame_order: order,
            shot_order: order,
            allow_reject: true,
            obj_min_accept: vec![0; preds],
            act_min_accept: 0,
        }
    }

    #[test]
    fn planned_path_matches_exhaustive_decisions_and_elides() {
        let q = Query::new(a(0), vec![o(1)]);
        for order in [ProbeOrder::Sequential, ProbeOrder::Stratified] {
            let plan = static_plan(order, 1);
            let mut planned = InferenceStats::default();
            let mut exhaustive = InferenceStats::default();
            for cid in 0..10 {
                let (base, _) = eval(&q, cid, 0.5, &[3], EXHAUSTIVE, &mut exhaustive);
                let (ev, gap) = eval(&q, cid, 0.5, &[3], Probe::Planned(&plan), &mut planned);
                assert_eq!(gap, None);
                assert_eq!(ev.indicator, base.indicator, "clip {cid} under {order:?}");
                assert_eq!(ev.object_indicators, base.object_indicators);
                assert_eq!(ev.action_indicator, base.action_indicator);
            }
            // Every positive clip accepts after 3 frames and every empty
            // one rejects once 0 + remaining < bar: elision must fire.
            assert!(planned.detector_elided > 0, "{order:?}");
            assert!(planned.recognizer_elided > 0, "{order:?}");
            assert!(planned.clips_decided_early > 0, "{order:?}");
            assert!(planned.detector_frames < exhaustive.detector_frames);
        }
    }

    #[test]
    fn planned_accept_floor_defers_early_stop() {
        let q = Query::new(a(0), vec![o(1)]);
        // The SVAQD safety floor: an accept may not stop before the
        // observed count reaches it (here 10 > k = 3).
        let plan = ClipPlan {
            frame_order: ProbeOrder::Sequential,
            shot_order: ProbeOrder::Sequential,
            allow_reject: false,
            obj_min_accept: vec![10],
            act_min_accept: 2,
        };
        let mut stats = InferenceStats::default();
        let (ev, gap) = eval(&q, 0, 0.5, &[3], Probe::Planned(&plan), &mut stats);
        assert_eq!(gap, None);
        assert!(ev.indicator);
        assert_eq!(
            stats.detector_frames, 10,
            "must probe to the floor, not to k"
        );
        assert_eq!(stats.detector_elided, 40);
    }

    #[test]
    fn planned_action_only_elides_whole_detector_pass() {
        let q = Query::action_only(a(0));
        let plan = static_plan(ProbeOrder::Sequential, 0);
        let mut stats = InferenceStats::default();
        let (ev, gap) = eval(&q, 0, 0.5, &[], Probe::Planned(&plan), &mut stats);
        assert_eq!(gap, None);
        assert!(ev.indicator);
        assert_eq!(stats.detector_frames, 0);
        assert_eq!(stats.detector_elided, 50);
        // The action window still accepts after k = 2 positive shots.
        assert_eq!(stats.recognizer_shots, 2);
        assert_eq!(stats.recognizer_elided, 3);
    }

    #[test]
    fn action_only_query_runs_recognizer_directly() {
        let q = Query::action_only(a(0));
        let mut stats = InferenceStats::default();
        let (ev, _) = eval(&q, 0, 0.5, &[], EXHAUSTIVE, &mut stats);
        assert!(ev.indicator);
        assert!(ev.object_counts.is_empty());
        assert_eq!(stats.recognizer_shots, 5);
    }
}
