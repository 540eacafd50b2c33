//! The streaming engines SVAQ and SVAQD (paper Algorithms 1 and 3).
//!
//! One [`OnlineEngine`] implements both: with
//! [`ParameterPolicy::Static`] the
//! background probabilities (and thus critical values) are fixed at their
//! initial values for the whole stream — Algorithm 1, SVAQ. With
//! [`ParameterPolicy::Dynamic`]
//! every predicate owns a [`BackgroundRateEstimator`] fed by the per-OU
//! prediction events, and critical values are recomputed from the current
//! estimates as the stream evolves — Algorithm 3, SVAQD.
//!
//! Positive clips are merged into maximal result sequences (Eq. 4) by
//! [`OnlineEngine::sequences`].

use crate::config::{OnlineConfig, ParameterPolicy, UpdatePolicy};
use crate::online::indicator::{evaluate_clip, ClipEvaluation, EvalScratch, GapReason, Probe};
use crate::online::planner::{BudgetState, ClipPlan};
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use vaq_detect::{ActionRecognizer, CallProvenance, InferenceStats, ObjectDetector};
use vaq_scanstats::{BackgroundRateEstimator, CriticalValueCache, EstimatorCheckpoint, ScanConfig};
use vaq_types::{conv, ClipId, Query, Result, SequenceSet, VaqError, VideoGeometry};
use vaq_video::{ClipView, VideoStream};

/// Per-predicate scan-statistics state.
#[derive(Debug)]
struct PredicateState {
    cache: Arc<CriticalValueCache>,
    estimator: Option<BackgroundRateEstimator>,
    p_current: f64,
    k_crit: u64,
    /// Below-threshold clip awaiting neighbor confirmation (censor
    /// dilation; see [`PredicateState::offer`]).
    pending: Option<Vec<bool>>,
    /// A dropped `pending` buffer, kept for the next below-threshold clip
    /// (not checkpointed state).
    spare: Vec<bool>,
    /// Whether the pending clip's *predecessor* was below threshold.
    pending_ok: bool,
    /// Whether the last offered clip was below threshold.
    prev_below: bool,
}

impl PredicateState {
    fn new(
        cache: Arc<CriticalValueCache>,
        p0: f64,
        policy: &ParameterPolicy,
        bandwidth_ou: f64,
    ) -> Result<Self> {
        let k_crit = cache.get(p0);
        let estimator = match policy {
            ParameterPolicy::Static => None,
            // The prior carries ~20% of one kernel volume of pseudo-weight:
            // enough to damp small-sample jitter over the first dozen
            // clips, small enough that data dominates quickly — this is
            // what makes SVAQD's accuracy insensitive to p0 (Figure 2)
            // even on short videos.
            ParameterPolicy::Dynamic { .. } => Some(BackgroundRateEstimator::with_prior_weight(
                bandwidth_ou,
                p0,
                bandwidth_ou * 0.2,
            )?),
        };
        Ok(Self {
            cache,
            estimator,
            p_current: p0,
            k_crit,
            pending: None,
            spare: Vec::new(),
            pending_ok: false,
            prev_below: false,
        })
    }

    fn feed(&mut self, events: &[bool]) {
        if let Some(est) = &mut self.estimator {
            est.observe_all(events.iter().copied());
        }
    }

    /// Offers one evaluated clip's events to the background estimator with
    /// censor *dilation*: a clip actually feeds the estimator only when it
    /// AND both its evaluated neighbors are below the censor threshold.
    /// Signal boundaries produce below-threshold clips that still carry
    /// genuine events (an action covering 1–2 shots of a clip); without the
    /// dilation those boundary clips inflate the background estimate by an
    /// order of magnitude.
    ///
    /// The pending copy reuses the previous pending clip's buffer (or a
    /// dropped one), so offering allocates nothing once it has grown.
    fn offer(&mut self, events: &[bool], count: u64) {
        let below = count < self.censor_threshold();
        if below {
            let mut buf = match self.pending.take() {
                Some(prev) => {
                    if self.pending_ok {
                        self.feed(&prev);
                    }
                    prev
                }
                None => std::mem::take(&mut self.spare),
            };
            buf.clear();
            buf.extend_from_slice(events);
            self.pending = Some(buf);
            self.pending_ok = self.prev_below;
        } else if let Some(prev) = self.pending.take() {
            self.spare = prev;
        }
        self.prev_below = below;
    }

    /// Background-censoring threshold for this predicate: clips whose event
    /// count reaches it are signal, not background. `max(k_crit, 2)` keeps
    /// the `k = 1` bootstrap regime feeding (see [`OnlineEngine::absorb`]),
    /// and the half-window cap keeps OU-majority clips censored even when a
    /// wildly pessimistic prior has pushed `k_crit` to the window length —
    /// without it, a too-large `p₀` over a short window (e.g. 5 shots)
    /// would let 4-of-5-count signal clips feed the estimator and lock the
    /// estimate high forever.
    fn censor_threshold(&self) -> u64 {
        let half_window = self.cache.config().window.div_ceil(2);
        self.k_crit.max(2).min(half_window).max(2)
    }

    fn refresh(&mut self) {
        if let Some(est) = &self.estimator {
            self.p_current = est.estimate();
            self.k_crit = self.cache.get(self.p_current);
        }
    }

    fn checkpoint(&self) -> PredicateCheckpoint {
        PredicateCheckpoint {
            p_current: self.p_current,
            k_crit: self.k_crit,
            pending: self.pending.clone(),
            pending_ok: self.pending_ok,
            prev_below: self.prev_below,
            estimator: self.estimator.as_ref().map(|e| e.checkpoint()),
        }
    }

    /// Overwrites this freshly-constructed state with checkpointed values.
    /// The critical-value cache is *not* checkpointed: it is a pure
    /// memoization of [`ScanConfig`] and repopulates identically on demand.
    fn restore_from(&mut self, c: &PredicateCheckpoint) -> Result<()> {
        if c.estimator.is_some() != self.estimator.is_some() {
            return Err(VaqError::InvalidConfig(
                "checkpoint parameter policy (static/dynamic) does not match \
                 the engine configuration"
                    .into(),
            ));
        }
        if !(c.p_current.is_finite() && (0.0..=1.0).contains(&c.p_current)) {
            return Err(VaqError::InvalidConfig(format!(
                "checkpoint background probability {} outside [0,1]",
                c.p_current
            )));
        }
        if let (Some(slot), Some(est)) = (&mut self.estimator, &c.estimator) {
            *slot = BackgroundRateEstimator::restore(est)?;
        }
        self.p_current = c.p_current;
        self.k_crit = c.k_crit;
        self.pending = c.pending.clone();
        self.pending_ok = c.pending_ok;
        self.prev_below = c.prev_below;
        Ok(())
    }
}

/// Serializable snapshot of one `PredicateState`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateCheckpoint {
    p_current: f64,
    k_crit: u64,
    pending: Option<Vec<bool>>,
    pending_ok: bool,
    prev_below: bool,
    estimator: Option<EstimatorCheckpoint>,
}

vaq_types::json_record!(PredicateCheckpoint: p_current, k_crit, pending, pending_ok, prev_below,
    estimator);

/// A clip the engine processed but could not answer: where it sat in the
/// stream and why it is a gap rather than a negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapMarker {
    /// The unanswerable clip.
    pub clip: ClipId,
    /// Why no answer exists for it.
    pub reason: GapReason,
}

vaq_types::json_record!(GapMarker: clip, reason);

/// Per-clip decision record kept for diagnostics and the noise-elimination
/// metrics (paper Table 5).
#[derive(Debug, Clone, PartialEq)]
pub struct ClipRecord {
    /// Positive-frame counts per object predicate.
    pub object_counts: Vec<u64>,
    /// Per-object clip indicators.
    pub object_indicators: Vec<bool>,
    /// Positive-shot count, when the action was evaluated.
    pub action_count: Option<u64>,
    /// Action clip indicator, when evaluated.
    pub action_indicator: Option<bool>,
    /// The query indicator `𝟙_q(c)`.
    pub indicator: bool,
    /// Set when the clip degraded to a gap; its indicator is then a forced
    /// negative, not a measurement. Serialized unconditionally (as `null`
    /// when absent) so checkpoint JSON round-trips byte-identically.
    pub gap: Option<GapReason>,
}

vaq_types::json_record!(ClipRecord: object_counts, object_indicators, action_count,
    action_indicator, indicator, #[default] gap);

/// Output of running an online engine over a (finite prefix of a) stream.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineResult {
    /// The result sequences `P_q` (Eq. 4).
    pub sequences: SequenceSet,
    /// Per-clip decision records, in stream order.
    pub records: Vec<ClipRecord>,
    /// Clips that degraded to gaps, in stream order (empty on a clean run).
    pub gaps: Vec<GapMarker>,
    /// Accumulated inference/engine cost accounting.
    pub stats: InferenceStats,
}

vaq_types::json_record!(OnlineResult: sequences, records, gaps, stats);

/// One pair of critical-value caches — frame-windowed for object
/// predicates, shot-windowed for the action predicate — shared by every
/// engine built from the same [`OnlineConfig`] and [`VideoGeometry`].
///
/// [`CriticalValueCache`] memoizes a pure function of its [`ScanConfig`],
/// so sharing is free of coordination concerns: `get` takes `&self`, and
/// each engine warms the cache for all of the others. The standing-query
/// service builds one pair per session for every engine it admits (so
/// does `vaq-cli serve-sim`), `vaq-cli demo` builds one traced pair, and
/// perfbench's online workload runs its exhaustive and planned engines in
/// lockstep over one pair; each `(p, ScanConfig)` critical value is then
/// computed once instead of once per engine.
#[derive(Debug, Clone)]
pub struct SharedScanCaches {
    pub(crate) obj: Arc<CriticalValueCache>,
    pub(crate) act: Arc<CriticalValueCache>,
}

impl SharedScanCaches {
    /// The frame- and shot-windowed scan configurations of `config` over
    /// `geometry`: one clip per window, `horizon_clips` clips per horizon.
    pub(crate) fn scan_configs(
        config: &OnlineConfig,
        geometry: &VideoGeometry,
    ) -> Result<(ScanConfig, ScanConfig)> {
        let (fpc, spc) = (geometry.frames_per_clip(), geometry.shots_in_clip());
        Ok((
            ScanConfig::new(fpc, config.horizon_clips * fpc, config.alpha)?,
            ScanConfig::new(spc, config.horizon_clips * spc, config.alpha)?,
        ))
    }

    /// Builds the cache pair for engines configured with `config` over
    /// videos of the given geometry.
    pub fn new(config: &OnlineConfig, geometry: &VideoGeometry) -> Result<Self> {
        Self::new_traced(config, geometry, &Tracer::disabled())
    }

    /// [`Self::new`] with telemetry: both caches record their
    /// `scanstats.cv_hit` / `scanstats.cv_miss` counters and per-miss
    /// `scanstats.cv_compute` spans through `tracer`.
    pub fn new_traced(
        config: &OnlineConfig,
        geometry: &VideoGeometry,
        tracer: &Tracer,
    ) -> Result<Self> {
        config.validate()?;
        let (obj_scan, act_scan) = Self::scan_configs(config, geometry)?;
        let mut obj = CriticalValueCache::new(obj_scan);
        let mut act = CriticalValueCache::new(act_scan);
        obj.set_tracer(tracer.clone());
        act.set_tracer(tracer.clone());
        Ok(Self {
            obj: Arc::new(obj),
            act: Arc::new(act),
        })
    }
}

/// The streaming query engine (SVAQ / SVAQD by configuration).
pub struct OnlineEngine<'m> {
    query: Query,
    config: OnlineConfig,
    detector: &'m dyn ObjectDetector,
    recognizer: &'m dyn ActionRecognizer,
    obj_states: Vec<PredicateState>,
    act_state: PredicateState,
    indicators: Vec<bool>,
    records: Vec<ClipRecord>,
    gaps: Vec<GapMarker>,
    stats: InferenceStats,
    clips_since_refresh: u32,
    /// The elision planner's budget ledger (all zeros while the planner is
    /// disabled); checkpointed so resumed runs replan identically.
    planner: BudgetState,
    /// Reusable evaluation buffers; not part of the checkpointed state.
    scratch: EvalScratch,
    /// The current clip's object critical values, refilled per clip.
    k_obj: Vec<u64>,
    /// The buffer the next [`ClipPlan`]'s accept floors are built in,
    /// handed back after each planned clip.
    min_accept: Vec<u64>,
    /// Telemetry pipeline; disabled by default and never part of the
    /// checkpointed state — tracing observes decisions, it does not make
    /// them.
    tracer: Tracer,
}

impl<'m> OnlineEngine<'m> {
    /// One in this many short-circuited clips still runs the action
    /// recognizer for background estimation (see
    /// `Self::explore_action_background`).
    pub const EXPLORE_EVERY: u64 = 4;

    /// Builds an engine for `query` over videos with the given geometry,
    /// with private critical-value caches. Callers running several engines
    /// over one stream (the standing-query service, perfbench's online
    /// workload) build one [`SharedScanCaches`] and use
    /// [`Self::with_shared_caches`] instead.
    pub fn new(
        query: Query,
        config: OnlineConfig,
        geometry: &VideoGeometry,
        detector: &'m dyn ObjectDetector,
        recognizer: &'m dyn ActionRecognizer,
    ) -> Result<Self> {
        let caches = SharedScanCaches::new(&config, geometry)?;
        Self::with_shared_caches(query, config, geometry, detector, recognizer, &caches)
    }

    /// Builds an engine whose critical-value lookups go through `caches`,
    /// shared with other engines of the same configuration.
    pub fn with_shared_caches(
        query: Query,
        config: OnlineConfig,
        geometry: &VideoGeometry,
        detector: &'m dyn ObjectDetector,
        recognizer: &'m dyn ActionRecognizer,
        caches: &SharedScanCaches,
    ) -> Result<Self> {
        config.validate()?;
        query.validate()?;
        let (obj_scan, act_scan) = SharedScanCaches::scan_configs(&config, geometry)?;
        let (fpc, spc) = (obj_scan.window, act_scan.window);
        if *caches.obj.config() != obj_scan || *caches.act.config() != act_scan {
            return Err(VaqError::InvalidConfig(
                "shared critical-value caches were built for a different scan \
                 configuration"
                    .into(),
            ));
        }
        let (bw_frames, bw_shots) = match config.policy {
            ParameterPolicy::Static => (1.0, 1.0), // unused
            ParameterPolicy::Dynamic {
                bandwidth_clips, ..
            } => (bandwidth_clips * fpc as f64, bandwidth_clips * spc as f64),
        };
        let obj_states = query
            .objects
            .iter()
            .map(|_| {
                PredicateState::new(
                    Arc::clone(&caches.obj),
                    config.p0_obj,
                    &config.policy,
                    bw_frames,
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let act_state = PredicateState::new(
            Arc::clone(&caches.act),
            config.p0_act,
            &config.policy,
            bw_shots,
        )?;
        Ok(Self {
            query,
            config,
            detector,
            recognizer,
            obj_states,
            act_state,
            indicators: Vec::new(),
            records: Vec::new(),
            gaps: Vec::new(),
            stats: InferenceStats::default(),
            clips_since_refresh: 0,
            planner: BudgetState::default(),
            scratch: EvalScratch::default(),
            k_obj: Vec::new(),
            min_accept: Vec::new(),
            tracer: Tracer::disabled(),
        })
    }

    /// Installs a tracer: every subsequent clip emits an `online.clip` span
    /// with decision fields plus `online.*` / `detect.*` counters derived
    /// from the per-clip [`InferenceStats`] deltas.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Builder-style `Self::set_tracer`.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The query being processed.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Current critical values: one per object predicate, then the action's.
    pub fn critical_values(&self) -> (Vec<u64>, u64) {
        (
            self.obj_states.iter().map(|s| s.k_crit).collect(),
            self.act_state.k_crit,
        )
    }

    /// Current background-probability estimates (initial values under SVAQ).
    pub fn background_estimates(&self) -> (Vec<f64>, f64) {
        (
            self.obj_states.iter().map(|s| s.p_current).collect(),
            self.act_state.p_current,
        )
    }

    /// Processes one clip; returns its query indicator `𝟙_q(c)`.
    ///
    /// Infallible convenience over [`Self::try_push_clip`]: panics if the
    /// clip aborts, which requires both [`DegradationPolicy::Abort`] and a
    /// model whose fallible path actually fails — use `try_push_clip` in
    /// that configuration.
    ///
    /// [`DegradationPolicy::Abort`]: crate::config::DegradationPolicy::Abort
    // Documented panicking convenience; Abort-policy callers use
    // `try_push_clip`.
    #[allow(clippy::expect_used)]
    pub fn push_clip(&mut self, clip: &ClipView) -> bool {
        self.try_push_clip(clip)
            .expect("only DegradationPolicy::Abort with a faulting model can fail")
    }

    /// Processes one clip through the fallible model paths; returns its
    /// query indicator `𝟙_q(c)`.
    ///
    /// Faults surviving the configured retries degrade per the configured
    /// [`DegradationPolicy`](crate::config::DegradationPolicy): a gap clip
    /// records a [`GapMarker`], contributes a negative indicator, and is
    /// excluded from background estimation; `Abort` surfaces
    /// [`VaqError::DetectorUnavailable`].
    pub fn try_push_clip(&mut self, clip: &ClipView) -> Result<bool> {
        // Wall-clock overhead metric only; never feeds query decisions.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let mut clip_span = trace::span!(&self.tracer, "online.clip", "clip" = clip.id.raw());
        let stats_before = self.stats;
        self.k_obj.clear();
        self.k_obj.extend(self.obj_states.iter().map(|s| s.k_crit));
        let plan = self
            .config
            .planner
            .enabled
            .then(|| self.build_clip_plan(clip));
        let probe = match &plan {
            Some(plan) => Probe::Planned(plan),
            None => Probe::Exhaustive(self.config.degradation),
        };
        let (evaluation, gap) = evaluate_clip(
            &self.query,
            clip,
            self.detector,
            self.recognizer,
            self.config.t_obj,
            self.config.t_act,
            &self.k_obj,
            self.act_state.k_crit,
            &self.config.retry,
            probe,
            &mut self.scratch,
            &mut self.stats,
        )?;
        if let Some(plan) = plan {
            self.planner.record_clip(
                self.stats
                    .detector_elided
                    .saturating_sub(stats_before.detector_elided),
                self.stats
                    .recognizer_elided
                    .saturating_sub(stats_before.recognizer_elided),
            );
            self.min_accept = plan.obj_min_accept;
        }
        if let Some(reason) = gap {
            // A gap clip feeds nothing: its events are absent or partial in
            // a way the estimators must not mistake for observed background.
            self.stats.record_gap();
            self.gaps.push(GapMarker {
                clip: clip.id,
                reason,
            });
        } else {
            self.absorb(&evaluation);
            self.explore_action_background(clip, &evaluation);
        }
        self.indicators.push(evaluation.indicator);
        self.records.push(ClipRecord {
            object_counts: evaluation.object_counts,
            object_indicators: evaluation.object_indicators,
            action_count: evaluation.action_count,
            action_indicator: evaluation.action_indicator,
            indicator: evaluation.indicator,
            gap,
        });
        if self.tracer.is_enabled() {
            let d = |now: u64, was: u64| now.saturating_sub(was);
            let frames = d(self.stats.detector_frames, stats_before.detector_frames);
            let shots = d(self.stats.recognizer_shots, stats_before.recognizer_shots);
            let short_circuited = d(
                self.stats.clips_short_circuited,
                stats_before.clips_short_circuited,
            );
            clip_span.record("indicator", evaluation.indicator);
            clip_span.record("short_circuit", short_circuited > 0);
            clip_span.record("frames", frames);
            clip_span.record("shots", shots);
            if let Some(reason) = gap {
                clip_span.record("gap", format!("{reason:?}"));
            }
            self.tracer.counter_add("online.clips", 1);
            self.tracer
                .counter_add("online.positive", u64::from(evaluation.indicator));
            self.tracer
                .counter_add("online.short_circuit", short_circuited);
            self.tracer
                .counter_add("online.gaps", u64::from(gap.is_some()));
            self.tracer.counter_add("detect.frames", frames);
            self.tracer.counter_add(
                "detect.frames_cached",
                d(self.stats.detector_cached, stats_before.detector_cached),
            );
            self.tracer.counter_add("detect.shots", shots);
            self.tracer.counter_add(
                "detect.shots_cached",
                d(self.stats.recognizer_cached, stats_before.recognizer_cached),
            );
            self.tracer.counter_add(
                "detect.faults",
                d(self.stats.detector_faults, stats_before.detector_faults)
                    + d(self.stats.recognizer_faults, stats_before.recognizer_faults),
            );
            self.tracer.counter_add(
                "detect.retries",
                d(self.stats.retries, stats_before.retries),
            );
            // Planner counters exist only on planned runs, keeping golden
            // traces of exhaustive runs untouched.
            if self.config.planner.enabled {
                self.tracer.counter_add(
                    "planner.elide",
                    d(self.stats.detector_elided, stats_before.detector_elided)
                        + d(self.stats.recognizer_elided, stats_before.recognizer_elided),
                );
                self.tracer.counter_add(
                    "planner.decide",
                    d(
                        self.stats.clips_decided_early,
                        stats_before.clips_decided_early,
                    ),
                );
            }
        }
        // The wall-clock time of the whole clip: the engine's bookkeeping
        // and the models' own CPU time (a simulated model's draws, or a
        // wrapper's work), but none of the *simulated* model milliseconds,
        // which are accounted separately.
        self.stats
            .record_engine(started.elapsed().as_secs_f64() * 1e3);
        Ok(evaluation.indicator)
    }

    /// Builds the elision plan for one clip from the engine's *current*
    /// scan state (critical values move under SVAQD, so the plan is
    /// per-clip). Under the Dynamic policy the accept floors are the live
    /// censor thresholds: a window truncated at or above its threshold is
    /// discarded by [`PredicateState::offer`] in the exhaustive engine
    /// too, which is what makes the truncation estimator-invisible
    /// (DESIGN.md §14). Reads the clip's critical values from `k_obj`
    /// and builds the accept floors in the `min_accept` buffer.
    fn build_clip_plan(&mut self, clip: &ClipView) -> ClipPlan {
        let dynamic = matches!(self.config.policy, ParameterPolicy::Dynamic { .. });
        let mut obj_min_accept = std::mem::take(&mut self.min_accept);
        obj_min_accept.clear();
        let act_min_accept = if dynamic {
            obj_min_accept.extend(self.obj_states.iter().map(|s| s.censor_threshold()));
            self.act_state.censor_threshold()
        } else {
            obj_min_accept.resize(self.obj_states.len(), 0);
            0
        };
        ClipPlan::build(
            dynamic,
            conv::len_u64(clip.num_frames()),
            conv::len_u64(clip.num_shots()),
            &self.k_obj,
            self.act_state.k_crit,
            obj_min_accept,
            act_min_accept,
            &self.planner,
        )
    }

    /// Records `clip` as a typed gap without evaluating it: a forced
    /// negative indicator, a [`GapMarker`], and a [`ClipRecord`] whose
    /// `gap` field carries `reason` — and **no** model invocations or
    /// background-estimator feeds. The service layer uses this when its
    /// overload policy drops a clip (shed, deadline miss, stalled tenant)
    /// so the engine's clip positions stay aligned with the stream even
    /// though the clip was never looked at.
    ///
    /// Gap clips recorded this way are indistinguishable in the result
    /// shape from fault-degraded clips: excluded from estimation, counted
    /// in `stats.clips_gapped`, negative in the indicator sequence.
    pub(crate) fn push_gap(&mut self, clip: ClipId, reason: GapReason) {
        let n_obj = self.query.objects.len();
        self.stats.record_gap();
        self.gaps.push(GapMarker { clip, reason });
        self.indicators.push(false);
        self.records.push(ClipRecord {
            object_counts: vec![0; n_obj],
            object_indicators: vec![false; n_obj],
            action_count: None,
            action_indicator: None,
            indicator: false,
            gap: Some(reason),
        });
        if self.tracer.is_enabled() {
            let mut span = trace::span!(&self.tracer, "online.clip", "clip" = clip.raw());
            span.record("indicator", false);
            span.record("gap", format!("{reason:?}"));
            self.tracer.counter_add("online.clips", 1);
            self.tracer.counter_add("online.gaps", 1);
        }
    }

    /// SVAQD bookkeeping after a clip: feed estimators, refresh critical
    /// values per the update policy.
    ///
    /// **Censoring.** §3.2 defines the background probability as the rate of
    /// positive predictions *"when the query predicates are not satisfied"*.
    /// Feeding every clip into the estimator would converge it to the
    /// overall (signal-inflated) rate, saturate the critical value at the
    /// window length, and fragment true sequences — the estimator would
    /// unlearn exactly the events it is meant to detect. Feeding only clips
    /// whose indicator was negative has the opposite degeneracy: at
    /// `k_crit = 1` the negative clips are event-free *by construction* and
    /// the estimate collapses to zero. The robust rule, used here: a clip is
    /// censored from background estimation only when its event count
    /// reaches **`clamp(k_crit, 2, ⌈w/2⌉)`** — a clip flagged positive is signal and
    /// leaves the background sample, except in the `k_crit = 1` bootstrap
    /// regime where single-event clips (the false positives the estimator
    /// exists to measure) must still feed it. This is self-stabilizing from
    /// both directions: a too-small `p₀` (k = 1) still absorbs 1-event
    /// clips and calibrates up to the detector's real false-positive rate;
    /// a too-large `p₀` lets signal clips feed only until the critical
    /// value settles below their counts, after which they leave the
    /// background sample.
    fn absorb(&mut self, evaluation: &ClipEvaluation) {
        let ParameterPolicy::Dynamic { update, .. } = self.config.policy else {
            return;
        };
        for ((state, events), &count) in self
            .obj_states
            .iter_mut()
            .zip(&self.scratch.object_events)
            .zip(&evaluation.object_counts)
        {
            state.offer(events, count);
        }
        if let Some(count) = evaluation.action_count {
            self.act_state.offer(&self.scratch.action_events, count);
        }
        self.clips_since_refresh += 1;
        let refresh = match update {
            UpdatePolicy::EveryClip => true,
            UpdatePolicy::PositiveClips => evaluation.indicator,
            UpdatePolicy::EveryNClips(n) => self.clips_since_refresh >= n,
        };
        if refresh {
            self.clips_since_refresh = 0;
            for state in &mut self.obj_states {
                state.refresh();
            }
            self.act_state.refresh();
        }
    }

    /// Background exploration for the action estimator. Short-circuiting
    /// (Algorithm 2) means the recognizer normally runs only on clips whose
    /// object predicates all passed — a sample *conditioned on signal
    /// regions*, which would bias the action's background-rate estimate
    /// upward (object and action presence are correlated; that correlation
    /// is the whole point of the query). To keep the estimate honest, every
    /// [`Self::EXPLORE_EVERY`]-th short-circuited clip still runs the
    /// recognizer, purely to feed the estimator — the clip's query
    /// indicator is already decided. The extra inference cost is accounted
    /// like any other recognizer invocation.
    fn explore_action_background(&mut self, clip: &ClipView, evaluation: &ClipEvaluation) {
        const _: () = assert!(OnlineEngine::EXPLORE_EVERY > 0);
        if !matches!(self.config.policy, ParameterPolicy::Dynamic { .. })
            || evaluation.action_count.is_some()
        {
            return;
        }
        if clip.id.raw() % Self::EXPLORE_EVERY != 0 {
            return;
        }
        // Exploration is best-effort and never retried: a faulted shot is
        // simply not sampled. The clip's query indicator is already decided,
        // so a fault here can only thin the background sample. The
        // scratch's action events are free: this clip evaluated no action.
        let (events, preds) = (
            &mut self.scratch.action_events,
            &mut self.scratch.predictions,
        );
        events.clear();
        for shot in clip.shots() {
            preds.clear();
            match self
                .recognizer
                .try_recognize_traced(&shot, &[self.query.action], 0, preds)
            {
                Ok(provenance) => {
                    match provenance {
                        CallProvenance::Executed => self
                            .stats
                            .record_recognizer(1, self.recognizer.latency_ms()),
                        CallProvenance::Cached => self.stats.record_recognizer_cached(1),
                    }
                    events.push(
                        preds
                            .iter()
                            .any(|p| p.action == self.query.action && p.score >= self.config.t_act),
                    );
                }
                Err(_) => self.stats.record_recognizer_fault(),
            }
        }
        if events.is_empty() {
            return;
        }
        let count = conv::count_true(events);
        self.act_state.offer(events, count);
    }

    /// Result sequences over the clips processed so far (Eq. 4).
    pub fn sequences(&self) -> SequenceSet {
        SequenceSet::from_indicator(&self.indicators)
    }

    /// Per-clip indicator log.
    pub fn indicators(&self) -> &[bool] {
        &self.indicators
    }

    /// Gap markers recorded so far (empty on a clean run).
    pub fn gaps(&self) -> &[GapMarker] {
        &self.gaps
    }

    /// Cost accounting so far.
    pub fn stats(&self) -> &InferenceStats {
        &self.stats
    }

    /// Drains a stream to its end and returns the full result.
    pub fn run(mut self, stream: VideoStream<'_>) -> OnlineResult {
        for clip in stream {
            self.push_clip(&clip);
        }
        self.into_result()
    }

    /// Drains a stream to its end through the fallible clip path.
    pub fn try_run(mut self, stream: VideoStream<'_>) -> Result<OnlineResult> {
        for clip in stream {
            self.try_push_clip(&clip)?;
        }
        Ok(self.into_result())
    }

    /// Finalizes the engine into its result.
    pub fn into_result(self) -> OnlineResult {
        OnlineResult {
            sequences: SequenceSet::from_indicator(&self.indicators),
            records: self.records,
            gaps: self.gaps,
            stats: self.stats,
        }
    }

    /// Snapshots the full engine state at a clip boundary. Restoring the
    /// checkpoint with [`Self::restore`] and feeding the remaining clips
    /// reproduces the uninterrupted run bit for bit (modulo wall-clock
    /// `engine_ms`).
    pub fn checkpoint(&self) -> EngineCheckpoint {
        EngineCheckpoint {
            format_version: vaq_types::format::ENGINE_CHECKPOINT_VERSION,
            clips_processed: conv::len_u64(self.indicators.len()),
            indicators: self.indicators.clone(),
            records: self.records.clone(),
            gaps: self.gaps.clone(),
            stats: self.stats,
            obj_states: self.obj_states.iter().map(|s| s.checkpoint()).collect(),
            act_state: self.act_state.checkpoint(),
            clips_since_refresh: self.clips_since_refresh,
            planner: self.planner,
        }
    }

    /// Rebuilds an engine from a checkpoint taken by [`Self::checkpoint`].
    ///
    /// `query`, `config`, and `geometry` must match the checkpointing
    /// engine's — they are not embedded in the checkpoint (models are not
    /// serializable), so mismatches are detected only structurally: wrong
    /// predicate counts or a static/dynamic policy flip are rejected, a
    /// same-shaped different query is the caller's responsibility.
    pub fn restore(
        query: Query,
        config: OnlineConfig,
        geometry: &VideoGeometry,
        detector: &'m dyn ObjectDetector,
        recognizer: &'m dyn ActionRecognizer,
        checkpoint: &EngineCheckpoint,
    ) -> Result<Self> {
        let mut engine = Self::new(query, config, geometry, detector, recognizer)?;
        if checkpoint.obj_states.len() != engine.obj_states.len() {
            return Err(VaqError::InvalidConfig(format!(
                "checkpoint has {} object-predicate states, query has {}",
                checkpoint.obj_states.len(),
                engine.obj_states.len()
            )));
        }
        let n = conv::len_u64(checkpoint.indicators.len());
        if checkpoint.clips_processed != n || conv::len_u64(checkpoint.records.len()) != n {
            return Err(VaqError::InvalidConfig(format!(
                "corrupt checkpoint: clips_processed={} but {} indicators, {} records",
                checkpoint.clips_processed,
                n,
                checkpoint.records.len()
            )));
        }
        for (state, c) in engine.obj_states.iter_mut().zip(&checkpoint.obj_states) {
            state.restore_from(c)?;
        }
        engine.act_state.restore_from(&checkpoint.act_state)?;
        engine.indicators = checkpoint.indicators.clone();
        engine.records = checkpoint.records.clone();
        engine.gaps = checkpoint.gaps.clone();
        engine.stats = checkpoint.stats;
        engine.clips_since_refresh = checkpoint.clips_since_refresh;
        engine.planner = checkpoint.planner;
        Ok(engine)
    }
}

/// Serializable snapshot of a whole [`OnlineEngine`] at a clip boundary —
/// everything needed to resume the stream where it stopped, except the
/// models themselves.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineCheckpoint {
    /// Checkpoint schema version (`format::ENGINE_CHECKPOINT_VERSION`);
    /// absent in JSON written before versioning, which marks a
    /// pre-versioning checkpoint and reads as version 1.
    pub format_version: u32,
    /// Clips fed to the engine before the snapshot (== resume position).
    pub clips_processed: u64,
    indicators: Vec<bool>,
    records: Vec<ClipRecord>,
    gaps: Vec<GapMarker>,
    stats: InferenceStats,
    obj_states: Vec<PredicateCheckpoint>,
    act_state: PredicateCheckpoint,
    clips_since_refresh: u32,
    /// The elision planner's budget ledger; absent in checkpoints written
    /// before the planner existed (restores as all zeros).
    planner: BudgetState,
}

vaq_types::json_record!(EngineCheckpoint: #[default] format_version, clips_processed, indicators,
    records, gaps, stats, obj_states, act_state, clips_since_refresh, #[default] planner);

impl EngineCheckpoint {
    /// Serializes the checkpoint to JSON.
    pub fn to_json(&self) -> Result<String> {
        vaq_types::json::to_string(self)
    }

    /// Parses a checkpoint from JSON produced by [`Self::to_json`].
    ///
    /// Rejects versions newer than this build can read with
    /// [`VaqError::UnsupportedFormatVersion`]. Pre-versioning JSON (no
    /// `format_version` field) deserializes as 0 and is normalized to its
    /// effective version so legacy checkpoints compare equal to fresh ones.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut checkpoint: Self = vaq_types::json::from_str(json)?;
        vaq_types::format::check_version(
            "engine checkpoint",
            checkpoint.format_version,
            vaq_types::format::ENGINE_CHECKPOINT_VERSION,
        )?;
        checkpoint.format_version = vaq_types::format::effective_version(checkpoint.format_version);
        Ok(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_detect::profiles;
    use vaq_detect::{SimulatedActionRecognizer, SimulatedObjectDetector};
    use vaq_types::{ActionType, ClipInterval, ObjectType};
    use vaq_video::SceneScriptBuilder;

    fn o(i: u32) -> ObjectType {
        ObjectType::new(i)
    }
    fn a(i: u32) -> ActionType {
        ActionType::new(i)
    }

    const G: VideoGeometry = VideoGeometry::PAPER_DEFAULT;

    /// Object 1 on clips 4..14 (frames 200..700 minus tail), action on
    /// clips 6..17 — ground truth for q(a0; o1) is clips 6..13.
    fn script() -> vaq_video::SceneScript {
        let mut b = SceneScriptBuilder::new(1500, G);
        b.object_span(o(1), 200, 700).unwrap();
        b.action_span(a(0), 300, 900).unwrap();
        b.build()
    }

    fn ideal_models() -> (SimulatedObjectDetector, SimulatedActionRecognizer) {
        (
            SimulatedObjectDetector::new(profiles::ideal_object(), 86, 1),
            SimulatedActionRecognizer::new(profiles::ideal_action(), 36, 1),
        )
    }

    #[test]
    fn svaq_recovers_ground_truth_with_ideal_models() {
        let s = script();
        let (det, rec) = ideal_models();
        let engine = OnlineEngine::new(
            Query::new(a(0), vec![o(1)]),
            OnlineConfig::svaq(),
            &G,
            &det,
            &rec,
        )
        .unwrap();
        let result = engine.run(vaq_video::VideoStream::new(&s));
        let gt = s.ground_truth(&Query::new(a(0), vec![o(1)]), 0.5);
        assert_eq!(result.sequences, gt, "got {} want {}", result.sequences, gt);
    }

    #[test]
    fn svaqd_recovers_ground_truth_with_ideal_models() {
        let s = script();
        let (det, rec) = ideal_models();
        let engine = OnlineEngine::new(
            Query::new(a(0), vec![o(1)]),
            OnlineConfig::svaqd(),
            &G,
            &det,
            &rec,
        )
        .unwrap();
        let result = engine.run(vaq_video::VideoStream::new(&s));
        let gt = s.ground_truth(&Query::new(a(0), vec![o(1)]), 0.5);
        assert_eq!(result.sequences, gt);
    }

    #[test]
    fn noisy_models_still_find_the_sequence() {
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 11);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 11);
        let engine = OnlineEngine::new(
            Query::new(a(0), vec![o(1)]),
            OnlineConfig::svaqd(),
            &G,
            &det,
            &rec,
        )
        .unwrap();
        let result = engine.run(vaq_video::VideoStream::new(&s));
        let gt = ClipInterval::new(6, 13);
        assert!(
            result
                .sequences
                .intervals()
                .iter()
                .any(|iv| iv.iou(&gt) >= 0.5),
            "no sequence matching GT {gt}: got {}",
            result.sequences
        );
    }

    #[test]
    fn svaqd_updates_estimates_svaq_does_not() {
        // With a noisy detector, SVAQD's censored background estimate moves
        // from the prior toward the detector's effective false-positive
        // rate; SVAQ's stays pinned at p0.
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 5);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 5);
        let q = Query::new(a(0), vec![o(1)]);

        let mut svaq = OnlineEngine::new(q.clone(), OnlineConfig::svaq(), &G, &det, &rec).unwrap();
        let mut svaqd =
            OnlineEngine::new(q.clone(), OnlineConfig::svaqd(), &G, &det, &rec).unwrap();
        let stream = vaq_video::VideoStream::new(&s);
        for clip in stream {
            svaq.push_clip(&clip);
            svaqd.push_clip(&clip);
        }
        let (svaq_p, _) = svaq.background_estimates();
        assert_eq!(svaq_p, vec![1e-4], "SVAQ keeps p0");
        let (svaqd_p, _) = svaqd.background_estimates();
        assert!(
            svaqd_p[0] > 3e-4,
            "SVAQD estimate {} should have moved toward the FP rate",
            svaqd_p[0]
        );
        // Censoring keeps the estimate at background (FP) level, far below
        // the object's 1/3 presence duty.
        assert!(svaqd_p[0] < 0.05, "estimate {} absorbed signal", svaqd_p[0]);
    }

    #[test]
    fn svaqd_critical_values_calibrate_to_detector_noise() {
        // A wildly optimistic prior (p0 = 1e-6 ⇒ k_crit = 1) is corrected
        // upward once the estimator sees the detector's real FP rate.
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 5);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 5);
        let q = Query::new(a(0), vec![o(1)]);
        let cfg = OnlineConfig::svaqd().with_p0(1e-6);
        let mut engine = OnlineEngine::new(q, cfg, &G, &det, &rec).unwrap();
        let (k0, _) = engine.critical_values();
        assert_eq!(k0, vec![1], "p0=1e-6 starts at k=1");
        for clip in vaq_video::VideoStream::new(&s) {
            engine.push_clip(&clip);
        }
        let (k1, _) = engine.critical_values();
        assert!(k1[0] > k0[0], "k_crit should rise: {} -> {}", k0[0], k1[0]);
    }

    #[test]
    fn short_circuit_accounting_flows_through() {
        let s = script();
        let (det, rec) = ideal_models();
        let q = Query::new(a(0), vec![o(1)]);
        let engine = OnlineEngine::new(q, OnlineConfig::svaq(), &G, &det, &rec).unwrap();
        let result = engine.run(vaq_video::VideoStream::new(&s));
        // Object predicate holds on clips 4..13 (10 clips of 30): 20 clips
        // short-circuit and never reach the recognizer.
        assert_eq!(result.stats.clips_short_circuited, 20);
        assert_eq!(result.stats.recognizer_shots, 10 * 5);
        assert_eq!(result.stats.detector_frames, 30 * 50);
    }

    #[test]
    fn records_align_with_indicators() {
        let s = script();
        let (det, rec) = ideal_models();
        let q = Query::new(a(0), vec![o(1)]);
        let engine = OnlineEngine::new(q, OnlineConfig::svaq(), &G, &det, &rec).unwrap();
        let result = engine.run(vaq_video::VideoStream::new(&s));
        assert_eq!(result.records.len(), 30);
        for r in &result.records {
            assert_eq!(
                r.indicator,
                r.object_indicators[0] && r.action_indicator == Some(true)
            );
        }
    }

    #[test]
    fn update_policy_every_n_clips() {
        let s = script();
        let (det, rec) = ideal_models();
        let q = Query::new(a(0), vec![o(1)]);
        let cfg = OnlineConfig {
            policy: ParameterPolicy::Dynamic {
                bandwidth_clips: 60.0,
                update: UpdatePolicy::EveryNClips(10),
            },
            ..OnlineConfig::svaqd()
        };
        let mut engine = OnlineEngine::new(q, cfg, &G, &det, &rec).unwrap();
        let stream = vaq_video::VideoStream::new(&s);
        let mut clips = stream.collect::<Vec<_>>().into_iter();
        for clip in clips.by_ref().take(9) {
            engine.push_clip(&clip);
        }
        let (p_before, _) = engine.background_estimates();
        assert_eq!(p_before, vec![1e-4], "no refresh before 10 clips");
        engine.push_clip(&clips.next().unwrap());
        let (p_after, _) = engine.background_estimates();
        assert_ne!(p_after, vec![1e-4], "refresh on the 10th clip");
    }

    #[test]
    fn update_policy_positive_clips_refreshes_only_on_hits() {
        // Algorithm 3's literal update gate: estimates refresh only after
        // clips whose query indicator fired.
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 5);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 5);
        let q = Query::new(a(0), vec![o(1)]);
        let cfg = OnlineConfig {
            policy: ParameterPolicy::Dynamic {
                bandwidth_clips: 60.0,
                update: UpdatePolicy::PositiveClips,
            },
            ..OnlineConfig::svaqd()
        };
        let mut engine = OnlineEngine::new(q, cfg, &G, &det, &rec).unwrap();
        let mut last_p = engine.background_estimates().0[0];
        for clip in vaq_video::VideoStream::new(&s) {
            let positive = engine.push_clip(&clip);
            let p_now = engine.background_estimates().0[0];
            if !positive {
                assert_eq!(p_now, last_p, "estimate refreshed on a negative clip");
            }
            last_p = p_now;
        }
        // The stream has positive clips, so at least one refresh happened.
        assert_ne!(last_p, 1e-4);
    }

    #[test]
    fn exploration_sampling_accounts_recognizer_cost() {
        // Under SVAQD, a quarter of short-circuited clips still run the
        // recognizer for background estimation — and are billed for it.
        let s = script();
        let (det, rec) = ideal_models();
        let q = Query::new(a(0), vec![o(1)]);
        let svaq = OnlineEngine::new(q.clone(), OnlineConfig::svaq(), &G, &det, &rec)
            .unwrap()
            .run(vaq_video::VideoStream::new(&s));
        let svaqd = OnlineEngine::new(q, OnlineConfig::svaqd(), &G, &det, &rec)
            .unwrap()
            .run(vaq_video::VideoStream::new(&s));
        assert!(
            svaqd.stats.recognizer_shots > svaq.stats.recognizer_shots,
            "SVAQD explores: {} vs {}",
            svaqd.stats.recognizer_shots,
            svaq.stats.recognizer_shots
        );
        // Exploration is bounded by 1/EXPLORE_EVERY of the skipped clips.
        let explored = svaqd.stats.recognizer_shots - svaq.stats.recognizer_shots;
        let bound = svaq
            .stats
            .clips_short_circuited
            .div_ceil(OnlineEngine::EXPLORE_EVERY)
            * u64::from(G.shots_per_clip);
        assert!(explored <= bound, "explored {explored} > bound {bound}");
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let (det, rec) = ideal_models();
        let bad = OnlineConfig {
            alpha: 2.0,
            ..OnlineConfig::svaq()
        };
        assert!(OnlineEngine::new(Query::new(a(0), vec![o(1)]), bad, &G, &det, &rec).is_err());
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        // Noisy models + SVAQD (the hardest case: live estimators, censor
        // pipeline state). Kill at every 7th clip boundary, restore, resume:
        // the result must match the uninterrupted run exactly.
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 11);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 11);
        let q = Query::new(a(0), vec![o(1)]);
        let cfg = OnlineConfig::svaqd();
        let clips: Vec<_> = vaq_video::VideoStream::new(&s).collect();

        let mut reference = OnlineEngine::new(q.clone(), cfg, &G, &det, &rec).unwrap();
        for clip in &clips {
            reference.push_clip(clip);
        }
        let reference = reference.into_result();

        for cut in [1, 7, 14, 29] {
            let mut first = OnlineEngine::new(q.clone(), cfg, &G, &det, &rec).unwrap();
            for clip in &clips[..cut] {
                first.push_clip(clip);
            }
            let ckpt = EngineCheckpoint::from_json(&first.checkpoint().to_json().unwrap()).unwrap();
            drop(first); // the "crash"
            let mut resumed = OnlineEngine::restore(q.clone(), cfg, &G, &det, &rec, &ckpt).unwrap();
            assert_eq!(ckpt.clips_processed, cut as u64);
            for clip in &clips[cut..] {
                resumed.push_clip(clip);
            }
            let resumed = resumed.into_result();
            assert_eq!(resumed.sequences, reference.sequences, "cut at {cut}");
            assert_eq!(resumed.records, reference.records, "cut at {cut}");
            assert_eq!(
                resumed.stats.detector_frames, reference.stats.detector_frames,
                "cut at {cut}"
            );
            assert_eq!(
                resumed.stats.recognizer_shots, reference.stats.recognizer_shots,
                "cut at {cut}"
            );
        }
    }

    /// One clip record's decisions: indicator, object indicators, action
    /// indicator.
    type RecordDecisions = (bool, Vec<bool>, Option<bool>);

    /// The decision-relevant projection of a result: everything except the
    /// probe-dependent measurement fields (`object_counts`, `action_count`)
    /// and the stats block, which the planner changes by design.
    fn decisions(r: &OnlineResult) -> (SequenceSet, Vec<RecordDecisions>, Vec<GapMarker>) {
        (
            r.sequences.clone(),
            r.records
                .iter()
                .map(|rec| {
                    (
                        rec.indicator,
                        rec.object_indicators.clone(),
                        rec.action_indicator,
                    )
                })
                .collect(),
            r.gaps.clone(),
        )
    }

    #[test]
    fn planner_matches_exhaustive_decisions_and_elides() {
        use crate::config::PlannerConfig;
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 11);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 11);
        let q = Query::new(a(0), vec![o(1)]);
        for base in [OnlineConfig::svaq(), OnlineConfig::svaqd()] {
            let exhaustive = OnlineEngine::new(q.clone(), base, &G, &det, &rec)
                .unwrap()
                .run(vaq_video::VideoStream::new(&s));
            let planned = OnlineEngine::new(
                q.clone(),
                base.with_planner(PlannerConfig::ON),
                &G,
                &det,
                &rec,
            )
            .unwrap()
            .run(vaq_video::VideoStream::new(&s));
            assert_eq!(
                decisions(&planned),
                decisions(&exhaustive),
                "policy {:?}",
                base.policy
            );
            assert!(
                planned.stats.elided_calls() > 0,
                "policy {:?} elided nothing",
                base.policy
            );
            assert!(planned.stats.clips_decided_early > 0);
            assert!(
                planned.stats.detector_frames < exhaustive.stats.detector_frames,
                "policy {:?}: {} !< {}",
                base.policy,
                planned.stats.detector_frames,
                exhaustive.stats.detector_frames
            );
        }
    }

    #[test]
    fn planner_checkpoint_resumes_identically() {
        use crate::config::PlannerConfig;
        // Planner-on SVAQD with noisy models: resume from every cut and
        // compare the *full* result including stats — the budget ledger
        // rides in the checkpoint, so even elision accounting matches.
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 11);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 11);
        let q = Query::new(a(0), vec![o(1)]);
        let cfg = OnlineConfig::svaqd().with_planner(PlannerConfig::ON);
        let clips: Vec<_> = vaq_video::VideoStream::new(&s).collect();

        let mut reference = OnlineEngine::new(q.clone(), cfg, &G, &det, &rec).unwrap();
        for clip in &clips {
            reference.push_clip(clip);
        }
        let reference = reference.into_result();
        assert!(reference.stats.elided_calls() > 0);

        for cut in [1, 7, 14, 29] {
            let mut first = OnlineEngine::new(q.clone(), cfg, &G, &det, &rec).unwrap();
            for clip in &clips[..cut] {
                first.push_clip(clip);
            }
            let ckpt = EngineCheckpoint::from_json(&first.checkpoint().to_json().unwrap()).unwrap();
            let mut resumed = OnlineEngine::restore(q.clone(), cfg, &G, &det, &rec, &ckpt).unwrap();
            for clip in &clips[cut..] {
                resumed.push_clip(clip);
            }
            let resumed = resumed.into_result();
            assert_eq!(resumed.sequences, reference.sequences, "cut at {cut}");
            assert_eq!(resumed.records, reference.records, "cut at {cut}");
            assert_eq!(
                resumed.stats.detector_elided, reference.stats.detector_elided,
                "cut at {cut}"
            );
            assert_eq!(
                resumed.stats.recognizer_elided, reference.stats.recognizer_elided,
                "cut at {cut}"
            );
            assert_eq!(
                resumed.stats.clips_decided_early, reference.stats.clips_decided_early,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn pre_planner_checkpoints_restore_with_zero_ledger() {
        let (det, rec) = ideal_models();
        let q = Query::new(a(0), vec![o(1)]);
        let engine = OnlineEngine::new(q, OnlineConfig::svaq(), &G, &det, &rec).unwrap();
        let json = engine.checkpoint().to_json().unwrap();
        // Strip the trailing planner field to reconstruct a checkpoint
        // written before the planner existed.
        let idx = json
            .rfind(",\"planner\"")
            .expect("planner ledger serialized last");
        let legacy = format!("{}}}", &json[..idx]);
        let restored = EngineCheckpoint::from_json(&legacy).unwrap();
        assert_eq!(restored.planner, BudgetState::default());
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let (det, rec) = ideal_models();
        let q1 = Query::new(a(0), vec![o(1)]);
        let q2 = Query::new(a(0), vec![o(1), o(2)]);
        let cfg = OnlineConfig::svaqd();
        let engine = OnlineEngine::new(q1.clone(), cfg, &G, &det, &rec).unwrap();
        let ckpt = engine.checkpoint();
        // Wrong predicate count.
        assert!(OnlineEngine::restore(q2, cfg, &G, &det, &rec, &ckpt).is_err());
        // Static/dynamic policy flip.
        assert!(OnlineEngine::restore(q1, OnlineConfig::svaq(), &G, &det, &rec, &ckpt).is_err());
    }

    #[test]
    fn corrupt_checkpoint_json_is_storage_error() {
        match EngineCheckpoint::from_json("{not json") {
            Err(vaq_types::VaqError::Storage(_)) => {}
            other => panic!("want Storage error, got {other:?}"),
        }
    }

    #[test]
    fn two_engines_share_one_critical_value_cache_across_threads() {
        // Two engines over the same shared caches on two threads must each
        // produce exactly what a private-cache engine produces — the cache
        // is a pure memoizer, so sharing only changes who computes first.
        // Run exhaustive and planned, so the planner's paths run threaded
        // too (the ThreadSanitizer CI step targets this test).
        use crate::config::PlannerConfig;
        let s = script();
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 11);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 11);
        let queries = [Query::new(a(0), vec![o(1)]), Query::action_only(a(0))];

        for (probe, cfg) in [
            ("exhaustive", OnlineConfig::svaqd()),
            (
                "planned",
                OnlineConfig::svaqd().with_planner(PlannerConfig::ON),
            ),
        ] {
            let reference: Vec<OnlineResult> = queries
                .iter()
                .map(|q| {
                    OnlineEngine::new(q.clone(), cfg, &G, &det, &rec)
                        .unwrap()
                        .run(vaq_video::VideoStream::new(&s))
                })
                .collect();

            let caches = SharedScanCaches::new(&cfg, &G).unwrap();
            let shared: Vec<OnlineResult> = std::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .iter()
                    .map(|q| {
                        let caches = caches.clone();
                        let (s, det, rec) = (&s, &det, &rec);
                        scope.spawn(move || {
                            OnlineEngine::with_shared_caches(q.clone(), cfg, &G, det, rec, &caches)
                                .unwrap()
                                .run(vaq_video::VideoStream::new(s))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("engine thread panicked"))
                    .collect()
            });

            for (i, (r, sh)) in reference.iter().zip(&shared).enumerate() {
                assert_eq!(r.sequences, sh.sequences, "{probe} query {i}");
                assert_eq!(r.records, sh.records, "{probe} query {i}");
            }
        }
    }

    #[test]
    fn two_engines_sharing_one_injector_fault_as_if_alone() {
        // One fault injector, with no inference cache, behind two engines
        // on two threads that step clip by clip in lockstep, so their
        // calls on each clip's frames and shots interleave. The engines
        // number their own attempts, so each sees exactly the faults it
        // sees with an injector of its own.
        use crate::config::{DegradationPolicy, RetryPolicy};
        use std::sync::Barrier;
        use vaq_detect::{FaultInjector, FaultSchedule};
        let s = script();
        let clips: Vec<_> = vaq_video::VideoStream::new(&s).collect();
        let cfg = OnlineConfig::svaqd()
            .with_degradation(DegradationPolicy::ImputeBackground)
            .with_retry(RetryPolicy::DEFAULT);
        fn injector<M>(model: M) -> FaultInjector<M> {
            let schedule = FaultSchedule::none(17)
                .with_transient_rate(0.3)
                .with_drop_rate(0.02);
            FaultInjector::new(model, schedule).unwrap()
        }
        let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 11);
        let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 11);
        let queries = [
            Query::new(a(0), vec![o(1)]),
            Query::new(a(0), vec![o(1), o(2)]),
        ];
        let run = |q: &Query,
                   det: &dyn ObjectDetector,
                   rec: &dyn ActionRecognizer,
                   lockstep: Option<&Barrier>| {
            let mut engine = OnlineEngine::new(q.clone(), cfg, &G, det, rec).unwrap();
            for clip in &clips {
                engine.try_push_clip(clip).unwrap();
                lockstep.map(Barrier::wait);
            }
            let mut result = engine.into_result();
            result.stats.engine_ms = 0.0;
            result
        };
        let alone: Vec<OnlineResult> = queries
            .iter()
            .map(|q| run(q, &injector(det.clone()), &injector(rec.clone()), None))
            .collect();
        let (det, rec) = (injector(det), injector(rec));
        let lockstep = Barrier::new(queries.len());
        let shared: Vec<OnlineResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|q| scope.spawn(|| run(q, &det, &rec, Some(&lockstep))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(alone.iter().all(|r| r.stats.detector_faults > 0));
        for (i, (alone, shared)) in alone.iter().zip(&shared).enumerate() {
            assert_eq!(alone.sequences, shared.sequences, "query {i}");
            assert_eq!(alone.records, shared.records, "query {i}");
            assert_eq!(alone.gaps, shared.gaps, "query {i}");
            assert_eq!(alone.stats, shared.stats, "query {i}");
        }
    }

    #[test]
    fn shared_caches_reject_mismatched_geometry() {
        let (det, rec) = ideal_models();
        let cfg = OnlineConfig::svaqd();
        let caches = SharedScanCaches::new(&cfg, &G).unwrap();
        let other = VideoGeometry {
            frames_per_shot: 20,
            ..G
        };
        let err = OnlineEngine::with_shared_caches(
            Query::new(a(0), vec![o(1)]),
            cfg,
            &other,
            &det,
            &rec,
            &caches,
        );
        assert!(err.is_err(), "geometry mismatch must be rejected");
    }

    #[test]
    fn clean_runs_have_no_gaps() {
        let s = script();
        let (det, rec) = ideal_models();
        let q = Query::new(a(0), vec![o(1)]);
        let engine = OnlineEngine::new(q, OnlineConfig::svaqd(), &G, &det, &rec).unwrap();
        let result = engine.try_run(vaq_video::VideoStream::new(&s)).unwrap();
        assert!(result.gaps.is_empty());
        assert_eq!(result.stats.clips_gapped, 0);
        assert!(result.records.iter().all(|r| r.gap.is_none()));
    }
}
