//! The standing-query service session: admission → bounded queue →
//! engine evaluation, all on simulated time.
//!
//! # Determinism contract (DESIGN.md §13)
//!
//! Every service decision — admit/reject, shed victim selection, deadline
//! timeouts, delivery latencies — is a pure function of the submission
//! schedule, the stream, and the configuration. Time is *simulated*
//! integer microseconds: a clip arrives at `tick × tick_us`, and the
//! single logical evaluator accumulates the engines' own simulated
//! inference milliseconds (plus a fixed per-item overhead) into
//! `busy_until`. No wall clock, no randomness, no hash-order iteration
//! anywhere on a decision path; the shed log and summary JSON are
//! byte-identical across runs and across checkpoint/restore.
//!
//! # Overload semantics
//!
//! Work items queue between stream ingestion and evaluation in a bounded
//! `ShedQueue`. When a clip arrives for a standing query and the queue
//! is full, the configured [`OverloadPolicy`] applies:
//!
//! * [`RejectNew`](OverloadPolicy::RejectNew) — the arriving item is shed;
//! * [`ShedLowestPriority`](OverloadPolicy::ShedLowestPriority) — the
//!   youngest strictly-lower-priority queued item is evicted in its
//!   favor, else the arrival is shed;
//! * [`Degrade`](OverloadPolicy::Degrade) — the arrival stream is thinned
//!   to every `keep_every`-th clip; survivors may overshoot the bound.
//!
//! A shed clip is not silently skipped: the owning engine records it via
//! [`OnlineEngine::push_gap`] as a typed [`GapReason::Shed`] /
//! [`GapReason::DeadlineExceeded`] gap, so clip positions stay aligned
//! with the stream and downstream consumers see *why* there is no answer
//! — the same fault-transparency discipline as DESIGN.md §8. Because the
//! service degrades by gapping, engines configured with
//! [`DegradationPolicy::Abort`] are rejected at host construction: a
//! fail-stop engine cannot live behind a shedding queue.

use super::queue::{PushOutcome, ShedQueue};
use super::registry::{QueryId, QueryRegistry, QuerySpec, StandingEntry};
use super::tenant::{query_weight, AdmissionController, RejectReason, ServiceLimits, TenantId};
use crate::compose::{self, ComposeContext};
use crate::config::{DegradationPolicy, OnlineConfig};
use crate::online::engine::{EngineCheckpoint, OnlineEngine, OnlineResult, SharedScanCaches};
use crate::online::indicator::GapReason;
use std::collections::BTreeMap;
use trace::Tracer;
use vaq_detect::{
    ActionRecognizer, CacheStats, CachedActionRecognizer, CachedObjectDetector, InferenceCache,
    InferenceStats, ObjectDetector,
};
use vaq_types::json::{self, FromJson, ObjectWriter, Record, Schema, ToJson, Value};
use vaq_types::{conv, ClipId, Query, Result, SequenceSet, VaqError, VideoGeometry};
use vaq_video::ClipView;

/// What the service does when a clip arrives for a standing query and the
/// backpressure queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Shed the arriving item; queued work is never disturbed.
    RejectNew,
    /// Evict the youngest strictly-lower-priority queued item in favor of
    /// the arrival; shed the arrival if no such victim exists.
    ShedLowestPriority,
    /// Thin every query's clip stream to one clip in `keep_every` while
    /// the queue is full; kept clips enqueue past the bound.
    Degrade {
        /// Keep every `keep_every`-th clip (by clip index); minimum 1.
        keep_every: u32,
    },
}

impl std::fmt::Display for OverloadPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadPolicy::RejectNew => write!(f, "reject-new"),
            OverloadPolicy::ShedLowestPriority => write!(f, "shed-lowest-priority"),
            OverloadPolicy::Degrade { keep_every } => write!(f, "degrade/{keep_every}"),
        }
    }
}

/// Service-level configuration: capacity, backpressure, deadlines, and
/// the one engine configuration all standing queries run under (shared
/// critical-value caches require a single scan configuration).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Admission capacity and per-tenant quotas.
    pub limits: ServiceLimits,
    /// Backpressure queue bound, in work items (clip × query).
    pub queue_capacity: usize,
    /// What happens to arrivals when the queue is full.
    pub overload: OverloadPolicy,
    /// Queue-wait budget in simulated µs for queries that don't set one.
    /// An item whose evaluation would *start* later than this after its
    /// arrival is dropped as a [`GapReason::DeadlineExceeded`] gap.
    pub default_deadline_us: u64,
    /// Fixed simulated bookkeeping cost added per evaluated item, µs.
    pub per_item_overhead_us: u64,
    /// Simulated cost per detector frame the engine *requests*, µs.
    ///
    /// Cost is charged on requested work (frames/shots the engine asked
    /// for) rather than executed work, deliberately: which frames an
    /// engine requests is a pure function of its own checkpointed state,
    /// while executed-vs-cached depends on what *other* tenants evaluated
    /// first — charging executions would make timeout decisions depend on
    /// shared-cache state that a checkpoint does not (and should not)
    /// carry, breaking bit-identical resume.
    pub frame_cost_us: u64,
    /// Simulated cost per recognizer shot the engine requests, µs.
    pub shot_cost_us: u64,
    /// Engine configuration shared by every standing query.
    pub engine: OnlineConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            limits: ServiceLimits::default(),
            queue_capacity: 64,
            overload: OverloadPolicy::RejectNew,
            default_deadline_us: 2_000_000,
            per_item_overhead_us: 200,
            frame_cost_us: 20_000,
            shot_cost_us: 40_000,
            engine: OnlineConfig::svaqd(),
        }
    }
}

impl ServiceConfig {
    /// Validates the configuration. Engines behind a shedding queue must
    /// be able to degrade: `Abort` is rejected here rather than letting
    /// the first shed turn into a service-wide failure.
    pub fn validate(&self) -> Result<()> {
        self.engine.validate()?;
        if self.engine.degradation == DegradationPolicy::Abort {
            return Err(VaqError::InvalidConfig(
                "service engines cannot use DegradationPolicy::Abort: overload \
                 sheds clips as gaps, which a fail-stop engine cannot represent"
                    .into(),
            ));
        }
        if self.queue_capacity == 0 {
            return Err(VaqError::InvalidConfig(
                "service queue_capacity must be at least 1".into(),
            ));
        }
        if self.default_deadline_us == 0 {
            return Err(VaqError::InvalidConfig(
                "service default_deadline_us must be positive".into(),
            ));
        }
        if let OverloadPolicy::Degrade { keep_every } = self.overload {
            if keep_every == 0 {
                return Err(VaqError::InvalidConfig(
                    "Degrade keep_every must be at least 1".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Why a work item was dropped instead of evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// Queue full under [`OverloadPolicy::RejectNew`] (or no victim under
    /// shed-lowest-priority).
    QueueFull,
    /// Evicted from the queue by a higher-priority arrival.
    PriorityEvicted,
    /// Thinned out by [`OverloadPolicy::Degrade`].
    Degraded,
    /// Queue wait exceeded the query's deadline.
    DeadlineExceeded,
    /// The owning tenant was stalled when the clip arrived.
    TenantStalled,
    /// The query departed while the item was still queued.
    Departed,
}

vaq_types::json_unit_enum!(ShedCause: QueueFull, PriorityEvicted, Degraded, DeadlineExceeded,
    TenantStalled, Departed);

impl ShedCause {
    /// The typed gap the owning engine records for this shed.
    pub(crate) fn gap_reason(self) -> GapReason {
        match self {
            ShedCause::DeadlineExceeded => GapReason::DeadlineExceeded,
            _ => GapReason::Shed,
        }
    }
}

impl std::fmt::Display for ShedCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ShedCause::QueueFull => "queue-full",
            ShedCause::PriorityEvicted => "priority-evicted",
            ShedCause::Degraded => "degraded",
            ShedCause::DeadlineExceeded => "deadline-exceeded",
            ShedCause::TenantStalled => "tenant-stalled",
            ShedCause::Departed => "departed",
        };
        write!(f, "{s}")
    }
}

/// One shed decision, in decision order. The shed log is part of the
/// determinism contract: same schedule, same stream, same config ⇒
/// byte-identical log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedEvent {
    /// Tick at which the decision was made.
    pub tick: u64,
    /// Owning tenant.
    pub tenant: TenantId,
    /// The query whose clip was dropped.
    pub query: QueryId,
    /// The dropped clip index.
    pub clip: u64,
    /// Why it was dropped.
    pub cause: ShedCause,
}

vaq_types::json_record!(ShedEvent: tick, tenant, query, clip, cause);

/// Admission-path actions, logged in decision order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionAction {
    /// Submission admitted at the stated weight.
    Admitted {
        /// Detector-budget weight charged.
        weight: u64,
    },
    /// Submission rejected.
    Rejected {
        /// The failing admission gate.
        reason: RejectReason,
    },
    /// Standing query departed; `pending_dropped` queued items died with
    /// it.
    Departed {
        /// Queued items dropped at departure.
        pending_dropped: u64,
    },
    /// Tenant stalled until the stated tick (exclusive).
    Stalled {
        /// First tick at which the tenant is live again.
        until_tick: u64,
    },
}

impl ToJson for AdmissionAction {
    fn write_json(&self, out: &mut String) -> Result<()> {
        let (tag, key, value): (_, _, &dyn ToJson) = match self {
            AdmissionAction::Admitted { weight } => ("Admitted", "weight", weight),
            AdmissionAction::Rejected { reason } => ("Rejected", "reason", reason),
            AdmissionAction::Departed { pending_dropped } => {
                ("Departed", "pending_dropped", pending_dropped)
            }
            AdmissionAction::Stalled { until_tick } => ("Stalled", "until_tick", until_tick),
        };
        let mut o = ObjectWriter::variant(out, tag);
        o.field(key, value)?;
        o.end()
    }
}

impl FromJson for AdmissionAction {
    fn read_json(value: &Value) -> Result<Self> {
        let (tag, payload) = json::variant(value, "AdmissionAction")?;
        let r = Record::new(payload, "AdmissionAction")?;
        Ok(match tag {
            "Admitted" => AdmissionAction::Admitted {
                weight: r.field("weight")?,
            },
            "Rejected" => AdmissionAction::Rejected {
                reason: r.field("reason")?,
            },
            "Departed" => AdmissionAction::Departed {
                pending_dropped: r.field("pending_dropped")?,
            },
            "Stalled" => AdmissionAction::Stalled {
                until_tick: r.field("until_tick")?,
            },
            other => return Err(json::unknown_variant(other, "AdmissionAction")),
        })
    }

    fn schema(schema: &mut Schema) -> String {
        if let Some(mut decl) = schema.enumeration(module_path!(), "AdmissionAction") {
            decl.variant("Admitted").add::<u64>("weight", false);
            decl.variant("Rejected")
                .add::<RejectReason>("reason", false);
            decl.variant("Departed")
                .add::<u64>("pending_dropped", false);
            decl.variant("Stalled").add::<u64>("until_tick", false);
        }
        "AdmissionAction".to_string()
    }
}

/// One admission-path event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionEvent {
    /// Tick of the decision.
    pub tick: u64,
    /// The tenant involved.
    pub tenant: TenantId,
    /// The submission involved (absent for tenant-level events).
    pub query: Option<QueryId>,
    /// What happened.
    pub action: AdmissionAction,
}

vaq_types::json_record!(AdmissionEvent: tick, tenant, query, action);

/// Per-tenant service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantSummary {
    /// Submissions admitted.
    pub admitted: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Work items shed (all causes except deadline timeouts).
    pub shed: u64,
    /// Items dropped on deadline.
    pub timeouts: u64,
    /// Items evaluated and delivered.
    pub delivered: u64,
    /// Delivered items whose completion exceeded the deadline (started in
    /// time, finished late).
    pub late: u64,
}

vaq_types::json_record!(TenantSummary: admitted, rejected, shed, timeouts, delivered, late);

/// Delivery-latency digest over all delivered items, simulated µs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Items delivered.
    pub delivered: u64,
    /// Items delivered past their deadline.
    pub late: u64,
    /// Median delivery latency (nearest-rank).
    pub p50_us: u64,
    /// 95th-percentile delivery latency (nearest-rank).
    pub p95_us: u64,
    /// 99th-percentile delivery latency (nearest-rank).
    pub p99_us: u64,
    /// Worst delivery latency.
    pub max_us: u64,
}

/// A standing query's final output once it left the service.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedQuery {
    /// Submission identity.
    pub id: QueryId,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Tick the query was admitted.
    pub admitted_tick: u64,
    /// Tick the query departed; `None` if it ran to the end of the
    /// schedule.
    pub retired_tick: Option<u64>,
    /// The engine's result over the clips it saw (including shed gaps).
    /// For composite submissions this is leaf `0`'s result.
    pub result: OnlineResult,
    /// Extra leaf engines' results, in leaf order (composite submissions
    /// only; leaf `i ≥ 1` is `extra_results[i - 1]`).
    pub extra_results: Vec<OnlineResult>,
    /// The composed sequence set over the decided leaf sets (composite
    /// submissions only), evaluated at departure over the clip domain
    /// the service had streamed by then.
    pub composite: Option<SequenceSet>,
}

vaq_types::json_record!(CompletedQuery: id, tenant, admitted_tick, retired_tick, result,
    #[default] extra_results, #[default] composite);

/// Everything a finished service run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Ticks (clips) processed.
    pub ticks: u64,
    /// Completed queries in submission order.
    pub completed: Vec<CompletedQuery>,
    /// Every shed decision, in decision order.
    pub shed_log: Vec<ShedEvent>,
    /// Every admission decision, in decision order.
    pub admission_log: Vec<AdmissionEvent>,
    /// Delivery-latency digest.
    pub latency: LatencySummary,
    /// Per-tenant counters, in tenant order.
    pub tenants: BTreeMap<TenantId, TenantSummary>,
    /// All engines' cost accounting merged.
    pub stats: InferenceStats,
    /// Shared inference-cache counters.
    pub cache: CacheStats,
}

impl ServiceReport {
    /// The shed log as text, one line per decision — the byte-identical
    /// artifact the determinism tests compare.
    pub fn shed_log_text(&self) -> String {
        let mut out = String::new();
        for e in &self.shed_log {
            out.push_str(&format!(
                "tick={} tenant={} query={} clip={} cause={}\n",
                e.tick, e.tenant, e.query, e.clip, e.cause
            ));
        }
        out
    }

    /// Canonical summary JSON (stable key order, no wall-clock fields) —
    /// the second byte-identical artifact. Wall-clock `engine_ms` is
    /// deliberately absent: everything here is simulated and must
    /// reproduce exactly.
    pub fn summary_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"ticks\": {},\n", self.ticks));
        let admitted: u64 = self.tenants.values().map(|t| t.admitted).sum();
        let rejected: u64 = self.tenants.values().map(|t| t.rejected).sum();
        let shed: u64 = self.tenants.values().map(|t| t.shed).sum();
        let timeouts: u64 = self.tenants.values().map(|t| t.timeouts).sum();
        s.push_str(&format!(
            "  \"queries\": {{\"admitted\": {}, \"rejected\": {}, \"completed\": {}}},\n",
            admitted,
            rejected,
            self.completed.len()
        ));
        s.push_str(&format!(
            "  \"sheds\": {{\"total\": {}, \"timeouts\": {}}},\n",
            shed, timeouts
        ));
        s.push_str(&format!(
            "  \"latency_us\": {{\"delivered\": {}, \"late\": {}, \"p50\": {}, \"p95\": {}, \
             \"p99\": {}, \"max\": {}}},\n",
            self.latency.delivered,
            self.latency.late,
            self.latency.p50_us,
            self.latency.p95_us,
            self.latency.p99_us,
            self.latency.max_us
        ));
        s.push_str("  \"tenants\": {\n");
        let mut first = true;
        for (tenant, t) in &self.tenants {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            s.push_str(&format!(
                "    \"{}\": {{\"admitted\": {}, \"rejected\": {}, \"shed\": {}, \
                 \"timeouts\": {}, \"delivered\": {}, \"late\": {}}}",
                tenant, t.admitted, t.rejected, t.shed, t.timeouts, t.delivered, t.late
            ));
        }
        s.push_str("\n  },\n");
        s.push_str(&format!(
            "  \"inference\": {{\"detector_frames\": {}, \"detector_cached\": {}, \
             \"detector_elided\": {}, \"recognizer_shots\": {}, \"recognizer_cached\": {}, \
             \"recognizer_elided\": {}, \"clips_decided_early\": {}, \"clips_gapped\": {}}},\n",
            self.stats.detector_frames,
            self.stats.detector_cached,
            self.stats.detector_elided,
            self.stats.recognizer_shots,
            self.stats.recognizer_cached,
            self.stats.recognizer_elided,
            self.stats.clips_decided_early,
            self.stats.clips_gapped
        ));
        s.push_str(&format!(
            "  \"cache\": {{\"detector_hits\": {}, \"detector_misses\": {}, \
             \"recognizer_hits\": {}, \"recognizer_misses\": {}}}\n",
            self.cache.detector_hits,
            self.cache.detector_misses,
            self.cache.recognizer_hits,
            self.cache.recognizer_misses
        ));
        s.push('}');
        s
    }
}

/// One queued unit of work: one clip for one standing query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// The standing query.
    pub query: QueryId,
    /// Clip index in the stream.
    pub clip: u64,
    /// Simulated arrival time, µs.
    pub arrival_us: u64,
    /// Shed priority (copied from the spec for eviction decisions).
    pub priority: u8,
}

vaq_types::json_record!(WorkItem: query, clip, arrival_us, priority);

/// Crash-safe snapshot of a whole service session at a tick boundary,
/// built on the per-engine [`EngineCheckpoint`]s. Restoring against the
/// same host configuration and stream resumes bit-identically: the
/// remaining ticks produce exactly the output the uninterrupted run
/// would have.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCheckpoint {
    /// Checkpoint schema version; `0` (what an absent field reads as)
    /// marks a pre-versioning checkpoint and reads as version 1.
    pub format_version: u32,
    /// Next tick to process.
    pub tick: u64,
    busy_until_us: u64,
    registry: QueryRegistry,
    admission: AdmissionController,
    engines: Vec<(QueryId, EngineCheckpoint)>,
    /// Composite submissions' extra leaf engines, in leaf order (absent
    /// in checkpoints taken before composite support existed).
    extra_engines: Vec<(QueryId, Vec<EngineCheckpoint>)>,
    gap_backlog: Vec<(QueryId, Vec<(u64, GapReason)>)>,
    queued: Vec<WorkItem>,
    stalls: Vec<(TenantId, u64)>,
    completed: Vec<CompletedQuery>,
    shed_log: Vec<ShedEvent>,
    admission_log: Vec<AdmissionEvent>,
    latency_samples_us: Vec<u64>,
    late: u64,
    tenants: BTreeMap<TenantId, TenantSummary>,
}

vaq_types::json_record!(ServiceCheckpoint: #[default] format_version, tick, busy_until_us, registry,
    admission, engines, #[default] extra_engines, gap_backlog, queued, stalls, completed, shed_log,
    admission_log, latency_samples_us, late, tenants);

impl ServiceCheckpoint {
    /// Serializes the checkpoint to JSON.
    pub fn to_json(&self) -> Result<String> {
        json::to_string(self)
    }

    /// Parses a checkpoint from JSON produced by [`Self::to_json`],
    /// rejecting versions newer than this build understands.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut checkpoint: Self = json::from_str(json)?;
        vaq_types::format::check_version(
            "service checkpoint",
            checkpoint.format_version,
            vaq_types::format::SERVICE_CHECKPOINT_VERSION,
        )?;
        checkpoint.format_version = vaq_types::format::effective_version(checkpoint.format_version);
        Ok(checkpoint)
    }
}

/// Shared infrastructure every session borrows: the inference cache
/// wrappers (one detector pass per frame across *all* standing queries),
/// the critical-value caches, geometry, and configuration.
///
/// Split from [`StandingQueryService`] so the engines — which borrow the
/// cached models — never borrow from their own container.
pub struct ServiceHost<'m> {
    detector: CachedObjectDetector<'m>,
    recognizer: CachedActionRecognizer<'m>,
    cache: &'m InferenceCache,
    scan_caches: SharedScanCaches,
    geometry: VideoGeometry,
    config: ServiceConfig,
    tracer: Tracer,
}

impl<'m> ServiceHost<'m> {
    /// Builds a host over a caller-owned inference cache and models.
    pub fn new(
        cache: &'m InferenceCache,
        detector: &'m dyn ObjectDetector,
        recognizer: &'m dyn ActionRecognizer,
        geometry: &VideoGeometry,
        config: ServiceConfig,
    ) -> Result<Self> {
        Self::new_traced(
            cache,
            detector,
            recognizer,
            geometry,
            config,
            Tracer::disabled(),
        )
    }

    /// [`Self::new`] with telemetry: admission, shed, timeout, and
    /// delivery decisions emit `service.*` counters and the
    /// `service.delivery` latency histogram; engines emit their usual
    /// `online.*` / `detect.*` instrumentation. Results are bit-identical
    /// to the untraced host.
    pub fn new_traced(
        cache: &'m InferenceCache,
        detector: &'m dyn ObjectDetector,
        recognizer: &'m dyn ActionRecognizer,
        geometry: &VideoGeometry,
        config: ServiceConfig,
        tracer: Tracer,
    ) -> Result<Self> {
        config.validate()?;
        let scan_caches = SharedScanCaches::new_traced(&config.engine, geometry, &tracer)?;
        Ok(Self {
            detector: cache.detector(detector),
            recognizer: cache.recognizer(recognizer),
            cache,
            scan_caches,
            geometry: *geometry,
            config,
            tracer,
        })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Stream geometry the host serves.
    pub fn geometry(&self) -> &VideoGeometry {
        &self.geometry
    }

    /// Shared inference-cache counters so far.
    pub(crate) fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Simulated duration of one tick (one clip of stream time), µs.
    pub(crate) fn tick_us(&self) -> u64 {
        self.geometry.frames_per_clip() * 1_000_000 / conv::u64_of(self.geometry.fps)
    }

    /// Starts an empty session.
    pub fn session(&'m self) -> StandingQueryService<'m> {
        StandingQueryService {
            host: self,
            registry: QueryRegistry::new(),
            admission: AdmissionController::new(self.config.limits.clone()),
            engines: BTreeMap::new(),
            gap_backlog: BTreeMap::new(),
            queue: ShedQueue::new(self.config.queue_capacity),
            clip_window: BTreeMap::new(),
            stalls: BTreeMap::new(),
            busy_until_us: 0,
            tick: 0,
            completed: Vec::new(),
            shed_log: Vec::new(),
            admission_log: Vec::new(),
            latency_samples_us: Vec::new(),
            late: 0,
            tenants: BTreeMap::new(),
        }
    }

    /// Rebuilds a session from a [`ServiceCheckpoint`] taken against the
    /// same configuration and stream. Engines are restored through
    /// [`OnlineEngine::restore`]; queued work is re-enqueued in FIFO
    /// order. The caller must re-prime clips still referenced by the
    /// queue (see `StandingQueryService::prime_clip`; the smallest
    /// `clip` among the checkpoint's `queued` items is where to start).
    pub fn restore(&'m self, checkpoint: &ServiceCheckpoint) -> Result<StandingQueryService<'m>> {
        let mut session = self.session();
        session.registry = checkpoint.registry.clone();
        session.admission = checkpoint.admission.clone();
        // The wire layout keeps leaf 0 in `engines` and leaves 1… in
        // `extra_engines`; rejoin them per query, leaf 0 first.
        let mut leaf_ckpts: BTreeMap<QueryId, Vec<&EngineCheckpoint>> = BTreeMap::new();
        for (id, ckpt) in &checkpoint.engines {
            leaf_ckpts.entry(*id).or_default().push(ckpt);
        }
        for (id, ckpts) in &checkpoint.extra_engines {
            leaf_ckpts.entry(*id).or_default().extend(ckpts);
        }
        for (id, ckpts) in leaf_ckpts {
            let entry = session.registry.get(id).ok_or_else(|| {
                VaqError::InvalidConfig(format!(
                    "service checkpoint engine {id} has no registry entry"
                ))
            })?;
            let leaves = leaf_queries(&entry.spec);
            if leaves.len() != ckpts.len() {
                return Err(VaqError::InvalidConfig(format!(
                    "service checkpoint query {id} has {} engines for {} leaves",
                    ckpts.len(),
                    leaves.len()
                )));
            }
            let mut engines = Vec::with_capacity(ckpts.len());
            for (leaf, ckpt) in leaves.into_iter().zip(ckpts) {
                let mut engine = OnlineEngine::restore(
                    leaf.clone(),
                    self.config.engine,
                    &self.geometry,
                    &self.detector,
                    &self.recognizer,
                    ckpt,
                )?;
                engine.set_tracer(self.tracer.clone());
                engines.push(engine);
            }
            session.engines.insert(id, engines);
        }
        for (id, gaps) in &checkpoint.gap_backlog {
            session.gap_backlog.insert(*id, gaps.clone());
        }
        for item in &checkpoint.queued {
            session.queue.push_unbounded(*item, item.priority);
        }
        session.stalls = checkpoint.stalls.iter().copied().collect();
        session.busy_until_us = checkpoint.busy_until_us;
        session.tick = checkpoint.tick;
        session.completed = checkpoint.completed.clone();
        session.shed_log = checkpoint.shed_log.clone();
        session.admission_log = checkpoint.admission_log.clone();
        session.latency_samples_us = checkpoint.latency_samples_us.clone();
        session.late = checkpoint.late;
        session.tenants = checkpoint.tenants.clone();
        Ok(session)
    }
}

/// A live service session: the registry of standing queries, their
/// engines, and the backpressure queue, driven tick by tick.
pub struct StandingQueryService<'m> {
    host: &'m ServiceHost<'m>,
    registry: QueryRegistry,
    admission: AdmissionController,
    /// Each standing query's engines, one per leaf, leaf 0 first (a
    /// plain submission has one). A composite's leaves see exactly the
    /// same clips and gaps, so every leaf decides over the same stream
    /// positions.
    engines: BTreeMap<QueryId, Vec<OnlineEngine<'m>>>,
    /// Shed decisions not yet applied to their engine (applied lazily in
    /// clip order, interleaved with queued evaluations).
    gap_backlog: BTreeMap<QueryId, Vec<(u64, GapReason)>>,
    queue: ShedQueue<WorkItem>,
    /// Clips still referenced by queued items, keyed by clip index: the
    /// one owned copy of each clip, taken when its tick arrives. Served
    /// items borrow it; nothing else copies clip data.
    clip_window: BTreeMap<u64, ClipView>,
    /// Stalled tenants → first live tick (exclusive end of the stall).
    stalls: BTreeMap<TenantId, u64>,
    busy_until_us: u64,
    tick: u64,
    completed: Vec<CompletedQuery>,
    shed_log: Vec<ShedEvent>,
    admission_log: Vec<AdmissionEvent>,
    latency_samples_us: Vec<u64>,
    late: u64,
    tenants: BTreeMap<TenantId, TenantSummary>,
}

impl<'m> StandingQueryService<'m> {
    /// Next tick to process.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Work items currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Submits a query. Returns `Ok(Err(reason))` on a (normal,
    /// non-fatal) admission rejection; `Err` only for structural failures
    /// (invalid query/config).
    pub fn submit(
        &mut self,
        spec: QuerySpec,
    ) -> Result<std::result::Result<QueryId, RejectReason>> {
        let id = self.registry.next_submission_id();
        let tenant = spec.tenant;
        // Composite submissions are charged the sum of their leaves'
        // weights: every leaf runs a full engine.
        let mut weight = query_weight(&spec.query);
        if let Some(cs) = &spec.composite {
            if let Some(max_leaf) = cs.root.max_leaf_index() {
                if max_leaf >= cs.num_leaves() {
                    return Err(VaqError::InvalidQuery(format!(
                        "composite tree references leaf {max_leaf} but only {} leaves exist",
                        cs.num_leaves()
                    )));
                }
            }
            for leaf in &cs.extra_leaves {
                weight = weight.saturating_add(query_weight(leaf));
            }
        }
        self.host.tracer.counter_add("service.submitted", 1);
        if let Err(reason) = self.admission.try_admit(tenant, weight) {
            self.tenants.entry(tenant).or_default().rejected += 1;
            self.admission_log.push(AdmissionEvent {
                tick: self.tick,
                tenant,
                query: Some(id),
                action: AdmissionAction::Rejected { reason },
            });
            self.host.tracer.counter_add("service.rejected", 1);
            return Ok(Err(reason));
        }
        let mut engines = Vec::new();
        for leaf in leaf_queries(&spec) {
            match OnlineEngine::with_shared_caches(
                leaf.clone(),
                self.host.config.engine,
                &self.host.geometry,
                &self.host.detector,
                &self.host.recognizer,
                &self.host.scan_caches,
            ) {
                Ok(e) => engines.push(e.with_tracer(self.host.tracer.clone())),
                Err(e) => {
                    self.admission.release(tenant, weight);
                    return Err(e);
                }
            }
        }
        if spec.composite.is_some() {
            self.host
                .tracer
                .counter_add("service.composite_admitted", 1);
        }
        self.engines.insert(id, engines);
        self.registry.insert(StandingEntry {
            id,
            spec,
            weight,
            admitted_tick: self.tick,
        });
        self.tenants.entry(tenant).or_default().admitted += 1;
        self.admission_log.push(AdmissionEvent {
            tick: self.tick,
            tenant,
            query: Some(id),
            action: AdmissionAction::Admitted { weight },
        });
        self.host.tracer.counter_add("service.admitted", 1);
        Ok(Ok(id))
    }

    /// Retires a standing query: drops its queued items, applies pending
    /// shed gaps, finalizes its engine, and releases its admission
    /// capacity. Returns whether the id was standing.
    pub fn retire(&mut self, id: QueryId) -> Result<bool> {
        let Some(entry) = self.registry.remove(id) else {
            return Ok(false);
        };
        let dropped = self.queue.remove_where(|w| w.query == id);
        let tenant = entry.spec.tenant;
        for item in &dropped {
            self.shed(self.tick, tenant, id, item.clip, ShedCause::Departed);
        }
        self.finalize(entry, Some(self.tick))?;
        self.admission_log.push(AdmissionEvent {
            tick: self.tick,
            tenant,
            query: Some(id),
            action: AdmissionAction::Departed {
                pending_dropped: conv::len_u64(dropped.len()),
            },
        });
        self.host.tracer.counter_add("service.retired", 1);
        Ok(true)
    }

    /// Stalls a tenant until `until_tick` (exclusive): its standing
    /// queries' arriving clips are shed as [`ShedCause::TenantStalled`]
    /// while the stall lasts. Other tenants are untouched.
    pub fn stall(&mut self, tenant: TenantId, until_tick: u64) {
        let entry = self.stalls.entry(tenant).or_insert(0);
        *entry = (*entry).max(until_tick);
        self.admission_log.push(AdmissionEvent {
            tick: self.tick,
            tenant,
            query: None,
            action: AdmissionAction::Stalled { until_tick },
        });
    }

    /// Re-materializes a clip a restored queue still references. Only
    /// clips named by queued items are retained.
    pub(crate) fn prime_clip(&mut self, clip: &ClipView) {
        let idx = clip.id.raw();
        if self.queue.iter().any(|w| w.clip == idx) {
            self.clip_window.insert(idx, clip.clone());
        }
    }

    /// Processes one stream tick: serves queued work whose simulated
    /// start time has arrived, then enqueues this clip for every live
    /// standing query under the overload policy.
    ///
    /// Clips must arrive in stream order, one per tick.
    pub fn push_clip(&mut self, clip: &ClipView) -> Result<()> {
        let t = self.tick;
        if clip.id.raw() != t {
            return Err(VaqError::InvalidConfig(format!(
                "service expects clip {t} next, got clip {}",
                clip.id.raw()
            )));
        }
        let arrival_us = t.saturating_mul(self.host.tick_us());
        self.serve_until(arrival_us)?;
        self.clip_window.insert(t, clip.clone());

        for id in self.registry.ids() {
            let Some(entry) = self.registry.get(id) else {
                continue;
            };
            let tenant = entry.spec.tenant;
            let priority = entry.spec.priority;
            if self.stalls.get(&tenant).is_some_and(|&until| t < until) {
                self.shed(t, tenant, id, t, ShedCause::TenantStalled);
                continue;
            }
            let item = WorkItem {
                query: id,
                clip: t,
                arrival_us,
                priority,
            };
            let outcome = match self.host.config.overload {
                OverloadPolicy::RejectNew => self.queue.push(item, priority),
                OverloadPolicy::ShedLowestPriority => self.queue.push_evicting(item, priority),
                // Thins arrivals only while the queue is full; survivors
                // may overshoot the bound.
                OverloadPolicy::Degrade { keep_every } => {
                    if !self.queue.is_full() || t % u64::from(keep_every.max(1)) == 0 {
                        self.queue.push_unbounded(item, priority);
                    } else {
                        self.shed(t, tenant, id, t, ShedCause::Degraded);
                    }
                    continue;
                }
            };
            match outcome {
                PushOutcome::Enqueued => {}
                PushOutcome::RejectedFull(_) => {
                    self.shed(t, tenant, id, t, ShedCause::QueueFull);
                }
                PushOutcome::Evicted { victim } => {
                    let victim_tenant = self
                        .registry
                        .get(victim.query)
                        .map_or(TenantId(0), |e| e.spec.tenant);
                    self.shed(
                        t,
                        victim_tenant,
                        victim.query,
                        victim.clip,
                        ShedCause::PriorityEvicted,
                    );
                }
            }
        }
        self.evict_clip_window();
        self.tick = t + 1;
        Ok(())
    }

    /// Serves the rest of the queue, finalizes every standing query, and
    /// produces the report.
    pub fn finish(mut self) -> Result<ServiceReport> {
        self.serve_until(u64::MAX)?;
        for id in self.registry.ids() {
            if let Some(entry) = self.registry.remove(id) {
                self.finalize(entry, None)?;
            }
        }
        self.completed.sort_by_key(|c| c.id);
        let mut stats = InferenceStats::default();
        for c in &self.completed {
            stats.merge(&c.result.stats);
            for r in &c.extra_results {
                stats.merge(&r.stats);
            }
        }
        let latency = Self::latency_summary(&mut self.latency_samples_us, self.late);
        Ok(ServiceReport {
            ticks: self.tick,
            completed: self.completed,
            shed_log: self.shed_log,
            admission_log: self.admission_log,
            latency,
            tenants: self.tenants,
            stats,
            cache: self.host.cache_stats(),
        })
    }

    /// Snapshots the full session at the current tick boundary.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint {
            format_version: vaq_types::format::SERVICE_CHECKPOINT_VERSION,
            tick: self.tick,
            busy_until_us: self.busy_until_us,
            registry: self.registry.clone(),
            admission: self.admission.clone(),
            // Wire layout: leaf 0 in `engines`, leaves 1… of composites in
            // `extra_engines`.
            engines: self
                .engines
                .iter()
                .filter_map(|(id, es)| Some((*id, es.first()?.checkpoint())))
                .collect(),
            extra_engines: self
                .engines
                .iter()
                .filter(|(_, es)| es.len() > 1)
                .map(|(id, es)| {
                    (
                        *id,
                        es.iter().skip(1).map(OnlineEngine::checkpoint).collect(),
                    )
                })
                .collect(),
            gap_backlog: self
                .gap_backlog
                .iter()
                .filter(|(_, v)| !v.is_empty())
                .map(|(id, v)| (*id, v.clone()))
                .collect(),
            queued: self.queue.iter().copied().collect(),
            stalls: self.stalls.iter().map(|(t, u)| (*t, *u)).collect(),
            completed: self.completed.clone(),
            shed_log: self.shed_log.clone(),
            admission_log: self.admission_log.clone(),
            latency_samples_us: self.latency_samples_us.clone(),
            late: self.late,
            tenants: self.tenants.clone(),
        }
    }

    fn shed(&mut self, tick: u64, tenant: TenantId, query: QueryId, clip: u64, cause: ShedCause) {
        self.gap_backlog
            .entry(query)
            .or_default()
            .push((clip, cause.gap_reason()));
        self.shed_log.push(ShedEvent {
            tick,
            tenant,
            query,
            clip,
            cause,
        });
        let summary = self.tenants.entry(tenant).or_default();
        if cause == ShedCause::DeadlineExceeded {
            summary.timeouts += 1;
            self.host.tracer.counter_add("service.timeout", 1);
        } else {
            summary.shed += 1;
            self.host.tracer.counter_add("service.shed", 1);
        }
    }

    /// Applies pending shed gaps for `query` with clip index `< before`
    /// to its engine(s), in clip order. Composite leaves gap together:
    /// a shed clip is missing from every leaf's stream.
    fn apply_gaps_before(&mut self, query: QueryId, before: u64) {
        let Some(pending) = self.gap_backlog.get_mut(&query) else {
            return;
        };
        let Some(engines) = self.engines.get_mut(&query) else {
            return;
        };
        let mut rest = Vec::new();
        for (clip, reason) in pending.drain(..) {
            if clip < before {
                for engine in engines.iter_mut() {
                    engine.push_gap(ClipId::new(clip), reason);
                }
            } else {
                rest.push((clip, reason));
            }
        }
        *pending = rest;
    }

    /// Serves queued items whose simulated start time is before `now_us`.
    fn serve_until(&mut self, now_us: u64) -> Result<()> {
        loop {
            let busy = self.busy_until_us;
            let Some(item) = self.queue.pop_if(|w| busy.max(w.arrival_us) < now_us) else {
                return Ok(());
            };
            self.serve_item(item)?;
        }
    }

    fn serve_item(&mut self, item: WorkItem) -> Result<()> {
        let Some(entry) = self.registry.get(item.query) else {
            // Retired while queued — already logged as Departed.
            return Ok(());
        };
        let tenant = entry.spec.tenant;
        let deadline = entry
            .spec
            .deadline_us
            .unwrap_or(self.host.config.default_deadline_us);
        let start = self.busy_until_us.max(item.arrival_us);
        let wait = start - item.arrival_us;
        self.apply_gaps_before(item.query, item.clip);
        if wait > deadline {
            // Dropping is free: the evaluator never touches the item.
            let decision_tick = self.tick;
            self.shed(
                decision_tick,
                tenant,
                item.query,
                item.clip,
                ShedCause::DeadlineExceeded,
            );
            self.apply_gaps_before(item.query, item.clip + 1);
            return Ok(());
        }
        // `clip_window` and `engines` are disjoint fields, so the engines
        // evaluate the window's own copy in place.
        let clip = self.clip_window.get(&item.clip).ok_or_else(|| {
            VaqError::InvalidConfig(format!(
                "service clip window no longer holds clip {} needed by {}",
                item.clip, item.query
            ))
        })?;
        let Some(engines) = self.engines.get_mut(&item.query) else {
            return Ok(());
        };
        // Requested work = executed + cache-served + planner-elided; see
        // `frame_cost_us`. Elided calls are charged at full cost so the
        // simulated time model — and with it every shed, deadline, and
        // backpressure decision — is invariant under elision (DESIGN.md
        // §14): the planner's win is measured by the executed-call
        // counters, not by perturbing overload behavior. Composite
        // submissions charge the sum over all leaf engines: each leaf's
        // requested work is a pure function of its own checkpointed
        // state, so the total stays checkpoint-reproducible.
        let (mut frames, mut shots) = (0u64, 0u64);
        for engine in engines {
            let (frames_before, shots_before) = requested_work(engine.stats());
            engine.try_push_clip(clip)?;
            let (frames_after, shots_after) = requested_work(engine.stats());
            frames += frames_after.saturating_sub(frames_before);
            shots += shots_after.saturating_sub(shots_before);
        }
        let cost_us = self
            .host
            .config
            .per_item_overhead_us
            .saturating_add(frames.saturating_mul(self.host.config.frame_cost_us))
            .saturating_add(shots.saturating_mul(self.host.config.shot_cost_us));
        self.busy_until_us = start.saturating_add(cost_us);
        let latency = self.busy_until_us - item.arrival_us;
        self.latency_samples_us.push(latency);
        let summary = self.tenants.entry(tenant).or_default();
        summary.delivered += 1;
        if latency > deadline {
            summary.late += 1;
            self.late += 1;
            self.host.tracer.counter_add("service.late", 1);
        }
        self.host.tracer.counter_add("service.delivered", 1);
        self.host
            .tracer
            .record_duration_ns("service.delivery", latency.saturating_mul(1_000));
        Ok(())
    }

    fn finalize(&mut self, entry: StandingEntry, retired_tick: Option<u64>) -> Result<()> {
        // Any still-pending shed gaps happen-after every queued item for
        // this query (queued items were purged or served first).
        self.apply_gaps_before(entry.id, u64::MAX);
        self.gap_backlog.remove(&entry.id);
        let no_engine =
            || VaqError::InvalidConfig(format!("standing query {} has no engine", entry.id));
        let engines = self.engines.remove(&entry.id).ok_or_else(no_engine)?;
        self.admission.release(entry.spec.tenant, entry.weight);
        let mut results = engines.into_iter().map(OnlineEngine::into_result);
        let result = results.next().ok_or_else(no_engine)?;
        // A fresh vector: collecting the engine vector in place would keep
        // its engine-sized allocation alive in every completed query.
        let mut extra_results = Vec::with_capacity(results.len());
        extra_results.extend(results);
        // Compose at departure: every leaf has decided over the same
        // stream positions, and the domain is exactly the ticks the
        // service had streamed — a pure function of checkpointed state.
        let composite = match &entry.spec.composite {
            Some(cs) => {
                let mut leaf_sets = Vec::with_capacity(1 + extra_results.len());
                leaf_sets.push(result.sequences.clone());
                leaf_sets.extend(extra_results.iter().map(|r| r.sequences.clone()));
                let ctx = ComposeContext {
                    domain_clips: self.tick,
                    shots_per_clip: self.host.geometry.shots_in_clip(),
                };
                Some(compose::evaluate(&cs.root, &leaf_sets, &ctx)?)
            }
            None => None,
        };
        self.completed.push(CompletedQuery {
            id: entry.id,
            tenant: entry.spec.tenant,
            admitted_tick: entry.admitted_tick,
            retired_tick,
            result,
            extra_results,
            composite,
        });
        Ok(())
    }

    fn evict_clip_window(&mut self) {
        let min_needed = self
            .queue
            .iter()
            .map(|w| w.clip)
            .min()
            .unwrap_or(self.tick + 1);
        self.clip_window.retain(|&c, _| c >= min_needed);
    }

    fn latency_summary(samples: &mut [u64], late: u64) -> LatencySummary {
        samples.sort_unstable();
        let n = conv::len_u64(samples.len());
        let rank = |p: u64| -> u64 {
            if n == 0 {
                return 0;
            }
            // Nearest-rank percentile on the sorted samples.
            let idx = (n * p).div_ceil(100).max(1) - 1;
            conv::index(idx)
                .and_then(|i| samples.get(i))
                .copied()
                .unwrap_or(0)
        };
        LatencySummary {
            delivered: n,
            late,
            p50_us: rank(50),
            p95_us: rank(95),
            p99_us: rank(99),
            max_us: samples.last().copied().unwrap_or(0),
        }
    }
}

/// A submission's leaf queries, leaf 0 (the primary query) first.
fn leaf_queries(spec: &QuerySpec) -> Vec<&Query> {
    let extra = spec.composite.iter().flat_map(|cs| &cs.extra_leaves);
    std::iter::once(&spec.query).chain(extra).collect()
}

/// Detector frames and recognizer shots an engine has requested so far:
/// executed + cache-served + planner-elided (see
/// [`ServiceConfig::frame_cost_us`]).
fn requested_work(stats: &InferenceStats) -> (u64, u64) {
    (
        stats.detector_frames + stats.detector_cached + stats.detector_elided,
        stats.recognizer_shots + stats.recognizer_cached + stats.recognizer_elided,
    )
}
