//! Multi-tenant standing-query service: admission control, backpressure,
//! and deterministic overload handling over the online engines.
//!
//! This layer is the one driver for many queries over one stream: tenants
//! submit and retire standing SVAQ/SVAQD queries while one clip stream
//! plays (a fixed batch is every query submitted at tick 0), an
//! `AdmissionController` enforces per-tenant quotas and global
//! capacity, and a bounded shed queue applies an explicit
//! [`OverloadPolicy`] when arrivals outpace the (simulated) evaluator.
//!
//! A session is single-threaded: [`StandingQueryService`] owns its queue
//! (a plain `VecDeque`, driven through `&mut self`) and one engine list
//! per standing query, leaf 0 first, and advances on simulated time.
//!
//! Three properties carry over from the rest of the engine and are tested
//! as hard invariants:
//!
//! 1. **One detector pass per frame**, regardless of standing-query count
//!    or churn — all engines share one [`InferenceCache`] through the
//!    [`ServiceHost`].
//! 2. **Bit-identical results**: an admitted query that is never shed
//!    produces exactly the `OnlineResult` a standalone
//!    [`OnlineEngine`](crate::online::OnlineEngine) produces over the
//!    same stream; the shed log and summary JSON are byte-identical for a
//!    given seed.
//! 3. **Crash safety**: [`StandingQueryService::checkpoint`] at a tick
//!    boundary captures registry, admission state, queue, and every
//!    engine ([`EngineCheckpoint`]-based); [`ServiceHost::restore`]
//!    resumes mid-stream with bit-identical remaining output.
//!
//! The driver functions at the bottom ([`run_service`],
//! [`checkpoint_service_at`], [`resume_service`]) replay a
//! [`ServiceEvent`] schedule against a [`SceneScript`] — the shape the
//! deterministic load/chaos generator in `vaq-datasets` and `vaq-cli
//! serve-sim` both target.
//!
//! [`InferenceCache`]: vaq_detect::InferenceCache
//! [`EngineCheckpoint`]: crate::online::EngineCheckpoint

mod queue;
mod registry;
#[allow(clippy::module_inception)]
mod service;
mod tenant;

pub use registry::{CompositeSpec, QueryId, QuerySpec};
pub use service::{
    AdmissionAction, AdmissionEvent, CompletedQuery, LatencySummary, OverloadPolicy,
    ServiceCheckpoint, ServiceConfig, ServiceHost, ServiceReport, ShedCause, ShedEvent,
    StandingQueryService, TenantSummary, WorkItem,
};
pub use tenant::{RejectReason, ServiceLimits, TenantId, TenantQuota};

use vaq_types::Result;
use vaq_video::{SceneScript, VideoStream};

/// One scheduled control-plane action, applied at a tick boundary
/// *before* that tick's clip is pushed. This is the vocabulary the
/// `vaq-datasets` load generator compiles its schedules down to.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// Submit a standing query at the given tick.
    Submit {
        /// Tick boundary the submission lands on.
        tick: u64,
        /// What is submitted.
        spec: QuerySpec,
    },
    /// Retire the nth submission (by [`QueryId`]) at the given tick.
    /// Retiring a rejected or already-departed id is a no-op.
    Retire {
        /// Tick boundary the departure lands on.
        tick: u64,
        /// The submission to retire.
        query: QueryId,
    },
    /// Stall a tenant from this tick until `until_tick` (exclusive):
    /// its clips are shed as [`ShedCause::TenantStalled`] meanwhile.
    Stall {
        /// Tick boundary the stall starts at.
        tick: u64,
        /// The stalled tenant.
        tenant: TenantId,
        /// First live tick again.
        until_tick: u64,
    },
}

impl ServiceEvent {
    /// The tick boundary this event is applied at.
    pub fn tick(&self) -> u64 {
        match self {
            ServiceEvent::Submit { tick, .. }
            | ServiceEvent::Retire { tick, .. }
            | ServiceEvent::Stall { tick, .. } => *tick,
        }
    }
}

/// Applies every event scheduled for `tick`. Events must be sorted by
/// tick (the drivers walk them with a cursor).
fn apply_events_at(
    session: &mut StandingQueryService<'_>,
    events: &[ServiceEvent],
    cursor: &mut usize,
    tick: u64,
) -> Result<()> {
    while let Some(event) = events.get(*cursor) {
        if event.tick() > tick {
            break;
        }
        match event {
            ServiceEvent::Submit { spec, .. } => {
                // Rejection is a logged, non-fatal outcome.
                let _ = session.submit(spec.clone())?;
            }
            ServiceEvent::Retire { query, .. } => {
                session.retire(*query)?;
            }
            ServiceEvent::Stall {
                tenant, until_tick, ..
            } => {
                session.stall(*tenant, *until_tick);
            }
        }
        *cursor += 1;
    }
    Ok(())
}

/// Replays `events` (sorted by tick) against the full stream of `script`
/// and returns the finished report.
pub fn run_service(
    host: &ServiceHost<'_>,
    script: &SceneScript,
    events: &[ServiceEvent],
) -> Result<ServiceReport> {
    let mut session = host.session();
    let mut cursor = 0usize;
    for clip in VideoStream::new(script) {
        let tick = session.tick();
        apply_events_at(&mut session, events, &mut cursor, tick)?;
        session.push_clip(&clip)?;
    }
    apply_events_at(&mut session, events, &mut cursor, u64::MAX)?;
    session.finish()
}

/// [`run_service`], but snapshots the session at the `at_tick` boundary
/// (before that tick's events and clip) and abandons the run there.
/// Pair with [`resume_service`] for crash-recovery drills.
pub fn checkpoint_service_at(
    host: &ServiceHost<'_>,
    script: &SceneScript,
    events: &[ServiceEvent],
    at_tick: u64,
) -> Result<ServiceCheckpoint> {
    let mut session = host.session();
    let mut cursor = 0usize;
    for clip in VideoStream::new(script) {
        if session.tick() == at_tick {
            break;
        }
        let tick = session.tick();
        apply_events_at(&mut session, events, &mut cursor, tick)?;
        session.push_clip(&clip)?;
    }
    Ok(session.checkpoint())
}

/// Restores a checkpointed session against the same host, script, and
/// schedule, then plays the remaining stream to completion. The report's
/// tail — every decision from the checkpoint tick on — is bit-identical
/// to the uninterrupted [`run_service`] run.
pub fn resume_service(
    host: &ServiceHost<'_>,
    script: &SceneScript,
    events: &[ServiceEvent],
    checkpoint: &ServiceCheckpoint,
) -> Result<ServiceReport> {
    let mut session = host.restore(checkpoint)?;
    let from = checkpoint.tick;
    // Replay the event cursor past everything the checkpointed run
    // already applied (events strictly before the checkpoint tick).
    let mut cursor = events.iter().take_while(|e| e.tick() < from).count();
    for clip in VideoStream::new(script) {
        let idx = clip.id.raw();
        if idx < from {
            // Clips the queue still references must be re-materialized;
            // everything older is already folded into engine state.
            session.prime_clip(&clip);
            continue;
        }
        let tick = session.tick();
        apply_events_at(&mut session, events, &mut cursor, tick)?;
        session.push_clip(&clip)?;
    }
    apply_events_at(&mut session, events, &mut cursor, u64::MAX)?;
    session.finish()
}
