//! Deterministic load-and-chaos generator for the standing-query service.
//!
//! Produces, from an explicit seed, everything a service soak run needs:
//!
//! * a long synthetic stream carrying episodes for every query template;
//! * a sorted schedule of control-plane events — seeded submission
//!   arrivals with hot-tenant skew, per-query lifetimes (churn), and
//!   tenant stalls;
//! * detector-fault burst windows (clip ranges) for chaos drills.
//!
//! The schedule is *plain data* — clip ticks, tenant numbers, template
//! indices — and [`LoadSchedule::service_events`] lowers it to the
//! service's `ServiceEvent`s. Submission numbering is part of the contract: the
//! `n`th [`LoadEventKind::Submit`] in schedule order is submission `n`,
//! which is exactly the `QueryId` the service assigns, so
//! [`LoadEventKind::Retire`] can reference it directly.
//!
//! Same seed ⇒ byte-identical schedule, stream, and fault windows.

use crate::youtube::TABLE_ONE;
use vaq_core::{QueryId, QuerySpec, ServiceEvent, TenantId};
use vaq_types::rng::SeededRng;
use vaq_types::{vocab, Query, VideoGeometry};
use vaq_video::{gen, SceneScript, SceneScriptBuilder};

/// Tunables of the load generator.
#[derive(Debug, Clone, Copy)]
pub struct LoadProfile {
    /// Stream geometry.
    pub geometry: VideoGeometry,
    /// Stream length in minutes.
    pub minutes: u64,
    /// Tenant universe: tenants `0..tenants` may submit.
    pub tenants: u32,
    /// Total submission attempts over the schedule.
    pub submissions: u32,
    /// Probability a submission lands on the hot tenant (tenant 0);
    /// the remainder spreads uniformly. `0.0` disables the skew.
    pub hot_tenant_share: f64,
    /// Mean standing lifetime in clips; a query departs (Retire event)
    /// roughly this long after admission. `0` = queries never depart.
    pub mean_lifetime_clips: u64,
    /// Number of tenant stalls injected.
    pub stalls: u32,
    /// Mean stall length in clips.
    pub stall_clips: u64,
    /// Number of detector-fault bursts injected.
    pub fault_bursts: u32,
    /// Length of each fault burst in clips.
    pub fault_burst_clips: u64,
    /// Priorities are sampled uniformly from `0..priority_levels`.
    pub priority_levels: u8,
    /// Queue-wait deadline attached to every submission (`None` lets the
    /// service default apply).
    pub deadline_us: Option<u64>,
}

impl Default for LoadProfile {
    fn default() -> Self {
        Self {
            geometry: VideoGeometry::PAPER_DEFAULT,
            minutes: 4,
            tenants: 4,
            submissions: 24,
            hot_tenant_share: 0.5,
            mean_lifetime_clips: 60,
            stalls: 2,
            stall_clips: 16,
            fault_bursts: 1,
            fault_burst_clips: 6,
            priority_levels: 3,
            deadline_us: None,
        }
    }
}

/// One control-plane action in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadEventKind {
    /// Submit template `template` for `tenant` at the event tick.
    Submit {
        /// Submitting tenant (`0..LoadProfile::tenants`).
        tenant: u32,
        /// Index into [`service_templates`].
        template: usize,
        /// Shed priority.
        priority: u8,
        /// Optional queue-wait deadline, simulated µs.
        deadline_us: Option<u64>,
    },
    /// Retire the `submission`th Submit of this schedule.
    Retire {
        /// Submission index (schedule order, 0-based).
        submission: u64,
    },
    /// Stall `tenant` until `until_tick` (exclusive).
    Stall {
        /// Stalled tenant.
        tenant: u32,
        /// First live tick again.
        until_tick: u64,
    },
}

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadEvent {
    /// Tick (clip index) the event applies at.
    pub tick: u64,
    /// What happens.
    pub kind: LoadEventKind,
}

/// A clip range `[start, end)` during which the object detector faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow {
    /// First faulting clip.
    pub start_clip: u64,
    /// One past the last faulting clip.
    pub end_clip: u64,
}

/// A complete seeded soak scenario.
#[derive(Debug, Clone)]
pub struct LoadSchedule {
    /// The clip stream every standing query watches.
    pub script: SceneScript,
    /// Control-plane events, sorted by tick (stable within a tick).
    pub events: Vec<LoadEvent>,
    /// Detector-fault bursts, sorted by start clip.
    pub fault_windows: Vec<FaultWindow>,
    /// Stream length in clips.
    pub clips: u64,
}

impl LoadSchedule {
    /// Lowers the control-plane events to service events against
    /// [`service_templates`], in schedule order.
    pub fn service_events(&self) -> Vec<ServiceEvent> {
        let templates = service_templates();
        self.events
            .iter()
            .map(|e| match e.kind {
                LoadEventKind::Submit {
                    tenant,
                    template,
                    priority,
                    deadline_us,
                } => ServiceEvent::Submit {
                    tick: e.tick,
                    spec: QuerySpec {
                        tenant: TenantId(tenant),
                        query: templates[template].clone(),
                        priority,
                        deadline_us,
                        composite: None,
                    },
                },
                LoadEventKind::Retire { submission } => ServiceEvent::Retire {
                    tick: e.tick,
                    query: QueryId(submission),
                },
                LoadEventKind::Stall { tenant, until_tick } => ServiceEvent::Stall {
                    tick: e.tick,
                    tenant: TenantId(tenant),
                    until_tick,
                },
            })
            .collect()
    }
}

/// The query templates submissions draw from: the paper's Table 1
/// queries, resolved against the built-in vocabularies.
pub fn service_templates() -> Vec<Query> {
    let actions = vocab::kinetics_actions();
    let objects = vocab::coco_objects();
    TABLE_ONE
        .iter()
        .map(|row| {
            crate::resolve_query(&actions, &objects, row.action, row.objects)
                .expect("Table 1 labels resolve against the built-in vocabularies")
        })
        .collect()
}

/// Generates the full scenario for `profile` and `seed`.
pub fn generate_load(profile: &LoadProfile, seed: u64) -> LoadSchedule {
    let templates = service_templates();
    let geometry = profile.geometry;
    let frames = geometry.frames_for_minutes(profile.minutes.max(1));
    let clips = (frames / geometry.frames_per_clip()).max(1);

    let mut rng = SeededRng::seed_from_u64(seed ^ 0x10AD);
    let script = gen_stream(&mut rng, frames, geometry, &templates);

    // Submission arrivals land in the first three quarters of the stream
    // so late arrivals still see some clips.
    let arrival_span = (clips * 3 / 4).max(1);
    let mut arrivals: Vec<(u64, LoadEventKind, Option<u64>)> = Vec::new();
    for _ in 0..profile.submissions {
        let tick = rng.gen_range(0..arrival_span);
        // Short-circuit keeps the RNG stream identical whether or not the
        // single-tenant fast path is taken.
        let tenant = if profile.tenants <= 1
            || (profile.hot_tenant_share > 0.0 && rng.gen_bool(profile.hot_tenant_share.min(1.0)))
        {
            0
        } else {
            rng.gen_range(0..profile.tenants)
        };
        let template = rng.gen_range(0..templates.len());
        let priority = if profile.priority_levels <= 1 {
            0
        } else {
            rng.gen_range(0..profile.priority_levels)
        };
        let lifetime = if profile.mean_lifetime_clips == 0 {
            None
        } else {
            let mean = profile.mean_lifetime_clips;
            Some(rng.gen_range(mean / 2..=mean + mean / 2))
        };
        arrivals.push((
            tick,
            LoadEventKind::Submit {
                tenant,
                template,
                priority,
                deadline_us: profile.deadline_us,
            },
            lifetime,
        ));
    }
    // Stable by arrival tick: the resulting order IS the submission
    // numbering the service will assign.
    arrivals.sort_by_key(|&(tick, _, _)| tick);

    // (tick, rank, seq): retires apply before same-tick submits (freeing
    // capacity first), stalls after; seq keeps everything deterministic.
    let mut keyed: Vec<(u64, u8, u64, LoadEventKind)> = Vec::new();
    let mut seq = 0u64;
    for (submission, (tick, kind, lifetime)) in arrivals.iter().enumerate() {
        keyed.push((*tick, 1, seq, *kind));
        seq += 1;
        if let Some(life) = lifetime {
            let retire_tick = tick.saturating_add(*life);
            if retire_tick < clips {
                keyed.push((
                    retire_tick,
                    0,
                    seq,
                    LoadEventKind::Retire {
                        submission: submission as u64,
                    },
                ));
                seq += 1;
            }
        }
    }
    for _ in 0..profile.stalls {
        let tenant = rng.gen_range(0..profile.tenants.max(1));
        let start = rng.gen_range(0..clips);
        let len = profile.stall_clips.max(1);
        let len = rng.gen_range(len / 2 + 1..=len + len / 2);
        keyed.push((
            start,
            2,
            seq,
            LoadEventKind::Stall {
                tenant,
                until_tick: (start + len).min(clips),
            },
        ));
        seq += 1;
    }
    keyed.sort_by_key(|&(tick, rank, s, _)| (tick, rank, s));
    let events = keyed
        .into_iter()
        .map(|(tick, _, _, kind)| LoadEvent { tick, kind })
        .collect();

    let mut fault_windows = Vec::new();
    for _ in 0..profile.fault_bursts {
        let len = profile.fault_burst_clips.clamp(1, clips);
        let start = rng.gen_range(0..=clips - len);
        fault_windows.push(FaultWindow {
            start_clip: start,
            end_clip: start + len,
        });
    }
    fault_windows.sort_by_key(|w: &FaultWindow| (w.start_clip, w.end_clip));

    LoadSchedule {
        script,
        events,
        fault_windows,
        clips,
    }
}

/// One long stream carrying modest-duty episodes for *every* template, so
/// any standing query has something to find.
fn gen_stream(
    rng: &mut SeededRng,
    frames: u64,
    geometry: VideoGeometry,
    templates: &[Query],
) -> SceneScript {
    let mut b = SceneScriptBuilder::new(frames, geometry);
    let ep_len = 8 * vaq_types::conv::u64_of(geometry.fps);
    for query in templates {
        let count = vaq_types::conv::index(((frames / ep_len.max(1)) / 24).max(1)).unwrap_or(1);
        let episodes = gen::episodes(rng, frames, count, ep_len, ep_len / 3);
        for ep in &episodes {
            b.action_span(query.action, ep.start, ep.end)
                .expect("episode in range");
        }
        for &obj in &query.objects {
            for ep in &episodes {
                if rng.gen_bool(0.8) {
                    let pad = rng.gen_range(0..ep_len / 4 + 1);
                    let start = ep.start.saturating_sub(pad);
                    let end = (ep.end + pad).min(frames);
                    if start < end {
                        b.object_span(obj, start, end).expect("span in range");
                    }
                }
            }
            for span in gen::spans_with_duty(rng, frames, 0.08, 400.0) {
                b.object_span(obj, span.start, span.end)
                    .expect("span in range");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_profile() -> LoadProfile {
        LoadProfile {
            minutes: 1,
            submissions: 8,
            mean_lifetime_clips: 12,
            ..LoadProfile::default()
        }
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = generate_load(&tiny_profile(), 42);
        let b = generate_load(&tiny_profile(), 42);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fault_windows, b.fault_windows);
        assert_eq!(a.clips, b.clips);
        assert_eq!(a.script.num_frames(), b.script.num_frames());
        let c = generate_load(&tiny_profile(), 43);
        assert!(a.events != c.events || a.fault_windows != c.fault_windows);
    }

    #[test]
    fn events_are_sorted_and_submissions_numbered_in_order() {
        let s = generate_load(&tiny_profile(), 7);
        let mut last_tick = 0;
        for e in &s.events {
            assert!(e.tick >= last_tick, "events out of order");
            last_tick = e.tick;
        }
        let submits: Vec<u64> = s
            .events
            .iter()
            .filter(|e| matches!(e.kind, LoadEventKind::Submit { .. }))
            .map(|e| e.tick)
            .collect();
        assert_eq!(submits.len(), 8);
        // Retires reference valid submissions only.
        for e in &s.events {
            if let LoadEventKind::Retire { submission } = e.kind {
                assert!(submission < 8);
            }
        }
    }

    #[test]
    fn fault_windows_stay_inside_the_stream() {
        let s = generate_load(&tiny_profile(), 3);
        assert_eq!(s.fault_windows.len(), 1);
        for w in &s.fault_windows {
            assert!(w.start_clip < w.end_clip);
            assert!(w.end_clip <= s.clips);
        }
    }

    #[test]
    fn hot_tenant_skew_concentrates_on_tenant_zero() {
        let profile = LoadProfile {
            submissions: 64,
            hot_tenant_share: 0.9,
            ..tiny_profile()
        };
        let s = generate_load(&profile, 11);
        let hot = s
            .events
            .iter()
            .filter(|e| matches!(e.kind, LoadEventKind::Submit { tenant: 0, .. }))
            .count();
        assert!(hot > 32, "expected hot-tenant majority, got {hot}/64");
    }

    #[test]
    fn templates_resolve() {
        let t = service_templates();
        assert_eq!(t.len(), 12);
        for q in &t {
            assert!(!q.objects.is_empty());
        }
    }
}
