//! The paper's cost model, pinned exactly: model invocations for SVAQ/SVAQD
//! and table accesses for RVAQ, over one workload with ideal models (scale
//! 0.02, seed 7, four queries, two ingest threads).
//!
//! Every counter is an exact equality: a change in the work the engines do
//! fails here until it is re-pinned on purpose. The invariants that hold
//! whatever the numbers are stay as named asserts next to them, so a re-pin
//! cannot drop them.

mod common;

use common::assert_decisions_identical;
use vaq::core::offline::candidates::candidates_from_ingest;
use vaq::core::offline::tbclip::QueryTables;
use vaq::core::{
    compose_evaluate, ingest, ingest_parallel_traced, run_service, rvaq, ComposeContext,
    IngestOutput, OnlineConfig, OnlineEngine, OnlineResult, OverloadPolicy, PaperScoring,
    PlannerConfig, QuerySpec, RvaqOptions, ServiceConfig, ServiceEvent, ServiceHost, ServiceLimits,
    TenantId, TenantQuota,
};
use vaq::datasets::{composite, load, movies, youtube};
use vaq::detect::{
    profiles, InferenceCache, IouTracker, SimulatedActionRecognizer, SimulatedObjectDetector,
};
use vaq::metrics::sequence_prf;
use vaq::storage::{AccessStats, ClipScoreTable, CostModel};
use vaq::trace::Tracer;
use vaq::types::vocab;
use vaq::video::{SceneScript, VideoStream};
use vaq::{Query, VideoGeometry};

const SEED: u64 = 7;
const SCALE: f64 = 0.02;

fn models() -> (SimulatedObjectDetector, SimulatedActionRecognizer) {
    let objects = vocab::coco_objects().len() as u32;
    let actions = vocab::kinetics_actions().len() as u32;
    (
        SimulatedObjectDetector::new(profiles::ideal_object(), objects, SEED),
        SimulatedActionRecognizer::new(profiles::ideal_action(), actions, SEED),
    )
}

/// Types with at least one table row, most rows first (ties by id).
fn most_detected<T: Copy + Ord, R>(rows: &std::collections::BTreeMap<T, Vec<R>>) -> Vec<T> {
    let mut types: Vec<(T, usize)> = rows
        .iter()
        .filter(|(_, r)| !r.is_empty())
        .map(|(&t, r)| (t, r.len()))
        .collect();
    types.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    types.into_iter().map(|(t, _)| t).collect()
}

/// The first "Coffee and Cigarettes" video, its serial ingest, and four
/// queries pairing the most-detected action types with the most-detected
/// object types, so every query has real work to do.
fn movie() -> (SceneScript, IngestOutput, Vec<Query>) {
    let row = movies::row("Coffee and Cigarettes").unwrap();
    let spec = movies::MovieSpec {
        scale: SCALE,
        ..Default::default()
    };
    let script = movies::movie(row, &spec, SEED).videos.swap_remove(0).script;
    let (det, rec) = models();
    let mut tracker = IouTracker::new(profiles::ideal_tracker(), SEED);
    let cfg = OnlineConfig::svaqd();
    let serial = ingest(&script, "bench", &det, &rec, &mut tracker, &cfg).unwrap();
    let objs = most_detected(&serial.object_rows);
    let acts = most_detected(&serial.action_rows);
    let queries = (0..4)
        .map(|i| {
            let mut objects = vec![objs[i % objs.len()]];
            let second = objs[(i / objs.len() + 1) % objs.len()];
            if second != objects[0] {
                objects.push(second);
            }
            Query::new(acts[i % acts.len()], objects)
        })
        .collect();
    (script, serial, queries)
}

#[test]
fn serial_ingest_equals_two_thread_ingest() {
    let (script, serial, _) = movie();
    assert_eq!(script.num_clips(), 36);
    let (det, rec) = models();
    let proto = IouTracker::new(profiles::ideal_tracker(), SEED);
    let cfg = OnlineConfig::svaqd();
    let disabled = Tracer::disabled();
    let sharded =
        ingest_parallel_traced(&script, "bench", &det, &rec, &proto, &cfg, 2, &disabled).unwrap();
    let tables = |o: &IngestOutput| (o.object_rows.clone(), o.action_rows.clone());
    let sequences = |o: &IngestOutput| (o.object_sequences.clone(), o.action_sequences.clone());
    assert_eq!(tables(&serial), tables(&sharded));
    assert_eq!(sequences(&serial), sequences(&sharded));
}

/// The four queries as one batch: a service run with every query submitted
/// at tick 0, under limits that can neither reject a submission nor shed a
/// clip, so the shared cache executes each frame exactly once.
#[test]
fn online_batch_executes_each_frame_once() {
    let (script, _, queries) = movie();
    let (det, rec) = models();
    let geometry = script.geometry();
    let config = ServiceConfig {
        limits: ServiceLimits {
            max_standing: u32::MAX,
            budget_units: u64::MAX,
            default_quota: TenantQuota {
                max_standing: u32::MAX,
                max_budget_share: 1.0,
            },
            ..ServiceLimits::default()
        },
        queue_capacity: queries.len() * script.num_clips() as usize,
        default_deadline_us: u64::MAX / 2,
        engine: OnlineConfig::svaqd(),
        ..ServiceConfig::default()
    };
    let events: Vec<ServiceEvent> = queries
        .iter()
        .map(|q| ServiceEvent::Submit {
            tick: 0,
            spec: QuerySpec {
                tenant: TenantId(0),
                query: q.clone(),
                priority: 0,
                deadline_us: None,
                composite: None,
            },
        })
        .collect();
    let cache = InferenceCache::with_clip_capacity(geometry, 8);
    let host = ServiceHost::new(&cache, &det, &rec, geometry, config).unwrap();
    let report = run_service(&host, &script, &events).unwrap();

    let loses_no_work = report.completed.len() == queries.len() && report.shed_log.is_empty();
    assert!(loses_no_work, "batch lost work: {report:?}");
    let s = report.stats;
    assert_eq!((s.detector_frames, s.detector_cached), (1_800, 5_400));
    let one_pass_per_frame = s.detector_frames == script.num_frames();
    assert!(one_pass_per_frame, "{} frames", script.num_frames());
    let others_served_from_cache = s.detector_cached == 3 * s.detector_frames;
    assert!(others_served_from_cache, "{s:?}");
    // Hits over all lookups, 5,740 / 7,690, is the 0.7464 hit rate.
    let c = report.cache;
    let lookups = (c.detector_hits, c.detector_misses, c.recognizer_hits);
    assert_eq!((lookups, c.recognizer_misses), ((5_400, 1_800, 340), 150));
}

fn run(q: &Query, cfg: &OnlineConfig, script: &SceneScript) -> OnlineResult {
    let (det, rec) = models();
    OnlineEngine::new(q.clone(), *cfg, script.geometry(), &det, &rec)
        .unwrap()
        .try_run(VideoStream::new(script))
        .unwrap()
}

fn planned() -> OnlineConfig {
    OnlineConfig::svaq().with_planner(PlannerConfig::ON)
}

/// The twelve Table 1 queries, planner off vs on over identical streams.
#[test]
fn elision_battery_cuts_calls_without_changing_decisions() {
    let spec = youtube::YoutubeSpec {
        scale: SCALE,
        ..Default::default()
    };
    let battery = youtube::benchmark(&spec, SEED);
    assert_eq!(battery.len(), 12);
    let (mut clips, mut exhaustive, mut planned_calls, mut elided, mut early) = (0, 0, 0, 0, 0);
    for set in &battery {
        for video in &set.videos {
            clips += video.script.num_clips();
            let off = run(&set.query, &OnlineConfig::svaq(), &video.script);
            let on = run(&set.query, &planned(), &video.script);
            assert_decisions_identical(&on, &off, &format!("{} ({})", set.id, video.name));
            exhaustive += off.stats.detector_frames + off.stats.recognizer_shots;
            planned_calls += on.stats.detector_frames + on.stats.recognizer_shots;
            elided += on.stats.detector_elided + on.stats.recognizer_elided;
            early += on.stats.clips_decided_early;
        }
    }
    assert_eq!(clips, 684);
    assert_eq!((exhaustive, planned_calls), (35_545, 21_621));
    assert_eq!((elided, early), (13_924, 682));
    let reduction = 1.0 - planned_calls as f64 / exhaustive as f64;
    assert!(reduction >= 0.30, "call reduction {reduction} below 30%");
    let observes_elision = elided > 0 && early > 0;
    assert!(observes_elision);
}

/// The composite temporal cases, planner off vs on: composition is a pure
/// function of the decided leaf sets, so the windows must be identical.
#[test]
fn composite_battery_composes_identical_windows() {
    let fpc = VideoGeometry::PAPER_DEFAULT.frames_per_clip();
    let spec = composite::CompositeBatterySpec {
        frames: (((3 * 60 * 25) as f64 * SCALE) as u64).max(20 * fpc),
        ..Default::default()
    };
    let cases = composite::battery(&spec, SEED);
    let (mut leaf_engines, mut windows, mut f1_sum) = (0, 0, 0.0);
    for case in &cases {
        let script = &case.video.script;
        let ctx = ComposeContext {
            domain_clips: script.num_clips(),
            shots_per_clip: script.geometry().shots_in_clip(),
        };
        let compose = |cfg: &OnlineConfig| {
            let leaves = case.leaves.iter().map(|q| run(q, cfg, script).sequences);
            compose_evaluate(&case.root, &leaves.collect::<Vec<_>>(), &ctx).unwrap()
        };
        let off = compose(&OnlineConfig::svaq());
        assert_eq!(off, compose(&planned()), "case {}", case.id);
        leaf_engines += case.leaves.len();
        windows += off.intervals().len();
        f1_sum += sequence_prf(&off, &case.truth, 0.5).f1();
    }
    assert_eq!((cases.len(), leaf_engines, windows), (9, 17, 7));
    let mean_f1 = f1_sum / cases.len() as f64;
    assert!((mean_f1 - 0.8889).abs() < 5e-5, "mean F1 {mean_f1}");
}

/// RVAQ over the ingested tables at K = 3, without and with the planner.
#[test]
fn rvaq_access_counts_with_and_without_planner() {
    let (_, serial, queries) = movie();
    let (object_tables, action_tables) = serial.mem_tables(CostModel::DEFAULT);
    let mut sequences = 0;
    let (mut off_stats, mut on_stats) = (AccessStats::default(), AccessStats::default());
    for query in &queries {
        let pq = candidates_from_ingest(&serial, query).unwrap();
        assert!(!pq.is_empty(), "{query:?} has no candidates");
        let tables = QueryTables {
            action: &action_tables[&query.action] as &dyn ClipScoreTable,
            objects: (query.objects.iter())
                .map(|o| &object_tables[o] as &dyn ClipScoreTable)
                .collect(),
        };
        let k = 3.min(pq.len());
        let off = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(k));
        let on = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::planned(k));
        assert_eq!(on.sequences, off.sequences, "planned RVAQ on {query:?}");
        sequences += off.sequences.len();
        off_stats = off_stats.merge(&off.stats);
        on_stats = on_stats.merge(&on.stats);
    }
    assert_eq!((queries.len(), sequences), (4, 12));
    let counts = |s: AccessStats| (s.sorted, s.reverse, s.random, s.elided);
    assert_eq!(counts(off_stats), (70, 105, 140, 0), "planner off");
    assert_eq!(counts(on_stats), (68, 95, 137, 2), "planner on");
}

/// A fault-free standing-query schedule with the planner on end to end.
#[test]
fn service_counters_with_planner() {
    let profile = load::LoadProfile {
        minutes: 2,
        tenants: 4,
        submissions: 12,
        fault_bursts: 0,
        deadline_us: Some(4_000_000),
        ..load::LoadProfile::default()
    };
    let schedule = load::generate_load(&profile, SEED);
    let events = schedule.service_events();
    let geometry = *schedule.script.geometry();
    let config = ServiceConfig {
        queue_capacity: 8,
        overload: OverloadPolicy::ShedLowestPriority,
        default_deadline_us: 4_000_000,
        engine: planned(),
        ..ServiceConfig::default()
    };
    let (det, rec) = models();
    let cache = InferenceCache::with_clip_capacity(&geometry, 8);
    let host = ServiceHost::new(&cache, &det, &rec, &geometry, config).unwrap();
    let report = run_service(&host, &schedule.script, &events).unwrap();

    let shape = (report.ticks, events.len(), report.completed.len());
    assert_eq!(shape, (72, 19, 12));
    let delivery = (report.latency.delivered, report.shed_log.len());
    assert_eq!(delivery, (115, 454));
    let s = report.stats;
    assert_eq!((s.detector_frames, s.detector_cached), (3_293, 1_266));
    let early = s.clips_decided_early;
    assert_eq!(
        (s.detector_elided, s.recognizer_elided, early),
        (1_191, 29, 114)
    );
    let service_elides = s.detector_elided > 0;
    assert!(service_elides);
}
