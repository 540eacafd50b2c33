//! Elision-planner differential battery (DESIGN.md §14).
//!
//! The planner's contract is the **decisions projection**: with the
//! planner on, every run must reproduce the exhaustive engine's decision
//! stream exactly — merged sequences, per-clip indicators (overall, per
//! object predicate, and action), and typed gap markers — while executing
//! strictly fewer model calls. Occurrence *counts* (`object_counts`,
//! `action_count`) are deliberately outside the contract: an elided probe
//! never measures the frames it skipped, so counts on decided-early clips
//! legitimately stop short of the exhaustive tallies.
//!
//! Coverage, mirroring the subsystem's layers:
//!
//! * single-engine SVAQ and SVAQD over pinned-seed random scripts, ideal
//!   and noisy models (plus seeded property cases);
//! * SVAQD estimator feed-safety — background estimates and the adapted
//!   critical-value schedule bit-identical (`to_bits`), not just final
//!   decisions;
//! * fault injection (transient + outage) under `ImputeBackground`: gap
//!   markers and decisions identical, faults being pure functions of the
//!   occurrence-unit id rather than a call-sequence RNG;
//! * a multi-query batch: every query submitted to the service at tick 0;
//! * engine checkpoint/resume mid-stream with the planner's budget ledger
//!   riding in the checkpoint;
//! * the standing-query service: shed log byte-identical planner-on vs
//!   off (the charge model bills elided calls at full cost, keeping the
//!   time model invariant), summary JSON identical modulo the
//!   inference/cache blocks, and service checkpoint/resume;
//! * RVAQ's decided-in-sequence skip extension;
//! * a unit oracle proving the `verdict`/`settled` early-stop test sound
//!   against direct evaluation of the actual completion.

mod common;

use common::assert_decisions_identical;
use vaq::core::offline::tbclip::QueryTables;
use vaq::core::online::planner::{settled, verdict, Verdict};
use vaq::core::online::service::{
    checkpoint_service_at, resume_service, run_service, OverloadPolicy, QuerySpec, ServiceConfig,
    ServiceEvent, ServiceHost, ServiceReport, TenantId,
};
use vaq::core::{
    rvaq, EngineCheckpoint, OnlineConfig, OnlineEngine, OnlineResult, PaperScoring,
    ParameterPolicy, PlannerConfig, RvaqOptions,
};
use vaq::detect::{
    profiles, FaultInjector, FaultSchedule, InferenceCache, SimulatedActionRecognizer,
    SimulatedObjectDetector,
};
use vaq::scanstats::{critical_value, edge_corrected_k, ScanConfig};
use vaq::storage::{CostModel, MemTable, ScoreRow};
use vaq::types::rng::{for_cases, splitmix64};
use vaq::video::{SceneScript, SceneScriptBuilder, VideoStream};
use vaq::{ActionType, ClipId, ClipInterval, ObjectType, Query, SequenceSet, VideoGeometry};

const G: VideoGeometry = VideoGeometry::PAPER_DEFAULT;

fn o(i: u32) -> ObjectType {
    ObjectType::new(i)
}
fn a(i: u32) -> ActionType {
    ActionType::new(i)
}

/// Random script: `clips` clips with 2-4 object spans and 1-2 action
/// spans at random positions, so the sweep hits accepting, rejecting, and
/// mixed clips in one stream.
fn random_script(state: &mut u64, clips: u64) -> SceneScript {
    let frames = clips * G.frames_per_clip();
    let mut b = SceneScriptBuilder::new(frames, G);
    for obj in 1..=(2 + splitmix64(state) % 3) {
        let start = splitmix64(state) % (frames - 1);
        let end = (start + 1 + splitmix64(state) % frames).min(frames);
        b.object_span(o(obj as u32), start, end).unwrap();
    }
    for act in 0..=(splitmix64(state) % 2) {
        let start = splitmix64(state) % (frames - 1);
        let end = (start + 1 + splitmix64(state) % frames).min(frames);
        b.action_span(a(act as u32), start, end).unwrap();
    }
    b.build()
}

fn random_query(state: &mut u64) -> Query {
    let objects: Vec<ObjectType> = (1..=(1 + splitmix64(state) % 2))
        .map(|i| o(i as u32))
        .collect();
    Query::new(a((splitmix64(state) % 2) as u32), objects)
}

fn models(seed: u64, noisy: bool) -> (SimulatedObjectDetector, SimulatedActionRecognizer) {
    if noisy {
        (
            SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, seed),
            SimulatedActionRecognizer::new(profiles::i3d(), 36, seed),
        )
    } else {
        (
            SimulatedObjectDetector::new(profiles::ideal_object(), 86, seed),
            SimulatedActionRecognizer::new(profiles::ideal_action(), 36, seed),
        )
    }
}

fn run_one(
    query: &Query,
    config: OnlineConfig,
    script: &SceneScript,
    det: &SimulatedObjectDetector,
    rec: &SimulatedActionRecognizer,
) -> OnlineResult {
    OnlineEngine::new(query.clone(), config, &G, det, rec)
        .unwrap()
        .try_run(VideoStream::new(script))
        .unwrap()
}

// ---------------------------------------------------------------------------
// Single engine: SVAQ / SVAQD, pinned sweep + seeded property cases.
// ---------------------------------------------------------------------------

/// The paper-default engine config: SVAQD when `dynamic`, SVAQ otherwise.
fn base_config(dynamic: bool) -> OnlineConfig {
    if dynamic {
        OnlineConfig::svaqd()
    } else {
        OnlineConfig::svaq()
    }
}

/// One planner-on-vs-off comparison; returns (elided, executed_on,
/// executed_off) so sweeps can assert the savings materialize.
fn compare_once(seed: u64, base: OnlineConfig) -> (u64, u64, u64) {
    let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0xE11D_ED00_C0DE_CAFE;
    let clips = 24 + splitmix64(&mut s) % 16;
    let script = random_script(&mut s, clips);
    let query = random_query(&mut s);
    let noisy = seed % 2 == 1;
    let dynamic = matches!(base.policy, ParameterPolicy::Dynamic { .. });

    let (det, rec) = models(seed, noisy);
    let off = run_one(&query, base, &script, &det, &rec);
    let (det, rec) = models(seed, noisy);
    let on = run_one(
        &query,
        base.with_planner(PlannerConfig::ON),
        &script,
        &det,
        &rec,
    );

    assert_decisions_identical(
        &on,
        &off,
        &format!("seed={seed} dynamic={dynamic} noisy={noisy}"),
    );
    // Accounting closes: every occurrence unit the exhaustive engine
    // executed was either executed or elided by the planned run.
    assert_eq!(
        on.stats.detector_frames + on.stats.detector_elided,
        off.stats.detector_frames,
        "seed={seed} dynamic={dynamic}: detector accounting"
    );
    assert_eq!(
        on.stats.recognizer_shots + on.stats.recognizer_elided,
        off.stats.recognizer_shots,
        "seed={seed} dynamic={dynamic}: recognizer accounting"
    );
    assert!(
        on.stats.clips_decided_early <= on.records.len() as u64,
        "decided_early exceeds clip count"
    );
    (
        on.stats.detector_elided + on.stats.recognizer_elided,
        on.stats.detector_frames + on.stats.recognizer_shots,
        off.stats.detector_frames + off.stats.recognizer_shots,
    )
}

#[test]
fn svaq_planner_decisions_identical_pinned_sweep() {
    let mut elided = 0;
    let mut on_calls = 0;
    let mut off_calls = 0;
    for seed in 0..12u64 {
        let (e, on, off) = compare_once(seed, base_config(false));
        elided += e;
        on_calls += on;
        off_calls += off;
    }
    assert!(elided > 0, "sweep never elided a call");
    assert!(
        on_calls < off_calls,
        "planner executed as many calls as exhaustive ({on_calls} vs {off_calls})"
    );
}

#[test]
fn svaqd_planner_decisions_identical_pinned_sweep() {
    let mut elided = 0;
    for seed in 0..12u64 {
        elided += compare_once(seed, base_config(true)).0;
    }
    assert!(elided > 0, "SVAQD sweep never elided a call");
}

/// SVAQ clips the planner probes in stream order. With a background prior
/// this high, every critical value exceeds half its window (25 of a clip's
/// 50 frames, 2 of its 5 shots), so `ClipPlan::build` plans both kinds of
/// window sequentially, and early accepts and rejects still elide calls.
#[test]
fn sequential_planner_variant_is_also_identical() {
    let base = OnlineConfig::svaq().with_p0(0.6);
    for window in [G.frames_per_clip(), G.shots_in_clip()] {
        let horizon = base.horizon_clips * window;
        let k = critical_value(&ScanConfig::new(window, horizon, base.alpha).unwrap(), 0.6);
        assert!(
            2 * k > window,
            "k={k} leaves a {window}-unit window room to stratify"
        );
    }
    let mut elided = 0;
    for seed in 0..6u64 {
        elided += compare_once(seed, base).0;
    }
    assert!(elided > 0, "sequentially planned clips never elided a call");
}

/// Property form over drawn seeds and both engine flavors.
#[test]
fn prop_planner_decisions_identical() -> Result<(), String> {
    for_cases(
        "prop_planner_decisions_identical",
        16,
        |r| (r.gen_range(0u64..1 << 48), r.gen_bool(0.5)),
        |&(seed, dynamic)| {
            compare_once(seed, base_config(dynamic));
        },
    )
}

// ---------------------------------------------------------------------------
// SVAQD estimator feed-safety: internal state bit-identical, not just the
// final decisions.
// ---------------------------------------------------------------------------

#[test]
fn svaqd_planner_keeps_estimator_feeds_bit_identical() {
    for seed in [3u64, 17, 40] {
        let mut s = seed ^ 0xFEED_5AFE_7E57_0000;
        let script = random_script(&mut s, 30);
        let query = random_query(&mut s);
        let config = OnlineConfig::svaqd();

        let (det, rec) = models(seed, true);
        let mut off = OnlineEngine::new(query.clone(), config, &G, &det, &rec).unwrap();
        let (det2, rec2) = models(seed, true);
        let mut on = OnlineEngine::new(
            query.clone(),
            config.with_planner(PlannerConfig::ON),
            &G,
            &det2,
            &rec2,
        )
        .unwrap();

        for clip in VideoStream::new(&script) {
            off.push_clip(&clip);
            on.push_clip(&clip);
            // The censor-threshold accept floors force the planner to
            // finish every window whose event vector the exhaustive
            // engine would feed, so the adapted schedule never drifts —
            // checked clip by clip, bit for bit.
            assert_eq!(
                on.critical_values(),
                off.critical_values(),
                "seed={seed}: k_crit schedule diverged mid-stream"
            );
            let (on_obj, on_act) = on.background_estimates();
            let (off_obj, off_act) = off.background_estimates();
            assert_eq!(on_act.to_bits(), off_act.to_bits(), "seed={seed}");
            for (x, y) in on_obj.iter().zip(&off_obj) {
                assert_eq!(x.to_bits(), y.to_bits(), "seed={seed}");
            }
        }
        assert_decisions_identical(
            &on.into_result(),
            &off.into_result(),
            &format!("svaqd feed-safety seed={seed}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Fault injection: elision composes with transient faults and outages.
// ---------------------------------------------------------------------------

#[test]
fn planner_preserves_decisions_and_gaps_under_faults() {
    for (seed, dynamic) in [(5u64, false), (5, true), (29, false), (29, true)] {
        let mut s = seed ^ 0xFA17_0000_0000_0000;
        let script = random_script(&mut s, 30);
        let query = random_query(&mut s);
        let base = if dynamic {
            OnlineConfig::svaqd()
        } else {
            OnlineConfig::svaq()
        };
        // Transient noise everywhere plus a five-clip detector outage:
        // fault draws are keyed on (seed, occurrence unit, attempt), so
        // the frames both runs do probe fail identically even though the
        // planned run probes fewer of them.
        let schedule = |s: u64| {
            FaultSchedule::none(s)
                .with_transient_rate(0.08)
                .with_outage(1000, 250)
        };

        let run = |config: OnlineConfig| {
            let (det, rec) = models(seed, true);
            let det = FaultInjector::new(det, schedule(seed ^ 7)).unwrap();
            let rec = FaultInjector::new(rec, FaultSchedule::none(seed ^ 7)).unwrap();
            OnlineEngine::new(query.clone(), config, &G, &det, &rec)
                .unwrap()
                .try_run(VideoStream::new(&script))
                .unwrap()
        };
        let off = run(base);
        let on = run(base.with_planner(PlannerConfig::ON));
        assert!(
            !off.gaps.is_empty(),
            "seed={seed}: outage produced no gaps to compare"
        );
        assert_decisions_identical(&on, &off, &format!("faults seed={seed} dynamic={dynamic}"));
    }
}

// ---------------------------------------------------------------------------
// Multi-query delivery: a planner-on batch (every query submitted to the
// service at tick 0) decides exactly what planner-off engines decide.
// ---------------------------------------------------------------------------

#[test]
fn multi_query_batch_at_tick_zero_matches_standalone_engines() {
    let mut s = 0xBA77_E21E_5D00_0001u64;
    let script = random_script(&mut s, 36);
    let queries = [
        Query::new(a(0), vec![o(1)]),
        Query::new(a(1), vec![o(2)]),
        Query::new(a(0), vec![o(1), o(3)]),
    ];
    let config = OnlineConfig::svaq();
    let (det, rec) = models(11, true);

    let reference: Vec<OnlineResult> = queries
        .iter()
        .map(|q| {
            OnlineEngine::new(q.clone(), config, &G, &det, &rec)
                .unwrap()
                .try_run(VideoStream::new(&script))
                .unwrap()
        })
        .collect();

    let batch_config = ServiceConfig {
        queue_capacity: 4096,
        default_deadline_us: u64::MAX / 2,
        engine: config.with_planner(PlannerConfig::ON),
        ..ServiceConfig::default()
    };
    let events: Vec<ServiceEvent> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| ServiceEvent::Submit {
            tick: 0,
            spec: QuerySpec {
                tenant: TenantId(i as u32),
                query: q.clone(),
                priority: 0,
                deadline_us: None,
                composite: None,
            },
        })
        .collect();
    let cache = InferenceCache::with_clip_capacity(&G, 8);
    let host = ServiceHost::new(&cache, &det, &rec, &G, batch_config).unwrap();
    let report = run_service(&host, &script, &events).unwrap();

    assert!(report.shed_log.is_empty(), "unconstrained batch shed work");
    assert_eq!(report.completed.len(), reference.len());
    for (i, (on, off)) in report.completed.iter().zip(&reference).enumerate() {
        assert_decisions_identical(&on.result, off, &format!("query={i}"));
    }
    assert!(
        report.stats.detector_elided + report.stats.recognizer_elided > 0,
        "batch elided nothing"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint/resume: the budget ledger rides in the checkpoint, so a
// resumed run replans — and elides — identically.
// ---------------------------------------------------------------------------

#[test]
fn planner_engine_checkpoint_resumes_bit_identically_mid_stream() {
    let mut s = 0xC4EC_4B01_27A9_0002u64;
    let script = random_script(&mut s, 30);
    let query = random_query(&mut s);
    for config in [
        OnlineConfig::svaq().with_planner(PlannerConfig::ON),
        OnlineConfig::svaqd().with_planner(PlannerConfig::ON),
    ] {
        let (det, rec) = models(42, true);
        let want = {
            let mut full = OnlineEngine::new(query.clone(), config, &G, &det, &rec).unwrap();
            for clip in VideoStream::new(&script) {
                full.push_clip(&clip);
            }
            full.into_result()
        };
        // The uninterrupted planned run matches the exhaustive one.
        let base = OnlineConfig {
            planner: PlannerConfig::OFF,
            ..config
        };
        let off = run_one(&query, base, &script, &det, &rec);
        assert_decisions_identical(&want, &off, "uninterrupted");

        for split in [1usize, 7, 15, 29] {
            let mut first_half = OnlineEngine::new(query.clone(), config, &G, &det, &rec).unwrap();
            for clip in VideoStream::new(&script).take(split) {
                first_half.push_clip(&clip);
            }
            let checkpoint = first_half.checkpoint();
            let json = checkpoint.to_json().unwrap();
            let parsed = EngineCheckpoint::from_json(&json).unwrap();
            assert_eq!(parsed, checkpoint, "planner state lost in the JSON trip");

            let mut resumed =
                OnlineEngine::restore(query.clone(), config, &G, &det, &rec, &parsed).unwrap();
            for clip in VideoStream::new(&script).skip(split) {
                resumed.push_clip(&clip);
            }
            let resumed = resumed.into_result();
            assert_decisions_identical(&resumed, &want, &format!("split={split}"));
            // Both the stats block and the budget ledger ride in the
            // checkpoint, so the resumed run's cumulative accounting lands
            // exactly on the uninterrupted run's: the suffix elided the
            // same call set, no more, no fewer.
            assert_eq!(
                resumed.stats.detector_elided, want.stats.detector_elided,
                "split={split}: resumed run elided a different detector call set"
            );
            assert_eq!(
                resumed.stats.recognizer_elided, want.stats.recognizer_elided,
                "split={split}: resumed run elided a different recognizer call set"
            );
            assert_eq!(
                resumed.stats.clips_decided_early, want.stats.clips_decided_early,
                "split={split}: decided-early accounting diverged"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Standing-query service: shed log byte-identical, summary identical
// modulo the inference/cache blocks, checkpoint/resume.
// ---------------------------------------------------------------------------

fn service_script() -> SceneScript {
    let mut b = SceneScriptBuilder::new(2000, G);
    b.object_span(o(1), 200, 900).unwrap();
    b.object_span(o(2), 600, 1400).unwrap();
    b.object_span(o(3), 100, 1900).unwrap();
    b.action_span(a(0), 300, 1100).unwrap();
    b.action_span(a(1), 900, 1700).unwrap();
    b.build()
}

fn service_events() -> Vec<ServiceEvent> {
    let qs = [
        Query::new(a(0), vec![o(1)]),
        Query::new(a(1), vec![o(2)]),
        Query::new(a(0), vec![o(1), o(3)]),
    ];
    qs.iter()
        .enumerate()
        .map(|(i, q)| ServiceEvent::Submit {
            tick: 2 * i as u64,
            spec: QuerySpec {
                tenant: TenantId(i as u32),
                query: q.clone(),
                priority: i as u8,
                deadline_us: None,
                composite: None,
            },
        })
        .collect()
}

fn run_planner_service(config: &ServiceConfig, seed: u64) -> ServiceReport {
    let (det, rec) = models(seed, true);
    let cache = InferenceCache::with_clip_capacity(&G, 64);
    let host = ServiceHost::new(&cache, &det, &rec, &G, config.clone()).unwrap();
    run_service(&host, &service_script(), &service_events()).unwrap()
}

/// Summary JSON minus the lines that legitimately change under elision
/// (executed/cached/elided inference counters and raw cache hit counts).
fn summary_sans_inference(report: &ServiceReport) -> String {
    report
        .summary_json()
        .lines()
        .filter(|l| !l.contains("\"inference\"") && !l.contains("\"cache\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn service_artifacts_identical_planner_on_vs_off() {
    // Constrained enough that the scheduler actually sheds: the charge
    // model bills elided calls at full cost precisely so these decisions
    // cannot depend on the planner.
    let constrained = ServiceConfig {
        queue_capacity: 4,
        default_deadline_us: 3_000_000,
        overload: OverloadPolicy::ShedLowestPriority,
        engine: OnlineConfig::svaqd(),
        ..ServiceConfig::default()
    };
    let on_cfg = ServiceConfig {
        engine: constrained.engine.with_planner(PlannerConfig::ON),
        ..constrained.clone()
    };
    let off = run_planner_service(&constrained, 23);
    let on = run_planner_service(&on_cfg, 23);

    assert_eq!(
        on.shed_log_text(),
        off.shed_log_text(),
        "shed log not byte-identical planner-on vs off"
    );
    assert_eq!(on.ticks, off.ticks);
    assert_eq!(on.latency, off.latency);
    assert_eq!(on.tenants, off.tenants);
    assert_eq!(on.completed.len(), off.completed.len());
    for (x, y) in on.completed.iter().zip(&off.completed) {
        assert_eq!(x.id, y.id);
        assert_eq!(x.tenant, y.tenant);
        assert_decisions_identical(&x.result, &y.result, &format!("service query {}", x.id));
    }
    assert_eq!(
        summary_sans_inference(&on),
        summary_sans_inference(&off),
        "summary diverged outside the inference block"
    );
    assert!(
        on.stats.detector_elided > 0,
        "service run with planner elided nothing"
    );
    // And the planned service is itself replay-deterministic, bytes and all.
    let again = run_planner_service(&on_cfg, 23);
    assert_eq!(again.summary_json(), on.summary_json());
    assert_eq!(again.shed_log_text(), on.shed_log_text());
}

#[test]
fn service_checkpoint_resumes_with_planner_state() {
    let config = ServiceConfig {
        queue_capacity: 4096,
        default_deadline_us: u64::MAX / 2,
        engine: OnlineConfig::svaqd().with_planner(PlannerConfig::ON),
        ..ServiceConfig::default()
    };
    let script = service_script();
    let events = service_events();
    let uninterrupted = run_planner_service(&config, 31);

    for at_tick in [1u64, 13, 27] {
        let (det, rec) = models(31, true);
        let cache = InferenceCache::with_clip_capacity(&G, 64);
        let host = ServiceHost::new(&cache, &det, &rec, &G, config.clone()).unwrap();
        let ckpt = checkpoint_service_at(&host, &script, &events, at_tick).unwrap();

        let (det2, rec2) = models(31, true);
        let cache2 = InferenceCache::with_clip_capacity(&G, 64);
        let host2 = ServiceHost::new(&cache2, &det2, &rec2, &G, config.clone()).unwrap();
        let resumed = resume_service(&host2, &script, &events, &ckpt).unwrap();

        assert_eq!(resumed.ticks, uninterrupted.ticks, "tick={at_tick}");
        assert_eq!(resumed.shed_log_text(), uninterrupted.shed_log_text());
        assert_eq!(resumed.completed.len(), uninterrupted.completed.len());
        for (r, u) in resumed.completed.iter().zip(&uninterrupted.completed) {
            assert_eq!(r.id, u.id, "tick={at_tick}");
            assert_decisions_identical(
                &r.result,
                &u.result,
                &format!("resume at tick {at_tick}, query {}", r.id),
            );
        }
        assert_eq!(resumed.latency, uninterrupted.latency, "tick={at_tick}");
    }
}

// ---------------------------------------------------------------------------
// RVAQ: the planner's decided-in-sequence skip extension returns the same
// ranked sequences.
// ---------------------------------------------------------------------------

/// Dense random score tables plus a candidate set of disjoint runs.
fn random_rvaq_workload(state: &mut u64, clips: u64) -> (MemTable, MemTable, SequenceSet) {
    let mut action = Vec::new();
    let mut object = Vec::new();
    for c in 0..clips {
        action.push(ScoreRow {
            clip: ClipId::new(c),
            score: 0.1 + (splitmix64(state) % 100_000) as f64 / 1000.0,
        });
        object.push(ScoreRow {
            clip: ClipId::new(c),
            score: 0.1 + (splitmix64(state) % 100_000) as f64 / 1000.0,
        });
    }
    let mut intervals = Vec::new();
    let mut next = 0u64;
    while next < clips {
        let len = 1 + splitmix64(state) % 6;
        let end = (next + len - 1).min(clips - 1);
        if splitmix64(state) % 4 != 0 {
            intervals.push(ClipInterval::new(next, end));
        }
        next = end + 2;
    }
    (
        MemTable::new(action, CostModel::DEFAULT),
        MemTable::new(object, CostModel::DEFAULT),
        SequenceSet::from_intervals(intervals),
    )
}

#[test]
fn rvaq_planned_matches_exhaustive_pinned_sweep() {
    for seed in 0..32u64 {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x7B1A_11ED_0000_0001;
        let (at, ot, pq) = random_rvaq_workload(&mut s, 40 + seed % 40);
        if pq.is_empty() {
            continue;
        }
        let tables = QueryTables {
            action: &at,
            objects: vec![&ot],
        };
        for k in [1usize, 3, pq.len()] {
            let want = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(k));
            let got = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::planned(k));
            assert_eq!(
                got.sequences, want.sequences,
                "seed={seed} k={k}: planned RVAQ changed the ranking"
            );
        }
    }
}

#[test]
fn prop_rvaq_planned_matches_exhaustive() -> Result<(), String> {
    for_cases(
        "prop_rvaq_planned_matches_exhaustive",
        24,
        // Redrawn until the workload has a candidate sequence.
        |r| loop {
            let (seed, clips) = (r.gen_range(0u64..1 << 48), r.gen_range(10u64..90));
            if !random_rvaq_workload(&mut seed.clone(), clips).2.is_empty() {
                break (seed, clips);
            }
        },
        |&(seed, clips)| {
            let mut s = seed;
            let (at, ot, pq) = random_rvaq_workload(&mut s, clips);
            let tables = QueryTables {
                action: &at,
                objects: vec![&ot],
            };
            let k = 1 + (seed as usize) % pq.len();
            let want = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(k));
            let got = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::planned(k));
            assert_eq!(got.sequences, want.sequences);
        },
    )
}

// ---------------------------------------------------------------------------
// Unit oracle: once `settled` fires mid-window, the exhaustive decision on
// the *actual* completion matches the verdict — for every outcome stream.
// ---------------------------------------------------------------------------

/// The exhaustive engine's decision on a completed window under
/// `ImputeBackground`: edge-corrected bar on the observed sub-window,
/// `None` (typed gap) on zero observations.
fn exhaustive_decision(k: u64, total: u64, observed: u64, positives: u64) -> Option<bool> {
    if observed == 0 {
        return None;
    }
    Some(positives >= edge_corrected_k(k, observed, total))
}

/// Walks one outcome stream (0 = fault, 1 = negative, 2 = positive) and
/// checks every prefix's verdict against the realized completion.
fn check_outcome_stream(k: u64, outcomes: &[u8], min_accept: u64, allow_reject: bool) {
    let total = outcomes.len() as u64;
    let full_observed = outcomes.iter().filter(|&&x| x != 0).count() as u64;
    let full_positives = outcomes.iter().filter(|&&x| x == 2).count() as u64;
    let finished = exhaustive_decision(k, total, full_observed, full_positives);

    let mut observed = 0u64;
    let mut positives = 0u64;
    for (i, &outcome) in outcomes.iter().enumerate() {
        let v = verdict(k, total, i as u64, observed, positives);
        if settled(v, positives, min_accept, allow_reject) {
            // The planner would stop probing here; the exhaustive run over
            // the same outcomes must land on the very decision claimed.
            match v {
                Verdict::Accept => {
                    assert_eq!(
                        finished,
                        Some(true),
                        "k={k} outcomes={outcomes:?} prefix={i}: early accept was wrong"
                    );
                    assert!(positives >= min_accept, "accept below the estimator floor");
                }
                Verdict::Reject => {
                    assert!(allow_reject, "settled on a gated-off reject");
                    assert_eq!(
                        finished,
                        Some(false),
                        "k={k} outcomes={outcomes:?} prefix={i}: early reject was wrong"
                    );
                }
                Verdict::Undecided => unreachable!("settled undecided window"),
            }
            return;
        }
        observed += u64::from(outcome != 0);
        positives += u64::from(outcome == 2);
    }
    // Never settled: the full-window verdict must agree with the direct
    // decision whenever it is decided (gaps stay undecidable throughout).
    let v = verdict(k, total, total, observed, positives);
    match finished {
        Some(want) => assert_eq!(
            v,
            if want {
                Verdict::Accept
            } else {
                Verdict::Reject
            },
            "k={k} outcomes={outcomes:?}: full-window verdict disagrees"
        ),
        None => assert_eq!(v, Verdict::Undecided, "gap window produced a verdict"),
    }
}

#[test]
fn settled_verdicts_match_direct_evaluation_pinned_sweep() {
    for seed in 0..400u64 {
        let mut s = seed.wrapping_mul(0x0123_4567_89AB_CDEF) ^ 0x0DEC_1DED_EA51_0000;
        let total = 1 + (splitmix64(&mut s) % 12) as usize;
        let outcomes: Vec<u8> = (0..total).map(|_| (splitmix64(&mut s) % 3) as u8).collect();
        let k = 1 + splitmix64(&mut s) % (total as u64 + 1);
        let min_accept = splitmix64(&mut s) % (k + 1);
        let allow_reject = splitmix64(&mut s) % 2 == 0;
        check_outcome_stream(k, &outcomes, min_accept, allow_reject);
    }
}

#[test]
fn prop_settled_verdicts_match_direct_evaluation() -> Result<(), String> {
    for_cases(
        "prop_settled_verdicts_match_direct_evaluation",
        128,
        |r| {
            let total = r.gen_range(1..14usize);
            let outcomes: Vec<u8> = (0..total).map(|_| r.gen_range(0u8..3)).collect();
            let k = r.gen_range(1u64..16);
            (outcomes, k, r.gen_range(0u64..4), r.gen_bool(0.5))
        },
        |&(ref outcomes, k, min_accept, allow_reject)| {
            check_outcome_stream(k, outcomes, min_accept, allow_reject);
        },
    )
}
