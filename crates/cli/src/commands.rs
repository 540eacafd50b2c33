//! Command implementations.

use crate::args::Args;
use std::path::{Path, PathBuf};
use trace::Tracer;
use vaq_core::offline::candidates::candidates_from_ingest;
use vaq_core::offline::repository::Repository;
use vaq_core::offline::tbclip::QueryTables;
use vaq_core::{
    ingest_traced, run_service, rvaq_traced, ComposeNode, CompositeSpec, DegradationPolicy,
    OnlineConfig, OnlineEngine, OverloadPolicy, PaperScoring, RetryPolicy, RvaqOptions,
    ServiceConfig, ServiceEvent, ServiceHost, SharedScanCaches,
};
use vaq_datasets::{drift, load as service_load, movies, youtube};
use vaq_detect::{
    profiles, FaultInjector, FaultSchedule, InferenceCache, IouTracker, SimulatedActionRecognizer,
    SimulatedObjectDetector, TracingActionRecognizer, TracingObjectDetector,
};
use vaq_query::{execute_online, execute_repository, plan, QueryOutput};
use vaq_storage::{ClipScoreTable, CostModel, MemTable};
use vaq_types::{vocab, ActionType, ObjectType, Query, Result, VaqError, VideoGeometry};
use vaq_video::{load_script, save_script, SceneScript, SceneScriptBuilder, VideoStream};

fn models(kind: &str, seed: u64) -> Result<(SimulatedObjectDetector, SimulatedActionRecognizer)> {
    let nobj = vocab::coco_objects().len() as u32;
    let nact = vocab::kinetics_actions().len() as u32;
    let (op, ap) = match kind {
        "maskrcnn" => (profiles::mask_rcnn(), profiles::i3d()),
        "yolo" => (profiles::yolov3(), profiles::i3d()),
        "ideal" => (profiles::ideal_object(), profiles::ideal_action()),
        other => {
            return Err(VaqError::InvalidConfig(format!(
                "unknown model stack {other:?} (expected maskrcnn|yolo|ideal)"
            )))
        }
    };
    Ok((
        SimulatedObjectDetector::new(op, nobj, seed),
        SimulatedActionRecognizer::new(ap, nact, seed),
    ))
}

fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// `gen`: generate benchmark scene scripts to JSON.
pub fn gen(args: &Args, out: &mut Vec<String>) -> Result<()> {
    let kind = args.require("kind")?;
    let dir = PathBuf::from(args.require("out")?);
    std::fs::create_dir_all(&dir)?;
    let seed = args.get_or("seed", 42u64)?;
    let scale = args.get_or("scale", 0.1f64)?;

    let set = match kind {
        "youtube" => {
            let id = args.get("id").unwrap_or("q1");
            let row = youtube::row(id).ok_or_else(|| {
                VaqError::InvalidConfig(format!("unknown YouTube query id {id:?} (q1..q12)"))
            })?;
            let spec = youtube::YoutubeSpec {
                scale,
                ..Default::default()
            };
            youtube::query_set(row, &spec, seed)
        }
        "movie" => {
            let id = args.get("id").unwrap_or("Coffee and Cigarettes");
            let row = movies::row(id).ok_or_else(|| {
                VaqError::InvalidConfig(format!("unknown movie {id:?} (see Table 2)"))
            })?;
            let spec = movies::MovieSpec {
                scale,
                ..Default::default()
            };
            movies::movie(row, &spec, seed)
        }
        "drift" => drift::surveillance(&drift::DriftSpec::default(), seed),
        other => {
            return Err(VaqError::InvalidConfig(format!(
                "unknown dataset kind {other:?} (expected youtube|movie|drift)"
            )))
        }
    };

    for video in &set.videos {
        let path = dir.join(format!("{}.json", slug(&video.name)));
        save_script(&video.script, &path)?;
        out.push(format!(
            "wrote {} ({} clips)",
            path.display(),
            video.script.num_clips()
        ));
    }
    out.push(format!("query: {}", set.description));
    Ok(())
}

fn load(path: &str) -> Result<SceneScript> {
    load_script(Path::new(path))
}

/// `ingest`: run the ingestion phase for one scripted video into a
/// repository directory.
pub fn ingest(args: &Args, out: &mut Vec<String>, tracer: &Tracer) -> Result<()> {
    let script_path = args.require("script")?;
    let repo_dir = PathBuf::from(args.require("repo")?);
    std::fs::create_dir_all(&repo_dir)?;
    let seed = args.get_or("seed", 42u64)?;
    let stack = args.get("models").unwrap_or("maskrcnn");
    let name = args.get("name").map(str::to_owned).unwrap_or_else(|| {
        Path::new(script_path)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "video".into())
    });

    let script = load(script_path)?;
    let (detector, recognizer) = models(stack, seed)?;
    let mut tracker = IouTracker::new(
        if stack == "ideal" {
            profiles::ideal_tracker()
        } else {
            profiles::centertrack()
        },
        seed,
    );
    let output = ingest_traced(
        &script,
        name.clone(),
        &detector,
        &recognizer,
        &mut tracker,
        &OnlineConfig::svaqd(),
        tracer,
    )?;
    let mut repo = Repository::open(&repo_dir, CostModel::DEFAULT)?;
    repo.add(&output)?;
    out.push(format!(
        "ingested {name:?}: {} clips, {} object tables, {} action tables, \
         {:.1} simulated inference minutes",
        output.geometry.num_clips(output.num_frames),
        output.object_rows.len(),
        output.action_rows.len(),
        output.stats.inference_ms() / 60_000.0
    ));
    Ok(())
}

/// `info`: list a repository's videos.
pub fn info(args: &Args, out: &mut Vec<String>) -> Result<()> {
    let repo = Repository::open(args.require("repo")?, CostModel::DEFAULT)?;
    out.push(format!("{} video(s)", repo.len()));
    for name in repo.names() {
        let cat = repo.catalog(name).expect("listed name");
        let m = cat.manifest();
        out.push(format!(
            "  {name}: {} clips, {} object tables, {} action tables",
            m.num_clips(),
            m.object_tables.len(),
            m.action_tables.len()
        ));
    }
    Ok(())
}

/// `fsck`: scan a repository's catalogs for missing/truncated/corrupt
/// files. Reports every finding and returns a distinct exit code per
/// corruption class ([`vaq_storage::FsckReport::exit_code`]: 0 clean,
/// 3 corrupt, 4 missing, 5 both) so shell pipelines can branch on the
/// failure mode; an unscannable repository is still an `Err` (exit 2).
pub fn fsck(args: &Args, out: &mut Vec<String>) -> Result<i32> {
    let dir = PathBuf::from(args.require("repo")?);
    let report = vaq_storage::fsck_repository(&dir)?;
    for entry in &report.entries {
        out.push(format!("{}: {}", entry.path.display(), entry.status));
    }
    let problems = report.problems().len();
    out.push(format!(
        "{} file(s) checked, {} problem(s)",
        report.entries.len(),
        problems
    ));
    Ok(report.exit_code())
}

/// `query`: run an offline (top-K) VAQ-SQL query across a repository.
pub fn query(args: &Args, out: &mut Vec<String>) -> Result<()> {
    let repo = Repository::open(args.require("repo")?, CostModel::DEFAULT)?;
    let sql = args.require("sql")?;
    let stmt = vaq_query::parse(sql)?;
    let p = plan(&stmt, &vocab::coco_objects(), &vocab::kinetics_actions())?;
    match execute_repository(&p, &repo, &PaperScoring)? {
        QueryOutput::RankedRepo(rows) => {
            if rows.is_empty() {
                out.push("no results".into());
            }
            for (rank, r) in rows.iter().enumerate() {
                out.push(format!(
                    "#{:<2} {}  {}  score {:.1}",
                    rank + 1,
                    r.video,
                    r.interval,
                    r.score
                ));
            }
        }
        other => out.push(format!("unexpected output {other:?}")),
    }
    Ok(())
}

/// `stream`: run an online VAQ-SQL query over one scripted video.
pub fn stream(args: &Args, out: &mut Vec<String>, tracer: &Tracer) -> Result<()> {
    let script = load(args.require("script")?)?;
    let sql = args.require("sql")?;
    let seed = args.get_or("seed", 42u64)?;
    let (detector, recognizer) = models(args.get("models").unwrap_or("maskrcnn"), seed)?;
    let detector = TracingObjectDetector::new(&detector, tracer.clone());
    let recognizer = TracingActionRecognizer::new(&recognizer, tracer.clone());
    let stmt = vaq_query::parse(sql)?;
    let p = plan(&stmt, &vocab::coco_objects(), &vocab::kinetics_actions())?;
    let (result, stats) =
        execute_online(&p, &script, &detector, &recognizer, &OnlineConfig::svaqd())?;
    match result {
        QueryOutput::Sequences(seqs) => {
            out.push(format!("{} sequence(s): {seqs}", seqs.len()));
            out.push(format!(
                "cost: {} frames detected, {} shots recognized, {:.1} simulated minutes",
                stats.detector_frames,
                stats.recognizer_shots,
                stats.inference_ms() / 60_000.0
            ));
        }
        other => out.push(format!("unexpected output {other:?}")),
    }
    Ok(())
}

/// `serve-sim`: run the standing-query service against a seeded
/// load-and-chaos schedule end-to-end — submission arrivals with
/// hot-tenant skew, churn, tenant stalls, and detector-fault bursts over
/// one long stream — and print the deterministic latency/shed summary
/// JSON. `--composite N` upgrades the first N submissions to composite
/// standing queries. Same seed, same flags ⇒ byte-identical output.
pub fn serve_sim(args: &Args, out: &mut Vec<String>, tracer: &Tracer) -> Result<()> {
    let seed = args.get_or("seed", 42u64)?;
    let minutes = args.get_or("minutes", 2u64)?;
    let tenants = args.get_or("tenants", 4u32)?;
    let submissions = args.get_or("submissions", 16u32)?;
    let queue = args.get_or("queue", 8usize)?;
    let deadline_ms = args.get_or("deadline-ms", 4_000u64)?;
    let faults = args.get_or("faults", 1u32)?;
    let keep_every = args.get_or("keep-every", 4u32)?;
    let stack = args.get("models").unwrap_or("maskrcnn");
    let overload = match args.get("policy").unwrap_or("shed") {
        "reject" => OverloadPolicy::RejectNew,
        "shed" => OverloadPolicy::ShedLowestPriority,
        "degrade" => OverloadPolicy::Degrade { keep_every },
        other => {
            return Err(VaqError::InvalidConfig(format!(
                "unknown overload policy {other:?} (expected reject|shed|degrade)"
            )))
        }
    };

    let profile = service_load::LoadProfile {
        minutes,
        tenants,
        submissions,
        fault_bursts: faults,
        deadline_us: Some(deadline_ms.saturating_mul(1_000)),
        ..service_load::LoadProfile::default()
    };
    let schedule = service_load::generate_load(&profile, seed);
    let mut events = schedule.service_events();
    // `--composite N`: upgrade the first N submissions to composite
    // standing queries (primary THEN a second template WITHIN 5 CLIPS),
    // exercising the per-leaf engines and departure-time composition
    // under the same load and chaos schedule.
    let composite_n = args.get_or("composite", 0usize)?;
    let templates = service_load::service_templates();
    let mut upgraded = 0usize;
    for event in events.iter_mut() {
        if upgraded == composite_n {
            break;
        }
        if let ServiceEvent::Submit { spec, .. } = event {
            let partner = templates
                .iter()
                .find(|t| **t != spec.query)
                .unwrap_or(&templates[0]);
            spec.composite = Some(CompositeSpec {
                format_version: vaq_types::format::COMPOSITE_STATE_VERSION,
                extra_leaves: vec![partner.clone()],
                root: ComposeNode::Then {
                    first: Box::new(ComposeNode::Leaf(0)),
                    second: Box::new(ComposeNode::Leaf(1)),
                    within_clips: 5,
                },
            });
            upgraded += 1;
        }
    }

    let geometry = *schedule.script.geometry();
    let (detector, recognizer) = models(stack, seed)?;
    // The chaos half of `serve-sim`: the detector is unavailable during
    // the load schedule's fault bursts (clip windows, in frames here).
    let fpc = geometry.frames_per_clip();
    let outages = schedule
        .fault_windows
        .iter()
        .fold(FaultSchedule::none(seed), |s, w| {
            s.with_outage(w.start_clip * fpc, (w.end_clip - w.start_clip) * fpc)
        });
    let detector = FaultInjector::new(detector, outages)?;
    let config = ServiceConfig {
        queue_capacity: queue,
        overload,
        default_deadline_us: deadline_ms.saturating_mul(1_000),
        // Fault bursts gap the affected clip rather than aborting the
        // standing query; unaffected tenants stay fault-transparent.
        engine: OnlineConfig::svaqd()
            .with_degradation(DegradationPolicy::SkipClip)
            .with_retry(RetryPolicy::NONE),
        ..ServiceConfig::default()
    };
    let cache = InferenceCache::with_clip_capacity(&geometry, 8);
    let host = ServiceHost::new_traced(
        &cache,
        &detector,
        &recognizer,
        &geometry,
        config,
        tracer.clone(),
    )?;
    let report = run_service(&host, &schedule.script, &events)?;

    out.push(format!(
        "serve-sim: seed {seed}, {} clips, {} event(s), {} fault window(s), \
         {upgraded} composite submission(s), policy {overload}",
        schedule.clips,
        events.len(),
        schedule.fault_windows.len(),
    ));
    if composite_n > 0 {
        let composed: usize = report
            .completed
            .iter()
            .filter(|c| c.composite.is_some())
            .count();
        out.push(format!(
            "composite: {composed} of {} completed standing queries composed",
            report.completed.len()
        ));
    }
    for line in report.summary_json().lines() {
        out.push(line.to_string());
    }
    Ok(())
}

/// `demo`: exercise every traced subsystem over a built-in scripted video
/// — serial ingestion, an online SVAQD query through a traced inference
/// cache, and the offline RVAQ top-K over the ingested tables. Run it as
/// `vaq-cli --trace out.jsonl demo` to capture the full span tree (ingest
/// clips, detector/recognizer calls with cache provenance, critical-value
/// computations, per-clip decisions, RVAQ iterations) as JSON lines.
pub fn demo(args: &Args, out: &mut Vec<String>, tracer: &Tracer) -> Result<()> {
    let seed = args.get_or("seed", 42u64)?;
    let k = args.get_or("k", 5usize)?;
    let stack = args.get("models").unwrap_or("ideal");

    // The built-in scene: object 1 and action 0 co-occur in six episodes
    // of 2 to 7 clips, three clips apart, so the demo query has more
    // candidate sequences than the default K, with distinct scores, and
    // RVAQ has to iterate to rank them; object 2 is mostly background.
    let geometry = VideoGeometry::PAPER_DEFAULT;
    let fpc = geometry.frames_per_clip();
    let mut builder = SceneScriptBuilder::new(60 * fpc, geometry);
    let mut clip = 2;
    for len in [4, 7, 2, 6, 3, 5] {
        builder.object_span(ObjectType::new(1), clip * fpc, (clip + len) * fpc)?;
        builder.action_span(ActionType::new(0), clip * fpc, (clip + len) * fpc)?;
        clip += len + 3;
    }
    builder.object_span(ObjectType::new(2), 0, 48 * fpc)?;
    let script = builder.build();
    let query = Query::new(ActionType::new(0), vec![ObjectType::new(1)]);

    let (detector, recognizer) = models(stack, seed)?;
    let mut tracker = IouTracker::new(
        if stack == "ideal" {
            profiles::ideal_tracker()
        } else {
            profiles::centertrack()
        },
        seed,
    );
    let cfg = OnlineConfig::svaqd();

    // 1. Ingestion (serial, so span ids in the trace are reproducible).
    let ingested = ingest_traced(
        &script,
        "demo",
        &detector,
        &recognizer,
        &mut tracker,
        &cfg,
        tracer,
    )?;
    out.push(format!(
        "ingested {} clips, {} object tables, {} action tables",
        script.num_clips(),
        ingested.object_rows.len(),
        ingested.action_rows.len()
    ));

    // 2. Online SVAQD through a traced inference cache: `detect.frame` /
    // `detect.shot` spans carry executed-vs-cached provenance, the shared
    // critical-value caches count hits and misses, and each clip decision
    // is an `online.clip` span.
    let cache = InferenceCache::with_clip_capacity(&geometry, 1);
    let cached_detector = cache.detector(&detector);
    let cached_recognizer = cache.recognizer(&recognizer);
    let traced_detector = TracingObjectDetector::new(&cached_detector, tracer.clone());
    let traced_recognizer = TracingActionRecognizer::new(&cached_recognizer, tracer.clone());
    let scan_caches = SharedScanCaches::new_traced(&cfg, &geometry, tracer)?;
    let engine = OnlineEngine::with_shared_caches(
        query.clone(),
        cfg,
        &geometry,
        &traced_detector,
        &traced_recognizer,
        &scan_caches,
    )?
    .with_tracer(tracer.clone());
    let online = engine.run(VideoStream::new(&script));
    out.push(format!(
        "online[svaqd]: {} sequence(s): {}",
        online.sequences.len(),
        online.sequences
    ));

    // 3. Offline RVAQ top-K over the ingested score tables.
    let pq = candidates_from_ingest(&ingested, &query)?;
    let action_rows = ingested
        .action_rows
        .get(&query.action)
        .cloned()
        .unwrap_or_default();
    let action_table = MemTable::new(action_rows, CostModel::FREE);
    let object_tables: Vec<MemTable> = query
        .objects
        .iter()
        .map(|o| {
            MemTable::new(
                ingested.object_rows.get(o).cloned().unwrap_or_default(),
                CostModel::FREE,
            )
        })
        .collect();
    let tables = QueryTables {
        action: &action_table,
        objects: object_tables
            .iter()
            .map(|t| t as &dyn ClipScoreTable)
            .collect(),
    };
    let top = rvaq_traced(&tables, &pq, &PaperScoring, &RvaqOptions::new(k), tracer);
    out.push(format!(
        "rvaq top-{k} ({} candidates, {} iterations):",
        pq.len(),
        top.iterations
    ));
    for (rank, (interval, score)) in top.sequences.iter().enumerate() {
        out.push(format!("  #{:<2} {interval}  score {score:.1}", rank + 1));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_code(argv: &[&str]) -> Result<(i32, Vec<String>)> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        let code = crate::run(&argv, &mut out)?;
        Ok((code, out))
    }

    fn run(argv: &[&str]) -> Result<Vec<String>> {
        run_code(argv).map(|(_, out)| out)
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vaq-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn help_and_unknown_command() {
        let out = run(&["help"]).unwrap();
        assert!(out[0].contains("USAGE"));
        assert!(run(&["frobnicate"]).is_err());
        let out = run(&[]).unwrap();
        assert!(out[0].contains("USAGE"));
    }

    #[test]
    fn full_workflow_gen_ingest_info_query_stream() {
        let dir = tmp("workflow");
        let videos = dir.join("videos");
        let repo = dir.join("repo");

        // gen a tiny movie
        let out = run(&[
            "gen",
            "--kind",
            "movie",
            "--id",
            "Coffee and Cigarettes",
            "--out",
            videos.to_str().unwrap(),
            "--scale",
            "0.02",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out.iter().any(|l| l.starts_with("wrote ")));
        let script = videos.join("coffee_and_cigarettes.json");
        assert!(script.exists());

        // ingest with ideal models (fast + exact)
        let out = run(&[
            "ingest",
            "--script",
            script.to_str().unwrap(),
            "--repo",
            repo.to_str().unwrap(),
            "--models",
            "ideal",
            "--seed",
            "5",
        ])
        .unwrap();
        assert!(out[0].contains("ingested"));

        // info
        let out = run(&["info", "--repo", repo.to_str().unwrap()]).unwrap();
        assert_eq!(out[0], "1 video(s)");

        // offline query across the repository
        let out = run(&[
            "query",
            "--repo",
            repo.to_str().unwrap(),
            "--sql",
            "SELECT MERGE(clipID), RANK(act,obj) FROM (PROCESS any PRODUCE clipID) \
             WHERE act='smoking' AND obj.include('wine glass','cup') \
             ORDER BY RANK(act,obj) LIMIT 3",
        ])
        .unwrap();
        assert!(out[0].starts_with("#1 "), "{out:?}");
        assert!(out[0].contains("coffee_and_cigarettes"));

        // online query over the script
        let out = run(&[
            "stream",
            "--script",
            script.to_str().unwrap(),
            "--models",
            "ideal",
            "--sql",
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='smoking'",
        ])
        .unwrap();
        assert!(out[0].contains("sequence(s)"), "{out:?}");
    }

    #[test]
    fn fsck_reports_clean_and_corrupt_repositories() {
        let dir = tmp("fsck");
        let videos = dir.join("videos");
        let repo = dir.join("repo");
        run(&[
            "gen",
            "--kind",
            "movie",
            "--id",
            "Coffee and Cigarettes",
            "--out",
            videos.to_str().unwrap(),
            "--scale",
            "0.02",
            "--seed",
            "5",
        ])
        .unwrap();
        let script = videos.join("coffee_and_cigarettes.json");
        run(&[
            "ingest",
            "--script",
            script.to_str().unwrap(),
            "--repo",
            repo.to_str().unwrap(),
            "--models",
            "ideal",
            "--seed",
            "5",
        ])
        .unwrap();

        let (code, out) = run_code(&["fsck", "--repo", repo.to_str().unwrap()]).unwrap();
        assert_eq!(code, 0, "{out:?}");
        assert!(out.last().unwrap().contains("0 problem(s)"), "{out:?}");

        // Truncate the catalog: exit code 3 (corrupt only).
        let catalog = repo.join("coffee_and_cigarettes").join("catalog.vaq");
        let bytes = std::fs::read(&catalog).unwrap();
        std::fs::write(&catalog, &bytes[..bytes.len() / 2]).unwrap();
        let (code, out) = run_code(&["fsck", "--repo", repo.to_str().unwrap()]).unwrap();
        assert_eq!(code, 3, "{out:?}");
        assert!(out.last().unwrap().contains("problem(s)"), "{out:?}");

        // Also leave a second video's uncommitted temporary: both classes
        // present → exit code 5.
        let torn = repo.join("torn");
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(torn.join("catalog.vaq.tmp"), &bytes[..100]).unwrap();
        let (code, _) = run_code(&["fsck", "--repo", repo.to_str().unwrap()]).unwrap();
        assert_eq!(code, 5);

        // Repair the catalog: missing only → exit code 4.
        std::fs::write(&catalog, &bytes).unwrap();
        let (code, _) = run_code(&["fsck", "--repo", repo.to_str().unwrap()]).unwrap();
        assert_eq!(code, 4);

        // An unscannable path is still a hard error (exit 2 in the binary).
        assert!(run(&["fsck", "--repo", dir.join("nope").to_str().unwrap()]).is_err());
    }

    #[test]
    fn serve_sim_summary_is_seed_deterministic() {
        let argv = |seed: &'static str| {
            [
                "serve-sim",
                "--seed",
                seed,
                "--minutes",
                "1",
                "--submissions",
                "10",
                "--queue",
                "4",
                "--models",
                "ideal",
            ]
        };
        let a = run(&argv("9")).unwrap();
        let b = run(&argv("9")).unwrap();
        assert_eq!(a, b, "same seed must be byte-identical");
        let body = a.join("\n");
        assert!(a[0].starts_with("serve-sim: seed 9"), "{:?}", a[0]);
        for key in [
            "\"ticks\"",
            "\"queries\"",
            "\"sheds\"",
            "\"latency_us\"",
            "\"tenants\"",
            "\"inference\"",
            "\"cache\"",
        ] {
            assert!(body.contains(key), "missing {key} in {body}");
        }
        let c = run(&argv("10")).unwrap();
        assert_ne!(a, c, "different seed should change the summary");
    }

    #[test]
    fn serve_sim_composite_submissions_compose_deterministically() {
        let argv = [
            "serve-sim",
            "--seed",
            "9",
            "--minutes",
            "1",
            "--submissions",
            "6",
            "--queue",
            "8",
            "--models",
            "ideal",
            "--composite",
            "2",
        ];
        let a = run(&argv).unwrap();
        let b = run(&argv).unwrap();
        assert_eq!(a, b, "composite serve-sim must stay byte-identical");
        assert!(a[0].contains("2 composite submission(s)"), "{:?}", a[0]);
        let composed_line = a
            .iter()
            .find(|l| l.starts_with("composite:"))
            .expect("composite summary line");
        assert!(
            !composed_line.starts_with("composite: 0 of"),
            "no composite submission survived to composition: {composed_line}"
        );
    }

    #[test]
    fn serve_sim_rejects_unknown_policy() {
        let err = run(&["serve-sim", "--policy", "panic"]).unwrap_err();
        assert!(err.to_string().contains("overload policy"), "{err}");
    }

    #[test]
    fn demo_with_trace_covers_every_subsystem() {
        let dir = tmp("demo");
        let trace_path = dir.join("trace.jsonl");
        let out = run(&[
            "--trace",
            trace_path.to_str().unwrap(),
            "demo",
            "--seed",
            "1",
            "--k",
            "3",
        ])
        .unwrap();
        assert!(out.iter().any(|l| l.contains("ingested")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("online[svaqd]")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("rvaq top-3")), "{out:?}");
        // The summary table and the pointer to the span stream follow the
        // command's own output.
        assert!(out.iter().any(|l| l.starts_with("span")), "{out:?}");
        assert!(out.iter().any(|l| l.contains("trace written to")));

        // The span stream covers ingest, model calls with cache
        // provenance, critical-value computation, per-clip decisions and
        // RVAQ iterations.
        let body = std::fs::read_to_string(&trace_path).unwrap();
        for needle in [
            "\"name\":\"ingest\"",
            "\"name\":\"ingest.clip\"",
            "\"name\":\"detect.frame\"",
            "\"name\":\"detect.shot\"",
            "\"name\":\"scanstats.cv_compute\"",
            "\"name\":\"online.clip\"",
            "\"name\":\"rvaq\"",
            "\"name\":\"rvaq.iteration\"",
            "\"provenance\":\"executed\"",
        ] {
            assert!(body.contains(needle), "missing {needle}");
        }
        // Every line parses as a self-contained JSON object.
        for line in body.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn demo_without_trace_still_reports_results() {
        let out = run(&["demo", "--seed", "1", "--k", "2"]).unwrap();
        assert!(out.iter().any(|l| l.contains("online[svaqd]")), "{out:?}");
        assert!(!out.iter().any(|l| l.contains("trace written")));
    }

    #[test]
    fn trace_flag_requires_a_path() {
        let err = run(&["--trace"]).unwrap_err();
        assert!(err.to_string().contains("--trace"), "{err}");
    }

    #[test]
    fn trace_before_an_untraced_command_is_a_usage_error() {
        let dir = tmp("untraced");
        let trace_path = dir.join("trace.jsonl");
        let trace = trace_path.to_str().unwrap();
        let repo = dir.join("repo");
        let repo = repo.to_str().unwrap();
        for argv in [
            &["--trace", trace, "gen", "--kind", "youtube", "--out", repo][..],
            &["--trace", trace, "info", "--repo", repo],
            &["--trace", trace, "fsck", "--repo", repo],
            &["--trace", trace, "query", "--repo", repo, "--sql", "x"],
        ] {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            let failure = crate::run(&argv, &mut Vec::new()).unwrap_err();
            assert!(matches!(failure, crate::Failure::Usage(_)), "{argv:?}");
            let report = failure.report();
            for traced in crate::TRACED_COMMANDS {
                assert!(report.contains(traced), "{report}");
            }
            assert!(!trace_path.exists(), "{argv:?} created the trace file");
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn trace_write_errors_fail_the_command() {
        let argv: Vec<String> = ["--trace", "/dev/full", "demo", "--seed", "1", "--k", "2"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut out = Vec::new();
        let failure = crate::run(&argv, &mut out).unwrap_err();
        let crate::Failure::Command(VaqError::Io(err)) = &failure else {
            panic!("expected an I/O command failure, got {failure:?}");
        };
        assert!(err.to_string().contains("/dev/full"), "{err}");
        assert!(!out.iter().any(|l| l.contains("trace written")), "{out:?}");
    }

    #[test]
    fn only_usage_errors_print_the_usage_text() {
        let fail = |argv: &[&str]| {
            let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
            crate::run(&argv, &mut Vec::new()).unwrap_err()
        };
        for argv in [&["frobnicate"][..], &["--trace"], &["info", "stray"]] {
            let failure = fail(argv);
            assert!(matches!(failure, crate::Failure::Usage(_)), "{argv:?}");
            let report = failure.report();
            assert!(report.starts_with("error: "), "{report}");
            assert!(report.ends_with(crate::USAGE), "{report}");
        }
        // A command that runs and fails on its data reports its error line
        // alone.
        let dir = tmp("no-usage");
        let repo = dir.join("nope");
        let failure = fail(&["info", "--repo", repo.to_str().unwrap()]);
        assert!(matches!(failure, crate::Failure::Command(_)));
        let report = failure.report();
        assert!(report.starts_with("error: "), "{report}");
        assert_eq!(report.lines().count(), 1, "{report}");
    }

    #[test]
    fn gen_validates_ids() {
        let dir = tmp("badid");
        assert!(run(&[
            "gen",
            "--kind",
            "youtube",
            "--id",
            "q99",
            "--out",
            dir.to_str().unwrap()
        ])
        .is_err());
        assert!(run(&["gen", "--kind", "opera", "--out", dir.to_str().unwrap()]).is_err());
    }

    #[test]
    fn query_requires_offline_sql() {
        let dir = tmp("mode");
        let repo = dir.join("repo");
        std::fs::create_dir_all(&repo).unwrap();
        let err = run(&[
            "query",
            "--repo",
            repo.to_str().unwrap(),
            "--sql",
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='smoking'",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("online"), "{err}");
    }

    #[test]
    fn unknown_model_stack_rejected() {
        let dir = tmp("models");
        let videos = dir.join("videos");
        run(&[
            "gen",
            "--kind",
            "drift",
            "--out",
            videos.to_str().unwrap(),
            "--seed",
            "3",
        ])
        .unwrap();
        let script = std::fs::read_dir(&videos)
            .unwrap()
            .next()
            .unwrap()
            .unwrap()
            .path();
        let err = run(&[
            "ingest",
            "--script",
            script.to_str().unwrap(),
            "--repo",
            dir.join("r").to_str().unwrap(),
            "--models",
            "resnet",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("model stack"));
    }
}
