//! Heap allocations per clip on the online path (DESIGN.md §18): the
//! models append into caller-owned buffers, the shared inference cache
//! copies hits into them, and the engines reuse their per-clip scratch, so
//! once warm a clip allocates only what outlives it.
//!
//! A counting global allocator counts fresh blocks and reallocations made
//! on the test's own thread while a thread-local flag is set; the test
//! harness's other threads are never counted. An exhaustive and a planned
//! SVAQD engine share one [`InferenceCache`] over a fixed script, are
//! warmed on its first clips, and are then measured clip by clip. The
//! critical-value caches they share are warmed first by a twin pair run
//! over the whole script: the models are deterministic, so the measured
//! pair revisits exactly the twins' background estimates, and a
//! critical-value miss (a binomial row computed on an estimate's first
//! visit to a bucket) is a cost of the estimate, not of the clip. The
//! bound, per measured clip, is
//!
//! * per engine, the two vectors its `ClipRecord` keeps
//!   (`object_counts`, `object_indicators`),
//!
//! plus, over the whole window, the growth of each engine's two
//! append-only logs (the indicator log and the records), which a doubling
//! `Vec` reallocates at most `⌈log2((W + M) / W)⌉ + 1` times between `W`
//! and `W + M` elements. Materializing a clip is counted separately and
//! bounded by the clip's three buffers (its instance paths, its action
//! arena and the per-shot ends), each allocated once; every shot of the
//! script carries at least two actions, so an arena grown entry by entry
//! would exceed that bound. Both bounds hold in debug and in release
//! builds.
//!
//! The two engines share one cache, and each clip's frames go through
//! one frame scope of it (`ObjectDetector::with_frames`), so the engine
//! bound also checks that opening a scope allocates nothing.
//!
//! An offline RVAQ run is bounded too: TBClip keeps state only for the
//! clips of `P_q`, and sizes it, its two sides' buffers and its candidate
//! index from `P_q` when it starts; RVAQ sizes its own per-run vectors
//! from `P_q` as well. So a warm run over [`MemTable`]s allocates a fixed
//! number of blocks, the same over 200 rows per table as over 2,000 (a
//! buffer that grew row by row would reallocate more often over the
//! longer tables), and its bytes are bounded per candidate clip and
//! sequence, whatever the tables' row counts (state sized from the rows
//! would exceed the bound).

// A `GlobalAlloc` impl is `unsafe` by definition; this one only counts
// and forwards every call to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vaq::core::offline::tbclip::QueryTables;
use vaq::core::{
    rvaq, OnlineConfig, OnlineEngine, PaperScoring, PlannerConfig, RvaqOptions, SharedScanCaches,
};
use vaq::detect::{
    profiles, ActionRecognizer, InferenceCache, ObjectDetector, SimulatedActionRecognizer,
    SimulatedObjectDetector,
};
use vaq::storage::{CostModel, MemTable, ScoreRow};
use vaq::types::rng::mix64;
use vaq::types::{ActionType, ClipId, ClipInterval, ObjectType, Query, SequenceSet, VideoGeometry};
use vaq::video::{SceneScript, SceneScriptBuilder, VideoStream};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<Allocs> = const { Cell::new(Allocs { blocks: 0, bytes: 0 }) };
}

/// Blocks allocated or reallocated, and the bytes asked for in them.
#[derive(Debug, Clone, Copy)]
struct Allocs {
    blocks: u64,
    bytes: u64,
}

/// Counts one block of `size` bytes.
fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = COUNT.try_with(|c| {
            let Allocs { blocks, bytes } = c.get();
            c.set(Allocs {
                blocks: blocks + 1,
                bytes: bytes + size as u64,
            });
        });
    }
}

// SAFETY: every method passes its arguments unchanged to `System`, so the
// caller's guarantees (a non-zero size, the layout a block was allocated
// with, a pointer `System` returned) reach `System` as they were given.
// Counting touches only `const`-initialized thread-local `Cell`s, which
// neither allocate nor re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Allocs) {
    COUNT.with(|c| {
        c.set(Allocs {
            blocks: 0,
            bytes: 0,
        })
    });
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, COUNT.with(Cell::get))
}

const G: VideoGeometry = VideoGeometry::PAPER_DEFAULT;
/// Warm-up clips, then measured clips.
const WARM: u64 = 64;
const MEASURED: u64 = 64;
const ENGINES: u64 = 2;
/// Vectors per `ClipRecord` that a clip allocates.
const RECORD_VECS: u64 = 2;
/// Append-only logs per engine that may grow during the window.
const LOGS: u64 = 2;
/// Buffers a materialized clip owns, each allocated once.
const CLIP_BUFFERS: u64 = 3;

/// Two objects and an action that come and go, so clips accept, reject,
/// short-circuit (and explore the action's background) under both engines.
/// Two more actions the query does not name span the whole script, so
/// every shot carries at least two ground-truth actions: an action arena
/// that grew as shots append, instead of being sized once, would
/// reallocate on every clip and break the materializing bound.
fn script() -> SceneScript {
    let clips = WARM + MEASURED;
    let fpc = G.frames_per_clip();
    let mut b = SceneScriptBuilder::new(clips * fpc, G);
    for background in [3, 4] {
        b.action_span(ActionType::new(background), 0, clips * fpc)
            .unwrap();
    }
    for start in (0..clips).step_by(8) {
        let (from, to) = (start * fpc, (start + 5) * fpc);
        b.object_span(ObjectType::new(2), from, to).unwrap();
        b.object_span(ObjectType::new(5), from + fpc, to + fpc)
            .unwrap();
        b.action_span(ActionType::new(1), from + 2 * fpc, to + 2 * fpc)
            .unwrap();
    }
    b.build()
}

/// `⌈log2(to / from)⌉ + 1`: reallocations of a doubling `Vec` growing
/// from `from` to `to` elements.
fn doublings(from: u64, to: u64) -> u64 {
    let (mut cap, mut n) = (from, 1);
    while cap < to {
        cap *= 2;
        n += 1;
    }
    n
}

/// An exhaustive and a planned SVAQD engine over `det` and `rec`.
fn pair<'m>(
    det: &'m dyn ObjectDetector,
    rec: &'m dyn ActionRecognizer,
    scan: &SharedScanCaches,
) -> [OnlineEngine<'m>; 2] {
    let query = Query::new(
        ActionType::new(1),
        vec![ObjectType::new(2), ObjectType::new(5)],
    );
    let planned = OnlineConfig {
        planner: PlannerConfig::ON,
        ..OnlineConfig::svaqd()
    };
    [OnlineConfig::svaqd(), planned].map(|cfg| {
        OnlineEngine::with_shared_caches(query.clone(), cfg, &G, det, rec, scan).unwrap()
    })
}

#[test]
fn a_warm_clip_allocates_only_its_records() {
    let s = script();
    let stream = VideoStream::new(&s);
    let det = SimulatedObjectDetector::new(profiles::mask_rcnn(), 86, 3);
    let rec = SimulatedActionRecognizer::new(profiles::i3d(), 36, 3);
    let scan = SharedScanCaches::new(&OnlineConfig::svaqd(), &G).unwrap();

    let twin_cache = InferenceCache::with_clip_capacity(&G, 4);
    let (tdet, trec) = (twin_cache.detector(&det), twin_cache.recognizer(&rec));
    let mut twins = pair(&tdet, &trec, &scan);
    for clip in VideoStream::new(&s) {
        for engine in &mut twins {
            engine.push_clip(&clip);
        }
    }

    let cache = InferenceCache::with_clip_capacity(&G, 4);
    let (cdet, crec) = (cache.detector(&det), cache.recognizer(&rec));
    let mut engines = pair(&cdet, &crec, &scan);
    for c in 0..WARM {
        let clip = stream.materialize(ClipId::new(c));
        for engine in &mut engines {
            engine.push_clip(&clip);
        }
    }

    let (mut materialize, mut engine_allocs) = (0, 0);
    for c in WARM..WARM + MEASURED {
        let (clip, n) = counted(|| stream.materialize(ClipId::new(c)));
        materialize += n.blocks;
        let ((), n) = counted(|| {
            for engine in &mut engines {
                engine.push_clip(&clip);
            }
        });
        engine_allocs += n.blocks;
    }

    let growth = ENGINES * LOGS * doublings(WARM, WARM + MEASURED);
    let bound = MEASURED * ENGINES * RECORD_VECS + growth;
    let clip_bound = MEASURED * CLIP_BUFFERS;
    println!(
        "{MEASURED} clips: materialize {materialize} (bound {clip_bound}), \
         engines {engine_allocs} (bound {bound}), {:.2} per clip in all",
        (materialize + engine_allocs) as f64 / MEASURED as f64
    );
    assert!(
        engine_allocs <= bound,
        "{engine_allocs} engine allocations over {MEASURED} clips, bound {bound}"
    );
    assert!(
        materialize <= clip_bound,
        "{materialize} allocations materializing {MEASURED} clips, bound {clip_bound}"
    );
    // The run exercised the paths the bound covers, and decided as the
    // twins did.
    for (engine, twin) in engines.iter().zip(&twins) {
        let stats = engine.stats();
        assert!(stats.clips_short_circuited > 0);
        assert!(stats.recognizer_shots + stats.recognizer_cached > 0);
        assert!(engine.indicators()[WARM as usize..].contains(&true));
        assert_eq!(engine.indicators(), twin.indicators());
    }
    assert!(cache.stats().detector_hits > 0);
}

/// Blocks a TBClip allocates when it starts: its candidate index's two
/// arrays, per-clip states and revealed scores, and each side's unscored
/// list and heap.
const TBCLIP_BLOCKS: u64 = 8;
/// Blocks RVAQ itself allocates per run: the sequence states, the
/// `PQ_lo^K` scratch, the final ranking and the result list.
const RVAQ_BLOCKS: u64 = 4;
/// Bytes a run may allocate per clip of `P_q` (three tables): TBClip's
/// state for the clip (48 bytes), its three revealed scores (16 bytes
/// each), an entry in each side's unscored list and heap (8 and 24 bytes),
/// and up to four slots of the candidate index (8 bytes each).
const BYTES_PER_CANDIDATE: u64 = 48 + 3 * 16 + 2 * (8 + 24) + 4 * 8;
/// Bytes a run may allocate per sequence of `P_q`: its bound state (56
/// bytes), its entry in the candidate index (24), in the final ranking (8)
/// and in the `PQ_lo^K` scratch (8), and its row in the result (24).
const BYTES_PER_SEQUENCE: u64 = 56 + 24 + 8 + 8 + 24;
/// Candidate sequences in `P_q` (few enough that no sort of them needs a
/// scratch buffer) and the K asked for.
const SEQUENCES: u64 = 10;
const K: usize = 3;

/// An action and two object tables over clips `0..rows`, each clip scored
/// in every table from a hash of its id, and `P_q` as [`SEQUENCES`]
/// evenly spaced runs of clips covering half of them.
fn offline_fixture(rows: u64) -> (Vec<MemTable>, SequenceSet) {
    let tables = (0..3u64)
        .map(|t| {
            let scored = (0..rows).map(|c| ScoreRow {
                clip: ClipId::new(c),
                score: (mix64(c ^ (t << 32)) >> 11) as f64 / (1u64 << 53) as f64,
            });
            MemTable::new(scored.collect(), CostModel::DEFAULT)
        })
        .collect();
    let stride = rows / SEQUENCES;
    let pq = SequenceSet::from_intervals(
        (0..SEQUENCES)
            .map(|i| ClipInterval::new(i * stride, i * stride + stride / 2 - 1))
            .collect(),
    );
    (tables, pq)
}

/// Allocations of a warm RVAQ run over `rows` rows per table, its
/// iterations, and the bytes [`BYTES_PER_CANDIDATE`] and
/// [`BYTES_PER_SEQUENCE`] allow it.
fn rvaq_allocations(rows: u64) -> (Allocs, u64, u64) {
    let (tables, pq) = offline_fixture(rows);
    let query = QueryTables {
        action: &tables[0],
        objects: vec![&tables[1], &tables[2]],
    };
    let opts = RvaqOptions::new(K);
    let warm = rvaq(&query, &pq, &PaperScoring, &opts);
    let (run, n) = counted(|| rvaq(&query, &pq, &PaperScoring, &opts));
    assert_eq!(run.sequences, warm.sequences);
    assert_eq!(run.sequences.len(), K);
    let bytes = BYTES_PER_CANDIDATE * pq.total_clips() + BYTES_PER_SEQUENCE * SEQUENCES;
    (n, run.iterations, bytes)
}

#[test]
fn a_warm_rvaq_run_allocates_a_fixed_number_of_blocks() {
    let bound = TBCLIP_BLOCKS + RVAQ_BLOCKS;
    let (short, short_iterations, short_bytes) = rvaq_allocations(200);
    let (long, long_iterations, long_bytes) = rvaq_allocations(2_000);
    println!(
        "rvaq: {} blocks, {} bytes (bound {short_bytes}) over 200 rows ({short_iterations} \
         iterations); {} blocks, {} bytes (bound {long_bytes}) over 2000 ({long_iterations}); \
         block bound {bound}",
        short.blocks, short.bytes, long.blocks, long.bytes
    );
    assert!(
        short.blocks <= bound,
        "{} allocations over 200 rows, bound {bound}",
        short.blocks
    );
    assert_eq!(
        short.blocks, long.blocks,
        "allocations grew with the tables"
    );
    // The longer run reads more rows: a per-row growth would show.
    assert!(long_iterations > short_iterations);
}

#[test]
fn a_warm_rvaq_run_allocates_bytes_per_candidate_not_per_row() {
    for rows in [200, 2_000] {
        let (n, _, bound) = rvaq_allocations(rows);
        assert!(
            n.bytes <= bound,
            "{} bytes over {rows} rows per table, bound {bound} from P_q",
            n.bytes
        );
    }
}
