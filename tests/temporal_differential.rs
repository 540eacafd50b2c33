//! Differential testing of the composite temporal composition layer.
//!
//! The interval-sweep evaluator in `vaq::core::compose` is checked against
//! a brute-force oracle implemented in the test tree (`tests/common`, shared
//! with `statement_differential.rs`), not in the library: every operator is
//! recomputed by exhaustive per-clip membership scans over indicator
//! vectors (THEN by a quadratic pair scan over maximal runs), so a bug
//! shared between the sweep and an in-crate helper cannot hide. Random
//! trees are driven by seeded property cases plus pinned-seed splitmix64
//! sweeps, and
//! the end-to-end contracts ride along: composite online decisions must
//! be bit-identical with the elision planner on and off, and composite
//! offline rankings must be bit-identical across 1 and 8 ingest threads.

mod common;

use common::oracle;
use vaq::core::compose::{evaluate, ComposeContext, ComposeNode};
use vaq::core::{ingest_parallel_traced, OnlineConfig, PlannerConfig};
use vaq::detect::{profiles, IouTracker, SimulatedActionRecognizer, SimulatedObjectDetector};
use vaq::query::{execute_offline, execute_online, OfflineSource, QueryOutput};
use vaq::storage::CostModel;
use vaq::trace::Tracer;
use vaq::types::rng::{for_cases, splitmix64};
use vaq::types::{vocab, DurationUnit};
use vaq::video::SceneScript;
use vaq::video::SceneScriptBuilder;
use vaq::{SequenceSet, VideoGeometry};

fn assert_matches_oracle(
    node: &ComposeNode,
    leaf_inds: &[Vec<bool>],
    domain: u64,
    spc: u64,
    label: &str,
) {
    let leaf_sets: Vec<SequenceSet> = leaf_inds
        .iter()
        .map(|v| SequenceSet::from_indicator(v))
        .collect();
    let ctx = ComposeContext {
        domain_clips: domain,
        shots_per_clip: spc,
    };
    let got = evaluate(node, &leaf_sets, &ctx).unwrap_or_else(|e| panic!("{label}: {e}"));
    let want = SequenceSet::from_indicator(&oracle(node, leaf_inds, domain as usize, spc));
    assert_eq!(got, want, "{label}: node={node:?}");
}

// ---------------------------------------------------------------------------
// Hand-picked edge cases per operator.
// ---------------------------------------------------------------------------

fn ind(domain: usize, trues: &[std::ops::RangeInclusive<usize>]) -> Vec<bool> {
    let mut v = vec![false; domain];
    for r in trues {
        for i in r.clone() {
            v[i] = true;
        }
    }
    v
}

#[test]
fn operators_match_oracle_on_edge_cases() {
    let d = 24usize;
    let a = ind(d, &[(2..=5), (10..=10), (15..=20)]);
    let b = ind(d, &[(6..=7), (12..=13), (21..=23)]);
    let empty = vec![false; d];
    let full = vec![true; d];
    let leaves = [a, b, empty, full];

    let leaf = |i: usize| ComposeNode::Leaf(i);
    let then = |f: ComposeNode, s: ComposeNode, w: u64| ComposeNode::Then {
        first: Box::new(f),
        second: Box::new(s),
        within_clips: w,
    };
    let at_least = |inner: ComposeNode, min: u64, unit: DurationUnit| ComposeNode::AtLeast {
        inner: Box::new(inner),
        min,
        unit,
    };

    let cases: Vec<(ComposeNode, &str)> = vec![
        (ComposeNode::Not(Box::new(leaf(0))), "not"),
        (ComposeNode::Not(Box::new(leaf(2))), "not empty"),
        (ComposeNode::Not(Box::new(leaf(3))), "not full"),
        (ComposeNode::Or(vec![leaf(0), leaf(1)]), "or"),
        (ComposeNode::Or(vec![leaf(0), leaf(2)]), "or empty"),
        (ComposeNode::And(vec![leaf(0), leaf(1)]), "and disjoint"),
        (ComposeNode::And(vec![leaf(0), leaf(3)]), "and full"),
        // gap a.end=5 → b.start=6 is exactly 1: included at w=1.
        (then(leaf(0), leaf(1), 1), "then tight gap"),
        (then(leaf(0), leaf(1), 2), "then w=2"),
        (then(leaf(0), leaf(1), 7), "then wide"),
        (then(leaf(1), leaf(0), 2), "then reversed"),
        (then(leaf(0), leaf(2), 5), "then empty second"),
        (then(leaf(3), leaf(3), 4), "then self full (no gap exists)"),
        (at_least(leaf(0), 1, DurationUnit::Clips), "atleast 1"),
        (at_least(leaf(0), 4, DurationUnit::Clips), "atleast 4"),
        (
            at_least(leaf(0), 99, DurationUnit::Clips),
            "atleast all gone",
        ),
        // 5 shots/clip: 6 shots ⇒ 2 clips; 5 shots ⇒ 1 clip.
        (
            at_least(leaf(0), 6, DurationUnit::Shots),
            "atleast shots ceil",
        ),
        (
            at_least(leaf(0), 5, DurationUnit::Shots),
            "atleast shots exact",
        ),
        (
            at_least(then(leaf(0), leaf(1), 3), 4, DurationUnit::Clips),
            "duration over sequencing",
        ),
        (
            then(
                ComposeNode::Or(vec![leaf(0), leaf(1)]),
                ComposeNode::Not(Box::new(leaf(0))),
                2,
            ),
            "then over or/not",
        ),
        (
            ComposeNode::And(vec![
                ComposeNode::Not(Box::new(leaf(1))),
                ComposeNode::Or(vec![leaf(0), leaf(1), leaf(2)]),
            ]),
            "and over not/or",
        ),
    ];
    for (node, label) in &cases {
        assert_matches_oracle(node, &leaves, d as u64, 5, label);
    }
}

// ---------------------------------------------------------------------------
// Random composite trees: pinned splitmix64 sweep + seeded property cases.
// ---------------------------------------------------------------------------

/// Random tree of bounded depth over `num_leaves` leaves. Operator mix is
/// uniform; window/duration magnitudes stay small relative to the domain
/// so every operator regularly produces non-trivial output.
fn random_tree(state: &mut u64, depth: usize, num_leaves: usize) -> ComposeNode {
    let choice = if depth == 0 { 0 } else { splitmix64(state) % 6 };
    match choice {
        0 => ComposeNode::Leaf((splitmix64(state) as usize) % num_leaves),
        1 => ComposeNode::Not(Box::new(random_tree(state, depth - 1, num_leaves))),
        2 | 3 => {
            let n = 2 + (splitmix64(state) as usize) % 2;
            let children = (0..n)
                .map(|_| random_tree(state, depth - 1, num_leaves))
                .collect();
            if choice == 2 {
                ComposeNode::Or(children)
            } else {
                ComposeNode::And(children)
            }
        }
        4 => ComposeNode::Then {
            first: Box::new(random_tree(state, depth - 1, num_leaves)),
            second: Box::new(random_tree(state, depth - 1, num_leaves)),
            within_clips: 1 + splitmix64(state) % 6,
        },
        _ => ComposeNode::AtLeast {
            inner: Box::new(random_tree(state, depth - 1, num_leaves)),
            min: 1 + splitmix64(state) % 8,
            unit: if splitmix64(state) % 2 == 0 {
                DurationUnit::Clips
            } else {
                DurationUnit::Shots
            },
        },
    }
}

/// Random indicator vector with a random density so sparse, mid, and
/// near-full leaves all occur across the sweep.
fn random_indicator(state: &mut u64, domain: usize) -> Vec<bool> {
    let density = 1 + splitmix64(state) % 9; // in tenths
    (0..domain)
        .map(|_| splitmix64(state) % 10 < density)
        .collect()
}

fn check_random_case(seed: u64) {
    let mut s = seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ 0x7E3C_9D21_C0DE_55EE;
    let domain = 20 + (splitmix64(&mut s) % 41) as usize; // 20..=60
    let spc = 1 + splitmix64(&mut s) % 6;
    let num_leaves = 1 + (splitmix64(&mut s) as usize) % 4;
    let depth = (splitmix64(&mut s) as usize) % 5; // 0..=4
    let leaves: Vec<Vec<bool>> = (0..num_leaves)
        .map(|_| random_indicator(&mut s, domain))
        .collect();
    let node = random_tree(&mut s, depth, num_leaves);
    assert_matches_oracle(&node, &leaves, domain as u64, spc, &format!("seed={seed}"));
}

#[test]
fn random_trees_match_oracle_pinned_sweep() {
    // 400 pinned-seed cases; identical corpus on every run.
    for seed in 0..400u64 {
        check_random_case(seed);
    }
}

#[test]
fn prop_random_trees_match_oracle() -> Result<(), String> {
    for_cases(
        "prop_random_trees_match_oracle",
        128,
        |r| r.gen_range(0u64..(1 << 48)),
        |&seed| check_random_case(seed),
    )
}

// ---------------------------------------------------------------------------
// End-to-end: composite SQL, planner on/off bit-identity, thread counts.
// ---------------------------------------------------------------------------

/// Three query-relevant phases — jumping+car, archery, drinking beer —
/// with controlled gaps so THEN/NOT/duration operators all bite.
fn composite_script() -> SceneScript {
    let objects = vocab::coco_objects();
    let actions = vocab::kinetics_actions();
    let geometry = VideoGeometry::PAPER_DEFAULT;
    let fpc = geometry.frames_per_clip();
    let mut b = SceneScriptBuilder::new(60 * fpc, geometry);
    // Clips 2..=9: jumping with a car in frame.
    b.object_span(objects.object("car").unwrap(), 2 * fpc, 10 * fpc - 1)
        .unwrap();
    b.action_span(actions.action("jumping").unwrap(), 2 * fpc, 10 * fpc - 1)
        .unwrap();
    // Clips 13..=17: archery (gap of 3 clips after jumping).
    b.action_span(actions.action("archery").unwrap(), 13 * fpc, 18 * fpc - 1)
        .unwrap();
    // Clips 30..=31: a second short jumping burst (no car).
    b.action_span(actions.action("jumping").unwrap(), 30 * fpc, 32 * fpc - 1)
        .unwrap();
    b.object_span(objects.object("car").unwrap(), 30 * fpc, 32 * fpc - 1)
        .unwrap();
    // Clips 36..=38: archery again, 4 clips after the burst.
    b.action_span(actions.action("archery").unwrap(), 36 * fpc, 39 * fpc - 1)
        .unwrap();
    b.build()
}

fn models(seed: u64) -> (SimulatedObjectDetector, SimulatedActionRecognizer) {
    (
        SimulatedObjectDetector::new(profiles::ideal_object(), 86, seed),
        SimulatedActionRecognizer::new(profiles::ideal_action(), 36, seed),
    )
}

fn plan_sql(sql: &str) -> vaq::query::Plan {
    let stmt = vaq::query::parse(sql).unwrap();
    vaq::query::plan(&stmt, &vocab::coco_objects(), &vocab::kinetics_actions()).unwrap()
}

const COMPOSITE_SQLS: &[&str] = &[
    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
     WHERE act='jumping' AND obj.include('car') THEN act='archery' WITHIN 4 CLIPS",
    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
     WHERE (act='jumping' OR act='archery') FOR AT LEAST 5 CLIPS",
    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
     WHERE act='jumping' AND NOT act='archery'",
    "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
     WHERE (act='jumping' THEN act='archery' WITHIN 4 CLIPS) FOR AT LEAST 8 SHOTS",
];

/// Composite online decisions are bit-identical with the elision planner
/// on and off, for every composite operator and both SVAQ and SVAQD.
#[test]
fn composite_online_is_bit_identical_planner_on_and_off() {
    let script = composite_script();
    let (det, rec) = models(7);
    for sql in COMPOSITE_SQLS {
        let plan = plan_sql(sql);
        assert!(plan.composite.is_some(), "expected a composite plan: {sql}");
        for base in [OnlineConfig::svaq(), OnlineConfig::svaqd()] {
            let (off, _) = execute_online(
                &plan,
                &script,
                &det,
                &rec,
                &base.with_planner(PlannerConfig::OFF),
            )
            .unwrap();
            let (on, _) = execute_online(
                &plan,
                &script,
                &det,
                &rec,
                &base.with_planner(PlannerConfig::ON),
            )
            .unwrap();
            assert_eq!(off, on, "planner ON diverged: {sql}");
        }
    }
}

/// The composite online result agrees with composing per-leaf oracle
/// indicators derived from the script's ground truth (ideal models).
#[test]
fn composite_online_matches_ground_truth_composition() {
    let script = composite_script();
    let (det, rec) = models(7);
    let sql = COMPOSITE_SQLS[0]; // jumping+car THEN archery WITHIN 4
    let plan = plan_sql(sql);
    let (out, _) = execute_online(&plan, &script, &det, &rec, &OnlineConfig::svaqd()).unwrap();
    let QueryOutput::Sequences(got) = out else {
        panic!("expected sequences");
    };
    // Ground truth: jumping+car on 2..=9 and 30..=31; archery on 13..=17
    // and 36..=38. Gaps are 4 and 5 clips, so the 4-clip window admits
    // only the first pair → one window [2, 17].
    let domain = VideoGeometry::PAPER_DEFAULT.num_clips(script.num_frames()) as usize;
    let a = ind(domain, &[(2..=9), (30..=31)]);
    let b = ind(domain, &[(13..=17), (36..=38)]);
    let node = ComposeNode::Then {
        first: Box::new(ComposeNode::Leaf(0)),
        second: Box::new(ComposeNode::Leaf(1)),
        within_clips: 4,
    };
    let want = SequenceSet::from_indicator(&oracle(&node, &[a, b], domain, 5));
    assert_eq!(got, want);
    assert!(!got.is_empty(), "the scenario must produce a window");
}

/// Composite offline rankings are bit-identical when the repository is
/// ingested with 1 thread vs 8 threads.
#[test]
fn composite_offline_is_bit_identical_across_thread_counts() {
    let script = composite_script();
    let (det, rec) = models(7);
    let tracker = IouTracker::new(profiles::ideal_tracker(), 1);
    let config = OnlineConfig::svaqd();
    let ingest = |threads| {
        ingest_parallel_traced(
            &script,
            "v",
            &det,
            &rec,
            &tracker,
            &config,
            threads,
            &Tracer::disabled(),
        )
        .unwrap()
    };
    let one = ingest(1);
    let eight = ingest(8);

    for sql in [
        "SELECT MERGE(clipID), RANK(act, obj) FROM (PROCESS v PRODUCE clipID) \
         WHERE act='jumping' AND obj.include('car') THEN act='archery' WITHIN 4 CLIPS \
         ORDER BY RANK(act, obj) LIMIT 5",
        "SELECT MERGE(clipID), RANK(act) FROM (PROCESS v PRODUCE clipID) \
         WHERE (act='jumping' OR act='archery') FOR AT LEAST 2 CLIPS \
         ORDER BY RANK(act) LIMIT 5",
    ] {
        let plan = plan_sql(sql);
        assert!(plan.composite.is_some(), "expected a composite plan: {sql}");
        let r1 = execute_offline(
            &plan,
            &OfflineSource::Ingest(&one, CostModel::FREE),
            &vaq::core::PaperScoring,
        )
        .unwrap();
        let r8 = execute_offline(
            &plan,
            &OfflineSource::Ingest(&eight, CostModel::FREE),
            &vaq::core::PaperScoring,
        )
        .unwrap();
        assert_eq!(r1, r8, "thread counts diverged: {sql}");
        let QueryOutput::Ranked(ranked) = r1 else {
            panic!("expected ranked output");
        };
        assert!(!ranked.is_empty(), "scenario must rank something: {sql}");
    }
}
