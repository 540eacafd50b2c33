//! Composite temporal-query scenarios: scene-script generators whose
//! structure exercises the `THEN`/`OR`/`NOT`/`FOR AT LEAST` operators,
//! plus the acceptance battery that extends the twelve-query YouTube
//! benchmark with composite queries.
//!
//! Three generator families, each targeting one operator class:
//!
//! * `bursty_pair_script` — *bursty co-occurrence*: episode pairs
//!   where one action reliably precedes another within a bounded gap,
//!   interleaved with solo episodes of either action (the negatives a
//!   `THEN … WITHIN` query must reject).
//! * `regime_shift_script` — *drift regime*: an abrupt mid-stream
//!   base-rate swap between two actions, the shape `NOT` and duration
//!   predicates discriminate on.
//! * `long_tail_script` — *long-tail vocabulary*: one head object
//!   with high duty plus many rare tail objects that each accompany a
//!   single episode, the shape `OR` over rare leaves is built for.
//!
//! Ground truth for a composite query is *derived, not re-labelled*:
//! each leaf's frame-level ground truth is projected to clips exactly
//! as for classic queries ([`SceneScript::ground_truth`]), then the
//! composition tree is evaluated over those clip sets by the same
//! interval-sweep evaluator the engines use
//! ([`vaq_core::compose::evaluate`]). Everything is seeded; two calls
//! with the same seed are byte-identical.

use crate::BenchmarkVideo;
use vaq_core::compose::{self, ComposeContext, ComposeNode};
use vaq_types::rng::SeededRng;
use vaq_types::{vocab, DurationUnit, ObjectType, Query, SequenceSet, VideoGeometry};
use vaq_video::{gen, SceneScript, SceneScriptBuilder};

/// Clip-coverage threshold used when projecting frame-level ground
/// truth to clips, matching the classic batteries.
pub const GT_COVERAGE: f64 = 0.5;

/// One composite acceptance case: the leaves, the tree over them, one
/// scripted video, and the derived composite ground truth.
#[derive(Debug, Clone)]
pub struct CompositeCase {
    /// Battery identifier (`cc1` …).
    pub id: String,
    /// Human-readable description of the composite query.
    pub description: String,
    /// Leaf queries, in leaf-index order.
    pub leaves: Vec<Query>,
    /// Composition tree; `Leaf(i)` indexes into [`Self::leaves`].
    pub root: ComposeNode,
    /// The video the case runs against.
    pub video: BenchmarkVideo,
    /// Composite ground-truth clips.
    pub truth: SequenceSet,
}

/// Composes per-leaf ground truths with the engine's own evaluator.
pub(crate) fn composite_truth(
    script: &SceneScript,
    leaves: &[Query],
    root: &ComposeNode,
    coverage: f64,
) -> SequenceSet {
    let sets: Vec<SequenceSet> = leaves
        .iter()
        .map(|q| script.ground_truth(q, coverage))
        .collect();
    let ctx = ComposeContext {
        domain_clips: script.geometry().num_clips(script.num_frames()),
        shots_per_clip: script.geometry().shots_in_clip(),
    };
    compose::evaluate(root, &sets, &ctx).expect("battery trees are structurally valid")
}

fn cover_query(b: &mut SceneScriptBuilder, q: &Query, start: u64, end: u64) {
    b.action_span(q.action, start, end).expect("span in range");
    for &o in &q.objects {
        b.object_span(o, start, end).expect("span in range");
    }
}

/// The shape of [`bursty_pair_script`]'s bursts.
struct BurstShape {
    /// Gap between a pair's episodes, in clips (uniform in the inclusive
    /// range).
    gap_clips: (u64, u64),
    /// Episode length in clips.
    ep_clips: u64,
    /// Number of episode pairs.
    bursts: usize,
}

/// Bursty co-occurrence: `bursts` episode pairs where `first` runs for
/// `ep_clips` clips, a gap of `gap_clips` (uniform in the inclusive
/// range) follows, then `second` runs for `ep_clips` clips. One solo
/// episode of each action is planted between bursts as a negative.
fn bursty_pair_script(
    seed: u64,
    frames: u64,
    geometry: VideoGeometry,
    first: &Query,
    second: &Query,
    shape: BurstShape,
) -> SceneScript {
    let BurstShape {
        gap_clips,
        ep_clips,
        bursts,
    } = shape;
    let mut rng = SeededRng::seed_from_u64(seed ^ 0xb0b5);
    let fpc = geometry.frames_per_clip();
    let ep_len = ep_clips.max(1) * fpc;
    let mut b = SceneScriptBuilder::new(frames, geometry);

    // Slot the bursts evenly, jittering inside each slot so bursts stay
    // ordered and non-overlapping.
    let slot = frames / (bursts as u64 + 2).max(1);
    for i in 0..bursts {
        let base = slot * (i as u64);
        let jitter = rng.gen_range(0..slot / 4 + 1);
        let a_start = base + jitter;
        let a_end = (a_start + ep_len).min(frames);
        if a_start >= a_end {
            continue;
        }
        cover_query(&mut b, first, a_start, a_end);
        let gap = rng.gen_range(gap_clips.0..=gap_clips.1.max(gap_clips.0)) * fpc;
        let b_start = (a_end + gap).min(frames);
        let b_end = (b_start + ep_len).min(frames);
        if b_start < b_end {
            cover_query(&mut b, second, b_start, b_end);
        }
    }
    // Negatives: one solo episode of each action near the tail, far
    // enough apart that no THEN window can bridge them.
    let tail = slot * (bursts as u64);
    let solo_a = (tail + slot / 8).min(frames.saturating_sub(ep_len));
    cover_query(&mut b, first, solo_a, (solo_a + ep_len).min(frames));
    let solo_b = (tail + slot + slot / 2).min(frames.saturating_sub(ep_len));
    if solo_b > solo_a + 2 * ep_len + gap_clips.1 * fpc {
        cover_query(&mut b, second, solo_b, (solo_b + ep_len).min(frames));
    }
    // Background noise object, uncorrelated with everything.
    let noise = vocab::coco_objects().object("tree").expect("tree in COCO");
    if !first.objects.contains(&noise) && !second.objects.contains(&noise) {
        for span in gen::spans_with_duty(&mut rng, frames, 0.08, 300.0) {
            b.object_span(noise, span.start, span.end)
                .expect("span in range");
        }
    }
    b.build()
}

/// Drift regime: in the first half `a` has high duty and `b` is rare;
/// at the midpoint the base rates swap abruptly. Episode length is
/// `ep_clips` clips; each query's objects cover its episodes.
pub(crate) fn regime_shift_script(
    seed: u64,
    frames: u64,
    geometry: VideoGeometry,
    a: &Query,
    b_query: &Query,
    ep_clips: u64,
) -> SceneScript {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0xd81f7);
    let fpc = geometry.frames_per_clip();
    let ep_len = ep_clips.max(1) * fpc;
    let half = frames / 2;
    let mut b = SceneScriptBuilder::new(frames, geometry);
    let plant = |builder: &mut SceneScriptBuilder,
                 rng: &mut SeededRng,
                 q: &Query,
                 lo: u64,
                 hi: u64,
                 duty: f64| {
        if hi <= lo {
            return;
        }
        let span = hi - lo;
        let count = ((span as f64 * duty) / ep_len as f64).round().max(0.0) as usize;
        for ep in gen::episodes(rng, span, count, ep_len, ep_len / 4) {
            let start = lo + ep.start;
            let end = (lo + ep.end).min(hi);
            if start < end {
                cover_query(builder, q, start, end);
            }
        }
    };
    // First regime: a busy, b rare.
    plant(&mut b, &mut rng, a, 0, half, 0.45);
    plant(&mut b, &mut rng, b_query, 0, half, 0.04);
    // Second regime: swapped.
    plant(&mut b, &mut rng, a, half, frames, 0.04);
    plant(&mut b, &mut rng, b_query, half, frames, 0.45);
    b.build()
}

/// Long-tail vocabulary: `action` episodes throughout; `head` covers
/// most episodes; each object of `tail` accompanies exactly one episode
/// (its only appearance in the video).
pub(crate) fn long_tail_script(
    seed: u64,
    frames: u64,
    geometry: VideoGeometry,
    action: vaq_types::ActionType,
    head: ObjectType,
    tail: &[ObjectType],
    ep_clips: u64,
) -> SceneScript {
    let mut rng = SeededRng::seed_from_u64(seed ^ 0x10f9_7a11);
    let fpc = geometry.frames_per_clip();
    let ep_len = ep_clips.max(1) * fpc;
    let count = (tail.len() + 4).max(6);
    let mut b = SceneScriptBuilder::new(frames, geometry);
    let episodes = gen::episodes(&mut rng, frames, count, ep_len, ep_len / 4);
    for (i, ep) in episodes.iter().enumerate() {
        if ep.start >= ep.end {
            continue;
        }
        b.action_span(action, ep.start, ep.end)
            .expect("episode in range");
        // Head object covers all but every 5th episode.
        if i % 5 != 4 {
            b.object_span(head, ep.start, ep.end)
                .expect("span in range");
        }
        // The i-th tail object appears only with the i-th episode.
        if let Some(&t) = tail.get(i) {
            b.object_span(t, ep.start, ep.end).expect("span in range");
        }
    }
    b.build()
}

/// Geometry and sizing knobs of the composite battery.
#[derive(Debug, Clone, Copy)]
pub struct CompositeBatterySpec {
    /// Shot/clip geometry of every generated video.
    pub geometry: VideoGeometry,
    /// Frames per case video.
    pub frames: u64,
}

impl Default for CompositeBatterySpec {
    fn default() -> Self {
        Self {
            geometry: VideoGeometry::PAPER_DEFAULT,
            frames: 3 * 60 * 25, // three minutes at 25 fps
        }
    }
}

fn q(action: &str, objects: &[&str]) -> Query {
    crate::resolve_query(
        &vocab::kinetics_actions(),
        &vocab::coco_objects(),
        action,
        objects,
    )
    .expect("battery labels resolve against the built-in vocabularies")
}

/// Builds the composite acceptance battery: nine cases spanning every
/// temporal operator (sequencing tight and wide, disjunction over a
/// long-tail vocabulary, negation across a regime shift, duration in
/// clips and shots, and nested compositions).
pub fn battery(spec: &CompositeBatterySpec, seed: u64) -> Vec<CompositeCase> {
    let g = spec.geometry;
    let frames = spec.frames;
    let mut cases = Vec::new();
    let mut push = |id: &str,
                    description: &str,
                    leaves: Vec<Query>,
                    root: ComposeNode,
                    script: SceneScript| {
        let truth = composite_truth(&script, &leaves, &root, GT_COVERAGE);
        cases.push(CompositeCase {
            id: id.to_string(),
            description: description.to_string(),
            leaves,
            root,
            video: BenchmarkVideo {
                name: format!("{id}-v000"),
                script,
            },
            truth,
        });
    };

    // cc1: tight sequencing over bursty co-occurrence.
    let jump = q("jumping", &["person"]);
    let arch = q("archery", &["person"]);
    push(
        "cc1",
        "jumping THEN archery WITHIN 3 CLIPS",
        vec![jump.clone(), arch.clone()],
        ComposeNode::Then {
            first: Box::new(ComposeNode::Leaf(0)),
            second: Box::new(ComposeNode::Leaf(1)),
            within_clips: 3,
        },
        bursty_pair_script(
            seed ^ 0x01,
            frames,
            g,
            &jump,
            &arch,
            BurstShape {
                gap_clips: (1, 2),
                ep_clips: 3,
                bursts: 4,
            },
        ),
    );

    // cc2: wide sequencing with table-one style leaves.
    let wash = q("washing dishes", &["faucet"]);
    let hands = q("washing hands", &["faucet"]);
    push(
        "cc2",
        "washing dishes THEN washing hands WITHIN 10 CLIPS",
        vec![wash.clone(), hands.clone()],
        ComposeNode::Then {
            first: Box::new(ComposeNode::Leaf(0)),
            second: Box::new(ComposeNode::Leaf(1)),
            within_clips: 10,
        },
        bursty_pair_script(
            seed ^ 0x02,
            frames,
            g,
            &wash,
            &hands,
            BurstShape {
                gap_clips: (2, 7),
                ep_clips: 3,
                bursts: 3,
            },
        ),
    );

    // cc3: disjunction over two rare tail objects.
    let objects = vocab::coco_objects();
    let kneel = vocab::kinetics_actions()
        .action("kneeling")
        .expect("kneeling");
    let head = objects.object("chair").expect("chair");
    let tails = [
        objects.object("clock").expect("clock"),
        objects.object("knife").expect("knife"),
        objects.object("sunglasses").expect("sunglasses"),
    ];
    let lt_script = long_tail_script(seed ^ 0x03, frames, g, kneel, head, &tails, 4);
    push(
        "cc3",
        "kneeling with clock OR kneeling with knife (long-tail)",
        vec![
            Query::new(kneel, vec![tails[0]]),
            Query::new(kneel, vec![tails[1]]),
        ],
        ComposeNode::Or(vec![ComposeNode::Leaf(0), ComposeNode::Leaf(1)]),
        lt_script.clone(),
    );

    // cc4: head-but-not-tail over the same long-tail video.
    push(
        "cc4",
        "kneeling with chair AND NOT kneeling with sunglasses",
        vec![
            Query::new(kneel, vec![head]),
            Query::new(kneel, vec![tails[2]]),
        ],
        ComposeNode::And(vec![
            ComposeNode::Leaf(0),
            ComposeNode::Not(Box::new(ComposeNode::Leaf(1))),
        ]),
        lt_script,
    );

    // cc5: negation across a regime shift.
    let beer = q("drinking beer", &["bottle"]);
    let crunch = q("doing crunches", &["chair"]);
    push(
        "cc5",
        "doing crunches AND NOT drinking beer (regime shift)",
        vec![crunch.clone(), beer.clone()],
        ComposeNode::And(vec![
            ComposeNode::Leaf(0),
            ComposeNode::Not(Box::new(ComposeNode::Leaf(1))),
        ]),
        regime_shift_script(seed ^ 0x05, frames, g, &beer, &crunch, 3),
    );

    // cc6: clip-duration filter keeps only long runs.
    let volley = q("playing volleyball", &["person"]);
    let leaf = q("walking the dog", &["person"]);
    push(
        "cc6",
        "playing volleyball FOR AT LEAST 4 CLIPS",
        vec![volley.clone()],
        ComposeNode::AtLeast {
            inner: Box::new(ComposeNode::Leaf(0)),
            min: 4,
            unit: DurationUnit::Clips,
        },
        bursty_pair_script(
            seed ^ 0x06,
            frames,
            g,
            &volley,
            &leaf,
            BurstShape {
                gap_clips: (1, 3),
                ep_clips: 5,
                bursts: 3,
            },
        ),
    );

    // cc7: shot-duration filter (rounds up to clips).
    push(
        "cc7",
        "walking the dog FOR AT LEAST 10 SHOTS",
        vec![leaf.clone()],
        ComposeNode::AtLeast {
            inner: Box::new(ComposeNode::Leaf(0)),
            min: 10,
            unit: DurationUnit::Shots,
        },
        bursty_pair_script(
            seed ^ 0x07,
            frames,
            g,
            &leaf,
            &volley,
            BurstShape {
                gap_clips: (1, 3),
                ep_clips: 4,
                bursts: 3,
            },
        ),
    );

    // cc8: disjunctive precursor feeding a sequence.
    let blow = q("blowing leaves", &["plant"]);
    let rake = q("blowdrying hair", &["kid"]);
    let done = q("drinking beer", &["bottle"]);
    push(
        "cc8",
        "(blowing leaves OR blowdrying hair) THEN drinking beer WITHIN 6 CLIPS",
        vec![blow.clone(), rake, done.clone()],
        ComposeNode::Then {
            first: Box::new(ComposeNode::Or(vec![
                ComposeNode::Leaf(0),
                ComposeNode::Leaf(1),
            ])),
            second: Box::new(ComposeNode::Leaf(2)),
            within_clips: 6,
        },
        bursty_pair_script(
            seed ^ 0x08,
            frames,
            g,
            &blow,
            &done,
            BurstShape {
                gap_clips: (1, 4),
                ep_clips: 3,
                bursts: 4,
            },
        ),
    );

    // cc9: duration over stitched sequence windows.
    let solve = q("solving rubiks cube", &["clock"]);
    let sink = q("cleaning sink", &["faucet"]);
    push(
        "cc9",
        "(solving rubiks cube THEN cleaning sink WITHIN 4 CLIPS) FOR AT LEAST 6 CLIPS",
        vec![solve.clone(), sink.clone()],
        ComposeNode::AtLeast {
            inner: Box::new(ComposeNode::Then {
                first: Box::new(ComposeNode::Leaf(0)),
                second: Box::new(ComposeNode::Leaf(1)),
                within_clips: 4,
            }),
            min: 6,
            unit: DurationUnit::Clips,
        },
        bursty_pair_script(
            seed ^ 0x09,
            frames,
            g,
            &solve,
            &sink,
            BurstShape {
                gap_clips: (1, 2),
                ep_clips: 3,
                bursts: 4,
            },
        ),
    );

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_has_at_least_eight_cases_with_truth() {
        let cases = battery(&CompositeBatterySpec::default(), 11);
        assert!(cases.len() >= 8, "only {} cases", cases.len());
        let with_truth = cases.iter().filter(|c| !c.truth.is_empty()).count();
        assert!(
            with_truth >= 6,
            "only {with_truth} cases have non-empty composite ground truth"
        );
        for c in &cases {
            let max_leaf = c.root.max_leaf_index().unwrap_or(0);
            assert!(max_leaf < c.leaves.len(), "{}: leaf out of range", c.id);
        }
    }

    #[test]
    fn battery_is_deterministic_per_seed() {
        let a = battery(&CompositeBatterySpec::default(), 5);
        let b = battery(&CompositeBatterySpec::default(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.truth, y.truth, "{}", x.id);
        }
        let c = battery(&CompositeBatterySpec::default(), 6);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.truth != y.truth),
            "different seeds should move at least one case's truth"
        );
    }

    #[test]
    fn bursty_pairs_produce_then_windows() {
        let g = VideoGeometry::PAPER_DEFAULT;
        let first = q("jumping", &["person"]);
        let second = q("archery", &["person"]);
        let script = bursty_pair_script(
            3,
            4500,
            g,
            &first,
            &second,
            BurstShape {
                gap_clips: (1, 2),
                ep_clips: 3,
                bursts: 4,
            },
        );
        let root = ComposeNode::Then {
            first: Box::new(ComposeNode::Leaf(0)),
            second: Box::new(ComposeNode::Leaf(1)),
            within_clips: 3,
        };
        let truth = composite_truth(&script, &[first, second], &root, GT_COVERAGE);
        assert!(
            !truth.is_empty(),
            "bursty generator produced no THEN windows"
        );
    }

    #[test]
    fn regime_shift_swaps_base_rates() {
        let g = VideoGeometry::PAPER_DEFAULT;
        let a = q("drinking beer", &["bottle"]);
        let b = q("doing crunches", &["chair"]);
        let script = regime_shift_script(7, 6000, g, &a, &b, 3);
        let half: u64 = 3000;
        let first_a: u64 = script
            .action_spans(a.action)
            .iter()
            .map(|s| s.len().min(half.saturating_sub(s.start)))
            .sum();
        let second_a: u64 = script
            .action_spans(a.action)
            .iter()
            .map(|s| {
                s.len()
                    .saturating_sub(half.saturating_sub(s.start).min(s.len()))
            })
            .sum();
        assert!(
            first_a > second_a,
            "regime shift did not reduce the first action's rate ({first_a} vs {second_a})"
        );
    }

    #[test]
    fn long_tail_objects_are_rare() {
        let g = VideoGeometry::PAPER_DEFAULT;
        let objects = vocab::coco_objects();
        let kneel = vocab::kinetics_actions().action("kneeling").unwrap();
        let head = objects.object("chair").unwrap();
        let tail = [objects.object("clock").unwrap()];
        let script = long_tail_script(9, 6000, g, kneel, head, &tail, 4);
        let head_frames: u64 = script.object_spans(head).iter().map(|s| s.len()).sum();
        let tail_frames: u64 = script.object_spans(tail[0]).iter().map(|s| s.len()).sum();
        assert!(tail_frames > 0, "tail object never appears");
        assert!(
            head_frames > 2 * tail_frames,
            "head {head_frames} vs tail {tail_frames}"
        );
    }
}
