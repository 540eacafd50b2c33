//! Composite temporal composition over decided interval sets.
//!
//! The composite temporal query language (sequencing, disjunction,
//! negation, duration — the query classes of "Evaluating Temporal Queries
//! Over Video Feeds") compiles onto the paper's interval-sweep algebra
//! `⊗`: every *leaf* predicate is still one conjunctive `(action, objects)`
//! query decided by the scan-statistic engines exactly as before (Naus
//! bounds, planner elision, and fault degradation all unchanged per leaf),
//! and this module composes the *decided* [`SequenceSet`]s deterministically:
//!
//! * `Or` / `And` — union / `⊗`-intersection of the child sets;
//! * `Not` — complement against the bounded clip domain
//!   ([`ComposeContext::domain_clips`]);
//! * `Then { within_clips }` — Zeus-style action-localization windows
//!   `[a.start, b.end]` for every pair of runs where `b` starts strictly
//!   after `a` ends and within the window;
//! * `AtLeast` — duration filter on maximal-run length, with `SHOTS`
//!   converted to clips by the video geometry (rounding up).
//!
//! Everything here is a pure function of the leaf sets and the context —
//! no clocks, no RNG, no hash iteration — so composite decisions are
//! bit-identical across planner on/off, thread counts, and
//! checkpoint/resume (the leaves carry all the engine state; composition
//! is recomputed from their decided sets).

use vaq_types::json::{self, FromJson, ObjectWriter, Record, Schema, ToJson, Value};
use vaq_types::{conv, DurationUnit, Result, SequenceSet, VaqError};

/// Maximum composition-tree depth accepted by [`evaluate`]; guards the
/// recursive sweep against pathological (e.g. adversarially generated)
/// plans. The parser produces shallow trees; this is a backstop.
pub(crate) const MAX_COMPOSE_DEPTH: usize = 32;

/// One node of a compiled composition tree. Leaves are indices into the
/// slice of decided leaf sets handed to [`evaluate`] — the compiler
/// deduplicates identical conjunctions so one engine run can feed many
/// leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeNode {
    /// The `i`-th decided leaf set.
    Leaf(usize),
    /// Complement against the clip domain.
    Not(Box<ComposeNode>),
    /// Union of the children.
    Or(Vec<ComposeNode>),
    /// `⊗`-intersection of the children.
    And(Vec<ComposeNode>),
    /// Sequencing: `first THEN second WITHIN within_clips CLIPS`.
    Then {
        /// The earlier occurrence.
        first: Box<ComposeNode>,
        /// The later occurrence.
        second: Box<ComposeNode>,
        /// Maximum allowed gap `second.start − first.end` in clips (≥ 1).
        within_clips: u64,
    },
    /// Duration: keep maximal runs at least `min` units long.
    AtLeast {
        /// The filtered sub-tree.
        inner: Box<ComposeNode>,
        /// The minimum duration (> 0).
        min: u64,
        /// The unit `min` is expressed in.
        unit: DurationUnit,
    },
}

impl ToJson for ComposeNode {
    fn write_json(&self, out: &mut String) -> Result<()> {
        match self {
            ComposeNode::Leaf(i) => json::write_variant(out, "Leaf", i),
            ComposeNode::Not(inner) => json::write_variant(out, "Not", inner),
            ComposeNode::Or(children) => json::write_variant(out, "Or", children),
            ComposeNode::And(children) => json::write_variant(out, "And", children),
            ComposeNode::Then {
                first,
                second,
                within_clips,
            } => {
                let mut o = ObjectWriter::variant(out, "Then");
                o.field("first", first)?.field("second", second)?;
                o.field("within_clips", within_clips)?;
                o.end()
            }
            ComposeNode::AtLeast { inner, min, unit } => {
                let mut o = ObjectWriter::variant(out, "AtLeast");
                o.field("inner", inner)?
                    .field("min", min)?
                    .field("unit", unit)?;
                o.end()
            }
        }
    }
}

impl FromJson for ComposeNode {
    fn read_json(value: &Value) -> Result<Self> {
        let (tag, payload) = json::variant(value, "ComposeNode")?;
        let fields = |ty| Record::new(payload, ty);
        Ok(match tag {
            "Leaf" => ComposeNode::Leaf(FromJson::read_json(payload)?),
            "Not" => ComposeNode::Not(FromJson::read_json(payload)?),
            "Or" => ComposeNode::Or(FromJson::read_json(payload)?),
            "And" => ComposeNode::And(FromJson::read_json(payload)?),
            "Then" => {
                let r = fields("ComposeNode::Then")?;
                ComposeNode::Then {
                    first: r.field("first")?,
                    second: r.field("second")?,
                    within_clips: r.field("within_clips")?,
                }
            }
            "AtLeast" => {
                let r = fields("ComposeNode::AtLeast")?;
                ComposeNode::AtLeast {
                    inner: r.field("inner")?,
                    min: r.field("min")?,
                    unit: r.field("unit")?,
                }
            }
            other => return Err(json::unknown_variant(other, "ComposeNode")),
        })
    }

    fn schema(schema: &mut Schema) -> String {
        type Node = Box<ComposeNode>;
        if let Some(mut decl) = schema.enumeration(module_path!(), "ComposeNode") {
            decl.variant("Leaf").add::<usize>("0", false);
            decl.variant("Not").add::<Node>("0", false);
            decl.variant("Or").add::<Vec<ComposeNode>>("0", false);
            decl.variant("And").add::<Vec<ComposeNode>>("0", false);
            decl.variant("Then")
                .add::<Node>("first", false)
                .add::<Node>("second", false)
                .add::<u64>("within_clips", false);
            decl.variant("AtLeast")
                .add::<Node>("inner", false)
                .add::<u64>("min", false)
                .add::<DurationUnit>("unit", false);
        }
        "ComposeNode".to_string()
    }
}

impl ComposeNode {
    /// Number of nodes in the tree (for telemetry).
    pub(crate) fn node_count(&self) -> u64 {
        match self {
            ComposeNode::Leaf(_) => 1,
            ComposeNode::Not(inner) => 1 + inner.node_count(),
            ComposeNode::Or(children) | ComposeNode::And(children) => {
                1 + children.iter().map(ComposeNode::node_count).sum::<u64>()
            }
            ComposeNode::Then { first, second, .. } => 1 + first.node_count() + second.node_count(),
            ComposeNode::AtLeast { inner, .. } => 1 + inner.node_count(),
        }
    }

    /// The largest leaf index referenced, or `None` for a leafless tree
    /// (which [`evaluate`] rejects anyway — every operator needs a leaf).
    pub fn max_leaf_index(&self) -> Option<usize> {
        match self {
            ComposeNode::Leaf(i) => Some(*i),
            ComposeNode::Not(inner) | ComposeNode::AtLeast { inner, .. } => inner.max_leaf_index(),
            ComposeNode::Or(children) | ComposeNode::And(children) => children
                .iter()
                .filter_map(ComposeNode::max_leaf_index)
                .max(),
            ComposeNode::Then { first, second, .. } => {
                first.max_leaf_index().max(second.max_leaf_index())
            }
        }
    }
}

/// Evaluation context: the bounded clip domain (for `Not`) and the
/// geometry's shots-per-clip (for `AtLeast … SHOTS`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComposeContext {
    /// Number of clips in the decided domain `[0, domain_clips)`.
    pub domain_clips: u64,
    /// Shots per clip from the video geometry (≥ 1).
    pub shots_per_clip: u64,
}

impl ComposeContext {
    /// Converts a duration predicate to its clip-granularity threshold:
    /// `Clips` passes through; `Shots` rounds up (`ceil(min / spc)`) so a
    /// run qualifies only if it spans at least `min` whole shots.
    pub(crate) fn min_clips(&self, min: u64, unit: DurationUnit) -> u64 {
        match unit {
            DurationUnit::Clips => min,
            DurationUnit::Shots => {
                let spc = self.shots_per_clip.max(1);
                min.div_ceil(spc)
            }
        }
    }
}

/// Evaluates a composition tree over the decided leaf sets. Pure and
/// deterministic; errors on out-of-range leaf indices, childless
/// operators, or a tree deeper than `MAX_COMPOSE_DEPTH`.
pub fn evaluate(
    node: &ComposeNode,
    leaves: &[SequenceSet],
    ctx: &ComposeContext,
) -> Result<SequenceSet> {
    evaluate_traced(node, leaves, ctx, &trace::Tracer::disabled())
}

/// [`evaluate`] with tracing: opens the `compose.evaluate` root span
/// (recording leaf and node counts) and bumps one `compose.<op>` counter
/// per operator application plus `compose.windows_out` with the final
/// interval count. A disabled tracer makes this bit-identical to
/// [`evaluate`].
pub fn evaluate_traced(
    node: &ComposeNode,
    leaves: &[SequenceSet],
    ctx: &ComposeContext,
    tracer: &trace::Tracer,
) -> Result<SequenceSet> {
    let _root = trace::span!(
        tracer,
        "compose.evaluate",
        "leaves" = conv::len_u64(leaves.len()),
        "nodes" = node.node_count(),
        "domain_clips" = ctx.domain_clips
    );
    let out = eval_node(node, leaves, ctx, tracer, 0)?;
    tracer.counter_add("compose.windows_out", conv::len_u64(out.intervals().len()));
    Ok(out)
}

fn eval_node(
    node: &ComposeNode,
    leaves: &[SequenceSet],
    ctx: &ComposeContext,
    tracer: &trace::Tracer,
    depth: usize,
) -> Result<SequenceSet> {
    if depth > MAX_COMPOSE_DEPTH {
        return Err(VaqError::InvalidQuery(format!(
            "composition tree exceeds maximum depth {MAX_COMPOSE_DEPTH}"
        )));
    }
    match node {
        ComposeNode::Leaf(i) => {
            tracer.counter_add("compose.leaf", 1);
            leaves.get(*i).cloned().ok_or_else(|| {
                VaqError::InvalidQuery(format!(
                    "composition leaf {i} out of range (have {})",
                    leaves.len()
                ))
            })
        }
        ComposeNode::Not(inner) => {
            tracer.counter_add("compose.not", 1);
            let set = eval_node(inner, leaves, ctx, tracer, depth + 1)?;
            Ok(set.complement(ctx.domain_clips))
        }
        ComposeNode::Or(children) => {
            tracer.counter_add("compose.or", 1);
            if children.is_empty() {
                return Err(VaqError::InvalidQuery(
                    "composition OR needs at least one operand".into(),
                ));
            }
            let mut acc = SequenceSet::empty();
            for c in children {
                acc = acc.union(&eval_node(c, leaves, ctx, tracer, depth + 1)?);
            }
            Ok(acc)
        }
        ComposeNode::And(children) => {
            tracer.counter_add("compose.and", 1);
            let mut acc: Option<SequenceSet> = None;
            for c in children {
                let set = eval_node(c, leaves, ctx, tracer, depth + 1)?;
                acc = Some(match acc {
                    None => set,
                    Some(prev) => prev.intersect(&set),
                });
            }
            acc.ok_or_else(|| {
                VaqError::InvalidQuery("composition AND needs at least one operand".into())
            })
        }
        ComposeNode::Then {
            first,
            second,
            within_clips,
        } => {
            tracer.counter_add("compose.then", 1);
            if *within_clips == 0 {
                return Err(VaqError::InvalidQuery(
                    "THEN … WITHIN window must be at least 1 clip".into(),
                ));
            }
            let a = eval_node(first, leaves, ctx, tracer, depth + 1)?;
            let b = eval_node(second, leaves, ctx, tracer, depth + 1)?;
            Ok(a.then_within(&b, *within_clips))
        }
        ComposeNode::AtLeast { inner, min, unit } => {
            tracer.counter_add("compose.at_least", 1);
            if *min == 0 {
                return Err(VaqError::InvalidQuery(
                    "FOR AT LEAST duration must be positive".into(),
                ));
            }
            let set = eval_node(inner, leaves, ctx, tracer, depth + 1)?;
            Ok(set.filter_min_len(ctx.min_clips(*min, *unit)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::ClipInterval;

    fn set(ivs: &[(u64, u64)]) -> SequenceSet {
        SequenceSet::from_intervals(ivs.iter().map(|&(s, e)| ClipInterval::new(s, e)).collect())
    }

    fn ctx() -> ComposeContext {
        ComposeContext {
            domain_clips: 20,
            shots_per_clip: 5,
        }
    }

    #[test]
    fn leaf_returns_decided_set() {
        let leaves = [set(&[(1, 3)])];
        let got = evaluate(&ComposeNode::Leaf(0), &leaves, &ctx()).unwrap();
        assert_eq!(got, leaves[0]);
    }

    #[test]
    fn leaf_out_of_range_is_typed_error() {
        let err = evaluate(&ComposeNode::Leaf(2), &[set(&[(0, 1)])], &ctx()).unwrap_err();
        assert!(matches!(err, VaqError::InvalidQuery(_)));
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn not_complements_domain() {
        let leaves = [set(&[(2, 4), (10, 19)])];
        let got = evaluate(
            &ComposeNode::Not(Box::new(ComposeNode::Leaf(0))),
            &leaves,
            &ctx(),
        )
        .unwrap();
        assert_eq!(got, set(&[(0, 1), (5, 9)]));
    }

    #[test]
    fn then_emits_windows() {
        let leaves = [set(&[(0, 2)]), set(&[(5, 6)])];
        let then = ComposeNode::Then {
            first: Box::new(ComposeNode::Leaf(0)),
            second: Box::new(ComposeNode::Leaf(1)),
            within_clips: 3,
        };
        assert_eq!(evaluate(&then, &leaves, &ctx()).unwrap(), set(&[(0, 6)]));
        let tight = ComposeNode::Then {
            first: Box::new(ComposeNode::Leaf(0)),
            second: Box::new(ComposeNode::Leaf(1)),
            within_clips: 2,
        };
        assert!(evaluate(&tight, &leaves, &ctx()).unwrap().is_empty());
    }

    #[test]
    fn at_least_shots_rounds_up() {
        // 5 shots/clip: 6 shots ⇒ ceil(6/5) = 2 clips.
        let leaves = [set(&[(0, 0), (4, 5)])];
        let node = ComposeNode::AtLeast {
            inner: Box::new(ComposeNode::Leaf(0)),
            min: 6,
            unit: DurationUnit::Shots,
        };
        assert_eq!(evaluate(&node, &leaves, &ctx()).unwrap(), set(&[(4, 5)]));
    }

    #[test]
    fn zero_window_and_zero_duration_rejected() {
        let leaves = [set(&[(0, 1)])];
        let then = ComposeNode::Then {
            first: Box::new(ComposeNode::Leaf(0)),
            second: Box::new(ComposeNode::Leaf(0)),
            within_clips: 0,
        };
        assert!(evaluate(&then, &leaves, &ctx()).is_err());
        let dur = ComposeNode::AtLeast {
            inner: Box::new(ComposeNode::Leaf(0)),
            min: 0,
            unit: DurationUnit::Clips,
        };
        assert!(evaluate(&dur, &leaves, &ctx()).is_err());
    }

    #[test]
    fn depth_guard_trips() {
        let mut node = ComposeNode::Leaf(0);
        for _ in 0..=MAX_COMPOSE_DEPTH {
            node = ComposeNode::Not(Box::new(node));
        }
        let err = evaluate(&node, &[set(&[(0, 1)])], &ctx()).unwrap_err();
        assert!(err.to_string().contains("depth"));
    }

    #[test]
    fn node_count_and_max_leaf() {
        let node = ComposeNode::Then {
            first: Box::new(ComposeNode::Or(vec![
                ComposeNode::Leaf(0),
                ComposeNode::Leaf(2),
            ])),
            second: Box::new(ComposeNode::Leaf(1)),
            within_clips: 4,
        };
        assert_eq!(node.node_count(), 5);
        assert_eq!(node.max_leaf_index(), Some(2));
    }

    #[test]
    fn json_roundtrip() {
        let node = ComposeNode::AtLeast {
            inner: Box::new(ComposeNode::Then {
                first: Box::new(ComposeNode::Leaf(0)),
                second: Box::new(ComposeNode::Not(Box::new(ComposeNode::Leaf(1)))),
                within_clips: 7,
            }),
            min: 3,
            unit: DurationUnit::Clips,
        };
        let json = json::to_string(&node).unwrap();
        assert_eq!(
            json,
            "{\"AtLeast\":{\"inner\":{\"Then\":{\"first\":{\"Leaf\":0},\"second\":\
             {\"Not\":{\"Leaf\":1}},\"within_clips\":7}},\"min\":3,\"unit\":\"Clips\"}}"
        );
        let back: ComposeNode = json::from_str(&json).unwrap();
        assert_eq!(back, node);
    }
}
