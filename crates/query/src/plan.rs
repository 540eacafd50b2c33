//! Semantic analysis and planning.
//!
//! Turns a parsed [`Statement`] into an executable [`Plan`]: the `WHERE`
//! expression is normalized to a disjunction of conjunctive queries
//! (footnote 4's transformation), every label is resolved against the
//! model vocabularies, relationship predicates are checked against the
//! clause's object set, and the statement is routed online/offline
//! (`ORDER BY RANK … LIMIT K` ⇒ the offline top-K path, matching the
//! paper's two query forms).

use crate::ast::{Atom, Expr, SelectItem, Statement, TemporalExpr};
use vaq_core::compose::ComposeNode;
use vaq_types::query::SpatialRelation;
use vaq_types::{conv, ActionType, ObjectType, Query, Result, VaqError, Vocabulary};

/// Maximum DNF clauses accepted (guards against pathological nesting).
pub(crate) const MAX_DISJUNCTS: usize = 16;

/// Maximum distinct leaf conjunctions a composite plan may reference
/// (each one is a full engine run; keep composite fan-out bounded the
/// same way [`MAX_DISJUNCTS`] bounds the classic path).
pub(crate) const MAX_COMPOSITE_LEAVES: usize = 16;

/// Execution mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Streaming evaluation (SVAQ/SVAQD).
    Online,
    /// Ranked top-K over an ingested repository (RVAQ).
    Offline {
        /// The `LIMIT`.
        k: usize,
    },
}

/// One conjunctive clause: one or more actions (footnote 3), objects in
/// user order, optional relationship constraints (footnote 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// Queried actions (all must hold on a clip).
    pub actions: Vec<ActionType>,
    /// Queried object types, in evaluation order.
    pub objects: Vec<ObjectType>,
    /// Relationship constraints.
    pub relationships: Vec<(ObjectType, SpatialRelation, ObjectType)>,
}

impl ConjunctiveQuery {
    /// Expands into paper-core [`Query`] values, one per action, sharing
    /// the object predicates. Relationship constraints ride on the first.
    pub(crate) fn core_queries(&self) -> Vec<Query> {
        self.actions
            .iter()
            .enumerate()
            .map(|(i, &a)| {
                let mut q = Query::new(a, self.objects.clone());
                if i == 0 {
                    q.relationships = self.relationships.clone();
                }
                q
            })
            .collect()
    }
}

/// The composite half of a plan: leaf conjunctions (each a full
/// engine run with its own scan-statistic decision) plus the
/// composition tree over leaf indices.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositePlan {
    /// Distinct leaf conjunctions referenced by the tree.
    pub leaves: Vec<ConjunctiveQuery>,
    /// Composition tree; `Leaf(i)` indexes into [`Self::leaves`].
    pub root: ComposeNode,
}

/// A validated, executable plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The processed video's name.
    pub video: String,
    /// Online or offline routing.
    pub mode: Mode,
    /// The DNF clauses; results are the union over clauses. For a
    /// composite plan this holds the leaf conjunctions in leaf-index
    /// order (the union semantics only apply on the classic path).
    pub disjuncts: Vec<ConjunctiveQuery>,
    /// Present when the `WHERE` clause uses temporal operators.
    pub composite: Option<CompositePlan>,
}

fn parse_relation(name: &str) -> Result<SpatialRelation> {
    match name.to_ascii_lowercase().as_str() {
        "left_of" => Ok(SpatialRelation::LeftOf),
        "right_of" => Ok(SpatialRelation::RightOf),
        "above" => Ok(SpatialRelation::Above),
        "below" => Ok(SpatialRelation::Below),
        "overlapping" => Ok(SpatialRelation::Overlapping),
        other => Err(VaqError::InvalidQuery(format!(
            "unknown relation {other:?} (expected left_of/right_of/above/below/overlapping)"
        ))),
    }
}

/// Plans a statement against the deployed models' vocabularies.
pub fn plan(stmt: &Statement, objects: &Vocabulary, actions: &Vocabulary) -> Result<Plan> {
    // SELECT list sanity: exactly one MERGE; RANK only with ORDER BY.
    let merges = stmt
        .select
        .iter()
        .filter(|s| matches!(s, SelectItem::Merge { .. }))
        .count();
    if merges != 1 {
        return Err(VaqError::InvalidQuery(format!(
            "expected exactly one MERGE(clipID) projection, found {merges}"
        )));
    }
    let has_rank = stmt.select.iter().any(|s| matches!(s, SelectItem::Rank));

    let limit_k = |k: u64| {
        conv::index(k)
            .map(|k| Mode::Offline { k })
            .ok_or_else(|| VaqError::InvalidQuery(format!("LIMIT {k} exceeds addressable size")))
    };
    let mode = match (stmt.order_by_rank, stmt.limit) {
        (true, Some(k)) => limit_k(k)?,
        (true, None) => {
            return Err(VaqError::InvalidQuery(
                "ORDER BY RANK requires LIMIT K".into(),
            ))
        }
        (false, Some(k)) => limit_k(k)?,
        (false, None) => {
            if has_rank {
                return Err(VaqError::InvalidQuery(
                    "RANK projection requires ORDER BY RANK … LIMIT K".into(),
                ));
            }
            Mode::Online
        }
    };
    if let Mode::Offline { k } = mode {
        if k == 0 {
            return Err(VaqError::InvalidQuery("LIMIT 0 returns nothing".into()));
        }
    }

    if let Some(expr) = stmt.predicate.as_boolean() {
        // Classic path: plain boolean WHERE, DNF union semantics.
        let disjuncts = compile_boolean(expr, objects, actions)?;
        return Ok(Plan {
            video: stmt.from.video.clone(),
            mode,
            disjuncts,
            composite: None,
        });
    }

    // Composite path: compile every boolean leaf of the temporal tree
    // into (deduplicated) conjunctive queries and rewrite the tree over
    // leaf indices.
    let mut leaves: Vec<ConjunctiveQuery> = Vec::new();
    let root = compile_temporal(&stmt.predicate, objects, actions, &mut leaves)?;
    if leaves.len() > MAX_COMPOSITE_LEAVES {
        return Err(VaqError::InvalidQuery(format!(
            "composite WHERE references {} leaf conjunctions (max {MAX_COMPOSITE_LEAVES})",
            leaves.len()
        )));
    }
    Ok(Plan {
        video: stmt.from.video.clone(),
        mode,
        disjuncts: leaves.clone(),
        composite: Some(CompositePlan { leaves, root }),
    })
}

/// Compiles one DNF clause of atoms into a validated conjunctive query.
fn compile_clause(
    clause: &[Atom],
    objects: &Vocabulary,
    actions: &Vocabulary,
) -> Result<ConjunctiveQuery> {
    let mut cq = ConjunctiveQuery {
        actions: Vec::new(),
        objects: Vec::new(),
        relationships: Vec::new(),
    };
    for atom in clause {
        match atom {
            Atom::ActionEquals(label) => {
                let a = actions.action(label)?;
                if !cq.actions.contains(&a) {
                    cq.actions.push(a);
                }
            }
            Atom::ObjectsInclude(labels) => {
                for label in labels {
                    let o = objects.object(label)?;
                    if !cq.objects.contains(&o) {
                        cq.objects.push(o);
                    }
                }
            }
            Atom::Relate {
                subject,
                relation,
                object,
            } => {
                let s = objects.object(subject)?;
                let o = objects.object(object)?;
                cq.relationships.push((s, parse_relation(relation)?, o));
            }
        }
    }
    if cq.actions.is_empty() {
        return Err(VaqError::InvalidQuery(
            "every conjunction needs an action predicate (act = '…')".into(),
        ));
    }
    for &(s, _, o) in &cq.relationships {
        if !cq.objects.contains(&s) || !cq.objects.contains(&o) {
            return Err(VaqError::InvalidQuery(
                "obj.relate endpoints must also appear in obj.include".into(),
            ));
        }
    }
    Ok(cq)
}

/// Normalizes a boolean expression to DNF and compiles each clause.
fn compile_boolean(
    expr: &Expr,
    objects: &Vocabulary,
    actions: &Vocabulary,
) -> Result<Vec<ConjunctiveQuery>> {
    let dnf = expr.to_dnf();
    if dnf.len() > MAX_DISJUNCTS {
        return Err(VaqError::InvalidQuery(format!(
            "WHERE expands to {} disjuncts (max {MAX_DISJUNCTS})",
            dnf.len()
        )));
    }
    let mut disjuncts = Vec::with_capacity(dnf.len());
    for clause in &dnf {
        disjuncts.push(compile_clause(clause, objects, actions)?);
    }
    Ok(disjuncts)
}

/// Interns a conjunctive query, returning its leaf index.
fn intern_leaf(leaves: &mut Vec<ConjunctiveQuery>, cq: ConjunctiveQuery) -> usize {
    match leaves.iter().position(|l| *l == cq) {
        Some(i) => i,
        None => {
            leaves.push(cq);
            leaves.len() - 1
        }
    }
}

/// Recursively compiles a temporal tree: boolean leaves become DNF
/// clauses interned into `leaves`; structure maps 1:1 onto
/// [`ComposeNode`].
fn compile_temporal(
    expr: &TemporalExpr,
    objects: &Vocabulary,
    actions: &Vocabulary,
    leaves: &mut Vec<ConjunctiveQuery>,
) -> Result<ComposeNode> {
    match expr {
        TemporalExpr::Leaf(e) => {
            let clauses = compile_boolean(e, objects, actions)?;
            let mut nodes: Vec<ComposeNode> = Vec::with_capacity(clauses.len());
            for cq in clauses {
                nodes.push(ComposeNode::Leaf(intern_leaf(leaves, cq)));
            }
            if nodes.len() == 1 {
                Ok(nodes.remove(0))
            } else {
                Ok(ComposeNode::Or(nodes))
            }
        }
        TemporalExpr::Not(inner) => Ok(ComposeNode::Not(Box::new(compile_temporal(
            inner, objects, actions, leaves,
        )?))),
        TemporalExpr::Or(parts) => {
            let mut nodes = Vec::with_capacity(parts.len());
            for p in parts {
                nodes.push(compile_temporal(p, objects, actions, leaves)?);
            }
            Ok(ComposeNode::Or(nodes))
        }
        TemporalExpr::And(parts) => {
            let mut nodes = Vec::with_capacity(parts.len());
            for p in parts {
                nodes.push(compile_temporal(p, objects, actions, leaves)?);
            }
            Ok(ComposeNode::And(nodes))
        }
        TemporalExpr::Then {
            first,
            second,
            within_clips,
        } => Ok(ComposeNode::Then {
            first: Box::new(compile_temporal(first, objects, actions, leaves)?),
            second: Box::new(compile_temporal(second, objects, actions, leaves)?),
            within_clips: *within_clips,
        }),
        TemporalExpr::AtLeast { inner, min, unit } => Ok(ComposeNode::AtLeast {
            inner: Box::new(compile_temporal(inner, objects, actions, leaves)?),
            min: *min,
            unit: *unit,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::vocab;

    fn plan_sql(sql: &str) -> Result<Plan> {
        let stmt = crate::parse(sql)?;
        plan(&stmt, &vocab::coco_objects(), &vocab::kinetics_actions())
    }

    #[test]
    fn online_plan_from_paper_example() {
        let p = plan_sql(
            "SELECT MERGE(clipID) AS Sequence \
             FROM (PROCESS v PRODUCE clipID, obj USING ObjectDetector, act USING ActionRecognizer) \
             WHERE act='jumping' AND obj.include('car', 'person')",
        )
        .unwrap();
        assert_eq!(p.mode, Mode::Online);
        assert_eq!(p.disjuncts.len(), 1);
        assert_eq!(p.disjuncts[0].actions.len(), 1);
        assert_eq!(p.disjuncts[0].objects.len(), 2);
    }

    #[test]
    fn offline_plan_with_limit() {
        let p = plan_sql(
            "SELECT MERGE(clipID), RANK(act, obj) \
             FROM (PROCESS m PRODUCE clipID, obj USING ObjectTracker, act USING ActionRecognizer) \
             WHERE act='smoking' AND obj.include('wine glass','cup') \
             ORDER BY RANK(act, obj) LIMIT 5",
        )
        .unwrap();
        assert_eq!(p.mode, Mode::Offline { k: 5 });
        assert_eq!(p.video, "m");
    }

    #[test]
    fn unknown_labels_rejected() {
        let err = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='teleporting'",
        )
        .unwrap_err();
        assert!(matches!(err, VaqError::UnknownLabel { .. }));
        let err = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('unicorn')",
        )
        .unwrap_err();
        assert!(matches!(err, VaqError::UnknownLabel { .. }));
        // A multi-byte label is named as written.
        let err =
            plan_sql("SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE act='sautéing'")
                .unwrap_err();
        assert!(
            matches!(&err, VaqError::UnknownLabel { label, .. } if label == "sautéing"),
            "{err:?}"
        );
        assert!(err.to_string().contains("\"sautéing\""), "{err}");
    }

    #[test]
    fn action_required_per_clause() {
        let err = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) WHERE obj.include('car')",
        )
        .unwrap_err();
        assert!(err.to_string().contains("action predicate"));
    }

    #[test]
    fn order_by_without_limit_rejected() {
        let err = plan_sql(
            "SELECT MERGE(clipID), RANK(act) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' ORDER BY RANK(act)",
        )
        .unwrap_err();
        assert!(err.to_string().contains("LIMIT"));
    }

    #[test]
    fn rank_without_order_by_rejected() {
        let err = plan_sql(
            "SELECT MERGE(clipID), RANK(act) FROM (PROCESS v PRODUCE clipID) WHERE act='jumping'",
        )
        .unwrap_err();
        assert!(err.to_string().contains("ORDER BY"));
    }

    #[test]
    fn disjunction_produces_clauses() {
        let p = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE (act='jumping' AND obj.include('car')) OR act='archery'",
        )
        .unwrap();
        assert_eq!(p.disjuncts.len(), 2);
        assert!(p.disjuncts[1].objects.is_empty());
    }

    #[test]
    fn multi_action_conjunction() {
        let p = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND act='archery' AND obj.include('car')",
        )
        .unwrap();
        assert_eq!(p.disjuncts[0].actions.len(), 2);
        let qs = p.disjuncts[0].core_queries();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].objects, qs[1].objects);
    }

    #[test]
    fn relate_endpoints_validated() {
        let err = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('person') \
             AND obj.relate('person','left_of','car')",
        )
        .unwrap_err();
        assert!(err.to_string().contains("obj.include"));
        let ok = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('person','car') \
             AND obj.relate('person','left_of','car')",
        )
        .unwrap();
        assert_eq!(ok.disjuncts[0].relationships.len(), 1);
    }

    #[test]
    fn bad_relation_name() {
        let err = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' AND obj.include('person','car') \
             AND obj.relate('person','orbiting','car')",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown relation"));
    }

    #[test]
    fn limit_zero_rejected() {
        let err = plan_sql(
            "SELECT MERGE(clipID) FROM (PROCESS v PRODUCE clipID) \
             WHERE act='jumping' LIMIT 0",
        )
        .unwrap_err();
        assert!(err.to_string().contains("LIMIT 0"));
    }
}
