//! The query model.
//!
//! The paper's core query form (§2) is a conjunction of one action predicate
//! and zero or more object-presence predicates:
//! `q : {o_1, …, o_I ∈ O; a ∈ A}`. [`Query`] captures exactly that, with the
//! object predicates kept *in user order* — the paper evaluates predicates
//! sequentially and short-circuits (Algorithm 2, lines 6–8), with the order
//! "determined based on user expertise" (footnote 5).
//!
//! Relationship constraints (footnote 2) are modeled too, as
//! [`Query::relationships`]. Disjunctions (footnote 4) are handled one
//! level up, in `vaq-query`, by compiling to disjunctive normal form over
//! conjunctive queries.

use crate::error::{Result, VaqError};
use crate::ids::{ActionType, ObjectType};

/// A spatial relationship between two object types, evaluated per frame from
/// detector boxes (extension of paper footnote 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialRelation {
    /// Subject's box center is left of the object's.
    LeftOf,
    /// Subject's box center is right of the object's.
    RightOf,
    /// Subject's box center is above the object's.
    Above,
    /// Subject's box center is below the object's.
    Below,
    /// The two boxes overlap (IoU > 0).
    Overlapping,
}

crate::json_unit_enum!(SpatialRelation: LeftOf, RightOf, Above, Below, Overlapping);

/// The unit of a composite duration predicate (`FOR AT LEAST d …`).
///
/// Durations are always *enforced* at clip granularity (the decision
/// grain of the engines); `Shots` converts via the video geometry's
/// shots-per-clip at evaluation time, rounding up so a sequence passes
/// only if it covers at least `d` whole shots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DurationUnit {
    /// The duration is given directly in clips.
    Clips,
    /// The duration is given in shots (converted by geometry).
    Shots,
}

crate::json_unit_enum!(DurationUnit: Clips, Shots);

/// The paper's core conjunctive query: one action, `I` object predicates in
/// user-specified evaluation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The queried action `a`.
    pub action: ActionType,
    /// The queried object types `o_1 … o_I`, in evaluation order.
    pub objects: Vec<ObjectType>,
    /// Relationship constraints (extension; empty for paper-core queries).
    pub relationships: Vec<(ObjectType, SpatialRelation, ObjectType)>,
}

crate::json_record!(Query: action, objects, relationships);

impl Query {
    /// A query with an action and object predicates, no relationships.
    pub fn new(action: ActionType, objects: impl Into<Vec<ObjectType>>) -> Self {
        Self {
            action,
            objects: objects.into(),
            relationships: Vec::new(),
        }
    }

    /// An action-only query (`I = 0`).
    pub fn action_only(action: ActionType) -> Self {
        Self::new(action, Vec::new())
    }

    /// Validates structural invariants: no duplicate object predicates
    /// (a duplicate conjunct is almost certainly a query-authoring bug) and
    /// relationship endpoints drawn from the queried objects.
    pub fn validate(&self) -> Result<()> {
        let mut seen = std::collections::HashSet::new();
        for &o in &self.objects {
            if !seen.insert(o) {
                return Err(VaqError::InvalidQuery(format!(
                    "duplicate object predicate {o}"
                )));
            }
        }
        for &(s, _, o) in &self.relationships {
            if !seen.contains(&s) || !seen.contains(&o) {
                return Err(VaqError::InvalidQuery(format!(
                    "relationship ({s}, {o}) references an object type not in \
                     the query's object predicates"
                )));
            }
            if s == o {
                return Err(VaqError::InvalidQuery(format!(
                    "relationship relates {s} to itself"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> ObjectType {
        ObjectType::new(i)
    }
    fn a(i: u32) -> ActionType {
        ActionType::new(i)
    }

    #[test]
    fn duplicate_objects_rejected() {
        let err = Query::new(a(0), vec![o(1), o(1)]).validate().unwrap_err();
        assert!(matches!(err, VaqError::InvalidQuery(_)));
    }

    #[test]
    fn relationship_endpoints_must_be_queried() {
        let mut q = Query::new(a(0), vec![o(1)]);
        q.relationships.push((o(1), SpatialRelation::LeftOf, o(9)));
        let err = q.validate().unwrap_err();
        assert!(matches!(err, VaqError::InvalidQuery(_)));
    }

    #[test]
    fn self_relationship_rejected() {
        let mut q = Query::new(a(0), vec![o(1)]);
        q.relationships
            .push((o(1), SpatialRelation::Overlapping, o(1)));
        let err = q.validate().unwrap_err();
        assert!(matches!(err, VaqError::InvalidQuery(_)));
    }

    #[test]
    fn action_only_query() {
        let q = Query::action_only(a(7));
        assert!(q.objects.is_empty());
        q.validate().unwrap();
    }
}
