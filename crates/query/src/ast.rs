//! Abstract syntax tree for VAQ-SQL, including the composite temporal
//! layer (`THEN … WITHIN`, `NOT`, `FOR AT LEAST`) and a pretty-printer
//! whose output reparses to the same AST (round-trip property).

use std::fmt;
use vaq_types::DurationUnit;

/// A full query statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// Items of the `SELECT` list.
    pub(crate) select: Vec<SelectItem>,
    /// The `FROM (PROCESS …)` clause.
    pub(crate) from: ProcessClause,
    /// The `WHERE` expression (boolean leaves plus temporal operators).
    pub(crate) predicate: TemporalExpr,
    /// `ORDER BY RANK(…)` presence.
    pub(crate) order_by_rank: bool,
    /// `LIMIT K`.
    pub(crate) limit: Option<u64>,
}

/// One `SELECT` list item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SelectItem {
    /// `MERGE(clipID) [AS alias]` — the result-sequence projection.
    Merge {
        /// Optional `AS` alias.
        alias: Option<String>,
    },
    /// `RANK(act, obj)` — the ranking score projection (offline form).
    Rank,
}

/// `FROM (PROCESS <video> PRODUCE <field> [, <field> USING <Model>]…)`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProcessClause {
    /// The processed video's name.
    pub(crate) video: String,
    /// Produced fields, e.g. `clipID`, `obj USING ObjectDetector`.
    pub(crate) produce: Vec<ProduceItem>,
}

/// One `PRODUCE` item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ProduceItem {
    /// Field name (`clipID`, `obj`, `act`, …).
    pub(crate) field: String,
    /// Model bound via `USING` (e.g. `ObjectDetector`), if any.
    pub(crate) using: Option<String>,
}

/// Boolean predicate expression over atoms.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    /// An atomic predicate.
    Atom(Atom),
}

/// Atomic predicates of the language.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Atom {
    /// `act = 'label'`.
    ActionEquals(String),
    /// `obj.include('a', 'b', …)` (alias `obj.inc`).
    ObjectsInclude(Vec<String>),
    /// `obj.relate('a', 'left_of', 'b')` — footnote-2 extension.
    Relate {
        /// Subject object label.
        subject: String,
        /// Relation name (`left_of`, `right_of`, `above`, `below`,
        /// `overlapping`).
        relation: String,
        /// Object (grammatical) label.
        object: String,
    },
}

/// A temporal predicate expression: boolean leaves composed with the
/// operators of the composite temporal language. Purely boolean trees
/// collapse to a single [`TemporalExpr::Leaf`] (the smart constructors
/// [`TemporalExpr::or`] / [`TemporalExpr::and`] enforce this), so a
/// legacy query is always `Leaf(expr)` and takes the classic DNF path.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TemporalExpr {
    /// A boolean expression decided per clip by the scan-statistic
    /// engines (the paper's core workload).
    Leaf(Expr),
    /// Negation: clips where the operand does *not* hold (complement
    /// against the decided stream).
    Not(Box<TemporalExpr>),
    /// Disjunction over temporal operands.
    Or(Vec<TemporalExpr>),
    /// Conjunction over temporal operands.
    And(Vec<TemporalExpr>),
    /// Sequencing: `first THEN second WITHIN within_clips CLIPS`.
    Then {
        /// The earlier occurrence.
        first: Box<TemporalExpr>,
        /// The later occurrence.
        second: Box<TemporalExpr>,
        /// Maximum gap between `first`'s end and `second`'s start (≥ 1).
        within_clips: u64,
    },
    /// Duration: `inner FOR AT LEAST min CLIPS|SHOTS`.
    AtLeast {
        /// The filtered operand.
        inner: Box<TemporalExpr>,
        /// Minimum duration (> 0).
        min: u64,
        /// Unit the duration is expressed in.
        unit: DurationUnit,
    },
}

impl TemporalExpr {
    /// Disjunction smart constructor: collapses an all-boolean operand
    /// list into a boolean `Leaf(Or)` and unwraps the single-operand case,
    /// keeping legacy queries on the classic DNF path.
    pub(crate) fn or(mut parts: Vec<TemporalExpr>) -> TemporalExpr {
        if parts.len() == 1 {
            return parts.remove(0);
        }
        if parts.iter().all(|p| matches!(p, TemporalExpr::Leaf(_))) {
            // filter_map drops nothing: the all-Leaf guard above holds.
            let exprs = parts
                .into_iter()
                .filter_map(|p| match p {
                    TemporalExpr::Leaf(e) => Some(e),
                    _ => None,
                })
                .collect();
            return TemporalExpr::Leaf(Expr::Or(exprs));
        }
        TemporalExpr::Or(parts)
    }

    /// Conjunction smart constructor; see [`TemporalExpr::or`].
    pub(crate) fn and(mut parts: Vec<TemporalExpr>) -> TemporalExpr {
        if parts.len() == 1 {
            return parts.remove(0);
        }
        if parts.iter().all(|p| matches!(p, TemporalExpr::Leaf(_))) {
            // filter_map drops nothing: the all-Leaf guard above holds.
            let exprs = parts
                .into_iter()
                .filter_map(|p| match p {
                    TemporalExpr::Leaf(e) => Some(e),
                    _ => None,
                })
                .collect();
            return TemporalExpr::Leaf(Expr::And(exprs));
        }
        TemporalExpr::And(parts)
    }

    /// The boolean expression of a non-composite tree, if any.
    pub(crate) fn as_boolean(&self) -> Option<&Expr> {
        match self {
            TemporalExpr::Leaf(e) => Some(e),
            _ => None,
        }
    }

    /// Printing precedence; higher binds tighter. Mirrors the grammar:
    /// `THEN` (0) < `OR` (1) < `AND` (2) < `NOT` (3) < `FOR AT LEAST` (4)
    /// < primary (5).
    fn prec(&self) -> u8 {
        match self {
            TemporalExpr::Then { .. } => 0,
            TemporalExpr::Or(_) => 1,
            TemporalExpr::And(_) => 2,
            TemporalExpr::Not(_) => 3,
            TemporalExpr::AtLeast { .. } => 4,
            TemporalExpr::Leaf(e) => e.prec(),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
        let needs_parens = self.prec() < min_prec;
        if needs_parens {
            write!(f, "(")?;
        }
        match self {
            TemporalExpr::Leaf(e) => e.fmt_prec(f, 0)?,
            TemporalExpr::Not(inner) => {
                write!(f, "NOT ")?;
                inner.fmt_prec(f, 3)?;
            }
            TemporalExpr::Or(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    p.fmt_prec(f, 2)?;
                }
            }
            TemporalExpr::And(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    p.fmt_prec(f, 3)?;
                }
            }
            TemporalExpr::Then {
                first,
                second,
                within_clips,
            } => {
                first.fmt_prec(f, 0)?;
                write!(f, " THEN ")?;
                // The right operand parses at the OR level, so a nested
                // THEN (or anything looser) must parenthesize.
                second.fmt_prec(f, 1)?;
                write!(f, " WITHIN {within_clips} CLIPS")?;
            }
            TemporalExpr::AtLeast { inner, min, unit } => {
                inner.fmt_prec(f, 5)?;
                let unit = match unit {
                    DurationUnit::Clips => "CLIPS",
                    DurationUnit::Shots => "SHOTS",
                };
                write!(f, " FOR AT LEAST {min} {unit}")?;
            }
        }
        if needs_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for TemporalExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

fn fmt_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "'{}'", s.replace('\'', "''"))
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::ActionEquals(label) => {
                write!(f, "act = ")?;
                fmt_str(f, label)
            }
            Atom::ObjectsInclude(labels) => {
                write!(f, "obj.include(")?;
                for (i, l) in labels.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    fmt_str(f, l)?;
                }
                write!(f, ")")
            }
            Atom::Relate {
                subject,
                relation,
                object,
            } => {
                write!(f, "obj.relate(")?;
                fmt_str(f, subject)?;
                write!(f, ", ")?;
                fmt_str(f, relation)?;
                write!(f, ", ")?;
                fmt_str(f, object)?;
                write!(f, ")")
            }
        }
    }
}

impl Expr {
    /// Printing precedence within the boolean layer (shares the scale of
    /// [`TemporalExpr::prec`]): `OR` (1) < `AND` (2) < atom (5).
    fn prec(&self) -> u8 {
        match self {
            Expr::Or(_) => 1,
            Expr::And(_) => 2,
            Expr::Atom(_) => 5,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, min_prec: u8) -> fmt::Result {
        let needs_parens = self.prec() < min_prec;
        if needs_parens {
            write!(f, "(")?;
        }
        match self {
            Expr::Atom(a) => write!(f, "{a}")?,
            Expr::Or(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    p.fmt_prec(f, 2)?;
                }
            }
            Expr::And(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    p.fmt_prec(f, 3)?;
                }
            }
        }
        if needs_parens {
            write!(f, ")")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Merge { alias: None } => write!(f, "MERGE(clipID)")?,
                SelectItem::Merge { alias: Some(a) } => write!(f, "MERGE(clipID) AS {a}")?,
                SelectItem::Rank => write!(f, "RANK(act, obj)")?,
            }
        }
        write!(f, " FROM (PROCESS {} PRODUCE ", self.from.video)?;
        for (i, p) in self.from.produce.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", p.field)?;
            if let Some(m) = &p.using {
                write!(f, " USING {m}")?;
            }
        }
        write!(f, ") WHERE {}", self.predicate)?;
        if self.order_by_rank {
            write!(f, " ORDER BY RANK(act, obj)")?;
        }
        if let Some(k) = self.limit {
            write!(f, " LIMIT {k}")?;
        }
        Ok(())
    }
}

impl Expr {
    /// Normalizes to disjunctive normal form: a list of conjunctions of
    /// atoms. The grammar produces shallow trees, so the blow-up is
    /// bounded in practice; pathological inputs are capped by the caller.
    pub(crate) fn to_dnf(&self) -> Vec<Vec<Atom>> {
        match self {
            Expr::Atom(a) => vec![vec![a.clone()]],
            Expr::Or(es) => es.iter().flat_map(Expr::to_dnf).collect(),
            Expr::And(es) => {
                let mut acc: Vec<Vec<Atom>> = vec![Vec::new()];
                for e in es {
                    let parts = e.to_dnf();
                    let mut next = Vec::with_capacity(acc.len() * parts.len());
                    for lhs in &acc {
                        for rhs in &parts {
                            let mut clause = lhs.clone();
                            clause.extend(rhs.iter().cloned());
                            next.push(clause);
                        }
                    }
                    acc = next;
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(s: &str) -> Expr {
        Expr::Atom(Atom::ActionEquals(s.into()))
    }
    fn objs(os: &[&str]) -> Expr {
        Expr::Atom(Atom::ObjectsInclude(
            os.iter().map(|s| s.to_string()).collect(),
        ))
    }

    #[test]
    fn dnf_of_atom() {
        assert_eq!(
            act("a").to_dnf(),
            vec![vec![Atom::ActionEquals("a".into())]]
        );
    }

    #[test]
    fn dnf_of_conjunction() {
        let e = Expr::And(vec![act("a"), objs(&["car"])]);
        let dnf = e.to_dnf();
        assert_eq!(dnf.len(), 1);
        assert_eq!(dnf[0].len(), 2);
    }

    #[test]
    fn dnf_distributes_and_over_or() {
        // (a1 OR a2) AND obj → two clauses.
        let e = Expr::And(vec![Expr::Or(vec![act("a1"), act("a2")]), objs(&["car"])]);
        let dnf = e.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert!(dnf.iter().all(|c| c.len() == 2));
    }

    #[test]
    fn dnf_of_nested_or() {
        let e = Expr::Or(vec![Expr::And(vec![act("a"), objs(&["x"])]), act("b")]);
        let dnf = e.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0].len(), 2);
        assert_eq!(dnf[1].len(), 1);
    }
}
