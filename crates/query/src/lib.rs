//! # vaq-query
//!
//! VAQ-SQL: the declarative query frontend of the paper's §1–§2 examples.
//!
//! ```sql
//! -- online (streaming) form
//! SELECT MERGE(clipID) AS Sequence
//! FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectDetector,
//!       act USING ActionRecognizer)
//! WHERE act = 'jumping' AND obj.include('car', 'person')
//!
//! -- offline (top-K) form
//! SELECT MERGE(clipID) AS Sequence, RANK(act, obj)
//! FROM (PROCESS inputVideo PRODUCE clipID, obj USING ObjectTracker,
//!       act USING ActionRecognizer)
//! WHERE act = 'jumping' AND obj.include('car', 'person')
//! ORDER BY RANK(act, obj) LIMIT 5
//! ```
//!
//! The pipeline is classic: `lexer` → `parser` (AST in `ast`) →
//! [`plan`](mod@plan) (semantic validation against the model vocabularies, DNF
//! normalization of the `WHERE` clause, online/offline routing) → [`exec`]
//! (drives [`vaq_core`]'s engines).
//!
//! Beyond the paper's core grammar, the footnote extensions are accepted:
//! multiple action predicates (footnote 3; conjunction over per-clip
//! indicators), disjunctions via `OR` with parentheses (footnote 4; the
//! planner normalizes to a disjunction of conjunctive queries and the
//! executor unions their results), and spatial relationship predicates
//! `obj.relate('a', 'left_of', 'b')` (footnote 2; online-only frame-level
//! post-filter).
//!
//! The composite temporal operators (DESIGN.md §16) extend the `WHERE`
//! clause with sequencing, negation, and duration:
//! `A THEN B WITHIN n CLIPS`, `NOT A`, and
//! `A FOR AT LEAST n CLIPS|SHOTS`, composable with `OR`/`AND` and
//! parentheses. Each distinct conjunctive predicate compiles to one
//! leaf engine with its own scan-statistic decision; the composition
//! tree ([`vaq_core::compose`]) sweeps the *decided* interval sets, so
//! composite answers inherit the leaves' determinism guarantees.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod ast;
pub mod exec;
mod lexer;
mod parser;
pub mod plan;

pub use ast::Statement;
pub use exec::{execute_offline, execute_online, execute_repository, OfflineSource, QueryOutput};
pub use plan::{plan, Mode, Plan};

/// Parses a VAQ-SQL string into its AST.
pub fn parse(sql: &str) -> vaq_types::Result<Statement> {
    parser::Parser::new(sql)?.parse_statement()
}
