//! The standing-query registry: who is running what, since when.
//!
//! The registry holds *metadata only* — engines live beside it in the
//! service session (they borrow the shared model caches and are not
//! serializable). Query ids are assigned to every submission attempt in
//! arrival order, admitted or not, so a schedule can reference "the nth
//! submission" stably regardless of admission outcomes.

use super::tenant::TenantId;
use crate::compose::ComposeNode;
use std::collections::BTreeMap;
use vaq_types::Query;

/// Identity of one submission to the service, in arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u64);

vaq_types::json_newtype!(QueryId);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// The composite half of a standing submission: extra leaf queries
/// beyond [`QuerySpec::query`] and the composition tree over leaf
/// indices. Leaf `0` is the spec's primary query; leaf `i ≥ 1` is
/// `extra_leaves[i - 1]`. Every leaf runs its own engine with its own
/// scan-statistic decision; the tree is composed once the query leaves
/// the service.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeSpec {
    /// State schema version; absent in pre-versioning checkpoints, which
    /// read as version 1.
    pub format_version: u32,
    /// Leaves `1…` (leaf `0` is [`QuerySpec::query`]).
    pub extra_leaves: Vec<Query>,
    /// Composition tree over leaf indices.
    pub root: ComposeNode,
}

vaq_types::json_record!(CompositeSpec: #[default] format_version, extra_leaves, root);

impl CompositeSpec {
    /// Total leaf count including the primary query.
    pub fn num_leaves(&self) -> usize {
        1 + self.extra_leaves.len()
    }
}

/// What a tenant submits: the query plus its service-level attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Owning tenant.
    pub tenant: TenantId,
    /// The standing VAQ query.
    pub query: Query,
    /// Shed priority: higher values survive overload longer. Does not
    /// affect service order.
    pub priority: u8,
    /// Queue-wait deadline in simulated µs; `None` uses the service
    /// default.
    pub deadline_us: Option<u64>,
    /// Optional composite extension: extra leaves plus a composition
    /// tree. Absent for classic single-conjunction submissions (and in
    /// checkpoints taken before composite support existed).
    pub composite: Option<CompositeSpec>,
}

vaq_types::json_record!(QuerySpec: tenant, query, priority, deadline_us, #[default] composite);

/// One admitted standing query's registry entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StandingEntry {
    /// Submission identity.
    pub id: QueryId,
    /// The submission.
    pub spec: QuerySpec,
    /// Detector-budget weight charged against the tenant.
    pub weight: u64,
    /// Tick at which the query was admitted (its first visible clip).
    pub admitted_tick: u64,
}

vaq_types::json_record!(StandingEntry: id, spec, weight, admitted_tick);

/// Registry of currently-standing queries, keyed by [`QueryId`] so every
/// iteration is in deterministic admission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct QueryRegistry {
    entries: BTreeMap<QueryId, StandingEntry>,
    next_id: u64,
}

vaq_types::json_record!(QueryRegistry: entries, next_id);

impl QueryRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the next submission id (every submission consumes one,
    /// admitted or rejected).
    pub(crate) fn next_submission_id(&mut self) -> QueryId {
        let id = QueryId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Registers an admitted query.
    pub fn insert(&mut self, entry: StandingEntry) {
        self.entries.insert(entry.id, entry);
    }

    /// Removes and returns a standing entry (a departure).
    pub fn remove(&mut self, id: QueryId) -> Option<StandingEntry> {
        self.entries.remove(&id)
    }

    /// The standing entry for `id`, if admitted and not yet departed.
    pub fn get(&self, id: QueryId) -> Option<&StandingEntry> {
        self.entries.get(&id)
    }

    /// Standing ids in admission order (snapshot, for iteration while
    /// mutating the registry).
    pub fn ids(&self) -> Vec<QueryId> {
        self.entries.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::{ActionType, ObjectType};

    fn spec(tenant: u32) -> QuerySpec {
        QuerySpec {
            tenant: TenantId(tenant),
            query: Query::new(ActionType::new(0), vec![ObjectType::new(1)]),
            priority: 0,
            deadline_us: None,
            composite: None,
        }
    }

    #[test]
    fn submission_ids_are_sequential_even_across_rejections() {
        let mut r = QueryRegistry::new();
        let a = r.next_submission_id();
        let b = r.next_submission_id(); // e.g. rejected: never inserted
        let c = r.next_submission_id();
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        r.insert(StandingEntry {
            id: c,
            spec: spec(3),
            weight: 2,
            admitted_tick: 7,
        });
        assert_eq!(r.ids(), vec![c]);
        assert_eq!(r.get(b), None);
        assert_eq!(r.get(c).map(|e| e.admitted_tick), Some(7));
    }

    #[test]
    fn iteration_is_in_admission_order() {
        let mut r = QueryRegistry::new();
        for t in [5u32, 1, 9] {
            let id = r.next_submission_id();
            r.insert(StandingEntry {
                id,
                spec: spec(t),
                weight: 1,
                admitted_tick: 0,
            });
        }
        let order: Vec<u32> = r.entries.values().map(|e| e.spec.tenant.0).collect();
        assert_eq!(order, vec![5, 1, 9]);
        r.remove(QueryId(1));
        assert_eq!(r.ids(), vec![QueryId(0), QueryId(2)]);
    }
}
