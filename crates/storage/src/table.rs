//! The clip-score-table interface, its access accounting, and the one
//! implementation, [`MemTable`].

use crate::cost::CostModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vaq_types::{conv, ActionType, ClipId, ObjectType};

/// Identifies which per-type table is meant (`table_{o_i}` or `table_{a_j}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TableKey {
    /// An object type's table.
    Object(ObjectType),
    /// An action type's table.
    Action(ActionType),
}

impl std::fmt::Display for TableKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableKey::Object(o) => write!(f, "table_{o}"),
            TableKey::Action(a) => write!(f, "table_{a}"),
        }
    }
}

/// One table row: a clip identifier and its score for the table's type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreRow {
    /// The clip identifier (`cid`).
    pub clip: ClipId,
    /// The clip's score for this table's object/action type.
    pub score: f64,
}

/// Table order: descending score, ties broken by ascending clip id.
pub(crate) fn score_order(a: &ScoreRow, b: &ScoreRow) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.clip.cmp(&b.clip))
}

/// Access counters: one atomic increment per access, so tables can be
/// shared immutably between algorithm components while still accounting
/// every read. Simulated I/O time is derived from the counts (see
/// [`AccessCounters::snapshot`]).
#[derive(Debug, Default)]
pub(crate) struct AccessCounters {
    sorted: AtomicU64,
    reverse: AtomicU64,
    random: AtomicU64,
}

/// A point-in-time snapshot of `AccessCounters`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Sorted (top-down) scan steps.
    pub sorted: u64,
    /// Reverse (bottom-up) scan steps.
    pub reverse: u64,
    /// Random row lookups.
    pub random: u64,
    /// Random row lookups *avoided* by a skip predicate: a seen candidate
    /// clip was passed without the completing lookups its scoring would
    /// have cost (a clip outside the candidates is never scored, so it
    /// counts nothing).
    /// Tables never observe skips, so this is filled in by the consumer
    /// (TBClip) rather than by `AccessCounters`.
    pub elided: u64,
    /// Simulated I/O time, nanoseconds.
    pub simulated_ns: u64,
}

impl AccessStats {
    /// Total accesses of any kind (performed, not elided).
    pub fn total(&self) -> u64 {
        self.sorted + self.reverse + self.random
    }

    /// Simulated I/O time in milliseconds.
    pub fn simulated_ms(&self) -> f64 {
        self.simulated_ns as f64 / 1e6
    }

    /// Component-wise sum.
    pub fn merge(&self, other: &AccessStats) -> AccessStats {
        AccessStats {
            sorted: self.sorted + other.sorted,
            reverse: self.reverse + other.reverse,
            random: self.random + other.random,
            elided: self.elided + other.elided,
            simulated_ns: self.simulated_ns + other.simulated_ns,
        }
    }
}

impl AccessCounters {
    pub(crate) fn count_sequential(&self) {
        self.sorted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_reverse(&self) {
        self.reverse.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_random(&self) {
        self.random.fetch_add(1, Ordering::Relaxed);
    }

    /// The counts, with the simulated I/O time they cost under `cost`: each
    /// sorted or reverse step charges `⌊sequential_us·1e3⌋` ns and each
    /// random lookup `⌊random_us·1e3⌋` ns.
    pub(crate) fn snapshot(&self, cost: &CostModel) -> AccessStats {
        let sorted = self.sorted.load(Ordering::Relaxed);
        let reverse = self.reverse.load(Ordering::Relaxed);
        let random = self.random.load(Ordering::Relaxed);
        AccessStats {
            sorted,
            reverse,
            random,
            elided: 0,
            simulated_ns: (sorted + reverse) * (cost.sequential_us * 1e3) as u64
                + random * (cost.random_us * 1e3) as u64,
        }
    }

    pub(crate) fn reset(&self) {
        self.sorted.store(0, Ordering::Relaxed);
        self.reverse.store(0, Ordering::Relaxed);
        self.random.store(0, Ordering::Relaxed);
    }
}

/// A clip score table ordered by score, exposing the three accounted access
/// paths of the top-k cost model.
pub trait ClipScoreTable: Send + Sync {
    /// Number of rows.
    fn len(&self) -> usize;

    /// Whether the table has no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `row`-th highest-scoring entry (0-based), or `None` past the end.
    fn sorted_access(&self, row: usize) -> Option<ScoreRow>;

    /// The `row`-th *lowest*-scoring entry (0-based from the bottom).
    fn reverse_access(&self, row: usize) -> Option<ScoreRow>;

    /// The score of clip `clip`, or `None` if the clip has no entry.
    fn random_access(&self, clip: ClipId) -> Option<f64>;

    /// Snapshot of the access counters.
    fn stats(&self) -> AccessStats;

    /// Resets the access counters.
    fn reset_stats(&self);
}

/// The clip score table: one vector sorted by descending score, and a
/// clip-id index over it for random access, built once with the rows. The
/// index is a dense array of row positions over the table's clip-id span,
/// one read per lookup, unless the ids are spread wider than
/// [`vaq_types::ids::dense_span`] allows; then it is the rows sorted by
/// clip id, searched by bisection. Built from rows with [`MemTable::new`]
/// or loaded from a catalog with [`crate::VideoCatalog::table`]; every
/// access is a memory read, accounted at the [`CostModel`] rate.
///
/// The rows are immutable and shared: handles on the same table (see
/// [`crate::VideoCatalog::table`]) hold one copy of them, while each handle
/// keeps its own `AccessCounters`, so a handle's [`ClipScoreTable::stats`]
/// count only the accesses made through it.
#[derive(Debug)]
pub struct MemTable {
    rows: Arc<Rows>,
    counters: AccessCounters,
    cost: CostModel,
}

/// One table's rows in score order, and the index random access reads.
#[derive(Debug)]
struct Rows {
    by_score: Vec<ScoreRow>,
    by_clip: ClipIndex,
}

/// Marks a clip without a row in [`ClipIndex::Dense`]. Dense tables have
/// fewer rows than this, so it is never a row position.
const NO_ROW: u32 = u32::MAX;

/// How random access finds a clip's row.
#[derive(Debug)]
enum ClipIndex {
    /// Clip `first + i`'s position in `by_score` at `positions[i]`, or
    /// [`NO_ROW`]; used when [`vaq_types::ids::dense_span`] admits the
    /// table's id span.
    Dense { first: ClipId, positions: Vec<u32> },
    /// The rows sorted by clip id, for binary search.
    Sorted(Vec<ScoreRow>),
}

impl ClipIndex {
    /// The index over `by_score`, and the first clip found with two rows
    /// (the index then answers for one of them). The form follows from the
    /// rows' count and id span alone; only the sorted form copies the rows.
    fn new(by_score: &[ScoreRow]) -> (Self, Option<ClipId>) {
        let span = by_score.iter().map(|r| r.clip).fold(None, |span, clip| {
            let (lo, hi) = span.unwrap_or((clip, clip));
            Some((lo.min(clip), hi.max(clip)))
        });
        let dense = span.and_then(|(first, last)| {
            let span = vaq_types::ids::dense_span(first, last, by_score.len())?;
            u32::try_from(by_score.len())
                .is_ok_and(|n| n < NO_ROW)
                .then_some((first, span))
        });
        let Some((first, span)) = dense else {
            let mut by_clip = by_score.to_vec();
            by_clip.sort_by_key(|r| r.clip);
            let twice = by_clip.windows(2).find(|w| w[0].clip == w[1].clip);
            let duplicate = twice.map(|w| w[0].clip);
            return (ClipIndex::Sorted(by_clip), duplicate);
        };
        let mut positions = vec![NO_ROW; span];
        let mut duplicate = None;
        for (position, row) in (0..).zip(by_score) {
            // Every row's clip lies in `first..=last`.
            let offset = conv::index(row.clip.raw() - first.raw());
            if let Some(slot) = offset.and_then(|i| positions.get_mut(i)) {
                if *slot != NO_ROW {
                    duplicate = duplicate.or(Some(row.clip));
                }
                *slot = position;
            }
        }
        (ClipIndex::Dense { first, positions }, duplicate)
    }
}

impl Rows {
    /// `clip`'s score, if it has a row.
    fn score_of(&self, clip: ClipId) -> Option<f64> {
        let row = match &self.by_clip {
            ClipIndex::Dense { first, positions } => {
                let offset = conv::index(clip.raw().checked_sub(first.raw())?)?;
                // `NO_ROW` is past the last row.
                self.by_score.get(conv::usize_of(*positions.get(offset)?))
            }
            ClipIndex::Sorted(rows) => {
                let i = rows.binary_search_by_key(&clip, |r| r.clip).ok()?;
                rows.get(i)
            }
        };
        row.map(|r| r.score)
    }
}

/// The first clip with two rows in `by_score`, if any.
pub(crate) fn duplicate_clip(by_score: &[ScoreRow]) -> Option<ClipId> {
    ClipIndex::new(by_score).1
}

impl MemTable {
    /// Builds a table from unordered rows.
    ///
    /// # Panics
    /// Panics on duplicate clip ids or non-finite scores — both are
    /// ingestion bugs, not runtime conditions.
    pub fn new(mut rows: Vec<ScoreRow>, cost: CostModel) -> Self {
        assert!(
            rows.iter().all(|r| r.score.is_finite()),
            "scores must be finite"
        );
        rows.sort_by(score_order);
        let (by_clip, duplicate) = ClipIndex::new(&rows);
        let clip = duplicate.map_or(0, ClipId::raw);
        assert!(duplicate.is_none(), "duplicate clip {clip}");
        Self::with_index(rows, by_clip, cost)
    }

    /// Builds a table from finite rows already in [`score_order`], or
    /// returns the first clip found with two rows.
    pub(crate) fn from_score_ordered(
        by_score: Vec<ScoreRow>,
        cost: CostModel,
    ) -> Result<Self, ClipId> {
        match ClipIndex::new(&by_score) {
            (by_clip, None) => Ok(Self::with_index(by_score, by_clip, cost)),
            (_, Some(clip)) => Err(clip),
        }
    }

    fn with_index(by_score: Vec<ScoreRow>, by_clip: ClipIndex, cost: CostModel) -> Self {
        Self {
            rows: Arc::new(Rows { by_score, by_clip }),
            counters: AccessCounters::default(),
            cost,
        }
    }

    /// A new handle on the same rows and clip index, with its own zeroed
    /// counters: no row is copied and no index rebuilt.
    pub fn share(&self) -> Self {
        Self {
            rows: Arc::clone(&self.rows),
            counters: AccessCounters::default(),
            cost: self.cost,
        }
    }

    /// Iterates rows in descending score order *without* accounting — for
    /// ingestion-time serialization only, not for query processing.
    pub fn rows_unaccounted(&self) -> &[ScoreRow] {
        &self.rows.by_score
    }
}

impl ClipScoreTable for MemTable {
    fn len(&self) -> usize {
        self.rows.by_score.len()
    }

    fn sorted_access(&self, row: usize) -> Option<ScoreRow> {
        let r = self.rows.by_score.get(row).copied();
        if r.is_some() {
            self.counters.count_sequential();
        }
        r
    }

    fn reverse_access(&self, row: usize) -> Option<ScoreRow> {
        let by_score = &self.rows.by_score;
        if row >= by_score.len() {
            return None;
        }
        self.counters.count_reverse();
        Some(by_score[by_score.len() - 1 - row])
    }

    fn random_access(&self, clip: ClipId) -> Option<f64> {
        self.counters.count_random();
        self.rows.score_of(clip)
    }

    fn stats(&self) -> AccessStats {
        self.counters.snapshot(&self.cost)
    }

    fn reset_stats(&self) {
        self.counters.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(clip: u64, score: f64) -> ScoreRow {
        ScoreRow {
            clip: ClipId::new(clip),
            score,
        }
    }

    fn table() -> MemTable {
        MemTable::new(
            vec![row(0, 0.5), row(1, 0.9), row(2, 0.1), row(3, 0.7)],
            CostModel::FREE,
        )
    }

    #[test]
    fn sorted_access_descends() {
        let t = table();
        let scores: Vec<f64> = (0..t.len())
            .map(|i| t.sorted_access(i).unwrap().score)
            .collect();
        assert_eq!(scores, vec![0.9, 0.7, 0.5, 0.1]);
        assert!(t.sorted_access(4).is_none());
    }

    #[test]
    fn reverse_access_ascends() {
        let t = table();
        assert_eq!(t.reverse_access(0).unwrap().score, 0.1);
        assert_eq!(t.reverse_access(3).unwrap().score, 0.9);
        assert!(t.reverse_access(4).is_none());
    }

    #[test]
    fn random_access_by_clip() {
        let t = table();
        assert_eq!(t.random_access(ClipId::new(3)), Some(0.7));
        assert_eq!(t.random_access(ClipId::new(9)), None);
    }

    fn is_dense(t: &MemTable) -> bool {
        matches!(t.rows.by_clip, ClipIndex::Dense { .. })
    }

    /// Random access against a linear scan of the rows, for every clip in
    /// `lo..=hi` and both ends of the id range; each lookup, hit or miss,
    /// counts one random access.
    fn check_lookups(t: &MemTable, rows: &[ScoreRow], lo: u64, hi: u64) {
        t.reset_stats();
        let probes: Vec<u64> = (lo..=hi).chain([0, 1, u64::MAX - 1, u64::MAX]).collect();
        for &c in &probes {
            let want = rows.iter().find(|r| r.clip.raw() == c).map(|r| r.score);
            assert_eq!(t.random_access(ClipId::new(c)), want, "clip {c}");
        }
        assert_eq!(t.stats().random, conv::len_u64(probes.len()));
        assert_eq!(t.stats().sorted + t.stats().reverse, 0);
    }

    #[test]
    fn dense_index_answers_like_a_scan() {
        // Ids 10..=21 with gaps: 7 rows over a 12-clip span.
        let rows: Vec<ScoreRow> = [10, 11, 13, 14, 17, 20, 21]
            .iter()
            .map(|&c| row(c, c as f64 * 0.5))
            .collect();
        let t = MemTable::new(rows.clone(), CostModel::FREE);
        assert!(is_dense(&t));
        check_lookups(&t, &rows, 5, 26);
        // One row: a one-slot index.
        let one = vec![row(7, 0.25)];
        let t = MemTable::new(one.clone(), CostModel::FREE);
        assert!(is_dense(&t));
        check_lookups(&t, &one, 0, 9);
    }

    #[test]
    fn dense_index_near_the_top_of_the_id_range() {
        let top = u64::MAX;
        let rows = vec![row(top, 1.0), row(top - 2, 2.0), row(top - 3, 3.0)];
        let t = MemTable::new(rows.clone(), CostModel::FREE);
        assert!(is_dense(&t));
        check_lookups(&t, &rows, top - 8, top);
    }

    #[test]
    fn sparse_ids_keep_the_binary_search() {
        let rows: Vec<ScoreRow> = (0..6).map(|i| row(i * 997, 1.0 + i as f64)).collect();
        let t = MemTable::new(rows.clone(), CostModel::FREE);
        assert!(!is_dense(&t));
        check_lookups(&t, &rows, 0, 6 * 997);
        // Ids at both ends of the range: the span does not fit any index.
        let ends = vec![row(0, 1.0), row(u64::MAX, 2.0)];
        let t = MemTable::new(ends.clone(), CostModel::FREE);
        assert!(!is_dense(&t));
        check_lookups(&t, &ends, 0, 3);
    }

    #[test]
    fn empty_table_misses_every_clip_and_counts_it() {
        let t = MemTable::new(Vec::new(), CostModel::FREE);
        check_lookups(&t, &[], 0, 3);
    }

    #[test]
    fn shared_handles_read_the_same_index() {
        let rows: Vec<ScoreRow> = (3..9).map(|c| row(c, c as f64)).collect();
        let t = MemTable::new(rows.clone(), CostModel::FREE);
        let shared = t.share();
        assert!(Arc::ptr_eq(&t.rows, &shared.rows));
        check_lookups(&shared, &rows, 0, 12);
        assert_eq!(t.stats().total(), 0, "the original handle counted nothing");
    }

    #[test]
    fn ties_break_by_clip_id() {
        let t = MemTable::new(vec![row(5, 0.5), row(2, 0.5)], CostModel::FREE);
        assert_eq!(t.sorted_access(0).unwrap().clip, ClipId::new(2));
        assert_eq!(t.sorted_access(1).unwrap().clip, ClipId::new(5));
    }

    #[test]
    fn accounting_counts_every_access() {
        let t = MemTable::new(
            vec![row(0, 0.5), row(1, 0.9)],
            CostModel {
                sequential_us: 10.0,
                random_us: 100.0,
            },
        );
        t.sorted_access(0);
        t.sorted_access(1);
        t.reverse_access(0);
        t.random_access(ClipId::new(0));
        t.random_access(ClipId::new(42)); // misses still cost a seek
        let s = t.stats();
        assert_eq!(s.sorted, 2);
        assert_eq!(s.reverse, 1);
        assert_eq!(s.random, 2);
        assert_eq!(s.total(), 5);
        assert_eq!(s.simulated_ns, (3 * 10_000 + 2 * 100_000) as u64);
        t.reset_stats();
        assert_eq!(t.stats().total(), 0);
    }

    #[test]
    fn out_of_range_sorted_access_is_free() {
        let t = table();
        t.sorted_access(99);
        assert_eq!(t.stats().sorted, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate clip")]
    fn duplicate_clips_panic() {
        let _ = MemTable::new(vec![row(1, 0.2), row(1, 0.3)], CostModel::FREE);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_scores_panic() {
        let _ = MemTable::new(vec![row(1, f64::NAN)], CostModel::FREE);
    }

    #[test]
    fn merge_stats() {
        let a = AccessStats {
            sorted: 1,
            reverse: 2,
            random: 3,
            elided: 4,
            simulated_ns: 10,
        };
        let b = AccessStats {
            sorted: 10,
            reverse: 20,
            random: 30,
            elided: 40,
            simulated_ns: 100,
        };
        let m = a.merge(&b);
        assert_eq!(m.total(), 66, "elided lookups never count as performed");
        assert_eq!(m.elided, 44);
        assert_eq!(m.simulated_ns, 110);
    }

    #[test]
    fn table_key_display() {
        assert_eq!(
            TableKey::Object(ObjectType::new(2)).to_string(),
            "table_obj#2"
        );
        assert_eq!(
            TableKey::Action(ActionType::new(1)).to_string(),
            "table_act#1"
        );
    }
}
