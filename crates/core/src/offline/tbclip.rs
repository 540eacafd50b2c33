//! The TBClip top/bottom iterator — paper Algorithm 5.
//!
//! Each invocation delivers the next *top* clip (highest `S_q(c)` among
//! candidates not yet processed) and the next *bottom* clip (lowest score),
//! by:
//!
//! 1. sorted access in parallel over all queried tables from a shared row
//!    stamp until at least one *new* clip has been seen in **all** tables
//!    (Fagin-style completeness guarantee for monotone `g`);
//! 2. random accesses to complete the scores of newly seen clips (skipped
//!    clips are never scored — "imposing no random access overhead");
//! 3. sorted access from the bottom via reverse access, mirroring step 1;
//! 4. random accesses for the clips newly seen there, mirroring step 2.
//!
//! The paper's `C_skip` starts as `C(X) \ C(P_q)`, so TBClip only ever
//! scores and delivers clips of the candidate sequences `P_q`. The caller
//! supplies a skip predicate over `P_q`'s sequences for the rest of
//! `C_skip`: it grows as RVAQ decides sequences conclusively in or out.
//!
//! **Layout (DESIGN.md §5, item 5).** Per-clip state is addressed by the
//! clip's offset in the candidate index, `CandidateIndex`: the offsets
//! run `0..pq.total_clips()`, the candidate intervals laid end to end.
//! Every per-clip fact (revealed per-table scores, per-side seen counts,
//! the cached `S_q(c)`, the clip's sequence, the processed and elided
//! flags) lives in vectors of that length, allocated when the iterator
//! starts, as are both sides' buffers; the scans allocate nothing after
//! that, and nothing is sized from the tables' rows or the ids'
//! magnitudes. A revealed row costs one lookup in the
//! candidate index. A row of a clip outside `P_q` is an access its table
//! has already counted, and TBClip keeps nothing of it. Each random access
//! a completion makes into an ingested table is one read of its clip
//! index, and each ask of the skip predicate reads the sequence index the
//! clip's state recorded. Each side's scored candidates wait in a binary
//! heap ordered by score (ties to the lowest clip id), so a delivery costs
//! O(log n). Skipped candidates leave a heap lazily, when they reach its
//! top: `C_skip` only grows, so a candidate skipped once would be skipped
//! at every later delivery too and can never be the one chosen.

use crate::offline::candidates::CandidateIndex;
use crate::offline::scoring::ScoringModel;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vaq_storage::{AccessStats, ClipScoreTable, ScoreRow};
use vaq_types::{conv, ClipId, SequenceSet};

#[cfg(test)]
mod reference;

/// Tables a query can complete a clip score over on the stack; wider
/// queries spill the score buffer to the heap.
const INLINE_TABLES: usize = 8;

/// The clip score tables a query touches: the action's plus one per object
/// predicate (query order).
pub struct QueryTables<'t> {
    /// `table_a`.
    pub action: &'t dyn ClipScoreTable,
    /// `table_{o_1}` … `table_{o_I}`.
    pub objects: Vec<&'t dyn ClipScoreTable>,
}

impl<'t> QueryTables<'t> {
    /// Number of tables (`I + 1`).
    pub(crate) fn num_tables(&self) -> usize {
        1 + self.objects.len()
    }

    /// Longest table length (bounds the shared row stamp).
    pub(crate) fn max_len(&self) -> usize {
        self.objects
            .iter()
            .map(|t| t.len())
            .chain(std::iter::once(self.action.len()))
            .max()
            .unwrap_or(0)
    }

    /// Table by index: 0 is the action table, then objects in order.
    fn table(&self, i: usize) -> &'t dyn ClipScoreTable {
        if i == 0 {
            self.action
        } else {
            self.objects[i - 1]
        }
    }

    /// `S_q(c)` via one random access per table; absent rows contribute 0.
    pub fn clip_score(&self, clip: ClipId, scoring: &dyn ScoringModel) -> f64 {
        self.complete_score(clip, &[], scoring)
    }

    /// The one score-completion kernel: `S_q(clip)` from `revealed[i]` for
    /// every table `i` a scan has already shown the clip in (entries past
    /// the slice's end count as unrevealed), and one random access, in
    /// table order, into every other table. Absent rows contribute 0.
    fn complete_score(
        &self,
        clip: ClipId,
        revealed: &[Option<f64>],
        scoring: &dyn ScoringModel,
    ) -> f64 {
        let n = self.num_tables();
        let mut inline = [0.0; INLINE_TABLES];
        let mut spill = Vec::new();
        let scores = if n <= INLINE_TABLES {
            &mut inline[..n]
        } else {
            spill.resize(n, 0.0);
            &mut spill[..]
        };
        for (ti, s) in scores.iter_mut().enumerate() {
            *s = match revealed.get(ti).copied().flatten() {
                Some(v) => v,
                None => self.table(ti).random_access(clip).unwrap_or(0.0),
            };
        }
        scoring.g(scores[0], &scores[1..])
    }

    /// Merged access statistics over all tables.
    pub fn stats(&self) -> AccessStats {
        let mut s = self.action.stats();
        for t in &self.objects {
            s = s.merge(&t.stats());
        }
        s
    }

    /// Resets all tables' counters.
    pub fn reset_stats(&self) {
        self.action.reset_stats();
        for t in &self.objects {
            t.reset_stats();
        }
    }
}

/// One iterator step: the next top and bottom clips (either side may be
/// exhausted independently).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TbStep {
    /// Highest-scoring unprocessed candidate.
    pub(crate) top: Option<Delivery>,
    /// Lowest-scoring unprocessed candidate.
    pub(crate) btm: Option<Delivery>,
}

/// A candidate clip one side delivers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Delivery {
    /// The clip with its exact `S_q(c)`.
    pub(crate) row: ScoreRow,
    /// Index of the clip's sequence in `P_q`.
    pub(crate) sequence: usize,
    /// Whether no side had delivered the clip before (a clip can arrive
    /// from both frontiers).
    pub(crate) first: bool,
}

/// Side index of the top (sorted-access) scan.
const TOP: usize = 0;
/// Side index of the bottom (reverse-access) scan.
const BTM: usize = 1;

/// Everything known about one candidate clip.
#[derive(Debug, Clone, Copy, Default)]
struct ClipState {
    /// The clip, once a scan has revealed it or its score was asked for.
    clip: ClipId,
    /// Index of the clip's sequence in `P_q`, once a scan has revealed it.
    sequence: usize,
    /// Exact `S_q(c)` once `scored` is set (shared across sides).
    score: f64,
    /// Rows of this clip each side's scan has revealed.
    seen: [usize; 2],
    /// Whether `score` holds the completed score.
    scored: bool,
    /// Whether each side has delivered this clip.
    processed: [bool; 2],
    /// Whether the elision counter has billed this clip (once per clip,
    /// even when both sides skip it).
    elided: bool,
}

/// A scored candidate awaiting delivery on one side (its score is the
/// clip state's). The heap's maximum is the side's best candidate: `key`
/// is the score on the top side and its negation on the bottom side, with
/// `-0.0` folded into `+0.0` so that the two zeros tie, and ties go to the
/// lowest clip id.
#[derive(Debug, Clone, Copy)]
struct Pending {
    key: f64,
    clip: ClipId,
    offset: usize,
}

impl Pending {
    fn new(side: usize, score: f64, clip: ClipId, offset: usize) -> Self {
        let signed = if side == TOP { score } else { -score };
        Self {
            key: signed + 0.0,
            clip,
            offset,
        }
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .total_cmp(&other.key)
            .then_with(|| other.clip.cmp(&self.clip))
    }
}

/// One scan direction's progress.
struct Side {
    /// Next row to read from every table.
    stamp: usize,
    /// Fresh common clips seen in all tables but not yet delivered.
    fresh_common: usize,
    /// Offsets seen (in any table) by this side but not yet scored.
    unscored: Vec<usize>,
    /// Scored candidates awaiting delivery.
    pending: BinaryHeap<Pending>,
}

impl Side {
    /// A side that has read nothing, with room for `clips` candidates.
    fn new(clips: usize) -> Self {
        Self {
            stamp: 0,
            fresh_common: 0,
            unscored: Vec::with_capacity(clips),
            pending: BinaryHeap::with_capacity(clips),
        }
    }
}

/// Iterator state (see module docs).
pub(crate) struct TbClip<'t, 'q> {
    tables: &'q QueryTables<'t>,
    scoring: &'q dyn ScoringModel,
    index: CandidateIndex,
    num_tables: usize,
    max_len: usize,
    /// Per-clip state, by candidate offset.
    clips: Vec<ClipState>,
    /// `num_tables` scores per candidate offset: the row score a
    /// sorted/reverse access revealed for that table, if any (the top-k
    /// access model yields `(cid, score)` pairs, so completing a clip's
    /// score only needs random accesses into the tables that have *not*
    /// shown it yet).
    revealed: Vec<Option<f64>>,
    sides: [Side; 2],
    /// Random lookups avoided by the skip predicate (see [`Self::elided`]).
    elided: u64,
}

impl<'t, 'q> TbClip<'t, 'q> {
    /// Creates the iterator over the query's tables and candidates `pq`.
    pub(crate) fn new(
        tables: &'q QueryTables<'t>,
        pq: &SequenceSet,
        scoring: &'q dyn ScoringModel,
    ) -> Self {
        let clips = conv::capacity_hint(pq.total_clips());
        let num_tables = tables.num_tables();
        Self {
            tables,
            scoring,
            index: CandidateIndex::new(pq),
            num_tables,
            max_len: tables.max_len(),
            clips: vec![ClipState::default(); clips],
            revealed: vec![None; clips.saturating_mul(num_tables)],
            sides: [Side::new(clips), Side::new(clips)],
            elided: 0,
        }
    }

    /// Random row lookups avoided because the skip predicate excused a seen
    /// candidate clip from score completion: the lookups that
    /// [`Self::clip_score_cached`] would have issued at the moment the clip
    /// was first skipped. If a skipped clip's exact score is requested later
    /// anyway, whatever its remaining tables still have not revealed is
    /// re-paid (and then counted in [`AccessStats::random`] as usual).
    /// Clips outside `P_q` are never scored and bill nothing.
    pub(crate) fn elided(&self) -> u64 {
        self.elided
    }

    /// The exact score of `clip`, from cache if available, otherwise by
    /// completing the per-table scores: tables that already revealed the
    /// clip through sorted/reverse access contribute their cached row
    /// score; only the remaining tables cost a random access each (used by
    /// both delivery scoring and RVAQ's exact-score finalization). A clip
    /// outside `P_q` has no state to cache its score in.
    pub(crate) fn clip_score_cached(&mut self, clip: ClipId) -> f64 {
        match self.index.get(clip) {
            Some((_, offset)) => {
                self.clips[offset].clip = clip;
                self.score_at(offset)
            }
            None => self.tables.clip_score(clip, self.scoring),
        }
    }

    fn revealed(&self, offset: usize) -> &[Option<f64>] {
        &self.revealed[offset * self.num_tables..(offset + 1) * self.num_tables]
    }

    fn score_at(&mut self, offset: usize) -> f64 {
        let st = self.clips[offset];
        if st.scored {
            return st.score;
        }
        let s = self
            .tables
            .complete_score(st.clip, self.revealed(offset), self.scoring);
        let st = &mut self.clips[offset];
        (st.score, st.scored) = (s, true);
        s
    }

    /// Advances both sides and returns the next top/bottom clips.
    /// `skip(i)` says whether `C_skip` holds `P_q`'s sequence `i`; its
    /// clips are neither scored nor returned. `C_skip` may only grow from
    /// one call to the next: a sequence once skipped must stay skipped.
    pub(crate) fn next(&mut self, skip: &dyn Fn(usize) -> bool) -> TbStep {
        let top = self.advance_side(skip, TOP);
        let btm = self.advance_side(skip, BTM);
        TbStep { top, btm }
    }

    fn advance_side(&mut self, skip: &dyn Fn(usize) -> bool, side: usize) -> Option<Delivery> {
        let num_tables = self.num_tables;

        // Step 1: sorted (or reverse) access in parallel until a fresh
        // common clip appears or the tables are exhausted.
        let sd = &mut self.sides[side];
        while sd.fresh_common == 0 && sd.stamp < self.max_len {
            let row_idx = sd.stamp;
            sd.stamp += 1;
            for ti in 0..num_tables {
                let table = self.tables.table(ti);
                let row = if side == TOP {
                    table.sorted_access(row_idx)
                } else {
                    table.reverse_access(row_idx)
                };
                // A clip outside `P_q` is in `C_skip` from the start.
                let Some((row, (sequence, offset))) =
                    row.and_then(|row| Some((row, self.index.get(row.clip)?)))
                else {
                    continue;
                };
                self.revealed[offset * num_tables + ti] = Some(row.score);
                let st = &mut self.clips[offset];
                (st.clip, st.sequence) = (row.clip, sequence);
                if st.seen[side] == 0 {
                    sd.unscored.push(offset);
                }
                st.seen[side] += 1;
                if st.seen[side] == num_tables && !st.processed[side] && !skip(sequence) {
                    sd.fresh_common += 1;
                }
            }
        }

        // Step 2: random accesses for every seen-but-unscored clip.
        let mut unscored = std::mem::take(&mut self.sides[side].unscored);
        for &offset in &unscored {
            let st = self.clips[offset];
            if skip(st.sequence) {
                // Never scored: no random-access overhead. Account the
                // lookups completion would have cost right now (once per
                // clip even when both sides skip it).
                if !st.elided {
                    self.clips[offset].elided = true;
                    let avoided = self.revealed(offset).iter().filter(|s| s.is_none()).count();
                    self.elided += conv::len_u64(avoided);
                }
                continue;
            }
            let score = self.score_at(offset);
            if !st.processed[side] {
                self.sides[side]
                    .pending
                    .push(Pending::new(side, score, st.clip, offset));
            }
        }
        unscored.clear();
        self.sides[side].unscored = unscored;

        // Deliver the best pending candidate, dropping skipped ones as they
        // surface.
        let sd = &mut self.sides[side];
        let best = loop {
            let cand = sd.pending.pop()?;
            if !skip(self.clips[cand.offset].sequence) {
                break cand;
            }
        };
        sd.fresh_common = sd.fresh_common.saturating_sub(1);
        let st = &mut self.clips[best.offset];
        st.processed[side] = true;
        Some(Delivery {
            row: ScoreRow {
                clip: st.clip,
                score: st.score,
            },
            sequence: st.sequence,
            first: !st.processed[1 - side],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::scoring::PaperScoring;
    use vaq_storage::{CostModel, MemTable};
    use vaq_types::ClipInterval;

    fn table(rows: &[(u64, f64)]) -> MemTable {
        MemTable::new(
            rows.iter()
                .map(|&(c, s)| ScoreRow {
                    clip: ClipId::new(c),
                    score: s,
                })
                .collect(),
            CostModel::FREE,
        )
    }

    fn set(ivs: &[(u64, u64)]) -> SequenceSet {
        SequenceSet::from_intervals(ivs.iter().map(|&(s, e)| ClipInterval::new(s, e)).collect())
    }

    /// Two tables over clips 0..5; g = action * sum(objects).
    fn setup() -> (MemTable, MemTable) {
        let action = table(&[(0, 1.0), (1, 5.0), (2, 3.0), (3, 2.0), (4, 4.0)]);
        let object = table(&[(0, 2.0), (1, 1.0), (2, 2.0), (3, 3.0), (4, 1.0)]);
        (action, object)
    }

    /// Every clip of [`setup`] as one candidate sequence.
    fn all_clips() -> SequenceSet {
        set(&[(0, 4)])
    }

    const NO_SKIP: &dyn Fn(usize) -> bool = &|_| false;

    // g-scores: c0=2, c1=5, c2=6, c3=6, c4=4.

    #[test]
    fn tops_descend_bottoms_ascend() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &all_clips(), &scoring);
        let mut tops = Vec::new();
        let mut btms = Vec::new();
        loop {
            let step = tb.next(NO_SKIP);
            if step.top.is_none() && step.btm.is_none() {
                break;
            }
            if let Some(t) = step.top {
                tops.push(t.row.score);
            }
            if let Some(b) = step.btm {
                btms.push(b.row.score);
            }
        }
        assert_eq!(tops.len(), 5);
        assert_eq!(btms.len(), 5);
        assert!(tops.windows(2).all(|w| w[0] >= w[1]), "tops {tops:?}");
        assert!(btms.windows(2).all(|w| w[0] <= w[1]), "btms {btms:?}");
        assert_eq!(tops[0], 6.0);
        assert_eq!(btms[0], 2.0);
    }

    #[test]
    fn each_side_processes_each_clip_once() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &all_clips(), &scoring);
        let mut top_clips = Vec::new();
        let mut firsts = 0;
        for _ in 0..10 {
            let step = tb.next(NO_SKIP);
            for d in [step.top, step.btm].into_iter().flatten() {
                firsts += usize::from(d.first);
            }
            if let Some(t) = step.top {
                top_clips.push(t.row.clip);
            }
        }
        let mut dedup = top_clips.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), top_clips.len(), "duplicates in {top_clips:?}");
        assert_eq!(top_clips.len(), 5);
        assert_eq!(firsts, 5, "each clip's first delivery is marked once");
    }

    #[test]
    fn clips_outside_pq_are_never_scored_or_returned() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let scoring = PaperScoring;
        // Clips 2 and 3 (the two best) lie outside P_q.
        let pq = set(&[(0, 1), (4, 4)]);
        let mut tb = TbClip::new(&tables, &pq, &scoring);
        let step = tb.next(NO_SKIP);
        let top = step.top.unwrap();
        assert_eq!(
            (top.row.score, top.sequence),
            (5.0, 0),
            "c1 is the best candidate"
        );
        let mut clips_seen = vec![top.row.clip];
        loop {
            let step = tb.next(NO_SKIP);
            match step.top {
                Some(t) => clips_seen.push(t.row.clip),
                None => break,
            }
        }
        assert!(clips_seen.iter().all(|c| pq.contains(*c)), "{clips_seen:?}");
        assert_eq!(clips_seen.len(), 3);
        // Only the three candidates were completed, one lookup at most into
        // each table apiece, and the rows of the others bill no elision.
        assert!(tables.stats().random <= 6);
        assert_eq!(tb.elided(), 0, "clips outside P_q are not elisions");
        assert_eq!(tb.clips.len(), 3, "state for the candidates only");
    }

    #[test]
    fn skipped_sequences_are_never_scored_or_returned() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let scoring = PaperScoring;
        let pq = set(&[(0, 1), (3, 4)]);
        // Skip sequence 1, clips 3 and 4.
        let skip = |i: usize| i == 1;
        let mut clips_seen = Vec::new();
        let mut tb = TbClip::new(&tables, &pq, &scoring);
        while let Some(t) = tb.next(&skip).top {
            assert_eq!(t.sequence, 0);
            clips_seen.push(t.row.clip.raw());
        }
        assert_eq!(clips_seen, [1, 0]);
        // Only clips 0 and 1 were completed.
        assert!(tables.stats().random <= 4);
    }

    #[test]
    fn elided_lookups_are_billed_once_per_partially_revealed_clip() {
        // Anti-correlated table orders: clip 0 tops the action table but
        // bottoms the object table, so when the top scan first sees it only
        // one of its two tables has revealed it. Skipping its sequence then
        // avoids exactly one random lookup.
        let action = table(&[(0, 5.0), (1, 4.0), (2, 3.0), (3, 2.0), (4, 1.0)]);
        let object = table(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]);
        let tables = QueryTables {
            action: &action,
            objects: vec![&object],
        };
        let scoring = PaperScoring;
        let pq = set(&[(0, 0), (2, 4)]);
        let mut tb = TbClip::new(&tables, &pq, &scoring);
        let skip = |i: usize| i == 0;
        let step = tb.next(&skip);
        assert!(step.top.is_some());
        assert_eq!(tb.elided(), 1, "one unrevealed table avoided for clip 0");
        // Draining the iterator never re-bills the same clip, and clip 1,
        // outside P_q, bills nothing.
        while tb.next(&skip).top.is_some() {}
        assert_eq!(tb.elided(), 1);
    }

    #[test]
    fn missing_rows_contribute_zero() {
        let action = table(&[(0, 1.0), (1, 2.0)]);
        let object = table(&[(1, 3.0)]); // clip 0 missing
        let tables = QueryTables {
            action: &action,
            objects: vec![&object],
        };
        let scoring = PaperScoring;
        assert_eq!(tables.clip_score(ClipId::new(0), &scoring), 0.0);
        assert_eq!(tables.clip_score(ClipId::new(1), &scoring), 6.0);
    }

    #[test]
    fn random_access_counts_are_bounded_by_union() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        tables.reset_stats();
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &all_clips(), &scoring);
        let _ = tb.next(NO_SKIP);
        let stats = tables.stats();
        // At most 5 clips × 2 tables random accesses in total, ever.
        assert!(stats.random <= 10, "random={}", stats.random);
        assert!(stats.sorted >= 2, "sorted accesses happened");
    }

    #[test]
    fn score_cache_avoids_duplicate_random_accesses() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        tables.reset_stats();
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &all_clips(), &scoring);
        while tb.next(NO_SKIP).top.is_some() {}
        let after_drain = tables.stats().random;
        // Finalization reads must hit the cache.
        let _ = tb.clip_score_cached(ClipId::new(2));
        assert_eq!(tables.stats().random, after_drain);
    }

    #[test]
    fn exhausted_iterator_returns_none() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &all_clips(), &scoring);
        for _ in 0..5 {
            assert!(tb.next(NO_SKIP).top.is_some());
        }
        let step = tb.next(NO_SKIP);
        assert_eq!(step.top, None);
        assert_eq!(step.btm, None);
    }

    #[test]
    fn far_apart_candidates_keep_their_offsets() {
        // g = action × 1 over clips {0, 1, last}; near ids give the
        // candidate index's array, far ones its binary search.
        let rows = |last| table(&[(0, 1.0), (1, 5.0), (last, 3.0)]);
        let ones = |last| table(&[(0, 1.0), (1, 1.0), (last, 1.0)]);
        let scoring = PaperScoring;
        for last in [2, 1 << 40] {
            let (t, o) = (rows(last), ones(last));
            let tables = QueryTables {
                action: &t,
                objects: vec![&o],
            };
            let pq = set(&[(0, 1), (last, last)]);
            let mut tb = TbClip::new(&tables, &pq, &scoring);
            let mut tops = Vec::new();
            while let Some(top) = tb.next(NO_SKIP).top {
                tops.push((top.row.clip.raw(), top.row.score));
            }
            assert_eq!(tops, [(1, 5.0), (last, 3.0), (0, 1.0)]);
            // Every candidate's state is found again by its offset.
            let random = tables.stats().random;
            for (clip, score) in tops {
                assert_eq!(tb.clip_score_cached(ClipId::new(clip)), score);
            }
            assert_eq!(tables.stats().random, random);
            assert_eq!(tb.clips.len(), 3);
        }
    }

    mod differential {
        //! The offset/heap iterator against the ordered-map reference.
        use super::super::reference;
        use super::*;
        use crate::offline::scoring::MaxScoring;
        use std::collections::BTreeSet;
        use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
        use vaq_types::rng::{for_cases, SeededRng};

        /// Clip ids: contiguous from 0, sparse with wide strides,
        /// clustered at the top of the `u64` range, or contiguous from 0
        /// plus one to three outliers far beyond what a dense
        /// [`CandidateIndex`] spans, so that all but the first mode look
        /// candidates up by binary search.
        fn clip_ids(rng: &mut SeededRng, n: u64, mode: u8) -> Vec<ClipId> {
            let outliers = if mode == 3 {
                (n - 1).min(rng.gen_range(1..4u64))
            } else {
                0
            };
            let mut ids = BTreeSet::new();
            while ids.len() < usize::try_from(n - outliers).unwrap() {
                let raw = match mode {
                    1 => rng.gen_range(0..1u64 << 30) * 997,
                    2 => u64::MAX - rng.gen_range(0..1u64 << 20),
                    _ => u64::try_from(ids.len()).unwrap(),
                };
                ids.insert(raw);
            }
            while ids.len() < usize::try_from(n).unwrap() {
                ids.insert((1u64 << 40) + rng.gen_range(0..1u64 << 20));
            }
            ids.into_iter().map(ClipId::new).collect()
        }

        /// One table per entry: each clip present with probability 7/8,
        /// scored from a few tied levels (signed zeros and negatives
        /// included) or a continuous draw, in table orders that are either
        /// independent or anti-correlated table to table.
        fn tables(
            rng: &mut SeededRng,
            ids: &[ClipId],
            num_tables: usize,
            levels: u64,
            anti: bool,
        ) -> Vec<Vec<ScoreRow>> {
            const TIED: [f64; 6] = [0.0, -0.0, 1.0, 2.5, -1.5, 4.0];
            let mut out = vec![Vec::new(); num_tables];
            for (ti, rows) in out.iter_mut().enumerate() {
                for (rank, &clip) in ids.iter().enumerate() {
                    if rng.gen_range(0..8u32) == 0 {
                        continue;
                    }
                    let score = if anti {
                        let s = f64::from(u32::try_from(rank).unwrap()) * 0.25;
                        if ti % 2 == 0 {
                            s
                        } else {
                            -s
                        }
                    } else if levels > 0 {
                        TIED[rng.gen_range(0..levels.min(6) as usize)]
                    } else {
                        f64::from(rng.gen_range(0..10_000u32)) / 128.0
                    };
                    rows.push(ScoreRow { clip, score });
                }
            }
            out
        }

        /// The access rates both sides' tables charge.
        const COST: CostModel = CostModel::DEFAULT;

        fn mem_tables(rows: &[Vec<ScoreRow>]) -> Vec<MemTable> {
            rows.iter()
                .map(|r| MemTable::new(r.clone(), COST))
                .collect()
        }

        /// The reference side's table: [`MemTable`]'s score order, but
        /// random access by a linear scan over the rows, so that a wrong
        /// clip index in [`MemTable`] cannot agree with itself. Its
        /// simulated time charges [`COST`]'s rates.
        struct ScanTable {
            by_score: Vec<ScoreRow>,
            counts: [AtomicU64; 3],
        }

        impl ScanTable {
            fn new(rows: &[ScoreRow]) -> Self {
                let table = MemTable::new(rows.to_vec(), CostModel::FREE);
                Self {
                    by_score: table.rows_unaccounted().to_vec(),
                    counts: Default::default(),
                }
            }

            fn count(&self, i: usize) {
                self.counts[i].fetch_add(1, AtomicOrdering::Relaxed);
            }
        }

        impl ClipScoreTable for ScanTable {
            fn len(&self) -> usize {
                self.by_score.len()
            }

            fn sorted_access(&self, row: usize) -> Option<ScoreRow> {
                let r = self.by_score.get(row).copied();
                if r.is_some() {
                    self.count(0);
                }
                r
            }

            fn reverse_access(&self, row: usize) -> Option<ScoreRow> {
                let r = self.by_score.iter().rev().nth(row).copied();
                if r.is_some() {
                    self.count(1);
                }
                r
            }

            fn random_access(&self, clip: ClipId) -> Option<f64> {
                self.count(2);
                self.by_score
                    .iter()
                    .find(|r| r.clip == clip)
                    .map(|r| r.score)
            }

            fn stats(&self) -> AccessStats {
                let [sorted, reverse, random] =
                    [0, 1, 2].map(|i| self.counts[i].load(AtomicOrdering::Relaxed));
                AccessStats {
                    sorted,
                    reverse,
                    random,
                    elided: 0,
                    simulated_ns: (sorted + reverse) * (COST.sequential_us * 1e3) as u64
                        + random * (COST.random_us * 1e3) as u64,
                }
            }

            fn reset_stats(&self) {
                for c in &self.counts {
                    c.store(0, AtomicOrdering::Relaxed);
                }
            }
        }

        /// `P_q` over `ids`: each id a candidate with probability 4/5
        /// (consecutive candidates merge into one sequence), plus one clip
        /// no table holds.
        fn candidates(rng: &mut SeededRng, ids: &[ClipId]) -> SequenceSet {
            let last = ids[ids.len() - 1].raw();
            let absent = last.checked_add(2).unwrap_or_else(|| ids[0].raw() - 2);
            let chosen = ids
                .iter()
                .map(|c| c.raw())
                .filter(|_| rng.gen_range(0..5u32) != 0);
            SequenceSet::from_intervals(
                chosen
                    .chain(std::iter::once(absent))
                    .map(|c| ClipInterval::new(c, c))
                    .collect(),
            )
        }

        fn query<T: ClipScoreTable>(tables: &[T]) -> QueryTables<'_> {
            QueryTables {
                action: &tables[0],
                objects: tables[1..]
                    .iter()
                    .map(|t| t as &dyn ClipScoreTable)
                    .collect(),
            }
        }

        fn bits(rows: [Option<ScoreRow>; 2]) -> [Option<(ClipId, u64)>; 2] {
            rows.map(|r| r.map(|r| (r.clip, r.score.to_bits())))
        }

        /// Every [`AccessStats`] field of the run so far, with the
        /// iterator's elisions.
        fn counts(t: &QueryTables<'_>, elided: u64) -> AccessStats {
            AccessStats {
                elided,
                ..t.stats()
            }
        }

        fn run_case(
            seed: u64,
            num_tables: usize,
            n: u64,
            id_mode: u8,
            levels: u64,
            anti: bool,
            max_scoring: bool,
        ) {
            let mut rng = SeededRng::seed_from_u64(seed);
            let ids = clip_ids(&mut rng, n, id_mode);
            let rows = tables(&mut rng, &ids, num_tables, levels, anti);
            let pq = candidates(&mut rng, &ids);
            let old_tables: Vec<ScanTable> = rows.iter().map(|r| ScanTable::new(r)).collect();
            let new_tables = mem_tables(&rows);
            let (old_q, new_q) = (query(&old_tables), query(&new_tables));
            let scoring: &dyn ScoringModel = if max_scoring {
                &MaxScoring
            } else {
                &PaperScoring
            };
            let mut old = reference::TbClip::new(&old_q, &pq, scoring);
            let mut new = TbClip::new(&new_q, &pq, scoring);
            // Beyond the clips outside P_q, C_skip starts as a random
            // subset of its sequences and only grows.
            let mut skipped: BTreeSet<usize> = (0..pq.len())
                .filter(|_| rng.gen_range(0..5u32) == 0)
                .collect();
            let clips: Vec<ClipId> = pq.clips().collect();
            let pick = |rng: &mut SeededRng| clips[rng.gen_range(0..clips.len())];
            let mut delivered = BTreeSet::new();
            let mut idle = 0;
            for step in 0..4 * n + 8 {
                let skip_clip = |c: ClipId| pq.find(c).is_none_or(|i| skipped.contains(&i));
                let (a, b) = (old.next(&skip_clip), new.next(&|i| skipped.contains(&i)));
                let b_rows = [b.top, b.btm].map(|d| d.map(|d| d.row));
                assert_eq!(bits([a.top, a.btm]), bits(b_rows), "step {step}");
                for d in [b.top, b.btm].into_iter().flatten() {
                    assert_eq!(Some(d.sequence), pq.find(d.row.clip), "step {step}");
                    assert_eq!(d.first, delivered.insert(d.row.clip), "step {step}");
                }
                assert_eq!(
                    counts(&old_q, old.elided()),
                    counts(&new_q, new.elided()),
                    "step {step}"
                );
                if rng.gen_range(0..4u32) == 0 {
                    let c = pick(&mut rng);
                    let (sa, sb) = (old.clip_score_cached(c), new.clip_score_cached(c));
                    assert_eq!(sa.to_bits(), sb.to_bits(), "cached score of {c}");
                    assert_eq!(
                        counts(&old_q, old.elided()),
                        counts(&new_q, new.elided()),
                        "step {step}"
                    );
                }
                for _ in 0..rng.gen_range(0..3u32) {
                    skipped.insert(rng.gen_range(0..pq.len()));
                }
                idle = if a.top.is_none() && a.btm.is_none() {
                    idle + 1
                } else {
                    0
                };
                if idle > 2 {
                    break;
                }
            }
            // Finalization reads: every candidate clip, one of which no
            // table holds.
            for &c in &clips {
                let (sa, sb) = (old.clip_score_cached(c), new.clip_score_cached(c));
                assert_eq!(sa.to_bits(), sb.to_bits(), "cached score of {c}");
            }
            assert_eq!(counts(&old_q, old.elided()), counts(&new_q, new.elided()));
        }

        /// Same steps, accesses, elisions and cached scores as the
        /// reference, bit for bit, under a growing skip set; every delivery
        /// names its sequence and whether it is the clip's first.
        #[test]
        fn prop_matches_reference_bitwise() -> Result<(), String> {
            for_cases(
                "prop_matches_reference_bitwise",
                256,
                |r| {
                    let seed = r.next_u64();
                    let num_tables = r.gen_range(1usize..5);
                    let n = r.gen_range(1u64..48);
                    let id_mode = r.gen_range(0u8..4);
                    let levels = r.gen_range(0u64..7);
                    (
                        seed,
                        num_tables,
                        n,
                        id_mode,
                        levels,
                        r.gen_bool(0.5),
                        r.gen_bool(0.5),
                    )
                },
                |&(seed, num_tables, n, id_mode, levels, anti, max_scoring)| {
                    run_case(seed, num_tables, n, id_mode, levels, anti, max_scoring);
                },
            )
        }
    }
}
