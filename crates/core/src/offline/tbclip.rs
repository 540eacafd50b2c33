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
//! The caller supplies a skip predicate realizing the paper's `C_skip`: it
//! starts as "everything outside `P_q`" and grows as RVAQ decides sequences
//! conclusively in or out.
//!
//! **Layout (DESIGN.md §5, item 5).** Every clip a scan reveals is
//! interned into a dense slot on first sight; all per-clip state (revealed
//! per-table scores, per-side seen counts, the cached `S_q(c)`, the
//! processed and elided flags) lives in vectors indexed by slot, so a
//! revealed row costs O(1), and so does each random access a completion
//! makes into an ingested table (one read of its clip index) and each
//! probe of RVAQ's skip predicate (one read of its candidate index). The
//! clip-to-slot index is a plain array read at the clip id modulo its
//! length while the ids interned so far span no more than
//! [`vaq_types::ids::dense_span`] admits over the tables' total rows (the
//! rule `MemTable`'s clip index follows); the first id that would spread
//! them wider moves every slot to a map keyed by a per-iterator random key
//! (splitmix64 over `id ^ key`), so a table file cannot choose which ids
//! collide. Both forms are only ever probed, never iterated, so neither
//! can reach a result. Each row reveals at most one clip, so the state
//! vectors, both sides' buffers and the array are sized from the tables'
//! row counts when the iterator starts, never from id magnitudes, and the
//! scans allocate nothing after that but the one move to the map. Each
//! side's scored candidates wait in a binary heap ordered by score (ties
//! to the lowest clip id), so a delivery costs O(log n). Skipped candidates
//! leave a heap lazily, when they reach its top: `C_skip` only grows, so a
//! candidate skipped once would be skipped at every later delivery too and
//! can never be the one chosen. For the same reason each slot caches a
//! true skip verdict: the caller's predicate is asked again only while it
//! says no.

use crate::offline::scoring::ScoringModel;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasher, Hasher};
use vaq_storage::{AccessStats, ClipScoreTable, ScoreRow};
use vaq_types::rng::mix64;
use vaq_types::{conv, ClipId};

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

    /// Rows over all tables: at least the number of distinct clips they
    /// hold.
    fn total_len(&self) -> usize {
        self.objects
            .iter()
            .fold(self.action.len(), |n, t| n.saturating_add(t.len()))
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
    /// Highest-scoring unprocessed candidate, with its exact `S_q(c)`.
    pub(crate) top: Option<ScoreRow>,
    /// Lowest-scoring unprocessed candidate.
    pub(crate) btm: Option<ScoreRow>,
}

/// Side index of the top (sorted-access) scan.
const TOP: usize = 0;
/// Side index of the bottom (reverse-access) scan.
const BTM: usize = 1;

/// Everything known about one interned clip.
#[derive(Debug, Clone, Copy)]
struct ClipState {
    clip: ClipId,
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
    /// Whether `C_skip` has been seen to hold this clip.
    skipped: bool,
}

impl ClipState {
    fn new(clip: ClipId) -> Self {
        Self {
            clip,
            score: 0.0,
            seen: [0; 2],
            scored: false,
            processed: [false; 2],
            elided: false,
            skipped: false,
        }
    }

    /// Whether `C_skip` holds this clip. `C_skip` only grows, so a true
    /// verdict is kept and `skip` is asked again only while it says no.
    fn skipped(&mut self, skip: &dyn Fn(ClipId) -> bool) -> bool {
        if !self.skipped {
            self.skipped = skip(self.clip);
        }
        self.skipped
    }
}

/// Builds [`ClipHasher`]s under one random key.
#[derive(Clone, Copy)]
struct ClipHash {
    key: u64,
}

impl ClipHash {
    // The key only spreads clip ids over `SlotIndex::Map`, which is probed,
    // never iterated, so no output depends on it.
    #[allow(clippy::disallowed_methods)]
    fn new() -> Self {
        Self {
            key: RandomState::new().hash_one(0u64),
        }
    }
}

impl BuildHasher for ClipHash {
    type Hasher = ClipHasher;

    fn build_hasher(&self) -> ClipHasher {
        ClipHasher {
            key: self.key,
            hash: 0,
        }
    }
}

/// The splitmix64 finalizer over `id ^ key`: a bijection of the keyed id,
/// so distinct clips never collide in the full 64 bits.
struct ClipHasher {
    key: u64,
    hash: u64,
}

impl Hasher for ClipHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(self.hash ^ u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.hash = mix64(id ^ self.key);
    }
}

/// The clip-to-slot index as a plain array: clip `id`'s slot plus one at
/// `tags[id mod tags.len()]`, 0 for a clip not interned. Every interned id
/// lies in `lo..=hi`, a span [`vaq_types::ids::dense_span`] admits over
/// the tables' `rows` and no longer than `tags` (a power of two), so no two
/// interned ids share an entry, and a clip whose id lies in `lo..=hi` is
/// interned exactly when its entry is set.
struct DenseSlots {
    lo: u64,
    hi: u64,
    rows: usize,
    tags: Vec<u32>,
}

impl DenseSlots {
    /// An empty index with room for the widest span `dense_span` admits
    /// over `rows` entries (four slots per entry), or `None` when there are
    /// no rows or too many to tag a slot in a `u32`.
    fn new(rows: usize) -> Option<Self> {
        let len = rows.checked_mul(4)?.checked_next_power_of_two()?;
        let fits = rows > 0 && u32::try_from(len).is_ok_and(|n| n <= u32::MAX / 2);
        fits.then(|| Self {
            lo: u64::MAX,
            hi: 0,
            rows,
            tags: vec![0; len],
        })
    }

    /// `id`'s slot, or `next` once `id` has been placed there; `None` when
    /// the ids would spread wider than the array admits.
    fn slot(&mut self, id: u64, next: usize) -> Option<usize> {
        let at = conv::capacity_hint(id & (conv::len_u64(self.tags.len()) - 1));
        if (self.lo..=self.hi).contains(&id) {
            if let Some(slot) = self.tags[at].checked_sub(1) {
                return Some(conv::usize_of(slot));
            }
        } else {
            let (lo, hi) = (self.lo.min(id), self.hi.max(id));
            let span = vaq_types::ids::dense_span(ClipId::new(lo), ClipId::new(hi), self.rows)?;
            if span > self.tags.len() {
                return None;
            }
            (self.lo, self.hi) = (lo, hi);
        }
        // At most `tags.len()` ids fit the span, so the tag fits a `u32`.
        self.tags[at] = u32::try_from(next + 1).ok()?;
        Some(next)
    }
}

/// Where an interned clip's slot is found: the dense array while the ids
/// interned fit it, otherwise a keyed map (the two forms of `MemTable`'s
/// clip index). Probed only, never iterated.
enum SlotIndex {
    Dense(DenseSlots),
    /// Slot of every interned clip, by raw id.
    Map(HashMap<u64, usize, ClipHash>),
}

impl SlotIndex {
    /// The dense form over `rows` table rows when it fits, else the map
    /// (the only form that draws a hash key).
    fn new(rows: usize) -> Self {
        DenseSlots::new(rows).map_or_else(
            || SlotIndex::Map(HashMap::with_capacity_and_hasher(rows, ClipHash::new())),
            SlotIndex::Dense,
        )
    }
}

/// Dense per-clip state, indexed by slot.
struct Slots {
    num_tables: usize,
    index: SlotIndex,
    clips: Vec<ClipState>,
    /// `num_tables` scores per slot: the row score a sorted/reverse access
    /// revealed for that table, if any (the top-k access model yields
    /// `(cid, score)` pairs, so completing a clip's score only needs random
    /// accesses into the tables that have *not* shown it yet).
    revealed: Vec<Option<f64>>,
}

impl Slots {
    /// Empty state with room for `rows` clips, the most the tables' scans
    /// can reveal.
    fn new(num_tables: usize, rows: usize) -> Self {
        Self {
            num_tables,
            index: SlotIndex::new(rows),
            clips: Vec::with_capacity(rows),
            revealed: Vec::with_capacity(rows.saturating_mul(num_tables)),
        }
    }

    fn intern(&mut self, clip: ClipId) -> usize {
        let next = self.clips.len();
        let found = match &mut self.index {
            SlotIndex::Dense(dense) => dense.slot(clip.raw(), next),
            SlotIndex::Map(map) => Some(*map.entry(clip.raw()).or_insert(next)),
        };
        let slot = found.unwrap_or_else(|| {
            // The ids outgrew the array: move every slot to the map.
            let mut map = HashMap::with_capacity_and_hasher(self.clips.capacity(), ClipHash::new());
            map.extend(
                (0..)
                    .zip(&self.clips)
                    .map(|(slot, st)| (st.clip.raw(), slot)),
            );
            map.insert(clip.raw(), next);
            self.index = SlotIndex::Map(map);
            next
        });
        if slot == next {
            self.clips.push(ClipState::new(clip));
            self.revealed
                .resize(self.revealed.len() + self.num_tables, None);
        }
        slot
    }

    fn revealed(&self, slot: usize) -> &[Option<f64>] {
        &self.revealed[slot * self.num_tables..(slot + 1) * self.num_tables]
    }
}

/// A scored candidate awaiting delivery on one side (its score is the
/// slot's). The heap's maximum is the side's best candidate: `key` is the
/// score on the top side and its negation on the bottom side, with `-0.0`
/// folded into `+0.0` so that the two zeros tie, and ties go to the lowest
/// clip id.
#[derive(Debug, Clone, Copy)]
struct Pending {
    key: f64,
    clip: ClipId,
    slot: usize,
}

impl Pending {
    fn new(side: usize, score: f64, clip: ClipId, slot: usize) -> Self {
        let signed = if side == TOP { score } else { -score };
        Self {
            key: signed + 0.0,
            clip,
            slot,
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
    /// Slots seen (in any table) by this side but not yet scored.
    unscored: Vec<usize>,
    /// Scored candidates awaiting delivery.
    pending: BinaryHeap<Pending>,
}

impl Side {
    /// A side that has read nothing, with room for `rows` clips.
    fn new(rows: usize) -> Self {
        Self {
            stamp: 0,
            fresh_common: 0,
            unscored: Vec::with_capacity(rows),
            pending: BinaryHeap::with_capacity(rows),
        }
    }
}

/// Iterator state (see module docs).
pub(crate) struct TbClip<'t, 'q> {
    tables: &'q QueryTables<'t>,
    scoring: &'q dyn ScoringModel,
    max_len: usize,
    slots: Slots,
    sides: [Side; 2],
    /// Random lookups avoided by the skip predicate (see [`Self::elided`]).
    elided: u64,
}

impl<'t, 'q> TbClip<'t, 'q> {
    /// Creates the iterator over the query's tables.
    pub fn new(tables: &'q QueryTables<'t>, scoring: &'q dyn ScoringModel) -> Self {
        // Each row reveals at most one clip, so no run interns more clips
        // than the tables hold rows (finalization reads aside).
        let rows = tables.total_len();
        Self {
            tables,
            scoring,
            max_len: tables.max_len(),
            slots: Slots::new(tables.num_tables(), rows),
            sides: [Side::new(rows), Side::new(rows)],
            elided: 0,
        }
    }

    /// Random row lookups avoided because the skip predicate excused a seen
    /// clip from score completion: the lookups that [`Self::clip_score_cached`]
    /// would have issued at the moment the clip was first skipped. If a
    /// skipped clip's exact score is requested later anyway, whatever its
    /// remaining tables still have not revealed is re-paid (and then counted
    /// in [`AccessStats::random`] as usual).
    pub fn elided(&self) -> u64 {
        self.elided
    }

    /// The exact score of `clip`, from cache if available, otherwise by
    /// completing the per-table scores: tables that already revealed the
    /// clip through sorted/reverse access contribute their cached row
    /// score; only the remaining tables cost a random access each (used by
    /// both delivery scoring and RVAQ's exact-score finalization).
    pub(crate) fn clip_score_cached(&mut self, clip: ClipId) -> f64 {
        let slot = self.slots.intern(clip);
        self.score_slot(slot)
    }

    fn score_slot(&mut self, slot: usize) -> f64 {
        let st = self.slots.clips[slot];
        if st.scored {
            return st.score;
        }
        let s = self
            .tables
            .complete_score(st.clip, self.slots.revealed(slot), self.scoring);
        let st = &mut self.slots.clips[slot];
        (st.score, st.scored) = (s, true);
        s
    }

    /// Advances both sides and returns the next top/bottom clips. `skip`
    /// realizes `C_skip`; skipped clips are neither scored nor returned.
    /// `C_skip` may only grow from one call to the next: a clip once
    /// skipped must stay skipped.
    pub fn next(&mut self, skip: &dyn Fn(ClipId) -> bool) -> TbStep {
        let top = self.advance_side(skip, TOP);
        let btm = self.advance_side(skip, BTM);
        TbStep { top, btm }
    }

    fn advance_side(&mut self, skip: &dyn Fn(ClipId) -> bool, side: usize) -> Option<ScoreRow> {
        let num_tables = self.slots.num_tables;

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
                let Some(row) = row else { continue };
                let slot = self.slots.intern(row.clip);
                self.slots.revealed[slot * num_tables + ti] = Some(row.score);
                let st = &mut self.slots.clips[slot];
                if st.seen[side] == 0 {
                    sd.unscored.push(slot);
                }
                st.seen[side] += 1;
                if st.seen[side] == num_tables && !st.processed[side] && !st.skipped(skip) {
                    sd.fresh_common += 1;
                }
            }
        }

        // Step 2: random accesses for every seen-but-unscored clip.
        let mut unscored = std::mem::take(&mut self.sides[side].unscored);
        for &slot in &unscored {
            let clip = self.slots.clips[slot].clip;
            if self.slots.clips[slot].skipped(skip) {
                // Never scored: no random-access overhead. Account the
                // lookups completion would have cost right now (once per
                // clip even when both sides skip it).
                if !self.slots.clips[slot].elided {
                    self.slots.clips[slot].elided = true;
                    let avoided = self
                        .slots
                        .revealed(slot)
                        .iter()
                        .filter(|s| s.is_none())
                        .count();
                    self.elided += conv::len_u64(avoided);
                }
                continue;
            }
            let score = self.score_slot(slot);
            if !self.slots.clips[slot].processed[side] {
                self.sides[side]
                    .pending
                    .push(Pending::new(side, score, clip, slot));
            }
        }
        unscored.clear();
        self.sides[side].unscored = unscored;

        // Deliver the best pending candidate, dropping skipped ones as they
        // surface.
        let sd = &mut self.sides[side];
        let best = loop {
            let cand = sd.pending.pop()?;
            if !self.slots.clips[cand.slot].skipped(skip) {
                break cand;
            }
        };
        self.slots.clips[best.slot].processed[side] = true;
        sd.fresh_common = sd.fresh_common.saturating_sub(1);
        Some(ScoreRow {
            clip: best.clip,
            score: self.slots.clips[best.slot].score,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::scoring::PaperScoring;
    use vaq_storage::{CostModel, MemTable};

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

    /// Two tables over clips 0..5; g = action * sum(objects).
    fn setup() -> (MemTable, MemTable) {
        let action = table(&[(0, 1.0), (1, 5.0), (2, 3.0), (3, 2.0), (4, 4.0)]);
        let object = table(&[(0, 2.0), (1, 1.0), (2, 2.0), (3, 3.0), (4, 1.0)]);
        (action, object)
    }

    // g-scores: c0=2, c1=5, c2=6, c3=6, c4=4.

    #[test]
    fn tops_descend_bottoms_ascend() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &scoring);
        let no_skip = |_c: ClipId| false;
        let mut tops = Vec::new();
        let mut btms = Vec::new();
        loop {
            let step = tb.next(&no_skip);
            if step.top.is_none() && step.btm.is_none() {
                break;
            }
            if let Some(t) = step.top {
                tops.push(t.score);
            }
            if let Some(b) = step.btm {
                btms.push(b.score);
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
        let mut tb = TbClip::new(&tables, &scoring);
        let no_skip = |_c: ClipId| false;
        let mut top_clips = Vec::new();
        for _ in 0..10 {
            let step = tb.next(&no_skip);
            if let Some(t) = step.top {
                top_clips.push(t.clip);
            }
        }
        let mut dedup = top_clips.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), top_clips.len(), "duplicates in {top_clips:?}");
        assert_eq!(top_clips.len(), 5);
    }

    #[test]
    fn skipped_clips_are_never_scored_or_returned() {
        let (a, o) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &scoring);
        // Skip clips 2 and 3 (the two best).
        let skip = |c: ClipId| c.raw() == 2 || c.raw() == 3;
        let step = tb.next(&skip);
        assert_eq!(step.top.unwrap().score, 5.0, "c1 is best non-skipped");
        let random_before = tables.stats().random;
        // Scoring skipped clips would have cost 2 tables × 2 clips = 4 more.
        assert_eq!(random_before % 2, 0);
        let mut clips_seen = vec![step.top.unwrap().clip];
        loop {
            let step = tb.next(&skip);
            match step.top {
                Some(t) => clips_seen.push(t.clip),
                None => break,
            }
        }
        assert!(clips_seen.iter().all(|c| c.raw() != 2 && c.raw() != 3));
        // In this workload the shared row stamp reveals the skipped clips in
        // both tables before they are excused from scoring, so no lookup was
        // actually avoided — the elision counter must bill nothing.
        assert_eq!(tb.elided(), 0, "skips of fully-revealed clips cost nothing");
    }

    #[test]
    fn elided_lookups_are_billed_once_per_partially_revealed_clip() {
        // Anti-correlated table orders: clip 0 tops the action table but
        // bottoms the object table, so when the top scan first sees it only
        // one of its two slots is revealed. Skipping it then avoids exactly
        // one random lookup.
        let action = table(&[(0, 5.0), (1, 4.0), (2, 3.0), (3, 2.0), (4, 1.0)]);
        let object = table(&[(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]);
        let tables = QueryTables {
            action: &action,
            objects: vec![&object],
        };
        let scoring = PaperScoring;
        let mut tb = TbClip::new(&tables, &scoring);
        let skip = |c: ClipId| c.raw() == 0;
        let step = tb.next(&skip);
        assert!(step.top.is_some());
        assert_eq!(tb.elided(), 1, "one unrevealed slot avoided for clip 0");
        // Draining the iterator never re-bills the same clip.
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
        let mut tb = TbClip::new(&tables, &scoring);
        let no_skip = |_c: ClipId| false;
        let _ = tb.next(&no_skip);
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
        let mut tb = TbClip::new(&tables, &scoring);
        let no_skip = |_c: ClipId| false;
        while tb.next(&no_skip).top.is_some() {}
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
        let mut tb = TbClip::new(&tables, &scoring);
        let no_skip = |_c: ClipId| false;
        for _ in 0..5 {
            assert!(tb.next(&no_skip).top.is_some());
        }
        let step = tb.next(&no_skip);
        assert_eq!(step.top, None);
        assert_eq!(step.btm, None);
    }

    #[test]
    fn dense_slots_hold_the_span_dense_span_admits() {
        // Three rows admit a span of twelve ids, in an array of sixteen.
        let mut d = DenseSlots::new(3).unwrap();
        assert_eq!(d.tags.len(), 16);
        assert_eq!(d.slot(100, 0), Some(0));
        assert_eq!(d.slot(111, 1), Some(1), "gap 11 fits");
        assert_eq!(d.slot(100, 2), Some(0), "already interned");
        assert_eq!(d.slot(105, 2), Some(2), "inside the span, not yet seen");
        assert_eq!(d.slot(112, 3), None, "gap 12 is too wide");
        assert_eq!(d.slot(99, 3), None, "so is one below");
        assert_eq!(d.slot(116, 3), None, "shares 100's entry, outside the span");
        assert_eq!((d.lo, d.hi), (100, 111), "a refused id leaves the span");
        assert!(DenseSlots::new(0).is_none());
        assert!(matches!(SlotIndex::new(0), SlotIndex::Map(_)));
    }

    #[test]
    fn slots_move_to_the_map_when_ids_spread() {
        // g = action × 1 over clips {0, 1, last}.
        let rows = |last| table(&[(0, 1.0), (1, 5.0), (last, 3.0)]);
        let ones = |last| table(&[(0, 1.0), (1, 1.0), (last, 1.0)]);
        let (near, near_ones) = (rows(2), ones(2));
        let (far, far_ones) = (rows(1 << 40), ones(1 << 40));
        let scoring = PaperScoring;
        let no_skip = |_c: ClipId| false;
        for (t, o, dense) in [(&near, &near_ones, true), (&far, &far_ones, false)] {
            let tables = QueryTables {
                action: t,
                objects: vec![o],
            };
            let mut tb = TbClip::new(&tables, &scoring);
            let mut tops = Vec::new();
            while let Some(top) = tb.next(&no_skip).top {
                tops.push((top.clip.raw(), top.score));
            }
            assert_eq!(tops[0], (1, 5.0));
            assert_eq!(tops.len(), 3);
            assert_eq!(matches!(tb.slots.index, SlotIndex::Dense(_)), dense);
            // Every slot is found again in either form.
            for (clip, score) in tops {
                assert_eq!(tb.clip_score_cached(ClipId::new(clip)), score);
            }
            assert_eq!(tb.slots.clips.len(), 3);
        }
    }

    mod differential {
        //! The slot/heap iterator against the ordered-map reference.
        use super::super::reference;
        use super::*;
        use crate::offline::scoring::MaxScoring;
        use std::collections::BTreeSet;
        use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
        use vaq_types::rng::{for_cases, SeededRng};

        /// Clip ids: contiguous from 0, sparse with wide strides,
        /// clustered at the top of the `u64` range, or contiguous from 0
        /// plus one to three outliers far beyond the dense slot index's
        /// reach (`DenseSlots`), so that a run starts with the array and
        /// moves to the map when the first outlier (or, if an outlier comes
        /// first, the first contiguous id) is revealed.
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

        fn query<T: ClipScoreTable>(tables: &[T]) -> QueryTables<'_> {
            QueryTables {
                action: &tables[0],
                objects: tables[1..]
                    .iter()
                    .map(|t| t as &dyn ClipScoreTable)
                    .collect(),
            }
        }

        fn bits(step: TbStep) -> [Option<(ClipId, u64)>; 2] {
            [step.top, step.btm].map(|r| r.map(|r| (r.clip, r.score.to_bits())))
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
            let old_tables: Vec<ScanTable> = rows.iter().map(|r| ScanTable::new(r)).collect();
            let new_tables = mem_tables(&rows);
            let (old_q, new_q) = (query(&old_tables), query(&new_tables));
            let scoring: &dyn ScoringModel = if max_scoring {
                &MaxScoring
            } else {
                &PaperScoring
            };
            let mut old = reference::TbClip::new(&old_q, scoring);
            let mut new = TbClip::new(&new_q, scoring);
            // C_skip starts as a random subset and only grows.
            let mut skipped: BTreeSet<ClipId> = ids
                .iter()
                .copied()
                .filter(|_| rng.gen_range(0..5u32) == 0)
                .collect();
            let pick = |rng: &mut SeededRng| ids[rng.gen_range(0..ids.len())];
            let mut idle = 0;
            for step in 0..4 * n + 8 {
                let skip = |c: ClipId| skipped.contains(&c);
                let (a, b) = (old.next(&skip), new.next(&skip));
                assert_eq!(bits(a), bits(b), "step {step}");
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
                    skipped.insert(pick(&mut rng));
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
            // Finalization reads: every clip, plus one no table holds.
            let absent = ClipId::new(ids[0].raw() ^ 1);
            for &c in ids.iter().chain(std::iter::once(&absent)) {
                let (sa, sb) = (old.clip_score_cached(c), new.clip_score_cached(c));
                assert_eq!(sa.to_bits(), sb.to_bits(), "cached score of {c}");
            }
            assert_eq!(counts(&old_q, old.elided()), counts(&new_q, new.elided()));
            if id_mode == 3 && n > 1 {
                // Outliers and contiguous ids were all interned above.
                assert!(matches!(new.slots.index, SlotIndex::Map(_)));
            }
        }

        /// Same steps, accesses, elisions and cached scores as the
        /// reference, bit for bit, under a growing skip set.
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
