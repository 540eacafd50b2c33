//! The ordered-map TBClip, kept as a differential oracle.
//!
//! Before per-clip state moved to vectors indexed by candidate offset and
//! delivery to per-side heaps, [`super::TbClip`] kept every per-clip fact
//! in `BTreeMap`s and `BTreeSet`s, keyed by clip id for every clip a scan
//! revealed, and picked each delivery by a linear scan over the pending
//! set. This module is that code, unchanged but for crate-private
//! visibility and one rule: it bills elided lookups only for clips of
//! `P_q`, as the iterator does, which keeps no state for the others. The
//! tests assert that the iterator produces the same steps, accesses,
//! elisions and cached scores, bit for bit.

use super::QueryTables;
use crate::offline::scoring::ScoringModel;
use std::collections::{BTreeMap, BTreeSet};
use vaq_storage::ScoreRow;
use vaq_types::{ClipId, SequenceSet};

/// One iterator step: the next top and bottom clips.
pub(crate) struct TbStep {
    pub(crate) top: Option<ScoreRow>,
    pub(crate) btm: Option<ScoreRow>,
}

/// Iterator state (see module docs).
pub(crate) struct TbClip<'t, 'q> {
    tables: &'q QueryTables<'t>,
    /// The candidates: only their skipped clips bill elided lookups.
    pq: &'q SequenceSet,
    scoring: &'q dyn ScoringModel,
    stamp_top: usize,
    stamp_btm: usize,
    /// Per-table scores already revealed by sorted/reverse access (the
    /// top-k access model yields `(cid, score)` pairs, so completing a
    /// clip's score only needs random accesses into the tables that have
    /// *not* shown it yet). Ordered maps/sets throughout: delivery ties are
    /// broken by clip id, so iteration order can never leak hash-layout
    /// nondeterminism into results (the workspace's clippy bans on hash
    /// iteration enforce this).
    partial: BTreeMap<ClipId, Vec<Option<f64>>>,
    /// Distinct tables that have seen each clip via sorted access.
    seen_top: BTreeMap<ClipId, usize>,
    seen_btm: BTreeMap<ClipId, usize>,
    /// Clips seen (in any table) but not yet scored.
    unscored_top: Vec<ClipId>,
    unscored_btm: Vec<ClipId>,
    /// Scored candidates awaiting delivery.
    pending_top: BTreeSet<ClipId>,
    pending_btm: BTreeSet<ClipId>,
    /// Exact scores of every clip scored so far (shared across sides).
    score_cache: BTreeMap<ClipId, f64>,
    processed_top: BTreeSet<ClipId>,
    processed_btm: BTreeSet<ClipId>,
    /// Set when a batch of sorted accesses has produced a fresh common clip.
    fresh_common_top: usize,
    fresh_common_btm: usize,
    /// Clips whose scoring was skipped at least once (guards the elision
    /// counter against counting both sides of the same clip).
    elided_clips: BTreeSet<ClipId>,
    /// Random lookups avoided by the skip predicate (see [`Self::elided`]).
    elided: u64,
}

impl<'t, 'q> TbClip<'t, 'q> {
    /// Creates the iterator over the query's tables.
    pub(crate) fn new(
        tables: &'q QueryTables<'t>,
        pq: &'q SequenceSet,
        scoring: &'q dyn ScoringModel,
    ) -> Self {
        Self {
            tables,
            pq,
            scoring,
            stamp_top: 0,
            stamp_btm: 0,
            partial: BTreeMap::new(),
            seen_top: BTreeMap::new(),
            seen_btm: BTreeMap::new(),
            unscored_top: Vec::new(),
            unscored_btm: Vec::new(),
            pending_top: BTreeSet::new(),
            pending_btm: BTreeSet::new(),
            score_cache: BTreeMap::new(),
            processed_top: BTreeSet::new(),
            processed_btm: BTreeSet::new(),
            fresh_common_top: 0,
            fresh_common_btm: 0,
            elided_clips: BTreeSet::new(),
            elided: 0,
        }
    }

    /// Random row lookups avoided because the skip predicate excused a seen
    /// clip from score completion: the lookups that [`Self::clip_score_cached`]
    /// would have issued at the moment the clip was first skipped. If a
    /// skipped clip's exact score is requested later anyway, whatever its
    /// remaining tables still have not revealed is re-paid (and then counted
    /// in [`AccessStats::random`] as usual).
    pub(crate) fn elided(&self) -> u64 {
        self.elided
    }

    /// The exact score of `clip`, from cache if available, otherwise by
    /// completing the per-table scores: tables that already revealed the
    /// clip through sorted/reverse access contribute their cached row
    /// score; only the remaining tables cost a random access each (used by
    /// both delivery scoring and RVAQ's exact-score finalization).
    pub(crate) fn clip_score_cached(&mut self, clip: ClipId) -> f64 {
        if let Some(&s) = self.score_cache.get(&clip) {
            return s;
        }
        let num_tables = self.tables.num_tables();
        let partial = self
            .partial
            .entry(clip)
            .or_insert_with(|| vec![None; num_tables]);
        let mut scores = Vec::with_capacity(num_tables);
        for (ti, slot) in partial.iter_mut().enumerate() {
            let v = match slot {
                Some(v) => *v,
                None => self.tables.table(ti).random_access(clip).unwrap_or(0.0),
            };
            scores.push(v);
        }
        let s = self.scoring.g(scores[0], &scores[1..]);
        self.score_cache.insert(clip, s);
        s
    }

    /// Advances both sides and returns the next top/bottom clips. `skip`
    /// realizes `C_skip`; skipped clips are neither scored nor returned.
    pub(crate) fn next(&mut self, skip: &dyn Fn(ClipId) -> bool) -> TbStep {
        let top = self.advance_side(skip, true);
        let btm = self.advance_side(skip, false);
        TbStep { top, btm }
    }

    fn advance_side(&mut self, skip: &dyn Fn(ClipId) -> bool, is_top: bool) -> Option<ScoreRow> {
        let num_tables = self.tables.num_tables();
        let max_len = self.tables.max_len();

        // Step 1: sorted (or reverse) access in parallel until a fresh
        // common clip appears or the tables are exhausted.
        loop {
            let (stamp, fresh) = if is_top {
                (&mut self.stamp_top, &mut self.fresh_common_top)
            } else {
                (&mut self.stamp_btm, &mut self.fresh_common_btm)
            };
            if *fresh > 0 || *stamp >= max_len {
                break;
            }
            let row_idx = *stamp;
            *stamp += 1;
            for ti in 0..num_tables {
                let table = self.tables.table(ti);
                let row = if is_top {
                    table.sorted_access(row_idx)
                } else {
                    table.reverse_access(row_idx)
                };
                let Some(row) = row else { continue };
                self.partial
                    .entry(row.clip)
                    .or_insert_with(|| vec![None; num_tables])[ti] = Some(row.score);
                let (seen, unscored, processed, fresh) = if is_top {
                    (
                        &mut self.seen_top,
                        &mut self.unscored_top,
                        &self.processed_top,
                        &mut self.fresh_common_top,
                    )
                } else {
                    (
                        &mut self.seen_btm,
                        &mut self.unscored_btm,
                        &self.processed_btm,
                        &mut self.fresh_common_btm,
                    )
                };
                let count = seen.entry(row.clip).or_insert(0);
                if *count == 0 {
                    unscored.push(row.clip);
                }
                *count += 1;
                if *count == num_tables && !processed.contains(&row.clip) && !skip(row.clip) {
                    *fresh += 1;
                }
            }
        }

        // Step 2: random accesses for every seen-but-unscored clip.
        let unscored = if is_top {
            std::mem::take(&mut self.unscored_top)
        } else {
            std::mem::take(&mut self.unscored_btm)
        };
        for clip in unscored {
            if skip(clip) {
                // Never scored: no random-access overhead. Account the
                // lookups completion would have cost right now (once per
                // clip even when both sides skip it).
                if self.pq.contains(clip) && self.elided_clips.insert(clip) {
                    let avoided = self
                        .partial
                        .get(&clip)
                        .map(|slots| slots.iter().filter(|s| s.is_none()).count())
                        .unwrap_or(0);
                    self.elided += vaq_types::conv::len_u64(avoided);
                }
                continue;
            }
            self.clip_score_cached(clip);
            if is_top {
                if !self.processed_top.contains(&clip) {
                    self.pending_top.insert(clip);
                }
            } else if !self.processed_btm.contains(&clip) {
                self.pending_btm.insert(clip);
            }
        }

        // Deliver the best pending candidate, purging skipped ones.
        let (pending, processed, fresh) = if is_top {
            (
                &mut self.pending_top,
                &mut self.processed_top,
                &mut self.fresh_common_top,
            )
        } else {
            (
                &mut self.pending_btm,
                &mut self.processed_btm,
                &mut self.fresh_common_btm,
            )
        };
        pending.retain(|&c| !skip(c));
        let chosen = pending
            .iter()
            .map(|&c| (c, self.score_cache[&c]))
            .reduce(|best, cand| {
                let better = if is_top {
                    cand.1 > best.1
                } else {
                    cand.1 < best.1
                };
                if better {
                    cand
                } else {
                    best
                }
            });
        let (clip, score) = chosen?;
        pending.remove(&clip);
        processed.insert(clip);
        *fresh = fresh.saturating_sub(1);
        Some(ScoreRow { clip, score })
    }
}
