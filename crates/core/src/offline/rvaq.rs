//! RVAQ — the bound-refinement top-K algorithm (paper Algorithm 4).
//!
//! For each candidate sequence in `P_q`, RVAQ maintains an upper and a lower
//! bound on its score. Each TBClip step delivers the next top clip `c_top`
//! and bottom clip `c_btm`; the bounds tighten as
//!
//! ```text
//! B_up(i) = f( S_q(c_top) × L_up(i) )  ⊙  S_up(i)        (Eq. 13)
//! B_lo(i) = f( S_q(c_btm) × L_lo(i) )  ⊙  S_lo(i)        (Eq. 14)
//! ```
//!
//! where `S_up/L_up` fold in the processed top clips of the sequence (and
//! symmetrically for the bottom side). The loop stops when the K-th best
//! lower bound dominates every other sequence's upper bound
//! (`B_lo^K ≥ B_up^¬K`, Eq. 15).
//!
//! The *skip* mechanism (§4.3) grows `C_skip`: sequences whose upper bound
//! falls below `B_lo^K` are conclusively out; sequences whose lower bound
//! exceeds `B_up^¬K` are conclusively in (and, under the elision planner,
//! their clips stop being accessed until the final exact-score pass).
//! Disabling the mechanism yields the paper's RVAQ-noSkip baseline.
//!
//! **A completion of the paper's bound bookkeeping.** Eqs. 13–14 as printed
//! track top-processed clips only in the upper bound (`S_up/L_up`) and
//! bottom-processed clips only in the lower bound (`S_lo/L_lo`). Read
//! literally, the lower bound of a *high*-scoring sequence cannot rise until
//! the bottom scan — which starts from the globally worst clips — finally
//! reaches its clips, so the stopping condition `B_lo^K ≥ B_up^¬K` would
//! essentially never fire before exhaustion. Since every clip delivered by
//! either side of TBClip arrives with its *exact* score, the sound and
//! strictly tighter bookkeeping is to fold every known clip score into both
//! bounds: for a sequence with known-score part `S_known` and `L_unknown`
//! remaining clips,
//!
//! ```text
//! B_up = f(S_q(c_top) × L_unknown) ⊙ S_known
//! B_lo = f(S_q(c_btm) × L_unknown) ⊙ S_known
//! ```
//!
//! (valid because unreturned clips score between the bottom and top
//! frontiers). This preserves the paper's access pattern and skip semantics
//! while making early termination actually achievable — with the literal
//! one-sided bookkeeping, RVAQ's reported advantage over `P_q`-Traverse is
//! unobtainable.
//!
//! **The floor.** [`RvaqOptions::floor`] is a score the caller already holds
//! K results at or above — the K-th best score of a repository query's
//! videos so far (DESIGN.md §16.2). After each bound re-estimate, a live
//! sequence of `len` clips whose `B_up` stays strictly below the floor even
//! after a rounding margin of `|B_up|·len·ε` is decided out and joins
//! `C_skip`: its exact score is below the floor too, so it cannot enter the
//! caller's answer, and a sequence tied with the floor is kept. The margin
//! is needed because `S_known` folds clip scores in delivery (score) order
//! while the exact score folds them in clip order, and two summation orders
//! of `len` non-negative terms can differ by up to about `len·ε` of the
//! sum. Every sequence scoring at or above the floor stays live, so the
//! run's results at or above the floor are the unfloored run's (up to ties
//! at K); below it the run may return fewer sequences, or other ones. The
//! default `-∞` prunes nothing.

use crate::offline::scoring::ScoringModel;
use crate::offline::tbclip::{QueryTables, TbClip};
use std::time::Instant;
use trace::Tracer;
use vaq_storage::AccessStats;
use vaq_types::{conv, ClipInterval, SequenceSet};

/// Options controlling an RVAQ run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RvaqOptions {
    /// Number of sequences to return.
    pub k: usize,
    /// Whether the §4.3 skip mechanism is active (off = RVAQ-noSkip).
    pub skip_enabled: bool,
    /// The bound-driven elision planner (DESIGN.md §14): once a sequence is
    /// decided conclusively *in*, its clips stop being score-completed —
    /// the exact-score refinement at the end re-reads only whatever the
    /// scans have not revealed for free by then.
    /// Results are identical either way; only the access counts change.
    pub planner: bool,
    /// Sequences whose upper bound, plus a rounding margin of `len·ε` of
    /// itself for a sequence of `len` clips, falls strictly below this
    /// score are decided out (see the module docs), so every sequence
    /// scoring at least `floor` stays a candidate; `-∞` prunes nothing.
    pub floor: f64,
}

impl RvaqOptions {
    /// Standard RVAQ with exact result scores.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            skip_enabled: true,
            planner: false,
            floor: f64::NEG_INFINITY,
        }
    }

    /// The RVAQ-noSkip baseline.
    pub fn no_skip(k: usize) -> Self {
        Self {
            skip_enabled: false,
            ..Self::new(k)
        }
    }

    /// Standard RVAQ with the elision planner active.
    pub fn planned(k: usize) -> Self {
        Self {
            planner: true,
            ..Self::new(k)
        }
    }
}

/// Result of a top-K run (any offline algorithm).
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// The K highest-scoring sequences, best first, with their exact
    /// scores.
    pub sequences: Vec<(ClipInterval, f64)>,
    /// Access statistics accumulated during the run.
    pub stats: AccessStats,
    /// Wall-clock time of the algorithm itself, ms.
    pub wall_ms: f64,
    /// TBClip invocations (RVAQ variants) or scan rounds (baselines).
    pub iterations: u64,
}

#[derive(Debug)]
struct SeqState {
    interval: ClipInterval,
    b_up: f64,
    b_lo: f64,
    /// `⊙`-fold of the exactly-known clip scores (either frontier).
    s_known: f64,
    /// Clips whose scores are still unknown.
    l_unknown: u64,
    decided_out: bool,
    decided_in: bool,
}

/// Runs RVAQ (Algorithm 4) over the query's tables and candidate sequences.
///
/// Precondition: every clip of every candidate in `pq` has a row in every
/// table of `tables`. `B_lo` bounds a clip's unknown score by the lowest
/// row the reverse scan has delivered, and a clip without a row reads as
/// 0, below every row. For such a clip `B_lo` is not a lower bound, and
/// the skip rule or [`RvaqOptions::floor`] can drop a sequence that
/// belongs in the top K, without an error. Ingested catalogs meet it for
/// the candidates of [`candidates`](super::candidates::candidates): a
/// candidate clip lies in each queried type's positive sequences, and
/// each such clip has a row. Other tables and candidate sets are the
/// caller's to check (DESIGN.md §16.2).
pub fn rvaq(
    tables: &QueryTables<'_>,
    pq: &SequenceSet,
    scoring: &dyn ScoringModel,
    opts: &RvaqOptions,
) -> TopKResult {
    rvaq_traced(tables, pq, scoring, opts, &Tracer::disabled())
}

/// [`rvaq`] with tracing: opens the `rvaq` root span, one `rvaq.iteration`
/// span per TBClip step (recording the current bound gap
/// `B_up^¬K − B_lo^K`, which converging runs drive to ≤ 0), and the
/// `rvaq.iterations` / `rvaq.decided_out` / `rvaq.decided_in` /
/// `rvaq.below_floor` counters. Same precondition as [`rvaq`]: every
/// candidate clip has a row in every table.
pub fn rvaq_traced(
    tables: &QueryTables<'_>,
    pq: &SequenceSet,
    scoring: &dyn ScoringModel,
    opts: &RvaqOptions,
    tracer: &Tracer,
) -> TopKResult {
    let _root = trace::span!(
        tracer,
        "rvaq",
        "candidates" = conv::len_u64(pq.intervals().len()),
        "k" = conv::len_u64(opts.k),
        "skip" = opts.skip_enabled
    );
    // `wall_ms` is reporting-only telemetry; no decision reads it.
    #[allow(clippy::disallowed_methods)]
    let started = Instant::now();
    tables.reset_stats();
    let mut tb = TbClip::new(tables, pq, scoring);

    let mut states: Vec<SeqState> = pq
        .intervals()
        .iter()
        .map(|&interval| SeqState {
            interval,
            b_up: f64::INFINITY,
            b_lo: f64::NEG_INFINITY,
            s_known: scoring.f_identity(),
            l_unknown: interval.len(),
            decided_out: false,
            decided_in: false,
        })
        .collect();

    let k = opts.k.min(states.len());
    let mut iterations = 0u64;
    let mut top_set = Vec::with_capacity(k);
    // Conclusively-in sequences join C_skip when the elision planner defers
    // their clips' exact scores to the final refinement.
    let elide_in = opts.planner;
    let mut top_frontier: Option<f64> = None;
    let mut btm_frontier: Option<f64> = None;

    // With K ≥ |P_q| every sequence is a result; only exact scoring remains.
    let mut converged = k >= states.len();

    while !converged {
        iterations += 1;
        let mut iter_span = trace::span!(tracer, "rvaq.iteration", "iteration" = iterations);
        tracer.counter_add("rvaq.iterations", 1);
        let step = {
            let states = &states;
            // C_skip starts as C(X) \ C(P_q), which TBClip never delivers.
            tb.next(&|i: usize| states[i].decided_out || (elide_in && states[i].decided_in))
        };
        if step.top.is_none() && step.btm.is_none() {
            break;
        }

        // Fold the delivered clips' exact scores into their sequences
        // (once per clip: a clip can arrive from both frontiers).
        for d in [step.top, step.btm].into_iter().flatten() {
            if d.first {
                let st = &mut states[d.sequence];
                st.s_known = scoring.f_combine(st.s_known, d.row.score);
                st.l_unknown -= 1;
            }
        }
        if let Some(top) = step.top {
            top_frontier = Some(top.row.score);
        }
        if let Some(btm) = step.btm {
            btm_frontier = Some(btm.row.score);
        }

        // Re-estimate both bounds of every live sequence from the current
        // frontiers (Eqs. 13–14, unified bookkeeping — see module docs),
        // deciding out whatever can no longer reach the floor.
        for st in states.iter_mut().filter(|s| !s.decided_out) {
            if let Some(tf) = top_frontier {
                st.b_up = scoring.f_combine(scoring.f_repeat(tf, st.l_unknown), st.s_known);
                let margin = st.b_up.abs() * st.interval.len() as f64 * f64::EPSILON;
                if st.b_up + margin < opts.floor {
                    st.decided_out = true;
                    tracer.counter_add("rvaq.below_floor", 1);
                    continue;
                }
            }
            if let Some(bf) = btm_frontier {
                st.b_lo = scoring.f_combine(scoring.f_repeat(bf, st.l_unknown), st.s_known);
            }
        }

        // Rank by lower bound; the K best form PQ_lo^K.
        let (blo_k, bup_notk) = frontier(&states, k, &mut top_set);
        if opts.skip_enabled {
            for st in states
                .iter_mut()
                .filter(|s| !s.decided_out && !s.decided_in)
            {
                if st.b_up < blo_k {
                    st.decided_out = true;
                    tracer.counter_add("rvaq.decided_out", 1);
                } else if st.b_lo > bup_notk {
                    st.decided_in = true;
                    tracer.counter_add("rvaq.decided_in", 1);
                }
            }
        }
        // The gap the stopping rule (Eq. 15) drives to ≤ 0; +∞ until both
        // frontiers have produced their first clip.
        iter_span.record("bound_gap", bup_notk - blo_k);
        converged = blo_k >= bup_notk;
    }

    // Select the K sequences with the highest lower bounds (exact at
    // convergence), then refine them to exact scores.
    let mut order = Vec::with_capacity(states.len());
    order.extend((0..states.len()).filter(|&i| !states[i].decided_out));
    order.sort_by(|&a, &b| {
        states[b]
            .b_lo
            .total_cmp(&states[a].b_lo)
            .then(states[b].b_up.total_cmp(&states[a].b_up))
    });
    order.truncate(k);

    let mut sequences: Vec<(ClipInterval, f64)> = order
        .into_iter()
        .map(|i| {
            let iv = states[i].interval;
            (iv, exact_sequence_score(&mut tb, scoring, &iv))
        })
        .collect();
    sequences.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut stats = tables.stats();
    stats.elided = tb.elided();
    TopKResult {
        sequences,
        stats,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        iterations,
    }
}

/// `(B_lo^K, B_up^¬K)` for the current bound state. `top_set` is scratch
/// space, reused across iterations.
///
/// `PQ_lo^K` is the first `K` live sequences in `(B_lo desc, index asc)`
/// order — the order a stable sort by `B_lo` gives. One pass in index order
/// keeps them in `top_set`, sorted in that order: a sequence enters when it
/// beats the worst kept one (a tie goes to the kept, lower index), and every
/// sequence it evicts, or that fails to enter, is outside `PQ_lo^K` and
/// feeds `B_up^¬K`.
fn frontier(states: &[SeqState], k: usize, top_set: &mut Vec<usize>) -> (f64, f64) {
    top_set.clear();
    let mut bup_notk = f64::NEG_INFINITY;
    for (i, st) in states.iter().enumerate().filter(|(_, s)| !s.decided_out) {
        if top_set.len() == k {
            match top_set.last() {
                Some(&worst) if st.b_lo.total_cmp(&states[worst].b_lo).is_gt() => {
                    top_set.pop();
                    bup_notk = bup_notk.max(states[worst].b_up);
                }
                _ => {
                    bup_notk = bup_notk.max(st.b_up);
                    continue;
                }
            }
        }
        let at = top_set.partition_point(|&t| states[t].b_lo.total_cmp(&st.b_lo).is_ge());
        top_set.insert(at, i);
    }
    let blo_k = top_set.last().map_or(f64::INFINITY, |&i| states[i].b_lo);
    (blo_k, bup_notk)
}

/// Exact `S_q(z)` by folding the cached/randomly-accessed clip scores.
pub(crate) fn exact_sequence_score(
    tb: &mut TbClip<'_, '_>,
    scoring: &dyn ScoringModel,
    interval: &ClipInterval,
) -> f64 {
    interval.clips().fold(scoring.f_identity(), |acc, c| {
        scoring.f_combine(acc, tb.clip_score_cached(c))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::scoring::PaperScoring;
    use vaq_storage::{CostModel, MemTable, ScoreRow};
    use vaq_types::ClipId;

    /// A workload with 4 candidate sequences of very different scores.
    /// Clips 0..40; sequences [0,4], [10,14], [20,24], [30,34].
    fn setup() -> (MemTable, MemTable, SequenceSet) {
        let mut action = Vec::new();
        let mut object = Vec::new();
        for c in 0..40u64 {
            // Sequence block index drives the score magnitude.
            let block = c / 10;
            let within = (c % 10) as f64;
            action.push(ScoreRow {
                clip: ClipId::new(c),
                score: 1.0 + block as f64 + within * 0.01,
            });
            object.push(ScoreRow {
                clip: ClipId::new(c),
                score: 2.0 + block as f64,
            });
        }
        let pq = SequenceSet::from_intervals(vec![
            ClipInterval::new(0, 4),
            ClipInterval::new(10, 14),
            ClipInterval::new(20, 24),
            ClipInterval::new(30, 34),
        ]);
        (
            MemTable::new(action, CostModel::FREE),
            MemTable::new(object, CostModel::FREE),
            pq,
        )
    }

    fn oracle(tables: &QueryTables<'_>, pq: &SequenceSet, k: usize) -> Vec<(ClipInterval, f64)> {
        // Direct scoring of every sequence (the Pq-Traverse semantics).
        let scoring = PaperScoring;
        let mut all: Vec<(ClipInterval, f64)> = pq
            .intervals()
            .iter()
            .map(|&iv| {
                let s = iv
                    .clips()
                    .map(|c| tables.clip_score(c, &scoring))
                    .sum::<f64>();
                (iv, s)
            })
            .collect();
        all.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        all.truncate(k);
        all
    }

    #[test]
    fn rvaq_matches_direct_topk() {
        let (a, o, pq) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        for k in 1..=4 {
            let want = oracle(&tables, &pq, k);
            let got = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(k));
            assert_eq!(got.sequences.len(), k);
            for (g, w) in got.sequences.iter().zip(&want) {
                assert_eq!(g.0, w.0, "k={k}");
                assert!((g.1 - w.1).abs() < 1e-9, "k={k}: {} vs {}", g.1, w.1);
            }
        }
    }

    #[test]
    fn noskip_matches_topk_but_needs_more_random_accesses() {
        // The regime where §4.3's skip mechanism pays off: two long,
        // nearly-tied contenders whose separation requires deep enumeration,
        // plus many weak sequences that are decided out early. During the
        // long head-to-head, RVAQ's bottom scan passes the decided-out
        // sequences' clips *without scoring them*; RVAQ-noSkip keeps paying
        // random accesses for them. Random accesses are the quantity the
        // paper's Tables 6–7 compare.
        let mut action = Vec::new();
        let mut object = Vec::new();
        let mut intervals = Vec::new();
        let mut next_clip = 0u64;
        let mut add_seq = |len: u64, base: f64, step: f64| {
            let start = next_clip;
            for i in 0..len {
                action.push(ScoreRow {
                    clip: ClipId::new(next_clip),
                    score: base + i as f64 * step,
                });
                // Correlated with the action score at sequence granularity
                // (as co-occurring predicates are), but flat within a
                // sequence: the two tables enumerate a sequence's clips in
                // different orders, so delivering a clip requires completing
                // its score with a random access into the other table.
                object.push(ScoreRow {
                    clip: ClipId::new(next_clip),
                    score: base * 0.01,
                });
                next_clip += 1;
            }
            intervals.push(ClipInterval::new(start, next_clip - 1));
            next_clip += 1; // gap clip so adjacent sequences do not merge
        };
        add_seq(100, 150.0, 0.010); // contender A (winner)
        add_seq(100, 149.5, 0.009); // contender B (runner-up)
        for l in 0..18u64 {
            add_seq(10, 1.0 + l as f64 * 3.0, 0.05); // weak losers
        }
        let pq = SequenceSet::from_intervals(intervals);
        let a = MemTable::new(action, CostModel::FREE);
        let o = MemTable::new(object, CostModel::FREE);
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let skip = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(1));
        let noskip = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::no_skip(1));
        assert_eq!(skip.sequences[0].0, noskip.sequences[0].0);
        assert_eq!(skip.sequences[0].0, ClipInterval::new(0, 99));
        assert!(
            skip.stats.random < noskip.stats.random,
            "skip {} vs noskip {} random accesses",
            skip.stats.random,
            noskip.stats.random
        );
    }

    #[test]
    fn early_termination_reads_less_than_everything() {
        let (a, o, pq) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let got = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(1));
        // 40 clips × 2 tables = 80 would be exhaustive random access.
        assert!(
            got.stats.random < 80,
            "random accesses {} not pruned",
            got.stats.random
        );
        assert_eq!(got.sequences[0].0, ClipInterval::new(30, 34));
    }

    #[test]
    fn k_at_least_num_sequences_returns_all() {
        let (a, o, pq) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let got = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(10));
        assert_eq!(got.sequences.len(), 4);
        let want = oracle(&tables, &pq, 4);
        for (g, w) in got.sequences.iter().zip(&want) {
            assert_eq!(g.0, w.0);
            assert!((g.1 - w.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_candidates_yield_empty_result() {
        let (a, o, _) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let got = rvaq(
            &tables,
            &SequenceSet::empty(),
            &PaperScoring,
            &RvaqOptions::new(3),
        );
        assert!(got.sequences.is_empty());
        assert_eq!(got.stats.random, 0);
    }

    #[test]
    fn planner_skips_decided_in_clips_yet_exact_scores_match() {
        // The regime where the elision planner pays off *with* exact scores
        // requested. Winner W is decided conclusively in right after its ten
        // anchor clips; its forty tail clips then arrive from the top scan
        // interleaved with an "escort" band of contender B whose rows are
        // *aligned* across both tables (so the scans keep producing fresh
        // common clips one row at a time), while W's tail occupies opposite
        // orders in the two tables. Without the planner every tail clip is
        // score-completed at first sight — one random lookup into the table
        // that has not shown it yet. With the planner it is passed over, and
        // by the time the B-vs-decider battle ends both scans have revealed
        // the whole band, so the exact-score refinement re-pays nothing.
        let mut action = Vec::new();
        let mut object = Vec::new();
        let mut push = |clip: u64, a: f64, o: f64| {
            action.push(ScoreRow {
                clip: ClipId::new(clip),
                score: a,
            });
            object.push(ScoreRow {
                clip: ClipId::new(clip),
                score: o,
            });
        };
        // W (ids 0..=49): ten anchors, then the tail in opposite orders.
        for i in 0..10u64 {
            let s = 1000.0 + (9 - i) as f64;
            push(i, s, s);
        }
        for k in 0..40u64 {
            push(
                10 + k,
                8.99 - 0.02 * k as f64,
                8.99 - 0.02 * (39 - k) as f64,
            );
        }
        // Decider D (ids 51..=60): ten mid-sized clips delivered right after
        // the anchors; dropping the top frontier to their score is what
        // decides W in while W's tail is still unseen.
        for i in 0..10u64 {
            let s = 20.0 - 0.1 * i as f64;
            push(51 + i, s, s);
        }
        // Contender B (ids 62..=151): forty aligned escorts interleaving
        // with W's tail, then fifty body clips; B's upper bound stays above
        // D's exact score until the scans leave the escort band.
        for k in 0..40u64 {
            let s = 9.0 - 0.02 * k as f64;
            push(62 + k, s, s);
        }
        for j in 0..50u64 {
            let s = 3.0 + 0.001 * (49 - j) as f64;
            push(102 + j, s, s);
        }
        // Weak losers feeding the bottom scan (decided out early).
        for seq in 0..3u64 {
            for j in 0..10u64 {
                let s = 1.0 + 0.2 * seq as f64 + 0.01 * j as f64;
                push(153 + seq * 11 + j, s, s);
            }
        }
        let pq = SequenceSet::from_intervals(vec![
            ClipInterval::new(0, 49),
            ClipInterval::new(51, 60),
            ClipInterval::new(62, 151),
            ClipInterval::new(153, 162),
            ClipInterval::new(164, 173),
            ClipInterval::new(175, 184),
        ]);
        let a = MemTable::new(action, CostModel::FREE);
        let o = MemTable::new(object, CostModel::FREE);
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let off = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(2));
        let on = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::planned(2));
        assert_eq!(on.sequences.len(), 2);
        for ((iv_on, s_on), (iv_off, s_off)) in on.sequences.iter().zip(&off.sequences) {
            assert_eq!(iv_on, iv_off);
            assert_eq!(s_on, s_off, "exact scores must be identical bit-wise");
        }
        assert_eq!(on.sequences[0].0, ClipInterval::new(0, 49));
        assert!(
            on.stats.elided > off.stats.elided,
            "planner elided {} vs baseline {}",
            on.stats.elided,
            off.stats.elided
        );
        assert!(
            on.stats.random < off.stats.random,
            "planner random {} vs baseline {}",
            on.stats.random,
            off.stats.random
        );
    }

    #[test]
    fn works_on_loaded_tables_too() {
        let (a, o, pq) = setup();
        let dir = std::env::temp_dir().join(format!("vaq-rvaq-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        use vaq_storage::catalog::CatalogWriter;
        use vaq_storage::{TableKey, VideoCatalog};
        use vaq_types::{ActionType, ObjectType, VideoGeometry};
        let (ka, ko) = (
            TableKey::Action(ActionType::new(0)),
            TableKey::Object(ObjectType::new(0)),
        );
        let frames = 100 * VideoGeometry::PAPER_DEFAULT.frames_per_clip();
        let mut w =
            CatalogWriter::create(&dir, "rvaq", VideoGeometry::PAPER_DEFAULT, frames).unwrap();
        w.add(ka, a.rows_unaccounted().to_vec(), &pq).unwrap();
        w.add(ko, o.rows_unaccounted().to_vec(), &pq).unwrap();
        w.finish().unwrap();
        let catalog = VideoCatalog::open(&dir, CostModel::DEFAULT).unwrap();
        let (fa, fo) = (catalog.table(ka).unwrap(), catalog.table(ko).unwrap());
        let mem_tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let loaded_tables = QueryTables {
            action: &fa,
            objects: vec![&fo],
        };
        let want = rvaq(&mem_tables, &pq, &PaperScoring, &RvaqOptions::new(2));
        let got = rvaq(&loaded_tables, &pq, &PaperScoring, &RvaqOptions::new(2));
        assert_eq!(got.sequences.len(), want.sequences.len());
        for (g, w) in got.sequences.iter().zip(&want.sequences) {
            assert_eq!(g.0, w.0);
            assert_eq!(g.1.to_bits(), w.1.to_bits());
        }
        let counts = |s: &AccessStats| (s.sorted, s.reverse, s.random, s.elided);
        assert_eq!(counts(&got.stats), counts(&want.stats));
        assert!(got.stats.simulated_ns > 0, "modeled I/O time is charged");
    }

    #[test]
    fn floor_prunes_below_and_keeps_a_tie() {
        let (a, o, pq) = setup();
        let tables = QueryTables {
            action: &a,
            objects: vec![&o],
        };
        let full = rvaq(&tables, &pq, &PaperScoring, &RvaqOptions::new(2));
        // A floor exactly at the second-best score keeps that sequence.
        let tied = RvaqOptions {
            floor: full.sequences[1].1,
            ..RvaqOptions::new(2)
        };
        let got = rvaq(&tables, &pq, &PaperScoring, &tied);
        assert_eq!(got.sequences, full.sequences);
        // A floor above every score returns nothing.
        let above = RvaqOptions {
            floor: full.sequences[0].1 + 1.0,
            ..RvaqOptions::new(2)
        };
        assert!(rvaq(&tables, &pq, &PaperScoring, &above)
            .sequences
            .is_empty());
    }

    mod floor {
        //! A run with a floor against the same run without one.
        use super::*;
        use crate::offline::scoring::MaxScoring;
        use vaq_types::rng::{for_cases, SeededRng};

        /// How a workload draws its scores.
        #[derive(Debug, Clone, Copy)]
        enum Scores {
            /// A few tied levels.
            Tied,
            /// Multiples of 1/128: every sum of them is exact.
            Dyadic,
            /// Multiples of 1/1_000_003: sums round, and two summation
            /// orders of the same scores can differ in the last bits. Every
            /// clip has a row in every table, as every candidate clip of an
            /// ingested catalog does: with a candidate clip absent from a
            /// table, `B_lo` is not a lower bound, and the skip rule can lose
            /// a row whatever the floor.
            Rounding,
        }

        /// `num_tables` tables over clips `0..n`, each clip present with
        /// probability 7/8 (always, for [`Scores::Rounding`]), scored as
        /// `scores` says; and disjoint candidate intervals over the same
        /// clips.
        fn workload(
            rng: &mut SeededRng,
            n: u64,
            num_tables: usize,
            scores: Scores,
        ) -> (Vec<MemTable>, SequenceSet) {
            let tables = (0..num_tables)
                .map(|_| {
                    let mut rows = Vec::new();
                    for c in 0..n {
                        let absent = rng.gen_range(0..8u32) == 0;
                        if absent && !matches!(scores, Scores::Rounding) {
                            continue;
                        }
                        let score = match scores {
                            Scores::Tied => [0.5, 1.0, 2.0][rng.gen_range(0..3usize)],
                            Scores::Dyadic => f64::from(rng.gen_range(0..10_000u32)) / 128.0,
                            Scores::Rounding => {
                                f64::from(rng.gen_range(0..1_000_003u32)) / 1_000_003.0
                            }
                        };
                        rows.push(ScoreRow {
                            clip: ClipId::new(c),
                            score,
                        });
                    }
                    MemTable::new(rows, CostModel::FREE)
                })
                .collect();
            let mut intervals = Vec::new();
            let mut start = rng.gen_range(0..3u64);
            while start < n {
                let end = (start + rng.gen_range(0..6u64)).min(n - 1);
                intervals.push(ClipInterval::new(start, end));
                start = end + 2 + rng.gen_range(0..4u64);
            }
            (tables, SequenceSet::from_intervals(intervals))
        }

        fn exact(tables: &QueryTables<'_>, scoring: &dyn ScoringModel, iv: &ClipInterval) -> f64 {
            iv.clips().fold(scoring.f_identity(), |acc, c| {
                scoring.f_combine(acc, tables.clip_score(c, scoring))
            })
        }

        /// The rows scoring at least `floor`, as a set ordered by score,
        /// then interval.
        fn at_or_above(rows: &[(ClipInterval, f64)], floor: f64) -> Vec<(ClipInterval, u64)> {
            let mut kept: Vec<_> = rows.iter().filter(|r| r.1 >= floor).copied().collect();
            kept.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            kept.into_iter().map(|(iv, s)| (iv, s.to_bits())).collect()
        }

        /// The score `n` ulps below a non-negative `x`.
        fn ulps_below(x: f64, n: u64) -> f64 {
            if x > 0.0 {
                f64::from_bits(x.to_bits() - n)
            } else {
                x - f64::from_bits(n)
            }
        }

        /// Runs RVAQ with and without `floor` and checks that above the
        /// floor both return the same rows, each with its exact score;
        /// `scores` are the candidates' exact scores, best first.
        fn check_floor(
            tables: &QueryTables<'_>,
            pq: &SequenceSet,
            scoring: &dyn ScoringModel,
            k: usize,
            scores: &[f64],
            floor: f64,
        ) {
            let plain = rvaq(tables, pq, scoring, &RvaqOptions::new(k));
            let floored = rvaq(
                tables,
                pq,
                scoring,
                &RvaqOptions {
                    floor,
                    ..RvaqOptions::new(k)
                },
            );
            for (iv, score) in plain.sequences.iter().chain(&floored.sequences) {
                let want = exact(tables, scoring, iv);
                assert_eq!(score.to_bits(), want.to_bits(), "score of {iv}");
            }
            let (want, got) = (
                at_or_above(&plain.sequences, floor),
                at_or_above(&floored.sequences, floor),
            );
            let profile =
                |rows: &[(ClipInterval, u64)]| rows.iter().map(|r| r.1).collect::<Vec<_>>();
            assert_eq!(profile(&got), profile(&want), "floor {floor}");
            let tie_at_k = k < scores.len() && scores[k - 1] == scores[k];
            if !tie_at_k {
                assert_eq!(got, want, "floor {floor}");
            }
        }

        /// One workload against a floor chosen by `bar`: none, above
        /// everything, a random draw, or a random candidate's exact score.
        /// A [`Scores::Rounding`] workload is also run against every
        /// returned row's exact score and the one and two ulps below it,
        /// where a floor prune that ignored rounding drops the row.
        fn run_case(
            seed: u64,
            n: u64,
            num_tables: usize,
            draw: Scores,
            max_scoring: bool,
            k: usize,
            bar: u8,
        ) {
            let mut rng = SeededRng::seed_from_u64(seed);
            let (mem, pq) = workload(&mut rng, n, num_tables, draw);
            let tables = QueryTables {
                action: &mem[0],
                objects: mem[1..]
                    .iter()
                    .map(|t| t as &dyn vaq_storage::ClipScoreTable)
                    .collect(),
            };
            let scoring: &dyn ScoringModel = if max_scoring {
                &MaxScoring
            } else {
                &PaperScoring
            };
            let mut scores: Vec<f64> = pq
                .intervals()
                .iter()
                .map(|iv| exact(&tables, scoring, iv))
                .collect();
            scores.sort_by(|a, b| b.total_cmp(a));
            let mut floors = vec![match bar {
                0 => f64::NEG_INFINITY,
                1 => f64::INFINITY,
                2 => f64::from(rng.gen_range(0..10_000u32)) / 128.0,
                _ if scores.is_empty() => 0.0,
                _ => scores[rng.gen_range(0..scores.len())],
            }];
            if matches!(draw, Scores::Rounding) {
                let rows = rvaq(&tables, &pq, scoring, &RvaqOptions::new(k)).sequences;
                floors.extend(
                    rows.iter()
                        .flat_map(|&(_, s)| [s, ulps_below(s, 1), ulps_below(s, 2)]),
                );
            }
            for floor in floors {
                check_floor(&tables, &pq, scoring, k, &scores, floor);
            }
        }

        /// A floor at a returned row's exact score, or one or two ulps
        /// below it, keeps the row even when its clips, summed in the order
        /// TBClip delivers them, round below that score. Without the
        /// rounding margin, several of these seeds drop a row.
        #[test]
        fn a_floor_at_a_rounded_score_keeps_the_row() {
            for seed in 0..50 {
                run_case(seed, 60, 2, Scores::Rounding, false, 5, 0);
            }
        }

        /// Above the floor, a floored run returns the unfloored run's
        /// scores (its sequences too, unless scores tie at K), each
        /// exact bit for bit.
        #[test]
        fn prop_floor_keeps_everything_above_it() -> Result<(), String> {
            for_cases(
                "prop_floor_keeps_everything_above_it",
                256,
                |r| {
                    let seed = r.next_u64();
                    let n = r.gen_range(1u64..80);
                    let num_tables = r.gen_range(1usize..4);
                    let draw =
                        [Scores::Tied, Scores::Dyadic, Scores::Rounding][r.gen_range(0..3usize)];
                    let max_scoring = r.gen_bool(0.5);
                    (
                        seed,
                        n,
                        num_tables,
                        draw,
                        max_scoring,
                        r.gen_range(1usize..6),
                        r.gen_range(0u8..4),
                    )
                },
                |&(seed, n, num_tables, draw, max_scoring, k, bar)| {
                    run_case(seed, n, num_tables, draw, max_scoring, k, bar);
                },
            )
        }
    }
}
