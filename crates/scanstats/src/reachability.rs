//! Sound reachability bounds for in-flight scan-window decisions — the
//! statistical core of the detector-call elision planner (DESIGN.md §14).
//!
//! A clip predicate is decided by comparing the positive count `c` in a
//! window of `w` occurrence units against an (edge-corrected) critical
//! value. The planner probes the window one unit at a time; after
//! `attempted` probes of which `observed` produced a model output and `c`
//! were positive, the remaining `r = w − attempted` units can still swing
//! the final decision only within provable limits:
//!
//! * **Certain accept** — the final count can only grow, while the final
//!   edge-corrected bar is largest when every remaining unit produces an
//!   output (`o_f = observed + r`, the bar [`edge_corrected_k`] being
//!   nondecreasing in the observed-unit count for `k ≤ w`). So when
//!   `c ≥ edge_corrected_k(k, observed + r, w)` every completion of the
//!   window — any mix of positives, negatives, and faults — accepts.
//! * **Certain reject** — among completions where `m` of the remaining
//!   units produce outputs, the final count is at most `c + m` against a
//!   bar of `edge_corrected_k(k, observed + m, w)`. For `k ≤ w` the bar
//!   grows by at most one per extra observed unit while the count bound
//!   grows by exactly one, so the binding completion is `m = r`:
//!   `c + r < edge_corrected_k(k, observed + r, w)` implies every
//!   completion rejects. (For `k > w` the bar is unreachable outright and
//!   every completion with at least one observation rejects.)
//! * **`observed ≥ 1` is required for either verdict** — with zero
//!   observations so far, the completion in which every remaining unit
//!   faults yields a window with no information, which the engines report
//!   as a typed gap marker rather than a decision. Eliding there would
//!   turn an exhaustive-run gap into a fabricated answer.
//!
//! Both bounds are exact (not merely sound): the worst-case completions
//! above are realizable, so `Undecided` means some pair of completions
//! genuinely disagrees (or could still gap). The property tests below
//! prove soundness *and* tightness by brute force over every completion.

/// The planner's view of one predicate's scan-window decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Every completion of the window satisfies the predicate.
    Accept,
    /// Every completion of the window fails the predicate (and none can
    /// degrade to a gap).
    Reject,
    /// Completions still disagree — keep probing.
    Undecided,
}

/// Edge-corrected critical value for a scan window truncated to `observed`
/// of `total` occurrence units: the event-count bar shrinks proportionally
/// (never below 1). With the full window observed this is exactly `k`.
///
/// This is the single shared definition used by the clip evaluators and
/// the elision planner; `observed` must be in `1..=total`.
pub fn edge_corrected_k(k: u64, observed: u64, total: u64) -> u64 {
    debug_assert!(observed > 0 && observed <= total);
    if observed == total {
        return k;
    }
    ((k * observed).div_ceil(total)).max(1)
}

/// Sound in-flight verdict for one predicate after `attempted` of `total`
/// occurrence units were probed, `observed` of those produced a model
/// output, and `positives` of the observed units were positive.
///
/// The verdict quantifies over *every* completion of the window — any mix
/// of positive, negative, and faulted outcomes for the `total − attempted`
/// remaining units — under the `ImputeBackground` degradation rule
/// (edge-corrected bar on the observed sub-window, gap on zero
/// observations). `Accept`/`Reject` therefore guarantee the exhaustive
/// engine's final indicator, including its fault handling; `Undecided`
/// guarantees some completions still disagree.
pub fn verdict(k: u64, total: u64, attempted: u64, observed: u64, positives: u64) -> Verdict {
    debug_assert!(attempted <= total);
    debug_assert!(observed <= attempted);
    debug_assert!(positives <= observed);
    if total == 0 || observed == 0 {
        // Zero observations: the all-faults completion is a gap, not a
        // decision — nothing is certain yet.
        return Verdict::Undecided;
    }
    let remaining = total - attempted;
    if k > total {
        // The bar saturates at `k > w` only when the window cannot reach
        // it at all; with at least one observation every completion
        // rejects.
        return Verdict::Reject;
    }
    let bar_at_full = edge_corrected_k(k, observed + remaining, total);
    if positives >= bar_at_full {
        return Verdict::Accept;
    }
    if positives + remaining < bar_at_full {
        return Verdict::Reject;
    }
    Verdict::Undecided
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustive engine's decision on a *completed* window: `Some`
    /// indicator under `ImputeBackground`, `None` when the window gapped
    /// (zero observations).
    fn final_decision(k: u64, total: u64, observed: u64, positives: u64) -> Option<bool> {
        if total > 0 && observed == 0 {
            return None;
        }
        Some(positives >= edge_corrected_k(k, observed.max(1), total.max(1)))
    }

    /// Brute-force check that `verdict` is sound *and* tight at one probe
    /// state: enumerate every completion of the remaining units (each
    /// independently fault / negative / positive) and compare.
    fn check_state(k: u64, total: u64, attempted: u64, observed: u64, positives: u64) {
        let v = verdict(k, total, attempted, observed, positives);
        let remaining = usize::try_from(total - attempted).unwrap();
        let mut all_accept = true;
        let mut all_reject = true;
        // Completions are characterized by (m, x): m remaining units
        // observed, x of them positive.
        for m in 0..=remaining {
            for x in 0..=m {
                let m = u64::try_from(m).unwrap();
                let x = u64::try_from(x).unwrap();
                match final_decision(k, total, observed + m, positives + x) {
                    Some(true) => all_reject = false,
                    Some(false) => all_accept = false,
                    None => {
                        // A reachable gap: neither verdict may fire.
                        all_accept = false;
                        all_reject = false;
                    }
                }
            }
        }
        let expected = if all_accept && total > 0 {
            Verdict::Accept
        } else if all_reject && total > 0 {
            Verdict::Reject
        } else {
            Verdict::Undecided
        };
        assert_eq!(
            v, expected,
            "k={k} total={total} attempted={attempted} observed={observed} positives={positives}"
        );
    }

    #[test]
    fn exhaustive_small_windows() {
        for total in 0u64..=8 {
            for k in 1..=total + 2 {
                for attempted in 0..=total {
                    for observed in 0..=attempted {
                        for positives in 0..=observed {
                            check_state(k, total, attempted, observed, positives);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fault_free_fast_paths() {
        // With no faults (observed == attempted) the bounds reduce to the
        // classic forms: accept at c ≥ k, reject at c + (w − j) < k.
        let (k, w) = (3, 50);
        assert_eq!(verdict(k, w, 3, 3, 3), Verdict::Accept);
        assert_eq!(verdict(k, w, 3, 3, 2), Verdict::Undecided);
        assert_eq!(verdict(k, w, 47, 47, 0), Verdict::Undecided);
        assert_eq!(verdict(k, w, 48, 48, 0), Verdict::Reject);
        assert_eq!(verdict(k, w, 49, 49, 2), Verdict::Undecided);
        assert_eq!(verdict(k, w, 50, 50, 2), Verdict::Reject);
        assert_eq!(verdict(k, w, 50, 50, 3), Verdict::Accept);
    }

    #[test]
    fn zero_observations_never_decide() {
        // Even a hopeless count cannot decide while a gap completion is
        // reachable.
        assert_eq!(verdict(5, 4, 0, 0, 0), Verdict::Undecided);
        assert_eq!(verdict(5, 4, 2, 0, 0), Verdict::Undecided);
        // One observation is enough to rule the gap out.
        assert_eq!(verdict(5, 4, 2, 1, 0), Verdict::Reject);
    }

    #[test]
    fn unreachable_bar_rejects_immediately() {
        // k > w: the full-window bar is unreachable; any observation
        // decides.
        assert_eq!(verdict(51, 50, 1, 1, 1), Verdict::Reject);
    }

    #[test]
    fn verdicts_are_monotone_in_further_probes() {
        // Once decided, probing more units (any outcome) never flips or
        // un-decides the verdict — the engine relies on this to recompute
        // verdicts at window end instead of caching them.
        for total in 1u64..=7 {
            for k in 1..=total + 1 {
                for attempted in 0..total {
                    for observed in 0..=attempted {
                        for positives in 0..=observed {
                            let v = verdict(k, total, attempted, observed, positives);
                            if v == Verdict::Undecided {
                                continue;
                            }
                            // Outcomes for one more probe: fault, negative,
                            // positive.
                            let next = [
                                (observed, positives),
                                (observed + 1, positives),
                                (observed + 1, positives + 1),
                            ];
                            for (o2, c2) in next {
                                assert_eq!(
                                    verdict(k, total, attempted + 1, o2, c2),
                                    v,
                                    "k={k} total={total} attempted={attempted} \
                                     observed={observed} positives={positives} -> ({o2},{c2})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn edge_corrected_bar_matches_evaluator_definition() {
        assert_eq!(edge_corrected_k(3, 50, 50), 3);
        assert_eq!(edge_corrected_k(3, 25, 50), 2);
        assert_eq!(edge_corrected_k(3, 1, 50), 1);
        assert_eq!(edge_corrected_k(1, 1, 50), 1);
        assert_eq!(edge_corrected_k(50, 25, 50), 25);
    }
}
