//! Bound-driven detector-call elision — the adaptive sampling planner
//! (DESIGN.md §14).
//!
//! The exhaustive engines probe every frame and every shot of every clip,
//! yet a scan-window decision is frequently *forced* long before its
//! window is exhausted: once `c` positives have been observed the clip is
//! certain to accept, and once even an all-positive completion of the
//! remaining units cannot reach the bar the clip is certain to reject.
//! The planner turns those reachability bounds
//! ([`vaq_scanstats::reachability`]) into skipped model invocations while
//! guaranteeing the decision stream is bit-identical to the exhaustive
//! engines':
//!
//! * **Soundness** comes from [`verdict`], which quantifies over every
//!   completion of the window — including faults under the
//!   `ImputeBackground` degradation rule, so elision composes with fault
//!   injection. Zero-observation windows never decide, preserving typed
//!   gap markers exactly.
//! * **Estimator feed-safety** (SVAQD) is enforced through
//!   `ClipPlan::obj_min_accept`: under the Dynamic policy a clip's event
//!   vector feeds the background estimators only when its count stays
//!   below the censor threshold, so the planner may stop probing only
//!   when the observed count has *already reached* that threshold — the
//!   exhaustive engine discards such vectors too, making the truncation
//!   invisible. Certain-reject windows must still be probed to completion
//!   under Dynamic (`ClipPlan::allow_reject` is false) because their
//!   full event vectors do feed the estimators.
//! * **One pass per frame** is preserved: a frame's detector call is
//!   elided only when *every* object predicate over that frame is
//!   settled, mirroring the exhaustive evaluator's single shared detector
//!   pass across the query's conjunction.
//!
//! The planner's only run-time state is the `BudgetState` ledger, which
//! adapts the probe order (`ProbeOrder`) per clip and rides inside the
//! engine checkpoint so resumed runs replan identically.

mod budget;
mod order;

pub(crate) use budget::BudgetState;
pub(crate) use order::ProbeOrder;
pub use vaq_scanstats::{verdict, Verdict};

/// The planner's per-clip probing contract, fixed before the first model
/// call of the clip: probe orders for both occurrence-unit kinds, which
/// verdicts may stop a window early, and the minimum observed count an
/// accept needs before truncation becomes estimator-invisible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClipPlan {
    /// Order in which the clip's frames are probed.
    pub(crate) frame_order: ProbeOrder,
    /// Order in which the clip's shots are probed.
    pub(crate) shot_order: ProbeOrder,
    /// Whether a certain-reject verdict may stop a window early. False
    /// under SVAQD: below-threshold event vectors feed the background
    /// estimators, so rejecting windows must be probed to completion.
    pub(crate) allow_reject: bool,
    /// Per object predicate: minimum observed positives before a
    /// certain-accept may stop the window (the SVAQD censor threshold;
    /// zero under SVAQ, where no event vector is ever fed).
    pub(crate) obj_min_accept: Vec<u64>,
    /// The action predicate's minimum observed positives for an early
    /// accept.
    pub(crate) act_min_accept: u64,
}

impl ClipPlan {
    /// Builds the plan for one clip from the engine's current state.
    ///
    /// `dynamic` selects the SVAQD safety rules (sequential order, no
    /// early reject, censor-threshold accept floors — the `*_min_accept`
    /// values are the caller's current censor thresholds). Under SVAQ the
    /// caller passes zero floors and the plan may stratify each window
    /// whose critical value leaves room for early verdicts
    /// (`2·k ≤ window`), unless the [`BudgetState`] ledger has shown
    /// stratification unproductive on this stream.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        dynamic: bool,
        frames_total: u64,
        shots_total: u64,
        k_crit_obj: &[u64],
        k_crit_act: u64,
        obj_min_accept: Vec<u64>,
        act_min_accept: u64,
        budget: &BudgetState,
    ) -> Self {
        debug_assert_eq!(obj_min_accept.len(), k_crit_obj.len());
        let stratify = !dynamic && budget.stratify_productive();
        let k_obj_max = k_crit_obj.iter().copied().max().unwrap_or(0);
        let frame_order = if stratify && k_obj_max.saturating_mul(2) <= frames_total {
            ProbeOrder::Stratified
        } else {
            ProbeOrder::Sequential
        };
        let shot_order = if stratify && k_crit_act.saturating_mul(2) <= shots_total {
            ProbeOrder::Stratified
        } else {
            ProbeOrder::Sequential
        };
        Self {
            frame_order,
            shot_order,
            allow_reject: !dynamic,
            obj_min_accept,
            act_min_accept,
        }
    }
}

/// Whether one predicate's window is *settled* under a plan: its verdict
/// is decided, an accept has reached the estimator-safety floor, and a
/// reject is permitted to stop early at all. Probing continues until every
/// predicate sharing the window's occurrence units is settled.
pub fn settled(v: Verdict, positives: u64, min_accept: u64, allow_reject: bool) -> bool {
    match v {
        Verdict::Accept => positives >= min_accept,
        Verdict::Reject => allow_reject,
        Verdict::Undecided => false,
    }
}

#[cfg(test)]
mod tests {
    use super::budget::FALLBACK_HORIZON;
    use super::*;

    #[test]
    fn dynamic_plans_are_sequential_and_never_reject_early() {
        let plan = ClipPlan::build(true, 50, 5, &[2], 2, vec![2], 2, &BudgetState::default());
        assert_eq!(plan.frame_order, ProbeOrder::Sequential);
        assert_eq!(plan.shot_order, ProbeOrder::Sequential);
        assert!(!plan.allow_reject);
        assert_eq!(plan.obj_min_accept, vec![2]);
    }

    #[test]
    fn static_plans_stratify_only_roomy_windows() {
        let plan = ClipPlan::build(
            false,
            50,
            5,
            &[3, 25],
            3,
            vec![0, 0],
            0,
            &BudgetState::default(),
        );
        // max k = 25: 50 ≥ 2·25 still holds, so frames stratify; the shot
        // window 5 < 2·3 does not.
        assert_eq!(plan.frame_order, ProbeOrder::Stratified);
        assert_eq!(plan.shot_order, ProbeOrder::Sequential);
        assert!(plan.allow_reject);

        let tight = ClipPlan::build(false, 50, 5, &[26], 2, vec![0], 0, &BudgetState::default());
        assert_eq!(tight.frame_order, ProbeOrder::Sequential);
        assert_eq!(tight.shot_order, ProbeOrder::Stratified);
    }

    #[test]
    fn unproductive_ledger_degrades_to_sequential() {
        let mut budget = BudgetState::default();
        for _ in 0..FALLBACK_HORIZON {
            budget.record_clip(0, 0);
        }
        let plan = ClipPlan::build(false, 50, 5, &[3], 2, vec![0], 0, &budget);
        assert_eq!(plan.frame_order, ProbeOrder::Sequential);
        assert_eq!(plan.shot_order, ProbeOrder::Sequential);
    }

    #[test]
    fn settled_honors_floors_and_reject_gate() {
        assert!(settled(Verdict::Accept, 3, 2, false));
        assert!(!settled(Verdict::Accept, 1, 2, false), "below accept floor");
        assert!(settled(Verdict::Reject, 0, 0, true));
        assert!(!settled(Verdict::Reject, 0, 0, false), "reject gated off");
        assert!(!settled(Verdict::Undecided, 9, 0, true));
    }
}
