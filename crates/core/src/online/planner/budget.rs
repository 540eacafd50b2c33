//! The planner's adaptive budget ledger.
//!
//! [`BudgetState`] accumulates what the planner has spent and saved so
//! far. It is deliberately tiny — four counters — because everything it
//! influences must stay deterministic and checkpointable: the ledger is
//! carried inside [`crate::online::EngineCheckpoint`] so a resumed engine
//! makes byte-identical probe-order choices to an unbroken run.
//!
//! The only *adaptive* decision the ledger drives is the stratified-order
//! fallback: stratified probing pays a (tiny) bookkeeping cost per clip
//! and reorders a clip's observed-event vectors, so if a stream has gone
//! [`FALLBACK_HORIZON`] planned clips without a single elision — the
//! bounds never bind, e.g. `k` is near the window size and positives are
//! rare-but-late — the planner degrades to sequential order, which is the
//! exhaustive engines' own order. The decision sequence is unaffected
//! either way (DESIGN.md §14); only which calls get skipped first.

/// Planned clips to observe before concluding stratified probing is not
/// paying for itself on this stream.
pub(crate) const FALLBACK_HORIZON: u64 = 64;

/// Cumulative elision accounting for one engine's planner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct BudgetState {
    /// Clips evaluated through the planned path.
    pub(crate) clips_planned: u64,
    /// Planned clips in which at least one model call was elided.
    pub(crate) clips_elided: u64,
    /// Detector invocations elided across all planned clips.
    pub(crate) frames_elided: u64,
    /// Recognizer invocations elided across all planned clips.
    pub(crate) shots_elided: u64,
}

// Every counter reads zero when absent: checkpoints written before the
// planner existed restore an empty ledger.
vaq_types::json_record!(BudgetState: #[default] clips_planned, #[default] clips_elided,
    #[default] frames_elided, #[default] shots_elided);

impl BudgetState {
    /// Folds one planned clip's outcome into the ledger.
    pub(crate) fn record_clip(&mut self, frames_elided: u64, shots_elided: u64) {
        self.clips_planned += 1;
        if frames_elided > 0 || shots_elided > 0 {
            self.clips_elided += 1;
        }
        self.frames_elided += frames_elided;
        self.shots_elided += shots_elided;
    }

    /// Whether stratified probe orders are still worth their bookkeeping:
    /// true until [`FALLBACK_HORIZON`] planned clips have passed without a
    /// single elision.
    pub(crate) fn stratify_productive(&self) -> bool {
        self.clips_planned < FALLBACK_HORIZON || self.clips_elided > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let mut b = BudgetState::default();
        b.record_clip(40, 3);
        b.record_clip(0, 0);
        assert_eq!(b.clips_planned, 2);
        assert_eq!(b.clips_elided, 1);
        assert_eq!(b.frames_elided, 40);
        assert_eq!(b.shots_elided, 3);
    }

    #[test]
    fn stratify_falls_back_only_after_a_dry_horizon() {
        let mut b = BudgetState::default();
        for _ in 0..FALLBACK_HORIZON - 1 {
            b.record_clip(0, 0);
        }
        assert!(b.stratify_productive(), "still inside the horizon");
        b.record_clip(0, 0);
        assert!(!b.stratify_productive(), "horizon crossed with no elision");
        // A single elision anywhere keeps stratification alive for good.
        b.record_clip(1, 0);
        assert!(b.stratify_productive());
    }

    #[test]
    fn legacy_checkpoints_deserialize_with_zeroes() {
        let b: BudgetState = vaq_types::json::from_str("{}").unwrap();
        assert_eq!(b, BudgetState::default());
        let b: BudgetState = vaq_types::json::from_str(r#"{"clips_planned": 3}"#).unwrap();
        assert_eq!(b.clips_planned, 3);
        assert_eq!(b.frames_elided, 0);
    }
}
