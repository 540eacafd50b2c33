//! Simulated object tracker (CenterTrack stand-in).
//!
//! Assigns stable instance identifiers to detections by greedy IoU
//! association against the previous frames' tracks — the standard
//! tracking-by-detection recipe. The paper uses the tracker during the
//! offline ingestion phase, where clip scores aggregate per-instance
//! detection scores `S_{o_i}^t(v)` over tracking identifiers `t`.
//!
//! Identity switches are injected at the profile's rate so downstream code
//! is exercised against realistic tracker imperfection; the ideal profile
//! disables them.

use crate::api::{Detection, TrackedDetection};
use crate::noise::DetRng;
use crate::profiles::TrackerProfile;
use vaq_types::{BBox, FrameId, ObjectType, TrackId};

#[derive(Debug, Clone)]
struct ActiveTrack {
    id: TrackId,
    object: ObjectType,
    last_bbox: BBox,
    missed: u32,
}

/// Greedy IoU tracker with bounded coasting.
#[derive(Debug, Clone)]
pub struct IouTracker {
    profile: TrackerProfile,
    tracks: Vec<ActiveTrack>,
    next_id: u64,
    rng: DetRng,
}

impl IouTracker {
    /// Creates a tracker with the given association profile.
    pub fn new(profile: TrackerProfile, seed: u64) -> Self {
        Self {
            profile,
            tracks: Vec::new(),
            next_id: 0,
            rng: DetRng::new(seed ^ 0x7124_C4E2_0000_0000),
        }
    }

    /// Simulated per-frame cost, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.profile.latency_ms
    }

    fn fresh_id(&mut self) -> TrackId {
        let id = TrackId::new(self.next_id);
        self.next_id += 1;
        id
    }

    /// Associates the frame's detections with tracks. Must be called in
    /// frame order (tracking is inherently sequential).
    // `order` is a permutation of `0..detections.len()` and the loop fills
    // every slot, so the closing `expect` cannot fire.
    #[allow(clippy::expect_used)]
    pub fn update(&mut self, frame: FrameId, detections: &[Detection]) -> Vec<TrackedDetection> {
        // Highest-score detections claim tracks first.
        let mut order: Vec<usize> = (0..detections.len()).collect();
        order.sort_by(|&a, &b| detections[b].score.total_cmp(&detections[a].score));

        let mut claimed = vec![false; self.tracks.len()];
        let mut out = vec![None; detections.len()];

        for &di in &order {
            let det = &detections[di];
            let mut best: Option<(usize, f32)> = None;
            for (ti, track) in self.tracks.iter().enumerate() {
                if claimed[ti] || track.object != det.object {
                    continue;
                }
                let iou = track.last_bbox.iou(&det.bbox);
                if iou >= self.profile.iou_gate && best.map_or(true, |(_, b)| iou > b) {
                    best = Some((ti, iou));
                }
            }
            let id = match best {
                Some((ti, _)) => {
                    claimed[ti] = true;
                    self.tracks[ti].last_bbox = det.bbox;
                    self.tracks[ti].missed = 0;
                    let switch = self.profile.id_switch_rate > 0.0
                        && self.rng.bernoulli(
                            self.profile.id_switch_rate,
                            frame.raw(),
                            di as u64,
                            0xD0,
                        );
                    if switch {
                        let id = self.fresh_id();
                        self.tracks[ti].id = id;
                        id
                    } else {
                        self.tracks[ti].id
                    }
                }
                None => {
                    let id = self.fresh_id();
                    self.tracks.push(ActiveTrack {
                        id,
                        object: det.object,
                        last_bbox: det.bbox,
                        missed: 0,
                    });
                    claimed.push(true);
                    id
                }
            };
            out[di] = Some(TrackedDetection {
                detection: *det,
                track: id,
            });
        }

        // Coast unmatched tracks; retire the stale ones.
        let max_coast = self.profile.max_coast;
        for (ti, track) in self.tracks.iter_mut().enumerate() {
            if !claimed.get(ti).copied().unwrap_or(false) {
                track.missed += 1;
            }
        }
        self.tracks.retain(|t| t.missed <= max_coast);

        out.into_iter()
            .map(|t| t.expect("every detection tracked"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    fn det(object: u32, cx: f32, cy: f32, score: f64) -> Detection {
        Detection {
            object: ObjectType::new(object),
            score,
            bbox: BBox::from_center(cx, cy, 0.2, 0.2),
            gt_track: None,
        }
    }

    #[test]
    fn stable_identity_across_frames() {
        let mut tr = IouTracker::new(profiles::ideal_tracker(), 1);
        let a = tr.update(FrameId::new(0), &[det(1, 0.5, 0.5, 0.9)]);
        let b = tr.update(FrameId::new(1), &[det(1, 0.51, 0.5, 0.9)]);
        assert_eq!(a[0].track, b[0].track);
    }

    #[test]
    fn new_instance_gets_new_id() {
        let mut tr = IouTracker::new(profiles::ideal_tracker(), 1);
        let a = tr.update(FrameId::new(0), &[det(1, 0.2, 0.2, 0.9)]);
        let b = tr.update(FrameId::new(1), &[det(1, 0.8, 0.8, 0.9)]);
        assert_ne!(
            a[0].track, b[0].track,
            "disjoint boxes are different instances"
        );
    }

    #[test]
    fn different_types_never_associate() {
        let mut tr = IouTracker::new(profiles::ideal_tracker(), 1);
        let a = tr.update(FrameId::new(0), &[det(1, 0.5, 0.5, 0.9)]);
        let b = tr.update(FrameId::new(1), &[det(2, 0.5, 0.5, 0.9)]);
        assert_ne!(a[0].track, b[0].track);
    }

    #[test]
    fn coasting_bridges_short_gaps() {
        let mut tr = IouTracker::new(profiles::ideal_tracker(), 1);
        let a = tr.update(FrameId::new(0), &[det(1, 0.5, 0.5, 0.9)]);
        // Two frames with no detections (≤ max_coast = 3).
        tr.update(FrameId::new(1), &[]);
        tr.update(FrameId::new(2), &[]);
        let b = tr.update(FrameId::new(3), &[det(1, 0.5, 0.5, 0.9)]);
        assert_eq!(a[0].track, b[0].track, "track must survive a short gap");
    }

    #[test]
    fn retirement_after_max_coast() {
        let mut tr = IouTracker::new(profiles::ideal_tracker(), 1);
        let a = tr.update(FrameId::new(0), &[det(1, 0.5, 0.5, 0.9)]);
        for f in 1..=4 {
            tr.update(FrameId::new(f), &[]);
        }
        assert!(tr.tracks.is_empty());
        let b = tr.update(FrameId::new(5), &[det(1, 0.5, 0.5, 0.9)]);
        assert_ne!(a[0].track, b[0].track, "retired tracks do not resurrect");
    }

    #[test]
    fn two_parallel_instances_keep_separate_ids() {
        let mut tr = IouTracker::new(profiles::ideal_tracker(), 1);
        let first = tr.update(
            FrameId::new(0),
            &[det(1, 0.25, 0.5, 0.9), det(1, 0.75, 0.5, 0.8)],
        );
        let second = tr.update(
            FrameId::new(1),
            &[det(1, 0.26, 0.5, 0.9), det(1, 0.74, 0.5, 0.8)],
        );
        assert_eq!(first[0].track, second[0].track);
        assert_eq!(first[1].track, second[1].track);
        assert_ne!(first[0].track, first[1].track);
    }

    /// Frames, out of `frames` showing one still box, whose track id differs
    /// from the previous frame's: the identity switches the tracker injected.
    fn track_changes(mut tr: IouTracker, frames: u64) -> u64 {
        let mut prev = None;
        let mut changes = 0;
        for f in 0..frames {
            let track = tr.update(FrameId::new(f), &[det(1, 0.5, 0.5, 0.9)])[0].track;
            changes += u64::from(prev.is_some_and(|p| p != track));
            prev = Some(track);
        }
        changes
    }

    #[test]
    fn id_switches_injected_at_profile_rate() {
        let mut profile = profiles::centertrack();
        profile.id_switch_rate = 0.2;
        let rate = track_changes(IouTracker::new(profile, 3), 2_000) as f64 / 2_000.0;
        assert!((rate - 0.2).abs() < 0.05, "switch rate {rate}");
    }

    #[test]
    fn ideal_tracker_never_switches() {
        assert_eq!(
            track_changes(IouTracker::new(profiles::ideal_tracker(), 3), 500),
            0
        );
    }
}
