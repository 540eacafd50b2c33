//! Scene scripts: the ground-truth timeline of a synthetic video.
//!
//! A [`SceneScript`] records, for a video of `num_frames` frames, every
//! object *instance* (a contiguous appearance of one object of some type,
//! with a moving bounding box and a stable track identifier — what a perfect
//! tracker would output) and every action occurrence (a frame span during
//! which the action is being performed).
//!
//! The script plays the role of the paper's manually-annotated ground truth
//! (§5.1 "for each queried object type, we label the temporal boundaries of
//! the appearances") — except it is exact by construction. It also *drives*
//! the simulated detectors in `vaq-detect`: a detector's true-positive
//! behaviour is conditioned on what the script says is actually visible.

use crate::span::{self, FrameSpan};
use std::collections::BTreeMap;
use vaq_types::conv;
use vaq_types::{
    ActionType, BBox, FrameId, ObjectType, Query, Result, SequenceSet, ShotId, TrackId, VaqError,
    VideoGeometry,
};

/// One contiguous appearance of an object instance, with a linear motion
/// path for its bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstancePath {
    /// Frames during which the instance is visible.
    pub span: FrameSpan,
    /// Track identifier (unique within the script).
    pub track: TrackId,
    /// Box center at the first frame of the span.
    pub center: (f32, f32),
    /// Box width/height (constant over the path).
    pub size: (f32, f32),
    /// Center velocity in normalized units per frame.
    pub velocity: (f32, f32),
}

vaq_types::json_record!(InstancePath: span, track, center, size, velocity);

impl InstancePath {
    /// The instance's bounding box at frame `f`, or `None` if not visible.
    pub fn bbox_at(&self, f: FrameId) -> Option<BBox> {
        if !self.span.contains(f) {
            return None;
        }
        let dt = (f.raw() - self.span.start) as f32;
        let cx = (self.center.0 + self.velocity.0 * dt).clamp(0.02, 0.98);
        let cy = (self.center.1 + self.velocity.1 * dt).clamp(0.02, 0.98);
        Some(BBox::from_center(cx, cy, self.size.0, self.size.1))
    }
}

/// A ground-truth object instance visible on a specific frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibleInstance {
    /// The instance's object type.
    pub object: ObjectType,
    /// The instance's stable track identifier.
    pub track: TrackId,
    /// Its bounding box on this frame.
    pub bbox: BBox,
}

#[derive(Debug, Clone)]
struct TypeTimeline {
    /// Instance paths sorted by span start.
    instances: Vec<InstancePath>,
    /// Longest instance span, bounding the binary-search window for
    /// frame-stabbing queries.
    max_len: u64,
    /// Normalized union of the instance spans (the type's presence spans).
    spans: Vec<FrameSpan>,
}

vaq_types::json_record!(TypeTimeline: instances, max_len, spans);

impl TypeTimeline {
    fn rebuild(&mut self) {
        self.instances.sort_by_key(|i| (i.span.start, i.span.end));
        self.max_len = self
            .instances
            .iter()
            .map(|i| i.span.len())
            .max()
            .unwrap_or(0);
        self.spans = span::normalize_spans(self.instances.iter().map(|i| i.span).collect());
    }

    #[cfg(test)]
    fn visible_at<'a>(&'a self, f: FrameId) -> impl Iterator<Item = &'a InstancePath> + 'a {
        let fr = f.raw();
        let lo = fr.saturating_sub(self.max_len.saturating_sub(1));
        let begin = self.instances.partition_point(|i| i.span.start < lo);
        let end = self.instances.partition_point(|i| i.span.start <= fr);
        self.instances[begin..end]
            .iter()
            .filter(move |i| i.span.contains(f))
    }

    /// The instances that can overlap frames `[lo, hi)`, in instance
    /// order: only spans starting in `[lo - (max_len - 1), hi)` can reach
    /// the range, so two binary searches bound the window. Spans in it that
    /// end by `lo` do not overlap the range.
    fn window(&self, lo: u64, hi: u64) -> &[InstancePath] {
        let from = lo.saturating_sub(self.max_len.saturating_sub(1));
        let begin = self.instances.partition_point(|i| i.span.start < from);
        let end = self.instances.partition_point(|i| i.span.start < hi);
        &self.instances[begin..end]
    }
}

/// The complete ground-truth timeline of one synthetic video.
#[derive(Debug, Clone)]
pub struct SceneScript {
    num_frames: u64,
    geometry: VideoGeometry,
    objects: BTreeMap<ObjectType, TypeTimeline>,
    actions: BTreeMap<ActionType, Vec<ActionSpan>>,
}

vaq_types::json_record!(SceneScript: num_frames, geometry, objects, actions);

/// One action occurrence: its frames plus a *prominence* factor in
/// `(0, 1]` modelling how clearly the action reads on screen (close-up vs
/// distant). Prominence scales the simulated recognizer's confidence, so
/// clip scores of prominent scenes are high across all queried predicates —
/// the cross-table score correlation real footage exhibits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ActionSpan {
    /// Frames covered by the occurrence.
    pub span: FrameSpan,
    /// Prominence factor in `(0, 1]`.
    pub prominence: f32,
}

vaq_types::json_record!(ActionSpan: span, prominence);

impl SceneScript {
    /// Recomputes derived per-type indexes (sort order, stabbing bounds,
    /// normalized spans) — call after deserializing a script whose JSON may
    /// have been produced by an older writer or edited by hand.
    pub(crate) fn rebuild_indexes(&mut self) {
        for timeline in self.objects.values_mut() {
            timeline.rebuild();
        }
        for occurrences in self.actions.values_mut() {
            occurrences.sort_by_key(|o| (o.span.start, o.span.end));
        }
    }

    /// Total frames in the video.
    #[inline]
    pub fn num_frames(&self) -> u64 {
        self.num_frames
    }

    /// The video's shot/clip geometry.
    #[inline]
    pub fn geometry(&self) -> &VideoGeometry {
        &self.geometry
    }

    /// Number of complete clips.
    #[inline]
    pub fn num_clips(&self) -> u64 {
        self.geometry.num_clips(self.num_frames)
    }

    /// Number of complete shots.
    #[inline]
    pub fn num_shots(&self) -> u64 {
        self.geometry.num_shots(self.num_frames)
    }

    /// Object types that appear somewhere in the script.
    pub fn object_types(&self) -> impl Iterator<Item = ObjectType> + '_ {
        self.objects.keys().copied()
    }

    /// Action types that occur somewhere in the script.
    pub fn action_types(&self) -> impl Iterator<Item = ActionType> + '_ {
        self.actions.keys().copied()
    }

    /// Normalized presence spans of object type `o` (empty if absent).
    pub fn object_spans(&self, o: ObjectType) -> &[FrameSpan] {
        self.objects.get(&o).map_or(&[], |t| &t.spans)
    }

    /// Occurrence spans of action `a` (sorted by start; empty if absent).
    pub(crate) fn action_occurrences(&self, a: ActionType) -> &[ActionSpan] {
        self.actions.get(&a).map_or(&[], Vec::as_slice)
    }

    /// Normalized occurrence frame spans of action `a` (empty if absent).
    pub fn action_spans(&self, a: ActionType) -> Vec<FrameSpan> {
        span::normalize_spans(self.action_occurrences(a).iter().map(|o| o.span).collect())
    }

    /// All instance paths of object type `o`.
    #[cfg(test)]
    fn instances_of(&self, o: ObjectType) -> &[InstancePath] {
        self.objects.get(&o).map_or(&[], |t| &t.instances)
    }

    /// Ground-truth instances visible on frame `f`: the per-frame oracle
    /// that materialized clips are checked against.
    #[cfg(test)]
    pub(crate) fn visible_at(&self, f: FrameId) -> Vec<VisibleInstance> {
        let mut out = Vec::new();
        for (&object, timeline) in &self.objects {
            for inst in timeline.visible_at(f) {
                // bbox_at is Some by construction (span contains f).
                if let Some(bbox) = inst.bbox_at(f) {
                    out.push(VisibleInstance {
                        object,
                        track: inst.track,
                        bbox,
                    });
                }
            }
        }
        out
    }

    /// The instance paths that overlap frames `first .. first + len`, each
    /// with its type, in type order and then instance order. The paths of
    /// frame `first + i` that contain it are, in this order, exactly
    /// `visible_at(first + i)`'s instances. One window search per type
    /// covers the whole range, and the list is allocated once, sized by
    /// the windows.
    pub(crate) fn paths_over(&self, first: FrameId, len: u64) -> Vec<(ObjectType, InstancePath)> {
        let (lo, hi) = (first.raw(), first.raw() + len);
        let windows = || {
            self.objects
                .iter()
                .map(move |(&object, timeline)| (object, timeline.window(lo, hi)))
        };
        let mut paths = Vec::with_capacity(windows().map(|(_, w)| w.len()).sum());
        for (object, window) in windows() {
            paths.extend(
                window
                    .iter()
                    .filter(|inst| inst.span.end > lo)
                    .map(|&inst| (object, inst)),
            );
        }
        paths
    }

    /// Ground-truth actions of shots `first .. first + len`, flat: the
    /// arena holds shot after shot, and `ends[j]` is where shot
    /// `first + j`'s run ends, so that run equals `shot_actions(first + j)`.
    /// A shot holds at most one entry per action type, so the arena is
    /// allocated once, at that bound.
    pub(crate) fn actions_over(
        &self,
        first: ShotId,
        len: u64,
    ) -> (Vec<(ActionType, f32)>, Vec<usize>) {
        let bound = conv::len_u64(self.actions.len()).saturating_mul(len);
        let mut actions = Vec::with_capacity(conv::capacity_hint(bound));
        let mut ends = Vec::with_capacity(conv::capacity_hint(len));
        for s in first.raw()..first.raw() + len {
            actions.extend(self.actions_on(ShotId::new(s)));
            ends.push(actions.len());
        }
        (actions, ends)
    }

    /// Ground-truth actions active on shot `s` (with prominence): an action
    /// counts when it covers at least half of the shot's frames (an action
    /// recognizer sees the shot as containing the action only if most of
    /// the shot is the action). Prominence is the maximum over covering
    /// occurrences.
    #[cfg(test)]
    pub(crate) fn shot_actions(&self, s: ShotId) -> Vec<(ActionType, f32)> {
        self.actions_on(s).collect()
    }

    /// The half-coverage rule of [`Self::shot_actions`], lazily.
    fn actions_on(&self, s: ShotId) -> impl Iterator<Item = (ActionType, f32)> + '_ {
        let fps = self.geometry.frames_per_shot as u64;
        let shot_span = FrameSpan::new(s.raw() * fps, (s.raw() + 1) * fps);
        let needed = fps.div_ceil(2);
        self.actions.iter().filter_map(move |(&a, occurrences)| {
            let covered: u64 = occurrences
                .iter()
                .map(|o| o.span.overlap_len(&shot_span))
                .sum();
            if covered < needed {
                return None;
            }
            let prominence = occurrences
                .iter()
                .filter(|o| o.span.overlap_len(&shot_span) > 0)
                .map(|o| o.prominence)
                .fold(0.0f32, f32::max);
            Some((a, prominence))
        })
    }

    /// Frame-level ground truth for a query: the intersection of the action
    /// spans with every queried object's presence spans (paper §5.1: "The
    /// intersection of the temporal intervals of all the query-specified
    /// objects and the action will be considered as the result sequence").
    pub fn ground_truth_spans(&self, query: &Query) -> Vec<FrameSpan> {
        let mut acc: Vec<FrameSpan> = self.action_spans(query.action);
        for &o in &query.objects {
            acc = span::intersect_spans(&acc, self.object_spans(o));
            if acc.is_empty() {
                break;
            }
        }
        acc
    }

    /// Clip-level ground truth for a query at coverage fraction `coverage`
    /// (0.5 reproduces the evaluation convention used throughout).
    pub fn ground_truth(&self, query: &Query, coverage: f64) -> SequenceSet {
        span::spans_to_clip_set(
            &self.ground_truth_spans(query),
            &self.geometry,
            self.num_frames,
            coverage,
        )
    }
}

/// Builder for [`SceneScript`]. Tracks identifiers automatically and
/// validates every span against the video length.
#[derive(Debug, Clone)]
pub struct SceneScriptBuilder {
    num_frames: u64,
    geometry: VideoGeometry,
    objects: BTreeMap<ObjectType, Vec<InstancePath>>,
    actions: BTreeMap<ActionType, Vec<ActionSpan>>,
    next_track: u64,
}

impl SceneScriptBuilder {
    /// Starts a script for a video of `num_frames` frames.
    pub fn new(num_frames: u64, geometry: VideoGeometry) -> Self {
        Self {
            num_frames,
            geometry,
            objects: BTreeMap::new(),
            actions: BTreeMap::new(),
            next_track: 0,
        }
    }

    fn check_span(&self, start: u64, end: u64) -> Result<FrameSpan> {
        if start >= end {
            return Err(VaqError::InvalidConfig(format!(
                "empty or inverted span [{start}, {end})"
            )));
        }
        if end > self.num_frames {
            return Err(VaqError::InvalidConfig(format!(
                "span [{start}, {end}) exceeds video length {}",
                self.num_frames
            )));
        }
        Ok(FrameSpan::new(start, end))
    }

    /// Adds an object instance with an explicit motion path. Returns the
    /// assigned track identifier.
    pub fn object_instance(
        &mut self,
        object: ObjectType,
        start: u64,
        end: u64,
        center: (f32, f32),
        size: (f32, f32),
        velocity: (f32, f32),
    ) -> Result<TrackId> {
        let span = self.check_span(start, end)?;
        let track = TrackId::new(self.next_track);
        self.next_track += 1;
        self.objects.entry(object).or_default().push(InstancePath {
            span,
            track,
            center,
            size,
            velocity,
        });
        Ok(track)
    }

    /// Adds an object instance with a deterministic default path derived
    /// from the track index (stationary placements spread over the frame).
    pub fn object_span(&mut self, object: ObjectType, start: u64, end: u64) -> Result<TrackId> {
        let idx = self.next_track as f32;
        let cx = 0.15 + (idx * 0.37).fract() * 0.7;
        let cy = 0.15 + (idx * 0.59).fract() * 0.7;
        self.object_instance(object, start, end, (cx, cy), (0.2, 0.25), (0.0, 0.0))
    }

    /// Adds an action occurrence at full prominence.
    pub fn action_span(&mut self, action: ActionType, start: u64, end: u64) -> Result<&mut Self> {
        self.action_occurrence(action, start, end, 1.0)
    }

    /// Adds an action occurrence with explicit prominence in `(0, 1]`.
    pub fn action_occurrence(
        &mut self,
        action: ActionType,
        start: u64,
        end: u64,
        prominence: f32,
    ) -> Result<&mut Self> {
        if !(prominence > 0.0 && prominence <= 1.0) {
            return Err(VaqError::InvalidConfig(format!(
                "prominence {prominence} outside (0, 1]"
            )));
        }
        let span = self.check_span(start, end)?;
        self.actions
            .entry(action)
            .or_default()
            .push(ActionSpan { span, prominence });
        Ok(self)
    }

    /// Finalizes the script (sorts and indexes timelines).
    pub fn build(self) -> SceneScript {
        let objects = self
            .objects
            .into_iter()
            .map(|(o, instances)| {
                let mut tl = TypeTimeline {
                    instances,
                    max_len: 0,
                    spans: Vec::new(),
                };
                tl.rebuild();
                (o, tl)
            })
            .collect();
        let actions = self
            .actions
            .into_iter()
            .map(|(a, mut occurrences)| {
                occurrences.sort_by_key(|o| (o.span.start, o.span.end));
                (a, occurrences)
            })
            .collect();
        SceneScript {
            num_frames: self.num_frames,
            geometry: self.geometry,
            objects,
            actions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::ClipInterval;

    const G: VideoGeometry = VideoGeometry::PAPER_DEFAULT;

    fn o(i: u32) -> ObjectType {
        ObjectType::new(i)
    }
    fn a(i: u32) -> ActionType {
        ActionType::new(i)
    }

    fn demo_script() -> SceneScript {
        let mut b = SceneScriptBuilder::new(1000, G);
        b.object_span(o(1), 100, 400).unwrap();
        b.object_span(o(1), 350, 600).unwrap(); // overlapping second instance
        b.object_span(o(2), 0, 1000).unwrap();
        b.action_span(a(0), 200, 500).unwrap();
        b.build()
    }

    #[test]
    fn spans_are_normalized_per_type() {
        let s = demo_script();
        assert_eq!(s.object_spans(o(1)), &[FrameSpan::new(100, 600)]);
        assert_eq!(s.object_spans(o(9)), &[] as &[FrameSpan]);
    }

    #[test]
    fn visible_at_stabbing() {
        let s = demo_script();
        // Frame 375: both o1 instances plus the o2 instance.
        let vis = s.visible_at(FrameId::new(375));
        assert_eq!(vis.len(), 3);
        assert_eq!(vis.iter().filter(|v| v.object == o(1)).count(), 2);
        // Distinct tracks for the two o1 instances.
        let mut tracks: Vec<_> = vis.iter().map(|v| v.track).collect();
        tracks.sort();
        tracks.dedup();
        assert_eq!(tracks.len(), 3);
        // Frame 50: only o2.
        assert_eq!(s.visible_at(FrameId::new(50)).len(), 1);
    }

    #[test]
    fn visible_at_matches_spans() {
        let s = demo_script();
        let shows_o1 = |f: u64| {
            s.visible_at(FrameId::new(f))
                .iter()
                .any(|v| v.object == o(1))
        };
        assert!(shows_o1(100));
        assert!(!shows_o1(99));
        assert!(!shows_o1(600));
    }

    #[test]
    fn shot_actions_half_coverage() {
        let s = demo_script();
        // Shot 20 = frames 200..210 — fully inside the action span.
        assert_eq!(s.shot_actions(ShotId::new(20)), vec![(a(0), 1.0)]);
        // Shot 19 = frames 190..200 — zero coverage.
        assert!(s.shot_actions(ShotId::new(19)).is_empty());
        // Shot 49 = frames 490..500, the action's last full shot.
        assert_eq!(s.shot_actions(ShotId::new(49)), vec![(a(0), 1.0)]);
        // Shot 50 = frames 500..510 — past the action's end.
        assert!(s.shot_actions(ShotId::new(50)).is_empty());
    }

    #[test]
    fn shot_action_boundary_half() {
        let mut b = SceneScriptBuilder::new(100, G);
        // Covers frames 5..10 of shot 0 — exactly half of a 10-frame shot.
        b.action_span(a(1), 5, 10).unwrap();
        let s = b.build();
        assert_eq!(s.shot_actions(ShotId::new(0)), vec![(a(1), 1.0)]);
        // 4 of 10 frames is below half.
        let mut b = SceneScriptBuilder::new(100, G);
        b.action_span(a(1), 6, 10).unwrap();
        assert!(b.build().shot_actions(ShotId::new(0)).is_empty());
    }

    #[test]
    fn ground_truth_is_intersection() {
        let s = demo_script();
        let q = Query::new(a(0), vec![o(1), o(2)]);
        // action 200..500 ∩ o1 100..600 ∩ o2 0..1000 = 200..500.
        assert_eq!(s.ground_truth_spans(&q), vec![FrameSpan::new(200, 500)]);
        // Clips: 200..500 covers clips 4..9 fully.
        let gt = s.ground_truth(&q, 0.5);
        assert_eq!(gt.intervals(), &[ClipInterval::new(4, 9)]);
    }

    #[test]
    fn ground_truth_empty_when_object_missing() {
        let s = demo_script();
        let q = Query::new(a(0), vec![o(7)]);
        assert!(s.ground_truth_spans(&q).is_empty());
        assert!(s.ground_truth(&q, 0.5).is_empty());
    }

    #[test]
    fn builder_validates_spans() {
        let mut b = SceneScriptBuilder::new(100, G);
        assert!(b.object_span(o(1), 50, 50).is_err());
        assert!(b.object_span(o(1), 90, 120).is_err());
        assert!(b.action_span(a(0), 20, 10).is_err());
        assert!(b.object_span(o(1), 0, 100).is_ok());
    }

    #[test]
    fn bbox_moves_along_path() {
        let mut b = SceneScriptBuilder::new(100, G);
        b.object_instance(o(1), 0, 50, (0.3, 0.3), (0.1, 0.1), (0.01, 0.0))
            .unwrap();
        let s = b.build();
        let inst = &s.instances_of(o(1))[0];
        let b0 = inst.bbox_at(FrameId::new(0)).unwrap();
        let b10 = inst.bbox_at(FrameId::new(10)).unwrap();
        assert!((b10.center().0 - b0.center().0 - 0.1).abs() < 1e-5);
        assert_eq!(inst.bbox_at(FrameId::new(50)), None);
    }

    #[test]
    fn counts_match_geometry() {
        let s = demo_script();
        assert_eq!(s.num_clips(), 20);
        assert_eq!(s.num_shots(), 100);
    }
}

/// `VideoStream::materialize` against the per-frame oracle: every frame's
/// instances, derived from the clip's paths, must equal `visible_at` on that
/// frame, bit for bit and in order, every frame's paths must be those
/// instances' paths, every shot's slice of the action arena must equal
/// `shot_actions`, and frame and shot ids run consecutively from the clip's
/// first frame and first shot.
#[cfg(test)]
mod materialize_oracle {
    use super::*;
    use crate::frame::VideoStream;
    use vaq_types::rng::{for_cases, splitmix64};
    use vaq_types::ClipId;

    const G: VideoGeometry = VideoGeometry::PAPER_DEFAULT;

    fn o(i: u32) -> ObjectType {
        ObjectType::new(i)
    }
    fn a(i: u32) -> ActionType {
        ActionType::new(i)
    }

    type Bits = (ObjectType, TrackId, [u32; 4]);

    fn bits(v: impl IntoIterator<Item = VisibleInstance>) -> Vec<Bits> {
        v.into_iter()
            .map(|i| {
                let b = i.bbox;
                let coords = [
                    b.x0.to_bits(),
                    b.y0.to_bits(),
                    b.x1.to_bits(),
                    b.y1.to_bits(),
                ];
                (i.object, i.track, coords)
            })
            .collect()
    }

    fn shot_bits(v: &[(ActionType, f32)]) -> Vec<(ActionType, u32)> {
        v.iter().map(|&(a, p)| (a, p.to_bits())).collect()
    }

    /// Checks every clip of `s` against the oracle, through both the
    /// indexed (`frame(i)`, `shot(j)`) and the iterating (`frames()`,
    /// `shots()`) views; returns how many instance sightings the clips
    /// carried.
    fn check_all_clips(s: &SceneScript) -> usize {
        let g = s.geometry();
        let stream = VideoStream::new(s);
        let mut seen = 0;
        for c in 0..s.num_clips() {
            let clip = stream.materialize(ClipId::new(c));
            assert_eq!(clip.id, ClipId::new(c));
            assert_eq!(clip.frames().len() as u64, g.frames_per_clip(), "clip {c}");
            assert_eq!(clip.num_frames(), clip.frames().len(), "clip {c}");
            let first = g.first_frame_of_clip(clip.id).raw();
            for (i, frame) in clip.frames().enumerate() {
                let want_id = FrameId::new(first + i as u64);
                assert_eq!(frame.id, want_id, "clip {c}: frame ids");
                assert_eq!(clip.frame(i).id, want_id, "clip {c}: frame ids");
                let want = s.visible_at(want_id);
                seen += want.len();
                let want = bits(want);
                assert_eq!(bits(frame.instances()), want, "frame {want_id}");
                assert_eq!(bits(clip.frame(i).instances()), want, "frame {want_id}");
                let paths: Vec<(ObjectType, TrackId)> = frame
                    .paths()
                    .map(|(object, inst)| (object, inst.track))
                    .collect();
                let tracks: Vec<(ObjectType, TrackId)> = want
                    .iter()
                    .map(|&(object, track, _)| (object, track))
                    .collect();
                assert_eq!(paths, tracks, "frame {want_id}");
            }
            assert_eq!(clip.shots().len() as u64, g.shots_in_clip(), "clip {c}");
            assert_eq!(clip.num_shots(), clip.shots().len(), "clip {c}");
            let first = g.first_shot_of_clip(clip.id).raw();
            for (j, shot) in clip.shots().enumerate() {
                let want_id = ShotId::new(first + j as u64);
                assert_eq!(shot.id, want_id, "clip {c}: shot ids");
                assert_eq!(clip.shot(j).id, want_id, "clip {c}: shot ids");
                let want = shot_bits(&s.shot_actions(want_id));
                assert_eq!(shot_bits(shot.actions), want, "shot {want_id}");
                assert_eq!(shot_bits(clip.shot(j).actions), want, "shot {want_id}");
            }
        }
        seen
    }

    #[test]
    fn instance_crossing_a_clip_boundary() {
        let mut b = SceneScriptBuilder::new(200, G);
        b.object_instance(o(1), 40, 60, (0.3, 0.4), (0.1, 0.1), (0.01, -0.005))
            .unwrap();
        let s = b.build();
        assert_eq!(check_all_clips(&s), 20);
        let stream = VideoStream::new(&s);
        let (clip0, clip1) = (
            stream.materialize(ClipId::new(0)),
            stream.materialize(ClipId::new(1)),
        );
        assert_eq!(clip0.frame(49).instances().count(), 1);
        assert_eq!(clip1.frame(9).instances().count(), 1);
        assert_eq!(clip1.frame(10).instances().count(), 0);
    }

    #[test]
    fn path_inside_a_clip_is_seen_only_on_its_span() {
        let mut b = SceneScriptBuilder::new(200, G);
        b.object_instance(o(1), 62, 71, (0.5, 0.5), (0.1, 0.1), (0.01, 0.0))
            .unwrap();
        b.object_span(o(2), 0, 200).unwrap();
        let s = b.build();
        assert_eq!(check_all_clips(&s), 9 + 200);
        // Clip 1 covers frames 50..100; the o1 path starts and ends inside.
        let clip = VideoStream::new(&s).materialize(ClipId::new(1));
        for frame in clip.frames() {
            let on = (62..71).contains(&frame.id.raw());
            let o1 = |object: ObjectType| object == o(1);
            assert_eq!(frame.instances().any(|i| o1(i.object)), on, "{}", frame.id);
            assert_eq!(
                frame.paths().any(|(object, _)| o1(object)),
                on,
                "{}",
                frame.id
            );
            assert_eq!(
                frame.instances().count(),
                1 + usize::from(on),
                "{}",
                frame.id
            );
        }
    }

    #[test]
    fn one_frame_instance() {
        let mut b = SceneScriptBuilder::new(200, G);
        b.object_span(o(2), 75, 76).unwrap();
        b.object_span(o(2), 99, 100).unwrap();
        b.object_span(o(2), 100, 101).unwrap();
        let s = b.build();
        assert_eq!(check_all_clips(&s), 3);
    }

    #[test]
    fn instance_longer_than_a_clip() {
        let mut b = SceneScriptBuilder::new(400, G);
        // A long instance widens the type's search window; the short ones
        // after it must still be found exactly where they are.
        b.object_instance(o(3), 10, 180, (0.2, 0.2), (0.1, 0.2), (0.002, 0.001))
            .unwrap();
        b.object_span(o(3), 200, 205).unwrap();
        b.object_span(o(3), 249, 251).unwrap();
        b.object_span(o(3), 390, 400).unwrap();
        let s = b.build();
        assert_eq!(check_all_clips(&s), 170 + 5 + 2 + 10);
    }

    #[test]
    fn nested_instances_of_one_type() {
        let mut b = SceneScriptBuilder::new(300, G);
        b.object_span(o(4), 100, 200).unwrap();
        b.object_span(o(4), 120, 130).unwrap();
        b.object_span(o(4), 125, 126).unwrap();
        b.object_span(o(4), 100, 150).unwrap();
        b.object_span(o(5), 110, 140).unwrap();
        let s = b.build();
        assert_eq!(check_all_clips(&s), 100 + 10 + 1 + 50 + 30);
        // Type order first, then instance order (start, end).
        let clip = VideoStream::new(&s).materialize(ClipId::new(2));
        let order: Vec<(ObjectType, u64)> = clip
            .frame(25)
            .instances()
            .map(|i| (i.object, i.track.raw()))
            .collect();
        assert_eq!(
            order,
            vec![(o(4), 3), (o(4), 0), (o(4), 1), (o(4), 2), (o(5), 4)]
        );
    }

    #[test]
    fn type_with_no_instances() {
        let mut b = SceneScriptBuilder::new(200, G);
        b.object_span(o(1), 30, 90).unwrap();
        b.object_span(o(7), 60, 70).unwrap();
        let mut s = b.build();
        // A deserialized script can carry a type whose timeline is empty.
        s.objects.insert(
            o(3),
            TypeTimeline {
                instances: Vec::new(),
                max_len: 0,
                spans: Vec::new(),
            },
        );
        s.rebuild_indexes();
        assert_eq!(check_all_clips(&s), 60 + 10);
        assert!(s
            .visible_at(FrameId::new(65))
            .iter()
            .all(|v| v.object != o(3)));
    }

    #[test]
    fn last_clip_and_ragged_tail() {
        // 520 frames: 10 complete clips; frames 500..520 are a dropped tail.
        let mut b = SceneScriptBuilder::new(520, G);
        b.object_span(o(1), 450, 520).unwrap();
        b.object_span(o(2), 499, 500).unwrap();
        b.object_span(o(2), 0, 520).unwrap();
        b.action_occurrence(a(0), 480, 520, 0.4).unwrap();
        b.action_occurrence(a(0), 470, 486, 0.9).unwrap();
        let s = b.build();
        assert_eq!(s.num_clips(), 10);
        assert_eq!(check_all_clips(&s), 50 + 1 + 500);
        let last = VideoStream::new(&s).last().unwrap();
        assert_eq!(last.id, ClipId::new(9));
        assert_eq!(last.frames().last().unwrap().instances().count(), 3);
        assert_eq!(last.shot(4).actions, [(a(0), 0.4)]);
    }

    #[test]
    fn clip_without_ground_truth_has_empty_slices() {
        let mut b = SceneScriptBuilder::new(200, G);
        b.object_span(o(1), 0, 40).unwrap();
        b.action_span(a(0), 10, 30).unwrap();
        b.object_span(o(2), 160, 200).unwrap();
        let s = b.build();
        assert_eq!(check_all_clips(&s), 40 + 40);
        // Clip 1 (frames 50..100, shots 5..10) sees nothing at all, yet
        // keeps its full geometry.
        let clip = VideoStream::new(&s).materialize(ClipId::new(1));
        assert_eq!((clip.num_frames(), clip.num_shots()), (50, 5));
        assert!(clip.frames().all(|f| f.instances().next().is_none()));
        assert!(clip.frames().all(|f| f.paths().next().is_none()));
        assert!(clip.shots().all(|sh| sh.actions.is_empty()));
        assert_eq!(clip.frame(0).id, FrameId::new(50));
        assert_eq!(clip.shot(4).id, ShotId::new(9));
        // A script with no instances and no actions at all.
        let empty = SceneScriptBuilder::new(100, G).build();
        assert_eq!(check_all_clips(&empty), 0);
    }

    /// A random script: a random geometry and length, up to five object
    /// types with instances from one frame to several clips long (some
    /// nested, some moving), and up to three actions.
    fn random_script(seed: u64) -> SceneScript {
        let mut st = seed;
        let mut next = |n: u64| splitmix64(&mut st) % n;
        let geometry = VideoGeometry::new(1 + next(12) as u32, 1 + next(6) as u32, 30).unwrap();
        let num_frames = 1 + next(900);
        let mut b = SceneScriptBuilder::new(num_frames, geometry);
        for t in 0..next(6) as u32 {
            let long = next(3) == 0;
            for _ in 0..next(12) {
                let start = next(num_frames);
                let max_len = if long { num_frames } else { 1 + next(40) };
                let end = (start + 1 + next(max_len)).min(num_frames);
                let center = (next(100) as f32 / 100.0, next(100) as f32 / 100.0);
                let velocity = ((next(21) as f32 - 10.0) / 500.0, 0.0);
                b.object_instance(o(t), start, end, center, (0.1, 0.2), velocity)
                    .unwrap();
            }
        }
        for act in 0..next(4) as u32 {
            for _ in 0..next(5) {
                let start = next(num_frames);
                let end = (start + 1 + next(60)).min(num_frames);
                let prominence = (1 + next(10)) as f32 / 10.0;
                b.action_occurrence(a(act), start, end, prominence).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn pinned_sweep_matches_per_frame_oracle() {
        let mut seen = 0;
        let mut state = 0x5EED_F4A3_u64;
        for _ in 0..300 {
            seen += check_all_clips(&random_script(splitmix64(&mut state)));
        }
        assert!(seen > 10_000, "sweep too sparse: {seen} sightings");
    }

    #[test]
    fn prop_materialize_matches_per_frame_oracle() -> Result<(), String> {
        for_cases(
            "prop_materialize_matches_per_frame_oracle",
            64,
            |r| r.next_u64(),
            |&seed| {
                check_all_clips(&random_script(seed));
            },
        )
    }
}
