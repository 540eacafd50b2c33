//! Materialized clips and the streaming clip iterator.
//!
//! The online algorithms (paper Algorithm 1/3) consume a video stream one
//! clip at a time: `c ← X.next()`. [`VideoStream`] provides exactly that
//! over a [`SceneScript`], materializing a [`ClipView`] per step: the
//! ground-truth visible instances of the clip's frames (which the simulated
//! detectors condition on) and the ground-truth actions of its shots.
//!
//! A [`ClipView`] stores no per-frame boxes. It keeps the instance paths
//! that cross the clip's frame range, each with its object type, in type
//! order and then instance order: per type, two binary searches (bounded by
//! the type's longest instance) find them. Its shots' actions sit in one
//! arena, cut into shots by per-shot end offsets. That is three buffers per
//! clip, however many frames and shots it has.
//!
//! [`Frame`] and [`Shot`] are `Copy` views: [`ClipView::frame`] and
//! [`ClipView::frames`] hand them out, and a model reads a view without
//! copying anything. A frame is its id plus a borrow of the clip's paths.
//! [`Frame::instances`] yields the frame's visible instances and computes
//! each box as it yields it, so a box is computed only when it is read;
//! [`Frame::paths`] yields the paths that contain the frame, with no box,
//! so a model can skip the instances it does not report before any box
//! work. Every frame's instances equal the test-only per-frame oracle
//! `SceneScript::visible_at` on that frame, in the same order (type order,
//! then instance order), and every shot's slice equals
//! `SceneScript::shot_actions`; the oracle tests in `script.rs` check
//! exactly that.

use crate::script::{InstancePath, SceneScript, VisibleInstance};
use vaq_types::conv;
use vaq_types::{ActionType, ClipId, FrameId, ObjectType, ShotId};

/// One frame of a clip: its index plus the instance paths of the clip,
/// from which it derives the ground-truth instances a perfect detector
/// would see.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The frame index.
    pub id: FrameId,
    /// The clip's paths (type order, then instance order); not all of them
    /// contain this frame.
    paths: &'a [(ObjectType, InstancePath)],
}

impl<'a> Frame<'a> {
    /// The paths visible on the frame, each with its object type, in type
    /// order and then instance order. No box is computed.
    pub fn paths(&self) -> impl Iterator<Item = (ObjectType, &'a InstancePath)> + 'a {
        let f = self.id;
        self.paths
            .iter()
            .filter(move |(_, inst)| inst.span.contains(f))
            .map(|(object, inst)| (*object, inst))
    }

    /// Ground-truth instances visible on the frame, in the order of
    /// `SceneScript::visible_at`; each box is computed as it is yielded.
    pub fn instances(&self) -> impl Iterator<Item = VisibleInstance> + 'a {
        let f = self.id;
        self.paths.iter().filter_map(move |(object, inst)| {
            // bbox_at is Some exactly when the span contains f.
            inst.bbox_at(f).map(|bbox| VisibleInstance {
                object: *object,
                track: inst.track,
                bbox,
            })
        })
    }
}

/// One shot of a clip: its index plus the ground-truth actions active on
/// it (half-coverage rule, see `SceneScript::shot_actions`), each with its
/// scene prominence, borrowed from the clip's action arena.
#[derive(Debug, Clone, Copy)]
pub struct Shot<'a> {
    /// The shot index.
    pub id: ShotId,
    /// Ground-truth actions active on the shot, with prominence in `(0,1]`.
    pub actions: &'a [(ActionType, f32)],
}

/// One materialized clip: the unit the online algorithms evaluate (see the
/// module docs for its layout).
#[derive(Debug, Clone)]
pub struct ClipView {
    /// The clip index (`cid`).
    pub id: ClipId,
    first_frame: FrameId,
    num_frames: usize,
    first_shot: ShotId,
    /// The instance paths that overlap the clip's frames, with their types,
    /// in type order, then instance order.
    paths: Vec<(ObjectType, InstancePath)>,
    /// Every shot's actions, shot after shot.
    actions: Vec<(ActionType, f32)>,
    /// `actions[shot_ends[j - 1]..shot_ends[j]]` is shot `j`'s slice (from
    /// 0 for shot 0).
    shot_ends: Vec<usize>,
}

impl ClipView {
    /// Number of frames in the clip (the size of the paper's `V(c)`).
    #[inline]
    pub fn num_frames(&self) -> usize {
        self.num_frames
    }

    /// The clip's `i`-th frame. Panics if `i >= num_frames()`.
    #[inline]
    pub fn frame(&self, i: usize) -> Frame<'_> {
        assert!(i < self.num_frames, "frame {i} of {}", self.num_frames);
        Frame {
            id: FrameId::new(self.first_frame.raw() + conv::len_u64(i)),
            paths: &self.paths,
        }
    }

    /// The clip's frames in order (the paper's `V(c)`).
    pub fn frames(&self) -> impl ExactSizeIterator<Item = Frame<'_>> + '_ {
        (0..self.num_frames()).map(|i| self.frame(i))
    }

    /// Number of shots in the clip (the size of the paper's `S(c)`).
    #[inline]
    pub fn num_shots(&self) -> usize {
        self.shot_ends.len()
    }

    /// The clip's `j`-th shot. Panics if `j >= num_shots()`.
    #[inline]
    pub fn shot(&self, j: usize) -> Shot<'_> {
        let start = if j == 0 { 0 } else { self.shot_ends[j - 1] };
        Shot {
            id: ShotId::new(self.first_shot.raw() + conv::len_u64(j)),
            actions: &self.actions[start..self.shot_ends[j]],
        }
    }

    /// The clip's shots in order (the paper's `S(c)`).
    pub fn shots(&self) -> impl ExactSizeIterator<Item = Shot<'_>> + '_ {
        (0..self.num_shots()).map(|j| self.shot(j))
    }
}

/// Clip-at-a-time iterator over a scene script — the paper's stream `X`.
#[derive(Debug, Clone)]
pub struct VideoStream<'a> {
    script: &'a SceneScript,
    next_clip: u64,
    num_clips: u64,
}

impl<'a> VideoStream<'a> {
    /// Opens a stream at clip 0.
    pub fn new(script: &'a SceneScript) -> Self {
        Self {
            script,
            next_clip: 0,
            num_clips: script.num_clips(),
        }
    }

    /// The underlying script.
    #[inline]
    pub fn script(&self) -> &'a SceneScript {
        self.script
    }

    /// Whether the stream is exhausted (the paper's `X.end()`).
    #[inline]
    pub(crate) fn is_end(&self) -> bool {
        self.next_clip >= self.num_clips
    }

    /// Total clips the stream will yield.
    #[inline]
    pub fn num_clips(&self) -> u64 {
        self.num_clips
    }

    /// Rewinds to clip 0.
    pub fn reset(&mut self) {
        self.next_clip = 0;
    }

    /// Materializes clip `c` without advancing the stream.
    pub fn materialize(&self, c: ClipId) -> ClipView {
        let g = self.script.geometry();
        let first_frame = g.first_frame_of_clip(c);
        let first_shot = g.first_shot_of_clip(c);
        let paths = self.script.paths_over(first_frame, g.frames_per_clip());
        let (actions, shot_ends) = self.script.actions_over(first_shot, g.shots_in_clip());
        ClipView {
            id: c,
            first_frame,
            num_frames: conv::capacity_hint(g.frames_per_clip()),
            first_shot,
            paths,
            actions,
            shot_ends,
        }
    }
}

impl Iterator for VideoStream<'_> {
    type Item = ClipView;

    fn next(&mut self) -> Option<ClipView> {
        if self.is_end() {
            return None;
        }
        let clip = self.materialize(ClipId::new(self.next_clip));
        self.next_clip += 1;
        Some(clip)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.num_clips - self.next_clip) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for VideoStream<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::SceneScriptBuilder;
    use vaq_types::{ActionType, ObjectType, VideoGeometry};

    fn o(i: u32) -> ObjectType {
        ObjectType::new(i)
    }
    fn a(i: u32) -> ActionType {
        ActionType::new(i)
    }

    fn script() -> SceneScript {
        let mut b = SceneScriptBuilder::new(250, VideoGeometry::PAPER_DEFAULT);
        b.object_span(o(1), 0, 120).unwrap();
        b.action_span(a(0), 60, 200).unwrap();
        b.build()
    }

    #[test]
    fn stream_yields_all_complete_clips() {
        let s = script();
        let stream = VideoStream::new(&s);
        assert_eq!(stream.num_clips(), 5);
        let clips: Vec<_> = stream.collect();
        assert_eq!(clips.len(), 5);
        assert_eq!(clips[3].id, ClipId::new(3));
    }

    #[test]
    fn clip_views_carry_geometry() {
        let s = script();
        let clip = VideoStream::new(&s).next().unwrap();
        assert_eq!(clip.num_frames(), 50);
        assert_eq!(clip.num_shots(), 5);
        assert_eq!(clip.frame(0).id, FrameId::new(0));
        assert_eq!(clip.shot(4).id, ShotId::new(4));
    }

    #[test]
    fn ground_truth_flows_into_views() {
        let s = script();
        let stream = VideoStream::new(&s);
        let clips: Vec<_> = stream.collect();
        // Clip 0 (frames 0..50): o1 visible, action not yet (starts at 60).
        assert!(clips[0].frames().all(|f| f.instances().count() == 1));
        assert!(clips[0].shots().all(|sh| sh.actions.is_empty()));
        // Clip 2 (frames 100..150): o1 visible through frame 119; action on.
        let clip2 = &clips[2];
        assert_eq!(clip2.frame(19).instances().count(), 1);
        assert_eq!(clip2.frame(20).instances().count(), 0);
        assert!(clip2.shots().all(|sh| sh.actions == [(a(0), 1.0)]));
    }

    #[test]
    fn is_end_and_reset() {
        let s = script();
        let mut stream = VideoStream::new(&s);
        while stream.next().is_some() {}
        assert!(stream.is_end());
        stream.reset();
        assert!(!stream.is_end());
        assert_eq!(stream.len(), 5);
    }

    #[test]
    fn materialize_is_random_access() {
        let s = script();
        let stream = VideoStream::new(&s);
        let c4 = stream.materialize(ClipId::new(4));
        assert_eq!(c4.frame(0).id, FrameId::new(200));
        // Shot 20..25 overlap action span 60..200? frames 200.. are outside.
        assert!(c4.shots().all(|sh| sh.actions.is_empty()));
    }
}
