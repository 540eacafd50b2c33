//! Video geometry: conversions between frames, shots and clips.
//!
//! The paper fixes a shot length in frames (decided by the action
//! recognizer; "typical values in the literature range from 10–30") and a
//! clip length in shots (a tunable parameter whose effect is studied in
//! Figures 4–5). [`VideoGeometry`] centralizes those two constants plus the
//! frame rate, and provides the index conversions the engines use (clip
//! starts and whole-clip counts; a trailing partial clip is dropped), so no
//! module does ad-hoc arithmetic.

use crate::error::{Result, VaqError};
use crate::ids::{ClipId, FrameId, ShotId};

/// Shot/clip layout of a video.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VideoGeometry {
    /// Frames per shot (the action recognizer's input length).
    pub frames_per_shot: u32,
    /// Shots per clip (the paper's tunable clip-size parameter).
    pub shots_per_clip: u32,
    /// Frames per second; used only to convert wall-clock durations in the
    /// dataset generators and reports.
    pub fps: u32,
}

crate::json_record!(VideoGeometry: frames_per_shot, shots_per_clip, fps);

impl VideoGeometry {
    /// The defaults used throughout the paper's running example (Figure 1):
    /// 10-frame shots, 5 shots per clip (50-frame clips), 30 fps.
    pub const PAPER_DEFAULT: Self = Self {
        frames_per_shot: 10,
        shots_per_clip: 5,
        fps: 30,
    };

    /// Validates and builds a geometry.
    pub fn new(frames_per_shot: u32, shots_per_clip: u32, fps: u32) -> Result<Self> {
        if frames_per_shot == 0 || shots_per_clip == 0 || fps == 0 {
            return Err(VaqError::InvalidConfig(format!(
                "geometry fields must be positive (frames_per_shot={frames_per_shot}, \
                 shots_per_clip={shots_per_clip}, fps={fps})"
            )));
        }
        Ok(Self {
            frames_per_shot,
            shots_per_clip,
            fps,
        })
    }

    /// Returns a copy with a different clip size (shots per clip); used by
    /// the Figure 4/5 clip-size sweeps.
    pub fn with_shots_per_clip(self, shots_per_clip: u32) -> Result<Self> {
        Self::new(self.frames_per_shot, shots_per_clip, self.fps)
    }

    /// Frames per clip.
    #[inline]
    pub fn frames_per_clip(&self) -> u64 {
        self.frames_per_shot as u64 * self.shots_per_clip as u64
    }

    /// Shots per (full) clip as a `u64` count.
    #[inline]
    pub fn shots_in_clip(&self) -> u64 {
        u64::from(self.shots_per_clip)
    }

    /// First frame of clip `c`.
    #[inline]
    pub fn first_frame_of_clip(&self, c: ClipId) -> FrameId {
        FrameId::new(c.raw() * self.frames_per_clip())
    }

    /// First shot of clip `c`.
    #[inline]
    pub fn first_shot_of_clip(&self, c: ClipId) -> ShotId {
        ShotId::new(c.raw() * self.shots_per_clip as u64)
    }

    /// Number of complete clips in a video of `num_frames` frames; a
    /// trailing partial clip is dropped, as the paper's fixed-length clip
    /// model implies.
    #[inline]
    pub fn num_clips(&self, num_frames: u64) -> u64 {
        num_frames / self.frames_per_clip()
    }

    /// Number of complete shots in a video of `num_frames` frames.
    #[inline]
    pub fn num_shots(&self, num_frames: u64) -> u64 {
        num_frames / self.frames_per_shot as u64
    }

    /// Number of frames spanned by `minutes` of video at this frame rate.
    #[inline]
    pub fn frames_for_minutes(&self, minutes: u64) -> u64 {
        minutes * 60 * self.fps as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const G: VideoGeometry = VideoGeometry::PAPER_DEFAULT;

    #[test]
    fn paper_default_is_fifty_frame_clips() {
        assert_eq!(G.frames_per_clip(), 50);
    }

    #[test]
    fn clip_starts_are_whole_multiples() {
        let c = ClipId::new(3);
        assert_eq!(G.first_frame_of_clip(c), FrameId::new(150));
        assert_eq!(G.first_shot_of_clip(c), ShotId::new(15));
    }

    #[test]
    fn num_clips_drops_partial_tail() {
        assert_eq!(G.num_clips(100), 2);
        assert_eq!(G.num_clips(149), 2);
        assert_eq!(G.num_clips(150), 3);
        assert_eq!(G.num_shots(25), 2);
    }

    #[test]
    fn minutes_to_frames() {
        assert_eq!(G.frames_for_minutes(2), 3600);
    }

    #[test]
    fn typed_counts_match_raw_fields() {
        assert_eq!(G.shots_in_clip(), 5);
    }

    #[test]
    fn zero_fields_rejected() {
        assert!(VideoGeometry::new(0, 5, 30).is_err());
        assert!(VideoGeometry::new(10, 0, 30).is_err());
        assert!(VideoGeometry::new(10, 5, 0).is_err());
    }

    #[test]
    fn clip_size_sweep_constructor() {
        let g = G.with_shots_per_clip(8).unwrap();
        assert_eq!(g.frames_per_clip(), 80);
        assert!(G.with_shots_per_clip(0).is_err());
    }
}
