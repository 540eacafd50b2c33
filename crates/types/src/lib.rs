//! # vaq-types
//!
//! Foundational vocabulary for the `vaq` workspace: identifier newtypes for
//! the paper's video decomposition (frames → shots → clips → sequences),
//! interval algebra over clips, label vocabularies for object and action
//! types, bounding-box geometry, the query model, and the shared error type.
//!
//! Everything in this crate is deliberately free of I/O and algorithmic
//! policy — it is the shared language the rest of the workspace speaks. Its
//! one source of randomness is [`rng`], the seeded generator every synthetic
//! input of the workspace is drawn from.
//!
//! ## Paper correspondence
//!
//! *Querying For Actions Over Videos* (EDBT 2024), §2 "Background" defines a
//! video `V = {v_1, …, v_|V|}` of frames, *shots* (fixed-length runs of
//! frames consumed by action recognizers), *clips* (fixed-length runs of
//! shots; the unit at which query predicates are decided), and *sequences*
//! (maximal runs of contiguous positive clips; the query result unit).
//! [`VideoGeometry`] encodes the shot/clip lengths; [`ClipInterval`] and
//! [`SequenceSet`] encode result sequences `P = {(c_l, c_r)}`.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod conv;
pub mod error;
pub mod format;
pub mod geometry;
pub mod ids;
pub mod interval;
pub mod json;
pub mod query;
pub mod rng;
pub mod timing;
pub mod vocab;

pub use error::{Result, VaqError};
pub use geometry::BBox;
pub use ids::{ActionType, ClipId, FrameId, ObjectType, ShotId, TrackId, VideoId};
pub use interval::{ClipInterval, SequenceSet};
pub use query::{DurationUnit, Query};
pub use timing::VideoGeometry;
pub use vocab::Vocabulary;
