//! # vaq — Querying For Actions Over Videos
//!
//! Facade crate re-exporting the whole `vaq` workspace: a Rust reproduction
//! of *Querying For Actions Over Videos* (Chao & Koudas, EDBT 2024).
//!
//! See the individual crates for the pieces:
//!
//! * [`types`] — ids, intervals, vocabularies, the query model.
//! * [`scanstats`] — scan statistics: Naus approximation, critical values,
//!   the SVAQD kernel background-rate estimator.
//! * [`detect`] — simulated object detectors / action recognizers / tracker.
//! * [`video`] — the scene-script synthetic video substrate.
//! * [`datasets`] — the paper's YouTube-like and Movies-like benchmarks.
//! * [`storage`] — clip score tables with access accounting.
//! * [`core`] — SVAQ, SVAQD (online) and RVAQ + baselines (offline).
//! * [`metrics`] — F1 / IOU matching / FPR evaluation.
//! * [`query`] — the VAQ-SQL declarative frontend.
//! * [`trace`] — deterministic tracing & telemetry (spans, counters,
//!   histograms, sinks).
//!
//! # Example
//!
//! Script a one-minute video, stream it through SVAQD, and check the
//! result against ground truth:
//!
//! ```
//! use vaq::core::{OnlineConfig, OnlineEngine};
//! use vaq::detect::{profiles, SimulatedActionRecognizer, SimulatedObjectDetector};
//! use vaq::types::vocab;
//! use vaq::video::{SceneScriptBuilder, VideoStream};
//! use vaq::{Query, VideoGeometry};
//!
//! let objects = vocab::coco_objects();
//! let actions = vocab::kinetics_actions();
//! let geometry = VideoGeometry::PAPER_DEFAULT;
//!
//! let mut script = SceneScriptBuilder::new(1800, geometry);
//! script.object_span(objects.object("car")?, 300, 1500)?;
//! script.action_span(actions.action("jumping")?, 600, 1200)?;
//! let script = script.build();
//!
//! let query = Query::new(actions.action("jumping")?, vec![objects.object("car")?]);
//! let detector =
//!     SimulatedObjectDetector::new(profiles::ideal_object(), objects.len() as u32, 1);
//! let recognizer =
//!     SimulatedActionRecognizer::new(profiles::ideal_action(), actions.len() as u32, 1);
//!
//! let engine = OnlineEngine::new(query.clone(), OnlineConfig::svaqd(), &geometry,
//!                                &detector, &recognizer)?;
//! let result = engine.run(VideoStream::new(&script));
//! assert_eq!(result.sequences, script.ground_truth(&query, 0.5));
//! # Ok::<(), vaq::VaqError>(())
//! ```

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
pub use vaq_core as core;
pub use vaq_datasets as datasets;
pub use vaq_detect as detect;
pub use vaq_metrics as metrics;
pub use vaq_query as query;
pub use vaq_scanstats as scanstats;
pub use vaq_storage as storage;
pub use vaq_types as types;
pub use vaq_video as video;
// `trace` is already the renamed dependency (`package = "vaq-trace"`).
pub use trace;

pub use vaq_types::{
    ActionType, BBox, ClipId, ClipInterval, FrameId, ObjectType, Query, Result, SequenceSet,
    ShotId, TrackId, VaqError, VideoGeometry, VideoId,
};
