//! # vaq-detect
//!
//! Simulated vision models: object detectors (per frame), action
//! recognizers (per shot) and an object tracker, standing in for the
//! paper's Mask R-CNN, YOLOv3, I3D and CenterTrack.
//!
//! The paper's algorithms treat these models as black boxes ("our proposals
//! are orthogonal to the underlying object/action detection and tracking
//! models", §5.1); what shapes query accuracy is the models' *noise
//! statistics* — per-frame true-positive and false-positive rates and the
//! score distributions around the decision threshold. Each simulated model
//! is parameterized by a [`profiles::ObjectProfile`] /
//! [`profiles::ActionProfile`] capturing exactly those statistics, with the
//! special [`profiles::ideal_object`] / [`profiles::ideal_action`] profiles
//! reproducing the paper's *Ideal Model* (detections match ground truth
//! exactly; Table 4's F1 = 1.0 row).
//!
//! ## Determinism
//!
//! Detection outcomes are *pure functions* of `(model seed, frame/shot id,
//! label)` via a splitmix64 hash (`DetRng`) rather than a stateful
//! RNG stream. This matters: Algorithm 2 short-circuits predicate
//! evaluation, so different algorithms invoke the models on different
//! subsets of frames — with a stateful RNG their noise would diverge and
//! accuracy comparisons would be confounded. With hash-based noise, every
//! algorithm sees the *same* simulated model.
//!
//! ## Cost accounting
//!
//! [`latency::InferenceStats`] accumulates simulated inference time per
//! model invocation (the paper's §5.2 finding that >98% of online query
//! latency is model inference is a statement about these costs), and
//! [`endtoend::EndToEndModel`] reproduces the cost asymmetry of the
//! fine-tuned end-to-end alternative the paper dismisses (>60 h of training
//! for <0.05 F1 gain).

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

pub mod api;
pub mod cache;
pub mod endtoend;
pub mod fault;
pub mod latency;
pub mod noise;
pub mod profiles;
pub mod sim;
pub mod telemetry;
pub mod tracker;

pub use api::{
    ActionRecognizer, ActionScore, CallProvenance, Detection, FrameCalls, ObjectDetector,
    TrackedDetection,
};
pub use cache::{CacheStats, CachedActionRecognizer, CachedObjectDetector, InferenceCache};
pub use fault::{DetectorFault, FaultCounts, FaultInjector, FaultSchedule};
pub use latency::InferenceStats;
pub use profiles::{ActionProfile, ObjectProfile, TrackerProfile};
pub use sim::{SimulatedActionRecognizer, SimulatedObjectDetector};
pub use telemetry::{TracingActionRecognizer, TracingObjectDetector};
pub use tracker::IouTracker;
