//! # vaq-datasets
//!
//! The paper's evaluation workloads, rebuilt as seeded synthetic datasets:
//!
//! * [`youtube`] — the ActivityNet-derived benchmark of Table 1: twelve
//!   query sets (one per action), each a collection of short videos whose
//!   total length matches the paper's reported minutes, with the queried
//!   objects appearing in controlled correlation with the action.
//! * [`movies`] — the four movies of Table 2 (*Coffee and Cigarettes*,
//!   *Iron Man*, *Star Wars 3*, *Titanic*): long videos with sparse query
//!   episodes and rich background content, driving the offline (RVAQ)
//!   experiments. The *Coffee and Cigarettes* workload is tuned to yield
//!   ≈21 ground-truth result sequences, the count the paper reports.
//! * [`drift`] — the §3.3 motivating scenario: a surveillance-style stream
//!   whose background rates change abruptly (rush hour), used to
//!   demonstrate SVAQD's adaptivity.
//! * [`load`] — a seeded load-and-chaos generator for the standing-query
//!   service: submission arrival/churn schedules with hot-tenant skew,
//!   tenant stalls, and detector-fault burst windows over one long
//!   stream.
//! * [`composite`] — composite temporal-query scenarios: bursty
//!   co-occurrence (sequencing), mid-stream regime shifts (negation),
//!   and long-tail object vocabularies (disjunction), with ground truth
//!   derived by composing per-leaf truth through the interval-sweep
//!   evaluator.
//!
//! Everything is generated from an explicit seed; two calls with the same
//! seed produce byte-identical scripts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod composite;
pub mod drift;
pub mod load;
pub mod movies;
pub mod youtube;

use vaq_types::{Query, Result, Vocabulary};
use vaq_video::SceneScript;

/// A named scripted video.
#[derive(Debug, Clone)]
pub struct BenchmarkVideo {
    /// Video name (used as catalog identity).
    pub name: String,
    /// The ground-truth scene script.
    pub script: SceneScript,
}

/// One benchmark query set: the query plus the videos it runs against.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// Paper identifier (e.g. `"q1"` or a movie title).
    pub id: String,
    /// Human-readable query description.
    pub description: String,
    /// The resolved query.
    pub query: Query,
    /// The videos in the set.
    pub videos: Vec<BenchmarkVideo>,
}

impl QuerySet {
    /// Total frames across all videos.
    pub fn total_frames(&self) -> u64 {
        self.videos.iter().map(|v| v.script.num_frames()).sum()
    }
}

/// Resolves a (action, objects) label pair against vocabularies.
pub(crate) fn resolve_query(
    actions: &Vocabulary,
    objects_vocab: &Vocabulary,
    action: &str,
    objects: &[&str],
) -> Result<Query> {
    let a = actions.action(action)?;
    let os = objects
        .iter()
        .map(|o| objects_vocab.object(o))
        .collect::<Result<Vec<_>>>()?;
    Ok(Query::new(a, os))
}
