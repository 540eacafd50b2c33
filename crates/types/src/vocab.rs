//! Label vocabularies for object and action types.
//!
//! A [`Vocabulary`] is a bidirectional mapping between human-readable labels
//! and dense numeric identifiers ([`ObjectType`] / [`ActionType`] wrap the
//! indices). The deployed detector's universe `O` and the recognizer's
//! universe `A` (paper §2) are each a vocabulary.
//!
//! Two built-in vocabularies mirror the paper's models:
//! [`coco_objects`] provides the 80 COCO classes Mask R-CNN is trained on
//! (the paper's object detectors), plus the handful of extra labels the
//! paper's YouTube benchmark queries (e.g. `faucet`, `plant`) which YOLOv3's
//! 9000-class vocabulary covers; [`kinetics_actions`] provides the Kinetics
//! action categories the paper queries with I3D.

use crate::error::{Result, VaqError};
use crate::ids::{ActionType, ObjectType};
use std::collections::HashMap;

/// Which universe a vocabulary names; used in diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VocabularyKind {
    /// Object types (the paper's `O`).
    Object,
    /// Action categories (the paper's `A`).
    Action,
}

impl VocabularyKind {
    fn as_str(self) -> &'static str {
        match self {
            VocabularyKind::Object => "object",
            VocabularyKind::Action => "action",
        }
    }
}

/// A bidirectional label ↔ index mapping.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    kind: VocabularyKind,
    labels: Vec<String>,
    index: HashMap<String, u32>,
}

impl Vocabulary {
    /// Builds a vocabulary from labels; indices are assigned in order.
    ///
    /// # Panics
    /// Panics on duplicate labels — vocabularies are authored statically and
    /// a duplicate is a programming error, not a runtime condition.
    pub(crate) fn new(
        kind: VocabularyKind,
        labels: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        let mut index = HashMap::with_capacity(labels.len());
        for (i, l) in labels.iter().enumerate() {
            let prev = index.insert(l.clone(), i as u32);
            assert!(prev.is_none(), "duplicate vocabulary label {l:?}");
        }
        Self {
            kind,
            labels,
            index,
        }
    }

    /// Number of labels.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the vocabulary has no labels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// All labels in index order.
    #[inline]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Raw index of `label`, if present.
    fn index_of(&self, label: &str) -> Option<u32> {
        self.index.get(label).copied()
    }

    /// Label at raw index `idx`, if in range.
    pub fn label(&self, idx: u32) -> Option<&str> {
        self.labels.get(idx as usize).map(String::as_str)
    }

    /// Resolves an object label, failing with [`VaqError::UnknownLabel`].
    pub fn object(&self, label: &str) -> Result<ObjectType> {
        debug_assert_eq!(self.kind, VocabularyKind::Object);
        self.index_of(label)
            .map(ObjectType::new)
            .ok_or_else(|| VaqError::UnknownLabel {
                label: label.to_owned(),
                vocabulary: self.kind.as_str(),
            })
    }

    /// Resolves an action label, failing with [`VaqError::UnknownLabel`].
    pub fn action(&self, label: &str) -> Result<ActionType> {
        debug_assert_eq!(self.kind, VocabularyKind::Action);
        self.index_of(label)
            .map(ActionType::new)
            .ok_or_else(|| VaqError::UnknownLabel {
                label: label.to_owned(),
                vocabulary: self.kind.as_str(),
            })
    }
}

/// The 80 COCO object classes (Mask R-CNN's training vocabulary) plus the
/// extra object labels the paper's benchmark queries (Tables 1–2) that only
/// the larger YOLO9000-style vocabulary covers: `faucet`, `plant`, `tree`,
/// `dish`, `kid`, `sunglasses`.
pub fn coco_objects() -> Vocabulary {
    const COCO: &[&str] = &[
        "person",
        "bicycle",
        "car",
        "motorcycle",
        "airplane",
        "bus",
        "train",
        "truck",
        "boat",
        "traffic light",
        "fire hydrant",
        "stop sign",
        "parking meter",
        "bench",
        "bird",
        "cat",
        "dog",
        "horse",
        "sheep",
        "cow",
        "elephant",
        "bear",
        "zebra",
        "giraffe",
        "backpack",
        "umbrella",
        "handbag",
        "tie",
        "suitcase",
        "frisbee",
        "skis",
        "snowboard",
        "sports ball",
        "kite",
        "baseball bat",
        "baseball glove",
        "skateboard",
        "surfboard",
        "tennis racket",
        "bottle",
        "wine glass",
        "cup",
        "fork",
        "knife",
        "spoon",
        "bowl",
        "banana",
        "apple",
        "sandwich",
        "orange",
        "broccoli",
        "carrot",
        "hot dog",
        "pizza",
        "donut",
        "cake",
        "chair",
        "couch",
        "potted plant",
        "bed",
        "dining table",
        "toilet",
        "tv",
        "laptop",
        "mouse",
        "remote",
        "keyboard",
        "cell phone",
        "microwave",
        "oven",
        "toaster",
        "sink",
        "refrigerator",
        "book",
        "clock",
        "vase",
        "scissors",
        "teddy bear",
        "hair drier",
        "toothbrush",
    ];
    // Benchmark labels from the paper outside COCO's 80 (covered by YOLO9000
    // and by the authors' manual annotations).
    const EXTRA: &[&str] = &["faucet", "plant", "tree", "dish", "kid", "sunglasses"];
    Vocabulary::new(
        VocabularyKind::Object,
        COCO.iter().chain(EXTRA.iter()).copied(),
    )
}

/// The Kinetics action categories used across the paper's queries (Tables
/// 1–2 plus the introduction's `robot_dancing` example), padded with a
/// selection of other Kinetics-600 categories so the recognizer's universe
/// `A` is realistically larger than the queried subset.
pub fn kinetics_actions() -> Vocabulary {
    const QUERIED: &[&str] = &[
        "washing dishes",
        "blowing leaves",
        "walking the dog",
        "drinking beer",
        "playing volleyball",
        "solving rubiks cube",
        "cleaning sink",
        "kneeling",
        "doing crunches",
        "blowdrying hair",
        "washing hands",
        "archery",
        "smoking",
        "robot dancing",
        "kissing",
        "jumping",
    ];
    const PADDING: &[&str] = &[
        "playing guitar",
        "riding a bike",
        "surfing water",
        "juggling balls",
        "climbing ladder",
        "shoveling snow",
        "mopping floor",
        "playing chess",
        "braiding hair",
        "carving pumpkin",
        "dancing ballet",
        "playing drums",
        "skiing slalom",
        "swimming backstroke",
        "throwing discus",
        "tying knot",
        "walking on stilts",
        "watering plants",
        "welding",
        "yoga",
    ];
    Vocabulary::new(
        VocabularyKind::Action,
        QUERIED.iter().chain(PADDING.iter()).copied(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coco_has_expected_size_and_labels() {
        let v = coco_objects();
        assert_eq!(v.len(), 86);
        assert_eq!(v.index_of("person"), Some(0));
        assert!(v.index_of("faucet").is_some());
        assert!(v.index_of("warp drive").is_none());
    }

    #[test]
    fn kinetics_covers_all_paper_queries() {
        let v = kinetics_actions();
        for a in [
            "washing dishes",
            "blowing leaves",
            "archery",
            "smoking",
            "robot dancing",
            "kissing",
            "jumping",
        ] {
            assert!(v.index_of(a).is_some(), "missing action {a}");
        }
    }

    #[test]
    fn object_resolution_roundtrip() {
        let v = coco_objects();
        let car = v.object("car").unwrap();
        assert_eq!(v.label(car.raw()), Some("car"));
    }

    #[test]
    fn unknown_label_is_typed_error() {
        let v = coco_objects();
        let err = v.object("zeppelin").unwrap_err();
        assert!(matches!(err, VaqError::UnknownLabel { .. }));
        assert!(err.to_string().contains("zeppelin"));
    }

    #[test]
    fn action_resolution_roundtrip() {
        let v = kinetics_actions();
        let a = v.action("jumping").unwrap();
        assert_eq!(v.label(a.raw()), Some("jumping"));
        assert!(v.action("moonwalking on mars").is_err());
    }

    #[test]
    #[should_panic(expected = "duplicate vocabulary label")]
    fn duplicate_labels_panic() {
        let _ = Vocabulary::new(VocabularyKind::Object, ["a", "a"]);
    }
}
