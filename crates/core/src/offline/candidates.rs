//! Candidate sequences `P_q` — paper Eq. 12.
//!
//! A clip can satisfy a query only if it lies in every queried type's
//! individual sequences; the candidates are
//! `P_q = P_a ⊗ P_{o_1} ⊗ … ⊗ P_{o_I}`, computed by the interval sweep in
//! [`vaq_types::SequenceSet::intersect`]. `CandidateIndex` is the one
//! way the offline algorithms ask where a clip sits in `P_q`.

use crate::offline::ingest::IngestOutput;
use vaq_storage::{TableKey, VideoCatalog};
use vaq_types::{conv, ClipId, Query, Result, SequenceSet, VaqError};

/// Computes `P_q` from explicitly provided individual sequences
/// (action first, then objects in query order).
pub fn candidates(action: &SequenceSet, objects: &[&SequenceSet]) -> SequenceSet {
    let mut acc = action.clone();
    for o in objects {
        if acc.is_empty() {
            break;
        }
        acc = acc.intersect(o);
    }
    acc
}

/// Computes `P_q` from an in-memory ingestion output.
pub fn candidates_from_ingest(out: &IngestOutput, query: &Query) -> Result<SequenceSet> {
    let action = out
        .action_sequences
        .get(&query.action)
        .ok_or_else(|| VaqError::InvalidQuery(format!("action {} not ingested", query.action)))?;
    let objects = query
        .objects
        .iter()
        .map(|o| {
            out.object_sequences
                .get(o)
                .ok_or_else(|| VaqError::InvalidQuery(format!("object {o} not ingested")))
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(candidates(action, &objects))
}

/// Computes `P_q` from an opened catalog.
pub fn candidates_from_catalog(catalog: &VideoCatalog, query: &Query) -> Result<SequenceSet> {
    let action = catalog.sequences(TableKey::Action(query.action))?;
    let objects = query
        .objects
        .iter()
        .map(|&o| catalog.sequences(TableKey::Object(o)))
        .collect::<Result<Vec<_>>>()?;
    Ok(candidates(action, &objects))
}

/// Where each clip of `P_q` sits: the index of its sequence, and its
/// offset into the candidate intervals laid end to end (so offsets run
/// `0..pq.total_clips()`). Built once per run. When
/// [`vaq_types::ids::dense_span`] admits the candidates' clip span, a
/// lookup is one read of a per-clip array; otherwise it bisects the
/// intervals.
#[derive(Debug)]
pub(crate) struct CandidateIndex {
    form: Form,
}

/// Marks a clip outside `P_q` in [`Form::Dense`].
const NOT_CANDIDATE: u32 = u32::MAX;

#[derive(Debug)]
enum Form {
    /// Clip `first + i` is in sequence `slots[i][0]` (or
    /// [`NOT_CANDIDATE`]) at offset `slots[i][1]`.
    Dense { first: ClipId, slots: Vec<[u32; 2]> },
    /// Each sequence's first and last clip and the offset of its first
    /// clip, in clip order.
    Sorted(Vec<(ClipId, ClipId, u64)>),
}

impl CandidateIndex {
    /// The index over `pq`'s intervals.
    pub(crate) fn new(pq: &SequenceSet) -> Self {
        let mut clips = 0u64;
        let sequences: Vec<(ClipId, ClipId, u64)> = pq
            .intervals()
            .iter()
            .map(|iv| {
                let base = clips;
                clips += iv.len();
                (iv.start, iv.end, base)
            })
            .collect();
        // Sequence indices and offsets must fit the dense slots.
        let fits = |n: u64| n < u64::from(NOT_CANDIDATE);
        let dense = match (sequences.first(), sequences.last()) {
            (Some(&(first, _, _)), Some(&(_, last, _))) => {
                vaq_types::ids::dense_span(first, last, conv::capacity_hint(clips))
                    .map(|span| (first, span))
            }
            _ => None,
        };
        let dense = dense.filter(|_| fits(conv::len_u64(sequences.len())) && fits(clips));
        let Some((first, span)) = dense else {
            return Self {
                form: Form::Sorted(sequences),
            };
        };
        let mut slots = vec![[NOT_CANDIDATE, 0]; span];
        for (sequence, &(start, end, base)) in (0u32..).zip(&sequences) {
            let from = conv::capacity_hint(start.raw() - first.raw());
            let to = conv::capacity_hint(end.raw() - first.raw());
            let run = slots.get_mut(from..=to).unwrap_or_default();
            for (slot, offset) in run.iter_mut().zip(base..) {
                *slot = [sequence, u32::try_from(offset).unwrap_or(NOT_CANDIDATE)];
            }
        }
        Self {
            form: Form::Dense { first, slots },
        }
    }

    /// `clip`'s sequence index and offset, or `None` outside `P_q`.
    pub(crate) fn get(&self, clip: ClipId) -> Option<(usize, usize)> {
        match &self.form {
            Form::Dense { first, slots } => {
                let i = conv::index(clip.raw().checked_sub(first.raw())?)?;
                let [sequence, offset] = *slots.get(i)?;
                (sequence != NOT_CANDIDATE)
                    .then(|| (conv::usize_of(sequence), conv::usize_of(offset)))
            }
            Form::Sorted(sequences) => {
                let i = sequences.partition_point(|&(_, end, _)| end < clip);
                let &(start, _, base) = sequences.get(i)?;
                let offset = clip.raw().checked_sub(start.raw())?;
                Some((i, conv::index(base + offset)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::ClipInterval;

    fn set(ivs: &[(u64, u64)]) -> SequenceSet {
        SequenceSet::from_intervals(ivs.iter().map(|&(s, e)| ClipInterval::new(s, e)).collect())
    }

    #[test]
    fn intersection_over_all_predicates() {
        let action = set(&[(0, 100)]);
        let o1 = set(&[(10, 40), (60, 90)]);
        let o2 = set(&[(20, 70)]);
        let pq = candidates(&action, &[&o1, &o2]);
        assert_eq!(pq, set(&[(20, 40), (60, 70)]));
    }

    #[test]
    fn empty_object_sequences_short_circuit() {
        let action = set(&[(0, 100)]);
        let empty = SequenceSet::empty();
        let o2 = set(&[(20, 70)]);
        let pq = candidates(&action, &[&empty, &o2]);
        assert!(pq.is_empty());
    }

    #[test]
    fn action_only_query_returns_action_sequences() {
        let action = set(&[(5, 9)]);
        assert_eq!(candidates(&action, &[]), action);
    }

    fn is_dense(index: &CandidateIndex) -> bool {
        matches!(index.form, Form::Dense { .. })
    }

    /// The index against [`SequenceSet::find`] and a running offset, for
    /// every clip from two before the first candidate to two after the
    /// last (where that range spans the whole id space, for every clip
    /// within two of a candidate), and for both ends of the id range.
    fn check_index(pq: &SequenceSet) -> CandidateIndex {
        let index = CandidateIndex::new(pq);
        let offsets: std::collections::BTreeMap<ClipId, usize> = pq.clips().zip(0..).collect();
        let near =
            |iv: &ClipInterval| iv.start.raw().saturating_sub(2)..=iv.end.raw().saturating_add(2);
        let probes: Vec<u64> = match (pq.intervals().first(), pq.intervals().last()) {
            (Some(f), Some(l)) if l.end.raw() - f.start.raw() < 1 << 20 => {
                (*near(f).start()..=*near(l).end()).collect()
            }
            _ => pq.intervals().iter().flat_map(near).collect(),
        };
        for c in probes.into_iter().chain([0, u64::MAX]).map(ClipId::new) {
            let want = pq.find(c).map(|i| (i, offsets[&c]));
            assert_eq!(index.get(c), want, "clip {c}");
        }
        index
    }

    #[test]
    fn index_agrees_with_find_on_nearby_intervals() {
        let index = check_index(&set(&[(3, 5), (7, 7), (9, 14), (16, 17)]));
        assert!(is_dense(&index));
    }

    #[test]
    fn index_agrees_with_find_on_adjacent_intervals() {
        // A normalized set merges touching runs; a deserialized one can
        // hold them apart, and each keeps its own sequence index.
        let pq: SequenceSet = vaq_types::json::from_str(
            r#"{"intervals":[{"start":0,"end":2},{"start":3,"end":5},{"start":6,"end":6}]}"#,
        )
        .unwrap();
        assert_eq!(pq.len(), 3);
        assert!(is_dense(&check_index(&pq)));
    }

    #[test]
    fn index_agrees_with_find_on_far_apart_intervals() {
        let index = check_index(&set(&[(2, 4), (1_000, 1_001), (50_000, 50_002)]));
        assert!(!is_dense(&index), "a wide span keeps the binary search");
        let top = u64::MAX;
        assert!(!is_dense(&check_index(&set(&[(0, 1), (top - 1, top)]))));
        assert!(is_dense(&check_index(&set(&[
            (top - 5, top - 3),
            (top - 1, top)
        ]))));
    }

    #[test]
    fn index_over_one_clip_and_over_nothing() {
        assert!(is_dense(&check_index(&set(&[(40, 40)]))));
        assert!(!is_dense(&check_index(&SequenceSet::empty())));
    }
}
