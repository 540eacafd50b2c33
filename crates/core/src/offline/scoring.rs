//! Scoring functions for ranked (top-K) retrieval — paper §4.1.
//!
//! A [`ScoringModel`] packages the three levels of score combination:
//!
//! * `h` — per type within a clip: combines all detection scores of one
//!   object type (over frames × tracked instances) or one action type
//!   (over shots) into `S_x(c)`. Unconstrained by the paper.
//! * `g` — per clip under a query: combines the queried types' clip scores
//!   into `S_q(c)`. Must be monotone in each argument.
//! * `f` with aggregation operator `⊙` — per sequence: combines clip scores
//!   into `S_q(z)`. Must be (i) monotone in each clip score, (ii)
//!   superset-monotone (`S(z) ≥ S(z')` for `z' ⊆ z`), and (iii)
//!   decomposable over a partition: `S(z) = S(z₁) ⊙ S(z₂)` (Eq. 11).
//!
//! RVAQ's bound refinement (Eqs. 13–14) needs one more derived operation:
//! `f` applied to `n` copies of the same clip score — [`ScoringModel::
//! f_repeat`] — used to bound the contribution of a sequence's unprocessed
//! clips by the current top/bottom frontier score.
//!
//! [`PaperScoring`] is the instantiation the paper evaluates with
//! (`h = Σ`, `g = S_a · Σ S_{o_i}`, `f = Σ`, `⊙ = +`); the test-only
//! `MaxScoring` demonstrates that any conforming model drops in
//! (`f = max`, `⊙ = max`).

/// A complete scoring model; see the module docs for the required
/// properties of each component.
pub trait ScoringModel: Send + Sync {
    /// `h`: combine one type's detection scores within a clip.
    fn h(&self, scores: &[f64]) -> f64;

    /// `g`: combine the action's and the objects' clip scores into `S_q(c)`.
    fn g(&self, action: f64, objects: &[f64]) -> f64;

    /// The identity of `⊙` (score of the empty sequence).
    fn f_identity(&self) -> f64;

    /// `⊙`: aggregate two disjoint sub-sequence scores (Eq. 11).
    fn f_combine(&self, a: f64, b: f64) -> f64;

    /// `f(s, s, …, s)` over `n` copies — the bound-estimation primitive.
    fn f_repeat(&self, clip_score: f64, n: u64) -> f64;

    /// Folds `f` over explicit clip scores (provided for convenience and
    /// testing; must equal repeated `f_combine`).
    fn f_fold(&self, clip_scores: &[f64]) -> f64 {
        clip_scores
            .iter()
            .fold(self.f_identity(), |acc, &s| self.f_combine(acc, s))
    }
}

/// The paper's experimental instantiation (§5): additive `h` and `f`,
/// multiplicative-in-action `g`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperScoring;

impl ScoringModel for PaperScoring {
    fn h(&self, scores: &[f64]) -> f64 {
        scores.iter().sum()
    }

    fn g(&self, action: f64, objects: &[f64]) -> f64 {
        action * objects.iter().sum::<f64>()
    }

    fn f_identity(&self) -> f64 {
        0.0
    }

    fn f_combine(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn f_repeat(&self, clip_score: f64, n: u64) -> f64 {
        clip_score * n as f64
    }
}

/// An alternative conforming model: a sequence scores as its best clip.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MaxScoring;

#[cfg(test)]
impl ScoringModel for MaxScoring {
    fn h(&self, scores: &[f64]) -> f64 {
        scores.iter().copied().fold(0.0, f64::max)
    }

    fn g(&self, action: f64, objects: &[f64]) -> f64 {
        action * objects.iter().copied().fold(0.0, f64::max)
    }

    fn f_identity(&self) -> f64 {
        0.0
    }

    fn f_combine(&self, a: f64, b: f64) -> f64 {
        a.max(b)
    }

    fn f_repeat(&self, clip_score: f64, n: u64) -> f64 {
        if n == 0 {
            self.f_identity()
        } else {
            clip_score
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::rng::{for_cases, SeededRng};

    fn models() -> Vec<Box<dyn ScoringModel>> {
        vec![Box::new(PaperScoring), Box::new(MaxScoring)]
    }

    #[test]
    fn paper_scoring_matches_formulas() {
        let m = PaperScoring;
        assert_eq!(m.h(&[0.5, 0.25, 0.25]), 1.0);
        assert_eq!(m.g(0.5, &[1.0, 3.0]), 2.0);
        assert_eq!(m.f_fold(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(m.f_repeat(2.5, 4), 10.0);
    }

    #[test]
    fn max_scoring_matches_formulas() {
        let m = MaxScoring;
        assert_eq!(m.h(&[0.5, 0.9, 0.25]), 0.9);
        assert_eq!(m.g(0.5, &[1.0, 3.0]), 1.5);
        assert_eq!(m.f_fold(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(m.f_repeat(2.5, 100), 2.5);
    }

    #[test]
    fn empty_inputs() {
        for m in models() {
            assert_eq!(m.h(&[]), 0.0);
            assert_eq!(m.f_fold(&[]), m.f_identity());
        }
    }

    /// `len` scores, each from `range`.
    fn draw_scores(
        r: &mut SeededRng,
        len: std::ops::Range<usize>,
        range: std::ops::Range<f64>,
    ) -> Vec<f64> {
        let n = r.gen_range(len);
        (0..n).map(|_| r.gen_range(range.clone())).collect()
    }

    fn assert_f_repeat_equals_fold_of_copies(s: f64, n: u64) {
        for m in models() {
            let copies = vec![s; n as usize];
            assert!((m.f_repeat(s, n) - m.f_fold(&copies)).abs() < 1e-9);
        }
    }

    /// The one failure a generated case once found: zero copies of a
    /// score fold to the identity.
    #[test]
    fn f_repeat_of_zero_copies_is_the_identity() {
        assert_f_repeat_equals_fold_of_copies(52.0001127191738, 0);
    }

    #[test]
    fn prop_f_repeat_equals_fold_of_copies() -> Result<(), String> {
        for_cases(
            "prop_f_repeat_equals_fold_of_copies",
            256,
            |r| (r.gen_range(0.0f64..100.0), r.gen_range(0u64..40)),
            |&(s, n)| assert_f_repeat_equals_fold_of_copies(s, n),
        )
    }

    #[test]
    fn prop_partition_decomposition() -> Result<(), String> {
        for_cases(
            "prop_partition_decomposition",
            256,
            |r| (draw_scores(r, 0..20, 0.0..50.0), r.gen_range(0usize..20)),
            |&(ref xs, cut)| {
                // Eq. 11: S(z) = S(z1) ⊙ S(z2) for any partition.
                for m in models() {
                    let cut = cut.min(xs.len());
                    let whole = m.f_fold(xs);
                    let parts = m.f_combine(m.f_fold(&xs[..cut]), m.f_fold(&xs[cut..]));
                    assert!((whole - parts).abs() < 1e-9);
                }
            },
        )
    }

    #[test]
    fn prop_superset_monotone() -> Result<(), String> {
        for_cases(
            "prop_superset_monotone",
            256,
            |r| (draw_scores(r, 1..20, 0.0..50.0), r.gen_range(0usize..19)),
            |&(ref xs, drop)| {
                // Sub-sequence scores never exceed the full sequence's.
                for m in models() {
                    let drop = drop.min(xs.len() - 1);
                    let sub = m.f_fold(&xs[drop..]);
                    assert!(m.f_fold(xs) + 1e-12 >= sub);
                }
            },
        )
    }

    #[test]
    fn prop_g_monotone() -> Result<(), String> {
        for_cases(
            "prop_g_monotone",
            256,
            |r| {
                let a = r.gen_range(0.0f64..5.0);
                let delta = r.gen_range(0.0f64..5.0);
                (
                    a,
                    delta,
                    draw_scores(r, 1..5, 0.0..5.0),
                    r.gen_range(0usize..4),
                )
            },
            |&(a, delta, ref os, idx)| {
                for m in models() {
                    // Monotone in the action score.
                    assert!(m.g(a + delta, os) + 1e-12 >= m.g(a, os));
                    // Monotone in each object score.
                    let idx = idx.min(os.len() - 1);
                    let mut os2 = os.clone();
                    os2[idx] += delta;
                    assert!(m.g(a, &os2) + 1e-12 >= m.g(a, os));
                }
            },
        )
    }
}
