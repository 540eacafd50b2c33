//! Hash-based deterministic noise.
//!
//! Simulated model outcomes must be pure functions of
//! `(model seed, frame/shot index, label, draw index)`: the online
//! algorithms short-circuit predicate evaluation (paper Algorithm 2, lines
//! 6–8), so different algorithms call the models on different frame
//! subsets. A stateful RNG stream would make the simulated "video noise"
//! depend on the querying algorithm — confounding every accuracy
//! comparison. A counter-less hash (splitmix64 finalizer over the mixed
//! key) gives every (frame, label) its own independent, reproducible draw.

use vaq_types::rng::splitmix64;

/// One splitmix64 step from state `z`: a well-mixed 64-bit permutation.
#[inline]
fn mix(mut z: u64) -> u64 {
    splitmix64(&mut z)
}

/// A deterministic per-(seed, site) uniform sampler.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DetRng {
    seed: u64,
}

impl DetRng {
    /// Creates a sampler with a model-level seed.
    pub(crate) fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// A uniform `u64` for the keyed site.
    #[inline]
    pub(crate) fn raw(&self, a: u64, b: u64, c: u64) -> u64 {
        self.at(a).raw(b, c)
    }

    /// The sampler with its first mixing round done for `a`, for loops
    /// that draw many sites sharing it (one frame or shot, every label).
    #[inline]
    pub(crate) fn at(&self, a: u64) -> SiteRng {
        SiteRng(mix(self.seed ^ a))
    }

    /// A uniform draw in `[0, 1)` for the keyed site.
    #[inline]
    pub(crate) fn uniform(&self, a: u64, b: u64, c: u64) -> f64 {
        // 53 high bits → uniform double in [0,1).
        (self.raw(a, b, c) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw for the keyed site.
    #[inline]
    pub(crate) fn bernoulli(&self, p: f64, a: u64, b: u64, c: u64) -> bool {
        self.uniform(a, b, c) < p
    }

    /// A uniform draw in `[lo, hi)` for the keyed site.
    #[inline]
    pub(crate) fn range(&self, lo: f64, hi: f64, a: u64, b: u64, c: u64) -> f64 {
        lo + (hi - lo) * self.uniform(a, b, c)
    }
}

/// A [`DetRng`] fixed at its first key: `DetRng::at(a).raw(b, c)` equals
/// `DetRng::raw(a, b, c)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SiteRng(u64);

impl SiteRng {
    /// A uniform `u64` for the keyed site.
    #[inline]
    pub(crate) fn raw(self, b: u64, c: u64) -> u64 {
        mix(mix(self.0.wrapping_add(b)).wrapping_add(c))
    }

    /// The Bernoulli draw `DetRng::bernoulli(p, a, b, c)`, given
    /// `threshold = bernoulli_threshold(p)`, without leaving integers.
    #[inline]
    pub(crate) fn bernoulli(self, threshold: u64, b: u64, c: u64) -> bool {
        (self.raw(b, c) >> 11) < threshold
    }
}

/// The integer form of `uniform < p`: for a 53-bit draw `k`, `uniform` is
/// exactly `k · 2^-53` (`k < 2^53` converts exactly, and scaling by a power
/// of two is exact), so `uniform < p` holds iff `k < p · 2^53`, iff
/// `k < ⌈p · 2^53⌉`. Probabilities at or above 1 always pass (threshold
/// `2^53`); at or below 0, and NaN, never (threshold 0).
pub(crate) fn bernoulli_threshold(p: f64) -> u64 {
    const SCALE: f64 = (1u64 << 53) as f64;
    if p >= 1.0 {
        1 << 53
    } else if p > 0.0 {
        (p * SCALE).ceil() as u64
    } else {
        0
    }
}

/// A bounded score distribution: symmetric triangular-ish around `mean`
/// with half-width `spread`, clamped into `(0, 1]`. Triangular (sum of two
/// uniforms) rather than uniform so scores concentrate near the mean, as
/// real detector confidences do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoreDist {
    /// Center of the distribution.
    pub mean: f64,
    /// Half-width (support is `mean ± spread` before clamping).
    pub spread: f64,
}

impl ScoreDist {
    /// Creates a distribution; panics if parameters leave `(0,1]` support
    /// entirely.
    pub fn new(mean: f64, spread: f64) -> Self {
        assert!((0.0..=1.0).contains(&mean), "mean {mean} outside [0,1]");
        assert!(spread >= 0.0);
        Self { mean, spread }
    }

    /// Samples the distribution at the keyed site.
    #[inline]
    pub(crate) fn sample(&self, rng: &DetRng, a: u64, b: u64, c: u64) -> f64 {
        let u1 = rng.uniform(a, b, c ^ 0x5151);
        let u2 = rng.uniform(a, b, c ^ 0xA3A3);
        let centered = (u1 + u2) - 1.0; // triangular on [-1, 1]
        (self.mean + centered * self.spread).clamp(1e-6, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let r = DetRng::new(42);
        assert_eq!(r.uniform(1, 2, 3), r.uniform(1, 2, 3));
        assert_ne!(r.uniform(1, 2, 3), r.uniform(1, 2, 4));
        assert_ne!(DetRng::new(42).raw(1, 2, 3), DetRng::new(43).raw(1, 2, 3));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let r = DetRng::new(7);
        for i in 0..10_000u64 {
            let u = r.uniform(i, 0, 0);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_is_half() {
        let r = DetRng::new(11);
        let n = 50_000u64;
        let mean: f64 = (0..n).map(|i| r.uniform(i, 1, 2)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let r = DetRng::new(3);
        let n = 100_000u64;
        let hits = (0..n).filter(|&i| r.bernoulli(0.03, i, 9, 9)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.03).abs() < 0.005, "rate={rate}");
    }

    #[test]
    fn score_dist_concentrates_near_mean() {
        let d = ScoreDist::new(0.8, 0.15);
        let r = DetRng::new(5);
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n).map(|i| d.sample(&r, i, 0, 0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.8).abs() < 0.01, "mean={mean}");
        assert!(samples.iter().all(|&s| (0.0..=1.0).contains(&s)));
        assert!(samples
            .iter()
            .all(|&s| (0.65 - 1e-9..=0.95 + 1e-9).contains(&s)));
    }

    #[test]
    fn score_dist_clamps() {
        let d = ScoreDist::new(0.95, 0.2);
        let r = DetRng::new(6);
        for i in 0..5_000u64 {
            let s = d.sample(&r, i, 0, 0);
            assert!(s <= 1.0 && s > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn invalid_mean_panics() {
        let _ = ScoreDist::new(1.5, 0.1);
    }

    #[test]
    fn bernoulli_threshold_at_the_edges() {
        assert_eq!(bernoulli_threshold(0.0), 0);
        assert_eq!(bernoulli_threshold(-0.5), 0);
        assert_eq!(bernoulli_threshold(f64::NAN), 0);
        assert_eq!(bernoulli_threshold(f64::MIN_POSITIVE), 1);
        assert_eq!(bernoulli_threshold(1e-300), 1);
        assert_eq!(bernoulli_threshold(2f64.powi(-53)), 1);
        assert_eq!(bernoulli_threshold(2f64.powi(-53) * 1.5), 2);
        assert_eq!(bernoulli_threshold(0.5), 1 << 52);
        assert_eq!(bernoulli_threshold(1.0 - 2f64.powi(-53)), (1 << 53) - 1);
        assert_eq!(bernoulli_threshold(1.0), 1 << 53);
        assert_eq!(bernoulli_threshold(7.0), 1 << 53);
        assert_eq!(bernoulli_threshold(f64::INFINITY), 1 << 53);
    }

    #[test]
    fn integer_draw_matches_float_draw() {
        let to_unit = |k: u64| k as f64 * (1.0 / (1u64 << 53) as f64);
        let mut ps = vec![
            0.0,
            1e-300,
            2f64.powi(-53),
            0.006,
            0.2,
            0.5,
            0.999,
            1.0,
            2.0,
        ];
        ps.extend((1..200u64).map(|i| DetRng::new(99).uniform(i, 0, 0)));
        for p in ps {
            let t = bernoulli_threshold(p);
            // The 53-bit draws on both sides of the threshold.
            for k in [0, 1, t.saturating_sub(1), t, t + 1, (1 << 53) - 1] {
                let k = k.min((1 << 53) - 1);
                assert_eq!(to_unit(k) < p, k < t, "p={p} k={k}");
            }
        }
        let r = DetRng::new(21);
        for p in [0.0, 0.004, 0.2, 0.5, 1.0] {
            let t = bernoulli_threshold(p);
            for a in 0..50u64 {
                let site = r.at(a);
                for b in 0..50u64 {
                    assert_eq!(site.raw(b, 2), r.raw(a, b, 2));
                    assert_eq!(site.bernoulli(t, b, 2), r.bernoulli(p, a, b, 2));
                }
            }
        }
    }
}
