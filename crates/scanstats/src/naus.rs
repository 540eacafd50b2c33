//! Naus's approximation for the distribution of the discrete scan statistic.
//!
//! Let `S_w(N)` be the maximum number of successes observed in any window of
//! `w` consecutive Bernoulli(`p`) trials among `N` trials. Naus (1982,
//! *J. Amer. Statist. Assoc.* 77) gives exact expressions for
//! `Q₂ = P(S_w(2w) < k)` and `Q₃ = P(S_w(3w) < k)` and the remarkably
//! accurate extrapolation (the paper's footnote 6):
//!
//! ```text
//! P(S_w(N) ≥ k)  ≈  1 − Q₂ · (Q₃ / Q₂)^(L−2),        L = N / w.
//! ```
//!
//! The exact `Q₂`/`Q₃` formulas below follow Naus (1982) as reproduced in
//! Glaz, Naus & Wallenstein, *Scan Statistics* (2001), ch. 13, with
//! `b(j; n) = P(Bin(n,p) = j)` and `F(r; n) = P(Bin(n,p) ≤ r)`:
//!
//! ```text
//! Q₂ = F(k−1; w)² − (k−1)·b(k; w)·F(k−2; w) + w·p·b(k; w)·F(k−3; w−1)
//!
//! Q₃ = F(k−1; w)³ − A₁ + A₂ + A₃ − A₄
//! A₁ = 2·b(k; w)·F(k−1; w)·[ (k−1)·F(k−2; w) − w·p·F(k−3; w−1) ]
//! A₂ = ½·b(k; w)²·[ (k−1)(k−2)·F(k−3; w) − 2(k−2)·w·p·F(k−4; w−1)
//!                    + w(w−1)·p²·F(k−5; w−2) ]
//! A₃ = Σ_{r=1}^{k−1} b(2k−r; w)·F(r−1; w)²
//! A₄ = Σ_{r=2}^{k−1} b(2k−r; w)·b(r; w)·[ (r−1)·F(r−2; w) − w·p·F(r−3; w−1) ]
//! ```
//!
//! The property tests in this crate cross-validate the approximation against
//! the exact window-bitmask dynamic program ([`crate::exact`]) and a
//! Monte-Carlo simulation.

use crate::binomial::pmf_from_ln_choose;
use vaq_types::conv::capacity_hint;

/// Exact `Q₂ = P(S_w(2w) < k)` under iid Bernoulli(`p`) trials.
///
/// Result is clamped to `[0, 1]` to absorb floating-point noise at extreme
/// parameters.
#[cfg(test)]
fn q2(k: u64, w: u64, p: f64) -> f64 {
    debug_assert!(w >= 1);
    BinomialRow::new(w, p).q2(k)
}

/// Exact `Q₃ = P(S_w(3w) < k)` under iid Bernoulli(`p`) trials.
#[cfg(test)]
fn q3(k: u64, w: u64, p: f64) -> f64 {
    debug_assert!(w >= 1);
    BinomialRow::new(w, p).q3(k)
}

/// Naus's approximation of `P(S_w(N) ≥ k | p, w, L)` with `L = N / w`
/// (the paper's Eq. 5 left-hand side).
///
/// Degenerate cases are handled exactly: `k = 0` ⇒ `1`; `k > w` ⇒ `0`
/// (a window of `w` trials cannot hold more than `w` successes); `p = 0` ⇒
/// `0` for `k ≥ 1`; `p = 1` ⇒ `1` for `k ≤ w` (given `N ≥ w`). For `N < 2w`
/// the scan reduces to at most a handful of windows and we return the
/// single-window bound `P(Bin(w,p) ≥ k)` when only one full window exists,
/// or `1 − Q₂` when `w ≤ N < 3w`.
pub fn scan_prob(k: u64, w: u64, big_n: u64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
    BinomialRow::new(w, p).scan_prob(k, big_n)
}

/// The binomial law at one rate `p`, tabulated for the three trial counts
/// Naus's formulas index (`n = w, w−1, w−2`): the pmf `b(j; w, p)` and the
/// prefix sums `F(r; n, p)`.
///
/// A critical-value search builds one row per `p` and evaluates every
/// `scan_prob` probe against it, so each probe costs O(k) lookups instead
/// of O(k²·w) logarithms. Every entry is computed by the operations the
/// direct evaluation (the test-only `reference::binom_pmf` and
/// `reference::binom_cdf`) performs, in the same order: `ln n!` by the same
/// left fold as `reference::ln_factorial`, and `F(r)` by the same running
/// sum over `j = 0..=r`. So every value is bit-identical to theirs.
#[derive(Debug)]
pub(crate) struct BinomialRow {
    w: u64,
    p: f64,
    /// `b(j; w, p)` for `j ∈ 0..=w`.
    pmf: Vec<f64>,
    /// `cdf[i][r] = F(r; w − i, p)` for `r < w − i` (trial counts saturate
    /// at zero, as the formulas' `w.saturating_sub(i)` do).
    cdf: [Vec<f64>; 3],
}

impl BinomialRow {
    pub(crate) fn new(w: u64, p: f64) -> Self {
        // `Iterator::sum`'s starting value: both folds below begin where
        // `ln_factorial` and `binom_cdf` begin.
        let empty_sum: f64 = std::iter::empty::<f64>().sum();
        let ln_fact: Vec<f64> = (0..=w)
            .scan(empty_sum, |acc, n| {
                if n >= 2 {
                    *acc += (n as f64).ln();
                }
                Some(*acc)
            })
            .collect();
        // `b(j; n, p)` for `j ∈ 0..=n`, reading `ln j!` forwards and
        // `ln (n−j)!` backwards over `ln 0! ..= ln n!`.
        let pmfs = |n: u64| -> Vec<f64> {
            let lf = &ln_fact[..=capacity_hint(n)];
            let ln_n = ln_fact[capacity_hint(n)];
            (0..=n)
                .zip(lf.iter().zip(lf.iter().rev()))
                .map(|(j, (&ln_j, &ln_nj))| pmf_from_ln_choose(ln_n - ln_j - ln_nj, j, n, p))
                .collect()
        };
        // `F(r; n, p)` for `r < n`: running sums of `b(0..=r; n, p)`.
        let prefix_sums = |pmf: &[f64]| -> Vec<f64> {
            pmf[..pmf.len() - 1]
                .iter()
                .scan(empty_sum, |acc, &b| {
                    *acc += b;
                    Some(acc.min(1.0))
                })
                .collect()
        };
        let pmf = pmfs(w);
        let cdf = [0, 1, 2].map(|i| match w.saturating_sub(i) {
            n if n == w => prefix_sums(&pmf),
            n => prefix_sums(&pmfs(n)),
        });
        Self { w, p, pmf, cdf }
    }

    /// `b(j; w, p)`; zero for `j < 0` or `j > w`.
    fn b(&self, j: i64) -> f64 {
        usize::try_from(j)
            .ok()
            .and_then(|j| self.pmf.get(j))
            .copied()
            .unwrap_or(0.0)
    }

    /// `F(r; w − i, p)`; zero for `r < 0`, one for `r ≥ w − i`.
    fn f(&self, r: i64, i: usize) -> f64 {
        match usize::try_from(r) {
            Err(_) => 0.0, // negative index: empty lower tail
            Ok(r) => self.cdf[i].get(r).copied().unwrap_or(1.0),
        }
    }

    /// [`q2`] at this row's `w` and `p`.
    pub(crate) fn q2(&self, k: u64) -> f64 {
        let (w, p) = (self.w, self.p);
        if k == 0 {
            return 0.0; // S ≥ 0 always, so P(S < 0) = 0.
        }
        if k > 2 * w {
            return 1.0;
        }
        // k ≤ a small multiple of w here (guarded above); saturate defensively.
        let ki = i64::try_from(k).unwrap_or(i64::MAX);
        let bk = self.b(ki);
        let val = self.f(ki - 1, 0).powi(2) - (k as f64 - 1.0) * bk * self.f(ki - 2, 0)
            + w as f64 * p * bk * self.f(ki - 3, 1);
        val.clamp(0.0, 1.0)
    }

    /// [`q3`] at this row's `w` and `p`.
    pub(crate) fn q3(&self, k: u64) -> f64 {
        let (w, p) = (self.w, self.p);
        if k == 0 {
            return 0.0;
        }
        if k > 3 * w {
            return 1.0;
        }
        // k ≤ a small multiple of w here (guarded above); saturate defensively.
        let ki = i64::try_from(k).unwrap_or(i64::MAX);
        let f = |r: i64, i: usize| self.f(r, i);
        let b = |j: i64| self.b(j);
        let wf = w as f64;
        let kf = k as f64;
        let bk = b(ki);
        let f_k1 = f(ki - 1, 0);

        let a1 = 2.0 * bk * f_k1 * ((kf - 1.0) * f(ki - 2, 0) - wf * p * f(ki - 3, 1));
        let a2 = 0.5
            * bk
            * bk
            * ((kf - 1.0) * (kf - 2.0) * f(ki - 3, 0) - 2.0 * (kf - 2.0) * wf * p * f(ki - 4, 1)
                + wf * (wf - 1.0) * p * p * f(ki - 5, 2));
        let mut a3 = 0.0;
        for r in 1..=ki - 1 {
            a3 += b(2 * ki - r) * f(r - 1, 0).powi(2);
        }
        let mut a4 = 0.0;
        for r in 2..=ki - 1 {
            a4 += b(2 * ki - r) * b(r) * ((r as f64 - 1.0) * f(r - 2, 0) - wf * p * f(r - 3, 1));
        }

        (f_k1.powi(3) - a1 + a2 + a3 - a4).clamp(0.0, 1.0)
    }

    /// [`scan_prob`] at this row's `w` and `p`.
    pub(crate) fn scan_prob(&self, k: u64, big_n: u64) -> f64 {
        let (w, p) = (self.w, self.p);
        assert!(w >= 1, "window length must be positive");
        if k == 0 {
            return 1.0;
        }
        if k > w || big_n < w {
            return 0.0;
        }
        if p == 0.0 {
            return 0.0;
        }
        if p == 1.0 {
            return 1.0;
        }
        if big_n < 2 * w {
            // Single full window (plus partial shifts ≤ w trials of slack):
            // the dominant term is the one-window binomial tail; we use it
            // directly.
            let ki = i64::try_from(k).unwrap_or(i64::MAX);
            return (1.0 - self.f(ki - 1, 0)).clamp(0.0, 1.0);
        }
        let q2v = self.q2(k);
        if big_n < 3 * w {
            return (1.0 - q2v).clamp(0.0, 1.0);
        }
        if q2v <= f64::MIN_POSITIVE {
            // The two-window survival probability is already ~0: some window
            // reaches k almost surely.
            return 1.0;
        }
        let q3v = self.q3(k);
        let l = big_n as f64 / w as f64;
        let ratio = (q3v / q2v).clamp(0.0, 1.0);
        (1.0 - q2v * ratio.powf(l - 2.0)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_scan_prob, monte_carlo_scan_prob};
    use crate::reference;
    use vaq_types::rng::{for_cases, SeededRng};

    /// Horizons on both sides of each `scan_prob` branch boundary (`w`,
    /// `2w`, `3w`) plus one far out.
    fn horizons(w: u64) -> [u64; 7] {
        [w - 1, w, 2 * w - 1, 2 * w, 3 * w - 1, 3 * w, 200 * w]
    }

    /// Public `q2`, `q3` and `scan_prob` against the pre-row code, bit for
    /// bit.
    fn assert_matches_reference(k: u64, w: u64, n: u64, p: f64) {
        let at = format!("k={k} w={w} N={n} p={p:e}");
        assert_eq!(
            scan_prob(k, w, n, p).to_bits(),
            reference::scan_prob(k, w, n, p).to_bits(),
            "scan_prob {at}"
        );
        assert_eq!(
            q2(k, w, p).to_bits(),
            reference::q2(k, w, p).to_bits(),
            "q2 {at}"
        );
        assert_eq!(
            q3(k, w, p).to_bits(),
            reference::q3(k, w, p).to_bits(),
            "q3 {at}"
        );
    }

    #[test]
    fn row_matches_reference_on_every_branch() {
        let mut underflow_probes = 0;
        for w in [1u64, 2, 3, 5, 13, 20] {
            for p in [0.0, 1e-9, 3e-4, 0.05, 0.5, 0.999, 1.0 - 1e-9, 1.0] {
                for k in 0..=w + 1 {
                    for n in horizons(w) {
                        assert_matches_reference(k, w, n, p);
                        if (1..=w).contains(&k)
                            && n >= 3 * w
                            && p > 0.0
                            && p < 1.0
                            && reference::q2(k, w, p) <= f64::MIN_POSITIVE
                        {
                            underflow_probes += 1;
                        }
                    }
                }
            }
        }
        assert!(
            underflow_probes > 0,
            "the q2 ≤ MIN_POSITIVE branch went untested"
        );
    }

    /// Rates covering the degenerate ends, the quantization floor, rates
    /// near 1 (where `q2` underflows below `f64::MIN_POSITIVE` for small
    /// `k`), a log-uniform spread and a uniform spread.
    /// Weighted 1 : 1 : 1 : 2 : 4 : 4 in that order.
    fn draw_rate(r: &mut SeededRng) -> f64 {
        match r.gen_range(0..13u32) {
            0 => 0.0,
            1 => 1.0,
            2 => 1e-9,
            3 | 4 => 1.0 - 10f64.powi(-(r.gen_range(1u32..=12) as i32)),
            5..=8 => 10f64.powf(r.gen_range(-9.0f64..0.0)),
            _ => r.gen_range(0.0f64..=1.0),
        }
    }

    #[test]
    fn degenerate_cases() {
        assert_eq!(scan_prob(0, 10, 100, 0.3), 1.0);
        assert_eq!(scan_prob(11, 10, 100, 0.3), 0.0);
        assert_eq!(scan_prob(3, 10, 100, 0.0), 0.0);
        assert_eq!(scan_prob(3, 10, 100, 1.0), 1.0);
        assert_eq!(scan_prob(3, 10, 5, 0.9), 0.0, "N < w has no full window");
    }

    #[test]
    fn q2_is_a_probability_and_monotone_in_k() {
        let (w, p) = (12, 0.2);
        let mut prev = 0.0;
        for k in 1..=w {
            let q = q2(k, w, p);
            assert!((0.0..=1.0).contains(&q), "q2({k})={q}");
            assert!(q + 1e-9 >= prev, "q2 must grow with k");
            prev = q;
        }
    }

    #[test]
    fn q2_matches_exact_two_window_probability() {
        // Q2 is *exact* for N = 2w; compare with the bitmask DP.
        for &(k, w, p) in &[(2u64, 5u64, 0.1f64), (3, 5, 0.3), (4, 8, 0.2), (1, 4, 0.05)] {
            let approx = 1.0 - q2(k, w, p);
            let exact = exact_scan_prob(k, w, 2 * w, p);
            assert!(
                (approx - exact).abs() < 1e-9,
                "k={k} w={w} p={p}: 1-Q2={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn q3_matches_exact_three_window_probability() {
        for &(k, w, p) in &[(2u64, 5u64, 0.1f64), (3, 5, 0.3), (4, 8, 0.2), (2, 6, 0.15)] {
            let approx = 1.0 - q3(k, w, p);
            let exact = exact_scan_prob(k, w, 3 * w, p);
            assert!(
                (approx - exact).abs() < 1e-9,
                "k={k} w={w} p={p}: 1-Q3={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn approximation_close_to_exact_dp() {
        // The Naus extrapolation should track the exact DP within a small
        // absolute error across moderate parameter ranges.
        for &(k, w, n, p) in &[
            (3u64, 8u64, 80u64, 0.1f64),
            (4, 8, 160, 0.1),
            (5, 10, 100, 0.2),
            (2, 6, 120, 0.02),
            (6, 12, 240, 0.15),
        ] {
            let approx = scan_prob(k, w, n, p);
            let exact = exact_scan_prob(k, w, n, p);
            assert!(
                (approx - exact).abs() < 0.02,
                "k={k} w={w} N={n} p={p}: approx={approx} exact={exact}"
            );
        }
    }

    #[test]
    fn matches_monte_carlo_on_larger_window() {
        let (k, w, n, p) = (7u64, 30u64, 600u64, 0.1f64);
        let approx = scan_prob(k, w, n, p);
        let mc = monte_carlo_scan_prob(k, w, n, p, 40_000, 0xC0FFEE);
        assert!(
            (approx - mc).abs() < 0.02,
            "approx={approx} monte-carlo={mc}"
        );
    }

    #[test]
    fn prop_row_matches_reference_bitwise() -> Result<(), String> {
        for_cases(
            "prop_row_matches_reference_bitwise",
            64,
            |r| {
                let w = r.gen_range(1u64..64);
                let k_pick = r.gen_range(0u64..66);
                (w, k_pick, r.gen_range(0usize..7), draw_rate(r))
            },
            |&(w, k_pick, n_pick, p)| {
                let k = k_pick % (w + 2);
                assert_matches_reference(k, w, horizons(w)[n_pick], p);
            },
        )
    }

    #[test]
    fn prop_scan_prob_in_unit_interval() -> Result<(), String> {
        for_cases(
            "prop_scan_prob_in_unit_interval",
            64,
            |r| {
                let k = r.gen_range(1u64..12);
                let w = r.gen_range(2u64..14);
                (k, w, r.gen_range(1u64..20), r.gen_range(0.0f64..=1.0))
            },
            |&(k, w, l, p)| {
                let v = scan_prob(k, w, w * l, p);
                assert!((0.0..=1.0).contains(&v));
            },
        )
    }

    #[test]
    fn prop_monotone_decreasing_in_k() -> Result<(), String> {
        for_cases(
            "prop_monotone_decreasing_in_k",
            64,
            |r| {
                (
                    r.gen_range(3u64..12),
                    r.gen_range(3u64..12),
                    r.gen_range(0.01f64..0.5),
                )
            },
            |&(w, l, p)| {
                let n = w * l;
                let mut prev = 1.0;
                for k in 1..=w {
                    let v = scan_prob(k, w, n, p);
                    assert!(v <= prev + 1e-9, "k={k}: {v} > prev {prev}");
                    prev = v;
                }
            },
        )
    }

    #[test]
    fn prop_monotone_increasing_in_n() -> Result<(), String> {
        for_cases(
            "prop_monotone_increasing_in_n",
            64,
            |r| {
                (
                    r.gen_range(2u64..6),
                    r.gen_range(6u64..12),
                    r.gen_range(0.01f64..0.4),
                )
            },
            |&(k, w, p)| {
                let mut prev = 0.0;
                for l in 3u64..14 {
                    let v = scan_prob(k, w, w * l, p);
                    assert!(v + 1e-9 >= prev, "L={l}: {v} < prev {prev}");
                    prev = v;
                }
            },
        )
    }

    #[test]
    fn prop_monotone_increasing_in_p() -> Result<(), String> {
        for_cases(
            "prop_monotone_increasing_in_p",
            64,
            |r| {
                (
                    r.gen_range(2u64..6),
                    r.gen_range(6u64..12),
                    r.gen_range(3u64..10),
                )
            },
            |&(k, w, l)| {
                let n = w * l;
                let mut prev = 0.0;
                for i in 1..=20 {
                    let p = i as f64 * 0.03;
                    let v = scan_prob(k, w, n, p);
                    assert!(v + 1e-6 >= prev, "p={p}: {v} < prev {prev}");
                    prev = v;
                }
            },
        )
    }

    #[test]
    fn prop_tracks_exact_dp() -> Result<(), String> {
        for_cases(
            "prop_tracks_exact_dp",
            64,
            |r| {
                let w = r.gen_range(3u64..10);
                // `k ≤ w`, within `1..6`.
                let k = r.gen_range(1..=w.min(5));
                (k, w, r.gen_range(2u64..10), r.gen_range(0.01f64..0.35))
            },
            |&(k, w, l, p)| {
                let n = w * l;
                let approx = scan_prob(k, w, n, p);
                let exact = exact_scan_prob(k, w, n, p);
                assert!(
                    (approx - exact).abs() < 0.05,
                    "k={k} w={w} N={n} p={p}: approx={approx} exact={exact}"
                );
            },
        )
    }
}
