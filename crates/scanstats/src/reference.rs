//! The pre-row Naus evaluation, kept verbatim as a bitwise oracle.
//!
//! Before the [`crate::naus`] binomial row, every `b(j; n, p)` re-summed
//! `ln n!` directly, every `F(r; n, p)` re-summed `r + 1` pmfs, and `Q₃`
//! looped over `k` cdfs — O(k²·w) logarithms per `scan_prob`. This module
//! is that code, unchanged but for crate-private visibility; the tests
//! assert that the row-based `q2`, `q3` and `scan_prob` match it bit for
//! bit.

/// Natural log of `n!`, computed by direct summation (windows are small —
/// hundreds of trials at most — so the O(n) cost is irrelevant and exact
/// summation beats Stirling's approximation on accuracy).
pub(crate) fn ln_factorial(n: u64) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Natural log of the binomial coefficient `C(n, k)`.
pub(crate) fn ln_choose(n: u64, k: u64) -> f64 {
    assert!(k <= n, "ln_choose: k={k} > n={n}");
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial pmf `b(k; n, p) = C(n,k) p^k (1-p)^(n-k)`.
///
/// Returns `0.0` for `k > n`. Handles the degenerate rates `p = 0` and
/// `p = 1` exactly.
pub(crate) fn binom_pmf(k: u64, n: u64, p: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
    if k > n {
        return 0.0;
    }
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose(n, k) + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln.exp()
}

/// Binomial cdf `F(r; n, p) = P(Bin(n, p) ≤ r)`.
///
/// Accepts a *signed* `r` because Naus's formulas index terms like
/// `F(k−5; …)` that go negative for small `k`; any negative `r` yields `0`.
pub(crate) fn binom_cdf(r: i64, n: u64, p: f64) -> f64 {
    let Ok(r) = u64::try_from(r) else {
        return 0.0; // negative index: empty lower tail
    };
    if r >= n {
        return 1.0;
    }
    // Always the lower tail: the pmfs `j = 0..=r`, summed in index order.
    let direct: f64 = (0..=r).map(|k| binom_pmf(k, n, p)).sum();
    direct.min(1.0)
}

/// Binomial pmf accepting a signed index (negative or `> n` ⇒ `0`), matching
/// how Naus's formulas index `b(2k−r; w)` for varying `r`.
pub(crate) fn binom_pmf_i(k: i64, n: u64, p: f64) -> f64 {
    match u64::try_from(k) {
        Ok(k) => binom_pmf(k, n, p),
        Err(_) => 0.0,
    }
}

/// Exact `Q₂ = P(S_w(2w) < k)` under iid Bernoulli(`p`) trials.
///
/// Result is clamped to `[0, 1]` to absorb floating-point noise at extreme
/// parameters.
pub(crate) fn q2(k: u64, w: u64, p: f64) -> f64 {
    debug_assert!(w >= 1);
    if k == 0 {
        return 0.0; // S ≥ 0 always, so P(S < 0) = 0.
    }
    if k > 2 * w {
        return 1.0;
    }
    // k ≤ a small multiple of w here (guarded above); saturate defensively.
    let ki = i64::try_from(k).unwrap_or(i64::MAX);
    let f = |r: i64, n: u64| binom_cdf(r, n, p);
    let bk = binom_pmf(k, w, p);
    let val = f(ki - 1, w).powi(2) - (k as f64 - 1.0) * bk * f(ki - 2, w)
        + w as f64 * p * bk * f(ki - 3, w.saturating_sub(1));
    val.clamp(0.0, 1.0)
}

/// Exact `Q₃ = P(S_w(3w) < k)` under iid Bernoulli(`p`) trials.
pub(crate) fn q3(k: u64, w: u64, p: f64) -> f64 {
    debug_assert!(w >= 1);
    if k == 0 {
        return 0.0;
    }
    if k > 3 * w {
        return 1.0;
    }
    // k ≤ a small multiple of w here (guarded above); saturate defensively.
    let ki = i64::try_from(k).unwrap_or(i64::MAX);
    let f = |r: i64, n: u64| binom_cdf(r, n, p);
    let b = |j: i64, n: u64| binom_pmf_i(j, n, p);
    let wf = w as f64;
    let kf = k as f64;
    let bk = b(ki, w);
    let f_k1 = f(ki - 1, w);

    let a1 =
        2.0 * bk * f_k1 * ((kf - 1.0) * f(ki - 2, w) - wf * p * f(ki - 3, w.saturating_sub(1)));
    let a2 = 0.5
        * bk
        * bk
        * ((kf - 1.0) * (kf - 2.0) * f(ki - 3, w)
            - 2.0 * (kf - 2.0) * wf * p * f(ki - 4, w.saturating_sub(1))
            + wf * (wf - 1.0) * p * p * f(ki - 5, w.saturating_sub(2)));
    let mut a3 = 0.0;
    for r in 1..=ki - 1 {
        a3 += b(2 * ki - r, w) * f(r - 1, w).powi(2);
    }
    let mut a4 = 0.0;
    for r in 2..=ki - 1 {
        a4 += b(2 * ki - r, w)
            * b(r, w)
            * ((r as f64 - 1.0) * f(r - 2, w) - wf * p * f(r - 3, w.saturating_sub(1)));
    }

    (f_k1.powi(3) - a1 + a2 + a3 - a4).clamp(0.0, 1.0)
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
pub(crate) fn scan_prob(k: u64, w: u64, big_n: u64, p: f64) -> f64 {
    assert!(w >= 1, "window length must be positive");
    assert!((0.0..=1.0).contains(&p), "p={p} outside [0,1]");
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
        // Single full window (plus partial shifts ≤ w trials of slack): the
        // dominant term is the one-window binomial tail; we use it directly.
        let ki = i64::try_from(k).unwrap_or(i64::MAX);
        return (1.0 - binom_cdf(ki - 1, w, p)).clamp(0.0, 1.0);
    }
    let q2v = q2(k, w, p);
    if big_n < 3 * w {
        return (1.0 - q2v).clamp(0.0, 1.0);
    }
    if q2v <= f64::MIN_POSITIVE {
        // The two-window survival probability is already ~0: some window
        // reaches k almost surely.
        return 1.0;
    }
    let q3v = q3(k, w, p);
    let l = big_n as f64 / w as f64;
    let ratio = (q3v / q2v).clamp(0.0, 1.0);
    (1.0 - q2v * ratio.powf(l - 2.0)).clamp(0.0, 1.0)
}
