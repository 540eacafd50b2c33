//! The binomial pmf in log space.
//!
//! Naus's `Q₂`/`Q₃` formulas are combinations of binomial pmf/cdf terms
//! `b(k; n, p)` and `F(r; n, p)` at small window sizes `n = w, w−1, w−2` but
//! potentially extreme rates (`p` down to `1e-6` in the paper's Figure-2
//! sweep), so everything is computed in log space.

/// `b(k; n, p)` for `k ≤ n`, given `ln C(n, k)`. The one pmf expression,
/// shared with the Naus binomial row so both round identically.
pub(crate) fn pmf_from_ln_choose(ln_choose: f64, k: u64, n: u64, p: f64) -> f64 {
    if p == 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p == 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln = ln_choose + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln();
    ln.exp()
}

// The log-space pmf/cdf building blocks live on as the test-only
// reference evaluation (`crate::reference`), which the Naus rows are
// checked against bit for bit; these tests pin that reference.
#[cfg(test)]
mod tests {
    use crate::reference::{binom_cdf, binom_pmf, binom_pmf_i, ln_choose, ln_factorial};
    use vaq_types::rng::for_cases;

    #[test]
    fn factorial_small_values() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn choose_matches_pascal() {
        assert!((ln_choose(5, 2).exp() - 10.0).abs() < 1e-9);
        assert!((ln_choose(10, 0).exp() - 1.0).abs() < 1e-12);
        assert!((ln_choose(10, 10).exp() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pmf_known_values() {
        // Bin(4, 0.5): pmf(2) = 6/16.
        assert!((binom_pmf(2, 4, 0.5) - 0.375).abs() < 1e-12);
        assert_eq!(binom_pmf(5, 4, 0.5), 0.0);
    }

    #[test]
    fn pmf_degenerate_rates() {
        assert_eq!(binom_pmf(0, 10, 0.0), 1.0);
        assert_eq!(binom_pmf(1, 10, 0.0), 0.0);
        assert_eq!(binom_pmf(10, 10, 1.0), 1.0);
        assert_eq!(binom_pmf(9, 10, 1.0), 0.0);
    }

    #[test]
    fn cdf_boundaries() {
        assert_eq!(binom_cdf(-1, 10, 0.3), 0.0);
        assert_eq!(binom_cdf(10, 10, 0.3), 1.0);
        assert_eq!(binom_cdf(99, 10, 0.3), 1.0);
    }

    #[test]
    fn cdf_known_value() {
        // P(Bin(3, 0.5) ≤ 1) = (1 + 3)/8.
        assert!((binom_cdf(1, 3, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pmf_signed_wrapper() {
        assert_eq!(binom_pmf_i(-3, 10, 0.4), 0.0);
        assert_eq!(binom_pmf_i(2, 10, 0.4), binom_pmf(2, 10, 0.4));
    }

    #[test]
    fn prop_pmf_sums_to_one() -> Result<(), String> {
        for_cases(
            "prop_pmf_sums_to_one",
            256,
            |r| (r.gen_range(1u64..60), r.gen_range(0.0f64..=1.0)),
            |&(n, p)| {
                let total: f64 = (0..=n).map(|k| binom_pmf(k, n, p)).sum();
                assert!((total - 1.0).abs() < 1e-9, "sum={total}");
            },
        )
    }

    #[test]
    fn prop_cdf_monotone() -> Result<(), String> {
        for_cases(
            "prop_cdf_monotone",
            256,
            |r| (r.gen_range(1u64..40), r.gen_range(0.001f64..0.999)),
            |&(n, p)| {
                let mut prev = 0.0;
                for r in 0..=n as i64 {
                    let c = binom_cdf(r, n, p);
                    assert!(c + 1e-12 >= prev);
                    prev = c;
                }
            },
        )
    }

    #[test]
    fn prop_cdf_complements() -> Result<(), String> {
        for_cases(
            "prop_cdf_complements",
            256,
            |rng| {
                let n = rng.gen_range(1u64..40);
                // `r < n`: the split leaves a non-empty upper tail.
                (
                    n,
                    rng.gen_range(0.001f64..0.999),
                    rng.gen_range(0..n) as i64,
                )
            },
            |&(n, p, r)| {
                let lower = binom_cdf(r, n, p);
                let upper: f64 = ((r + 1) as u64..=n).map(|k| binom_pmf(k, n, p)).sum();
                assert!((lower + upper - 1.0).abs() < 1e-9);
            },
        )
    }
}
