//! Ground-truth scan-statistic distributions.
//!
//! Two independent references for `P(S_w(N) ≥ k)`:
//!
//! 1. `exact_scan_prob` — an *exact* dynamic program whose state is the
//!    bitmask of the last `w` trial outcomes. This is a concrete instance of
//!    the finite-Markov-chain-embedding (FMCE) technique the paper's
//!    footnote 7 refers to: the event "some window reached `k` successes" is
//!    absorbed into a terminal state and the chain is stepped `N` times.
//!    Exponential in `w` (the DP holds `2^w` states), so it is restricted to
//!    `w ≤ MAX_EXACT_WINDOW`; within that range it is exact to float
//!    round-off and serves as the oracle for Naus's approximation.
//! 2. `monte_carlo_scan_prob` — seeded simulation with a sliding window
//!    counter, usable at any `w`.
//!
//! Both are test oracles (`cfg(test)`): the property tests here and in
//! [`crate::naus`] compare the product code against them.
//!
//! Because the DP transition probability may depend on the *previous* trial
//! outcome (the lowest bit of the state), the same machinery directly
//! supports first-order Markov-dependent Bernoulli trials
//! (`exact_scan_prob_markov`), implementing the paper's footnote-7
//! extension.

use vaq_types::conv;

/// Largest window length accepted by the exact bitmask DP (`2^w` states).
pub(crate) const MAX_EXACT_WINDOW: u64 = 20;

/// Success rates of a first-order two-state Markov chain over Bernoulli
/// trials: the probability of a success depends on the previous trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarkovRates {
    /// `P(success | previous trial failed)`.
    pub p_after_failure: f64,
    /// `P(success | previous trial succeeded)` — `>` `p_after_failure`
    /// models bursty detections (an object visible on one frame tends to be
    /// visible on the next).
    pub p_after_success: f64,
    /// Success probability of the very first trial.
    pub p_initial: f64,
}

impl MarkovRates {
    /// Independent trials at rate `p` (degenerate chain); with these rates
    /// the Markov DP must agree exactly with the iid DP.
    pub fn iid(p: f64) -> Self {
        Self {
            p_after_failure: p,
            p_after_success: p,
            p_initial: p,
        }
    }

    /// Stationary success probability of the chain.
    #[cfg(test)]
    pub(crate) fn stationary(&self) -> f64 {
        let a = self.p_after_failure;
        let b = self.p_after_success;
        // π solves π = π·b + (1−π)·a.
        if (1.0 - b + a).abs() < f64::EPSILON {
            return a;
        }
        a / (1.0 - b + a)
    }
}

/// Exact `P(S_w(N) ≥ k)` for iid Bernoulli(`p`) trials via the window
/// bitmask DP.
///
/// # Panics
/// Panics if `w > MAX_EXACT_WINDOW` or `w == 0`.
#[cfg(test)]
pub fn exact_scan_prob(k: u64, w: u64, big_n: u64, p: f64) -> f64 {
    exact_scan_prob_markov(k, w, big_n, MarkovRates::iid(p))
}

/// Exact `P(S_w(N) ≥ k)` for first-order Markov-dependent Bernoulli trials.
///
/// State: bitmask of the last `min(t, w)` outcomes (bit 0 = most recent
/// trial). Once any full window accumulates `≥ k` successes the probability
/// mass moves to an absorbing "hit" accumulator.
pub(crate) fn exact_scan_prob_markov(k: u64, w: u64, big_n: u64, rates: MarkovRates) -> f64 {
    assert!(w >= 1, "window must be positive");
    assert!(
        w <= MAX_EXACT_WINDOW,
        "exact DP limited to w ≤ {MAX_EXACT_WINDOW} (got {w})"
    );
    if k == 0 {
        return 1.0;
    }
    if k > w || big_n < w {
        return 0.0;
    }

    // w ≤ MAX_EXACT_WINDOW = 20 (asserted above), so the index conversion
    // cannot fail; the whole DP then runs on usize states with no casts.
    let Some(w_idx) = conv::index(w) else {
        return 0.0;
    };
    let num_states = 1usize << w_idx;
    let mask = num_states - 1;
    // dist[state] = probability of that window content and no hit so far.
    let mut dist = vec![0.0f64; num_states];
    let mut next = vec![0.0f64; num_states];
    let mut hit = 0.0f64;

    // Trial 1 seeds the window.
    dist[0] = 1.0 - rates.p_initial;
    dist[1] = rates.p_initial;

    for t in 2..=big_n {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (state, &prob) in dist.iter().enumerate() {
            if prob == 0.0 {
                continue;
            }
            let p_succ = if state & 1 == 1 {
                rates.p_after_success
            } else {
                rates.p_after_failure
            };
            for (bit, pr) in [(0usize, 1.0 - p_succ), (1usize, p_succ)] {
                if pr == 0.0 {
                    continue;
                }
                let new_state = ((state << 1) | bit) & mask;
                let m = prob * pr;
                if t >= w && u64::from(new_state.count_ones()) >= k {
                    hit += m;
                } else {
                    next[new_state] += m;
                }
            }
        }
        std::mem::swap(&mut dist, &mut next);
        if hit >= 1.0 - 1e-15 {
            return 1.0;
        }
    }
    // Check the final window too when the video is exactly w trials long:
    // with big_n == w the loop above ran t = 2..=w and the t >= w check
    // already covered the single window. For big_n > w all windows were
    // covered incrementally.
    if big_n == w {
        // The t == w iteration handled it unless w == 1.
        if w == 1 {
            return if k == 1 { rates.p_initial } else { 0.0 };
        }
    }
    hit.clamp(0.0, 1.0)
}

/// Monte-Carlo estimate of `P(S_w(N) ≥ k)` over `trials` seeded simulations.
#[cfg(test)]
pub fn monte_carlo_scan_prob(k: u64, w: u64, big_n: u64, p: f64, trials: u32, seed: u64) -> f64 {
    use vaq_types::rng::SeededRng;
    assert!(w >= 1 && trials > 0);
    if k == 0 {
        return 1.0;
    }
    if k > w || big_n < w {
        return 0.0;
    }
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut hits = 0u32;
    // A window longer than the address space can never fill: probability 0.
    let Some(w_len) = conv::index(w) else {
        return 0.0;
    };
    let mut window = vec![false; w_len];
    'trial: for _ in 0..trials {
        window.iter_mut().for_each(|b| *b = false);
        let mut count = 0u64;
        let mut slot = 0usize;
        for t in 1..=big_n {
            if window[slot] {
                count -= 1;
            }
            let success = rng.gen_bool(p);
            window[slot] = success;
            if success {
                count += 1;
            }
            slot += 1;
            if slot == w_len {
                slot = 0;
            }
            if t >= w && count >= k {
                hits += 1;
                continue 'trial;
            }
        }
    }
    hits as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_cases() {
        assert_eq!(exact_scan_prob(0, 5, 50, 0.2), 1.0);
        assert_eq!(exact_scan_prob(6, 5, 50, 0.2), 0.0);
        assert_eq!(exact_scan_prob(2, 5, 4, 0.2), 0.0, "N < w");
    }

    #[test]
    fn single_window_equals_binomial_tail() {
        // N == w: exactly one window, so P(S ≥ k) = P(Bin(w,p) ≥ k).
        let (k, w, p) = (3u64, 6u64, 0.3f64);
        let dp = exact_scan_prob(k, w, w, p);
        let tail: f64 = (k..=w).map(|j| crate::reference::binom_pmf(j, w, p)).sum();
        assert!((dp - tail).abs() < 1e-12, "dp={dp} tail={tail}");
    }

    #[test]
    fn k_equals_one_is_any_success() {
        // P(S_w(N) ≥ 1) = 1 − (1−p)^N.
        let (w, n, p) = (4u64, 12u64, 0.2f64);
        let dp = exact_scan_prob(1, w, n, p);
        let expect = 1.0 - (1.0 - p).powi(n as i32);
        assert!((dp - expect).abs() < 1e-12);
    }

    #[test]
    fn brute_force_enumeration_tiny() {
        // Exhaustively enumerate all 2^N outcomes for a tiny instance.
        let (k, w, n, p) = (2u64, 3u64, 6u64, 0.35f64);
        let mut total = 0.0;
        for bits in 0u32..(1 << n) {
            let ones = bits.count_ones();
            let weight = p.powi(ones as i32) * (1.0 - p).powi((n - ones as u64) as i32);
            let mut hit = false;
            for start in 0..=(n - w) {
                let window = (bits >> start) & ((1 << w) - 1);
                if u64::from(window.count_ones()) >= k {
                    hit = true;
                    break;
                }
            }
            if hit {
                total += weight;
            }
        }
        let dp = exact_scan_prob(k, w, n, p);
        assert!((dp - total).abs() < 1e-12, "dp={dp} brute={total}");
    }

    #[test]
    fn markov_iid_degenerates_to_iid() {
        let (k, w, n, p) = (3u64, 5u64, 40u64, 0.25f64);
        let iid = exact_scan_prob(k, w, n, p);
        let markov = exact_scan_prob_markov(k, w, n, MarkovRates::iid(p));
        assert!((iid - markov).abs() < 1e-12);
    }

    #[test]
    fn bursty_chain_concentrates_more() {
        // Same stationary rate but positive autocorrelation ⇒ higher
        // probability of a dense window.
        let rates = MarkovRates {
            p_after_failure: 0.05,
            p_after_success: 0.6,
            p_initial: 0.111,
        };
        let pi = rates.stationary();
        assert!((pi - 0.111).abs() < 0.01, "stationary={pi}");
        let bursty = exact_scan_prob_markov(4, 8, 80, rates);
        let iid = exact_scan_prob(4, 8, 80, pi);
        assert!(
            bursty > iid,
            "bursty {bursty} should exceed iid {iid} at equal stationary rate"
        );
    }

    #[test]
    fn stationary_of_iid_is_p() {
        assert!((MarkovRates::iid(0.3).stationary() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_agrees_with_dp() {
        let (k, w, n, p) = (3u64, 6u64, 60u64, 0.15f64);
        let dp = exact_scan_prob(k, w, n, p);
        let mc = monte_carlo_scan_prob(k, w, n, p, 60_000, 42);
        assert!((dp - mc).abs() < 0.01, "dp={dp} mc={mc}");
    }

    #[test]
    #[should_panic(expected = "exact DP limited")]
    fn oversized_window_panics() {
        let _ = exact_scan_prob(2, 25, 100, 0.1);
    }

    #[test]
    fn monotone_in_n() {
        let mut prev = 0.0;
        for l in 1..10 {
            let v = exact_scan_prob(3, 6, 6 * l, 0.2);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }
}
