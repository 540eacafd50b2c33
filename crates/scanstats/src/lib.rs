//! # vaq-scanstats
//!
//! Scan statistics for event sequences — the statistical foundation of the
//! paper's SVAQ/SVAQD algorithms (§3.2–§3.3).
//!
//! Detector positives on frames (objects) or shots (actions) are modeled as
//! Bernoulli trials with a background success probability `p`. A query
//! predicate is declared present in a window of `w` occurrence units (OUs)
//! when the number of positives reaches a *critical value* `k_crit`: the
//! smallest `k` for which the probability of *some* window of length `w`
//! among `N` trials containing `≥ k` successes is at most the significance
//! level `α`:
//!
//! ```text
//! P( S_w(N) ≥ k_crit | p₀, w, L ) ≤ α        with  L = N / w
//! ```
//!
//! * [`naus`] implements Naus's 1982 approximation
//!   `P(S_w(N) ≥ k) ≈ 1 − Q₂ (Q₃/Q₂)^(L−2)` with the exact `Q₂ = P(S_w(2w) < k)`
//!   and `Q₃ = P(S_w(3w) < k)` formulas.
//! * [`critical`] searches for `k_crit` and caches it per background rate.
//! * [`exact`] provides ground truth: a finite-Markov-chain-embedding style
//!   dynamic program over window bitmasks (exact for small `w`, and the
//!   mechanism behind the paper's footnote-7 Markov-dependent extension)
//!   plus a Monte-Carlo estimator for larger windows.
//! * [`kernel`] implements SVAQD's exponential-kernel background-rate
//!   estimator with edge correction (paper Eq. 6) in `O(1)` per occurrence
//!   unit, alongside an `O(N*)` direct reference implementation used by the
//!   tests.

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

mod binomial;
pub mod critical;
pub mod exact;
pub mod kernel;
pub mod markov;
pub mod naus;
pub mod reachability;
#[cfg(test)]
mod reference;

pub use critical::{critical_value, critical_value_checked, CriticalValueCache, ScanConfig};
pub use kernel::{BackgroundRateEstimator, EstimatorCheckpoint};
pub use markov::{bursty_rates, critical_value_markov};
pub use naus::scan_prob;
pub use reachability::{edge_corrected_k, verdict, Verdict};
