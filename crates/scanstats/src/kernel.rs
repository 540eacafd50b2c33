//! SVAQD's dynamic background-probability estimator (paper §3.3, Eq. 6).
//!
//! The background probability `p` of detector positives is re-estimated as
//! the stream evolves by smoothing the event indicator with an exponential
//! kernel `K((t−t_n)/u) = exp(−(t−t_n)/u)` and applying Diggle's edge
//! correction for the finite history:
//!
//! ```text
//!              Σ_n exp(−(t−t_n)/u)          (events n at OUs t_n ≤ t)
//! p̂(t)  =  ─────────────────────────
//!              Σ_{j=1}^{t} exp(−(t−j)/u)    (all OUs observed so far)
//! ```
//!
//! This is the exponentially-weighted fraction of occurrence units carrying
//! an event; it is unbiased for constant `p` (`E[p̂] = p`, the property the
//! paper claims for its edge-corrected estimator) and reduces exactly to the
//! paper's Eq. 6 recurrence when rolled forward one OU at a time.
//!
//! > **Note on Eq. 6 as printed.** The paper's displayed estimator retains a
//! > `1/(N*·u)` prefactor inherited from its kernel-density derivation; that
//! > factor would make `p̂` scale like a density rather than a probability
//! > and cancels against the edge-correction denominator `Σ_j K((t−t_j)/u)`
//! > written immediately above it. We implement the cancelled (dimensionally
//! > consistent, unbiased) form.
//!
//! [`BackgroundRateEstimator`] maintains the two decayed sums in `O(1)` per
//! occurrence unit. The test-only `DirectKernelEstimator` recomputes the
//! sums from the stored event list in `O(N*)` and pins the recurrence down.
//!
//! The initialization probability `p₀` enters as a *prior pseudo-history*:
//! one kernel volume (`u` occurrence units) of virtual observations at rate
//! `p₀`. Its weight decays geometrically as real data arrives — which is
//! precisely how SVAQD "eliminate\[s\] the influence of `p_obj₀` naturally"
//! (paper §3.3).

use vaq_types::{Result, VaqError};

/// A serializable snapshot of a [`BackgroundRateEstimator`]'s full state.
///
/// The estimator is two decayed sums plus counters, so checkpointing it is
/// exact: an estimator restored from a checkpoint produces bit-for-bit the
/// same estimates as one that observed the stream uninterrupted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorCheckpoint {
    /// Checkpoint schema version; `0` (what an absent field reads as)
    /// marks a pre-versioning checkpoint and reads as version 1.
    pub format_version: u32,
    /// Kernel bandwidth `u` in occurrence units.
    pub bandwidth: f64,
    /// Decayed event-weight sum (prior included).
    pub event_sum: f64,
    /// Decayed total-weight sum (prior included).
    pub weight_sum: f64,
    /// Occurrence units observed.
    pub observed: u64,
    /// Events observed.
    pub events: u64,
}

vaq_types::json_record!(EstimatorCheckpoint: #[default] format_version, bandwidth, event_sum,
    weight_sum, observed, events);

/// `O(1)`-per-update exponential-kernel estimator of the background event
/// probability.
#[derive(Debug, Clone)]
pub struct BackgroundRateEstimator {
    /// Kernel bandwidth `u` in occurrence units.
    bandwidth: f64,
    /// Per-OU decay factor `exp(−1/u)`.
    decay: f64,
    /// Decayed event-weight sum `Σ_n exp(−(t−t_n)/u)` (+ prior part).
    event_sum: f64,
    /// Decayed total-weight sum `Σ_j exp(−(t−j)/u)` (+ prior part).
    weight_sum: f64,
    /// Occurrence units observed so far (excludes the prior pseudo-history).
    observed: u64,
    /// Running count of real events, for diagnostics.
    events: u64,
}

impl BackgroundRateEstimator {
    /// Creates an estimator with bandwidth `u` (occurrence units) and
    /// initial background probability `p0`, weighted as one kernel volume of
    /// pseudo-history.
    pub fn new(bandwidth: f64, p0: f64) -> Result<Self> {
        Self::with_prior_weight(bandwidth, p0, bandwidth)
    }

    /// Like [`Self::new`] with explicit prior pseudo-weight (in occurrence
    /// units). Weight `0` yields the pure data-driven estimator of Eq. 6.
    pub fn with_prior_weight(bandwidth: f64, p0: f64, prior_weight: f64) -> Result<Self> {
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(VaqError::InvalidConfig(format!(
                "kernel bandwidth must be positive and finite, got {bandwidth}"
            )));
        }
        if !(0.0..=1.0).contains(&p0) {
            return Err(VaqError::InvalidConfig(format!(
                "initial background probability {p0} outside [0,1]"
            )));
        }
        if !(prior_weight.is_finite() && prior_weight >= 0.0) {
            return Err(VaqError::InvalidConfig(format!(
                "prior weight must be non-negative, got {prior_weight}"
            )));
        }
        Ok(Self {
            bandwidth,
            decay: (-1.0 / bandwidth).exp(),
            event_sum: p0 * prior_weight,
            weight_sum: prior_weight,
            observed: 0,
            events: 0,
        })
    }

    /// Kernel bandwidth `u`.
    #[inline]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Occurrence units observed so far.
    #[inline]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Events observed so far.
    #[inline]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Feeds one occurrence unit; `event` is the detector's prediction
    /// indicator on it (the paper's `𝟙 = 1` ⇒ an event occurred).
    pub fn observe(&mut self, event: bool) {
        self.event_sum = self.event_sum * self.decay + if event { 1.0 } else { 0.0 };
        self.weight_sum = self.weight_sum * self.decay + 1.0;
        self.observed += 1;
        self.events += u64::from(event);
    }

    /// Feeds a run of occurrence units given their explicit indicators.
    pub fn observe_all(&mut self, indicators: impl IntoIterator<Item = bool>) {
        for e in indicators {
            self.observe(e);
        }
    }

    /// `O(1)` block update for `n` occurrence units containing `m` events
    /// assumed uniformly spread through the block — the "update after
    /// processing a fixed number of clips" mode of Algorithm 3. Closed form:
    /// a geometric series replaces the per-OU loop.
    ///
    /// # Panics
    /// Panics if `m > n`.
    pub fn observe_block_uniform(&mut self, n: u64, m: u64) {
        assert!(m <= n, "block has more events ({m}) than OUs ({n})");
        if n == 0 {
            return;
        }
        // `powi` wants i32; for block lengths beyond that (never reached —
        // blocks are clip-sized) the decayed weight is 0 anyway, so saturate.
        let dn = self.decay.powi(i32::try_from(n).unwrap_or(i32::MAX));
        // Σ_{i=1}^{n} d^{n-i} = (1 − d^n) / (1 − d).
        let geo = (1.0 - dn) / (1.0 - self.decay);
        self.event_sum = self.event_sum * dn + (m as f64 / n as f64) * geo;
        self.weight_sum = self.weight_sum * dn + geo;
        self.observed += n;
        self.events += m;
    }

    /// Snapshots the estimator's full state for checkpointing.
    pub fn checkpoint(&self) -> EstimatorCheckpoint {
        EstimatorCheckpoint {
            format_version: vaq_types::format::ESTIMATOR_CHECKPOINT_VERSION,
            bandwidth: self.bandwidth,
            event_sum: self.event_sum,
            weight_sum: self.weight_sum,
            observed: self.observed,
            events: self.events,
        }
    }

    /// Rebuilds an estimator from a checkpoint, validating field domains.
    pub fn restore(c: &EstimatorCheckpoint) -> Result<Self> {
        vaq_types::format::check_version(
            "estimator checkpoint",
            c.format_version,
            vaq_types::format::ESTIMATOR_CHECKPOINT_VERSION,
        )?;
        if !(c.bandwidth.is_finite() && c.bandwidth > 0.0) {
            return Err(VaqError::InvalidConfig(format!(
                "checkpoint bandwidth {} must be positive and finite",
                c.bandwidth
            )));
        }
        if !(c.event_sum.is_finite()
            && c.weight_sum.is_finite()
            && c.event_sum >= 0.0
            && c.weight_sum >= 0.0
            && c.event_sum <= c.weight_sum + 1e-9)
        {
            return Err(VaqError::InvalidConfig(format!(
                "checkpoint kernel sums invalid: events {} over weight {}",
                c.event_sum, c.weight_sum
            )));
        }
        Ok(Self {
            bandwidth: c.bandwidth,
            decay: (-1.0 / c.bandwidth).exp(),
            event_sum: c.event_sum,
            weight_sum: c.weight_sum,
            observed: c.observed,
            events: c.events,
        })
    }

    /// Current edge-corrected estimate `p̂(t)`, clamped into `[0, 1]`.
    /// Before any data (and with zero prior weight) falls back to `0`.
    pub fn estimate(&self) -> f64 {
        if self.weight_sum <= 0.0 {
            return 0.0;
        }
        (self.event_sum / self.weight_sum).clamp(0.0, 1.0)
    }
}

/// `O(N*)` reference implementation: stores every occurrence unit's
/// indicator and recomputes the kernel sums from scratch. A test oracle: it
/// is quadratic over a stream.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct DirectKernelEstimator {
    bandwidth: f64,
    indicators: Vec<bool>,
}

#[cfg(test)]
impl DirectKernelEstimator {
    /// Creates the reference estimator with bandwidth `u` (no prior).
    pub fn new(bandwidth: f64) -> Self {
        assert!(bandwidth > 0.0);
        Self {
            bandwidth,
            indicators: Vec::new(),
        }
    }

    /// Feeds one occurrence unit.
    pub fn observe(&mut self, event: bool) {
        self.indicators.push(event);
    }

    /// Recomputes `p̂(t)` from the stored history.
    pub fn estimate(&self) -> f64 {
        let t = self.indicators.len();
        if t == 0 {
            return 0.0;
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for (j, &e) in self.indicators.iter().enumerate() {
            let age = (t - 1 - j) as f64;
            let wgt = (-age / self.bandwidth).exp();
            den += wgt;
            if e {
                num += wgt;
            }
        }
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vaq_types::rng::{for_cases, SeededRng};

    #[test]
    fn checkpoint_restore_is_exact() {
        let mut a = BackgroundRateEstimator::new(40.0, 0.01).unwrap();
        let mut rng = SeededRng::seed_from_u64(3);
        for _ in 0..500 {
            a.observe(rng.gen_bool(0.05));
        }
        let mut b = BackgroundRateEstimator::restore(&a.checkpoint()).unwrap();
        assert_eq!(a.estimate(), b.estimate());
        assert_eq!(a.observed(), b.observed());
        // Continued observation stays bit-for-bit identical.
        for _ in 0..500 {
            let e = rng.gen_bool(0.05);
            a.observe(e);
            b.observe(e);
        }
        assert_eq!(a.estimate(), b.estimate());
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn corrupt_checkpoints_rejected() {
        let good = BackgroundRateEstimator::new(40.0, 0.01)
            .unwrap()
            .checkpoint();
        for bad in [
            EstimatorCheckpoint {
                bandwidth: 0.0,
                ..good
            },
            EstimatorCheckpoint {
                bandwidth: f64::NAN,
                ..good
            },
            EstimatorCheckpoint {
                event_sum: -1.0,
                ..good
            },
            EstimatorCheckpoint {
                event_sum: good.weight_sum + 1.0,
                ..good
            },
            EstimatorCheckpoint {
                weight_sum: f64::INFINITY,
                ..good
            },
            EstimatorCheckpoint {
                format_version: 99,
                ..good
            },
        ] {
            assert!(BackgroundRateEstimator::restore(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn construction_validation() {
        assert!(BackgroundRateEstimator::new(0.0, 0.1).is_err());
        assert!(BackgroundRateEstimator::new(-5.0, 0.1).is_err());
        assert!(BackgroundRateEstimator::new(10.0, 1.5).is_err());
        assert!(BackgroundRateEstimator::with_prior_weight(10.0, 0.1, -1.0).is_err());
        assert!(BackgroundRateEstimator::new(10.0, 0.1).is_ok());
    }

    #[test]
    fn prior_dominates_before_data() {
        let e = BackgroundRateEstimator::new(100.0, 0.07).unwrap();
        assert!((e.estimate() - 0.07).abs() < 1e-12);
    }

    #[test]
    fn prior_decays_away() {
        let mut e = BackgroundRateEstimator::new(50.0, 0.5).unwrap();
        for _ in 0..1000 {
            e.observe(false);
        }
        assert!(e.estimate() < 1e-3, "estimate={}", e.estimate());
    }

    #[test]
    fn estimator_tracks_constant_rate() {
        let mut rng = SeededRng::seed_from_u64(7);
        let mut e = BackgroundRateEstimator::new(200.0, 0.5).unwrap();
        let p = 0.1;
        for _ in 0..5000 {
            e.observe(rng.gen_bool(p));
        }
        let got = e.estimate();
        assert!((got - p).abs() < 0.04, "estimate={got}, want ≈ {p}");
    }

    #[test]
    fn adapts_to_step_change() {
        let mut rng = SeededRng::seed_from_u64(99);
        let mut e = BackgroundRateEstimator::new(100.0, 0.01).unwrap();
        for _ in 0..2000 {
            e.observe(rng.gen_bool(0.01));
        }
        assert!(e.estimate() < 0.05);
        for _ in 0..500 {
            e.observe(rng.gen_bool(0.4));
        }
        assert!(
            e.estimate() > 0.25,
            "after step change estimate={}",
            e.estimate()
        );
    }

    #[test]
    fn ignores_single_outlier_events() {
        // A short burst after long quiet must not catapult the estimate —
        // this is the "ignoring gradual / isolated changes" behaviour.
        let mut e = BackgroundRateEstimator::new(500.0, 0.01).unwrap();
        for _ in 0..5000 {
            e.observe(false);
        }
        for _ in 0..3 {
            e.observe(true);
        }
        assert!(e.estimate() < 0.02, "estimate={}", e.estimate());
    }

    #[test]
    fn recurrence_matches_direct_reference() {
        let mut rng = SeededRng::seed_from_u64(1234);
        let mut fast = BackgroundRateEstimator::with_prior_weight(30.0, 0.0, 0.0).unwrap();
        let mut slow = DirectKernelEstimator::new(30.0);
        for _ in 0..400 {
            let ev = rng.gen_bool(0.15);
            fast.observe(ev);
            slow.observe(ev);
            assert!(
                (fast.estimate() - slow.estimate()).abs() < 1e-9,
                "recurrence {} vs direct {}",
                fast.estimate(),
                slow.estimate()
            );
        }
    }

    #[test]
    fn block_update_matches_per_ou_for_uniform_pattern() {
        // 4-OU blocks with exactly one event each, event in a fixed slot:
        // the uniform-block approximation should land near the per-OU value.
        let mut per_ou = BackgroundRateEstimator::new(50.0, 0.1).unwrap();
        let mut block = BackgroundRateEstimator::new(50.0, 0.1).unwrap();
        for _ in 0..200 {
            for slot in 0..4 {
                per_ou.observe(slot == 1);
            }
            block.observe_block_uniform(4, 1);
        }
        assert_eq!(per_ou.observed(), block.observed());
        assert_eq!(per_ou.events(), block.events());
        assert!(
            (per_ou.estimate() - block.estimate()).abs() < 0.01,
            "per-OU {} vs block {}",
            per_ou.estimate(),
            block.estimate()
        );
    }

    #[test]
    #[should_panic(expected = "more events")]
    fn block_update_rejects_overfull_blocks() {
        let mut e = BackgroundRateEstimator::new(10.0, 0.1).unwrap();
        e.observe_block_uniform(3, 4);
    }

    #[test]
    fn counters_track_stream() {
        let mut e = BackgroundRateEstimator::new(10.0, 0.1).unwrap();
        e.observe_all([true, false, true, false, false]);
        assert_eq!(e.observed(), 5);
        assert_eq!(e.events(), 2);
    }

    /// A run of `len` fair-coin events.
    fn draw_events(r: &mut SeededRng, len: std::ops::Range<usize>) -> Vec<bool> {
        let n = r.gen_range(len);
        (0..n).map(|_| r.gen_bool(0.5)).collect()
    }

    #[test]
    fn prop_estimate_stays_in_unit_interval() -> Result<(), String> {
        for_cases(
            "prop_estimate_stays_in_unit_interval",
            64,
            |r| {
                let events = draw_events(r, 0..300);
                (
                    events,
                    r.gen_range(1.0f64..200.0),
                    r.gen_range(0.0f64..=1.0),
                )
            },
            |&(ref events, bw, p0)| {
                let mut e = BackgroundRateEstimator::new(bw, p0).unwrap();
                for &ev in events {
                    e.observe(ev);
                    let p = e.estimate();
                    assert!((0.0..=1.0).contains(&p));
                }
            },
        )
    }

    #[test]
    fn prop_all_events_converges_to_one() -> Result<(), String> {
        for_cases(
            "prop_all_events_converges_to_one",
            64,
            |r| r.gen_range(1.0f64..50.0),
            |&bw| {
                let mut e = BackgroundRateEstimator::new(bw, 0.0).unwrap();
                for _ in 0..(bw as usize * 20) {
                    e.observe(true);
                }
                assert!(e.estimate() > 0.99);
            },
        )
    }

    #[test]
    fn prop_recurrence_equals_direct() -> Result<(), String> {
        for_cases(
            "prop_recurrence_equals_direct",
            64,
            |r| (draw_events(r, 1..200), r.gen_range(2.0f64..100.0)),
            |&(ref events, bw)| {
                let mut fast = BackgroundRateEstimator::with_prior_weight(bw, 0.0, 0.0).unwrap();
                let mut slow = DirectKernelEstimator::new(bw);
                for &ev in events {
                    fast.observe(ev);
                    slow.observe(ev);
                }
                assert!((fast.estimate() - slow.estimate()).abs() < 1e-9);
            },
        )
    }
}
