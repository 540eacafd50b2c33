//! Deterministic probe orders for the elision planner.
//!
//! A probe order is a permutation of `0..n` fixing the sequence in which a
//! clip's occurrence units (frames or shots) are submitted to a model. The
//! planner never uses randomness here: both orders are pure functions of
//! `n`, so a planned run is reproducible and resumable bit-for-bit.
//!
//! * [`ProbeOrder::Sequential`] probes in stream order. Mandatory under
//!   SVAQD, whose background estimators consume event vectors in
//!   occurrence order.
//! * [`ProbeOrder::Stratified`] probes in bit-reversal (van der Corput)
//!   order: each prefix of the permutation is near-uniformly spread over
//!   the window, so a clustered positive burst or an all-background window
//!   drives the reachability bounds to a verdict after a short,
//!   evenly-spaced prefix instead of after scanning up to the cluster.

/// The order in which a planned evaluation probes a clip's occurrence
/// units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeOrder {
    /// Stream order `0, 1, 2, …` — the exhaustive engines' order.
    Sequential,
    /// Bit-reversal permutation: low-discrepancy coverage of the window.
    Stratified,
}

impl ProbeOrder {
    /// The probe permutation over `0..n`: yields every index exactly once.
    pub(crate) fn indices(self, n: usize) -> ProbeIndices {
        let bits = if n <= 1 {
            0
        } else {
            usize::BITS - (n - 1).leading_zeros()
        };
        ProbeIndices {
            n,
            counter: 0,
            cap: if n == 0 { 0 } else { 1usize << bits },
            bits,
            stratified: matches!(self, ProbeOrder::Stratified),
        }
    }
}

/// Iterator over a probe permutation; see [`ProbeOrder::indices`].
#[derive(Debug, Clone)]
pub(crate) struct ProbeIndices {
    n: usize,
    counter: usize,
    /// Smallest power of two `≥ n` (bit-reversal domain); indices past `n`
    /// are skipped.
    cap: usize,
    bits: u32,
    stratified: bool,
}

impl Iterator for ProbeIndices {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.counter < self.cap {
            let i = self.counter;
            self.counter += 1;
            let idx = if self.stratified && self.bits > 0 {
                i.reverse_bits() >> (usize::BITS - self.bits)
            } else {
                i
            };
            if idx < self.n {
                return Some(idx);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_identity() {
        let order: Vec<usize> = ProbeOrder::Sequential.indices(5).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn both_orders_are_permutations() {
        for n in 0..=70 {
            for order in [ProbeOrder::Sequential, ProbeOrder::Stratified] {
                let mut seen = vec![false; n];
                let mut count = 0usize;
                for idx in order.indices(n) {
                    assert!(idx < n);
                    assert!(!seen[idx], "{order:?} repeated index {idx} for n={n}");
                    seen[idx] = true;
                    count += 1;
                }
                assert_eq!(count, n, "{order:?} must cover 0..{n}");
            }
        }
    }

    #[test]
    fn stratified_power_of_two_is_bit_reversal() {
        let order: Vec<usize> = ProbeOrder::Stratified.indices(8).collect();
        assert_eq!(order, vec![0, 4, 2, 6, 1, 5, 3, 7]);
    }

    #[test]
    fn stratified_prefixes_spread_over_the_window() {
        // After probing a quarter of a 64-unit window, no gap between
        // consecutive probed positions exceeds 4 — the defining property
        // that lets clustered windows decide early.
        let n = 64;
        let prefix: Vec<usize> = ProbeOrder::Stratified.indices(n).take(16).collect();
        let mut sorted = prefix.clone();
        sorted.sort_unstable();
        let mut prev = 0usize;
        for &p in &sorted {
            assert!(p - prev <= 4, "gap {prev}..{p} too wide in {sorted:?}");
            prev = p;
        }
        assert!(n - prev <= 4);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(ProbeOrder::Stratified.indices(0).count(), 0);
        assert_eq!(
            ProbeOrder::Stratified.indices(1).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(ProbeOrder::Sequential.indices(0).count(), 0);
    }
}
