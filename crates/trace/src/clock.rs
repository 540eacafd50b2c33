//! Injectable time sources.
//!
//! Every duration the tracer records flows through the [`Clock`] trait, so
//! deterministic paths never read wall-clock time directly: production code
//! installs [`MonotonicClock`] (the **one** audited nondeterminism boundary
//! in this crate), tests install [`MockClock`] and advance it explicitly,
//! making trace timing bit-for-bit reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotone nanosecond clock.
///
/// `now_ns` values are relative to an arbitrary per-clock origin; only
/// differences are meaningful. Implementations must be monotone
/// (non-decreasing) and thread-safe.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds since this clock's origin.
    fn now_ns(&self) -> u64;
}

/// Wall monotonic time via [`std::time::Instant`].
///
/// This is the single place in the workspace's deterministic paths where
/// wall-clock time enters: everything downstream sees only the `Clock`
/// trait, so swapping in a [`MockClock`] removes all nondeterminism.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// Creates a clock whose origin is "now".
    // The audited wall-clock boundary: all trace timing flows through the
    // Clock trait, and clock readings time spans only; no engine decision
    // consumes them.
    #[allow(clippy::disallowed_methods)]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // Saturating u128 -> u64 narrowing: ~584 years of uptime fit.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A manually-advanced clock for tests and golden traces.
///
/// Cloning yields a handle onto the same underlying time, so tests can keep
/// a handle to `advance` while the tracer owns another.
#[derive(Debug, Clone, Default)]
pub struct MockClock {
    now: Arc<AtomicU64>,
}

impl MockClock {
    /// Creates a clock frozen at 0 ns.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `ns` nanoseconds.
    #[cfg(test)]
    pub(crate) fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::SeqCst);
    }

    /// Jumps the clock to an absolute reading (must not move backwards for
    /// the monotonicity contract to hold; the clock does not enforce it).
    pub fn set(&self, ns: u64) {
        self.now.store(ns, Ordering::SeqCst);
    }
}

impl Clock for MockClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_is_frozen_until_advanced() {
        let c = MockClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance(250);
        assert_eq!(c.now_ns(), 250);
        c.advance(50);
        assert_eq!(c.now_ns(), 300);
    }

    #[test]
    fn mock_clock_clones_share_time() {
        let a = MockClock::new();
        let b = a.clone();
        a.advance(7);
        assert_eq!(b.now_ns(), 7);
        b.set(100);
        assert_eq!(a.now_ns(), 100);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }
}
