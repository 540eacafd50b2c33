//! The workspace's one seeded random stream.
//!
//! Every synthetic video, dataset and load schedule is drawn from
//! [`SeededRng`], so the generated data is a function of the repository
//! and the seed alone — no registry crate decides which inputs a seed
//! produces. [`splitmix64`] and its finalizer [`mix64`] also serve the
//! counter-based hashes: the simulated models' noise (`vaq_detect`) and
//! TBClip's clip map (`vaq_core`).
//!
//! [`SeededRng`] is xoshiro256++ (Blackman & Vigna), seeded by four
//! [`splitmix64`] draws. Its mappings onto ranges are fixed here:
//!
//! - integers: `next_u64` draws are rejected above the largest multiple
//!   of the span (the *zone*), then reduced modulo the span, so every
//!   value is equally likely;
//! - floats: the top 53 bits of one draw give a unit value `u ∈ [0, 1)`,
//!   mapped to `low + (high - low) * u` (cast to `f32` first for `f32`);
//!   a result that rounds up to `high` falls back to `low`;
//! - [`SeededRng::gen_bool`]`(p)`: one unit value, `u < p`.
//!
//! Half-open and inclusive float ranges map alike; the fallback keeps
//! both inside `[low, high)` unless `low == high`.
//!
//! [`for_cases`] runs the workspace's property tests on the same stream:
//! each case's input is drawn from a generator seeded by the test's name
//! and the case index, so every run replays the same cases.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

/// splitmix64's increment: the odd integer nearest `2^64 / φ`.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's finalizer: a bijective, well-mixed 64-bit permutation.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One splitmix64 step: advances `state` by `GAMMA` and returns the
/// finalized state.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    mix64(*state)
}

/// A seeded xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededRng {
    s: [u64; 4],
}

impl SeededRng {
    /// The generator whose state is four [`splitmix64`] draws from `seed`.
    pub fn seed_from_u64(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for w in &mut s {
            *w = splitmix64(&mut seed);
        }
        SeededRng { s }
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A uniform value in `[0, 1)` from the top 53 bits of one draw.
    #[inline]
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw from `0..span` (`span > 0`), by rejection above the
    /// zone.
    fn below(&mut self, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    /// A uniform draw from `range` (`a..b` or `a..=b`). An empty integer
    /// range yields its start without drawing.
    #[inline]
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`, which must lie in `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p={p} is not a probability"
        );
        self.unit() < p
    }
}

/// A range [`SeededRng::gen_range`] draws from uniformly.
pub trait SampleRange<T> {
    /// One draw from the range.
    fn sample(self, rng: &mut SeededRng) -> T;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SeededRng) -> $t {
                debug_assert!(self.start < self.end, "cannot sample empty range");
                if self.start >= self.end {
                    return self.start;
                }
                self.start + rng.below(u64::from(self.end - self.start)) as $t
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SeededRng) -> $t {
                let (low, high) = self.into_inner();
                debug_assert!(low <= high, "cannot sample empty range");
                if low > high {
                    return low;
                }
                // `low == high` still spends one draw (span 1).
                match u64::from(high - low).checked_add(1) {
                    Some(span) => low + rng.below(span) as $t,
                    // The full `u64` range: two draws, the second kept.
                    None => {
                        rng.next_u64();
                        rng.next_u64() as $t
                    }
                }
            }
        }
    )*};
}
uniform_int!(u8, u32, u64);

impl SampleRange<usize> for Range<usize> {
    fn sample(self, rng: &mut SeededRng) -> usize {
        (self.start as u64..self.end as u64).sample(rng) as usize
    }
}

impl SampleRange<usize> for RangeInclusive<usize> {
    fn sample(self, rng: &mut SeededRng) -> usize {
        let (low, high) = self.into_inner();
        (low as u64..=high as u64).sample(rng) as usize
    }
}

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample(self, rng: &mut SeededRng) -> $t {
                debug_assert!(self.start < self.end, "cannot sample empty range");
                float_between(self.start, self.end, rng.unit() as $t)
            }
        }

        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample(self, rng: &mut SeededRng) -> $t {
                let (low, high) = self.into_inner();
                debug_assert!(low <= high, "cannot sample empty range");
                float_between(low, high, rng.unit() as $t)
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// `low + (high - low) * unit`, or `low` if that rounds up to `high`.
#[inline]
fn float_between<T>(low: T, high: T, unit: T) -> T
where
    T: Copy + PartialOrd + std::ops::Add<Output = T> + std::ops::Sub<Output = T>,
    T: std::ops::Mul<Output = T>,
{
    let v = low + (high - low) * unit;
    if v < high || low == high {
        v
    } else {
        low
    }
}

/// Checks a property on `cases` drawn inputs.
///
/// Case `i` draws its input from a [`SeededRng`] seeded by [`mix64`]
/// folds of `name`'s bytes and of `i`, so a run replays the same cases
/// wherever it runs. `check` asserts the property by panicking, as a test
/// does; the runner catches the unwind (so it needs the default
/// `panic = "unwind"`). The first case whose check panics ends the run
/// with an error naming the test, the case index, the seed, the panic
/// message and the input's `Debug`. A panic in `draw` is not caught.
/// Failing inputs are reported as drawn: there is no shrinking.
pub fn for_cases<T: Debug>(
    name: &str,
    cases: u32,
    mut draw: impl FnMut(&mut SeededRng) -> T,
    mut check: impl FnMut(&T),
) -> Result<(), String> {
    let stream = name.bytes().fold(GAMMA, |h, b| mix64(h ^ u64::from(b)));
    for case in 0..cases {
        let seed = mix64(stream.wrapping_add(u64::from(case)));
        let input = draw(&mut SeededRng::seed_from_u64(seed));
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| check(&input))) {
            let why = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a panic without a message");
            return Err(format!(
                "{name}: case {case} of {cases} (seed {seed:#018x}) failed: {why}; input: {input:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known answers of the xoshiro256++ stream and its range mappings.
    #[test]
    fn known_answers() {
        let mut r = SeededRng::seed_from_u64(42);
        assert_eq!(r.next_u64(), 0xd076_4d4f_4476_689f);
        assert_eq!(r.next_u64(), 0x519e_4174_576f_3791);
        assert_eq!(r.next_u64(), 0xfbe0_7cfb_0c24_ed8c);

        let mut r = SeededRng::seed_from_u64(7);
        assert_eq!(r.gen_range(0..10u64), 1);
        assert_eq!(r.gen_range(3..=9usize), 9);
        assert_eq!(r.gen_range(f64::EPSILON..1.0), 0.717_576_128_358_659_5);
        assert_eq!(r.gen_range(0.55f32..1.0), 0.742_244_4);
        assert!(!r.gen_bool(0.3));
    }

    /// The stream the datasets were generated from spends one draw on
    /// `a..=a`; skipping it would shift every later draw.
    #[test]
    fn a_one_value_inclusive_range_still_spends_a_draw() {
        let (mut a, mut b) = (SeededRng::seed_from_u64(5), SeededRng::seed_from_u64(5));
        assert_eq!(a.gen_range(4u64..=4), 4);
        b.next_u64();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn draws_stay_in_range_and_cover_it() {
        let mut r = SeededRng::seed_from_u64(1);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.gen_range(3u8..10);
            assert!((3..10).contains(&v));
            seen[usize::from(v - 3)] = true;
            assert!((5..=6).contains(&r.gen_range(5u32..=6)));
            assert!((-1.0..1.0).contains(&r.gen_range(-1.0f64..1.0)));
            assert!((0.0..1.0).contains(&r.gen_range(0.0f32..=1.0)));
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.gen_range(2.5f64..=2.5), 2.5);
        assert!(!r.gen_bool(0.0) && r.gen_bool(1.0));
    }

    /// The inputs a run of `name` draws.
    fn drawn(name: &str, cases: u32) -> Vec<u64> {
        let mut seen = Vec::new();
        let run = for_cases(name, cases, |r| r.next_u64(), |&v| seen.push(v));
        assert_eq!(run, Ok(()));
        seen
    }

    #[test]
    fn a_name_replays_its_stream() {
        assert_eq!(drawn("prop_a", 16), drawn("prop_a", 16));
        // Case `i` does not depend on how many cases run.
        assert_eq!(drawn("prop_a", 4), drawn("prop_a", 16)[..4]);
        // Pinned: a change to the seeding shows here.
        assert_eq!(
            drawn("prop_a", 2),
            [2537060786000213372, 4725255243914722303]
        );
    }

    #[test]
    fn different_names_draw_different_streams() {
        let a = drawn("prop_a", 16);
        let b = drawn("prop_b", 16);
        assert!(a.iter().all(|v| !b.contains(v)));
        assert_ne!(drawn("", 1), drawn("prop_a", 1));
    }

    #[test]
    fn the_case_count_is_honoured() {
        assert_eq!(drawn("prop_a", 0).len(), 0);
        assert_eq!(drawn("prop_a", 1).len(), 1);
        assert_eq!(drawn("prop_a", 256).len(), 256);
    }

    #[test]
    fn a_failing_case_reports_name_index_seed_and_input() {
        let mut checked = 0u64;
        let err = for_cases(
            "prop_fails",
            100,
            |r| (r.gen_range(0..10u64), "label"),
            |&(v, _)| {
                checked += 1;
                assert!(v < 9, "v = {v} reached 9");
            },
        )
        .unwrap_err();
        // The run stops at the first failing case.
        let case = checked - 1;
        let stream = "prop_fails"
            .bytes()
            .fold(GAMMA, |h, b| mix64(h ^ u64::from(b)));
        let seed = mix64(stream + case);
        let v = SeededRng::seed_from_u64(seed).gen_range(0..10u64);
        assert_eq!(v, 9);
        assert_eq!(
            err,
            format!(
                "prop_fails: case {case} of 100 (seed {seed:#018x}) failed: \
                 v = 9 reached 9; input: (9, \"label\")"
            )
        );
    }
}
