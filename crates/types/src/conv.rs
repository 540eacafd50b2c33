//! Checked width conversions for counts, lengths, and indices.
//!
//! The granularity-cast audit (`cargo xtask check`, DESIGN.md §12) bans
//! raw `as` integer casts in the arithmetic crates: an `as` silently
//! truncates, and at frame/shot/clip boundaries that turns a ragged tail
//! into an off-by-one. Every width change instead goes through one of
//! these helpers, each with a single documented overflow policy:
//!
//! * **lossless** ([`u64_of`], [`usize_of`]) — widening only, can never
//!   change the value;
//! * **saturating** ([`len_u64`], [`capacity_hint`]) — collection lengths
//!   and capacity hints, where saturation is unreachable on 64-bit targets
//!   and harmless (a smaller pre-allocation) elsewhere;
//! * **checked** ([`index`]) — narrowing that the caller must handle,
//!   returning `None` instead of wrapping.

/// A `usize` length as a `u64` count. Lossless on every supported target
/// (`usize` is at most 64 bits); saturates defensively otherwise.
#[inline]
pub fn len_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Number of `true` entries in a slice of indicators, as a `u64` count.
#[inline]
pub fn count_true(events: &[bool]) -> u64 {
    len_u64(events.iter().filter(|&&e| e).count())
}

/// A `u64` count as a `Vec` capacity hint. On 64-bit targets this is
/// lossless; on narrower targets it saturates, which only weakens the
/// pre-allocation (never correctness).
#[inline]
pub fn capacity_hint(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Checked `u64` → `usize` index conversion: `None` when the value does
/// not fit the platform's address width.
#[inline]
pub fn index(n: u64) -> Option<usize> {
    usize::try_from(n).ok()
}

/// A `u32` as a `usize` — lossless on every supported target (≥ 32-bit);
/// saturates defensively otherwise.
#[inline]
pub fn usize_of(n: u32) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// A `u32` as a `u64` — always lossless.
#[inline]
pub fn u64_of(n: u32) -> u64 {
    u64::from(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_and_counts_roundtrip() {
        assert_eq!(len_u64(42), 42);
        assert_eq!(count_true(&[true, false, true, true]), 3);
        assert_eq!(count_true(&[]), 0);
    }

    #[test]
    fn capacity_hint_is_exact_on_64_bit() {
        assert_eq!(capacity_hint(1024), 1024);
        assert_eq!(capacity_hint(0), 0);
    }

    #[test]
    fn index_is_checked() {
        assert_eq!(index(7), Some(7));
        #[cfg(target_pointer_width = "64")]
        assert_eq!(index(u64::MAX), Some(u64::MAX as usize));
    }

    #[test]
    fn widening_is_lossless() {
        assert_eq!(usize_of(u32::MAX), u32::MAX as usize);
        assert_eq!(u64_of(u32::MAX), u32::MAX as u64);
    }
}
