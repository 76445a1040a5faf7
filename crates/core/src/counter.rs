//! Saturating counters.

use std::fmt;

/// An n-bit saturating counter.
///
/// Used in two roles in this crate:
///
/// * **confidence counters** on history-table entries (§6.1): an n-bit
///   counter "tracks the success rate over the last 2^(n-1) times the entry
///   was consulted" — incremented on a correct prediction, decremented on an
///   incorrect one, saturating at `0` and `2^n - 1`;
/// * **selector counters** in the BPST metapredictor (2-bit, one per
///   branch).
///
/// # Example
///
/// ```
/// use ibp_core::SaturatingCounter;
///
/// let mut c = SaturatingCounter::new(2); // 2-bit: 0..=3
/// c.increment();
/// c.increment();
/// c.increment();
/// c.increment();
/// assert_eq!(c.value(), 3); // saturated
/// c.decrement();
/// assert_eq!(c.value(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SaturatingCounter {
    value: u8,
    max: u8,
}

impl SaturatingCounter {
    /// Creates a counter of `bits` bits, starting at zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is `0` or greater than `7` (an 8-bit counter would
    /// overflow the compact representation, and the paper only evaluates
    /// widths 1–4).
    #[must_use]
    pub fn new(bits: u8) -> Self {
        assert!(
            (1..=7).contains(&bits),
            "counter width must be 1..=7 bits, got {bits}"
        );
        SaturatingCounter {
            value: 0,
            max: (1u8 << bits) - 1,
        }
    }

    /// Creates a counter of `bits` bits starting at `value` (clamped to the
    /// representable range).
    #[must_use]
    pub fn with_value(bits: u8, value: u8) -> Self {
        let mut c = SaturatingCounter::new(bits);
        c.value = value.min(c.max);
        c
    }

    /// The current counter value.
    #[must_use]
    pub fn value(self) -> u8 {
        self.value
    }

    /// The maximum representable value (`2^bits - 1`).
    #[must_use]
    pub fn max(self) -> u8 {
        self.max
    }

    /// Whether the counter is in the upper half of its range, i.e. its top
    /// bit is set. This is the "choose component two" test for BPST
    /// selectors.
    #[must_use]
    pub fn is_high(self) -> bool {
        self.value > self.max / 2
    }

    /// Increments, saturating at the maximum.
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    pub fn decrement(&mut self) {
        if self.value > 0 {
            self.value -= 1;
        }
    }

    /// Applies an outcome: increment when `correct`, decrement otherwise.
    pub fn record(&mut self, correct: bool) {
        if correct {
            self.increment();
        } else {
            self.decrement();
        }
    }
}

impl fmt::Display for SaturatingCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.value, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturates_both_ends() {
        let mut c = SaturatingCounter::new(2);
        c.decrement();
        assert_eq!(c.value(), 0);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn one_bit_counter() {
        let mut c = SaturatingCounter::new(1);
        assert_eq!(c.max(), 1);
        c.increment();
        assert_eq!(c.value(), 1);
        assert!(c.is_high());
        c.decrement();
        assert!(!c.is_high());
    }

    #[test]
    fn record_maps_outcomes() {
        let mut c = SaturatingCounter::new(3);
        c.record(true);
        c.record(true);
        c.record(false);
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn with_value_clamps() {
        let c = SaturatingCounter::with_value(2, 200);
        assert_eq!(c.value(), 3);
        let c = SaturatingCounter::with_value(4, 5);
        assert_eq!(c.value(), 5);
    }

    #[test]
    fn is_high_midpoint() {
        // 2-bit: values 0,1 low; 2,3 high.
        assert!(!SaturatingCounter::with_value(2, 1).is_high());
        assert!(SaturatingCounter::with_value(2, 2).is_high());
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_bits_rejected() {
        let _ = SaturatingCounter::new(0);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn eight_bits_rejected() {
        let _ = SaturatingCounter::new(8);
    }

    #[test]
    fn display() {
        assert_eq!(SaturatingCounter::with_value(2, 2).to_string(), "2/3");
    }
}
