//! Byte-count and time units used across the whole workspace.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Simulated wall-clock time in seconds.
///
/// The simulator works in plain `f64` seconds; this alias documents intent
/// at API boundaries.
pub type Secs = f64;

/// A number of bytes.
///
/// A newtype so that byte counts cannot be confused with other integer
/// quantities (layer indices, device ids, FLOP counts) at compile time.
///
/// # Example
///
/// ```
/// use mpress_hw::Bytes;
///
/// let act = Bytes::mib(216);
/// assert_eq!(act.as_u64(), 216 * 1024 * 1024);
/// assert!(act + Bytes::gib(1) > Bytes::gib(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(pub u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count from kibibytes.
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// Creates a byte count from mebibytes.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// Creates a byte count from gibibytes.
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Creates a byte count from a fractional number of gibibytes.
    ///
    /// # Panics
    ///
    /// Panics if `gib` is negative or not finite.
    pub fn from_gib_f64(gib: f64) -> Self {
        assert!(gib.is_finite() && gib >= 0.0, "invalid GiB value: {gib}");
        Bytes((gib * 1024.0 * 1024.0 * 1024.0).round() as u64)
    }

    /// The raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The byte count as `f64`, for bandwidth arithmetic.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// This byte count expressed in gibibytes.
    pub fn as_gib_f64(self) -> f64 {
        self.as_f64() / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Bytes) -> Option<Bytes> {
        self.0.checked_sub(rhs.0).map(Bytes)
    }

    /// Saturating addition: clamps at `u64::MAX` instead of overflowing.
    pub fn saturating_add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_add(rhs.0))
    }

    /// Checked addition: `None` when the sum would overflow. Static
    /// analysis sums arbitrary (possibly adversarial) tensor sizes, so
    /// it must not rely on the panicking `+` operator.
    pub fn checked_add(self, rhs: Bytes) -> Option<Bytes> {
        self.0.checked_add(rhs.0).map(Bytes)
    }

    /// Scales the byte count by a non-negative factor, rounding to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(self, factor: f64) -> Bytes {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "invalid scale factor: {factor}"
        );
        Bytes((self.as_f64() * factor).round() as u64)
    }

    /// Splits the byte count into `n` near-equal chunks (first chunks absorb
    /// the remainder). Returns an empty vector when `n == 0`.
    pub fn split_even(self, n: usize) -> Vec<Bytes> {
        if n == 0 {
            return Vec::new();
        }
        let base = self.0 / n as u64;
        let rem = (self.0 % n as u64) as usize;
        (0..n).map(|i| Bytes(base + u64::from(i < rem))).collect()
    }

    /// Minimum of two byte counts.
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// Maximum of two byte counts.
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }

    /// True when the count is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    /// # Panics
    ///
    /// Panics on underflow in debug builds (standard integer semantics).
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= 1024 * 1024 * 1024 {
            write!(f, "{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
        } else if self.0 >= 1024 * 1024 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Bytes::kib(1).as_u64(), 1024);
        assert_eq!(Bytes::mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::gib(1).as_u64(), 1024 * 1024 * 1024);
        assert_eq!(Bytes::from_gib_f64(0.5), Bytes::mib(512));
    }

    #[test]
    fn arithmetic_behaves_like_integers() {
        let a = Bytes(100);
        let b = Bytes(40);
        assert_eq!(a + b, Bytes(140));
        assert_eq!(a - b, Bytes(60));
        assert_eq!(a * 3, Bytes(300));
        assert_eq!(a / 4, Bytes(25));
        assert_eq!(b.saturating_sub(a), Bytes::ZERO);
        assert_eq!(a.checked_sub(b), Some(Bytes(60)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn addition_has_checked_and_saturating_forms() {
        let near_max = Bytes(u64::MAX - 5);
        assert_eq!(near_max.checked_add(Bytes(5)), Some(Bytes(u64::MAX)));
        assert_eq!(near_max.checked_add(Bytes(6)), None);
        assert_eq!(near_max.saturating_add(Bytes(100)), Bytes(u64::MAX));
        assert_eq!(Bytes(1).saturating_add(Bytes(2)), Bytes(3));
    }

    #[test]
    fn split_even_conserves_total_and_balances() {
        let total = Bytes(1003);
        let chunks = total.split_even(4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().copied().sum::<Bytes>(), total);
        let max = chunks.iter().max().unwrap().as_u64();
        let min = chunks.iter().min().unwrap().as_u64();
        assert!(max - min <= 1);
    }

    #[test]
    fn split_even_zero_chunks_is_empty() {
        assert!(Bytes(10).split_even(0).is_empty());
    }

    #[test]
    fn scale_rounds_to_nearest() {
        assert_eq!(Bytes(10).scale(0.25), Bytes(3)); // 2.5 rounds to 3
        assert_eq!(Bytes(100).scale(1.5), Bytes(150));
        assert_eq!(Bytes(100).scale(0.0), Bytes::ZERO);
    }

    #[test]
    #[should_panic(expected = "invalid scale factor")]
    fn scale_rejects_negative() {
        let _ = Bytes(1).scale(-1.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Bytes(512).to_string(), "512 B");
        assert_eq!(Bytes::kib(2).to_string(), "2.00 KiB");
        assert_eq!(Bytes::mib(3).to_string(), "3.00 MiB");
        assert_eq!(Bytes::gib(5).to_string(), "5.00 GiB");
    }

    #[test]
    fn sum_of_iterator() {
        let v = vec![Bytes(1), Bytes(2), Bytes(3)];
        assert_eq!(v.into_iter().sum::<Bytes>(), Bytes(6));
    }
}
