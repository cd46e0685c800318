//! Virtual time: microsecond ticks.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// A point (or span) of virtual time in microseconds.
///
/// The simulator works in integer microseconds to keep event ordering exact;
/// latencies are reported in milliseconds via [`Micros::as_ms`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero time.
    pub const ZERO: Micros = Micros(0);

    /// Converts from (possibly fractional) milliseconds, rounding to the
    /// nearest microsecond.
    pub fn from_ms(ms: f64) -> Micros {
        Micros((ms.max(0.0) * 1000.0).round() as u64)
    }

    /// Converts from whole seconds.
    pub fn from_secs(s: u64) -> Micros {
        Micros(s * 1_000_000)
    }

    /// This time in fractional milliseconds.
    pub fn as_ms(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, other: Micros) -> Micros {
        Micros(self.0.saturating_sub(other.0))
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    /// # Panics
    ///
    /// Panics in debug builds on underflow, like integer subtraction.
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ms_roundtrip() {
        let t = Micros::from_ms(12.345);
        assert_eq!(t.0, 12345);
        assert!((t.as_ms() - 12.345).abs() < 1e-9);
        assert_eq!(Micros::from_secs(2).0, 2_000_000);
    }

    #[test]
    fn negative_ms_clamps_to_zero() {
        assert_eq!(Micros::from_ms(-5.0), Micros::ZERO);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Micros(100);
        let b = Micros(250);
        assert_eq!(a + b, Micros(350));
        assert_eq!(b - a, Micros(150));
        assert_eq!(a.saturating_sub(b), Micros::ZERO);
        assert!(a < b);
        let mut c = a;
        c += b;
        assert_eq!(c, Micros(350));
    }

    #[test]
    fn display_shows_millis() {
        assert_eq!(Micros(1500).to_string(), "1.500ms");
    }
}
