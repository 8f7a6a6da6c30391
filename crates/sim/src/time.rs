//! Virtual time.
//!
//! All simulated experiments in the workspace measure virtual time in
//! microseconds. Microseconds comfortably cover the dynamic range
//! of the paper's measurements (sub-millisecond transaction commits up to
//! multi-second cloud detections) while keeping arithmetic in `u64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, measured in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional milliseconds, rounding to the nearest
    /// microsecond and clamping negatives to zero.
    pub fn from_millis_f64(ms: f64) -> Self {
        SimDuration((ms.max(0.0) * 1_000.0).round() as u64)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// microsecond and clamping negatives to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1_000_000.0).round() as u64)
    }

    /// Raw microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else {
            write!(f, "{:.2}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis_f64(1.5).as_micros(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_micros(), 250_000);
    }

    #[test]
    fn negative_float_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_millis_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn duration_subtraction_underflow_panics() {
        let _ = SimDuration::ZERO - SimDuration::from_micros(1);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(10);
        let b = SimDuration::from_millis(4);
        assert_eq!(a + b, SimDuration::from_millis(14));
        assert_eq!(a - b, SimDuration::from_millis(6));
        assert_eq!(a * 3, SimDuration::from_millis(30));
        assert_eq!(a / 2, SimDuration::from_millis(5));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total, SimDuration::from_millis(18));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.00s");
    }

    #[test]
    fn float_views() {
        let d = SimDuration::from_micros(1_234_567);
        assert!((d.as_secs_f64() - 1.234567).abs() < 1e-9);
        assert!((d.as_millis_f64() - 1234.567).abs() < 1e-9);
    }
}
