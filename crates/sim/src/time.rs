//! Virtual time for the discrete-event simulation.
//!
//! The kernel measures time in integer nanoseconds since the start of the
//! simulation. Absolute instants are [`SimTime`]; intervals reuse
//! [`std::time::Duration`] so call sites can write
//! `sim.sleep(Duration::from_millis(5))`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An absolute instant on the simulation clock, in nanoseconds since t=0.
///
/// `SimTime` is a total order and supports arithmetic with
/// [`std::time::Duration`]. The representable range (~584 years) is far
/// beyond any campaign length in this system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SimTime(u64);

// Both by hand: a derived `PartialOrd` calls the banned `partial_cmp`
// (R6), and clippy rejects a manual `PartialOrd` beside a derived `Ord`.
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub(crate) const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from nanoseconds since t=0.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Builds an instant from milliseconds since t=0.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Builds an instant from whole seconds since t=0.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Builds an instant from fractional seconds since t=0.
    ///
    /// Negative and non-finite inputs clamp to zero; overly large inputs
    /// clamp to `SimTime::MAX`.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(nanos as u64)
        }
    }

    /// Nanoseconds since t=0.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since t=0.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub(crate) fn saturating_add(self, d: Duration) -> SimTime {
        let nanos = d.as_nanos();
        if nanos >= u128::from(u64::MAX - self.0) {
            SimTime::MAX
        } else {
            SimTime(self.0 + nanos as u64)
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// Converts fractional seconds to a [`Duration`], clamping negatives to zero.
///
/// Cost models produce `f64` seconds; this is the single place where they
/// are quantized onto the simulation clock.
pub fn secs(s: f64) -> Duration {
    if !s.is_finite() || s <= 0.0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(s)
    }
}

/// Converts fractional microseconds to a [`Duration`].
pub fn micros(us: f64) -> Duration {
    secs(us / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_nanos(3).as_nanos(), 3);
    }

    #[test]
    fn secs_f64_roundtrip() {
        let t = SimTime::from_secs_f64(1.25);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::MAX);
    }

    #[test]
    fn add_duration() {
        let t = SimTime::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
    }

    #[test]
    fn add_saturates() {
        let t = SimTime::MAX + Duration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn duration_since_saturates_at_zero() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.duration_since(a), Duration::from_secs(1));
        assert_eq!(a.duration_since(b), Duration::ZERO);
        assert_eq!(b - a, Duration::from_secs(1));
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_secs(2), SimTime::ZERO, SimTime::from_millis(1)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(2));
    }

    #[test]
    fn helper_conversions() {
        assert_eq!(secs(0.001), Duration::from_millis(1));
        assert_eq!(micros(2.0), Duration::from_nanos(2000));
        assert_eq!(secs(-5.0), Duration::ZERO);
        assert_eq!(secs(f64::NAN), Duration::ZERO);
    }
}
