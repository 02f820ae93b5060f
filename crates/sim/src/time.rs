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

/// Below this many seconds [`secs`] converts by itself; at or above it,
/// through `Duration::from_secs_f64`. 2²² s keeps the exponent of every
/// input at most −31, so `mant · 10⁹` shifts right by 31 bits or more.
const EXACT_BELOW_SECS: f64 = (1u64 << 22) as f64;

/// Converts fractional seconds to a [`Duration`], clamping negatives to zero.
///
/// Cost models produce `f64` seconds; this is the single place where they
/// are quantized onto the simulation clock. The result is
/// `Duration::from_secs_f64`'s to the bit — the nearest nanosecond, ties
/// to even — without its general-purpose path: for 0 < `s` < 2²² s,
/// `s = mant · 2^e` with `e ≤ −31` and `mant < 2⁵³`, so `mant · 10⁹` is
/// exact in a `u128` and one rounding shift by `−e` gives the
/// nanoseconds. Larger inputs take std's path.
pub fn secs(s: f64) -> Duration {
    if !s.is_finite() || s <= 0.0 {
        return Duration::ZERO;
    }
    if s >= EXACT_BELOW_SECS {
        return Duration::from_secs_f64(s);
    }
    const MANT_BITS: u32 = 52;
    let bits = s.to_bits();
    let biased = (bits >> MANT_BITS) as u32;
    let frac = bits & ((1 << MANT_BITS) - 1);
    // Subnormals (biased exponent 0) have no implicit bit and e = −1074.
    let (mant, shift) = match biased {
        0 => (frac, 1074),
        _ => (frac | (1 << MANT_BITS), 1075 - biased),
    };
    // mant · 10⁹ < 2⁸³: a shift of 84 or more leaves less than half a
    // nanosecond, which rounds to zero.
    if shift >= 84 {
        return Duration::ZERO;
    }
    let product = u128::from(mant) * 1_000_000_000;
    let nanos = (product >> shift) as u64;
    let rem = product & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    let round_up = rem > half || (rem == half && nanos & 1 == 1);
    Duration::from_nanos(nanos + u64::from(round_up))
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

    /// What `secs` must return: std's conversion, with every input it
    /// rejects or that is not positive clamped to zero.
    fn std_secs(s: f64) -> Duration {
        if !s.is_finite() || s <= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(s)
        }
    }

    /// std panics past `u64::MAX` seconds; so does `secs`, by its fallback.
    const STD_MAX_SECS: f64 = 1.8e19;

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(200_000))]

        #[test]
        fn secs_matches_std_on_raw_bit_patterns(bits in proptest::prelude::any::<u64>()) {
            let s = f64::from_bits(bits);
            if s < STD_MAX_SECS {
                proptest::prop_assert_eq!(secs(s), std_secs(s), "bits {:#018x}", bits);
            }
        }

        #[test]
        fn secs_matches_std_on_latency_scale_inputs(n in 0u64..(10u64 << 40)) {
            // [0, 10) s in steps of 2⁻⁴⁰ s, the range every cost model draws in.
            let s = n as f64 / (1u64 << 40) as f64;
            proptest::prop_assert_eq!(secs(s), std_secs(s), "s = {:e}", s);
        }
    }

    #[test]
    fn secs_rounds_constructed_half_nanosecond_ties_to_even() {
        // s = m / 2¹⁰ with m odd: s · 10⁹ = m · 5⁹ / 2, exactly half-way
        // between two nanosecond counts. Both parities of the lower
        // neighbour occur, so both directions of the tie are checked.
        let (mut up, mut down) = (0, 0);
        for m in (1u64..200_001).step_by(2) {
            let s = m as f64 / 1024.0;
            let got = secs(s);
            assert_eq!(got, std_secs(s), "tie at m = {m}");
            let lower = u128::from(m * 1_953_125 / 2);
            assert_eq!(got.as_nanos() % 2, 0, "tie at m = {m} rounded to odd {got:?}");
            match got.as_nanos() - lower {
                0 => down += 1,
                1 => up += 1,
                _ => panic!("tie at m = {m} left its two neighbours: {got:?}"),
            }
        }
        assert!(up > 0 && down > 0, "ties broke one way only: {up} up, {down} down");
    }

    #[test]
    fn secs_matches_std_at_its_boundaries() {
        let half_ns = 5e-10_f64;
        let at_2_22 = EXACT_BELOW_SECS;
        let cases = [
            half_ns.next_down(),
            half_ns,
            half_ns.next_up(),
            1.5e-9,
            at_2_22.next_down(),
            at_2_22,
            at_2_22.next_up(),
            f64::from_bits(1),
            f64::MIN_POSITIVE.next_down(),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 3.0,
            1e-300,
            2.5e-15,
            1.0,
            0.0,
        ];
        for s in cases {
            assert_eq!(secs(s), std_secs(s), "s = {s:e}");
        }
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, -1e-300, -3.0] {
            assert_eq!(secs(bad), Duration::ZERO, "s = {bad}");
        }
        assert_eq!(secs(f64::from_bits(1)), Duration::ZERO, "the smallest subnormal");
        assert_eq!(secs(at_2_22), Duration::from_secs(1 << 22));
    }
}
