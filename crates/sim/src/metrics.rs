//! Measurement containers used by every experiment harness.
//!
//! The paper reports medians, means, percentile error bars (40th/60th in
//! Fig. 6b), and utilization-over-time traces (Fig. 1). [`Samples`] covers
//! the scalar statistics; [`TimeSeries`] and [`Gauge`] cover the traces.

use crate::time::SimTime;

/// A bag of scalar samples with order statistics.
///
/// Stores raw values. Every [`quantile`](Samples::quantile) /
/// [`median`](Samples::median) call clones the values and selects in
/// the copy, and every [`quantiles`](Samples::quantiles) call clones
/// and sorts it once — O(n) bytes allocated and O(n) or O(n log n)
/// time *per call* — so they belong on report paths, which read a
/// finished run once, and never on a per-task path, where the cost
/// grows with every task already seen (a running order statistic, as
/// `fabric::health` keeps for the hedge delay, is the per-task tool).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation. Non-finite values are rejected loudly:
    /// they always indicate a broken cost model.
    pub fn record(&mut self, v: f64) {
        assert!(v.is_finite(), "non-finite sample {v}");
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Population standard deviation; 0 when fewer than 2 samples.
    pub(crate) fn std_dev(&self) -> f64 {
        if self.values.len() < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / self.values.len() as f64)
            .sqrt()
    }

    /// Standard error of the mean; 0 when fewer than 2 samples.
    pub fn std_err(&self) -> f64 {
        if self.values.len() < 2 {
            0.0
        } else {
            self.std_dev() / (self.values.len() as f64).sqrt()
        }
    }

    /// Quantile by linear interpolation between order statistics;
    /// `q` in `[0, 1]`. Returns 0 when empty.
    ///
    /// Selects the two order statistics instead of sorting. Both this
    /// and [`quantiles`](Samples::quantiles) order by `f64::total_cmp`,
    /// under which the k-th element is unique, so the two agree to the
    /// bit.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let (lo, hi, frac) = rank(q, self.values.len());
        let mut values = self.values.clone();
        let (_, &mut at_lo, above) = values.select_nth_unstable_by(lo, f64::total_cmp);
        if lo == hi {
            return at_lo;
        }
        // `hi == lo + 1`: the least value above rank `lo`.
        above
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .map_or(at_lo, |at_hi| lerp(at_lo, at_hi, frac))
    }

    /// Several quantiles at once, sorting the samples a single time —
    /// use this instead of repeated [`quantile`](Samples::quantile)
    /// calls when printing percentile error bars. Each `q` is clamped
    /// to `[0, 1]`; all results are 0 when empty.
    ///
    /// A NaN `q` is a caller bug (a cut point computed from bad config
    /// arithmetic): it trips a debug assertion, and in release builds
    /// falls back to the median rather than silently returning the
    /// minimum (NaN survives `clamp` and floors to index 0). Samples
    /// themselves are guaranteed finite by [`record`](Samples::record).
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        if self.values.is_empty() {
            return vec![0.0; qs.len()];
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        debug_assert!(
            sorted[0].is_finite() && sorted[sorted.len() - 1].is_finite(),
            "non-finite sample slipped past record()"
        );
        qs.iter()
            .map(|&q| {
                let (lo, hi, frac) = rank(q, sorted.len());
                if lo == hi {
                    sorted[lo]
                } else {
                    lerp(sorted[lo], sorted[hi], frac)
                }
            })
            .collect()
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Minimum sample; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::INFINITY, f64::min)
        }
    }

    /// Maximum sample; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// Merges another sample set into this one.
    pub fn extend_from(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }
}

/// Where quantile `q` falls among `n > 0` order statistics: the ranks
/// either side of it and the weight of the upper one. `q` is clamped to
/// `[0, 1]`; a NaN `q` reads as the median (see
/// [`Samples::quantiles`]).
fn rank(q: f64, n: usize) -> (usize, usize, f64) {
    debug_assert!(!q.is_nan(), "quantile q must be a number");
    let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, pos - lo as f64)
}

fn lerp(at_lo: f64, at_hi: f64, frac: f64) -> f64 {
    at_lo * (1.0 - frac) + at_hi * frac
}

/// A `(time, value)` series, e.g. cumulative bytes transferred (Fig. 1).
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Appends a point; time must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t >= last, "time series must be appended in time order");
        }
        self.points.push((t, v));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Value at time `t` under step (sample-and-hold) interpolation;
    /// `default` before the first point.
    pub fn value_at(&self, t: SimTime, default: f64) -> f64 {
        match self.points.partition_point(|&(pt, _)| pt <= t) {
            0 => default,
            n => self.points[n - 1].1,
        }
    }

    /// Resamples onto a uniform grid of `n` points spanning
    /// `[SimTime::ZERO, end]` — used to print figure series compactly.
    pub fn resample(&self, end: SimTime, n: usize, default: f64) -> Vec<(f64, f64)> {
        assert!(n >= 2, "need at least two grid points");
        let end_s = end.as_secs_f64();
        (0..n)
            .map(|i| {
                let ts = end_s * i as f64 / (n - 1) as f64;
                (ts, self.value_at(SimTime::from_secs_f64(ts), default))
            })
            .collect()
    }
}

/// A level that steps up and down over time (e.g. "tasks running on the
/// GPU resource"), recorded as a full step series.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    level: f64,
    series: TimeSeries,
}

impl Gauge {
    /// Creates a gauge at level 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` (may be negative) at time `t`.
    pub fn add(&mut self, t: SimTime, delta: f64) {
        self.level += delta;
        self.series.push(t, self.level);
    }

    /// Increments by one.
    pub fn inc(&mut self, t: SimTime) {
        self.add(t, 1.0);
    }

    /// Decrements by one.
    pub fn dec(&mut self, t: SimTime) {
        self.add(t, -1.0);
    }

    /// Current level.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// The underlying step series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Time-weighted average level over `[SimTime::ZERO, end]`.
    pub fn time_average(&self, end: SimTime) -> f64 {
        let pts = self.series.points();
        if pts.is_empty() {
            return 0.0;
        }
        let mut area = 0.0;
        let mut prev_t = SimTime::ZERO;
        let mut prev_v = 0.0;
        for &(t, v) in pts {
            if t > end {
                break;
            }
            area += prev_v * (t - prev_t).as_secs_f64();
            prev_t = t;
            prev_v = v;
        }
        area += prev_v * (end - prev_t).as_secs_f64();
        let total = end.as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            area / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_basic_stats() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.record(v);
        }
        assert_eq!(s.len(), 5);
        assert!((s.mean() - 3.0).abs() < 1e-12);
        assert!((s.median() - 3.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 5.0);
    }

    #[test]
    fn empty_samples_are_zero() {
        let s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.quantile(0.9), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_sample_rejected() {
        let mut s = Samples::new();
        s.record(f64::NAN);
    }

    #[test]
    fn quantile_interpolates() {
        let mut s = Samples::new();
        for v in [0.0, 10.0] {
            s.record(v);
        }
        assert!((s.quantile(0.25) - 2.5).abs() < 1e-12);
        assert_eq!(s.quantile(0.0), 0.0);
        assert_eq!(s.quantile(1.0), 10.0);
    }

    #[test]
    fn percentile_order_is_monotone() {
        let mut s = Samples::new();
        for i in 0..100 {
            s.record((i * 7 % 100) as f64);
        }
        let q40 = s.quantile(0.4);
        let q50 = s.quantile(0.5);
        let q60 = s.quantile(0.6);
        assert!(q40 <= q50 && q50 <= q60);
    }

    #[test]
    fn quantiles_batch_matches_singles() {
        let mut s = Samples::new();
        for i in 0..100 {
            s.record((i * 13 % 100) as f64);
        }
        let qs = [0.0, 0.25, 0.4, 0.5, 0.6, 0.75, 1.0];
        let batch = s.quantiles(&qs);
        for (&q, &b) in qs.iter().zip(&batch) {
            assert_eq!(b, s.quantile(q), "q={q}");
        }
        assert_eq!(Samples::new().quantiles(&qs), vec![0.0; qs.len()]);
    }

    #[test]
    fn quantiles_edge_cases() {
        // Empty: every q, even out-of-range ones, yields 0.
        assert_eq!(Samples::new().quantiles(&[0.0, 0.5, 1.0, -3.0, 7.0]), vec![0.0; 5]);
        // Single sample: every q collapses to it.
        let mut one = Samples::new();
        one.record(42.0);
        assert_eq!(one.quantiles(&[0.0, 0.3, 1.0]), vec![42.0; 3]);
        // q = 1.0 exactly hits the max without indexing past the end.
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.record(v);
        }
        assert_eq!(s.quantile(1.0), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
    }

    #[test]
    fn quantiles_clamp_out_of_range_q() {
        let mut s = Samples::new();
        for v in [5.0, 10.0, 15.0] {
            s.record(v);
        }
        assert_eq!(s.quantile(-0.5), 5.0, "q < 0 clamps to the min");
        assert_eq!(s.quantile(1.5), 15.0, "q > 1 clamps to the max");
        assert_eq!(s.quantile(f64::NEG_INFINITY), 5.0);
        assert_eq!(s.quantile(f64::INFINITY), 15.0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "quantile q must be a number"))]
    fn quantiles_reject_nan_q() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0] {
            s.record(v);
        }
        // Debug builds assert; release builds fall back to the median
        // instead of silently returning the minimum.
        assert_eq!(s.quantile(f64::NAN), 2.0);
    }

    #[test]
    fn extend_from_merges() {
        let mut a = Samples::new();
        a.record(1.0);
        let mut b = Samples::new();
        b.record(3.0);
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert!((a.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn series_step_lookup() {
        let mut ts = TimeSeries::default();
        ts.push(SimTime::from_secs(1), 10.0);
        ts.push(SimTime::from_secs(5), 20.0);
        assert_eq!(ts.value_at(SimTime::ZERO, -1.0), -1.0);
        assert_eq!(ts.value_at(SimTime::from_secs(1), -1.0), 10.0);
        assert_eq!(ts.value_at(SimTime::from_secs(3), -1.0), 10.0);
        assert_eq!(ts.value_at(SimTime::from_secs(9), -1.0), 20.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn series_rejects_time_regression() {
        let mut ts = TimeSeries::default();
        ts.push(SimTime::from_secs(5), 1.0);
        ts.push(SimTime::from_secs(1), 2.0);
    }

    #[test]
    fn series_resample_grid() {
        let mut ts = TimeSeries::default();
        ts.push(SimTime::from_secs(0), 0.0);
        ts.push(SimTime::from_secs(10), 100.0);
        let grid = ts.resample(SimTime::from_secs(10), 3, 0.0);
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0], (0.0, 0.0));
        assert_eq!(grid[1], (5.0, 0.0));
        assert_eq!(grid[2], (10.0, 100.0));
    }

    #[test]
    fn gauge_tracks_level_and_average() {
        let mut g = Gauge::new();
        g.inc(SimTime::from_secs(0));
        g.inc(SimTime::from_secs(2));
        g.dec(SimTime::from_secs(4));
        assert_eq!(g.level(), 1.0);
        // Level: 1 on [0,2), 2 on [2,4), 1 on [4,8) => (2+4+4)/8 = 1.25
        let avg = g.time_average(SimTime::from_secs(8));
        assert!((avg - 1.25).abs() < 1e-12, "avg {avg}");
    }

    #[test]
    fn gauge_time_average_empty() {
        let g = Gauge::new();
        assert_eq!(g.time_average(SimTime::from_secs(5)), 0.0);
    }
}
