//! Parametric distributions for latency and duration cost models.
//!
//! Calibration tables in `hetflow-core` describe every stochastic cost as a
//! [`Dist`] value, so experiments can swap a constant for a long-tailed
//! model with a one-line change, and property tests can reason about
//! support bounds. A cost that also carries a payload is a [`Link`].

use crate::num;
use crate::rng::SimRng;
use std::time::Duration;

/// A one-dimensional distribution over non-negative reals.
///
/// All variants clamp samples at zero: cost models never produce negative
/// latencies.
#[derive(Clone, Debug, PartialEq)]
pub enum Dist {
    /// Always `value`.
    Constant(f64),
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Log-normal parameterized by its *median* and the σ of the
    /// underlying normal — the natural way to express "typically 500 ms,
    /// occasionally seconds" service latencies. Build it with
    /// [`Dist::log_normal`], which fills `mu`.
    LogNormal {
        /// Median of the distribution (= e^μ).
        median: f64,
        /// σ of the underlying normal.
        sigma: f64,
        /// μ of the underlying normal, `median.ln()`: stored so a draw
        /// does not recompute it.
        mu: f64,
    },
}

impl Dist {
    /// A [`Dist::LogNormal`] with the given median and σ.
    pub fn log_normal(median: f64, sigma: f64) -> Dist {
        Dist::LogNormal { median, sigma, mu: median.ln() }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let x = match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.uniform(*lo, *hi),
            Dist::LogNormal { sigma, mu, .. } => num::exp(mu + sigma * rng.standard_normal()),
        };
        x.max(0.0)
    }

    /// Draws a sample interpreted as seconds and converts it to a
    /// [`Duration`].
    pub fn sample_secs(&self, rng: &mut SimRng) -> Duration {
        crate::time::secs(self.sample(rng))
    }

    /// One payload hop: a draw, plus `bytes` at `bandwidth` bytes/s, as
    /// a [`Duration`]. Every latency-plus-payload cost is this one
    /// expression.
    pub fn sample_hop(&self, rng: &mut SimRng, bytes: u64, bandwidth: f64) -> Duration {
        crate::time::secs(self.sample(rng) + bytes as f64 / bandwidth)
    }
}

/// A payload hop: a per-message latency and a throughput. A cloud store
/// tier, an interchange link, the thinker's queue, a Redis path, a
/// Globus transfer and a (de)serialization pass are each one `Link`.
#[derive(Clone, Debug)]
pub struct Link {
    /// Per-message latency, seconds.
    pub latency: Dist,
    /// Payload throughput, bytes/s.
    pub bandwidth: f64,
}

impl Link {
    /// The hop that costs nothing (kernel tests).
    pub const FREE: Link = Link { latency: Dist::Constant(0.0), bandwidth: f64::INFINITY };

    /// Cost of moving `bytes` over the hop: one latency draw.
    pub fn cost(&self, rng: &mut SimRng, bytes: u64) -> Duration {
        self.latency.sample_hop(rng, bytes, self.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::from_seed(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(2.5);
        let mut rng = SimRng::from_seed(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 2.5);
        }
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::Uniform { lo: 1.0, hi: 3.0 };
        let mut rng = SimRng::from_seed(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((1.0..3.0).contains(&x));
        }
        assert!((mean_of(&d, 20_000, 3) - 2.0).abs() < 0.02);
    }

    #[test]
    fn lognormal_median() {
        let d = Dist::log_normal(0.5, 0.4);
        let mut rng = SimRng::from_seed(6);
        let mut v: Vec<f64> = (0..10_001).map(|_| d.sample(&mut rng)).collect();
        v.sort_by(f64::total_cmp);
        let median = v[5000];
        assert!((median - 0.5).abs() < 0.02, "median {median}");
    }

    #[test]
    fn lognormal_draws_keep_their_bits_with_mu_stored() {
        // The stored μ is the same `f64` the old per-draw `median.ln()`
        // produced, so every draw is bit-identical to the old formula
        // evaluated on a twin stream.
        let pairs = [(0.0005, 0.3), (0.09, 0.35), (1.9, 0.45), (340.0, 0.15), (1.0, 0.0)];
        for (seed, (median, sigma)) in (60..).zip(pairs) {
            let d = Dist::log_normal(median, sigma);
            let mut rng = SimRng::from_seed(seed);
            let mut twin = SimRng::from_seed(seed);
            for _ in 0..1000 {
                let want = num::exp(median.ln() + sigma * twin.standard_normal()).max(0.0);
                assert_eq!(d.sample(&mut rng).to_bits(), want.to_bits(), "({median}, {sigma})");
            }
        }
    }

    #[test]
    fn sample_secs_converts() {
        let d = Dist::Constant(0.25);
        let mut rng = SimRng::from_seed(11);
        assert_eq!(d.sample_secs(&mut rng), Duration::from_millis(250));
    }

    #[test]
    fn link_cost_scales_with_size() {
        let m = Link { latency: Dist::Constant(0.001), bandwidth: 1e8 };
        let mut rng = SimRng::from_seed(1);
        let small = m.cost(&mut rng, 1_000);
        let large = m.cost(&mut rng, 100_000_000);
        assert!(small < Duration::from_millis(2));
        assert!((large.as_secs_f64() - 1.001).abs() < 1e-9);
    }

    #[test]
    fn free_link_costs_exactly_its_zero_latency_draw() {
        let mut rng = SimRng::from_seed(1);
        assert_eq!(Link::FREE.cost(&mut rng, u64::MAX), Duration::ZERO);
    }

    #[test]
    fn link_cost_is_one_latency_draw_plus_payload_over_bandwidth() {
        let links = [
            Link { latency: Dist::log_normal(0.0003, 0.3), bandwidth: 1.2e8 },
            Link { latency: Dist::Uniform { lo: 0.001, hi: 0.01 }, bandwidth: 4.0e4 },
            Link { latency: Dist::Constant(0.005), bandwidth: 2.5e7 },
            Link::FREE,
        ];
        for (seed, link) in (70..).zip(&links) {
            let mut rng = SimRng::from_seed(seed);
            let mut twin = SimRng::from_seed(seed);
            for bytes in [0, 1, 20_000, 3_000_000, 1 << 40] {
                let draw = link.latency.sample(&mut twin);
                let want = crate::time::secs(draw + bytes as f64 / link.bandwidth);
                assert_eq!(link.cost(&mut rng, bytes), want, "{link:?} at {bytes} B");
                // One draw per cost: the two streams are still in step.
                assert_eq!(rng.unit().to_bits(), twin.unit().to_bits(), "{link:?}");
            }
            // No payload costs exactly the latency draw.
            let draw = crate::time::secs(link.latency.sample(&mut twin));
            assert_eq!(link.cost(&mut rng, 0), draw, "{link:?}");
        }
    }
}
