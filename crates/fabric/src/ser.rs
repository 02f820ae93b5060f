//! Serialization cost model.
//!
//! Python workflow stacks pay a pickle/unpickle pass at every hop
//! (thinker, task server, worker). Fig. 3 shows this "serialization
//! time" as its own bar; the point of proxying is that it becomes
//! size-independent because only the reference is pickled.

use hetflow_sim::{Dist, SimRng};
use std::time::Duration;

/// Cost of one serialize or deserialize pass over a payload.
#[derive(Clone, Debug)]
pub struct SerModel {
    /// Fixed per-pass cost (interpreter overhead).
    pub per_op: Dist,
    /// Payload throughput in bytes/s (pickle speed).
    pub throughput: f64,
}

impl SerModel {
    /// Calibration for a CPython pickle on a login-node core:
    /// ~0.3 ms fixed + ~120 MB/s streaming.
    pub fn python_pickle() -> Self {
        SerModel {
            per_op: Dist::log_normal(0.0003, 0.3),
            throughput: 1.2e8,
        }
    }

    /// A zero-cost model (useful in unit tests).
    pub(crate) fn free() -> Self {
        SerModel { per_op: Dist::Constant(0.0), throughput: f64::INFINITY }
    }

    /// Cost of one pass over `bytes`.
    pub fn cost(&self, rng: &mut SimRng, bytes: u64) -> Duration {
        let fixed = self.per_op.sample(rng);
        hetflow_sim::time::secs(fixed + bytes as f64 / self.throughput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_scales_with_size() {
        let m = SerModel { per_op: Dist::Constant(0.001), throughput: 1e8 };
        let mut rng = SimRng::from_seed(1);
        let small = m.cost(&mut rng, 1_000);
        let large = m.cost(&mut rng, 100_000_000);
        assert!(small < Duration::from_millis(2));
        assert!((large.as_secs_f64() - 1.001).abs() < 1e-9);
    }

    #[test]
    fn free_model_costs_nothing() {
        let m = SerModel::free();
        let mut rng = SimRng::from_seed(1);
        assert_eq!(m.cost(&mut rng, u64::MAX), Duration::ZERO);
    }

    #[test]
    fn python_pickle_reasonable() {
        let m = SerModel::python_pickle();
        let mut rng = SimRng::from_seed(1);
        let c = m.cost(&mut rng, 10_000_000); // 10 MB
        assert!(c > Duration::from_millis(50) && c < Duration::from_millis(300), "{c:?}");
    }
}
