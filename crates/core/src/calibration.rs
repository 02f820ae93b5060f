//! The calibration table: every cost-model constant in one place.
//!
//! Each value is tied to the paper observation it reproduces. These are
//! *effective* parameters of a simulator, not hardware datasheet
//! numbers: e.g. the cloud payload throughputs fold in base64/pickle
//! inflation and API chunking, and are set so the Fig. 3 speedup ratios
//! (2–3× at 10 kB, ~10× at 1 MB) come out of the model rather than
//! being hard-coded.

use crate::platform::{THETA, VENTI};
use hetflow_fabric::{FnXParams, HtexParams};
use hetflow_sim::{Dist, Link};
use hetflow_store::{FsParams, GlobusParams, RedisParams, SiteId, SiteSet};
use std::time::Duration;

/// All infrastructure cost-model parameters for one experiment.
#[derive(Clone)]
pub struct Calibration {
    /// Cloud FaaS model (§V-C1: ElastiCache ≤ 20 kB, S3 above, 10 MB
    /// cap; §V-D3: ~100 ms dispatch).
    pub fnx: FnXParams,
    /// Direct-connection executor model.
    pub htex: HtexParams,
    /// Interchange→Theta link (same facility).
    pub link_theta: Link,
    /// Interchange→Venti link (tunnel across networks).
    pub link_venti: Link,
    /// Globus Transfer service (§V-D1: ~500 ms to start, 1–5 s to
    /// complete, per-user concurrency limit).
    pub globus: GlobusParams,
    /// Theta Lustre file system (shared by login + KNL).
    pub fs_theta: FsParams,
    /// Venti local file system (Globus endpoint's landing zone).
    pub fs_venti: FsParams,
    /// Redis server on the Theta login node, tunnel-reachable from
    /// Venti in the Parsl+Redis configuration.
    pub redis: RedisParams,
    /// Thinker↔server Redis queue hop.
    pub queue: Link,
    /// One CPython pickle pass, at thinker, server, and workers.
    pub ser: Link,
    /// Manager→worker hop inside a node.
    pub worker_hop: Dist,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            fnx: FnXParams::default(),
            htex: HtexParams::default(),
            link_theta: Link {
                // Login node to KNL aggregation switch.
                latency: Dist::log_normal(0.004, 0.3),
                bandwidth: 4.0e7,
            },
            link_venti: Link {
                // Cross-network tunnel; the effective throughput folds
                // in the pickle passes at interchange and manager. Sized
                // so a 3 MB sampling payload costs ~hundreds of ms
                // (Fig. 7b: 820 ms total overhead) while the multi-GB
                // inference batches stay feasible, merely slow (Fig. 6).
                latency: Dist::log_normal(0.012, 0.3),
                bandwidth: 2.5e7,
            },
            globus: GlobusParams::default(),
            fs_theta: FsParams::shared(&[THETA]),
            fs_venti: FsParams::shared(&[VENTI]),
            redis: RedisParams::with_tunnel(THETA, &[VENTI]),
            queue: Link { latency: Dist::log_normal(0.0005, 0.3), bandwidth: 5.0e7 },
            // ~0.3 ms fixed interpreter overhead + ~120 MB/s streaming.
            ser: Link { latency: Dist::log_normal(0.0003, 0.3), bandwidth: 1.2e8 },
            worker_hop: Dist::log_normal(0.002, 0.3),
        }
    }
}

impl Calibration {
    /// The shared-FS parameters for a given site (Fig. 4 runs put the
    /// thinker at RCC; any other site gets its own FS view).
    pub fn fs_for(&self, site: SiteId) -> FsParams {
        if self.fs_theta.members.contains(site) {
            self.fs_theta.clone()
        } else if self.fs_venti.members.contains(site) {
            self.fs_venti.clone()
        } else {
            FsParams {
                members: SiteSet::of(&[site]),
                ..self.fs_theta.clone()
            }
        }
    }
}

/// Task-model constants from §III: durations and payload sizes of every
/// task type in both applications.
pub mod tasks {
    use super::*;
    use hetflow_store::bytes::{KB, MB};

    /// Molecular design: tight-binding IP simulation (~60 s CPU, 1 MB).
    pub fn moldesign_simulate_duration() -> Dist {
        Dist::log_normal(60.0, 0.25)
    }
    /// Simulation result payload.
    pub const MOLDESIGN_SIM_BYTES: u64 = MB;

    /// Molecular design: MPNN training (340 s GPU, 10 MB).
    pub fn moldesign_train_duration() -> Dist {
        Dist::log_normal(340.0, 0.15)
    }
    /// Model payload per training task.
    pub const MOLDESIGN_TRAIN_BYTES: u64 = 10 * MB;

    /// Molecular design: full-library inference (900 s GPU per model,
    /// 2.4 GB moved per task: weights + inputs + outputs).
    pub fn moldesign_infer_duration() -> Dist {
        Dist::log_normal(900.0, 0.1)
    }
    /// The molecule-batch share of the inference input — identical for
    /// every model of a round, so it is proxied once and shared.
    pub const MOLDESIGN_INFER_BATCH_BYTES: u64 = 2_000 * MB;
    /// The per-model weights share of the inference input.
    pub const MOLDESIGN_INFER_WEIGHTS_BYTES: u64 = 100 * MB;
    /// Inference output payload (scores).
    pub const MOLDESIGN_INFER_OUT_BYTES: u64 = 300 * MB;

    /// Fine-tuning: DFT cluster calculation (~360 s CPU, 20 kB).
    pub fn finetune_simulate_duration() -> Dist {
        Dist::log_normal(360.0, 0.3)
    }
    /// DFT result payload.
    pub const FINETUNE_SIM_BYTES: u64 = 20 * KB;

    /// Fine-tuning: SchNet training (~4 min GPU, 21 MB).
    pub fn finetune_train_duration() -> Dist {
        Dist::log_normal(240.0, 0.2)
    }
    /// Training payload.
    pub const FINETUNE_TRAIN_BYTES: u64 = 21 * MB;

    /// Fine-tuning: inference on a batch of 100 structures (3.2 s GPU,
    /// 3 MB).
    pub fn finetune_infer_duration() -> Dist {
        Dist::log_normal(3.2, 0.2)
    }
    /// Inference payload.
    pub const FINETUNE_INFER_BYTES: u64 = 3 * MB;

    /// Fine-tuning: surrogate-MD sampling (1–3 s CPU, 3 MB).
    pub fn finetune_sample_duration() -> Dist {
        Dist::Uniform { lo: 1.0, hi: 3.0 }
    }
    /// Sampling payload.
    pub const FINETUNE_SAMPLE_BYTES: u64 = 3 * MB;

    /// The "6 node-hours of compute" budget of §V-E1, as virtual time on
    /// the simulation workers.
    pub fn moldesign_budget() -> Duration {
        Duration::from_secs(6 * 3600)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = Calibration::default();
        assert_eq!(c.fnx.small_threshold, 20_000, "FuncX ElastiCache split");
        assert_eq!(c.fnx.payload_cap, 10_000_000, "FuncX payload cap");
        assert!(c.redis.connected.contains(VENTI), "tunnel to Venti");
        assert!(c.fs_theta.members.contains(THETA));
        assert!(!c.fs_theta.members.contains(VENTI), "Venti has no Theta FS");
    }

    #[test]
    fn fs_for_known_and_unknown_sites() {
        let c = Calibration::default();
        assert!(c.fs_for(THETA).members.contains(THETA));
        assert!(c.fs_for(VENTI).members.contains(VENTI));
        let rcc = c.fs_for(crate::platform::RCC);
        assert!(rcc.members.contains(crate::platform::RCC));
        assert!(!rcc.members.contains(THETA));
    }

    #[test]
    fn globus_service_window_matches_paper() {
        // §V-D1: transfers typically complete in 1–5 s; the service-time
        // distribution must put most mass in that window.
        let c = Calibration::default();
        let mut rng = hetflow_sim::SimRng::from_seed(2);
        let mut in_window = 0;
        for _ in 0..1000 {
            let s = c.globus.transfer.latency.sample(&mut rng);
            if (1.0..=5.0).contains(&s) {
                in_window += 1;
            }
        }
        assert!(in_window > 850, "only {in_window}/1000 in 1–5 s");
    }

    #[test]
    fn pickle_pass_over_10_mb_is_tens_of_ms() {
        let mut rng = hetflow_sim::SimRng::from_seed(1);
        let c = Calibration::default().ser.cost(&mut rng, 10_000_000);
        assert!(c > Duration::from_millis(50) && c < Duration::from_millis(300), "{c:?}");
    }

    #[test]
    fn task_durations_match_paper_medians() {
        use tasks::*;
        let mut rng = hetflow_sim::SimRng::from_seed(3);
        let mut median = |d: &Dist| {
            let mut v: Vec<f64> = (0..1001).map(|_| d.sample(&mut rng)).collect();
            v.sort_by(f64::total_cmp);
            v[500]
        };
        assert!((median(&moldesign_simulate_duration()) - 60.0).abs() < 5.0);
        assert!((median(&moldesign_train_duration()) - 340.0).abs() < 20.0);
        assert!((median(&moldesign_infer_duration()) - 900.0).abs() < 40.0);
        assert!((median(&finetune_simulate_duration()) - 360.0).abs() < 30.0);
        assert!((median(&finetune_sample_duration()) - 2.0).abs() < 0.2);
    }
}
