//! Molecular dynamics: velocity-Verlet integration on any
//! [`EnergyModel`].
//!
//! The sampling tasks of §III-B run short MD trajectories *on the
//! trained surrogate* to propose new structures: "initializing the
//! temperature of a structure ... to 100K, then running molecular
//! dynamics for a set number of timesteps", ramping 20 → 1000 steps as
//! the model improves. Unit masses, reduced units, k_B = 1.
//!
//! A trajectory keeps the total energy only at its sampled frames, so
//! only those steps ask the model for its energy; the rest take forces
//! alone ([`EnergyModel::forces_into`]), bit-identical to the forces of
//! a full evaluation.

use crate::clusters::{Structure, Vec3};
use crate::pes::EnergyModel;
use hetflow_sim::SimRng;

/// Result of one MD run.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// Structures at each sampled frame (every `sample_every` steps,
    /// plus the final frame).
    pub frames: Vec<Structure>,
    /// Total energy (kinetic + potential) at the sampled frames.
    pub total_energy: Vec<f64>,
}

impl Trajectory {
    /// The last frame.
    #[expect(
        clippy::expect_used,
        reason = "`run_md` always records the starting frame; an empty trajectory is a \
                  construction bug, not a runtime fault"
    )]
    pub fn last(&self) -> &Structure {
        self.frames.last().expect("trajectory has at least one frame")
    }

    /// Maximum absolute drift of total energy relative to the first
    /// sampled frame.
    pub fn energy_drift(&self) -> f64 {
        let e0 = self.total_energy[0];
        self.total_energy.iter().map(|e| (e - e0).abs()).fold(0.0, f64::max)
    }
}

/// MD parameters.
#[derive(Clone, Copy, Debug)]
pub struct MdParams {
    /// Timestep (reduced units).
    pub dt: f64,
    /// Number of steps.
    pub steps: usize,
    /// Initial temperature (velocity variance scale, k_B = 1, m = 1).
    pub init_temp: f64,
    /// Keep a frame every this many steps (the final frame is always
    /// kept).
    pub sample_every: usize,
}

impl Default for MdParams {
    fn default() -> Self {
        MdParams { dt: 0.01, steps: 100, init_temp: 0.1, sample_every: 10 }
    }
}

/// Draws Maxwell–Boltzmann velocities at `temp` and removes the net
/// momentum so the cluster does not drift.
pub(crate) fn thermal_velocities(n_atoms: usize, temp: f64, rng: &mut SimRng) -> Vec<Vec3> {
    let sigma = temp.max(0.0).sqrt();
    let mut v: Vec<Vec3> = (0..n_atoms)
        .map(|_| {
            [
                sigma * rng.standard_normal(),
                sigma * rng.standard_normal(),
                sigma * rng.standard_normal(),
            ]
        })
        .collect();
    let n = n_atoms as f64;
    for k in 0..3 {
        let mean: f64 = v.iter().map(|vi| vi[k]).sum::<f64>() / n;
        for vi in &mut v {
            vi[k] -= mean;
        }
    }
    v
}

/// Kinetic energy of a velocity set (unit masses).
pub(crate) fn kinetic_energy(v: &[Vec3]) -> f64 {
    0.5 * v.iter().map(|vi| vi[0] * vi[0] + vi[1] * vi[1] + vi[2] * vi[2]).sum::<f64>()
}

/// Runs velocity-Verlet MD from `start` on `model`.
///
/// The potential energy is read only at the frames kept, so only those
/// steps call [`EnergyModel::energy_forces`]; every other step asks for
/// [`EnergyModel::forces_into`] the one force buffer, whose bits are the
/// same.
pub fn run_md<M: EnergyModel>(
    model: &M,
    start: &Structure,
    params: MdParams,
    rng: &mut SimRng,
) -> Trajectory {
    assert!(params.dt > 0.0 && params.steps > 0);
    let n = start.n_atoms();
    let mut s = start.clone();
    let mut v = thermal_velocities(n, params.init_temp, rng);
    let (pe, mut f) = model.energy_forces(&s);
    let mut frames = Vec::new();
    let mut energies = Vec::new();
    frames.push(s.clone());
    energies.push(pe + kinetic_energy(&v));

    let dt = params.dt;
    for step in 1..=params.steps {
        // Half kick, drift, recompute, half kick.
        for i in 0..n {
            for k in 0..3 {
                v[i][k] += 0.5 * dt * f[i][k];
                s.positions[i][k] += dt * v[i][k];
            }
        }
        let kept_pe = if step % params.sample_every.max(1) == 0 || step == params.steps {
            let pe;
            (pe, f) = model.energy_forces(&s);
            Some(pe)
        } else {
            model.forces_into(&s, &mut f);
            None
        };
        for i in 0..n {
            for k in 0..3 {
                v[i][k] += 0.5 * dt * f[i][k];
            }
        }
        if let Some(pe) = kept_pe {
            frames.push(s.clone());
            energies.push(pe + kinetic_energy(&v));
        }
    }
    Trajectory { frames, total_energy: energies }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::solvated_methane;
    use crate::pes::MorsePes;

    #[test]
    fn thermal_velocities_zero_momentum() {
        let mut rng = SimRng::from_seed(1);
        let v = thermal_velocities(32, 0.5, &mut rng);
        for k in 0..3 {
            let net: f64 = v.iter().map(|vi| vi[k]).sum();
            assert!(net.abs() < 1e-12);
        }
    }

    #[test]
    fn thermal_velocities_match_temperature() {
        let mut rng = SimRng::from_seed(2);
        let v = thermal_velocities(4000, 0.25, &mut rng);
        // <v_k^2> = T for unit mass, k_B = 1 (per component).
        let msq: f64 =
            v.iter().map(|vi| vi[0] * vi[0]).sum::<f64>() / v.len() as f64;
        assert!((msq - 0.25).abs() < 0.02, "got {msq}");
    }

    #[test]
    fn md_conserves_energy_with_small_dt() {
        let s = solvated_methane(1);
        let pes = MorsePes::reference();
        let mut rng = SimRng::from_seed(3);
        let traj = run_md(
            &pes,
            &s,
            MdParams { dt: 0.002, steps: 500, init_temp: 0.05, sample_every: 50 },
            &mut rng,
        );
        assert!(traj.energy_drift() < 0.02, "drift {}", traj.energy_drift());
    }

    #[test]
    fn energy_drift_grows_with_dt() {
        let s = solvated_methane(1);
        let pes = MorsePes::reference();
        let drift = |dt: f64| {
            let mut rng = SimRng::from_seed(3); // same velocities
            run_md(
                &pes,
                &s,
                MdParams { dt, steps: 200, init_temp: 0.05, sample_every: 20 },
                &mut rng,
            )
            .energy_drift()
        };
        let small = drift(0.002);
        let large = drift(0.02);
        assert!(large > 2.0 * small, "small {small}, large {large}");
    }

    #[test]
    fn md_produces_displaced_structures() {
        let s = solvated_methane(2);
        let pes = MorsePes::approx();
        let mut rng = SimRng::from_seed(4);
        let traj = run_md(
            &pes,
            &s,
            MdParams { dt: 0.01, steps: 200, init_temp: 0.2, sample_every: 50 },
            &mut rng,
        );
        let moved = s.rmsd_to(traj.last());
        assert!(moved > 0.01, "MD must move atoms, rmsd {moved}");
        assert!(moved < 5.0, "cluster must not explode, rmsd {moved}");
    }

    #[test]
    fn longer_runs_move_further() {
        // The §III-B tradeoff: more timesteps, more diversity.
        let s = solvated_methane(2);
        let pes = MorsePes::approx();
        let dist_after = |steps: usize| {
            let mut rng = SimRng::from_seed(5);
            let traj = run_md(
                &pes,
                &s,
                MdParams { dt: 0.01, steps, init_temp: 0.15, sample_every: steps },
                &mut rng,
            );
            s.rmsd_to(traj.last())
        };
        let short = dist_after(20);
        let long = dist_after(1000);
        assert!(long > short, "short {short}, long {long}");
    }

    #[test]
    fn frames_sampled_at_interval() {
        let s = solvated_methane(1);
        let pes = MorsePes::approx();
        let mut rng = SimRng::from_seed(6);
        let traj = run_md(
            &pes,
            &s,
            MdParams { dt: 0.005, steps: 100, init_temp: 0.1, sample_every: 25 },
            &mut rng,
        );
        // initial + steps 25, 50, 75, 100
        assert_eq!(traj.frames.len(), 5);
        assert_eq!(traj.total_energy.len(), 5);
    }

    /// `run_md` as it stood when every step called `energy_forces`.
    fn run_md_energy_every_step<M: EnergyModel>(
        model: &M,
        start: &Structure,
        params: MdParams,
        rng: &mut SimRng,
    ) -> Trajectory {
        let n = start.n_atoms();
        let mut s = start.clone();
        let mut v = thermal_velocities(n, params.init_temp, rng);
        let (mut pe, mut f) = model.energy_forces(&s);
        let mut frames = vec![s.clone()];
        let mut energies = vec![pe + kinetic_energy(&v)];
        let dt = params.dt;
        for step in 1..=params.steps {
            for i in 0..n {
                for k in 0..3 {
                    v[i][k] += 0.5 * dt * f[i][k];
                    s.positions[i][k] += dt * v[i][k];
                }
            }
            (pe, f) = model.energy_forces(&s);
            for i in 0..n {
                for k in 0..3 {
                    v[i][k] += 0.5 * dt * f[i][k];
                }
            }
            if step % params.sample_every.max(1) == 0 || step == params.steps {
                frames.push(s.clone());
                energies.push(pe + kinetic_energy(&v));
            }
        }
        Trajectory { frames, total_energy: energies }
    }

    #[test]
    fn forces_only_steps_bit_identical_to_energy_every_step() {
        let bits = |t: &Trajectory| {
            let frames = t.frames.iter().flat_map(|s| s.positions.as_flattened());
            let energies = t.total_energy.iter();
            let frames: Vec<u64> = frames.map(|x| x.to_bits()).collect();
            (frames, energies.map(|e| e.to_bits()).collect::<Vec<_>>())
        };
        for pes in [MorsePes::approx(), MorsePes::reference()] {
            let cases = [(1, 100, 25), (2, 37, 10), (3, 20, 1), (4, 50, 0), (5, 9, 40)];
            for (seed, steps, sample_every) in cases {
                let start = solvated_methane(seed);
                let params = MdParams { dt: 0.005, steps, init_temp: 0.1, sample_every };
                let rng = || SimRng::from_seed(seed);
                let got = run_md(&pes, &start, params, &mut rng());
                let want = run_md_energy_every_step(&pes, &start, params, &mut rng());
                let case = format!("seed {seed}, {steps} steps every {sample_every}");
                assert_eq!(bits(&got), bits(&want), "{case}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = solvated_methane(1);
        let pes = MorsePes::reference();
        let run = || {
            let mut rng = SimRng::from_seed(7);
            run_md(&pes, &s, MdParams::default(), &mut rng).last().clone()
        };
        assert_eq!(run(), run());
    }
}
