//! Two-fidelity synthetic potential-energy surface with analytic forces.
//!
//! Stands in for the TTM (cheap, approximate) and DFT/PBE0 (expensive,
//! accurate) levels of theory in §III-B. Both levels are sums of Morse
//! pair potentials; the "DFT" level adds a second, shifted Morse term so
//! the *difference* between levels is smooth and learnable — exactly the
//! property that makes fine-tuning on a few DFT calculations work in the
//! paper's application.
//!
//! **A chunk of pairs per `exp` pass.** [`MorsePes`] evaluates its
//! in-cutoff pairs (`r > cutoff` is skipped) 64 at a time: each term's
//! `exp` over the chunk in one [`hetflow_sim::num::exp_in_place`] pass,
//! then each pair's terms combined in term order, both lane-wise in the
//! widest clone ([`hetflow_sim::num::dispatch`]), then the energy sum and
//! the force scatter pair by pair. Every sum sees its terms in the order
//! one pair at a time gives them, so the bits are those of the scalar
//! loop on every clone; `energy`, `forces_into` and `energy_forces` share
//! the one loop body and agree bit for bit.

use crate::clusters::{Structure, Vec3};
use hetflow_sim::num::{dispatch, exp, exp_in_place};

/// In-cutoff pairs [`MorsePes`] takes per pass of `exp`.
const CHUNK: usize = 64;

/// A force/energy provider over structures.
///
/// Implemented by physical surfaces here and by ML surrogates in
/// `hetflow-ml`, so molecular dynamics can run on either.
pub trait EnergyModel {
    /// Total energy and per-atom forces of `s`.
    fn energy_forces(&self, s: &Structure) -> (f64, Vec<Vec3>);

    /// Energy only (default: discard forces).
    fn energy(&self, s: &Structure) -> f64 {
        self.energy_forces(s).0
    }

    /// The forces of [`EnergyModel::energy_forces`] into `forces`, one
    /// per atom, overwriting it (default: copy them out). A model that
    /// overrides it returns the same bits without summing the energy.
    fn forces_into(&self, s: &Structure, forces: &mut [Vec3]) {
        forces.copy_from_slice(&self.energy_forces(s).1);
    }
}

/// One Morse term: `D (1 - exp(-a (r - r0)))^2 - D`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MorseTerm {
    /// Well depth.
    pub d: f64,
    /// Stiffness.
    pub a: f64,
    /// Equilibrium distance.
    pub r0: f64,
}

impl MorseTerm {
    /// Energy at separation `r`.
    pub(crate) fn energy(&self, r: f64) -> f64 {
        let e = 1.0 - exp(-self.a * (r - self.r0));
        self.d * e * e - self.d
    }

    /// dE/dr at separation `r`.
    pub(crate) fn denergy(&self, r: f64) -> f64 {
        let x = exp(-self.a * (r - self.r0));
        2.0 * self.d * (1.0 - x) * self.a * x
    }

    /// The argument of the term's `exp` at separation `r`.
    #[inline(always)]
    fn exp_arg(&self, r: f64) -> f64 {
        -self.a * (r - self.r0)
    }

    /// `(energy(r), denergy(r))`, bit for bit, from `x = exp(exp_arg(r))`.
    #[inline(always)]
    fn energy_denergy(&self, x: f64) -> (f64, f64) {
        let e = 1.0 - x;
        (self.d * e * e - self.d, 2.0 * self.d * e * self.a * x)
    }
}

/// A pair potential: a sum of Morse terms over all atom pairs, with a
/// *shifted-force* cutoff so both energy and force are continuous at the
/// cutoff (pairs drifting across it would otherwise inject energy and
/// break NVE conservation).
#[derive(Clone, Debug, PartialEq)]
pub struct MorsePes {
    terms: Vec<MorseTerm>,
    /// Interaction cutoff; pairs beyond it contribute nothing.
    pub cutoff: f64,
    /// Σ term energies at the cutoff (shift constant).
    e_cut: f64,
    /// Σ term dE/dr at the cutoff (force-shift constant).
    de_cut: f64,
}

impl MorsePes {
    /// Builds a surface from Morse terms.
    pub(crate) fn new(terms: Vec<MorseTerm>, cutoff: f64) -> Self {
        assert!(!terms.is_empty());
        let e_cut = terms.iter().map(|t| t.energy(cutoff)).sum();
        let de_cut = terms.iter().map(|t| t.denergy(cutoff)).sum();
        MorsePes { terms, cutoff, e_cut, de_cut }
    }

    /// The cheap approximate level ("TTM-like"): a single Morse well.
    pub fn approx() -> Self {
        MorsePes::new(vec![MorseTerm { d: 1.0, a: 2.0, r0: 1.12 }], 3.0)
    }

    /// The reference level ("DFT-like"): the approximate well plus a
    /// smooth correction term (slightly shifted equilibrium, softer
    /// tail). The correction is what fine-tuning must learn.
    pub fn reference() -> Self {
        MorsePes::new(
            vec![
                MorseTerm { d: 1.0, a: 2.0, r0: 1.12 },
                MorseTerm { d: 0.22, a: 1.1, r0: 1.55 },
            ],
            3.0,
        )
    }
}

impl MorsePes {
    /// The one loop body of `energy_forces`, `forces_into` and `energy`:
    /// overwrites `forces` with the forces when `FORCES` is set and
    /// returns the energy, summed only when `ENERGY` is. Neither reads
    /// the other, so each gets the same bits alone as together. In-cutoff
    /// pairs go through stack buffers `CHUNK` at a time (the module doc).
    #[inline(always)]
    fn accumulate<const ENERGY: bool, const FORCES: bool>(
        &self,
        s: &Structure,
        forces: &mut [Vec3],
    ) -> f64 {
        let mut energy = 0.0;
        forces.fill([0.0; 3]);
        let mut pairs = s.pairs();
        let (mut ij, mut dvec, mut r) = ([(0, 0); CHUNK], [[0.0; 3]; CHUNK], [0.0; CHUNK]);
        loop {
            let mut n = 0;
            for (i, j, d, rij) in pairs.by_ref() {
                if rij > self.cutoff {
                    continue;
                }
                (ij[n], dvec[n], r[n]) = ((i, j), d, rij);
                n += 1;
                if n == CHUNK {
                    break;
                }
            }
            let (mut x, mut e_pair, mut de) = ([0.0; CHUNK], [0.0; CHUNK], [0.0; CHUNK]);
            for t in &self.terms {
                for (x, &r) in x[..n].iter_mut().zip(&r) {
                    *x = t.exp_arg(r);
                }
                exp_in_place(&mut x[..n]);
                for ((&x, e_pair), de) in x[..n].iter().zip(&mut e_pair).zip(&mut de) {
                    let (e_t, de_t) = t.energy_denergy(x);
                    if ENERGY {
                        *e_pair += e_t;
                    }
                    if FORCES {
                        *de += de_t;
                    }
                }
            }
            for c in 0..n {
                // Shifted-force correction: continuous E and dE/dr at rc.
                if ENERGY {
                    energy += e_pair[c] - self.e_cut - (r[c] - self.cutoff) * self.de_cut;
                }
                if FORCES {
                    // F_i = -dE/dr * (r_i - r_j)/r ; F_j = -F_i
                    let scale = -(de[c] - self.de_cut) / r[c];
                    let (i, j) = ij[c];
                    for k in 0..3 {
                        forces[i][k] += scale * dvec[c][k];
                        forces[j][k] -= scale * dvec[c][k];
                    }
                }
            }
            if n < CHUNK {
                return energy;
            }
        }
    }
}

impl EnergyModel for MorsePes {
    fn energy_forces(&self, s: &Structure) -> (f64, Vec<Vec3>) {
        let mut forces = vec![[0.0; 3]; s.n_atoms()];
        let energy = dispatch(
            #[inline(always)]
            || self.accumulate::<true, true>(s, &mut forces),
        );
        (energy, forces)
    }

    fn forces_into(&self, s: &Structure, forces: &mut [Vec3]) {
        dispatch(
            #[inline(always)]
            || self.accumulate::<false, true>(s, forces),
        );
    }

    /// The energy of [`EnergyModel::energy_forces`], bit for bit, without
    /// the slopes.
    fn energy(&self, s: &Structure) -> f64 {
        dispatch(
            #[inline(always)]
            || self.accumulate::<true, false>(s, &mut []),
        )
    }
}

/// Numerically differentiates any [`EnergyModel`] (central differences);
/// used in tests and as a reference for surrogate force errors.
pub fn numerical_forces<M: EnergyModel>(model: &M, s: &Structure, h: f64) -> Vec<Vec3> {
    let mut forces = vec![[0.0; 3]; s.n_atoms()];
    let mut work = s.clone();
    for i in 0..s.n_atoms() {
        for k in 0..3 {
            let orig = work.positions[i][k];
            work.positions[i][k] = orig + h;
            let ep = model.energy(&work);
            work.positions[i][k] = orig - h;
            let em = model.energy(&work);
            work.positions[i][k] = orig;
            forces[i][k] = -(ep - em) / (2.0 * h);
        }
    }
    forces
}

/// Root-mean-square deviation between two force sets (the Fig. 7a
/// metric, "RMSD in predicted forces").
pub fn force_rmsd(a: &[Vec3], b: &[Vec3]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = (a.len() * 3) as f64;
    let ss: f64 = a
        .iter()
        .zip(b)
        .map(|(fa, fb)| {
            (fa[0] - fb[0]).powi(2) + (fa[1] - fb[1]).powi(2) + (fa[2] - fb[2]).powi(2)
        })
        .sum();
    (ss / n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clusters::{jittered_cluster, solvated_methane};
    use hetflow_sim::num::{run_on, supported_arms, Arm};
    use hetflow_sim::SimRng;
    use proptest::prelude::*;

    fn bits(f: &[Vec3]) -> Vec<u64> {
        f.iter().flatten().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn morse_minimum_at_r0() {
        let t = MorseTerm { d: 1.0, a: 2.0, r0: 1.12 };
        assert!((t.energy(1.12) - (-1.0)).abs() < 1e-12);
        assert!(t.denergy(1.12).abs() < 1e-12);
        assert!(t.energy(1.0) > t.energy(1.12));
        assert!(t.energy(1.3) > t.energy(1.12));
    }

    #[test]
    fn one_exp_pair_bit_identical_to_energy_and_denergy() {
        for t in MorsePes::reference().terms {
            for step in 0..=4000 {
                let r = 0.3 + 0.001 * step as f64;
                let (e, de) = t.energy_denergy(exp(t.exp_arg(r)));
                assert_eq!(e.to_bits(), t.energy(r).to_bits(), "energy at r = {r}");
                assert_eq!(de.to_bits(), t.denergy(r).to_bits(), "denergy at r = {r}");
            }
        }
    }

    /// `MorsePes::energy_forces` as it stood when each term was asked
    /// for its energy and its slope separately, one `exp` apiece.
    fn two_exp_energy_forces(pes: &MorsePes, s: &Structure) -> (f64, Vec<Vec3>) {
        let mut energy = 0.0;
        let mut forces = vec![[0.0; 3]; s.n_atoms()];
        for (i, j, dvec, r) in s.pairs().filter(|p| p.3 <= pes.cutoff) {
            let e_pair: f64 = pes.terms.iter().fold(0.0, |acc, t| acc + t.energy(r));
            let de = pes.terms.iter().fold(0.0, |acc, t| acc + t.denergy(r)) - pes.de_cut;
            energy += e_pair - pes.e_cut - (r - pes.cutoff) * pes.de_cut;
            let scale = -de / r;
            for k in 0..3 {
                forces[i][k] += scale * dvec[k];
                forces[j][k] -= scale * dvec[k];
            }
        }
        (energy, forces)
    }

    /// What `energy_forces`, `energy` and `forces_into` (into a NaN-filled
    /// buffer) return when their body runs in `arm`'s clone.
    fn kernels_on(arm: Arm, pes: &MorsePes, s: &Structure) -> (f64, Vec<Vec3>, f64, Vec<Vec3>) {
        run_on(
            arm,
            #[inline(always)]
            || {
                let mut f = vec![[0.0; 3]; s.n_atoms()];
                let e = pes.accumulate::<true, true>(s, &mut f);
                let mut f_only = vec![[f64::NAN; 3]; s.n_atoms()];
                pes.accumulate::<false, true>(s, &mut f_only);
                (e, f, pes.accumulate::<true, false>(s, &mut []), f_only)
            },
        )
    }

    /// The three kernels on every arm the host supports, and through the
    /// dispatcher, against [`two_exp_energy_forces`].
    fn assert_kernels_match_two_exp_terms(pes: &MorsePes, s: &Structure, case: &str) {
        let (e_ref, f_ref) = two_exp_energy_forces(pes, s);
        for arm in supported_arms() {
            let (e, f, e_only, f_only) = kernels_on(arm, pes, s);
            assert_eq!(e.to_bits(), e_ref.to_bits(), "energy_forces on {arm:?}, {case}");
            assert_eq!(e_only.to_bits(), e_ref.to_bits(), "energy on {arm:?}, {case}");
            assert_eq!(bits(&f), bits(&f_ref), "energy_forces on {arm:?}, {case}");
            assert_eq!(bits(&f_only), bits(&f_ref), "forces_into on {arm:?}, {case}");
        }
        let (e, f) = pes.energy_forces(s);
        let mut f_only = vec![[f64::NAN; 3]; s.n_atoms()];
        pes.forces_into(s, &mut f_only);
        assert_eq!(e.to_bits(), e_ref.to_bits(), "energy_forces, {case}");
        assert_eq!(pes.energy(s).to_bits(), e_ref.to_bits(), "energy, {case}");
        assert_eq!(bits(&f), bits(&f_ref), "energy_forces, {case}");
        assert_eq!(bits(&f_only), bits(&f_ref), "forces_into, {case}");
    }

    #[test]
    fn energy_forces_bit_identical_to_two_exp_terms() {
        for pes in [MorsePes::approx(), MorsePes::reference()] {
            for seed in 0..20 {
                let s = solvated_methane(seed);
                assert_kernels_match_two_exp_terms(&pes, &s, &format!("seed {seed}"));
            }
        }
    }

    /// A chain of `m + 1` atoms 2 Å apart along x, each up to 0.2 Å off
    /// the axis in y and z, so its `m` neighbour pairs are in the 3 Å
    /// cutoff and every other pair of it is beyond; then an atom far off the axis,
    /// whose pairs are all beyond, and, `at_cutoff`, an atom exactly 3 Å
    /// past the chain's last along x.
    fn chain(m: usize, at_cutoff: bool, rng: &mut SimRng) -> Structure {
        let mut positions: Vec<Vec3> = (0..=m)
            .map(|i| [2.0 * i as f64, 0.4 * rng.unit() - 0.2, 0.4 * rng.unit() - 0.2])
            .collect();
        positions.insert(positions.len() / 2, [1.0, 50.0, 0.0]);
        if at_cutoff {
            let [x, y, z] = positions[positions.len() - 1];
            positions.push([x + 3.0, y, z]);
        }
        Structure::new(positions)
    }

    #[test]
    fn chunked_kernels_bit_identical_to_two_exp_terms_at_chunk_edges_on_every_arm() {
        let mut rng = SimRng::from_seed(54);
        for pes in [MorsePes::approx(), MorsePes::reference()] {
            for m in [0, 1, 63, 64, 65] {
                for at_cutoff in [false, true] {
                    let s = chain(m, at_cutoff, &mut rng);
                    let inside = s.pairs().filter(|p| p.3 <= pes.cutoff).count();
                    assert_eq!(inside, m + usize::from(at_cutoff));
                    assert_eq!(s.pairs().any(|p| p.3 == pes.cutoff), at_cutoff);
                    let case = format!("{m} in cutoff, one at it: {at_cutoff}");
                    assert_kernels_match_two_exp_terms(&pes, &s, &case);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn forces_into_bit_identical_to_energy_forces(
            seed in 0u64..2000,
            atoms in 2usize..=20,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let mut s = jittered_cluster(atoms, 1.12, 0.45, &mut rng);
            // The last atom moves out past the cutoff from the first.
            s.positions[atoms - 1][0] += 3.5;
            prop_assert!(s.pairs().any(|p| p.3 > 3.0));
            for pes in [MorsePes::approx(), MorsePes::reference()] {
                let (_, want) = pes.energy_forces(&s);
                let mut got = vec![[f64::NAN; 3]; atoms];
                pes.forces_into(&s, &mut got);
                prop_assert_eq!(bits(&got), bits(&want));
            }
        }
    }

    #[test]
    fn analytic_forces_match_numerical() {
        let s = solvated_methane(3);
        for pes in [MorsePes::approx(), MorsePes::reference()] {
            let (_, analytic) = pes.energy_forces(&s);
            let numeric = numerical_forces(&pes, &s, 1e-6);
            let err = force_rmsd(&analytic, &numeric);
            assert!(err < 1e-6, "force error {err}");
        }
    }

    #[test]
    fn forces_sum_to_zero() {
        // Pair potentials conserve momentum: net force vanishes.
        let s = solvated_methane(4);
        let (_, forces) = MorsePes::reference().energy_forces(&s);
        for k in 0..3 {
            let net: f64 = forces.iter().map(|f| f[k]).sum();
            assert!(net.abs() < 1e-10, "net force component {net}");
        }
    }

    #[test]
    fn reference_differs_smoothly_from_approx() {
        let approx = MorsePes::approx();
        let refr = MorsePes::reference();
        let mut diffs = Vec::new();
        for seed in 0..10 {
            let s = solvated_methane(seed);
            diffs.push(refr.energy(&s) - approx.energy(&s));
        }
        // The correction is nonzero...
        assert!(diffs.iter().any(|d| d.abs() > 1e-3));
        // ...and consistently signed/structured (attractive tail), not
        // random noise.
        let mean = diffs.iter().sum::<f64>() / diffs.len() as f64;
        assert!(mean.abs() > 0.01, "correction should be systematic, mean {mean}");
    }

    #[test]
    fn cutoff_excludes_far_pairs() {
        let s = Structure::new(vec![[0.0; 3], [10.0, 0.0, 0.0]]);
        let pes = MorsePes::approx();
        let (e, f) = pes.energy_forces(&s);
        assert_eq!(e, 0.0);
        assert!(f.iter().all(|v| *v == [0.0; 3]));
    }

    #[test]
    fn force_rmsd_basics() {
        let a = vec![[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]];
        let b = vec![[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]];
        assert!((force_rmsd(&a, &a)).abs() < 1e-15);
        assert!((force_rmsd(&a, &b) - (1.0f64 / 6.0).sqrt()).abs() < 1e-12);
    }
}
