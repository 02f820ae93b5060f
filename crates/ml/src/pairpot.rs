//! Learnable pair potential — the cluster energy/force surrogate.
//!
//! Stand-in for the paper's SchNet models (§III-B): energies and forces
//! of atomic clusters, trainable on a mix of cheap (approximate-level)
//! and expensive (reference-level) labels, differentiable so MD sampling
//! can run on the *learned* surface.
//!
//! The model is linear in its parameters: `E = Σ_{i<j} Σ_k w_k
//! φ_k(r_ij)` with Gaussian radial basis functions `φ_k`, and forces are
//! the exact analytic gradient `F = -∇E` — so a single ridge solve fits
//! energies and forces *jointly* and the fitted surface is physically
//! consistent (forces integrate to the energy).
//!
//! **Featurize once.** Nearly all of a fit is `exp`: every design row
//! is a sum of Gaussians over a structure's pairs. Those rows depend on
//! the structure and the basis only — not on the fit weights, not on
//! which other structures are in the bag — so a [`DesignBlock`] holds
//! them *unweighted* and [`PairPotential::fit_blocks`] (the one fit
//! core) only scales, stacks and solves. A campaign that refits on
//! mostly unchanged data builds each block once and bags references.
//! `RadialBasis::gaussian` is the one place the basis is evaluated:
//! `φ_k` and `φ'_k` come from a single `exp`, for blocks and for
//! [`EnergyModel::energy_forces`] alike. Each accumulator still sees
//! its terms in pair-then-`k` order, so results are bit-identical to
//! evaluating rows afresh per fit and values/derivatives in two passes.

use crate::linalg::{LinalgError, Matrix};
use crate::ridge::Ridge;
use hetflow_chem::{EnergyModel, Structure, Vec3};

/// Gaussian radial basis on pair distances.
#[derive(Clone, Debug, PartialEq)]
pub struct RadialBasis {
    centers: Vec<f64>,
    inv_two_w2: f64,
    width: f64,
}

impl RadialBasis {
    /// `k` centers uniformly on `[r_min, r_max]`, width `width`.
    pub(crate) fn new(k: usize, r_min: f64, r_max: f64, width: f64) -> Self {
        assert!(k >= 2 && r_max > r_min && width > 0.0);
        let centers = (0..k)
            .map(|i| r_min + (r_max - r_min) * i as f64 / (k - 1) as f64)
            .collect();
        RadialBasis { centers, inv_two_w2: 1.0 / (2.0 * width * width), width }
    }

    /// Default basis covering the cluster interaction range.
    pub fn default_for_clusters() -> Self {
        RadialBasis::new(24, 0.6, 3.2, 0.18)
    }

    /// Basis size.
    pub(crate) fn dim(&self) -> usize {
        self.centers.len()
    }

    /// `(φ(r), dφ/dr)` of the Gaussian centred at `c`, from one `exp`.
    #[inline]
    fn gaussian(&self, r: f64, c: f64) -> (f64, f64) {
        let d = r - c;
        let phi = (-d * d * self.inv_two_w2).exp();
        (phi, -(d / (self.width * self.width)) * phi)
    }
}

/// One labelled training structure.
#[derive(Clone, Debug)]
pub struct LabelledStructure {
    /// The geometry.
    pub structure: Structure,
    /// Total energy label.
    pub energy: f64,
    /// Per-atom force labels; `None` for energy-only data (the cheap
    /// pre-training set provides only energies, §III-B).
    pub forces: Option<Vec<Vec3>>,
}

impl LabelledStructure {
    /// Labels a structure with a physical model's energy (and forces).
    pub fn from_model<M: EnergyModel>(s: &Structure, model: &M, with_forces: bool) -> Self {
        let (e, f) = model.energy_forces(s);
        LabelledStructure {
            structure: s.clone(),
            energy: e,
            forces: with_forces.then_some(f),
        }
    }
}

/// The unweighted design rows and targets one labelled structure
/// contributes to a fit in a given basis: the energy row `Σ_pairs
/// φ_k(r)`, then — when force labels are present — one row per atom and
/// axis, `F_{iα} = -Σ_j φ'_k(r_ij) (x_iα - x_jα)/r_ij`.
#[derive(Clone, Debug)]
pub struct DesignBlock {
    dim: usize,
    /// `targets.len() × dim`, row-major; row 0 is the energy row.
    rows: Vec<f64>,
    targets: Vec<f64>,
}

impl DesignBlock {
    /// Evaluates `basis` over the pairs of `ls.structure`.
    pub fn new(ls: &LabelledStructure, basis: &RadialBasis) -> Self {
        let k = basis.dim();
        let n = ls.structure.n_atoms();
        let forces = ls.forces.as_deref().unwrap_or_default();
        assert!(forces.is_empty() || forces.len() == n, "one force label per atom");
        let n_rows = 1 + 3 * forces.len();
        let mut rows = vec![0.0; n_rows * k];
        let (erow, frows) = rows.split_at_mut(k);
        let mut phi = vec![0.0; k];
        let mut dphi = vec![0.0; k];
        for (i, j, dvec, r) in ls.structure.pairs() {
            for ((p, dp), &c) in phi.iter_mut().zip(&mut dphi).zip(&basis.centers) {
                (*p, *dp) = basis.gaussian(r, c);
            }
            for (e, p) in erow.iter_mut().zip(&phi) {
                *e += p;
            }
            if frows.is_empty() {
                continue;
            }
            for alpha in 0..3 {
                let u = dvec[alpha] / r;
                for (kk, dp) in dphi.iter().enumerate() {
                    let contrib = -dp * u;
                    frows[(i * 3 + alpha) * k + kk] += contrib;
                    frows[(j * 3 + alpha) * k + kk] -= contrib;
                }
            }
        }
        let mut targets = Vec::with_capacity(n_rows);
        targets.push(ls.energy);
        targets.extend(forces.iter().flatten());
        DesignBlock { dim: k, rows, targets }
    }
}

/// Fit weights for the joint energy+force objective.
#[derive(Clone, Copy, Debug)]
pub struct PairPotParams {
    /// Ridge penalty.
    pub lambda: f64,
    /// Weight of energy residuals.
    pub energy_weight: f64,
    /// Weight of force residuals.
    pub force_weight: f64,
}

impl Default for PairPotParams {
    fn default() -> Self {
        PairPotParams { lambda: 1e-6, energy_weight: 1.0, force_weight: 1.0 }
    }
}

/// A fitted pair-potential surrogate.
#[derive(Clone, Debug)]
pub struct PairPotential {
    basis: RadialBasis,
    weights: Vec<f64>,
}

impl PairPotential {
    /// Fits on labelled structures (energies always; forces where
    /// present) with the given weights: featurizes each, then
    /// [`PairPotential::fit_blocks`].
    pub fn fit(
        data: &[LabelledStructure],
        basis: RadialBasis,
        params: PairPotParams,
    ) -> Result<PairPotential, LinalgError> {
        let blocks: Vec<DesignBlock> = data.iter().map(|ls| DesignBlock::new(ls, &basis)).collect();
        let blocks: Vec<&DesignBlock> = blocks.iter().collect();
        PairPotential::fit_blocks(&blocks, basis, params)
    }

    /// Fits on design blocks built in `basis` (a block may appear in any
    /// number of fits): scales energy rows by `√energy_weight` and force
    /// rows by `√force_weight`, stacks them in the order given and
    /// solves the ridge system.
    pub fn fit_blocks(
        blocks: &[&DesignBlock],
        basis: RadialBasis,
        params: PairPotParams,
    ) -> Result<PairPotential, LinalgError> {
        assert!(!blocks.is_empty(), "cannot fit on empty data");
        let k = basis.dim();
        let n_rows: usize = blocks.iter().map(|b| b.targets.len()).sum();
        let mut x = Vec::with_capacity(n_rows * k);
        let mut y = Vec::with_capacity(n_rows);
        let ew = params.energy_weight.sqrt();
        let fw = params.force_weight.sqrt();
        for b in blocks {
            assert_eq!(b.dim, k, "block/basis dimension mismatch");
            let (erow, frows) = b.rows.split_at(k);
            x.extend(erow.iter().map(|v| v * ew));
            x.extend(frows.iter().map(|v| v * fw));
            y.push(b.targets[0] * ew);
            y.extend(b.targets[1..].iter().map(|t| t * fw));
        }
        let x = Matrix::from_vec(n_rows, k, x);
        // No intercept: forces fix the gauge; an energy offset would be
        // unidentifiable from forces alone.
        let y = Matrix::from_vec(n_rows, 1, y);
        let model = Ridge::fit_multi(&x, &y, params.lambda, false)?;
        let weights = (0..k).map(|i| model.weights()[(i, 0)]).collect();
        Ok(PairPotential { basis, weights })
    }

    /// Weight vector (basis coefficients).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The basis all of `members` evaluate, if it is one and the same.
    fn shared_basis(members: &[PairPotential]) -> Option<&RadialBasis> {
        let basis = &members.first()?.basis;
        members.iter().all(|m| m.basis == *basis).then_some(basis)
    }

    /// Every member's energy and forces on each structure, handed to
    /// `visit(structure, energies, forces)` with `forces[m * n_atoms + i]`
    /// the force of member `m` on atom `i`. Members sharing a basis (an
    /// ensemble's do) share one basis evaluation per pair; each then runs
    /// the loop body of [`EnergyModel::energy_forces`] on it, so every
    /// value is bit-identical to calling that per member — which is what
    /// a mixed-basis slice falls back to.
    pub fn energy_forces_many(
        members: &[PairPotential],
        structures: &[Structure],
        mut visit: impl FnMut(&Structure, &[f64], &[Vec3]),
    ) {
        let Some(basis) = PairPotential::shared_basis(members) else {
            for s in structures {
                let (energies, forces): (Vec<f64>, Vec<Vec<Vec3>>) =
                    members.iter().map(|m| m.energy_forces(s)).unzip();
                visit(s, &energies, &forces.concat());
            }
            return;
        };
        let (mut phi, mut dphi) = (vec![0.0; basis.dim()], vec![0.0; basis.dim()]);
        let mut energies = vec![0.0; members.len()];
        let mut forces: Vec<Vec3> = Vec::new();
        for s in structures {
            let n = s.n_atoms();
            energies.fill(0.0);
            forces.clear();
            forces.resize(members.len() * n, [0.0; 3]);
            for (i, j, dvec, r) in s.pairs() {
                for ((p, dp), &c) in phi.iter_mut().zip(&mut dphi).zip(&basis.centers) {
                    (*p, *dp) = basis.gaussian(r, c);
                }
                for (m, model) in members.iter().enumerate() {
                    let (mut energy, mut de) = (energies[m], 0.0);
                    for ((p, dp), wk) in phi.iter().zip(&dphi).zip(&model.weights) {
                        energy += p * wk;
                        de += dp * wk;
                    }
                    energies[m] = energy;
                    let scale = -de / r;
                    let f = &mut forces[m * n..][..n];
                    for alpha in 0..3 {
                        f[i][alpha] += scale * dvec[alpha];
                        f[j][alpha] -= scale * dvec[alpha];
                    }
                }
            }
            visit(s, &energies, &forces);
        }
    }

    /// `out[m][b]`, member `m`'s energy of `batch[b]`: the energy-only
    /// sibling of [`PairPotential::energy_forces_many`], bit-identical to
    /// [`EnergyModel::energy`] per member and structure.
    pub fn energies_many(members: &[PairPotential], batch: &[Structure]) -> Vec<Vec<f64>> {
        let Some(basis) = PairPotential::shared_basis(members) else {
            return members.iter().map(|m| batch.iter().map(|s| m.energy(s)).collect()).collect();
        };
        let mut phi = vec![0.0; basis.dim()];
        let mut out = vec![vec![0.0; batch.len()]; members.len()];
        for (b, s) in batch.iter().enumerate() {
            for (_, _, _, r) in s.pairs() {
                for (p, &c) in phi.iter_mut().zip(&basis.centers) {
                    *p = basis.gaussian(r, c).0;
                }
                for (model, energies) in members.iter().zip(&mut out) {
                    let mut energy = energies[b];
                    for (p, wk) in phi.iter().zip(&model.weights) {
                        energy += p * wk;
                    }
                    energies[b] = energy;
                }
            }
        }
        out
    }
}

impl EnergyModel for PairPotential {
    fn energy_forces(&self, s: &Structure) -> (f64, Vec<Vec3>) {
        let mut energy = 0.0;
        let mut forces = vec![[0.0; 3]; s.n_atoms()];
        for (i, j, dvec, r) in s.pairs() {
            let mut de = 0.0;
            for (&c, wk) in self.basis.centers.iter().zip(&self.weights) {
                let (p, dp) = self.basis.gaussian(r, c);
                energy += p * wk;
                de += dp * wk;
            }
            let scale = -de / r;
            for alpha in 0..3 {
                forces[i][alpha] += scale * dvec[alpha];
                forces[j][alpha] -= scale * dvec[alpha];
            }
        }
        (energy, forces)
    }

    fn energy(&self, s: &Structure) -> f64 {
        let mut energy = 0.0;
        for (_, _, _, r) in s.pairs() {
            for (&c, wk) in self.basis.centers.iter().zip(&self.weights) {
                energy += self.basis.gaussian(r, c).0 * wk;
            }
        }
        energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetflow_chem::{
        force_rmsd, jittered_cluster, numerical_forces, pretraining_set, MorsePes,
    };
    use hetflow_sim::SimRng;
    use proptest::prelude::*;

    /// The design-matrix builder and the two-pass energy/force kernel
    /// as they stood when every fit and every call evaluated the basis
    /// for itself (`values` and `derivs` each with their own `exp`):
    /// what blocks and the one-`exp` kernel must match bit for bit.
    mod reference {
        use super::*;

        fn values(b: &RadialBasis, r: f64, out: &mut [f64]) {
            for (o, &c) in out.iter_mut().zip(&b.centers) {
                let d = r - c;
                *o = (-d * d * b.inv_two_w2).exp();
            }
        }

        fn derivs(b: &RadialBasis, r: f64, out: &mut [f64]) {
            for (o, &c) in out.iter_mut().zip(&b.centers) {
                let d = r - c;
                *o = -(d / (b.width * b.width)) * (-d * d * b.inv_two_w2).exp();
            }
        }

        pub fn design(
            data: &[LabelledStructure],
            basis: &RadialBasis,
            params: PairPotParams,
        ) -> (Matrix, Matrix) {
            let k = basis.dim();
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut targets: Vec<f64> = Vec::new();
            let mut phi = vec![0.0; k];
            let ew = params.energy_weight.sqrt();
            let fw = params.force_weight.sqrt();
            for ls in data {
                let mut erow = vec![0.0; k];
                for (_, _, _, r) in ls.structure.pairs() {
                    values(basis, r, &mut phi);
                    for (e, p) in erow.iter_mut().zip(&phi) {
                        *e += p;
                    }
                }
                rows.push(erow.iter().map(|v| v * ew).collect());
                targets.push(ls.energy * ew);
                if let Some(forces) = &ls.forces {
                    let n = ls.structure.n_atoms();
                    let mut frows = vec![vec![0.0; k]; n * 3];
                    for (i, j, dvec, r) in ls.structure.pairs() {
                        derivs(basis, r, &mut phi);
                        for alpha in 0..3 {
                            let u = dvec[alpha] / r;
                            for (kk, dp) in phi.iter().enumerate() {
                                let contrib = -dp * u;
                                frows[i * 3 + alpha][kk] += contrib;
                                frows[j * 3 + alpha][kk] -= contrib;
                            }
                        }
                    }
                    for (i, f) in forces.iter().enumerate() {
                        for alpha in 0..3 {
                            rows.push(frows[i * 3 + alpha].iter().map(|v| v * fw).collect());
                            targets.push(f[alpha] * fw);
                        }
                    }
                }
            }
            let y = Matrix::from_vec(targets.len(), 1, targets);
            (Matrix::from_rows(&rows), y)
        }

        pub fn energy_forces(m: &PairPotential, s: &Structure) -> (f64, Vec<Vec3>) {
            let mut phi = vec![0.0; m.basis.dim()];
            let mut energy = 0.0;
            let mut forces = vec![[0.0; 3]; s.n_atoms()];
            for (i, j, dvec, r) in s.pairs() {
                values(&m.basis, r, &mut phi);
                let mut de = 0.0;
                for (p, wk) in phi.iter().zip(&m.weights) {
                    energy += p * wk;
                }
                derivs(&m.basis, r, &mut phi);
                for (dp, wk) in phi.iter().zip(&m.weights) {
                    de += dp * wk;
                }
                let scale = -de / r;
                for alpha in 0..3 {
                    forces[i][alpha] += scale * dvec[alpha];
                    forces[j][alpha] -= scale * dvec[alpha];
                }
            }
            (energy, forces)
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n` clusters of 2–8 atoms, each with force labels or without.
    fn mixed_data(n: usize, rng: &mut SimRng) -> Vec<LabelledStructure> {
        let pes = MorsePes::approx();
        (0..n)
            .map(|_| {
                let s = jittered_cluster(2 + rng.below(7), 1.12, 0.45, rng);
                LabelledStructure::from_model(&s, &pes, rng.below(2) == 0)
            })
            .collect()
    }

    proptest! {
        #[test]
        fn fits_over_cached_blocks_bit_identical_to_per_fit_row_builder(
            seed in 0u64..500,
            n in 1usize..12,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let basis = RadialBasis::default_for_clusters();
            let data = mixed_data(n, &mut rng);
            let blocks: Vec<DesignBlock> =
                data.iter().map(|ls| DesignBlock::new(ls, &basis)).collect();
            // Successive fits draw their bags (repeats allowed) from the
            // same blocks, each with its own weights.
            for _ in 0..3 {
                let bag: Vec<usize> = (0..1 + rng.below(n)).map(|_| rng.below(n)).collect();
                let params = PairPotParams {
                    lambda: [1e-6, 1e-3][rng.below(2)],
                    energy_weight: 0.05 + 10.0 * rng.unit(),
                    force_weight: 0.05 + 10.0 * rng.unit(),
                };
                let bagged: Vec<LabelledStructure> =
                    bag.iter().map(|&i| data[i].clone()).collect();
                let (x, y) = reference::design(&bagged, &basis, params);
                let want = Ridge::fit_multi(&x, &y, params.lambda, false)
                    .map(|m| (0..basis.dim()).map(|i| m.weights()[(i, 0)].to_bits()).collect());
                let refs: Vec<&DesignBlock> = bag.iter().map(|&i| &blocks[i]).collect();
                let cached = PairPotential::fit_blocks(&refs, basis.clone(), params)
                    .map(|m| bits(m.weights()));
                prop_assert_eq!(&cached, &want);
                let fresh = PairPotential::fit(&bagged, basis.clone(), params)
                    .map(|m| bits(m.weights()));
                prop_assert_eq!(&fresh, &want);
            }
        }

        #[test]
        fn one_exp_kernel_bit_identical_to_two_pass_reference(
            seed in 0u64..500,
            atoms in 2usize..20,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let basis = RadialBasis::default_for_clusters();
            let weights = (0..basis.dim()).map(|_| rng.standard_normal()).collect();
            let model = PairPotential { basis, weights };
            let s = jittered_cluster(atoms, 1.12, 0.45, &mut rng);
            let (e, f) = model.energy_forces(&s);
            let (e_ref, f_ref) = reference::energy_forces(&model, &s);
            prop_assert_eq!(e.to_bits(), e_ref.to_bits());
            prop_assert_eq!(bits(f.as_flattened()), bits(f_ref.as_flattened()));
            prop_assert_eq!(model.energy(&s).to_bits(), e.to_bits());
        }
    }

    /// What the many-member kernels must return, from the per-member
    /// calls they replace.
    fn per_member(members: &[PairPotential], batch: &[Structure]) -> Vec<(Vec<u64>, Vec<u64>)> {
        batch
            .iter()
            .map(|s| {
                let ef: Vec<_> = members.iter().map(|m| m.energy_forces(s)).collect();
                for (m, (e, _)) in members.iter().zip(&ef) {
                    assert_eq!(m.energy(s).to_bits(), e.to_bits());
                }
                let energies: Vec<f64> = ef.iter().map(|(e, _)| *e).collect();
                let forces: Vec<Vec3> = ef.into_iter().flat_map(|(_, f)| f).collect();
                (bits(&energies), bits(forces.as_flattened()))
            })
            .collect()
    }

    proptest! {
        #[test]
        fn many_member_kernels_bit_identical_to_per_member_calls(
            seed in 0u64..2000,
            n_members in 1usize..=8,
            n_structures in 1usize..4,
            mixed in 0usize..4,
        ) {
            let mut rng = SimRng::from_seed(seed);
            let mut members: Vec<PairPotential> = (0..n_members)
                .map(|_| {
                    let basis = RadialBasis::default_for_clusters();
                    let weights = (0..basis.dim()).map(|_| rng.standard_normal()).collect();
                    PairPotential { basis, weights }
                })
                .collect();
            if mixed == 0 {
                // One member on another basis: no table serves them all.
                let basis = RadialBasis::new(9, 0.5, 3.0, 0.25);
                let weights = (0..basis.dim()).map(|_| rng.standard_normal()).collect();
                let at = rng.below(n_members);
                members[at] = PairPotential { basis, weights };
            }
            let shared = PairPotential::shared_basis(&members).is_some();
            prop_assert_eq!(shared, mixed != 0 || n_members == 1);
            // Sizes vary within a batch, so the flat buffers get reused
            // both larger and smaller than they last were.
            let batch: Vec<Structure> = (0..n_structures)
                .map(|_| jittered_cluster(2 + rng.below(11), 1.12, 0.45, &mut rng))
                .collect();
            let want = per_member(&members, &batch);
            let mut got = Vec::new();
            PairPotential::energy_forces_many(&members, &batch, |s, energies, forces| {
                assert_eq!(forces.len(), members.len() * s.n_atoms());
                got.push((bits(energies), bits(forces.as_flattened())));
            });
            prop_assert_eq!(&got, &want);
            let energies = PairPotential::energies_many(&members, &batch);
            prop_assert_eq!(energies.len(), members.len());
            for (b, (want_e, _)) in want.iter().enumerate() {
                let got_e: Vec<f64> = energies.iter().map(|of_member| of_member[b]).collect();
                prop_assert_eq!(&bits(&got_e), want_e);
            }
        }
    }

    #[test]
    #[should_panic(expected = "block/basis dimension mismatch")]
    fn block_from_another_basis_panics() {
        let data = labelled(1, 9, &MorsePes::approx(), true);
        let block = DesignBlock::new(&data[0], &RadialBasis::new(8, 0.6, 3.2, 0.18));
        let _fit = PairPotential::fit_blocks(
            &[&block],
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        );
    }

    fn labelled(n: usize, seed: u64, model: &MorsePes, with_forces: bool) -> Vec<LabelledStructure> {
        pretraining_set(n, seed)
            .iter()
            .map(|s| LabelledStructure::from_model(s, model, with_forces))
            .collect()
    }

    #[test]
    fn learns_the_approximate_surface() {
        let pes = MorsePes::approx();
        let data = labelled(60, 1, &pes, true);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        // Held-out structures: forces must be close to the truth.
        let test = pretraining_set(10, 99);
        let mut rmsds = Vec::new();
        for s in &test {
            let (_, truth) = pes.energy_forces(s);
            let (_, pred) = fitted.energy_forces(s);
            rmsds.push(force_rmsd(&truth, &pred));
        }
        let mean: f64 = rmsds.iter().sum::<f64>() / rmsds.len() as f64;
        // Typical force magnitudes are O(1); demand an order better.
        assert!(mean < 0.15, "force rmsd {mean}");
    }

    #[test]
    fn surrogate_forces_are_consistent_gradient() {
        let pes = MorsePes::approx();
        let data = labelled(30, 2, &pes, true);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        let s = &pretraining_set(1, 55)[0];
        let (_, analytic) = fitted.energy_forces(s);
        let numeric = numerical_forces(&fitted, s, 1e-6);
        assert!(force_rmsd(&analytic, &numeric) < 1e-6);
    }

    #[test]
    fn fine_tuning_reduces_reference_error() {
        // The §III-B premise end-to-end: pre-train on cheap labels,
        // fine-tune with a few reference-level calculations, and the
        // force error against the reference surface drops.
        let approx = MorsePes::approx();
        let reference = MorsePes::reference();
        let basis = RadialBasis::default_for_clusters();

        let pretrain = labelled(80, 3, &approx, false); // energies only
        let mut seed_forces = labelled(6, 4, &approx, true);
        let mut pre_data = pretrain.clone();
        pre_data.append(&mut seed_forces);
        let pre =
            PairPotential::fit(&pre_data, basis.clone(), PairPotParams::default()).unwrap();

        // Fine-tune set: 30 reference-level calculations.
        let mut ft_data = pretrain;
        ft_data.extend(labelled(30, 5, &reference, true));
        let tuned = PairPotential::fit(
            &ft_data,
            basis,
            PairPotParams { force_weight: 5.0, ..Default::default() },
        )
        .unwrap();

        let test = pretraining_set(12, 77);
        let err = |m: &PairPotential| {
            let mut acc = 0.0;
            for s in &test {
                let (_, truth) = reference.energy_forces(s);
                let (_, pred) = m.energy_forces(s);
                acc += force_rmsd(&truth, &pred);
            }
            acc / test.len() as f64
        };
        let before = err(&pre);
        let after = err(&tuned);
        assert!(
            after < 0.6 * before,
            "fine-tuning must cut reference force error: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn md_runs_stably_on_fitted_surface() {
        // Sampling tasks run MD on the surrogate (§III-B): the fitted
        // surface must support dynamics without exploding.
        let pes = MorsePes::approx();
        let data = labelled(60, 6, &pes, true);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        let start = hetflow_chem::solvated_methane(8);
        let mut rng = hetflow_sim::SimRng::from_seed(7);
        let traj = hetflow_chem::run_md(
            &fitted,
            &start,
            hetflow_chem::MdParams { dt: 0.005, steps: 200, init_temp: 0.1, sample_every: 50 },
            &mut rng,
        );
        let moved = start.rmsd_to(traj.last());
        assert!(moved > 1e-3 && moved < 3.0, "rmsd {moved}");
    }

    #[test]
    fn energy_only_data_still_fits_energies() {
        let pes = MorsePes::approx();
        let data = labelled(80, 8, &pes, false);
        let fitted = PairPotential::fit(
            &data,
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        )
        .unwrap();
        let test = pretraining_set(10, 88);
        let mut se = 0.0;
        let mut var = 0.0;
        let mean_e: f64 =
            test.iter().map(|s| pes.energy(s)).sum::<f64>() / test.len() as f64;
        for s in &test {
            let truth = pes.energy(s);
            se += (fitted.energy(s) - truth).powi(2);
            var += (truth - mean_e).powi(2);
        }
        assert!(se < 0.3 * var, "energy fit must beat the mean baseline: {se} vs {var}");
    }

    #[test]
    #[should_panic(expected = "empty data")]
    fn empty_fit_panics() {
        let _fit = PairPotential::fit(
            &[],
            RadialBasis::default_for_clusters(),
            PairPotParams::default(),
        );
    }
}
