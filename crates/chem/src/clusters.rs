//! Atomic cluster structures for the surrogate fine-tuning application.
//!
//! Stands in for the HydroNet water clusters and methane-in-water
//! structures of §III-B. A [`Structure`] is a set of 3-D atomic
//! positions (reduced units, unit masses); generators produce jittered
//! near-lattice clusters whose geometry is deterministic per seed.

use hetflow_sim::SimRng;

/// A 3-D vector.
pub type Vec3 = [f64; 3];

/// An atomic cluster.
#[derive(Clone, Debug, PartialEq)]
pub struct Structure {
    /// Atom positions (reduced units).
    pub positions: Vec<Vec3>,
}

impl Structure {
    /// Builds a structure from positions.
    pub(crate) fn new(positions: Vec<Vec3>) -> Self {
        assert!(positions.len() >= 2, "a cluster needs at least two atoms");
        Structure { positions }
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    /// Iterates over all `i < j` pairs with their separation vector and
    /// distance: `(i, j, rij_vec, rij)`.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize, Vec3, f64)> + '_ {
        Pairs { positions: &self.positions, i: 0, j: 1 }
    }

    /// Root-mean-square displacement from another structure with the
    /// same atom count.
    pub fn rmsd_to(&self, other: &Structure) -> f64 {
        assert_eq!(self.n_atoms(), other.n_atoms(), "atom count mismatch");
        let ss: f64 = self
            .positions
            .iter()
            .zip(&other.positions)
            .map(|(a, b)| {
                (a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)
            })
            .sum();
        (ss / self.n_atoms() as f64).sqrt()
    }
}

/// [`Structure::pairs`]: a flat cursor over the `i < j` pairs, so each
/// step is one branch the pair loops inline rather than a nested
/// iterator's out-of-line `next`.
struct Pairs<'a> {
    positions: &'a [Vec3],
    i: usize,
    j: usize,
}

impl Iterator for Pairs<'_> {
    type Item = (usize, usize, Vec3, f64);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let n = self.positions.len();
        if self.j == n {
            self.i += 1;
            self.j = self.i + 1;
        }
        if self.j >= n {
            return None;
        }
        let (i, j) = (self.i, self.j);
        self.j += 1;
        let a = self.positions[i];
        let b = self.positions[j];
        let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
        let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
        Some((i, j, d, r))
    }
}

/// Generates a jittered cubic cluster of `n_atoms` atoms with nominal
/// nearest-neighbour spacing `spacing` and positional jitter `jitter`
/// (fractions of the spacing).
pub fn jittered_cluster(n_atoms: usize, spacing: f64, jitter: f64, rng: &mut SimRng) -> Structure {
    assert!(n_atoms >= 2);
    let side = (n_atoms as f64).cbrt().ceil() as usize;
    let mut positions = Vec::with_capacity(n_atoms);
    'outer: for ix in 0..side {
        for iy in 0..side {
            for iz in 0..side {
                if positions.len() == n_atoms {
                    break 'outer;
                }
                positions.push([
                    spacing * (ix as f64 + jitter * (rng.unit() - 0.5)),
                    spacing * (iy as f64 + jitter * (rng.unit() - 0.5)),
                    spacing * (iz as f64 + jitter * (rng.unit() - 0.5)),
                ]);
            }
        }
    }
    Structure::new(positions)
}

/// The default solvated-methane stand-in: a 16-atom jittered cluster at
/// near-equilibrium spacing for [`crate::pes::MorsePes::approx`].
pub fn solvated_methane(seed: u64) -> Structure {
    let mut rng = SimRng::stream(seed, "solvated-methane");
    jittered_cluster(16, 1.12, 0.25, &mut rng)
}

/// Generates the pre-training set: `n` clusters with wider jitter, the
/// stand-in for the HydroNet water-cluster energies.
pub fn pretraining_set(n: usize, seed: u64) -> Vec<Structure> {
    let mut rng = SimRng::stream(seed, "pretraining-set");
    (0..n).map(|_| jittered_cluster(16, 1.12, 0.45, &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Structure {
        /// Distance between atoms `i` and `j`.
        fn distance(&self, i: usize, j: usize) -> f64 {
            let a = self.positions[i];
            let b = self.positions[j];
            ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt()
        }

        /// Minimum interatomic distance.
        fn min_distance(&self) -> f64 {
            self.pairs().map(|(_, _, _, r)| r).fold(f64::INFINITY, f64::min)
        }
    }

    #[test]
    fn cluster_has_requested_atoms() {
        let mut rng = SimRng::from_seed(1);
        let s = jittered_cluster(16, 1.1, 0.2, &mut rng);
        assert_eq!(s.n_atoms(), 16);
    }

    #[test]
    fn atoms_do_not_overlap() {
        let mut rng = SimRng::from_seed(2);
        for _ in 0..20 {
            let s = jittered_cluster(16, 1.1, 0.4, &mut rng);
            assert!(s.min_distance() > 0.3, "min dist {}", s.min_distance());
        }
    }

    #[test]
    fn pairs_cover_all_unordered_pairs() {
        let mut rng = SimRng::from_seed(3);
        let s = jittered_cluster(8, 1.0, 0.1, &mut rng);
        let pairs: Vec<_> = s.pairs().collect();
        assert_eq!(pairs.len(), 8 * 7 / 2);
        for (i, j, d, r) in pairs {
            assert!(i < j);
            let manual = s.distance(i, j);
            assert!((r - manual).abs() < 1e-12);
            let norm = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            assert!((norm - r).abs() < 1e-12);
        }
    }

    /// `Structure::pairs` as it stood as a `flat_map`: the order and
    /// arithmetic the cursor must reproduce.
    fn flat_map_pairs(s: &Structure) -> Vec<(usize, usize, Vec3, f64)> {
        let n = s.n_atoms();
        (0..n)
            .flat_map(move |i| {
                (i + 1..n).map(move |j| {
                    let a = s.positions[i];
                    let b = s.positions[j];
                    let d = [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
                    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
                    (i, j, d, r)
                })
            })
            .collect()
    }

    #[test]
    fn pairs_bit_identical_to_flat_map_reference() {
        let mut rng = SimRng::from_seed(8);
        let bits = |p: &[(usize, usize, Vec3, f64)]| {
            p.iter()
                .map(|&(i, j, d, r)| (i, j, d.map(f64::to_bits), r.to_bits()))
                .collect::<Vec<_>>()
        };
        for n in 2..=20 {
            let s = jittered_cluster(n, 1.12, 0.45, &mut rng);
            let mut pairs = s.pairs();
            let got: Vec<_> = pairs.by_ref().collect();
            assert_eq!(bits(&got), bits(&flat_map_pairs(&s)), "{n} atoms");
            assert_eq!(got.len(), n * (n - 1) / 2);
            assert!(pairs.next().is_none() && pairs.next().is_none(), "{n} atoms: stays done");
        }
    }

    #[test]
    fn deterministic_generators() {
        assert_eq!(solvated_methane(5), solvated_methane(5));
        assert_ne!(solvated_methane(5), solvated_methane(6));
        let a = pretraining_set(3, 9);
        let b = pretraining_set(3, 9);
        assert_eq!(a, b);
        assert_ne!(a[0], a[1], "set members must differ");
    }

    #[test]
    fn rmsd_properties() {
        let s = solvated_methane(1);
        assert_eq!(s.rmsd_to(&s), 0.0);
        let mut moved = s.clone();
        for p in &mut moved.positions {
            p[0] += 0.5;
        }
        assert!((s.rmsd_to(&moved) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two atoms")]
    fn single_atom_rejected() {
        let _ = Structure::new(vec![[0.0; 3]]);
    }
}
